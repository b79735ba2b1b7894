"""Shared fixtures and independent brute-force oracles for the test suite."""
from __future__ import annotations

import re

import numpy as np
import pytest

_ACCEPTANCE_RE = re.compile(r"test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    """One machine-readable verdict line per acceptance criterion.

    Runs outside capture, so the lines always reach the terminal.
    """
    if report.when != "call":
        return
    m = _ACCEPTANCE_RE.search(report.nodeid)
    if not m:
        return
    verdict = "PASS" if report.passed else "FAIL"
    notes = [v for k, v in report.user_properties if k == "acceptance_note"]
    suffix = f" ({notes[0]})" if notes else ""
    print(f"\nACCEPTANCE {m.group(1)}: {verdict}{suffix}", flush=True)

from hicu.curriculum import CurriculumConfig, init_level_decoder
from hicu.data import SynthConfig, build_vocab, load_dataset, synth_generate, tokenize
from hicu.network import DecoderParams

# ------------------------------------------------------------------ oracles


def fd_gradient(loss_fn, arr: np.ndarray, indices, h: float = 1e-5) -> dict[int, float]:
    """Central finite differences of a scalar loss at selected flat indices."""
    flat = arr.ravel()
    out = {}
    for i in indices:
        old = flat[i]
        flat[i] = old + h
        lp = loss_fn()
        flat[i] = old - h
        lm = loss_fn()
        flat[i] = old
        out[i] = (lp - lm) / (2.0 * h)
    return out


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def oracle_auc(scores, labels):
    """Pair-counting AUC: ties 0.5; None when one class is missing."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def oracle_macro_micro_f1(scores, labels, threshold=0.5):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    preds = scores >= threshold
    per = []
    tot_tp = tot_fp = tot_fn = 0
    for j in range(scores.shape[1]):
        tp = int(np.sum(preds[:, j] & labels[:, j]))
        fp = int(np.sum(preds[:, j] & ~labels[:, j]))
        fn = int(np.sum(~preds[:, j] & labels[:, j]))
        per.append(oracle_f1(tp, fp, fn))
        tot_tp, tot_fp, tot_fn = tot_tp + tp, tot_fp + fp, tot_fn + fn
    return float(np.mean(per)), oracle_f1(tot_tp, tot_fp, tot_fn)


def oracle_precision_at_k(scores, labels, k):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    total = 0.0
    for d in range(scores.shape[0]):
        ranked = sorted(range(scores.shape[1]), key=lambda j: (-scores[d, j], j))
        total += sum(labels[d, j] for j in ranked[:k]) / k
    return total / scores.shape[0]


def oracle_ancestors(tree, node):
    """Walk parent pointers to the root, exclusive of the root itself."""
    out = []
    while node in tree.parent:
        node = tree.parent[node]
        if node.level >= 1:
            out.append(node)
    return out


# ----------------------------------------------------------------- helpers


def transferred_queries(q: np.ndarray, tree, k: int) -> np.ndarray:
    """The level-(k+1) query matrix the trainer starts from after training
    level k to the queries ``q``."""
    parent = DecoderParams(Q=q, W=np.zeros_like(q), b=np.zeros(q.shape[1]))
    cfg = CurriculumConfig(d_f=q.shape[0])
    return init_level_decoder(parent, k, tree, k + 1, cfg, np.random.default_rng(0)).Q


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def small_corpus():
    cfg = SynthConfig(branching=(2, 2, 2, 2, 2), docs_per_split=(120, 40, 40),
                      doc_length=64, seed=3)
    return synth_generate(cfg)


@pytest.fixture(scope="session")
def small_setup(small_corpus):
    """Corpus plus label tree, vocab and indexed splits."""
    vocab = build_vocab(
        (tokenize(r["text"]) for r in small_corpus.splits["train"]), min_count=3
    )
    splits = {
        name: load_dataset(records, vocab, 128)
        for name, records in small_corpus.splits.items()
    }
    return small_corpus, small_corpus.tree, vocab, splits
