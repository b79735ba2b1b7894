"""Acceptance gate: one test per shipping criterion.

A conftest hook prints a single machine-readable ``ACCEPTANCE n: PASS`` /
``ACCEPTANCE n: FAIL`` line per criterion; each test enforces its stated
tolerance with independent oracles computed in this file or in conftest.
"""
import json
import time
import zlib

import numpy as np
import pytest

from hicu.checkpoint import read_container
from hicu.cli import main as cli_main
from hicu.curriculum import CurriculumConfig, Trainer
from hicu.data import SynthConfig, synth_generate
from hicu.icd import (
    DIAGNOSIS,
    PROCEDURE,
    RangeRow,
    RangeTable,
    build_label_tree,
    build_path,
    parse_code,
    parse_code_auto,
)
from hicu.losses import AslConfig, asl, bce
from hicu.metrics import evaluate, macro_micro_f1, precision_at_k
from hicu.network import backward, forward
from hicu.poincare import EmbedConfig, poincare_distance, train_poincare

from conftest import (
    fd_gradient,
    oracle_ancestors,
    oracle_auc,
    oracle_macro_micro_f1,
    oracle_precision_at_k,
    rel_err,
    transferred_queries,
)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def reference_dirs(tmp_path_factory):
    """Reference experiment: synthetic corpus, flat and curriculum models."""
    root = tmp_path_factory.mktemp("reference")
    corpus = root / "corpus"
    t0 = time.perf_counter()
    assert cli_main([
        "synth", "--out", str(corpus), "--branching", "3,3,3,3,3",
        "--docs", "2000,300,300", "--seed", "0",
    ]) == 0
    common = [
        "--ranges", str(corpus / "ranges.tsv"),
        "--train", str(corpus / "train.jsonl"),
        "--valid", str(corpus / "valid.jsonl"),
        "--epochs-per-level", "1,1,1,2,40",
        "--patience", "8",
        "--d-e", "16", "--d-f", "16", "--lr", "0.002", "--seed", "0",
    ]
    assert cli_main(["train", "--mode", "flat", "--out", str(root / "flat")] + common) == 0
    assert cli_main(["train", "--mode", "hicu", "--out", str(root / "hicu")] + common) == 0
    assert cli_main([
        "eval", "--checkpoint", str(root / "flat" / "checkpoint.bin"),
        "--test", str(corpus / "test.jsonl"), "--out", str(root / "flat-eval"),
    ]) == 0
    assert cli_main([
        "eval", "--checkpoint", str(root / "hicu" / "checkpoint.bin"),
        "--test", str(corpus / "test.jsonl"),
        "--train", str(corpus / "train.jsonl"),
        "--baseline", str(root / "flat-eval" / "scores.npy"),
        "--out", str(root / "hicu-eval"),
    ]) == 0
    wall = time.perf_counter() - t0
    return root, corpus, wall


@pytest.fixture(scope="module")
def resume_setup(small_setup):
    _, atree, vocab, splits = small_setup
    cfg = CurriculumConfig(epochs_per_level=(1, 1, 1, 1, 2), d_e=12, d_f=12,
                           lr=2e-3, seed=0)
    return atree, vocab, splits, cfg


# --------------------------------------------------------------- criteria


def test_criterion_1_gradients_match_finite_differences():
    """Analytic gradients vs central differences, h=1e-5, rel err < 1e-4,
    at least 20 instances per parameter, under 30 seconds."""
    from hicu.network import (
        DecoderParams,
        decoder_param_dict,
        encoder_param_dict,
        init_encoder,
        init_fc,
    )

    t0 = time.perf_counter()
    h, tol = 1e-5, 1e-4
    VOCAB, D_E, D_F, S, L, D_H = 12, 4, 5, 3, 6, 3
    counts: dict[str, int] = {}
    loss_cfg = AslConfig(gamma_pos=0.5, gamma_neg=2.0, margin=0.05)
    for mode in ("none", "add", "concat"):
        for loss_name in ("bce", "asl"):
            for seed in range(2):
                rng = np.random.default_rng(1000 * seed + zlib.crc32((mode + loss_name).encode()) % 997)
                enc = init_encoder(rng, VOCAB, D_E, D_F, S)
                fc_w = fc_b = None
                if mode != "none":
                    fc_w, fc_b = init_fc(rng, D_F, D_H, mode)
                Q = rng.normal(size=(D_F, L)) * 0.4
                W = rng.normal(size=(D_F, L)) * 0.4
                b = rng.normal(size=L) * 0.1
                E_h = rng.uniform(-0.5, 0.5, size=(L, D_H)) if mode != "none" else None
                dec = DecoderParams(Q=Q, W=W, b=b, mode=mode, fc_w=fc_w, fc_b=fc_b, E_h=E_h)
                x = rng.integers(1, VOCAB, size=(2, 7))
                y = (rng.random((2, L)) < 0.4).astype(float)

                def total_loss():
                    _, trace = forward(x, enc, dec)
                    if loss_name == "asl":
                        return asl(trace.logits, y, loss_cfg)[0]
                    return bce(trace.logits, y)[0]

                _, trace = forward(x, enc, dec)
                if loss_name == "asl":
                    _, dlogits = asl(trace.logits, y, loss_cfg)
                else:
                    _, dlogits = bce(trace.logits, y)
                grads = backward(trace, enc, dec, dlogits)
                arrays = {**encoder_param_dict(enc), **decoder_param_dict(dec)}
                for name, arr in arrays.items():
                    if name == "embedding":
                        idxs = [int(u) * D_E + int(rng.integers(D_E)) for u in np.unique(x)]
                    else:
                        k = min(arr.size, 6)
                        idxs = list(rng.choice(arr.size, size=k, replace=False))
                    fd = fd_gradient(total_loss, arr, idxs, h=h)
                    for i, g in fd.items():
                        assert rel_err(grads[name].ravel()[i], g) < tol, (mode, loss_name, name)
                    counts[name] = counts.get(name, 0) + len(idxs)
    assert all(c >= 20 for c in counts.values()), counts
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient gate took {elapsed:.1f}s"


def test_criterion_2_asl_at_zero_settings_equals_bce():
    """ASL with both exponents and the margin at zero reproduces binary
    cross-entropy to 1e-12 on 1000 random logit vectors."""
    rng = np.random.default_rng(42)
    cfg = AslConfig(gamma_pos=0.0, gamma_neg=0.0, margin=0.0)
    for _ in range(1000):
        n = int(rng.integers(4, 17))
        x = rng.normal(size=n) * 3.0
        y = (rng.random(n) < 0.5).astype(float)
        l_a, g_a = asl(x, y, cfg)
        l_b, g_b = bce(x, y)
        assert abs(l_a - l_b) < 1e-12 * max(1.0, abs(l_b))
        assert np.max(np.abs(g_a - g_b)) < 1e-12


def test_criterion_3_tree_paths_and_ancestors():
    """All five path shapes anchor correctly and parent-pointer walks match
    the constructed paths exactly."""
    ranges = RangeTable([
        RangeRow(DIAGNOSIS, "390", "459", "401", "405"),
        RangeRow(DIAGNOSIS, "680", "709", "680", "686"),
        RangeRow(DIAGNOSIS, "740", "759", "745", "745"),
        RangeRow(PROCEDURE, "35", "39", "35", "35"),
    ])
    expected = {
        # full-depth two-decimal diagnosis code under a real second range
        "682.61": ["680-709", "680-686", "682", "682.6", "682.61"],
        # one-decimal code padded down one level
        "401.9": ["390-459", "401-405", "401", "401.9", "401.9"],
        # integer code padded down two levels
        "681": ["680-709", "680-686", "681", "681", "681"],
        # procedure code with a synthetic same-start-end second range
        "36.15": ["35-39", "36-36", "36", "36.1", "36.15"],
        # diagnosis whose listed second range is already same-start-end
        "745.4": ["740-759", "745-745", "745", "745.4", "745.4"],
    }
    for raw, labels in expected.items():
        path = build_path(parse_code_auto(raw), ranges)
        assert [n.label for n in path] == labels, raw
        assert [n.level for n in path] == [1, 2, 3, 4, 5]
    # synthetic fallback for a code covered only by a first-level range
    path = build_path(parse_code_auto("700"), ranges)
    assert [n.label for n in path][:2] == ["680-709", "700-700"]

    codes = [parse_code_auto(c) for c in expected] + [parse_code_auto("700")]
    tree = build_label_tree(codes, ranges)
    for raw in list(expected) + ["700"]:
        path = build_path(parse_code_auto(raw), ranges)
        assert oracle_ancestors(tree, path[-1]) == list(reversed(path[:-1])), raw
    assert all(n.level == tree.k_max for n in tree.leaves())


def test_criterion_4_knowledge_transfer_sibling_equality(small_setup):
    """After transfer, every child's query column equals its parent's, so
    sibling columns start identical; the child queries are C-ordered, as a
    resumed trainer reads them back."""
    _, atree, _, _ = small_setup
    rng = np.random.default_rng(7)
    for k in range(1, atree.k_max):
        q = rng.normal(size=(8, len(atree.level_labels(k))))
        child_q = transferred_queries(q, atree, k)
        assert child_q.flags.c_contiguous
        nodes = atree.nodes_at_level(k + 1)
        parents = atree.level_labels(k)
        for j, node in enumerate(nodes):
            p = parents.index(atree.parent[node].label)
            assert np.array_equal(child_q[:, j], q[:, p])
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                if atree.parent[a] == atree.parent[b]:
                    assert np.array_equal(child_q[:, i], child_q[:, j])


def test_criterion_5_hyperbolic_geometry():
    """Known distance value to 1e-9; trained embeddings place siblings closer
    than non-siblings and correlate positively with tree distance."""
    d = poincare_distance(np.zeros(2), np.array([0.5, 0.0]))
    assert abs(d - np.log(3.0)) < 1e-9

    rows = [
        RangeRow(DIAGNOSIS, "100", "199", "100", "109"),
        RangeRow(DIAGNOSIS, "200", "299", "200", "209"),
    ]
    codes = ["100.11", "100.12", "100.21", "200.11", "200.12", "200.21"]
    tree = build_label_tree([parse_code_auto(c) for c in codes], RangeTable(rows))
    emb = train_poincare(tree, EmbedConfig(d_h=10, epochs=120, burn_in_epochs=10,
                                           negatives_per_positive=5, seed=0))
    nodes, edges = tree.core_graph()
    index = {n: i for i, n in enumerate(nodes)}
    leaves = tree.leaves()
    sib, non = [], []
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            dist = poincare_distance(emb.vectors[index[a]], emb.vectors[index[b]])
            (sib if tree.parent[a] == tree.parent[b] else non).append(dist)
    assert np.mean(sib) < np.mean(non)

    from scipy.stats import spearmanr

    adj = {i: set() for i in range(len(nodes))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    tree_d, ball_d = [], []
    for i in range(len(nodes)):
        dist = {i: 0}
        frontier = [i]
        while frontier:
            nxt = []
            for xx in frontier:
                for yy in adj[xx]:
                    if yy not in dist:
                        dist[yy] = dist[xx] + 1
                        nxt.append(yy)
            frontier = nxt
        for j in range(i + 1, len(nodes)):
            tree_d.append(dist[j])
            ball_d.append(poincare_distance(emb.vectors[i], emb.vectors[j]))
    rho, _ = spearmanr(tree_d, ball_d)
    assert rho > 0


def test_criterion_6_metrics_match_oracles():
    """Macro/micro AUC and F1 and P@K agree with brute-force pair-counting
    and confusion-matrix oracles to 1e-12 on 100 random matrices."""
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        scores = rng.random((n, m))
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        labels = (rng.random((n, m)) < 0.4).astype(float)

        o_macro_f1, o_micro_f1 = oracle_macro_micro_f1(scores, labels)
        macro_f1, micro_f1 = macro_micro_f1(scores, labels)
        assert abs(macro_f1 - o_macro_f1) < 1e-12
        assert abs(micro_f1 - o_micro_f1) < 1e-12

        for k in (1, m):
            assert abs(precision_at_k(scores, labels, k)
                       - oracle_precision_at_k(scores, labels, k)) < 1e-12

        per = [oracle_auc(scores[:, j], labels[:, j]) for j in range(m)]
        defined = [a for a in per if a is not None]
        micro_o = oracle_auc(scores.ravel(), labels.ravel())
        if defined and micro_o is not None:
            result, _ = evaluate(scores, labels, ks=())
            macro, micro, skipped = (result[key] for key in ("macro_auc", "micro_auc", "skipped_labels"))
            assert abs(macro - float(np.mean(defined))) < 1e-12
            assert abs(micro - micro_o) < 1e-12
            assert skipped == m - len(defined)
            checked += 1
    assert checked >= 50


def test_criterion_7_reference_experiment(reference_dirs, record_property):
    """End-to-end reference run finishes in under 5 minutes; the flat model
    reaches micro-F1 >= 0.6, the curriculum completes all 5 rounds and lands
    within 0.05 of flat, and the evaluation emits the per-frequency-bucket
    AUC-delta table (rare-quartile direction is a logged soft check)."""
    root, corpus, wall = reference_dirs
    assert wall < 300.0, f"reference experiment took {wall:.0f}s"

    flat_eval = [json.loads(l) for l in
                 (root / "flat-eval" / "eval.jsonl").read_text().splitlines()]
    hicu_eval = [json.loads(l) for l in
                 (root / "hicu-eval" / "eval.jsonl").read_text().splitlines()]
    flat_f1 = flat_eval[0]["micro_f1"]
    hicu_f1 = hicu_eval[0]["micro_f1"]
    assert flat_f1 >= 0.6, flat_f1

    report = [json.loads(l) for l in
              (root / "hicu" / "report.jsonl").read_text().splitlines()]
    assert {r["level"] for r in report if r["event"] == "epoch"} == {1, 2, 3, 4, 5}
    assert abs(hicu_f1 - flat_f1) <= 0.05, (flat_f1, hicu_f1)

    buckets = [r for r in hicu_eval if r["event"] == "auc_bucket"]
    assert len(buckets) == 4
    assert all("mean_auc_delta" in b for b in buckets if b["n_scored"])
    rare = buckets[0].get("mean_auc_delta")
    note = f"flat={flat_f1:.3f} hicu={hicu_f1:.3f}"
    if rare is not None:
        verdict = "improves" if rare > 0 else "does not improve"
        note += f"; soft check: curriculum {verdict} rare-quartile AUC, delta={rare:+.4f}"
    record_property("acceptance_note", note)


def test_criterion_8_repeat_runs_byte_identical(tmp_path):
    """Two CLI training runs with identical inputs and seed produce
    byte-identical checkpoints and reports."""
    corpus = tmp_path / "corpus"
    assert cli_main([
        "synth", "--out", str(corpus), "--branching", "2,2,2,2,2",
        "--docs", "120,40,40", "--seed", "5",
    ]) == 0
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert cli_main([
            "train",
            "--ranges", str(corpus / "ranges.tsv"),
            "--train", str(corpus / "train.jsonl"),
            "--valid", str(corpus / "valid.jsonl"),
            "--out", str(out),
            "--epochs-per-level", "1,1,1,1,2",
            "--d-e", "12", "--d-f", "12", "--lr", "0.002", "--seed", "0",
        ]) == 0
        outs.append(out)
    for artifact in ("checkpoint.bin", "report.jsonl"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, artifact


def test_criterion_9_checkpoint_round_trip_and_resume(resume_setup, tmp_path):
    """save -> load -> save is byte-identical, and resuming for one epoch is
    bitwise identical to an uninterrupted run."""
    atree, vocab, splits, cfg = resume_setup

    trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg)
    for _ in range(3):
        trainer.step_epoch()
    p1 = tmp_path / "a.bin"
    trainer.save(p1)
    loaded = Trainer.load(p1, splits["train"], splits["valid"], atree, None)
    p2 = tmp_path / "b.bin"
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()

    straight = Trainer(splits["train"], splits["valid"], atree, None, cfg)
    for _ in range(4):
        straight.step_epoch()
    resumed = Trainer.load(p1, splits["train"], splits["valid"], atree, None)
    resumed.step_epoch()
    assert resumed.records == straight.records
    for name in straight.params:
        assert np.array_equal(resumed.params[name], straight.params[name]), name
    for name in straight.adam.m:
        assert np.array_equal(resumed.adam.m[name], straight.adam.m[name]), name
        assert np.array_equal(resumed.adam.v[name], straight.adam.v[name]), name
    meta1, _ = read_container(p1)
    assert meta1["kind"] == "trainer"
