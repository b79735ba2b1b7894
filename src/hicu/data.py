"""Dataset ingestion, vocabulary, word embeddings and the synthetic corpus.

Dataset files are line-delimited JSON records with fields ``id`` (string),
``text`` (string) and ``labels`` (list of code strings).
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .icd import (
    DIAGNOSIS,
    LabelTree,
    RangeRow,
    RangeTable,
    build_label_tree,
    parse_code_auto,
)

PAD, UNK = 0, 1

_TOKEN_RE = re.compile(r"[A-Za-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of ASCII letters; everything else separates."""
    return [tok.lower() for tok in _TOKEN_RE.findall(text)]


@dataclass
class Vocab:
    token_to_idx: dict[str, int]
    min_count: int

    @property
    def size(self) -> int:
        return len(self.token_to_idx) + 2  # PAD and UNK are reserved

    def lookup(self, token: str) -> int:
        return self.token_to_idx.get(token, UNK)

    def indices(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.lookup(t) for t in tokens], dtype=np.int64)

    def tokens_in_order(self) -> list[str]:
        return sorted(self.token_to_idx, key=self.token_to_idx.get)


def build_vocab(corpus, min_count: int = 3) -> Vocab:
    """Index tokens with frequency >= min_count; frequency desc, then lexicographic."""
    counts = Counter()
    empty = True
    for tokens in corpus:
        empty = False
        counts.update(tokens)
    if empty:
        raise ValueError("empty corpus")
    eligible = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocab({tok: i + 2 for i, tok in enumerate(eligible)}, min_count=min_count)


@dataclass
class Document:
    id: str
    tokens: np.ndarray  # int64 indices
    labels: tuple[str, ...]


@dataclass
class Dataset:
    docs: list[Document]
    skipped_empty: int = 0

    def label_matrix(self, codes: list[str]) -> np.ndarray:
        """0/1 targets, one row per document; every label must be one of ``codes``."""
        index = {c: i for i, c in enumerate(codes)}
        y = np.zeros((len(self.docs), len(codes)), dtype=np.float64)
        for d, doc in enumerate(self.docs):
            for label in doc.labels:
                if label not in index:
                    raise ValueError(f"document {doc.id!r}: label {label!r} not a tree leaf")
                y[d, index[label]] = 1.0
        return y


def read_jsonl(path) -> list[dict]:
    """The records of a JSONL dataset file; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path, records) -> None:
    """Write one sorted-key JSON record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_dataset(records: list[dict], vocab: Vocab, max_len: int) -> Dataset:
    """Tokenize and index dataset records; ``Dataset.label_matrix`` checks the labels.

    Documents without tokens are skipped and counted.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    docs = []
    skipped = 0
    for rec in records:
        tokens = tokenize(rec["text"])[:max_len]
        if not tokens:
            skipped += 1
            continue
        docs.append(
            Document(
                id=rec["id"],
                tokens=vocab.indices(tokens),
                labels=tuple(sorted(set(rec["labels"]))),
            )
        )
    return Dataset(docs=docs, skipped_empty=skipped)


def filter_top_k_labels(splits: list[list[dict]], k: int) -> list[list[dict]]:
    """Restrict every split to the k codes most frequent in ``splits[0]``.

    Ties are broken lexicographically; records left without labels are dropped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = Counter(label for rec in splits[0] for label in rec["labels"])
    keep = set(sorted(counts, key=lambda c: (-counts[c], c))[:k])
    return [restrict_labels(records, keep) for records in splits]


def restrict_labels(records: list[dict], keep) -> list[dict]:
    """Records with their labels cut to ``keep``; records left without labels are dropped."""
    out = []
    for rec in records:
        labels = sorted(l for l in rec["labels"] if l in keep)
        if labels:
            out.append({**rec, "labels": labels})
    return out


def load_embeddings(path, vocab: Vocab, d_e: int, seed: int = 0) -> np.ndarray:
    """Embedding matrix for the vocabulary from a word-vector text file.

    File format: header ``n d``, then ``token v1 ... v_d`` per line.  Tokens
    absent from the file get seeded uniform rows in [-0.1, 0.1]; the PAD row
    is zero.
    """
    table: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed embedding header")
        file_d = int(header[1])
        if file_d != d_e:
            raise ValueError(f"{path}: file dimension {file_d} != requested {d_e}")
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != d_e + 1:
                raise ValueError(f"{path}: malformed row for token {parts[0]!r}")
            table[parts[0]] = np.array([float(x) for x in parts[1:]])
    rng = np.random.default_rng(seed)
    out = np.empty((vocab.size, d_e), dtype=np.float64)
    out[PAD] = 0.0
    out[UNK] = rng.uniform(-0.1, 0.1, size=d_e)
    for token in vocab.tokens_in_order():
        idx = vocab.token_to_idx[token]
        if token in table:
            out[idx] = table[token]
        else:
            out[idx] = rng.uniform(-0.1, 0.1, size=d_e)
    return out


MAX_POSITIVE_LABELS = 5  # a synthetic document has 1..MAX_POSITIVE_LABELS leaves
NOISE_VOCAB_SIZE = 50  # distinct noise words in the synthetic corpus


@dataclass
class SynthConfig:
    """Synthetic hierarchical corpus: planted node signatures plus noise."""

    branching: tuple[int, int, int, int, int] = (3, 3, 3, 3, 3)
    zipf_exponent: float = 1.5
    tokens_per_signature: int = 2
    doc_length: int = 64
    noise_rate: float = 0.05
    docs_per_split: tuple[int, int, int] = (2000, 300, 300)
    seed: int = 0

    def validate(self) -> None:
        if len(self.branching) != 5 or any(b < 1 for b in self.branching):
            raise ValueError("branching must be five positive integers")
        b1, b2, b3, b4, b5 = self.branching
        if b1 > 8 or max(b2, b3, b4, b5) > 10:
            raise ValueError("branching exceeds the code-format capacity (8,10,10,10,10)")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf exponent must be positive")
        if min(self.tokens_per_signature, self.doc_length) < 1:
            raise ValueError("signature size and doc length must be positive")
        if not 0 <= self.noise_rate < 1:
            raise ValueError("noise rate must lie in [0, 1)")
        if any(d < 1 for d in self.docs_per_split):
            raise ValueError("split sizes must be positive")
        pool_max = 5 * MAX_POSITIVE_LABELS * self.tokens_per_signature
        if self.doc_length < pool_max:
            raise ValueError(
                f"doc_length {self.doc_length} too short for signature coverage "
                f"(needs >= {pool_max})"
            )


def _word(prefix: str, i: int) -> str:
    letters = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        letters = chr(ord("a") + r) + letters
    return prefix + letters


@dataclass
class SynthCorpus:
    splits: dict[str, list[dict]]  # split name -> raw JSON records
    tree: LabelTree
    ranges: RangeTable

    def write(self, out_dir) -> None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        for name, records in self.splits.items():
            write_jsonl(os.path.join(out_dir, f"{name}.jsonl"), records)
        self.ranges.to_file(os.path.join(out_dir, "ranges.tsv"))
        with open(os.path.join(out_dir, "tree.json"), "w", encoding="utf-8") as fh:
            fh.write(self.tree.to_json() + "\n")


def synth_generate(cfg: SynthConfig) -> SynthCorpus:
    """Generate a deterministic synthetic corpus over a five-level code tree.

    Every tree node owns a disjoint token signature; a document contains one
    copy of each signature token of its positive leaves and their ancestors,
    padded with uniform signature/noise draws and shuffled.
    """
    cfg.validate()
    b1, b2, b3, b4, b5 = cfg.branching
    rng = np.random.default_rng(cfg.seed)

    rows = []
    leaf_paths: dict[str, list[str]] = {}
    codes = []
    for i in range(b1):
        base = 100 * (i + 1)
        l1 = f"{base}-{base + 99}"
        for j in range(b2):
            lo = base + 10 * j
            l2 = f"{lo}-{lo + 9}"
            rows.append(RangeRow(DIAGNOSIS, str(base), str(base + 99), str(lo), str(lo + 9)))
            for t in range(b3):
                integer = str(lo + t)
                for d in range(b4):
                    one_dec = f"{integer}.{d}"
                    for e in range(b5):
                        leaf = f"{one_dec}{e}"
                        codes.append(leaf)
                        leaf_paths[leaf] = [l1, l2, integer, one_dec, leaf]

    ranges = RangeTable(rows)
    tree = build_label_tree([parse_code_auto(c) for c in codes], ranges)

    node_labels = sorted({label for path in leaf_paths.values() for label in path})
    counter = 0
    signature: dict[str, list[str]] = {}
    for label in node_labels:
        signature[label] = [_word("sig", counter + j) for j in range(cfg.tokens_per_signature)]
        counter += cfg.tokens_per_signature
    noise_words = [_word("noise", i) for i in range(NOISE_VOCAB_SIZE)]

    # Zipf frequencies over a seed-shuffled leaf order
    leaf_order = list(codes)
    rng.shuffle(leaf_order)
    weights = np.array([1.0 / (r + 1) ** cfg.zipf_exponent for r in range(len(leaf_order))])
    probs = weights / weights.sum()

    def make_doc(split: str, i: int, leaves: list[str], leaf_probs: np.ndarray) -> dict:
        n_pos = int(rng.integers(1, MAX_POSITIVE_LABELS + 1))
        n_pos = min(n_pos, len(leaves))
        chosen = list(rng.choice(leaves, size=n_pos, replace=False, p=leaf_probs))
        pool = sorted({tok for leaf in chosen for label in leaf_paths[leaf] for tok in signature[label]})
        tokens = list(pool)
        for _ in range(cfg.doc_length - len(pool)):
            if cfg.noise_rate > 0 and rng.random() < cfg.noise_rate:
                tokens.append(noise_words[rng.integers(len(noise_words))])
            else:
                tokens.append(pool[rng.integers(len(pool))])
        rng.shuffle(tokens)
        return {"id": f"{split}-{i:05d}", "text": " ".join(tokens), "labels": sorted(chosen)}

    train = [make_doc("train", i, leaf_order, probs) for i in range(cfg.docs_per_split[0])]

    # restrict valid/test to labels observed in train so their label sets nest
    seen = sorted({l for rec in train for l in rec["labels"]})
    seen_idx = [leaf_order.index(l) for l in seen]
    seen_probs = probs[seen_idx] / probs[seen_idx].sum()
    valid = [make_doc("valid", i, seen, seen_probs) for i in range(cfg.docs_per_split[1])]
    test = [make_doc("test", i, seen, seen_probs) for i in range(cfg.docs_per_split[2])]

    return SynthCorpus(
        splits={"train": train, "valid": valid, "test": test},
        tree=tree,
        ranges=ranges,
    )
