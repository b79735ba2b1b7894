"""Dataset ingestion, vocabulary, word embeddings and the synthetic corpus.

Dataset files are line-delimited JSON records with fields ``id`` (string),
``text`` (string) and ``labels`` (list of code strings).
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, repeat

import numpy as np

from .icd import (
    DIAGNOSIS,
    LabelTree,
    RangeRow,
    RangeTable,
    build_label_tree,
    build_path,
    parse_code_auto,
)

PAD, UNK = 0, 1
MIN_COUNT = 3  # default vocabulary cut: tokens seen fewer times in training map to UNK
MAX_LEN = 4096  # default note length in tokens; longer notes are cut

# each byte of a note's UTF-8 encoding: ASCII letters lowered, every other byte a space
_LETTER_BYTES = bytes(
    ord(ch.lower()) if "A" <= ch <= "Z" or "a" <= ch <= "z" else ord(" ") for ch in map(chr, range(256))
)


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of ASCII letters; everything else separates.

    The note is lowered once, as bytes: every byte of a non-ASCII character is
    0x80 or above, so only ASCII letters survive ``_LETTER_BYTES``.
    """
    return text.encode("utf-8", "surrogatepass").translate(_LETTER_BYTES).decode("ascii").split()


@dataclass
class Vocab:
    tokens: list[str]  # in id order: tokens[i] has id i + 2, after PAD and UNK
    min_count: int
    token_to_idx: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.token_to_idx = {tok: i for i, tok in enumerate(self.tokens, start=UNK + 1)}

    @property
    def size(self) -> int:
        return len(self.tokens) + 2  # PAD and UNK are reserved

    def indices(self, tokens: list[str]) -> np.ndarray:
        ids = map(self.token_to_idx.get, tokens, repeat(UNK))  # unknown tokens map to UNK
        return np.fromiter(ids, dtype=np.int32, count=len(tokens))


def build_vocab(corpus, min_count: int = MIN_COUNT) -> Vocab:
    """Index tokens with frequency >= min_count; frequency desc, then lexicographic."""
    counts = Counter()
    notes = 0
    for notes, tokens in enumerate(corpus, start=1):
        counts.update(tokens)
    return _counted_vocab(counts, notes, min_count)


def _counted_vocab(counts: Counter, notes: int, min_count: int) -> Vocab:
    """The vocabulary of ``notes`` notes whose tokens occur ``counts`` times:
    the one rule of ``build_vocab`` and of ``load_dataset`` without a vocabulary."""
    if not notes:
        raise ValueError("empty corpus")
    eligible = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocab(eligible, min_count=min_count)


@dataclass
class Document:
    id: str
    tokens: np.ndarray  # int32 indices
    labels: tuple[str, ...]


@dataclass
class Dataset:
    docs: list[Document]
    vocab: Vocab  # the vocabulary and cut length that indexed the documents
    max_len: int
    dropped: list[Document] = field(default_factory=list)  # no tokens, never scored

    def label_matrix(self, codes: list[str]) -> np.ndarray:
        """0/1 uint8 targets, one row per document of ``docs``; every label,
        the dropped documents' too, must be one of ``codes``."""
        index = {c: i for i, c in enumerate(codes)}
        docs = self.docs + self.dropped
        labels = [label for doc in docs for label in doc.labels]
        cols = np.fromiter((index.get(label, -1) for label in labels), dtype=np.intp, count=len(labels))
        owner = np.repeat(np.arange(len(docs)), np.array([len(doc.labels) for doc in docs], dtype=np.intp))
        bad = np.flatnonzero(cols < 0)
        if bad.size:
            k = bad[0]
            raise ValueError(f"document {docs[owner[k]].id!r}: label {labels[k]!r} not a tree leaf")
        y = np.zeros((len(self.docs), len(codes)), dtype=np.uint8)
        kept = owner < len(self.docs)
        y[owner[kept], cols[kept]] = 1
        return y


def iter_jsonl(path):
    """The records of a JSONL dataset file, one at a time; blank lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def write_jsonl(path, records) -> None:
    """Write one sorted-key JSON record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def index_note(text: str, vocab: Vocab, max_len: int) -> tuple[list[str], np.ndarray]:
    """A note's first ``max_len`` tokens and their ids: how every note is read."""
    tokens = tokenize(text)[:max_len]
    return tokens, vocab.indices(tokens)


def load_dataset(records, vocab: Vocab | None, max_len: int,
                 *, min_count: int = MIN_COUNT) -> Dataset:
    """Tokenize and index dataset records, read once from any iterable;
    ``Dataset.label_matrix`` checks the labels.  Documents without tokens go
    to ``Dataset.dropped``.

    With ``vocab`` None the records are also the vocabulary's corpus
    (``build_vocab`` at ``min_count``): each note's uncut tokens are counted,
    and its first ``max_len`` are kept under provisional ids, numbered by
    first appearance, which are mapped in place to the vocabulary's ids once
    it is fixed.  Only one note's uncut tokens are held at a time.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    counts, provisional = Counter(), {}
    docs, dropped = [], []
    for rec in records:
        if vocab is None:
            tokens = tokenize(rec["text"])
            counts.update(tokens)
            cut = tokens[:max_len]  # index_note's cut
            provisional.update(zip(sorted(set(cut).difference(provisional)), count(len(provisional))))
            ids = np.fromiter(map(provisional.__getitem__, cut), dtype=np.int32, count=len(cut))
        else:
            ids = index_note(rec["text"], vocab, max_len)[1]
        (docs if len(ids) else dropped).append(
            Document(id=rec["id"], tokens=ids, labels=tuple(sorted(set(rec["labels"]))))
        )
    if vocab is None:
        vocab = _counted_vocab(counts, len(docs) + len(dropped), min_count)
        final = vocab.indices(list(provisional))  # provisional id -> vocabulary id
        for doc in docs:
            doc.tokens[:] = final[doc.tokens]
    return Dataset(docs=docs, vocab=vocab, max_len=max_len, dropped=dropped)


def filter_top_k_labels(records, k: int) -> set[str]:
    """The k codes on the most records; ties are broken lexicographically.

    A code counts once per record, as ``load_dataset`` keeps it once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = Counter(label for rec in records for label in set(rec["labels"]))
    return set(sorted(counts, key=lambda c: (-counts[c], c))[:k])


def restrict_labels(records, keep):
    """The records, one at a time, with their labels cut to ``keep``; records
    left without labels are skipped."""
    for rec in records:
        labels = sorted(l for l in rec["labels"] if l in keep)
        if labels:
            yield {**rec, "labels": labels}


def read_vectors(path, d: int | None = None) -> dict[str, np.ndarray]:
    """The float64 row of each key of a vector text file, in file order.

    Format: header ``n d``, then one ``key v1 ... v_d`` line for each of ``n``
    distinct keys; blank lines are skipped.  A given ``d`` must be the file's.
    """
    table: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed embedding header")
        n, file_d = int(header[0]), int(header[1])
        if d is not None and file_d != d:
            raise ValueError(f"{path}: file dimension {file_d} != requested {d}")
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != file_d + 1:
                raise ValueError(f"{path}: malformed row for token {parts[0]!r}")
            if parts[0] in table:
                raise ValueError(f"{path}: token {parts[0]!r} listed twice")
            table[parts[0]] = np.array([float(x) for x in parts[1:]])
    if len(table) != n:
        raise ValueError(f"{path}: expected {n} rows, found {len(table)}")
    return table


def load_embeddings(path, vocab: Vocab, d_e: int, seed: int = 0) -> np.ndarray:
    """Embedding matrix for the vocabulary from a ``read_vectors`` file of
    dimension ``d_e``, keyed by token.

    Tokens absent from the file get seeded uniform rows in [-0.1, 0.1]; the
    PAD row is zero.
    """
    table = read_vectors(path, d_e)
    rng = np.random.default_rng(seed)
    out = np.empty((vocab.size, d_e), dtype=np.float64)
    out[PAD] = 0.0
    out[UNK] = rng.uniform(-0.1, 0.1, size=d_e)
    for token, idx in vocab.token_to_idx.items():  # in id order
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
        if len(self.docs_per_split) != 3 or any(d < 1 for d in self.docs_per_split):
            raise ValueError("split sizes must be three positive integers")
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

    rows, codes = [], []
    for i in range(b1):
        base = 100 * (i + 1)
        for j in range(b2):
            lo = base + 10 * j
            rows.append(RangeRow(DIAGNOSIS, str(base), str(base + 99), str(lo), str(lo + 9)))
            codes += [f"{lo + t}.{d}{e}" for t in range(b3) for d in range(b4) for e in range(b5)]

    ranges = RangeTable(rows)
    parsed = [parse_code_auto(c) for c in codes]
    tree = build_label_tree(parsed, ranges)
    leaf_paths = {code.raw: [node.label for node in build_path(code, ranges)] for code in parsed}

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
