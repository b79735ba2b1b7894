import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hicu import data
from hicu.data import (
    PAD,
    UNK,
    Dataset,
    Document,
    SynthConfig,
    Vocab,
    build_vocab,
    filter_top_k_labels,
    iter_jsonl,
    load_dataset,
    load_embeddings,
    read_vectors,
    restrict_labels,
    synth_generate,
    tokenize,
)

class TestTokenize:
    def test_basic(self):
        assert tokenize("Chest Pain, w/ 2x edema.") == ["chest", "pain", "w", "x", "edema"]

    def test_empty_and_symbols(self):
        assert tokenize("1234 --- !!") == []

    @given(st.text(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once))
        assert once == again


    @given(st.text(st.characters(exclude_categories=()), max_size=200))  # lone surrogates too
    @example("\u0130stanbul")  # İ lowers to two characters as str, to "i̇" (i and a combining dot)
    @example("\u212aelvin K")  # the Kelvin sign lowers to "k" as str
    @example("Stra\u00dfe STRASSE")  # ß
    @example("\u01c5emal")  # ǅ, a titlecase digraph
    @example("Ab\ud800Cd \udfff")  # lone surrogates
    @settings(max_examples=300, deadline=None)
    def test_matches_lowering_each_ascii_run(self, text):
        assert tokenize(text) == [tok.lower() for tok in re.findall(r"[A-Za-z]+", text)]


class TestVocab:
    def test_min_count_and_ordering(self):
        corpus = [["b", "b", "a", "a", "c"], ["a", "b", "c"], ["z"]]
        vocab = build_vocab(corpus, min_count=2)
        # a and b both appear 3 times: frequency desc, then lexicographic
        assert vocab.token_to_idx == {"a": 2, "b": 3, "c": 4}
        assert vocab.indices(["z"])[0] == UNK
        assert vocab.size == 5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(iter([]))


class TestLoadDataset:
    def test_loads_and_truncates(self, small_corpus, tmp_path):
        path = tmp_path / "train.jsonl"
        with open(path, "w") as fh:
            for rec in small_corpus.splits["train"][:10]:
                fh.write(json.dumps(rec) + "\n")
        vocab = build_vocab(tokenize(r["text"]) for r in small_corpus.splits["train"])
        ds = load_dataset(list(iter_jsonl(path)), vocab, max_len=7)
        assert len(ds.docs) == 10
        assert all(len(d.tokens) == 7 for d in ds.docs)

    def test_unknown_label_names_doc(self, small_corpus, tmp_path):
        tree = small_corpus.tree
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "d1", "text": "x", "labels": ["999.99"]}) + "\n")
        vocab = build_vocab([["x"]], min_count=1)
        ds = load_dataset(list(iter_jsonl(path)), vocab, max_len=10)
        with pytest.raises(ValueError, match="document 'd1': label '999.99' not a tree leaf"):
            ds.label_matrix(tree.level_labels(tree.k_max))

    @staticmethod
    def _loop_label_matrix(ds, codes):
        """The per-label loop ``label_matrix`` replaced, kept as its oracle."""
        index = {c: i for i, c in enumerate(codes)}
        y = np.zeros((len(ds.docs), len(codes)), dtype=np.uint8)
        for d, doc in enumerate(ds.docs + ds.dropped):
            for label in doc.labels:
                if label not in index:
                    raise ValueError(f"document {doc.id!r}: label {label!r} not a tree leaf")
                if d < len(y):
                    y[d, index[label]] = 1
        return y

    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "x", "y"]), max_size=5),
                    max_size=8),
           st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_label_matrix_matches_the_loop(self, label_lists, n_kept):
        # labels repeat within and across documents; "x" and "y" are not
        # codes, so a bad label may sit on a kept or on a dropped document
        codes = ["d", "b", "a", "c"]
        docs = [Document(f"doc{i}", np.array([1]), tuple(ls)) for i, ls in enumerate(label_lists)]
        ds = Dataset(docs=docs[:n_kept], vocab=Vocab(["w"], min_count=1), max_len=1, dropped=docs[n_kept:])
        try:
            want = self._loop_label_matrix(ds, codes)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                ds.label_matrix(codes)
        else:
            got = ds.label_matrix(codes)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_label_matrix_names_the_first_bad_label_of_a_dropped_document(self):
        ds = Dataset(docs=[Document("kept", np.array([1]), ("a", "a"))],
                     vocab=Vocab(["w"], min_count=1), max_len=1,
                     dropped=[Document("empty", np.array([], dtype=np.int64), ("b", "zz", "yy"))])
        with pytest.raises(ValueError, match="document 'empty': label 'zz' not a tree leaf"):
            ds.label_matrix(["a", "b"])

    @pytest.mark.parametrize("max_len", [0, -60])
    def test_max_len_below_one_rejected(self, small_corpus, max_len):
        records = small_corpus.splits["train"][:3]
        vocab = build_vocab(tokenize(r["text"]) for r in records)
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            load_dataset(records, vocab, max_len=max_len)

    @given(st.lists(st.lists(st.sampled_from(["Alpha", "beta", "gamma", "Delta", "7", "!"]), max_size=9),
                    min_size=1, max_size=8),
           st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_without_a_vocabulary_builds_build_vocabs(self, notes, max_len, min_count):
        # tokens past max_len still count towards the vocabulary
        records = [{"id": f"d{i}", "text": " ".join(words), "labels": ["a"]} for i, words in enumerate(notes)]
        vocab = build_vocab((tokenize(r["text"]) for r in records), min_count=min_count)
        want = load_dataset(records, vocab, max_len)
        got = load_dataset(records, None, max_len, min_count=min_count)
        assert got.vocab == vocab and got.max_len == max_len
        for kept_got, kept_want in ((got.docs, want.docs), (got.dropped, want.dropped)):
            assert [(d.id, d.labels) for d in kept_got] == [(d.id, d.labels) for d in kept_want]
            assert all(a.tokens.dtype == np.int32 and np.array_equal(a.tokens, b.tokens)
                       for a, b in zip(kept_got, kept_want))

    @pytest.mark.parametrize("given_vocab", [False, True])
    def test_a_one_shot_iterator_reads_like_a_list(self, small_corpus, tmp_path, given_vocab):
        # the split file's own reader, with a note without tokens in the middle
        records = small_corpus.splits["valid"][:30]
        records.insert(7, {"id": "empty", "text": "1234 !!", "labels": ["x"]})
        path = tmp_path / "valid.jsonl"
        data.write_jsonl(path, records)
        vocab = build_vocab(tokenize(r["text"]) for r in small_corpus.splits["train"]) if given_vocab else None
        want = load_dataset(records, vocab, 16)
        got = load_dataset(iter_jsonl(path), vocab, 16)
        assert (got.vocab, got.max_len) == (want.vocab, want.max_len)
        assert len(got.docs) == 30 and [d.id for d in got.dropped] == ["empty"]
        for kept_got, kept_want in ((got.docs, want.docs), (got.dropped, want.dropped)):
            assert [(d.id, d.labels) for d in kept_got] == [(d.id, d.labels) for d in kept_want]
            assert all(a.tokens.dtype == np.int32 and np.array_equal(a.tokens, b.tokens)
                       for a, b in zip(kept_got, kept_want))

    def test_without_a_vocabulary_tokenizes_each_note_once(self, small_corpus, monkeypatch):
        calls = []
        monkeypatch.setattr(data, "tokenize", lambda text: calls.append(text) or tokenize(text))
        records = small_corpus.splits["train"]
        load_dataset(records, None, 16)
        assert calls == [r["text"] for r in records]

    def test_without_a_vocabulary_rejects_no_records(self):
        with pytest.raises(ValueError, match="empty corpus"):
            load_dataset([], None, 16)

    def test_empty_docs_skipped_and_counted(self, small_corpus, tmp_path):
        label = small_corpus.tree.level_labels(small_corpus.tree.k_max)[0]
        path = tmp_path / "mixed.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "a", "text": "1234 !!", "labels": [label]}) + "\n")
            fh.write(json.dumps({"id": "b", "text": "word", "labels": [label]}) + "\n")
        vocab = build_vocab([["word"]], min_count=1)
        ds = load_dataset(list(iter_jsonl(path)), vocab, max_len=10)
        assert [d.id for d in ds.docs] == ["b"]
        assert [(d.id, len(d.tokens), d.labels) for d in ds.dropped] == [("a", 0, (label,))]


class TestTopK:
    def test_keeps_most_frequent_with_lexicographic_ties(self):
        records = [
            {"id": "1", "text": "x", "labels": ["b", "c"]},
            {"id": "2", "text": "x", "labels": ["a", "c"]},
            {"id": "3", "text": "x", "labels": ["a"]},
        ]
        keep = filter_top_k_labels(iter(records), 2)
        # a and c appear twice, b only once
        assert keep == {"a", "c"}
        assert [r["labels"] for r in restrict_labels(records, keep)] == [["c"], ["a", "c"], ["a"]]

    def test_counts_a_label_once_per_record(self):
        records = [
            {"id": "1", "text": "x", "labels": ["a", "a", "a"]},
            {"id": "2", "text": "x", "labels": ["b"]},
            {"id": "3", "text": "x", "labels": ["b"]},
        ]
        assert filter_top_k_labels(records, 1) == {"b"}

    def test_docs_without_surviving_labels_dropped(self):
        train = [
            {"id": "1", "text": "x", "labels": ["a"]},
            {"id": "2", "text": "x", "labels": ["b"]},
            {"id": "3", "text": "x", "labels": ["a"]},
        ]
        valid = [
            {"id": "4", "text": "x", "labels": ["b"]},
            {"id": "5", "text": "x", "labels": ["b", "a"]},
        ]
        keep = filter_top_k_labels(train, 1)
        assert [r["id"] for r in restrict_labels(train, keep)] == ["1", "3"]
        # the other splits keep the first split's codes
        assert list(restrict_labels(iter(valid), keep)) == [{"id": "5", "text": "x", "labels": ["a"]}]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError):
            filter_top_k_labels([{"id": "1", "text": "x", "labels": ["a"]}], k)


class TestLoadEmbeddings:
    def test_file_rows_and_seeded_fallback(self, tmp_path):
        vocab = build_vocab([["alpha", "alpha", "beta", "beta"]], min_count=2)
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nalpha 0.5 -0.5 0.25\n")
        out = load_embeddings(path, vocab, 3, seed=0)
        assert out.shape == (vocab.size, 3)
        assert np.array_equal(out[vocab.indices(["alpha"])[0]], [0.5, -0.5, 0.25])
        assert np.all(out[PAD] == 0.0)
        beta = out[vocab.indices(["beta"])[0]]
        assert np.all(np.abs(beta) <= 0.1) and np.any(beta != 0.0)
        again = load_embeddings(path, vocab, 3, seed=0)
        assert np.array_equal(out, again)

    def test_dimension_mismatch_rejected(self, tmp_path):
        vocab = build_vocab([["a", "a", "a"]], min_count=1)
        path = tmp_path / "emb.txt"
        path.write_text("1 3\na 0.5 -0.5 0.25\n")
        with pytest.raises(ValueError):
            load_embeddings(path, vocab, 4)


class TestReadVectors:
    def test_rows_in_file_order(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\nb 0.5 -1e-3\n\na 2 3\n")
        table = read_vectors(path)
        assert list(table) == ["b", "a"]
        assert all(row.dtype == np.float64 for row in table.values())
        assert np.array_equal(table["b"], [0.5, -1e-3]) and np.array_equal(table["a"], [2.0, 3.0])

    @pytest.mark.parametrize("text, d, named", [
        ("2\na 1 2\n", None, "malformed embedding header"),
        ("1 3\na 1 2 3\n", 2, "file dimension 3 != requested 2"),
        ("1 2\na 1 2 3\n", None, "malformed row for token 'a'"),
        ("2 1\na 1\na 2\n", None, "token 'a' listed twice"),
        ("3 1\na 1\nb 2\n", None, "expected 3 rows, found 2"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, d, named):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {named}')}$"):
            read_vectors(path, d)


class TestSynth:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(branching=(9, 3, 3, 3, 3)).validate()
        with pytest.raises(ValueError):
            SynthConfig(doc_length=5).validate()
        SynthConfig().validate()

    def test_deterministic(self):
        cfg = SynthConfig(branching=(2, 2, 2, 2, 2), docs_per_split=(30, 10, 10), seed=5)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert a.splits == b.splits

    def test_labels_are_tree_leaves(self, small_corpus):
        tree = small_corpus.tree
        leaves = set(tree.level_labels(tree.k_max))
        for split in small_corpus.splits.values():
            for rec in split:
                assert set(rec["labels"]) <= leaves

    def test_signature_tokens_present(self, small_corpus):
        # every positive leaf's node signatures appear in the document text
        sig_roots = {}
        for rec in small_corpus.splits["train"][:20]:
            tokens = set(tokenize(rec["text"]))
            assert any(t.startswith("sig") for t in tokens)
            assert 1 <= len(rec["labels"]) <= 5

    def test_valid_test_labels_seen_in_train(self, small_corpus):
        seen = {l for rec in small_corpus.splits["train"] for l in rec["labels"]}
        for name in ("valid", "test"):
            for rec in small_corpus.splits[name]:
                assert set(rec["labels"]) <= seen

    def test_zipf_imbalance(self, small_corpus):
        from collections import Counter

        counts = Counter(l for rec in small_corpus.splits["train"] for l in rec["labels"])
        freqs = sorted(counts.values())
        assert freqs[-1] >= 4 * freqs[0]  # heavy head vs thin tail

    def test_write_round_trips(self, small_corpus, tmp_path):
        small_corpus.write(tmp_path)
        for name in ("train", "valid", "test"):
            lines = (tmp_path / f"{name}.jsonl").read_text().strip().split("\n")
            assert len(lines) == len(small_corpus.splits[name])
        from hicu.icd import LabelTree, RangeTable

        tree = LabelTree.from_json((tmp_path / "tree.json").read_text())
        assert tree == small_corpus.tree
        table = RangeTable.from_file(tmp_path / "ranges.tsv")
        assert table.rows == small_corpus.ranges.rows
