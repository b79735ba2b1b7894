import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicu.data import (
    PAD,
    UNK,
    SynthConfig,
    build_vocab,
    filter_top_k_labels,
    load_dataset,
    load_embeddings,
    read_jsonl,
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


class TestVocab:
    def test_min_count_and_ordering(self):
        corpus = [["b", "b", "a", "a", "c"], ["a", "b", "c"], ["z"]]
        vocab = build_vocab(corpus, min_count=2)
        # a and b both appear 3 times: frequency desc, then lexicographic
        assert vocab.token_to_idx == {"a": 2, "b": 3, "c": 4}
        assert vocab.lookup("z") == UNK
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
        ds = load_dataset(read_jsonl(path), vocab, max_len=7)
        assert len(ds.docs) == 10
        assert all(len(d.tokens) == 7 for d in ds.docs)

    def test_unknown_label_names_doc(self, small_corpus, tmp_path):
        tree = small_corpus.tree
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "d1", "text": "x", "labels": ["999.99"]}) + "\n")
        vocab = build_vocab([["x"]], min_count=1)
        ds = load_dataset(read_jsonl(path), vocab, max_len=10)
        with pytest.raises(ValueError, match="document 'd1': label '999.99' not a tree leaf"):
            ds.label_matrix(tree.level_labels(tree.k_max))

    @pytest.mark.parametrize("max_len", [0, -60])
    def test_max_len_below_one_rejected(self, small_corpus, max_len):
        records = small_corpus.splits["train"][:3]
        vocab = build_vocab(tokenize(r["text"]) for r in records)
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            load_dataset(records, vocab, max_len=max_len)

    def test_empty_docs_skipped_and_counted(self, small_corpus, tmp_path):
        label = small_corpus.tree.level_labels(small_corpus.tree.k_max)[0]
        path = tmp_path / "mixed.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": "a", "text": "1234 !!", "labels": [label]}) + "\n")
            fh.write(json.dumps({"id": "b", "text": "word", "labels": [label]}) + "\n")
        vocab = build_vocab([["word"]], min_count=1)
        ds = load_dataset(read_jsonl(path), vocab, max_len=10)
        assert [d.id for d in ds.docs] == ["b"]
        assert ds.skipped_empty == 1


class TestTopK:
    def test_keeps_most_frequent_with_lexicographic_ties(self):
        records = [
            {"id": "1", "text": "x", "labels": ["b", "c"]},
            {"id": "2", "text": "x", "labels": ["a", "c"]},
            {"id": "3", "text": "x", "labels": ["a"]},
        ]
        (out,) = filter_top_k_labels([records], 2)
        # a and c appear twice, b only once
        assert [r["labels"] for r in out] == [["c"], ["a", "c"], ["a"]]

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
        out_train, out_valid = filter_top_k_labels([train, valid], 1)
        assert [r["id"] for r in out_train] == ["1", "3"]
        # the other splits keep the first split's codes
        assert out_valid == [{"id": "5", "text": "x", "labels": ["a"]}]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError):
            filter_top_k_labels([[{"id": "1", "text": "x", "labels": ["a"]}]], k)


class TestLoadEmbeddings:
    def test_file_rows_and_seeded_fallback(self, tmp_path):
        vocab = build_vocab([["alpha", "alpha", "beta", "beta"]], min_count=2)
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nalpha 0.5 -0.5 0.25\n")
        out = load_embeddings(path, vocab, 3, seed=0)
        assert out.shape == (vocab.size, 3)
        assert np.array_equal(out[vocab.lookup("alpha")], [0.5, -0.5, 0.25])
        assert np.all(out[PAD] == 0.0)
        beta = out[vocab.lookup("beta")]
        assert np.all(np.abs(beta) <= 0.1) and np.any(beta != 0.0)
        again = load_embeddings(path, vocab, 3, seed=0)
        assert np.array_equal(out, again)

    def test_dimension_mismatch_rejected(self, tmp_path):
        vocab = build_vocab([["a", "a", "a"]], min_count=1)
        path = tmp_path / "emb.txt"
        path.write_text("1 3\na 0.5 -0.5 0.25\n")
        with pytest.raises(ValueError):
            load_embeddings(path, vocab, 4)


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
