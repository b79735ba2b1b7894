import json
import os

import numpy as np
import pytest

from hicu.cli import main


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main([
        "synth", "--out", str(out), "--branching", "2,2,2,2,2",
        "--docs", "150,40,40", "--seed", "3",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    rc = main([
        "train",
        "--ranges", str(corpus_dir / "ranges.tsv"),
        "--train", str(corpus_dir / "train.jsonl"),
        "--valid", str(corpus_dir / "valid.jsonl"),
        "--out", str(out),
        "--epochs-per-level", "1,1,1,1,2",
        "--d-e", "12", "--d-f", "12", "--lr", "0.002", "--seed", "0",
    ])
    assert rc == 0
    return out


class TestSynthAndBuildTree:
    def test_synth_writes_artifacts(self, corpus_dir):
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "ranges.tsv", "tree.json"):
            assert (corpus_dir / name).exists()

    def test_build_tree_reports_level_counts(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "tree.json"
        rc = main([
            "build-tree",
            "--train", str(corpus_dir / "train.jsonl"),
            "--ranges", str(corpus_dir / "ranges.tsv"),
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        lines = capsys.readouterr().out.strip().split("\n")
        level_lines = [l for l in lines if l.startswith("level ")]
        assert len(level_lines) == 5

    def test_synth_is_byte_deterministic(self, corpus_dir, tmp_path):
        rc = main([
            "synth", "--out", str(tmp_path), "--branching", "2,2,2,2,2",
            "--docs", "150,40,40", "--seed", "3",
        ])
        assert rc == 0
        for name in ("train.jsonl", "ranges.tsv", "tree.json"):
            assert (tmp_path / name).read_bytes() == (corpus_dir / name).read_bytes()


class TestEmbed:
    def test_embed_writes_vectors(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        rc = main([
            "embed", "--tree", str(corpus_dir / "tree.json"), "--out", str(out),
            "--hyp-dim", "6", "--hyp-epochs", "10", "--hyp-burn-in", "2",
        ])
        assert rc == 0
        header = out.read_text().splitlines()[0].split()
        assert header[1] == "6"
        assert "mean edge distance" in capsys.readouterr().out


class TestTrain:
    def test_writes_checkpoint_and_report(self, trained_dir):
        assert (trained_dir / "checkpoint.bin").exists()
        report = [
            json.loads(l)
            for l in (trained_dir / "report.jsonl").read_text().splitlines()
        ]
        assert report[-1]["event"] == "summary"
        assert {r["level"] for r in report[:-1]} == {1, 2, 3, 4, 5}

    def test_repeat_runs_are_byte_identical(self, corpus_dir, trained_dir, tmp_path):
        rc = main([
            "train",
            "--ranges", str(corpus_dir / "ranges.tsv"),
            "--train", str(corpus_dir / "train.jsonl"),
            "--valid", str(corpus_dir / "valid.jsonl"),
            "--out", str(tmp_path),
            "--epochs-per-level", "1,1,1,1,2",
            "--d-e", "12", "--d-f", "12", "--lr", "0.002", "--seed", "0",
        ])
        assert rc == 0
        for name in ("checkpoint.bin", "report.jsonl"):
            assert (tmp_path / name).read_bytes() == (trained_dir / name).read_bytes()

    def test_correction_without_embeddings_errors(self, corpus_dir, tmp_path, capsys):
        rc = main([
            "train",
            "--ranges", str(corpus_dir / "ranges.tsv"),
            "--train", str(corpus_dir / "train.jsonl"),
            "--valid", str(corpus_dir / "valid.jsonl"),
            "--out", str(tmp_path),
            "--correction", "add",
        ])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=")
        assert "hyp-emb" in err


class TestEvalAndInspect:
    def test_eval_writes_metrics_and_scores(self, corpus_dir, trained_dir, tmp_path, capsys):
        rc = main([
            "eval",
            "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--out", str(tmp_path),
        ])
        assert rc == 0
        from hicu.checkpoint import read_container

        meta, _ = read_container(trained_dir / "checkpoint.bin")
        scores = np.load(tmp_path / "scores.npy")
        assert scores.ndim == 2 and scores.shape[1] == len(meta["codes"])
        records = [json.loads(l) for l in (tmp_path / "eval.jsonl").read_text().splitlines()]
        assert records[0]["event"] == "metrics"
        assert "micro_f1" in records[0]

    def test_eval_bucket_table_with_baseline(self, corpus_dir, trained_dir, tmp_path):
        base = tmp_path / "base"
        rc = main([
            "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"), "--out", str(base),
        ])
        assert rc == 0
        out = tmp_path / "delta"
        rc = main([
            "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"),
            "--train", str(corpus_dir / "train.jsonl"),
            "--baseline", str(base / "scores.npy"),
            "--out", str(out),
        ])
        assert rc == 0
        records = [json.loads(l) for l in (out / "eval.jsonl").read_text().splitlines()]
        buckets = [r for r in records if r["event"] == "auc_bucket"]
        assert len(buckets) == 4
        # comparing a model against itself gives exactly zero deltas
        for b in buckets:
            if b["n_scored"]:
                assert b["mean_auc_delta"] == 0.0

    def test_inspect_prints_ranked_tokens(self, corpus_dir, trained_dir, capsys):
        rec = json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[0])
        rc = main([
            "inspect", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--data", str(corpus_dir / "test.jsonl"),
            "--doc-id", rec["id"], "--label", rec["labels"][0],
            "--top-n", "4",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        weights = [float(l.split("\t")[1]) for l in lines]
        assert weights == sorted(weights, reverse=True)


class TestConfigPrecedence:
    def test_flags_override_config_file(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("branching=2,2,2,2,2\ndocs=10,5,5\nseed=9\n")
        out1 = tmp_path / "a"
        rc = main(["synth", "--config", str(cfg), "--out", str(out1)])
        assert rc == 0
        assert len((out1 / "train.jsonl").read_text().splitlines()) == 10
        out2 = tmp_path / "b"
        rc = main(["synth", "--config", str(cfg), "--out", str(out2), "--docs", "20,5,5"])
        assert rc == 0
        assert len((out2 / "train.jsonl").read_text().splitlines()) == 20

    def test_malformed_config_line_errors(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc != 0
        assert "HICU_ERROR" in capsys.readouterr().err

    def test_seed_env_fallback(self, corpus_dir, tmp_path, monkeypatch):
        import hicu.cli as cli

        monkeypatch.setenv("HICU_SEED", "9")
        out_env = tmp_path / "env"
        rc = cli.main(["synth", "--out", str(out_env), "--branching", "2,2,2,2,2",
                       "--docs", "10,5,5"])
        assert rc == 0
        monkeypatch.delenv("HICU_SEED")
        out_flag = tmp_path / "flag"
        rc = cli.main(["synth", "--out", str(out_flag), "--branching", "2,2,2,2,2",
                       "--docs", "10,5,5", "--seed", "9"])
        assert rc == 0
        assert (out_env / "train.jsonl").read_bytes() == (out_flag / "train.jsonl").read_bytes()


class TestErrors:
    def test_missing_file_gives_io_error(self, tmp_path, capsys):
        rc = main([
            "build-tree", "--train", "/nonexistent.jsonl",
            "--ranges", "/nonexistent.tsv", "--out", str(tmp_path / "t.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=io_error")
        assert "\n" not in err.strip()

    def test_invalid_choice_is_usage_error(self, corpus_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "train",
                "--ranges", str(corpus_dir / "ranges.tsv"),
                "--train", str(corpus_dir / "train.jsonl"),
                "--valid", str(corpus_dir / "valid.jsonl"),
                "--out", str(tmp_path),
                "--correction", "multiply",
            ])
        assert exc.value.code == 2

    def test_unknown_label_gives_invalid_input(self, corpus_dir, trained_dir, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "d", "text": "sigx", "labels": ["999.99"]}) + "\n")
        rc = main([
            "eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--test", str(bad), "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "code=invalid_input" in err and "label '999.99' not a tree leaf" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case, code", [
        ("no_train", "invalid_input"),
        ("missing", "io_error"),
        ("wrong_shape", "invalid_input"),
    ])
    def test_failed_baseline_writes_nothing(
        self, corpus_dir, trained_dir, tmp_path, capsys, case, code
    ):
        baseline = tmp_path / "base.npy"
        if case != "missing":
            np.save(baseline, np.zeros((3, 2)))
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--test", str(corpus_dir / "test.jsonl"), "--baseline", str(baseline),
                "--out", str(tmp_path / "o")]
        if case != "no_train":
            argv += ["--train", str(corpus_dir / "train.jsonl")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"HICU_ERROR code={code}")
        assert not (tmp_path / "o" / "scores.npy").exists()

    def test_eval_without_defined_auc_writes_null(self, corpus_dir, trained_dir, tmp_path):
        one = tmp_path / "one.jsonl"
        one.write_text((corpus_dir / "test.jsonl").read_text().splitlines()[0] + "\n")
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                     "--test", str(one), "--out", str(tmp_path / "o")]) == 0
        rec = json.loads((tmp_path / "o" / "eval.jsonl").read_text())
        n_labels = np.load(tmp_path / "o" / "scores.npy").shape[1]
        assert rec["macro_auc"] is None and rec["micro_auc"] is None
        assert rec["skipped_labels"] == n_labels
        assert {"macro_f1", "micro_f1", "p_at_5", "p_at_8", "p_at_15"} <= set(rec)


def _train_argv(corpus_dir, out, *extra):
    return [
        "train",
        "--ranges", str(corpus_dir / "ranges.tsv"),
        "--train", str(corpus_dir / "train.jsonl"),
        "--valid", str(corpus_dir / "valid.jsonl"),
        "--out", str(out),
        "--epochs-per-level", "1,1,1,1,2",
        "--d-e", "12", "--d-f", "12", "--lr", "0.002", "--seed", "0",
        *extra,
    ]


def _best_model(meta, arrays):
    """Encoder and decoder built by hand from a checkpoint's best/ arrays."""
    from hicu.network import DecoderParams, EncoderParams

    p = {n[len("best/"):]: a for n, a in arrays.items() if n.startswith("best/")}
    enc = EncoderParams(embedding=p["embedding"], kernel=p["kernel"], bias=p["bias"])
    dec = DecoderParams(Q=p["Q"], W=p["W"], b=p["b"], mode=meta["config"]["correction"],
                        fc_w=p.get("fc_w"), fc_b=p.get("fc_b"))
    return enc, dec


def _vocab(meta):
    from hicu.data import Vocab

    return Vocab({t: i + 2 for i, t in enumerate(meta["vocab_tokens"])},
                 min_count=meta["min_count"])


class TestTopKLabels:
    @pytest.fixture(scope="class")
    def top3_dir(self, corpus_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("top3")
        assert main(_train_argv(corpus_dir, out, "--top-k-labels", "3")) == 0
        return out

    @pytest.fixture(scope="class")
    def top3(self, top3_dir):
        from hicu.checkpoint import read_container

        meta, _ = read_container(top3_dir / "checkpoint.bin")
        return meta

    @staticmethod
    def _filtered_train(corpus_dir, k):
        from collections import Counter

        from hicu.data import read_jsonl

        records = read_jsonl(corpus_dir / "train.jsonl")
        counts = Counter(l for r in records for l in r["labels"])
        keep = sorted(counts, key=lambda c: (-counts[c], c))[:k]
        kept = [r for r in records if set(r["labels"]) & set(keep)]
        return records, kept, keep

    def test_keeps_the_most_frequent_train_codes(self, corpus_dir, top3):
        _, _, keep = self._filtered_train(corpus_dir, 3)
        assert top3["codes"] == sorted(keep)

    def test_vocabulary_comes_from_the_filtered_split(self, corpus_dir, top3):
        from hicu.data import build_vocab, tokenize

        records, kept, _ = self._filtered_train(corpus_dir, 3)
        filtered = build_vocab((tokenize(r["text"]) for r in kept), min_count=3)
        full = build_vocab((tokenize(r["text"]) for r in records), min_count=3)
        assert top3["vocab_tokens"] == filtered.tokens_in_order()
        assert top3["vocab_tokens"] != full.tokens_in_order()

    def test_only_top_k_checkpoints_record_k(self, trained_dir, top3):
        from hicu.checkpoint import read_container

        assert top3["top_k_labels"] == 3
        assert "top_k_labels" not in read_container(trained_dir / "checkpoint.bin")[0]

    def test_eval_drops_unkept_labels_only_for_top_k_checkpoints(
        self, corpus_dir, trained_dir, top3_dir, top3, tmp_path, capsys
    ):
        from hicu.data import read_jsonl

        records = read_jsonl(corpus_dir / "test.jsonl")
        records.append({"id": "stray", "text": records[0]["text"], "labels": ["999.99"]})
        raw = tmp_path / "raw.jsonl"
        raw.write_text("".join(json.dumps(r) + "\n" for r in records))
        keep = set(top3["codes"])
        by_hand = tmp_path / "by-hand.jsonl"
        with open(by_hand, "w") as fh:
            for r in records:
                labels = sorted(l for l in r["labels"] if l in keep)
                if labels:
                    fh.write(json.dumps({**r, "labels": labels}) + "\n")

        def eval_argv(ckpt_dir, test, out):
            return ["eval", "--checkpoint", str(ckpt_dir / "checkpoint.bin"),
                    "--test", str(test), "--out", str(tmp_path / out)]

        assert main(eval_argv(top3_dir, raw, "raw")) == 0
        assert main(eval_argv(top3_dir, by_hand, "by-hand")) == 0
        got = np.load(tmp_path / "raw" / "scores.npy")
        assert got.shape[1] == 3
        assert np.array_equal(got, np.load(tmp_path / "by-hand" / "scores.npy"))
        capsys.readouterr()
        # a plain checkpoint still rejects a test label outside its codes
        assert main(eval_argv(trained_dir, raw, "plain")) == 1
        assert "code=invalid_input" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_rejected(self, corpus_dir, tmp_path, capsys, k):
        rc = main(_train_argv(corpus_dir, tmp_path, "--top-k-labels", k))
        assert rc == 1
        assert "code=invalid_input" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.bin").exists()


@pytest.fixture
def epochs_started(monkeypatch):
    """Levels at which a training epoch started; any epoch fails the run."""
    from hicu.curriculum import Trainer

    epochs = []

    def step_epoch(self):
        epochs.append(self.level)
        raise RuntimeError("an epoch started")

    monkeypatch.setattr(Trainer, "step_epoch", step_epoch)
    return epochs


def test_unreachable_p_at_k_rejected_before_training(corpus_dir, tmp_path, capsys, epochs_started):
    argv = _train_argv(corpus_dir, tmp_path, "--top-k-labels", "3", "--es-metric", "p_at_5")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "code=invalid_input" in err and "p_at_5" in err
    assert epochs_started == []
    assert not (tmp_path / "checkpoint.bin").exists()


def test_shallow_tree_leaf_rejected_before_training(corpus_dir, tmp_path, capsys, epochs_started):
    """A --tree file whose leaf stops above level 5 is refused, naming the leaf."""
    payload = json.loads((corpus_dir / "tree.json").read_text())
    nodes, parents = payload["nodes"], payload["parents"]
    cut = next(i for i, (level, _) in enumerate(nodes) if level == 3)

    def below_cut(i):
        while parents[i] >= 0:
            i = parents[i]
            if i == cut:
                return True
        return False

    keep = [i for i in range(len(nodes)) if not below_cut(i)]
    new_index = {old: new for new, old in enumerate(keep)}
    payload["nodes"] = [nodes[i] for i in keep]
    payload["parents"] = [new_index.get(parents[i], -1) for i in keep]
    shallow = tmp_path / "shallow.json"
    shallow.write_text(json.dumps(payload))

    assert main(_train_argv(corpus_dir, tmp_path, "--tree", str(shallow))) == 1
    err = capsys.readouterr().err
    assert err.startswith("HICU_ERROR code=code_error")
    assert f"leaf Node(level=3, label='{nodes[cut][1]}') not at level 5" in err
    assert epochs_started == []
    assert not (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("flags, detail", [
    (("--p-at", "0"), "p_at entries must be >= 1"),
    (("--p-at", "5,-1"), "p_at entries must be >= 1"),
    (("--max-len", "0"), "max_len must be >= 1"),
    (("--max-len", "-60"), "max_len must be >= 1"),
])
def test_bad_setting_rejected_before_training(
    corpus_dir, tmp_path, capsys, epochs_started, flags, detail
):
    assert main(_train_argv(corpus_dir, tmp_path, *flags)) == 1
    err = capsys.readouterr().err
    assert err.startswith("HICU_ERROR code=invalid_input") and detail in err
    assert epochs_started == []
    assert not (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("flag", ["--freeze-embeddings", "--transfer-output"])
def test_removed_train_flags_are_usage_errors(corpus_dir, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(_train_argv(corpus_dir, tmp_path, flag))
    assert exc.value.code == 2


@pytest.mark.parametrize("where", ["metadata", "arrays"])
def test_eval_on_truncated_checkpoint_is_invalid_input(
    corpus_dir, trained_dir, tmp_path, capsys, where
):
    from hicu.checkpoint import MAGIC

    data = (trained_dir / "checkpoint.bin").read_bytes()
    end = data.index(b"\n", len(MAGIC)) - 10 if where == "metadata" else len(data) - 100
    cut = tmp_path / "cut.bin"
    cut.write_bytes(data[:end])
    rc = main(["eval", "--checkpoint", str(cut), "--test", str(corpus_dir / "test.jsonl"),
               "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("HICU_ERROR code=invalid_input") and "truncated checkpoint" in err
    assert not (tmp_path / "eval").exists()


def test_documents_without_tokens_are_reported(corpus_dir, trained_dir, tmp_path, capsys):
    blank = json.dumps({"id": "blank", "text": "1234 !!", "labels": []}) + "\n"
    for split in ("train", "test"):
        (tmp_path / f"{split}.jsonl").write_text((corpus_dir / f"{split}.jsonl").read_text() + blank)
    assert main(_train_argv(corpus_dir, tmp_path / "model", "--train", str(tmp_path / "train.jsonl"),
                            "--epochs-per-level", "0,0,0,0,1")) == 0
    assert capsys.readouterr().err == (
        f"skipped 1 documents without tokens in {tmp_path / 'train.jsonl'}\n")
    assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--test", str(tmp_path / "test.jsonl"), "--out", str(tmp_path / "eval")]) == 0
    assert capsys.readouterr().err == (
        f"skipped 1 documents without tokens in {tmp_path / 'test.jsonl'}\n")


class TestWordEmbeddings:
    D_E = 12

    @staticmethod
    def _write_vectors(path, tokens, d):
        rows = [f"{t} " + " ".join(f"{0.01 * (i + 1) * (-1) ** j:.2f}" for j in range(d))
                for i, t in enumerate(tokens)]
        path.write_text(f"{len(tokens)} {d}\n" + "\n".join(rows) + "\n")

    @pytest.fixture(scope="class")
    def word_emb(self, corpus_dir, tmp_path_factory):
        from hicu.data import read_jsonl, tokenize

        out = tmp_path_factory.mktemp("word-emb")
        records = read_jsonl(corpus_dir / "train.jsonl")
        tokens = sorted({t for r in records for t in tokenize(r["text"])})[:20]
        self._write_vectors(out / "vectors.txt", tokens, self.D_E)
        argv = _train_argv(corpus_dir, out / "model", "--word-emb", str(out / "vectors.txt"))
        assert main(argv) == 0
        return out

    def test_checkpoint_embedding_has_one_row_per_vocab_entry(self, word_emb):
        from hicu.checkpoint import read_container

        meta, arrays = read_container(word_emb / "model" / "checkpoint.bin")
        assert arrays["param/embedding"].shape == (_vocab(meta).size, self.D_E)

    def test_embeddings_train_from_the_file_rows(self, word_emb):
        from hicu.checkpoint import read_container
        from hicu.data import load_embeddings

        meta, arrays = read_container(word_emb / "model" / "checkpoint.bin")
        start = load_embeddings(word_emb / "vectors.txt", _vocab(meta), self.D_E, seed=0)
        assert not np.array_equal(arrays["param/embedding"], start)

    def test_dimension_mismatch_is_invalid_input(self, corpus_dir, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        self._write_vectors(vectors, ["sigx"], 7)
        assert main(_train_argv(corpus_dir, tmp_path / "model", "--word-emb", str(vectors))) == 1
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=invalid_input")
        assert f"file dimension 7 != requested {self.D_E}" in err
        assert not (tmp_path / "model").exists()


class TestInspectErrors:
    def test_document_without_tokens_is_named(self, trained_dir, tmp_path, capsys):
        from hicu.checkpoint import read_container

        meta, _ = read_container(trained_dir / "checkpoint.bin")
        blank = tmp_path / "blank.jsonl"
        blank.write_text(json.dumps({"id": "blank", "text": "1234 !!", "labels": []}) + "\n")
        rc = main([
            "inspect", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--data", str(blank), "--doc-id", "blank", "--label", meta["codes"][0],
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "code=invalid_input" in err
        assert "'blank' has no tokens" in err


class TestCorrectedRoundTrip:
    @pytest.fixture(scope="class")
    def corrected(self, corpus_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("corrected")
        assert main([
            "embed", "--tree", str(corpus_dir / "tree.json"), "--out", str(out / "emb.txt"),
            "--hyp-dim", "6", "--hyp-epochs", "10", "--hyp-burn-in", "2",
        ]) == 0
        assert main(_train_argv(
            corpus_dir, out / "model", "--correction", "add",
            "--tree", str(corpus_dir / "tree.json"), "--hyp-emb", str(out / "emb.txt"),
        )) == 0
        assert main([
            "eval", "--checkpoint", str(out / "model" / "checkpoint.bin"),
            "--test", str(corpus_dir / "test.jsonl"), "--out", str(out / "eval"),
        ]) == 0
        return out

    def test_checkpoint_carries_final_level_rows(self, corpus_dir, corrected):
        from hicu.checkpoint import read_container
        from hicu.icd import LabelTree
        from hicu.poincare import PoincareEmbedding, embedding_for_level

        _, arrays = read_container(corrected / "model" / "checkpoint.bin")
        tree = LabelTree.from_json((corpus_dir / "tree.json").read_text())
        emb = PoincareEmbedding.load(corrected / "emb.txt")
        assert np.array_equal(arrays["aux/E_h"], embedding_for_level(emb, tree, tree.k_max))

    def test_eval_scores_use_the_stored_rows(self, corpus_dir, corrected):
        from hicu.checkpoint import read_container
        from hicu.curriculum import score_dataset
        from hicu.data import load_dataset, read_jsonl

        meta, arrays = read_container(corrected / "model" / "checkpoint.bin")
        enc, dec = _best_model(meta, arrays)
        test = load_dataset(read_jsonl(corpus_dir / "test.jsonl"), _vocab(meta), meta["max_len"])
        expected = score_dataset(enc, dec, arrays["aux/E_h"], test.docs)
        assert np.array_equal(np.load(corrected / "eval" / "scores.npy"), expected)

    def test_inspect_runs_on_a_corrected_model(self, corpus_dir, corrected, capsys):
        rec = json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[0])
        rc = main([
            "inspect", "--checkpoint", str(corrected / "model" / "checkpoint.bin"),
            "--data", str(corpus_dir / "test.jsonl"),
            "--doc-id", rec["id"], "--label", rec["labels"][0], "--top-n", "3",
        ])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 3


class TestCliSharesTheLibraryPath:
    """The CLI's flat run and inspection are the library's, bit for bit."""

    @pytest.fixture(scope="class")
    def flat(self, corpus_dir, tmp_path_factory):
        from hicu.curriculum import CurriculumConfig, Trainer
        from hicu.data import build_vocab, load_dataset, read_jsonl, tokenize
        from hicu.icd import RangeTable, build_label_tree, parse_code_auto

        out = tmp_path_factory.mktemp("flat")
        assert main(_train_argv(corpus_dir, out, "--mode", "flat")) == 0

        train = read_jsonl(corpus_dir / "train.jsonl")
        valid = read_jsonl(corpus_dir / "valid.jsonl")
        codes = sorted({l for r in train + valid for l in r["labels"]})
        ranges = RangeTable.from_file(corpus_dir / "ranges.tsv")
        tree = build_label_tree([parse_code_auto(c) for c in codes], ranges)
        vocab = build_vocab((tokenize(r["text"]) for r in train), min_count=3)
        cfg = CurriculumConfig(epochs_per_level=(1, 1, 1, 1, 2), d_e=12, d_f=12,
                               lr=0.002, seed=0)
        trainer = Trainer(load_dataset(train, vocab, 4096), load_dataset(valid, vocab, 4096),
                          tree, None, cfg.flat(), vocab_size=vocab.size)
        trainer.run()
        return out, trainer, vocab

    def test_best_arrays_equal_the_trainer_api(self, flat):
        from hicu.checkpoint import read_container

        out, trainer, _ = flat
        _, arrays = read_container(out / "checkpoint.bin")
        best = {n[len("best/"):]: a for n, a in arrays.items() if n.startswith("best/")}
        assert sorted(best) == sorted(trainer.best_params)
        for name, arr in trainer.best_params.items():
            assert np.array_equal(best[name], arr), name

    def test_inspect_prints_inspect_attention(self, corpus_dir, flat, capsys):
        from hicu.curriculum import inspect_attention
        from hicu.data import Document, tokenize

        out, trainer, vocab = flat
        rec = json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[1])
        label = rec["labels"][0]
        rc = main([
            "inspect", "--checkpoint", str(out / "checkpoint.bin"),
            "--data", str(corpus_dir / "test.jsonl"),
            "--doc-id", rec["id"], "--label", label, "--top-n", "5",
        ])
        assert rc == 0
        tokens = tokenize(rec["text"])
        doc = Document(id=rec["id"], tokens=vocab.indices(tokens), labels=())
        top = inspect_attention(trainer.best_state(), None, doc, tokens, label, top_n=5)
        assert capsys.readouterr().out.splitlines() == [f"{t}\t{w:.6f}" for t, w in top]
