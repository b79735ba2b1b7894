import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest

from hicu import cli, network
from hicu.cli import main
from hicu.curriculum import load_model


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


def _traced_peak(fn):
    """The bytes ``fn()`` allocates at its peak, under tracemalloc."""
    import tracemalloc

    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


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

    @pytest.mark.parametrize("docs", ["10,10", "10,10,10,10"])
    def test_split_size_count_other_than_three_rejected(self, tmp_path, capsys, docs):
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--branching", "2,2,2,2,2", "--docs", docs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=invalid_input detail=split sizes must be three positive integers")
        assert not out.exists()


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

    @pytest.mark.parametrize("entry", [[1, "a", "b"], 5])
    def test_malformed_node_entry_is_a_code_error(self, tmp_path, capsys, entry):
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps({"k_max": 1, "nodes": [[0, "<root>"], entry], "parents": [-1, 0]}))
        out = tmp_path / "emb.txt"
        rc = main(["embed", "--tree", str(bad), "--out", str(out), "--hyp-epochs", "1", "--hyp-burn-in", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=code_error")
        assert f"tree file node entry 1 is {entry!r}, not an [int level, str label] pair" in err
        assert not out.exists()

    @pytest.mark.parametrize("payload, named", [
        ({"k_max": 1, "nodes": 5, "parents": [-1, 0]}, "field 'nodes' is 5, not a list"),
        ({"k_max": 1, "nodes": [[0, "<root>"], [1, "a"]], "parents": 3}, "field 'parents' is 3, not a list"),
        ({"k_max": 1, "nodes": [[0, "<root>"], [1, "a"]]}, "field 'parents' is None, not a list"),
        ({"k_max": True, "nodes": [[0, "<root>"], [1, "a"]], "parents": [-1, 0]},
         "field 'k_max' is True, not an int >= 1"),
        ({"k_max": "1", "nodes": [[0, "<root>"], [1, "a"]], "parents": [-1, 0]},
         "field 'k_max' is '1', not an int >= 1"),
        ("tree", "tree file holds str 'tree', not an object"),
        ([1, 2], "tree file holds list [1, 2], not an object"),
    ], ids=["nodes_int", "parents_int", "parents_missing", "k_max_bool", "k_max_str", "str", "list"])
    def test_malformed_tree_file_is_a_code_error(self, tmp_path, capsys, payload, named):
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "emb.txt"
        rc = main(["embed", "--tree", str(bad), "--out", str(out), "--hyp-epochs", "1", "--hyp-burn-in", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=code_error")
        assert named in err
        assert not out.exists()

    def test_leaf_without_a_parent_is_a_code_error(self, corpus_dir, tmp_path, capsys):
        # a -1 parent entry on a leaf must not drop the leaf without a word
        payload = json.loads((corpus_dir / "tree.json").read_text())
        leaf = next(i for i, (level, _) in enumerate(payload["nodes"]) if level == 5)
        payload["parents"][leaf] = -1
        bad = tmp_path / "tree.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "emb.txt"
        rc = main(["embed", "--tree", str(bad), "--out", str(out), "--hyp-epochs", "1", "--hyp-burn-in", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=code_error")
        label = payload["nodes"][leaf][1]
        assert f"node Node(level=5, label='{label}') has no parent but is not the root" in err
        assert not out.exists()


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

    def _self_baseline_eval(self, corpus_dir, trained_dir, out, train):
        """Evaluate the model against its own scores, with ``train`` as --train;
        returns the bytes of eval.jsonl."""
        base = out / "base"
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--test", str(corpus_dir / "test.jsonl")]
        assert main([*argv, "--out", str(base)]) == 0
        assert main([*argv, "--train", str(train), "--baseline", str(base / "scores.npy"),
                     "--out", str(out / "delta")]) == 0
        return (out / "delta" / "eval.jsonl").read_bytes()

    def test_baseline_counts_a_repeated_label_once_per_document(self, corpus_dir, trained_dir, tmp_path):
        records = [json.loads(l) for l in (corpus_dir / "train.jsonl").read_text().splitlines()]
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("".join(json.dumps({**r, "labels": r["labels"] + r["labels"][::-1]}) + "\n"
                                    for r in records))
        want = self._self_baseline_eval(corpus_dir, trained_dir, tmp_path / "a", corpus_dir / "train.jsonl")
        got = self._self_baseline_eval(corpus_dir, trained_dir, tmp_path / "b", repeated)
        assert any(json.loads(l)["event"] == "auc_bucket" for l in want.splitlines())
        assert got == want

    def test_baseline_holds_one_training_note_at_a_time(self, corpus_dir, trained_dir, tmp_path):
        # the same labels, with and without 20 KB of text per note: reading the
        # notes' labels may hold a few notes, never the split
        records = [json.loads(l) for l in (corpus_dir / "train.jsonl").read_text().splitlines()]
        filler = " ".join(["filler"] * 3000)
        peaks = []
        for name, text in (("short", ""), ("long", filler)):
            train = tmp_path / f"{name}.jsonl"
            train.write_text("".join(json.dumps({**r, "text": r["text"] + text}) + "\n" for r in records))
            peaks.append(_traced_peak(
                lambda: self._self_baseline_eval(corpus_dir, trained_dir, tmp_path / name, train)))
        note = len(filler) + max(len(json.dumps(r)) for r in records)
        assert peaks[1] - peaks[0] < 8 * note, (peaks, note)
        assert 8 * note < len(records) * len(filler) / 4

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

    @pytest.mark.parametrize("form", [("--config={}",), ("--conf={}",), ("--conf", "{}")])
    def test_every_form_argparse_takes_reads_the_file(self, tmp_path, form):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("branching=2,2,2,2,2\ndocs=10,5,5\nseed=9\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        config = [part.format(cfg) for part in form]
        assert main(["synth", *config, "--out", str(out1)]) == 0
        assert len((out1 / "train.jsonl").read_text().splitlines()) == 10
        assert main(["synth", "--docs", "20,5,5", *config, "--out", str(out2)]) == 0
        assert len((out2 / "train.jsonl").read_text().splitlines()) == 20

    def test_ambiguous_prefix_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # --co could be --config or --correction of train: argparse's usage
        # error, before any config file is read
        read = []
        monkeypatch.setattr(cli, "_read_config_file", lambda path: read.append(path) or [])
        with pytest.raises(SystemExit) as exc:
            main(["train", "--co", str(tmp_path / "missing.cfg")])
        assert exc.value.code == 2
        assert "ambiguous option: --co could match --config, --correction" in capsys.readouterr().err
        assert read == []

    def test_required_flags_alone_build_the_dataclass_defaults(self, corpus_dir, tmp_path, monkeypatch):
        from dataclasses import replace

        from hicu import curriculum, data, poincare

        built, calls = {}, {}

        def capture(name, position):
            def stop(*args, **kwargs):
                built[name], calls[name] = args[position], args
                raise RuntimeError("stop before the work")
            return stop

        monkeypatch.setattr(curriculum, "Trainer", capture("train", 4))
        monkeypatch.setattr(poincare, "train_poincare", capture("embed", 1))
        monkeypatch.setattr(data, "synth_generate", capture("synth", 0))
        assert main(["train", "--ranges", str(corpus_dir / "ranges.tsv"), "--train",
                     str(corpus_dir / "train.jsonl"), "--valid", str(corpus_dir / "valid.jsonl"),
                     "--out", str(tmp_path / "model")]) == 1
        assert main(["embed", "--tree", str(corpus_dir / "tree.json"), "--out", str(tmp_path / "e")]) == 1
        assert main(["synth", "--out", str(tmp_path / "s")]) == 1
        defaults = {"train": curriculum.CurriculumConfig(), "embed": poincare.EmbedConfig(),
                    "synth": data.SynthConfig()}
        for name, want in defaults.items():
            assert replace(built[name], seed=0) == replace(want, seed=0), name
        train_set = calls["train"][0]
        assert (train_set.vocab.min_count, train_set.max_len) == (data.MIN_COUNT, data.MAX_LEN)

    def test_inspect_top_n_defaults_to_the_library_constant(self):
        import inspect

        from hicu import curriculum

        args = cli.build_parser().parse_args(["inspect", "--checkpoint", "c.bin", "--data", "d.jsonl",
                                              "--doc-id", "d0", "--label", "x"])
        assert args.top_n == curriculum.TOP_N
        assert inspect.signature(curriculum.inspect_attention).parameters["top_n"].default == curriculum.TOP_N

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_looking_value_is_passed_to_the_flag(self, tmp_path, capsys, value):
        # no flag is boolean: zipf=false reaches --zipf and fails its float parse
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"branching=2,2,2,2,2\ndocs=20,5,5\nzipf={value}\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"argument --zipf: invalid float value: '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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
        ("non_finite", "invalid_input"),
        ("p_at_zero", "invalid_input"),
    ])
    def test_failed_baseline_writes_nothing(
        self, corpus_dir, trained_dir, tmp_path, capsys, case, code
    ):
        """An eval that fails on its --baseline or its --p-at scores and writes nothing."""
        from hicu.checkpoint import read_container

        n_docs = len((corpus_dir / "test.jsonl").read_text().splitlines())
        n_labels = len(read_container(trained_dir / "checkpoint.bin")[0]["codes"])
        baseline = tmp_path / "base.npy"
        if case != "missing":
            shape = (3, 2) if case == "wrong_shape" else (n_docs, n_labels)
            np.save(baseline, np.full(shape, np.nan if case == "non_finite" else 0.0))
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                "--test", str(corpus_dir / "test.jsonl"), "--baseline", str(baseline),
                "--out", str(tmp_path / "o")]
        if case != "no_train":
            argv += ["--train", str(corpus_dir / "train.jsonl")]
        if case == "p_at_zero":
            argv += ["--p-at", "5,0"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"HICU_ERROR code={code}")
        detail = {"non_finite": f"{baseline} has non-finite entries",
                  "p_at_zero": "p_at entries must be >= 1"}.get(case, "")
        assert detail in err
        assert not (tmp_path / "o").exists()

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
                        fc_w=p.get("fc_w"), fc_b=p.get("fc_b"), E_h=arrays.get("aux/E_h"))
    return enc, dec


def _vocab(meta):
    from hicu.data import Vocab

    return Vocab(meta["vocab_tokens"], min_count=meta["min_count"])


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

        from hicu.data import iter_jsonl

        records = list(iter_jsonl(corpus_dir / "train.jsonl"))
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
        assert top3["vocab_tokens"] == filtered.tokens
        assert top3["vocab_tokens"] != full.tokens

    def test_only_top_k_checkpoints_record_k(self, trained_dir, top3):
        from hicu.checkpoint import read_container

        assert top3["top_k_labels"] == 3
        assert "top_k_labels" not in read_container(trained_dir / "checkpoint.bin")[0]

    def test_eval_drops_unkept_labels_only_for_top_k_checkpoints(
        self, corpus_dir, trained_dir, top3_dir, top3, tmp_path, capsys
    ):
        from hicu.data import iter_jsonl

        records = list(iter_jsonl(corpus_dir / "test.jsonl"))
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


@pytest.mark.parametrize("flags", [("--d-e", "0"), ("--d-f", "0"), ("--kernel-size", "-1")])
def test_size_below_one_rejected_before_training(corpus_dir, tmp_path, capsys, epochs_started, flags):
    out = tmp_path / "out"
    assert main(_train_argv(corpus_dir, out, *flags)) == 1
    err = capsys.readouterr().err
    assert err.startswith("HICU_ERROR code=invalid_input detail=d_e, d_f and kernel_size must be >= 1")
    assert epochs_started == []
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--freeze-embeddings", "--transfer-output"])
def test_removed_train_flags_are_usage_errors(corpus_dir, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(_train_argv(corpus_dir, tmp_path, flag))
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["build-tree", "eval", "inspect"])
def test_seed_is_a_usage_error_where_nothing_draws(corpus_dir, trained_dir, tmp_path, capsys, command):
    # only synth, embed and train draw random numbers, so only they take --seed
    argv = {
        "build-tree": ["--train", str(corpus_dir / "train.jsonl"), "--ranges", str(corpus_dir / "ranges.tsv"),
                       "--out", str(tmp_path / "tree.json")],
        "eval": ["--checkpoint", str(trained_dir / "checkpoint.bin"), "--test", str(corpus_dir / "test.jsonl"),
                 "--out", str(tmp_path / "eval")],
        "inspect": ["--checkpoint", str(trained_dir / "checkpoint.bin"), "--data", str(corpus_dir / "test.jsonl"),
                    "--doc-id", "d0", "--label", "x"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--seed", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --seed 0" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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


def _without_tokens(src, dst):
    """Copy a split with every note's text replaced by one without a token."""
    dst.write_text("".join(json.dumps({**json.loads(line), "text": "1234 !!"}) + "\n"
                           for line in src.read_text().splitlines()))


@pytest.mark.parametrize("split", ["train", "valid"])
def test_train_rejects_a_split_without_tokens(corpus_dir, tmp_path, capsys, epochs_started, split):
    path = tmp_path / f"{split}.jsonl"
    _without_tokens(corpus_dir / f"{split}.jsonl", path)
    assert main(_train_argv(corpus_dir, tmp_path / "model", f"--{split}", str(path))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"HICU_ERROR code=invalid_input detail={path}: none of its ")
    assert err.rstrip().endswith("documents has a token")
    assert epochs_started == []
    assert not (tmp_path / "model").exists()


def test_eval_rejects_a_test_split_without_tokens(corpus_dir, trained_dir, tmp_path, capsys):
    path = tmp_path / "test.jsonl"
    _without_tokens(corpus_dir / "test.jsonl", path)
    assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--test", str(path), "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == (
        f"HICU_ERROR code=invalid_input detail={path}: none of its 40 documents has a token\n")
    assert not (tmp_path / "eval").exists()


def test_train_tokenizes_each_note_once(corpus_dir, tmp_path, monkeypatch):
    from hicu import data

    calls = []
    tokenize = data.tokenize
    monkeypatch.setattr(data, "tokenize", lambda text: calls.append(text) or tokenize(text))
    assert main(_train_argv(corpus_dir, tmp_path, "--epochs-per-level", "0,0,0,0,1")) == 0
    n_notes = sum(len(list(data.iter_jsonl(corpus_dir / f"{split}.jsonl"))) for split in ("train", "valid"))
    assert len(calls) == n_notes


def test_train_holds_one_training_note_at_a_time(corpus_dir, tmp_path, epochs_started):
    # every note padded, past --max-len, with 20 KB of a word it already holds:
    # indexing the train split may hold a few padded notes, never the split
    from hicu import data

    records = [json.loads(l) for l in (corpus_dir / "train.jsonl").read_text().splitlines()]
    peaks = []
    for name, pad in (("short", 0), ("long", 20_000)):
        train = tmp_path / f"{name}.jsonl"
        lines = [json.dumps({**r, "text": r["text"] + (" " + r["text"].split()[0]) * (pad // 8)}) + "\n"
                 for r in records]
        train.write_text("".join(lines))
        argv = _train_argv(corpus_dir, tmp_path / name, "--train", str(train), "--max-len", "64")
        peaks.append(_traced_peak(lambda: main(argv)))  # its first epoch fails: the peak is set-up's
    assert epochs_started == [1, 1]
    longest = max(lines, key=len)
    note = _traced_peak(lambda: (longest.encode(), data.tokenize(json.loads(longest)["text"])))
    assert peaks[1] - peaks[0] < 3 * note, (peaks, note)
    assert 3 * note < len(records) * 20_000 / 2


_MISLABELLED_EMPTY = json.dumps({"id": "e", "text": "1234 !!", "labels": ["999.99"]}) + "\n"


def test_train_checks_the_labels_of_dropped_documents(corpus_dir, tmp_path, capsys, epochs_started):
    train = tmp_path / "train.jsonl"
    train.write_text((corpus_dir / "train.jsonl").read_text() + _MISLABELLED_EMPTY)
    argv = _train_argv(corpus_dir, tmp_path / "model", "--train", str(train),
                       "--tree", str(corpus_dir / "tree.json"))
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == ("HICU_ERROR code=invalid_input "
                       "detail=document 'e': label '999.99' not a tree leaf")
    assert epochs_started == []
    assert not (tmp_path / "model" / "checkpoint.bin").exists()


def test_eval_checks_the_labels_of_dropped_documents(corpus_dir, trained_dir, tmp_path, capsys):
    test = tmp_path / "test.jsonl"
    lines = (corpus_dir / "test.jsonl").read_text().splitlines(keepends=True)
    test.write_text("".join(lines[:3]) + _MISLABELLED_EMPTY)
    assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--test", str(test), "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == ("HICU_ERROR code=invalid_input "
                       "detail=document 'e': label '999.99' not a tree leaf")
    assert not (tmp_path / "eval" / "scores.npy").exists()


def test_eval_rejects_a_checkpoint_that_is_not_a_trainers(
    corpus_dir, trained_dir, tmp_path, capsys
):
    from hicu.checkpoint import read_container, write_container

    meta, arrays = read_container(trained_dir / "checkpoint.bin")
    other = tmp_path / "other.bin"
    write_container(other, {**meta, "kind": "other"}, arrays)
    assert main(["eval", "--checkpoint", str(other), "--test", str(corpus_dir / "test.jsonl"),
                 "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("HICU_ERROR code=invalid_input") and "not a trainer checkpoint" in err
    assert not (tmp_path / "eval" / "scores.npy").exists()


class TestWordEmbeddings:
    D_E = 12

    @staticmethod
    def _write_vectors(path, tokens, d):
        rows = [f"{t} " + " ".join(f"{0.01 * (i + 1) * (-1) ** j:.2f}" for j in range(d))
                for i, t in enumerate(tokens)]
        path.write_text(f"{len(tokens)} {d}\n" + "\n".join(rows) + "\n")

    @pytest.fixture(scope="class")
    def word_emb(self, corpus_dir, tmp_path_factory):
        from hicu.data import iter_jsonl, tokenize

        out = tmp_path_factory.mktemp("word-emb")
        records = list(iter_jsonl(corpus_dir / "train.jsonl"))
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

    @pytest.mark.parametrize("header_rows, tokens, detail", [
        (5, ["sigx", "sigy"], "expected 5 rows, found 2"),
        (2, ["sigx", "sigx"], "token 'sigx' listed twice"),
    ], ids=["truncated", "repeated"])
    def test_row_count_or_token_off_the_header_is_invalid_input(
            self, corpus_dir, tmp_path, capsys, header_rows, tokens, detail):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(f"{header_rows} {self.D_E}\n" + "".join(f"{t}{' 0.1' * self.D_E}\n" for t in tokens))
        assert main(_train_argv(corpus_dir, tmp_path / "model", "--word-emb", str(vectors))) == 1
        err = capsys.readouterr().err
        assert err.startswith("HICU_ERROR code=invalid_input") and detail in err
        assert str(vectors) in err
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

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_one_rejected(self, corpus_dir, trained_dir, capsys, top_n):
        rec = json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[0])
        rc = main([
            "inspect", "--checkpoint", str(trained_dir / "checkpoint.bin"),
            "--data", str(corpus_dir / "test.jsonl"),
            "--doc-id", rec["id"], "--label", rec["labels"][0], "--top-n", top_n,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"HICU_ERROR code=invalid_input detail=top_n must be >= 1, got {top_n}")
        assert captured.out == ""


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
        from hicu.data import iter_jsonl, load_dataset

        meta, arrays = read_container(corrected / "model" / "checkpoint.bin")
        enc, dec = _best_model(meta, arrays)
        test = load_dataset(list(iter_jsonl(corpus_dir / "test.jsonl")), _vocab(meta), meta["max_len"])
        expected = score_dataset(enc, dec, test.docs)
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
        from hicu.data import build_vocab, iter_jsonl, load_dataset, tokenize
        from hicu.icd import RangeTable, build_label_tree, parse_code_auto

        out = tmp_path_factory.mktemp("flat")
        assert main(_train_argv(corpus_dir, out, "--mode", "flat")) == 0

        train = list(iter_jsonl(corpus_dir / "train.jsonl"))
        valid = list(iter_jsonl(corpus_dir / "valid.jsonl"))
        codes = sorted({l for r in train + valid for l in r["labels"]})
        ranges = RangeTable.from_file(corpus_dir / "ranges.tsv")
        tree = build_label_tree([parse_code_auto(c) for c in codes], ranges)
        vocab = build_vocab((tokenize(r["text"]) for r in train), min_count=3)
        cfg = CurriculumConfig(epochs_per_level=(1, 1, 1, 1, 2), d_e=12, d_f=12,
                               lr=0.002, seed=0)
        trainer = Trainer(load_dataset(train, vocab, 4096), load_dataset(valid, vocab, 4096),
                          tree, None, cfg.flat())
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

    def test_eval_scores_a_trainer_save_checkpoint(self, corpus_dir, flat, tmp_path):
        from hicu.curriculum import score_dataset
        from hicu.data import iter_jsonl, load_dataset

        _, trainer, _ = flat
        trainer.save(tmp_path / "trainer.bin")
        assert main(["eval", "--checkpoint", str(tmp_path / "trainer.bin"),
                     "--test", str(corpus_dir / "test.jsonl"), "--out", str(tmp_path / "ev")]) == 0
        state = trainer.best_state()
        test = load_dataset(list(iter_jsonl(corpus_dir / "test.jsonl")), state.vocab, state.max_len)
        with cli._one_blas_thread():  # the BLAS thread count hicu commands run at
            want = score_dataset(state.encoder, state.decoder, docs=test.docs)
        assert np.array_equal(np.load(tmp_path / "ev" / "scores.npy"), want)

    def test_inspect_prints_inspect_attention(self, corpus_dir, flat, capsys):
        from hicu.curriculum import inspect_attention

        out, trainer, _ = flat
        rec = json.loads((corpus_dir / "test.jsonl").read_text().splitlines()[1])
        label = rec["labels"][0]
        rc = main([
            "inspect", "--checkpoint", str(out / "checkpoint.bin"),
            "--data", str(corpus_dir / "test.jsonl"),
            "--doc-id", rec["id"], "--label", label, "--top-n", "5",
        ])
        assert rc == 0
        top = inspect_attention(trainer.best_state(), rec, label, top_n=5)
        assert capsys.readouterr().out.splitlines() == [f"{t}\t{w:.6f}" for t, w in top]


class TestMallocThresholds:
    def test_sets_both_thresholds_through_mallopt(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert cli._pin_malloc_thresholds()
        assert calls == [(-3, cli.MALLOC_MMAP_THRESHOLD), (-1, cli.MALLOC_TRIM_THRESHOLD)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    def test_quiet_without_a_library_or_mallopt(self, monkeypatch):
        def no_library(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        assert not cli._pin_malloc_thresholds()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert not cli._pin_malloc_thresholds()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_glibc_accepts_the_thresholds(self):
        assert cli._pin_malloc_thresholds()


class TestBlasThreads:
    def _fake_openblas(self, monkeypatch, threads):
        calls = []

        def set_threads(n):
            calls.append(n)
            threads[0] = n

        lib = types.SimpleNamespace(scipy_openblas_get_num_threads64_=lambda: threads[0],
                                    scipy_openblas_set_num_threads64_=set_threads)
        monkeypatch.setattr(glob, "glob", lambda pattern: ["libscipy_openblas64_.so"])
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        return calls

    def test_pins_one_thread_and_restores_the_old_count(self, monkeypatch):
        threads = [4]
        calls = self._fake_openblas(monkeypatch, threads)
        with cli._one_blas_thread():
            assert threads == [1]
        assert calls == [1, 4]
        with pytest.raises(RuntimeError), cli._one_blas_thread():
            raise RuntimeError("body failed")
        assert calls == [1, 4, 1, 4]

    def test_main_runs_under_the_pin(self, monkeypatch, capsys):
        threads = [2]
        seen = []
        self._fake_openblas(monkeypatch, threads)

        def build_parser():
            seen.append(threads[0])
            raise ValueError("parser not needed")

        monkeypatch.setattr(cli, "build_parser", build_parser)
        assert main(["train"]) == 1
        assert "parser not needed" in capsys.readouterr().err
        assert seen == [1]
        assert threads == [2]

    def test_quiet_without_the_library(self, monkeypatch):
        monkeypatch.setattr(glob, "glob", lambda pattern: [])
        with cli._one_blas_thread():
            pass

        def no_library(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(glob, "glob", lambda pattern: ["libscipy_openblas64_.so"])
        monkeypatch.setattr(ctypes, "CDLL", no_library)
        with cli._one_blas_thread():
            pass
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        with cli._one_blas_thread():
            pass

    def test_checkpoints_match_at_one_and_two_blas_threads(self, tmp_path):
        # At this shape two OpenBLAS threads change the low-order bits of an
        # unpinned run, and a document's attention work is above the lane floor.
        assert main(["synth", "--out", str(tmp_path / "data"), "--branching", "5,5,5,5,5",
                     "--doc-length", "256", "--docs", "100,16,16", "--zipf", "0.8",
                     "--seed", "0"]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([
                sys.executable, "-m", "hicu.cli", "train",
                "--ranges", str(tmp_path / "data" / "ranges.tsv"),
                "--train", str(tmp_path / "data" / "train.jsonl"),
                "--valid", str(tmp_path / "data" / "valid.jsonl"),
                "--out", str(tmp_path / threads), "--mode", "flat", "--epochs-per-level", "1,1,1,1,1",
                "--d-e", "32", "--d-f", "32", "--lr", "0.002", "--seed", "0",
            ], env=env, check=True, capture_output=True, timeout=300)
        state, _ = load_model(tmp_path / "1" / "checkpoint.bin")
        assert 256 * state.decoder.n_labels * 32 >= network.LANE_WORK_FLOOR
        assert (tmp_path / "1" / "checkpoint.bin").read_bytes() == (tmp_path / "2" / "checkpoint.bin").read_bytes()
