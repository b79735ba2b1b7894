"""Command-line surface: build trees, train embeddings, train, evaluate,
generate synthetic corpora and inspect attention.

Config precedence: command-line flags override ``--config`` key=value file
entries, which override built-in defaults.  ``HICU_SEED`` is used when no
seed is given anywhere.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

from . import curriculum, data, icd, metrics, poincare
from .checkpoint import write_container
from .losses import AslConfig


def _read_config_file(path) -> list[str]:
    """Turn key=value lines into argv fragments (flags given later win)."""
    args: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    args.append(f"--{key}")
            else:
                args.extend([f"--{key}", value])
    return args


def _seed_default() -> int:
    return int(os.environ.get("HICU_SEED", "0"))


def _codes_from_records(records) -> list[str]:
    return sorted({label for rec in records for label in rec["labels"]})


def _load_split(records, path, vocab, max_len) -> data.Dataset:
    """``data.load_dataset``, reporting the documents it drops for having no tokens."""
    dataset = data.load_dataset(records, vocab, max_len)
    if dataset.skipped_empty:
        print(f"skipped {dataset.skipped_empty} documents without tokens in {path}",
              file=sys.stderr)
    return dataset


# ---------------------------------------------------------------- build-tree


def cmd_build_tree(args) -> int:
    ranges = icd.RangeTable.from_file(args.ranges)
    records = data.read_jsonl(args.train)
    codes = _codes_from_records(records)
    tree = icd.build_label_tree([icd.parse_code_auto(c) for c in codes], ranges)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(tree.to_json() + "\n")
    print(f"tree written to {args.out}")
    for k in range(1, tree.k_max + 1):
        print(f"level {k}: {len(tree.level_labels(k))} nodes")
    return 0


# --------------------------------------------------------------------- embed


def cmd_embed(args) -> int:
    with open(args.tree, encoding="utf-8") as fh:
        tree = icd.LabelTree.from_json(fh.read())
    cfg = poincare.EmbedConfig(
        d_h=args.hyp_dim,
        learning_rate=args.hyp_lr,
        epochs=args.hyp_epochs,
        burn_in_epochs=args.hyp_burn_in,
        negatives_per_positive=args.hyp_negatives,
        seed=args.seed,
    )
    emb = poincare.train_poincare(tree, cfg)
    emb.save(args.out)
    print(f"embeddings written to {args.out}")
    print(f"mean edge distance: {poincare.mean_edge_distance(emb, tree):.6f}")
    return 0


# --------------------------------------------------------------------- synth


def cmd_synth(args) -> int:
    cfg = data.SynthConfig(
        branching=tuple(int(x) for x in args.branching.split(",")),
        zipf_exponent=args.zipf,
        tokens_per_signature=args.tokens_per_signature,
        doc_length=args.doc_length,
        noise_rate=args.noise_rate,
        docs_per_split=tuple(int(x) for x in args.docs.split(",")),
        seed=args.seed,
    )
    corpus = data.synth_generate(cfg)
    corpus.write(args.out)
    counts = Counter(l for rec in corpus.splits["train"] for l in rec["labels"])
    freqs = sorted(counts.values())
    quartile = max(1, len(freqs) // 4)
    rare = float(np.mean(freqs[:quartile]))
    common = float(np.mean(freqs[-quartile:]))
    print(f"synthetic corpus written to {args.out}")
    print(f"train label frequencies: {len(counts)} labels observed, "
          f"rarest-quartile mean {rare:.1f}, commonest-quartile mean {common:.1f}")
    return 0


# --------------------------------------------------------------------- train


def _curriculum_config(args) -> curriculum.CurriculumConfig:
    epochs = tuple(int(x) for x in args.epochs_per_level.split(","))
    return curriculum.CurriculumConfig(
        epochs_per_level=epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        correction=args.correction,
        loss=args.loss,
        asl=AslConfig(gamma_pos=args.gamma_pos, gamma_neg=args.gamma_neg, margin=args.margin),
        early_stop_metric=args.es_metric,
        patience=args.patience,
        seed=args.seed,
        d_e=args.d_e,
        d_f=args.d_f,
        kernel_size=args.kernel_size,
        p_at=tuple(int(x) for x in args.p_at.split(",")),
    )


def cmd_train(args) -> int:
    ranges = icd.RangeTable.from_file(args.ranges)
    train_records = data.read_jsonl(args.train)
    valid_records = data.read_jsonl(args.valid)

    if args.top_k_labels is not None:
        train_records, valid_records = data.filter_top_k_labels(
            [train_records, valid_records], args.top_k_labels
        )

    codes = _codes_from_records(train_records + valid_records)
    if not codes:
        raise icd.CodeError("empty label set")
    if args.tree:
        with open(args.tree, encoding="utf-8") as fh:
            tree = icd.LabelTree.from_json(fh.read())
    else:
        tree = icd.build_label_tree([icd.parse_code_auto(c) for c in codes], ranges)

    vocab = data.build_vocab(
        (data.tokenize(rec["text"]) for rec in train_records), min_count=args.min_count
    )
    train_set = _load_split(train_records, args.train, vocab, args.max_len)
    valid_set = _load_split(valid_records, args.valid, vocab, args.max_len)

    word_embedding = None
    if args.word_emb:
        word_embedding = data.load_embeddings(args.word_emb, vocab, args.d_e, seed=args.seed)

    emb = None
    if args.correction != "none":
        if not args.hyp_emb:
            raise ValueError("correction modes add/concat require --hyp-emb")
        emb = poincare.PoincareEmbedding.load(args.hyp_emb)

    cfg = _curriculum_config(args)
    if args.mode == "flat":
        cfg = cfg.flat()
    trainer = curriculum.Trainer(
        train_set, valid_set, tree, emb, cfg,
        word_embedding=word_embedding, vocab_size=vocab.size,
    )
    state, report = trainer.run()

    os.makedirs(args.out, exist_ok=True)
    meta, arrays = trainer.state()
    meta.update(mode=args.mode, vocab_tokens=vocab.tokens_in_order(),
                min_count=vocab.min_count, max_len=args.max_len)
    if args.top_k_labels is not None:
        meta["top_k_labels"] = args.top_k_labels
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    write_container(ckpt_path, meta, arrays)
    report.write_jsonl(os.path.join(args.out, "report.jsonl"))
    print(f"checkpoint written to {ckpt_path}")
    print(f"best {cfg.early_stop_metric}: {trainer.best_metric:.4f} "
          f"({len(report.records)} epochs, {report.wall_clock_s:.1f}s)")
    return 0


# ---------------------------------------------------------------------- eval


def _load_model(path):
    state, E_h, meta = curriculum.load_model(path)
    vocab = data.Vocab(
        {tok: i + 2 for i, tok in enumerate(meta["vocab_tokens"])},
        min_count=meta["min_count"],
    )
    return state, vocab, E_h, meta


def _bucket_table(codes, train_counts, model_auc, base_auc, n_buckets=4):
    """Mean per-label AUC deltas grouped by training-frequency quartiles."""
    order = sorted(range(len(codes)), key=lambda i: (train_counts[i], codes[i]))
    records = []
    for b in range(n_buckets):
        lo = b * len(order) // n_buckets
        hi = (b + 1) * len(order) // n_buckets
        idxs = [i for i in order[lo:hi] if model_auc[i] is not None and base_auc[i] is not None]
        rec = {
            "event": "auc_bucket",
            "bucket": b,
            "n_labels": hi - lo,
            "n_scored": len(idxs),
            "min_train_freq": int(train_counts[order[lo]]) if hi > lo else None,
            "max_train_freq": int(train_counts[order[hi - 1]]) if hi > lo else None,
        }
        if idxs:
            rec["mean_auc"] = float(np.mean([model_auc[i] for i in idxs]))
            rec["mean_baseline_auc"] = float(np.mean([base_auc[i] for i in idxs]))
            rec["mean_auc_delta"] = rec["mean_auc"] - rec["mean_baseline_auc"]
        records.append(rec)
    return records


def cmd_eval(args) -> int:
    state, vocab, E_h, meta = _load_model(args.checkpoint)
    records = data.read_jsonl(args.test)
    if "top_k_labels" in meta:
        # the model was trained on the top-k codes only; score the test split the same way
        records = data.restrict_labels(records, set(state.codes))
    test_set = _load_split(records, args.test, vocab, meta["max_len"])
    y = test_set.label_matrix(state.codes)
    ks = tuple(int(x) for x in args.p_at.split(","))
    base_scores = None
    if args.baseline:
        if not args.train:
            raise ValueError("--baseline requires --train for label frequencies")
        base_scores = np.load(args.baseline)
        if base_scores.shape != y.shape:
            raise ValueError(f"baseline score matrix has shape {base_scores.shape}, "
                             f"expected {y.shape}")

    scores = curriculum.score_dataset(state.encoder, state.decoder, E_h, test_set.docs)
    os.makedirs(args.out, exist_ok=True)
    np.save(os.path.join(args.out, "scores.npy"), scores)
    out_records = [{"event": "metrics", **metrics.evaluate(scores, y, ks=ks)}]

    if base_scores is not None:
        train_records = data.read_jsonl(args.train)
        counts = Counter(l for rec in train_records for l in rec["labels"])
        train_counts = [counts.get(c, 0) for c in state.codes]
        model_auc = [metrics.auc_binary(scores[:, j], y[:, j]) for j in range(len(state.codes))]
        base_auc = [metrics.auc_binary(base_scores[:, j], y[:, j]) for j in range(len(state.codes))]
        out_records.extend(_bucket_table(state.codes, train_counts, model_auc, base_auc))

    data.write_jsonl(os.path.join(args.out, "eval.jsonl"), out_records)
    for rec in out_records:
        print(json.dumps(rec, sort_keys=True))
    return 0


# ------------------------------------------------------------------- inspect


def cmd_inspect(args) -> int:
    state, vocab, E_h, meta = _load_model(args.checkpoint)
    records = data.read_jsonl(args.data)
    rec = next((r for r in records if r["id"] == args.doc_id), None)
    if rec is None:
        raise ValueError(f"document {args.doc_id!r} not found in {args.data}")
    tokens = data.tokenize(rec["text"])[: meta["max_len"]]
    doc = data.Document(id=rec["id"], tokens=vocab.indices(tokens), labels=())
    for token, weight in curriculum.inspect_attention(
        state, E_h, doc, tokens, args.label, args.top_n
    ):
        print(f"{token}\t{weight:.6f}")
    return 0


# ---------------------------------------------------------------------- main


_ERROR_CODES = {
    icd.CodeError: "code_error",
    FileNotFoundError: "io_error",
    FloatingPointError: "numeric_error",
    KeyError: "missing_key",
    ValueError: "invalid_input",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hicu")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file (flags override)")
        p.add_argument("--seed", type=int, default=_seed_default())

    p = sub.add_parser("build-tree", help="build and serialize the label tree")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--ranges", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("embed", help="train hyperbolic label embeddings")
    common(p)
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hyp-dim", type=int, default=50)
    p.add_argument("--hyp-lr", type=float, default=0.3)
    p.add_argument("--hyp-epochs", type=int, default=300)
    p.add_argument("--hyp-burn-in", type=int, default=20)
    p.add_argument("--hyp-negatives", type=int, default=10)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--branching", default="3,3,3,3,3")
    p.add_argument("--zipf", type=float, default=1.5)
    p.add_argument("--tokens-per-signature", type=int, default=2)
    p.add_argument("--doc-length", type=int, default=64)
    p.add_argument("--noise-rate", type=float, default=0.05)
    p.add_argument("--docs", default="2000,300,300")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run curriculum or flat training")
    common(p)
    p.add_argument("--ranges", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--tree")
    p.add_argument("--hyp-emb")
    p.add_argument("--word-emb")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("hicu", "flat"), default="hicu")
    p.add_argument("--correction", choices=("none", "add", "concat"), default="none")
    p.add_argument("--loss", choices=("bce", "asl"), default="bce")
    p.add_argument("--gamma-pos", type=float, default=0.0)
    p.add_argument("--gamma-neg", type=float, default=1.0)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--epochs-per-level", default="2,3,5,10,50")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--max-len", type=int, default=4096)
    p.add_argument("--top-k-labels", type=int)
    p.add_argument("--p-at", default="5,8,15")
    p.add_argument("--min-count", type=int, default=3)
    p.add_argument("--d-e", type=int, default=32)
    p.add_argument("--d-f", type=int, default=32)
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--es-metric", default="micro_f1")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--train", help="training split, for frequency buckets")
    p.add_argument("--baseline", help="baseline scores.npy for AUC deltas")
    p.add_argument("--out", required=True)
    p.add_argument("--p-at", default="5,8,15")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="top-weighted tokens for one label")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--doc-id", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--top-n", type=int, default=16)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # expand --config before the real parse so explicit flags win
        if argv and "--config" in argv:
            i = argv.index("--config")
            if i + 1 < len(argv):
                injected = _read_config_file(argv[i + 1])
                argv = argv[:1] + injected + argv[1:]
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise  # argparse usage errors keep their own exit code
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        code = "internal_error"
        for etype, name in _ERROR_CODES.items():
            if isinstance(exc, etype):
                code = name
                break
        print(f"HICU_ERROR code={code} detail={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
