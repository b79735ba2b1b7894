"""Command-line surface: build trees, train embeddings, train, evaluate,
generate synthetic corpora and inspect attention.

Config precedence: command-line flags override ``--config`` key=value file
entries, which override built-in defaults.  ``HICU_SEED`` is used when no
seed is given anywhere.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import sys
import time
from collections import Counter

import numpy as np

from . import curriculum, data, icd, metrics, poincare
from .checkpoint import write_container
from .losses import LOSSES, AslConfig
from .network import CORRECTION_MODES


# glibc malloc thresholds, pinned for the whole process.  By default glibc
# serves each block over 128 KiB with mmap and raises that threshold only
# after freeing such a block, so the 0.1-3 MB temporaries of a training step
# are mapped, zero-filled through page faults and unmapped on every call.  A
# paper-wide `hicu train` took 219k minor faults and 0.51 s of system time
# that way, and 7.5k faults and 0.01 s with these thresholds (2-core x86_64
# VM, one BLAS thread).
MALLOC_MMAP_THRESHOLD = 32 * 2**20  # bytes; the ceiling of glibc's dynamic threshold on 64-bit
MALLOC_TRIM_THRESHOLD = 256 * 2**20  # bytes of free heap top kept instead of returned
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameter numbers in malloc.h


def _pin_malloc_thresholds() -> bool:
    """Set glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD.  Returns whether
    malloc accepted both; without glibc's ``mallopt`` it does nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    accepted = [mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)]
    return all(accepted)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS at one thread, then restore
    its old count.  OpenBLAS's low-order bits change with its thread count,
    so this makes a run's bits independent of the core count and of
    ``OPENBLAS_NUM_THREADS``; decode and backward get their parallelism from
    worker lanes instead.  Without the library it does nothing."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")
    try:
        lib = ctypes.CDLL(sorted(glob.glob(pattern))[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        yield
        return
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


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
            args.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    return args


def _seed_default() -> int:
    return int(os.environ.get("HICU_SEED", "0"))


def _load_split(path, vocab, max_len, min_count=data.MIN_COUNT, keep=None) -> data.Dataset:
    """The split file at ``path``, read one record at a time by
    ``data.load_dataset``, with its labels cut to ``keep`` when given.
    Reports the documents dropped for having no tokens and rejects a split
    that has none left."""
    records = data.iter_jsonl(path)
    if keep is not None:
        records = data.restrict_labels(records, keep)
    dataset = data.load_dataset(records, vocab, max_len, min_count=min_count)
    if not dataset.docs:
        raise ValueError(f"{path}: none of its {len(dataset.dropped)} documents has a token")
    if dataset.dropped:
        print(f"skipped {len(dataset.dropped)} documents without tokens in {path}",
              file=sys.stderr)
    return dataset


# ---------------------------------------------------------------- build-tree


def cmd_build_tree(args) -> int:
    ranges = icd.RangeTable.from_file(args.ranges)
    codes = sorted({label for rec in data.iter_jsonl(args.train) for label in rec["labels"]})
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
    keep = None
    if args.top_k_labels is not None:
        keep = data.filter_top_k_labels(data.iter_jsonl(args.train), args.top_k_labels)
    train_set = _load_split(args.train, None, args.max_len, args.min_count, keep)
    vocab = train_set.vocab
    valid_set = _load_split(args.valid, vocab, args.max_len, keep=keep)

    codes = sorted({label for split in (train_set, valid_set)
                    for doc in split.docs + split.dropped for label in doc.labels})
    if not codes:
        raise icd.CodeError("empty label set")
    if args.tree:
        with open(args.tree, encoding="utf-8") as fh:
            tree = icd.LabelTree.from_json(fh.read())
    else:
        tree = icd.build_label_tree([icd.parse_code_auto(c) for c in codes], ranges)

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
    trainer = curriculum.Trainer(train_set, valid_set, tree, emb, cfg, word_embedding=word_embedding)
    t0 = time.perf_counter()
    trainer.run()
    wall = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    meta, arrays = trainer.state()
    meta["mode"] = args.mode
    if args.top_k_labels is not None:
        meta["top_k_labels"] = args.top_k_labels
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    write_container(ckpt_path, meta, arrays)
    trainer.write_report(os.path.join(args.out, "report.jsonl"))
    print(f"checkpoint written to {ckpt_path}")
    print(f"best {cfg.early_stop_metric}: {trainer.best_metric:.4f} "
          f"({len(trainer.records)} epochs, {wall:.1f}s)")
    return 0


# ---------------------------------------------------------------------- eval


def _bucket_table(codes, train_counts, model_auc, base_auc, n_buckets=4):
    """Mean per-label AUC deltas grouped by training-frequency quartiles; NaN AUCs go unscored."""
    order = sorted(range(len(codes)), key=lambda i: (train_counts[i], codes[i]))
    scored = ~(np.isnan(model_auc) | np.isnan(base_auc))
    records = []
    for b in range(n_buckets):
        lo = b * len(order) // n_buckets
        hi = (b + 1) * len(order) // n_buckets
        idxs = [i for i in order[lo:hi] if scored[i]]
        rec = {
            "event": "auc_bucket",
            "bucket": b,
            "n_labels": hi - lo,
            "n_scored": len(idxs),
            "min_train_freq": int(train_counts[order[lo]]) if hi > lo else None,
            "max_train_freq": int(train_counts[order[hi - 1]]) if hi > lo else None,
        }
        if idxs:
            rec["mean_auc"] = float(np.mean(model_auc[idxs]))
            rec["mean_baseline_auc"] = float(np.mean(base_auc[idxs]))
            rec["mean_auc_delta"] = rec["mean_auc"] - rec["mean_baseline_auc"]
        records.append(rec)
    return records


def cmd_eval(args) -> int:
    state, meta = curriculum.load_model(args.checkpoint)
    # a model trained on the top-k codes only scores the test split the same way
    keep = set(state.codes) if "top_k_labels" in meta else None
    test_set = _load_split(args.test, state.vocab, state.max_len, keep=keep)
    y = test_set.label_matrix(state.codes)
    ks = tuple(int(x) for x in args.p_at.split(","))
    metrics.check_p_at(ks)
    base_scores = None
    if args.baseline:
        if not args.train:
            raise ValueError("--baseline requires --train for label frequencies")
        base_scores = np.load(args.baseline)
        if base_scores.shape != y.shape:
            raise ValueError(f"baseline score matrix has shape {base_scores.shape}, "
                             f"expected {y.shape}")
        if not np.isfinite(base_scores).all():
            raise ValueError(f"baseline score matrix {args.baseline} has non-finite entries")

    scores = curriculum.score_dataset(state.encoder, state.decoder, docs=test_set.docs)
    os.makedirs(args.out, exist_ok=True)
    np.save(os.path.join(args.out, "scores.npy"), scores)
    record, model_auc = metrics.evaluate(scores, y, ks=ks)
    out_records = [{"event": "metrics", **record}]

    if base_scores is not None:
        # one record's text at a time; a label counts once per document, as in load_dataset
        counts = Counter(l for rec in data.iter_jsonl(args.train) for l in set(rec["labels"]))
        train_counts = [counts.get(c, 0) for c in state.codes]
        base_auc = metrics.per_label_auc(base_scores, y)
        out_records.extend(_bucket_table(state.codes, train_counts, model_auc, base_auc))

    data.write_jsonl(os.path.join(args.out, "eval.jsonl"), out_records)
    for rec in out_records:
        print(json.dumps(rec, sort_keys=True))
    return 0


# ------------------------------------------------------------------- inspect


def cmd_inspect(args) -> int:
    state, _ = curriculum.load_model(args.checkpoint)
    rec = next((r for r in data.iter_jsonl(args.data) if r["id"] == args.doc_id), None)
    if rec is None:
        raise ValueError(f"document {args.doc_id!r} not found in {args.data}")
    for token, weight in curriculum.inspect_attention(state, rec, args.label, args.top_n):
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


class _OptionNames(argparse.ArgumentParser):
    """A parser that only matches option names and takes their values: no
    option is required or checked, a command is optional and there is no
    help option.  ``main`` finds ``--config`` with it before the real parse."""

    def __init__(self, **kwargs):
        super().__init__(**{**kwargs, "add_help": False})

    def add_argument(self, *args, **kwargs):
        return super().add_argument(*args, **{**kwargs, "required": False, "type": None, "choices": None})

    def add_subparsers(self, **kwargs):
        return super().add_subparsers(**{**kwargs, "required": False})


def _commas(values) -> str:
    """A tuple default as the comma string its flag takes."""
    return ",".join(map(str, values))


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The ``hicu`` parser; a flag that sets a config field defaults to its dataclass's value."""
    embed_cfg, synth_cfg, train_cfg = poincare.EmbedConfig(), data.SynthConfig(), curriculum.CurriculumConfig()
    parser = parser_class(prog="hicu")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", help="key=value config file (flags override)")
        if seed:
            p.add_argument("--seed", type=int, default=_seed_default())

    p = sub.add_parser("build-tree", help="build and serialize the label tree")
    common(p)
    p.add_argument("--train", required=True)
    p.add_argument("--ranges", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("embed", help="train hyperbolic label embeddings")
    common(p, seed=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hyp-dim", type=int, default=embed_cfg.d_h)
    p.add_argument("--hyp-lr", type=float, default=embed_cfg.learning_rate)
    p.add_argument("--hyp-epochs", type=int, default=embed_cfg.epochs)
    p.add_argument("--hyp-burn-in", type=int, default=embed_cfg.burn_in_epochs)
    p.add_argument("--hyp-negatives", type=int, default=embed_cfg.negatives_per_positive)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p, seed=True)
    p.add_argument("--out", required=True)
    p.add_argument("--branching", default=_commas(synth_cfg.branching))
    p.add_argument("--zipf", type=float, default=synth_cfg.zipf_exponent)
    p.add_argument("--tokens-per-signature", type=int, default=synth_cfg.tokens_per_signature)
    p.add_argument("--doc-length", type=int, default=synth_cfg.doc_length)
    p.add_argument("--noise-rate", type=float, default=synth_cfg.noise_rate)
    p.add_argument("--docs", default=_commas(synth_cfg.docs_per_split))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run curriculum or flat training")
    common(p, seed=True)
    p.add_argument("--ranges", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--tree")
    p.add_argument("--hyp-emb")
    p.add_argument("--word-emb")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("hicu", "flat"), default="hicu")
    p.add_argument("--correction", choices=CORRECTION_MODES, default=train_cfg.correction)
    p.add_argument("--loss", choices=LOSSES, default=train_cfg.loss)
    p.add_argument("--gamma-pos", type=float, default=train_cfg.asl.gamma_pos)
    p.add_argument("--gamma-neg", type=float, default=train_cfg.asl.gamma_neg)
    p.add_argument("--margin", type=float, default=train_cfg.asl.margin)
    p.add_argument("--epochs-per-level", default=_commas(train_cfg.epochs_per_level))
    p.add_argument("--batch-size", type=int, default=train_cfg.batch_size)
    p.add_argument("--lr", type=float, default=train_cfg.lr)
    p.add_argument("--max-len", type=int, default=data.MAX_LEN)
    p.add_argument("--top-k-labels", type=int)
    p.add_argument("--p-at", default=_commas(train_cfg.p_at))
    p.add_argument("--min-count", type=int, default=data.MIN_COUNT)
    p.add_argument("--d-e", type=int, default=train_cfg.d_e)
    p.add_argument("--d-f", type=int, default=train_cfg.d_f)
    p.add_argument("--kernel-size", type=int, default=train_cfg.kernel_size)
    p.add_argument("--patience", type=int, default=train_cfg.patience)
    p.add_argument("--es-metric", default=train_cfg.early_stop_metric)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--train", help="training split, for frequency buckets")
    p.add_argument("--baseline", help="baseline scores.npy for AUC deltas")
    p.add_argument("--out", required=True)
    p.add_argument("--p-at", default=_commas(train_cfg.p_at))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="top-weighted tokens for one label")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--doc-id", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--top-n", type=int, default=curriculum.TOP_N)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_malloc_thresholds()
    with _one_blas_thread():
        try:
            # expand --config before the real parse so explicit flags win.  The
            # pre-parse knows every option of the command, so it takes each
            # form argparse takes (--config=FILE, a prefix) and rejects an
            # ambiguous prefix as a usage error before any file is opened
            parser = build_parser()
            config = getattr(build_parser(_OptionNames).parse_known_args(argv)[0], "config", None)
            if config is not None:
                argv = argv[:1] + _read_config_file(config) + argv[1:]
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
