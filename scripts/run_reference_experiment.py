#!/usr/bin/env python3
"""End-to-end reference experiment on the synthetic corpus.

Generates a corpus, trains the flat baseline and the curriculum model with
identical hyperparameters, evaluates both on the test split, and prints the
per-frequency-bucket AUC deltas (curriculum minus flat), then one
``sha256 <file> <16-hex prefix>`` line per output file, so two runs can be
checked for byte-identity by comparing those lines.  The last line,
``rusage maxrss_mb=... minflt=...``, gives this process's peak resident set
and minor page faults over the whole run.

Usage: python3 scripts/run_reference_experiment.py [--out DIR] [--seed N]
"""
import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from hicu.cli import main as hicu

OUTPUTS = (
    "flat/checkpoint.bin", "flat/report.jsonl", "flat-eval/scores.npy", "flat-eval/eval.jsonl",
    "hicu/checkpoint.bin", "hicu/report.jsonl", "hicu-eval/scores.npy", "hicu-eval/eval.jsonl",
)


def run_pipeline(root: Path, seed: int, branching: str = "3,3,3,3,3",
                 docs: str = "2000,300,300",
                 epochs_per_level: str = "1,1,1,2,40") -> tuple[dict, list[dict]]:
    """Synthesize a corpus under ``root``, train flat and hicu, evaluate both.

    Returns the flat model's test metrics record and the curriculum model's
    eval records (metrics, then AUC buckets against the flat baseline).
    Raises RuntimeError naming the first command that fails.
    """
    corpus = root / "corpus"
    common = [
        "--ranges", str(corpus / "ranges.tsv"),
        "--train", str(corpus / "train.jsonl"),
        "--valid", str(corpus / "valid.jsonl"),
        "--epochs-per-level", epochs_per_level,
        "--patience", "8",
        "--d-e", "16", "--d-f", "16", "--lr", "0.002",
        "--seed", str(seed),
    ]
    steps = [
        ["synth", "--out", str(corpus), "--branching", branching,
         "--docs", docs, "--seed", str(seed)],
        ["train", "--mode", "flat", "--out", str(root / "flat")] + common,
        ["train", "--mode", "hicu", "--out", str(root / "hicu")] + common,
        ["eval", "--checkpoint", str(root / "flat" / "checkpoint.bin"),
         "--test", str(corpus / "test.jsonl"),
         "--out", str(root / "flat-eval")],
        ["eval", "--checkpoint", str(root / "hicu" / "checkpoint.bin"),
         "--test", str(corpus / "test.jsonl"),
         "--train", str(corpus / "train.jsonl"),
         "--baseline", str(root / "flat-eval" / "scores.npy"),
         "--out", str(root / "hicu-eval")],
    ]
    for argv in steps:
        if hicu(argv) != 0:
            raise RuntimeError(f"command failed: {' '.join(argv)}")
    flat = json.loads((root / "flat-eval" / "eval.jsonl").read_text().splitlines()[0])
    records = [json.loads(l) for l in (root / "hicu-eval" / "eval.jsonl").read_text().splitlines()]
    return flat, records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reference-out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--branching", default="3,3,3,3,3")
    parser.add_argument("--docs", default="2000,300,300")
    parser.add_argument("--epochs-per-level", default="1,1,1,2,40")
    args = parser.parse_args()

    t0 = time.perf_counter()
    try:
        flat, records = run_pipeline(Path(args.out), args.seed, args.branching,
                                     args.docs, args.epochs_per_level)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print()
    print(f"total wall clock: {time.perf_counter() - t0:.0f}s")
    print(f"flat test micro-F1: {flat['micro_f1']:.4f}")
    print(f"curriculum test micro-F1: {records[0]['micro_f1']:.4f}")
    print("AUC delta by training-frequency quartile (curriculum - flat):")
    for rec in records:
        if rec["event"] == "auc_bucket" and rec["n_scored"]:
            print(f"  bucket {rec['bucket']} (freq {rec['min_train_freq']}-"
                  f"{rec['max_train_freq']}): {rec['mean_auc_delta']:+.4f} "
                  f"over {rec['n_scored']} labels")
    for rel in OUTPUTS:
        digest = hashlib.sha256((Path(args.out) / rel).read_bytes()).hexdigest()
        print(f"sha256 {rel} {digest[:16]}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"rusage maxrss_mb={usage.ru_maxrss / 1024:.1f} minflt={usage.ru_minflt}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
