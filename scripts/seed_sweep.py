#!/usr/bin/env python3
"""Multi-seed comparison of flat vs curriculum training.

Runs the reference experiment across several seeds and summarizes the
rare-label effect: the mean and spread of test micro-F1, micro-AUC and
macro-AUC for both modes and of the rare-quartile AUC delta (curriculum
minus flat).  ``--json PATH`` also writes the per-seed records (micro/macro
F1 and AUC of both modes, the rare-quartile delta) with the environment
record of ``perfbench/worker.py``, so a multi-seed comparison can be
committed and checked.  Its ``git_sha`` is null when ``src`` differs from
that commit; ``src_sha256`` then alone names the source measured.

Usage: PYTHONPATH=src python3 scripts/seed_sweep.py [--seeds 0,1,2,3,4] [--out DIR] [--json PATH]
"""
import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from run_reference_experiment import run_pipeline

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from worker import environment  # noqa: E402


def sweep_environment() -> dict:
    """``environment()``, with ``git_sha`` null when ``git status`` lists
    changes under ``src`` (or cannot tell)."""
    env = environment()
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        status = None
    if status is None or status.returncode != 0 or status.stdout.strip():
        env["git_sha"] = None
    return env


def one_seed(root: Path, seed: int) -> dict:
    flat, records = run_pipeline(root, seed)
    buckets = [r for r in records if r["event"] == "auc_bucket" and r["n_scored"]]
    return {
        "seed": seed,
        "flat_micro_f1": flat["micro_f1"],
        "hicu_micro_f1": records[0]["micro_f1"],
        "flat_macro_f1": flat["macro_f1"],
        "hicu_macro_f1": records[0]["macro_f1"],
        "flat_micro_auc": flat["micro_auc"],
        "hicu_micro_auc": records[0]["micro_auc"],
        "flat_macro_auc": flat["macro_auc"],
        "hicu_macro_auc": records[0]["macro_auc"],
        "rare_delta": buckets[0]["mean_auc_delta"] if buckets else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0,1,2,3,4")
    parser.add_argument("--out", default=None)
    parser.add_argument("--json", help="write the environment and per-seed records here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    results = []
    base = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="seed-sweep-"))
    for seed in seeds:
        root = base / f"seed-{seed}"
        res = one_seed(root, seed)
        results.append(res)
        print(f"seed {seed}: flat {res['flat_micro_f1']:.4f}  "
              f"hicu {res['hicu_micro_f1']:.4f}  "
              f"micro-AUC flat {res['flat_micro_auc']:.4f} hicu {res['hicu_micro_auc']:.4f}  "
              f"macro-AUC flat {res['flat_macro_auc']:.4f} hicu {res['hicu_macro_auc']:.4f}  "
              f"rare-quartile AUC delta {res['rare_delta']:+.4f}")

    rare = np.array([r["rare_delta"] for r in results if r["rare_delta"] is not None])
    print()
    for key, name in (("micro_f1", "micro-F1"), ("micro_auc", "micro-AUC"),
                      ("macro_auc", "macro-AUC")):
        for mode in ("flat", "hicu"):
            vals = np.array([r[f"{mode}_{key}"] for r in results])
            print(f"{mode} {name}: {vals.mean():.4f} +/- {vals.std():.4f}")
    if len(rare):
        wins = int((rare > 0).sum())
        print(f"rare-quartile AUC delta: {rare.mean():+.4f} +/- {rare.std():.4f} "
              f"(positive in {wins}/{len(rare)} seeds)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"environment": sweep_environment(), "seeds": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
