#!/usr/bin/env python3
"""Digests of the output files of the benchmark's workloads, for byte-identity checks.

For each workload, runs ``perfbench/worker.py prepare`` and one untraced
``rep`` in a temporary directory, each in a process of its own with one BLAS
thread, as ``perfbench/run.py`` runs them.  Prints one
``<workload> <file> <sha256 16-hex prefix>`` line per digest the worker
reports.  Two source trees wrote the same bytes when they print the same
lines for the same seed and scale.  A failed step or output check is printed
to standard error and makes the exit code 1.

Usage: python3 scripts/workload_digests.py [--seed N] [--scale full|toy] [--workload W]
"""
import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import call_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STEP_TIMEOUT_S = 600.0  # for prepare and rep together, per workload


def workload_digests(name: str, seed: int, scale: str) -> tuple[dict, list[str]]:
    """({file: sha256}, errors) of one prepare and one rep of a workload."""
    with tempfile.TemporaryDirectory() as tmp:
        common = ["--workload", name, "--seed", str(seed), "--scale", scale,
                  "--trace", "0", "--data", f"{tmp}/data"]
        deadline = time.monotonic() + STEP_TIMEOUT_S
        result = call_worker("prepare", common, deadline)
        if not result["errors"]:
            result = call_worker("rep", [*common, "--out", f"{tmp}/out"], deadline)
    return result.get("digests", {}), result["errors"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    args = parser.parse_args()

    failed = False
    for name in list(WORKLOADS) if args.workload == "all" else [args.workload]:
        digests, errors = workload_digests(name, args.seed, args.scale)
        for path, digest in sorted(digests.items()):
            print(f"{name} {path} {digest[:16]}", flush=True)
        for error in errors:
            print(f"{name}: {error}", file=sys.stderr)
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
