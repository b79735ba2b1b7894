"""Benchmark of the ``hicu`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Run from the root of a source tree; the program is imported from ``src/``.
The run generates its inputs from ``--seed`` once, then repeats the
workload's ``hicu`` commands, each repetition in a fresh worker process,
until ``--seconds`` have passed (at least three times) and reports medians.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` repetitions
alternate traced and untraced and the object holds every per-layer metric.
Any failed command or output check makes the exit code nonzero.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, toy  # noqa: E402

# One BLAS thread per worker.  Warm repeats of a shortened reference train
# spread 8.4-9.4 s over 8 runs with 1 thread and 7.9-10.1 s over 5 runs with
# 2 threads on a 2-core machine; pinning costs about 8% on paper-wide.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a single-workload run must end within 180 s
WORK_DIR = os.path.join(ROOT, ".bench_work")

# Per-layer metrics that describe the whole workload rather than a span;
# they come from the untraced repetitions of a traced run.
WORKLOAD_LEVEL = ("flat_train_s", "embed_s", "eval_docs_per_s", "hicu_test_micro_f1",
                  "flat_test_micro_f1", "rare_auc_delta")


def call_worker(step: str, args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process; its last stdout line is the result."""
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": os.path.join(ROOT, "src")}
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic()
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), step, *args],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the worker
        return {"attempted": 1, "errors": [f"{step}: no result within {timeout:.0f} s"],
                "wall_s": time.monotonic() - t0}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        result = {"attempted": 1, "errors": [f"{step}: exit {done.returncode}: {tail}"]}
    result["wall_s"] = time.monotonic() - t0
    return result


class Checks:
    """Counts the benchmark's own checks as attempted operations."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def __call__(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 spec: dict) -> tuple[dict, list[str]]:
    """Prepare inputs, repeat the workload, check and summarise it."""
    deadline = time.monotonic() + RUN_LIMIT_S
    w = WORKLOADS[name] if scale == "full" else toy(WORKLOADS[name])
    work = os.path.join(WORK_DIR, f"{name}-seed{seed}-{os.getpid()}")
    data = os.path.join(work, "data")
    spans = os.path.join(WORK_DIR, "traces", f"{name}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--scale", scale, "--data", data]
    try:
        prep = call_worker("prepare", [*common, "--trace", str(int(trace))], deadline)
        reps: list[dict] = []
        if not prep["errors"]:
            start = time.monotonic()
            while True:
                traced = trace and len(reps) % 2 == 0
                out = os.path.join(work, f"rep{len(reps)}")
                rep = call_worker("rep", [*common, "--trace", str(int(traced)), "--out", out,
                                          *(["--spans", spans] if traced else [])], deadline)
                rep["traced"] = traced
                reps.append(rep)
                shutil.rmtree(out, ignore_errors=True)
                now = time.monotonic()
                if rep["errors"] or now + rep["wall_s"] > deadline:
                    break
                if len(reps) >= MIN_REPS and now - start + rep["wall_s"] > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check = Checks()
    good = [r for r in reps if not r["errors"]]
    for r in good[1:]:
        check(r["digests"] == good[0]["digests"],
              "output digests differ between repetitions of one input")
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    if trace and traced:
        counts = traced[0]["counts"]
        for r in traced[1:]:
            check(r["counts"] == counts, "computed counts differ between traced repetitions")
        check(counts.get("network.forward.train_calls") == w.expected_train_forwards(),
              f"training forward calls {counts.get('network.forward.train_calls')} != "
              f"{w.expected_train_forwards()}")
        check((counts.get("poincare.edge_updates", 0) > 0) == (w.embed_epochs > 0),
              "poincare ran on a workload without embeddings, or not on one with them")
    check(len(good) == len(reps) and bool(reps), "a repetition failed")
    if trace:
        check(bool(traced) and bool(untraced), "no traced or no untraced repetition to compare")

    errors = prep["errors"] + [e for r in reps for e in r["errors"]] + check.errors
    attempted = prep["attempted"] + sum(r["attempted"] for r in reps) + check.attempted
    metrics, extra = {}, {}
    if good and not trace:
        for m in spec["end_to_end"]:
            value = median([r["metrics"][m["name"]] for r in good])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        # Shown, not reported: these sit in the per-layer list because they are
        # zero on the workloads that lack the step.
        extra = {k: median([r["metrics"][k] for r in good]) for k in WORKLOAD_LEVEL}
    elif traced and untraced:
        layers = {k: median([r["layers"].get(k, 0.0) for r in traced])
                  for k in set().union(*(r["layers"] for r in traced))}
        layers.update(traced[0]["counts"])
        # synth runs once, in the preparing process; its spans are kept apart
        # so that its calls into icd do not mix with the commands' own.
        layers["data.synth_generate.s"] = prep["layers"]["data.synth_generate.s"]
        for k in WORKLOAD_LEVEL:
            layers[k] = median([r["metrics"][k] for r in untraced])
        layers["trace_overhead_s"] = (median([r["metrics"]["total_s"] for r in traced])
                                      - median([r["metrics"]["total_s"] for r in untraced]))
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}

    lines = [f"# {name}: environment {json.dumps(prep.get('env', {}), sort_keys=True)}"]
    for i, r in enumerate(reps):
        kind = "traced" if r["traced"] else "untraced"
        shown = {k: round(v, 4) for k, v in r.get("metrics", {}).items()}
        lines.append(f"# {name}: rep {i} ({kind}, {r['wall_s']:.1f} s) {json.dumps(shown)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for k, m in metrics.items():
        lines.append(f"# {name}: {k} = {m['value']:.6g} {m['unit']}")
    for k, v in extra.items():
        lines.append(f"# {name}: {k} = {v:.6g} {units[k]} (per-layer list)")
    for e in errors:
        lines.append(f"# {name}: FAILED {e}")
    failed = len(errors)
    lines.append(f"# {name}: error_rate {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: a tiny corpus, for the benchmark's own smoke test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hicu", "__init__.py")):
        print(f"no hicu sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.scale, spec)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
