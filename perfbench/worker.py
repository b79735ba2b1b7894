"""One benchmark step, run by ``run.py`` in a fresh process.

    worker.py prepare --workload W --seed N --scale full|toy --trace 0|1 --data DIR
    worker.py rep     --workload W --seed N --scale full|toy --trace 0|1 --data DIR --out DIR

``prepare`` generates the workload's corpus with ``hicu synth`` (and cuts the
documents of a ragged workload) and records the environment.  ``rep`` runs
the workload's ``hicu`` commands once through ``hicu.cli.main``, times them,
checks their outputs and digests them.  Either prints one JSON object as its
last line of standard output.  BLAS threads are pinned by the parent through
the environment before numpy is imported here.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, steps, toy  # noqa: E402

try:
    from hicu import cli, network
except ImportError as exc:
    sys.exit(f"cannot import hicu from {ROOT}/src: {exc}")
if not os.path.realpath(cli.__file__).startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
    sys.exit(f"hicu was imported from {cli.__file__}, not from {ROOT}/src")

def run_command(argv: list[str]) -> tuple[int, str, float, float]:
    """Run one ``hicu`` command in-process: (exit code, stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    t1 = time.perf_counter()
    return rc, err.getvalue(), t0, t1


def command_error(label: str, rc: int, stderr: str) -> str | None:
    if rc != 0 or "HICU_ERROR" in stderr:
        lines = [ln for ln in stderr.splitlines() if ln.strip()]
        return f"{label}: exit {rc}: {lines[-1] if lines else 'no message'}"
    return None


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def environment() -> dict:
    """Where and on what a result was measured."""
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies across numpy versions
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    sha = None  # an exported source tree has no .git; src_sha256 identifies it
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            sha = done.stdout.strip() if done.returncode == 0 else None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hicu")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def cut_documents(data: str, seed: int, max_len: int) -> None:
    """Cut every document to a seeded uniform length in [32, max_len] tokens."""
    rng = random.Random(seed)
    for split in ("train", "valid", "test"):
        path = os.path.join(data, f"{split}.jsonl")
        records = read_jsonl(path)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                words = rec["text"].split()
                rec["text"] = " ".join(words[: rng.randint(32, max_len)])
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def warm_up() -> None:
    """Imports done, run one tiny forward so lazy set-up is not timed."""
    rng = np.random.default_rng(0)
    enc = network.init_encoder(rng, vocab_size=8, d_e=4, d_f=4, kernel_size=3)
    dec = network.DecoderParams(Q=rng.normal(size=(4, 3)), W=rng.normal(size=(4, 3)), b=np.zeros(3))
    network.forward(np.array([[2, 3, 4, 5]]), enc, dec)


def prepare(w, args, tracer) -> dict:
    argv = ["synth", "--out", args.data, "--branching", w.branching,
            "--docs", ",".join(map(str, w.docs)), "--doc-length", str(w.doc_length),
            "--zipf", str(w.zipf), "--seed", str(args.seed)]
    rc, stderr, _, _ = run_command(argv)
    error = command_error("synth", rc, stderr)
    if error is None and w.ragged:
        cut_documents(args.data, args.seed, w.doc_length)
    return {"attempted": 1, "errors": [error] if error else [], "env": environment()}


def rep(w, args, tracer) -> dict:
    out = args.out
    os.makedirs(out, exist_ok=True)
    attempted, errors, timings = 0, [], {}
    for label, argv in steps(w, args.data, out, args.seed):
        attempted += 1
        start_spans = len(tracer.spans)
        rc, stderr, t0, t1 = run_command(argv)
        error = command_error(label, rc, stderr)
        if error:
            errors.append(error)
            break
        timings[label] = {"s": t1 - t0}
        if label.startswith("train-"):
            run = next(s for s in tracer.spans[start_spans:] if s[0] == "curriculum.run")
            timings[label].update(setup_s=run[2] - t0, train_s=run[3] - run[2])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"attempted": attempted, "errors": errors}
    if errors:
        return result

    checks: list[tuple[bool, str]] = []
    n_test = count_lines(os.path.join(args.data, "test.jsonl"))
    digests, quality = {}, {}
    for mode in w.modes:
        levels = {r["level"] for r in read_jsonl(f"{out}/{mode}/report.jsonl") if r["event"] == "epoch"}
        want = {1, 2, 3, 4, 5} if mode == "hicu" else {5}
        checks.append((levels == want, f"{mode} report.jsonl covers levels {sorted(levels)}, "
                                       f"not {sorted(want)}"))
        with open(f"{out}/{mode}/checkpoint.bin", "rb") as fh:
            fh.readline()
            n_labels = len(json.loads(fh.readline())["codes"])
        scores = np.load(f"{out}/{mode}-eval/scores.npy")
        checks.append((scores.shape == (n_test, n_labels),
                       f"{mode} scores.npy has shape {scores.shape}, not {(n_test, n_labels)}"))
        checks.append((bool(np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))),
                       f"{mode} scores.npy is not finite in [0, 1]"))
        evals = read_jsonl(f"{out}/{mode}-eval/eval.jsonl")
        quality[f"{mode}_test_micro_f1"] = evals[0]["micro_f1"]
        quality[f"{mode}_test_micro_auc"] = evals[0]["micro_auc"]
        rare = [r for r in evals if r.get("event") == "auc_bucket" and r["bucket"] == 0]
        if rare:
            quality["rare_auc_delta"] = rare[0].get("mean_auc_delta", 0.0)
        for name in ("checkpoint.bin", "report.jsonl"):
            digests[f"{mode}/{name}"] = sha256(f"{out}/{mode}/{name}")
        digests[f"{mode}-eval/scores.npy"] = sha256(f"{out}/{mode}-eval/scores.npy")
    for metric, floor in w.floors.items():
        checks.append((quality[metric] >= floor,
                       f"{metric} {quality[metric]:.4f} is below the floor {floor}"))
    result["attempted"] += len(checks)
    errors.extend(message for ok, message in checks if not ok)

    trains = [t for label, t in timings.items() if label.startswith("train-")]
    metrics = {
        "setup_s": sum(t["setup_s"] for t in trains),
        "hicu_train_s": timings["train-hicu"]["train_s"],
        "total_s": sum(t["s"] for t in timings.values()),
        # the eval without --baseline, which also runs per-label AUCs
        "eval_docs_per_s": n_test / timings["eval-flat" if "flat" in w.modes else "eval-hicu"]["s"],
        "peak_rss_mb": peak_rss_mb,
        "hicu_test_micro_auc": quality["hicu_test_micro_auc"],
        "hicu_test_micro_f1": quality["hicu_test_micro_f1"],
        "flat_test_micro_f1": quality.get("flat_test_micro_f1", 0.0),
        "rare_auc_delta": quality.get("rare_auc_delta", 0.0),
        "flat_train_s": timings["train-flat"]["train_s"] if "train-flat" in timings else 0.0,
        "embed_s": timings["embed"]["s"] if "embed" in timings else 0.0,
    }
    result.update(digests=digests, metrics=metrics)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("prepare", "rep"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans", help="write the trace spans here when the step ends")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    if args.scale == "toy":
        w = toy(w)

    warm_up()
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    tracer.install(full=bool(args.trace))
    result = (prepare if args.step == "prepare" else rep)(w, args, tracer)
    tracer.uninstall()
    if args.trace:
        layers = tracing.layer_totals(tracer.spans)
        result["layers"] = layers
        result["counts"] = {**tracer.counts, **tracer.maxima,
                            **{k: v for k, v in layers.items() if k.endswith("calls")}}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
