"""Smoke test of ``scripts/``.

``seed_sweep.py`` imports ``run_pipeline`` from ``run_reference_experiment.py``
and ``environment`` from ``perfbench/worker.py``, so a change to either can
break the sweep while every library test passes.  The sweep runs in a
subprocess with ``scripts`` on its path, as it is run by hand; it puts
``perfbench`` on its own path.  ``slab_sweep.py`` runs at two tiny shapes,
and ``workload_digests.py`` on one workload at toy scale.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWEEP = """
import json, sys
from pathlib import Path
import seed_sweep
flat, records = seed_sweep.run_pipeline(Path(sys.argv[1]), 0, branching="2,2,2,2,2",
                                        docs="40,10,10", epochs_per_level="1,1,1,1,1")
print(json.dumps({"flat": flat, "records": records, "env": seed_sweep.sweep_environment()}))
"""


def test_seed_sweep_runs_a_tiny_pipeline(tmp_path):
    path = [str(ROOT / "src"), str(ROOT / "scripts"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-c", SWEEP, str(tmp_path / "run")], cwd=ROOT, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["flat"]["event"] == "metrics"
    events = [r["event"] for r in out["records"]]
    assert events == ["metrics"] + ["auc_bucket"] * 4
    env = out["env"]
    assert re.fullmatch(r"[0-9a-f]{64}", env["src_sha256"])
    assert env["git_sha"] is None or re.fullmatch(r"[0-9a-f]{40}", env["git_sha"])


def test_slab_sweep_prints_a_row_per_shape():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "slab_sweep.py"), "--shape", "4,9,3,4",
         "--shape", "1,5,2,4", "--kib", "0,1", "--reps", "1", "--steps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0].startswith("#") and lines[1].split()[-3:] == ["doc", "1", "KiB"]
    # a budget of 0 is one document per block; 1 KiB holds four 216-byte
    # (9, 3) slabs, and a lone document is a block of one at any budget
    rows = [line.split() for line in lines[2:]]
    assert [row[2:6] for row in rows] == [["4", "9", "3", "4"], ["1", "5", "2", "4"]]
    assert [row[7::2] for row in rows] == [["(1)", "(4)"], ["(1)", "(1)"]]
    assert all(float(ms) > 0 for row in rows for ms in row[6::2])


def test_workload_digests_prints_a_line_per_digest():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "workload_digests.py"), "--scale", "toy",
         "--workload", "reference"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
    rows = [line.split() for line in done.stdout.splitlines()]
    # the worker's digests: each run's checkpoint and report, and each eval's scores
    assert [row[:2] for row in rows] == [["reference", path] for path in (
        "flat-eval/scores.npy", "flat/checkpoint.bin", "flat/report.jsonl",
        "hicu-eval/scores.npy", "hicu/checkpoint.bin", "hicu/report.jsonl")]
    assert all(re.fullmatch(r"[0-9a-f]{16}", row[2]) for row in rows)
