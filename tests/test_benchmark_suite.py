"""The benchmark's own tests, run from the repo root in a separate process.

The benchmark under ``perfbench/`` wraps library names (``auc_binary``, the
``AugmentedLabelTree`` alias, ``forward`` on a ``(1, N)`` batch), so a library
change can break it while every test under ``tests/`` passes.  Its tests run
in a subprocess because its ``conftest.py`` clashes with this suite's.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
