#!/usr/bin/env python3
"""Time one forward + backward step per block budget ``network.SLAB_BYTES``.

Decode and backward run a batch's documents in blocks of
k = SLAB_BYTES // (8*N*L) documents (at least 1, at most B).  This script
times one training step (``forward`` then ``backward``) at each level shape of
the benchmark's three workloads, for each budget given, and prints one row per
shape: the median milliseconds per step and, in brackets, the block size k.
A budget of 0 runs one document per block.  The repetitions are interleaved:
each one times every shape at every budget before the next starts, so drift
in the machine's speed spreads over all columns alike.  BLAS runs on one
thread, as in the ``hicu`` CLI and the benchmark.

Usage: PYTHONPATH=src python3 scripts/slab_sweep.py [--kib 0,64,128,256,512,1024]
           [--reps 7] [--steps 20] [--shape B,N,L,D ...]
"""
import argparse
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from hicu import network  # noqa: E402

# (batch, tokens, d_e = d_f, correction, label counts of levels 1-5) of each
# workload's training batches; reference and paper-wide count the labels of
# their seed-0 corpora.  ragged-hyperbolic trains one document per call, so
# its block is one document at any L; it takes the full 3-ary tree's counts
# and the mean, 144, of its lengths 32-256.
WORKLOADS = {
    "reference": (16, 64, 16, "none", (3, 9, 27, 81, 214)),
    "paper-wide": (16, 256, 32, "none", (5, 25, 122, 388, 556)),
    "ragged-hyperbolic": (1, 144, 16, "concat", (3, 9, 27, 81, 243)),
}


def step_model(B: int, N: int, L: int, d: int, mode: str = "none", seed: int = 0):
    """A random model, token batch and logit gradient at one shape."""
    rng = np.random.default_rng(seed)
    enc = network.init_encoder(rng, 500, d, d, 3)
    fc_w = fc_b = E_h = None
    if mode != "none":
        fc_w, fc_b = network.init_fc(rng, d, 16, mode)
        E_h = rng.uniform(-0.5, 0.5, size=(L, 16))
    dec = network.DecoderParams(Q=rng.normal(size=(d, L)) * 0.3, W=rng.normal(size=(d, L)) * 0.3,
                                b=np.zeros(L), mode=mode, fc_w=fc_w, fc_b=fc_b, E_h=E_h)
    x = rng.integers(0, 500, size=(B, N), dtype=np.int32)
    return enc, dec, x, rng.normal(size=(B, L)) * 0.1


def time_steps(model, steps: int) -> float:
    """Mean seconds of one forward + backward step over ``steps`` steps."""
    enc, dec, x, dlogits = model
    t0 = time.perf_counter()
    for _ in range(steps):
        _, trace = network.forward(x, enc, dec)
        network.backward(trace, enc, dec, dlogits)
    return (time.perf_counter() - t0) / steps


def sweep(shapes: list[tuple], budgets: list[int], reps: int, steps: int) -> list[list[tuple]]:
    """(median seconds per step, block size) of each (name, level, B, N, L,
    d, mode) shape at each budget in bytes, over ``reps`` interleaved
    repetitions."""
    models = [step_model(B, N, L, d, mode) for _, _, B, N, L, d, mode in shapes]
    times = [[[] for _ in budgets] for _ in shapes]
    kept = network.SLAB_BYTES
    try:
        for _ in range(reps):
            for model, row in zip(models, times):
                for budget, cell in zip(budgets, row):
                    network.SLAB_BYTES = budget
                    cell.append(time_steps(model, steps))
        cells = []
        for (_, _, B, N, L, _, _), row in zip(shapes, times):
            cells.append([])
            for budget, cell in zip(budgets, row):
                network.SLAB_BYTES = budget
                cells[-1].append((statistics.median(cell), network._block_size(B, N, L)))
    finally:
        network.SLAB_BYTES = kept
    return cells


def table(shapes: list[tuple], budgets: list[int], cells: list[list[tuple]]) -> list[str]:
    """The sweep as text: one row per shape, ms per step and (k) per budget."""
    head = f"{'workload':<18} {'level':>5} {'B':>3} {'N':>4} {'L':>4} {'d':>3}"
    lines = [head + "".join(f"{f'{b // 2**10} KiB' if b else '1 doc':>16}" for b in budgets)]
    for (name, level, B, N, L, d, _), row in zip(shapes, cells):
        lines.append(f"{name:<18} {level:>5} {B:>3} {N:>4} {L:>4} {d:>3}"
                     + "".join(f"{f'{1e3 * t:.2f} ({k})':>16}" for t, k in row))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kib", default="0,64,128,256,512,1024",
                        help="comma-separated budgets in KiB; 0 is one document per block")
    parser.add_argument("--reps", type=int, default=7, help="interleaved repetitions")
    parser.add_argument("--steps", type=int, default=20, help="steps timed per repetition")
    parser.add_argument("--shape", action="append", default=[], metavar="B,N,L,D",
                        help="time this shape instead of the workloads'; may repeat")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.steps < 1:
        parser.error("--reps and --steps must be >= 1")
    budgets = [int(k) * 2**10 for k in args.kib.split(",")]
    if args.shape:
        shapes = [("shape", "-", *map(int, s.split(",")), "none") for s in args.shape]
    else:
        shapes = [(name, level, B, N, L, d, mode)
                  for name, (B, N, d, mode, labels) in WORKLOADS.items()
                  for level, L in enumerate(labels, start=1)]
    cells = sweep(shapes, budgets, args.reps, args.steps)
    print(f"# one forward + backward step in ms (k = documents per block), median of "
          f"{args.reps} interleaved repetitions of {args.steps} steps, {network._cores()} CPUs")
    print("\n".join(table(shapes, budgets, cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
