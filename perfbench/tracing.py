"""Spans around the public functions of the ``hicu`` package, recorded from outside.

The program is not edited.  ``Tracer.install`` replaces each traced function
with a recording wrapper wherever the name is looked up: in the module that
defines it and in every ``hicu`` module that imported it by name (``curriculum``
imports ``forward``, ``backward`` and friends; ``cli`` and ``curriculum`` import
``write_container``; ``network.forward`` finds ``decode`` in its own globals).
Spans stay in memory until ``write_spans`` is called once the run ends.

This module imports neither numpy nor ``hicu``, so the orchestrator and the
tests can use the span arithmetic on their own.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("data", "icd", "poincare", "network", "losses", "curriculum",
           "metrics", "checkpoint", "cli")

# Methods traced besides module-level functions: the curriculum loop and the
# level-target expansion are methods, not functions.
METHODS = {
    "icd": {"AugmentedLabelTree": ("ancestor_targets",)},
    "curriculum": {"Trainer": ("run", "step_epoch", "save")},
}

# The Riemannian SGD inner loop calls these once per edge and per negative
# sample (about 35 calls per edge update).  As spans they would cost more
# than the work they time; their time stays in ``poincare.train_poincare``.
SKIP = frozenset({
    "poincare.poincare_distance", "poincare.poincare_distance_grad",
    "poincare.riemannian_scale", "poincare.project_to_ball",
    "poincare.edge_loss_and_grads",
})

# Several functions report under one layer name.
ALIASES = {"losses.bce": "losses.loss", "losses.asl": "losses.loss"}

MIB = float(2 ** 20)


def _batch(shape):
    """(B, N, d) of a (N, d) or (B, N, d) activation shape."""
    return (1, *shape) if len(shape) == 2 else tuple(shape)


def _count_forward(counts, maxima, args, kwargs):
    x = args[0]
    counts["network.forward.docs"] += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _count_decode(counts, maxima, args, kwargs):
    B, N, d_f = _batch(args[0].shape)
    L = args[1].Q.shape[1]
    counts["network.decode.gflop"] += 4.0 * B * N * d_f * L / 1e9
    attn = 8.0 * B * N * L / MIB
    maxima["network.decode.peak_attn_mb"] = max(maxima.get("network.decode.peak_attn_mb", 0.0), attn)


def _count_backward(counts, maxima, args, kwargs):
    B, N, d_f = args[0].H.shape
    L = args[2].Q.shape[1]
    counts["network.backward.gflop"] += 8.0 * B * N * d_f * L / 1e9


def _count_score(counts, maxima, args, kwargs):
    docs = args[3] if len(args) > 3 else kwargs["docs"]
    counts["curriculum.score_dataset.docs"] += len(docs)


def _count_poincare(counts, maxima, args, kwargs):
    tree, cfg = args[0], args[1]
    counts["poincare.edge_updates"] += cfg.epochs * len(tree.core_graph()[1])


def _count_write(counts, maxima, args, kwargs):
    arrays = args[2] if len(args) > 2 else kwargs["arrays"]
    counts["checkpoint.write_container.mb"] += sum(8 * a.size for a in arrays.values()) / MIB


# Work counts computed from argument shapes before each call; they repeat
# exactly between runs of one input, unlike times.
COUNTERS = {
    "network.forward": _count_forward,
    "network.decode": _count_decode,
    "network.backward": _count_backward,
    "curriculum.score_dataset": _count_score,
    "poincare.train_poincare": _count_poincare,
    "checkpoint.write_container": _count_write,
}


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, parent_index, start, end]`` with ``perf_counter``
    seconds; ``parent_index`` is -1 for a root.  Calls are assumed to come
    from one thread, which holds for ``hicu`` (``workers`` is unused).
    """

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, self.maxima, args, kwargs)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, full: bool = True) -> None:
        """Wrap every public function and the listed methods of the package.

        With ``full=False`` only ``Trainer.run`` is wrapped: the untraced
        runs need its start and end to split set-up from training.
        """
        wrappers = {}
        if full:
            for short in MODULES:
                mod = sys.modules[f"hicu.{short}"]
                for attr, obj in vars(mod).items():
                    name = f"{short}.{attr}"
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not attr.startswith("_") and name not in SKIP):
                        wrappers[obj] = self.wrap(ALIASES.get(name, name), obj)
            for mod in [m for n, m in sys.modules.items() if n == "hicu" or n.startswith("hicu.")]:
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(mod, attr, wrappers[obj])
        methods = METHODS if full else {"curriculum": {"Trainer": ("run",)}}
        for short, classes in methods.items():
            mod = sys.modules[f"hicu.{short}"]
            for cls_name, names in classes.items():
                cls = getattr(mod, cls_name)
                for attr in names:
                    self._set(cls, attr, self.wrap(f"{short}.{attr}", vars(cls)[attr]))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON line per span, preceded by a header naming the trace."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"trace_id": self.trace_id, "fields":
                                 ["id", "name", "parent", "start", "end"]}) + "\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, name, parent, start, end]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, float]:
    """``<name>.s`` (summed self time) and ``<name>.calls`` for every span name,
    plus ``network.forward.train_calls``: forward passes made by the training
    step itself rather than by validation scoring."""
    totals: dict[str, float] = defaultdict(float)
    for (name, parent, _, _), own in zip(spans, self_times(spans)):
        totals[f"{name}.s"] += own
        totals[f"{name}.calls"] += 1
        if name == "network.forward" and parent >= 0 and spans[parent][0] == "curriculum.step_epoch":
            totals["network.forward.train_calls"] += 1
    return dict(totals)
