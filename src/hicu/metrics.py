"""Macro/micro AUC, macro/micro F1 and Precision@K for multi-label output."""
from __future__ import annotations

import numpy as np


def per_label_auc(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mann-Whitney AUC of each column of a 2-D matrix, ties credited 0.5; NaN
    where a column lacks a class.  One class is sorted and each member of the
    other counts the sorted entries below it and those at or below it.  Counted
    by the positives that sums to twice the U statistic, exactly; counted by
    the negatives it is ``2·n_pos·n_neg`` minus that."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("score and label matrices must have identical shapes")
    if scores.ndim != 2:
        raise ValueError(f"expected a 2-D score matrix, got shape {scores.shape}")
    out = np.full(scores.shape[1], np.nan)
    for j, (col, pos) in enumerate(zip(scores.T, labels.T)):
        n_pos = int(np.count_nonzero(pos))
        pairs = n_pos * (len(col) - n_pos)
        if pairs:
            # the larger class is sorted: numpy sorts an entry several times
            # faster than searchsorted places one
            many_pos = 2 * n_pos > len(col)
            ref, keys = (col[pos], col[~pos]) if many_pos else (col[~pos], col[pos])
            ref.sort()
            count = np.searchsorted(ref, keys, "left").sum() + np.searchsorted(ref, keys, "right").sum()
            if many_pos:
                count = 2 * pairs - count
            out[j] = count / (2 * pairs)
    return out


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mann-Whitney AUC of the flattened inputs; None when one class is missing."""
    auc = per_label_auc(np.reshape(scores, (-1, 1)), np.reshape(labels, (-1, 1)))[0]
    return None if np.isnan(auc) else float(auc)


def macro_micro_f1(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Per-label mean F1 (0/0 := 0) and pooled-count F1 at threshold 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("score and label matrices must have identical shapes")
    preds = scores >= 0.5
    tp = (preds & labels).sum(axis=0).astype(np.float64)
    fp = (preds & ~labels).sum(axis=0).astype(np.float64)
    fn = (~preds & labels).sum(axis=0).astype(np.float64)
    denom = 2 * tp + fp + fn
    per_label = np.where(denom > 0, 2 * tp / np.where(denom > 0, denom, 1.0), 0.0)
    macro = float(per_label.mean())
    pooled = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = float(2 * tp.sum() / pooled) if pooled > 0 else 0.0
    return macro, micro


def check_p_at(ks: tuple[int, ...]) -> None:
    """Reject precision@k cutoffs below 1."""
    if any(k < 1 for k in ks):
        raise ValueError(f"p_at entries must be >= 1, got {list(ks)}")


P_AT_ROWS = 64  # documents sorted at a time by precision_at_k


def precision_at_k(scores: np.ndarray, labels: np.ndarray, k: int | list[int]) -> float | list[float]:
    """Mean fraction of true labels among each document's top-k scores.

    ``k`` is one cutoff, giving a float, or a sequence of them, giving a list
    from one row-wise sort.  Ties are broken by ascending label index.  Rows
    are sorted ``P_AT_ROWS`` at a time.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("score and label matrices must have identical shapes")
    n_docs, n_labels = scores.shape
    if n_docs == 0:
        raise ValueError("precision@k needs at least one document")
    ks = [int(c) for c in np.atleast_1d(k)]
    for c in ks:
        if not 1 <= c <= n_labels:
            raise ValueError(f"k={c} out of range 1..{n_labels}")
    totals = np.zeros(len(ks))
    for lo in range(0, n_docs, P_AT_ROWS):
        rows = slice(lo, lo + P_AT_ROWS)
        top = np.argsort(-scores[rows], axis=1, kind="stable")[:, : max(ks)]
        hits = np.cumsum(np.take_along_axis(labels[rows], top, axis=1), axis=1)  # hits among the top 1, 2, ...
        for i, c in enumerate(ks):
            # each cutoff sums its per-document fractions in document order,
            # not pairwise, starting each block from the sum so far
            fractions = hits[:, c - 1] / c
            fractions[0] += totals[i]
            totals[i] = np.cumsum(fractions)[-1]
    out = [float(total / n_docs) for total in totals]
    return out if np.ndim(k) else out[0]


def evaluate(
    scores: np.ndarray, labels: np.ndarray, ks: tuple[int, ...] = (5, 8, 15)
) -> tuple[dict, np.ndarray]:
    """AUCs, F1s and ``p_at_<k>`` for every k up to the label count, as one flat
    record, and the per-label AUCs the macro AUC averages.  When no label has
    both classes the AUCs are None and every label counts as skipped."""
    macro_f1, micro_f1 = macro_micro_f1(scores, labels)  # raises on a shape mismatch
    n_labels = np.shape(scores)[1]
    per_label = per_label_auc(scores, labels)
    defined = per_label[~np.isnan(per_label)]
    macro_auc = micro_auc = None
    if len(defined):  # a label with both classes puts both in the flattened labels too
        macro_auc, micro_auc = float(np.mean(defined)), auc_binary(scores, labels)
    out = {
        "macro_auc": macro_auc,
        "micro_auc": micro_auc,
        "macro_f1": macro_f1,
        "micro_f1": micro_f1,
        "skipped_labels": n_labels - len(defined),
    }
    ks = [k for k in sorted(set(ks)) if k <= n_labels]
    if ks:
        out.update((f"p_at_{k}", p) for k, p in zip(ks, precision_at_k(scores, labels, ks)))
    return out, per_label
