"""Macro/micro AUC, macro/micro F1 and Precision@K for multi-label output."""
from __future__ import annotations

import numpy as np


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the group average."""
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    group_start = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    size = np.diff(group_start, append=len(scores))
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (2 * group_start + size - 1) + 1.0, size)
    return ranks


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Mann-Whitney AUC; ties credited 0.5.  None when one class is missing."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def macro_micro_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float, int]:
    """Per-label mean AUC (degenerate labels skipped) and flattened AUC.

    Returns (macro, micro, skipped_label_count).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("score and label matrices must have identical shapes")
    per_label = [auc_binary(scores[:, j], labels[:, j]) for j in range(scores.shape[1])]
    defined = [a for a in per_label if a is not None]
    skipped = len(per_label) - len(defined)
    if not defined:
        raise ValueError("macro AUC undefined: no label has both classes")
    micro = auc_binary(scores.ravel(), labels.ravel())
    if micro is None:
        raise ValueError("micro AUC undefined: labels are single-class overall")
    return float(np.mean(defined)), micro, skipped


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


def precision_at_k(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Mean fraction of true labels among each document's top-k scores.

    Ties are broken by ascending label index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape:
        raise ValueError("score and label matrices must have identical shapes")
    n_docs, n_labels = scores.shape
    if not 1 <= k <= n_labels:
        raise ValueError(f"k={k} out of range 1..{n_labels}")
    total = 0.0
    idx = np.arange(n_labels)
    for d in range(n_docs):
        order = np.lexsort((idx, -scores[d]))
        total += labels[d, order[:k]].sum() / k
    return total / n_docs


def evaluate(
    scores: np.ndarray, labels: np.ndarray, ks: tuple[int, ...] = (5, 8, 15)
) -> dict:
    """AUCs, F1s and ``p_at_<k>`` for every k up to the label count, as one flat
    record.  When no label has both classes the AUCs are None and every label
    counts as skipped."""
    macro_f1, micro_f1 = macro_micro_f1(scores, labels)  # raises on a shape mismatch
    n_labels = np.shape(scores)[1]
    try:
        macro_auc, micro_auc, skipped = macro_micro_auc(scores, labels)
    except ValueError:  # the shapes agree, so only an undefined AUC lands here
        macro_auc = micro_auc = None
        skipped = n_labels
    out = {
        "macro_auc": macro_auc,
        "micro_auc": micro_auc,
        "macro_f1": macro_f1,
        "micro_f1": micro_f1,
        "skipped_labels": skipped,
    }
    for k in sorted(set(ks)):
        if k <= n_labels:
            out[f"p_at_{k}"] = precision_at_k(scores, labels, k)
    return out
