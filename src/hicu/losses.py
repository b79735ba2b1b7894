"""Binary cross-entropy and asymmetric loss over sigmoid outputs.

Both losses consume raw logits and return analytic gradients with respect
to the logits; probabilities are clamped before any logarithm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLAMP_EPS = 1e-12  # probabilities are clipped to [CLAMP_EPS, 1 - CLAMP_EPS] before logs
LOSSES = ("bce", "asl")


@dataclass
class AslConfig:
    gamma_pos: float = 0.0
    gamma_neg: float = 1.0
    margin: float = 0.05

    def validate(self) -> None:
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ValueError("focusing exponents must be nonnegative")
        if not 0 <= self.margin < 1:
            raise ValueError("margin must lie in [0, 1)")


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def bce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed binary cross-entropy in log-sum-exp form; grad = sigma(x) - y."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError("logits and targets must have identical shapes")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    loss = float(np.sum(_softplus(logits) - targets * logits))
    grad = sigmoid(logits) - targets
    return loss, grad


def asl(
    logits: np.ndarray, targets: np.ndarray, cfg: AslConfig
) -> tuple[float, np.ndarray]:
    """Asymmetric loss with focusing exponents and probability margin.

    Positive term: (1-p)^gamma_pos * -log(p).  Negative term uses the
    shifted probability p_m = max(p - margin, 0); where p_m == 0 both the
    contribution and the gradient vanish.  The focusing factors are
    differentiated (full product rule).
    """
    cfg.validate()
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise ValueError("logits and targets must have identical shapes")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    eps = CLAMP_EPS
    gp, gn, m = cfg.gamma_pos, cfg.gamma_neg, cfg.margin

    p = sigmoid(logits)
    pc = np.clip(p, eps, 1.0 - eps)
    log_p = np.log(pc)
    one_minus = 1.0 - pc

    # positive term and d/dp
    pos_loss = -(one_minus**gp) * log_p
    pos_dp = -(one_minus**gp) / pc
    if gp > 0:
        pos_dp = pos_dp + gp * one_minus ** (gp - 1.0) * log_p

    # negative term through the shifted probability
    pm = np.maximum(pc - m, 0.0)
    log_1m = np.log(np.clip(1.0 - pm, eps, 1.0))
    neg_loss = -(pm**gn) * log_1m
    active = pc > m  # subgradient at the kink itself is defined as 0
    safe_pm = np.where(active, pm, 1.0)
    neg_dp = np.where(active, safe_pm**gn / np.clip(1.0 - pm, eps, 1.0), 0.0)
    if gn > 0:
        neg_dp = neg_dp + np.where(active, -gn * safe_pm ** (gn - 1.0) * log_1m, 0.0)

    loss = float(np.sum(targets * pos_loss + (1.0 - targets) * neg_loss))
    dp = targets * pos_dp + (1.0 - targets) * neg_dp
    grad = dp * p * (1.0 - p)
    return loss, grad
