"""Poincare-ball embeddings of label tree nodes.

Embeddings live in the open unit ball and are trained with Riemannian SGD
on a negative-sampling softmax objective over tree edges.  Padding copies
in the augmented tree share the vector of their source node, so training
runs on the contracted (un-padded) tree.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .icd import AugmentedLabelTree, CodeError, LabelTree, Node

BALL_EPS = 1e-5  # trained points keep norm <= 1 - BALL_EPS
BURN_IN_LR_SCALE = 0.1  # learning-rate factor for the burn-in epochs


@dataclass
class EmbedConfig:
    d_h: int = 50
    learning_rate: float = 0.3
    epochs: int = 300
    burn_in_epochs: int = 20
    negatives_per_positive: int = 10
    seed: int = 0

    def validate(self) -> None:
        if self.d_h < 2:
            raise ValueError("d_h must be >= 2")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.epochs <= 0 or self.burn_in_epochs < 0:
            raise ValueError("epochs must be positive, burn_in_epochs nonnegative")
        if self.burn_in_epochs > self.epochs:
            raise ValueError("burn_in_epochs must not exceed epochs")
        if self.negatives_per_positive <= 0:
            raise ValueError("negatives_per_positive must be positive")


def poincare_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Hyperbolic distance arcosh(1 + 2|u-v|^2 / ((1-|u|^2)(1-|v|^2)))."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = u @ u
    nv = v @ v
    if nu >= 1.0 or nv >= 1.0:
        raise ValueError("poincare_distance arguments must lie inside the unit ball")
    diff = u - v
    gamma = 1.0 + 2.0 * (diff @ diff) / ((1.0 - nu) * (1.0 - nv))
    return float(np.arccosh(gamma))


def poincare_distance_grad(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of the distance with respect to both endpoints."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    alpha = 1.0 - u @ u
    beta = 1.0 - v @ v
    diff = u - v
    sq = diff @ diff
    gamma = 1.0 + 2.0 * sq / (alpha * beta)
    denom = np.sqrt(max(gamma * gamma - 1.0, 1e-30))
    du = (4.0 / (beta * denom)) * (diff / alpha + sq * u / alpha**2)
    dv = (4.0 / (alpha * denom)) * (-diff / beta + sq * v / beta**2)
    return du, dv


def riemannian_scale(euclid_grad: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rescale a Euclidean gradient by the inverse Poincare metric at theta."""
    factor = (1.0 - theta @ theta) ** 2 / 4.0
    return euclid_grad * factor


def project_to_ball(theta: np.ndarray, ball_eps: float) -> np.ndarray:
    """Retract a point to norm at most 1 - ball_eps."""
    if not 0 < ball_eps < 1:
        raise ValueError("ball_eps must lie in (0, 1)")
    norm = np.linalg.norm(theta)
    limit = 1.0 - ball_eps
    if norm >= limit:
        return theta * (limit / norm)
    return theta


def edge_loss_and_grads(
    vectors: np.ndarray, u: int, v: int, negatives: list[int]
) -> tuple[float, dict[int, np.ndarray]]:
    """Negative-sampling softmax loss for one edge and its Euclidean grads.

    loss = -log( exp(-d(u,v)) / sum_{c in {v} + negatives} exp(-d(u,c)) ).
    With no negatives available the loss degrades to the plain distance so
    the edge is still attractive.
    """
    cands = [v] + list(negatives)
    dists = np.array([poincare_distance(vectors[u], vectors[c]) for c in cands])
    grads: dict[int, np.ndarray] = {u: np.zeros_like(vectors[u])}
    if not negatives:
        du, dv = poincare_distance_grad(vectors[u], vectors[v])
        grads[u] += du
        grads[v] = grads.get(v, np.zeros_like(vectors[v])) + dv
        return float(dists[0]), grads
    shifted = -dists - np.max(-dists)
    lse = np.log(np.sum(np.exp(shifted))) + np.max(-dists)
    loss = dists[0] + lse
    probs = np.exp(-dists - lse)
    coeffs = -probs
    coeffs[0] += 1.0
    for c, coef in zip(cands, coeffs):
        du, dc = poincare_distance_grad(vectors[u], vectors[c])
        grads[u] += coef * du
        grads[c] = grads.get(c, np.zeros_like(vectors[u])) + coef * dc
    return float(loss), grads


@dataclass
class PoincareEmbedding:
    """One unit-ball vector per contracted tree node."""

    nodes: list[Node]
    vectors: np.ndarray  # (n_nodes, d_h)
    _index: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self._index = {node: i for i, node in enumerate(self.nodes)}

    @property
    def d_h(self) -> int:
        return self.vectors.shape[1]

    def vector(self, node: Node) -> np.ndarray:
        if node not in self._index:
            raise KeyError(f"node {node} has no embedding")
        return self.vectors[self._index[node]]

    def save(self, path) -> None:
        """Text format: header 'n_nodes d_h', then 'level:label v1 ... v_dh'."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(self.nodes)} {self.d_h}\n")
            for node, row in zip(self.nodes, self.vectors):
                coords = " ".join(repr(float(x)) for x in row)
                fh.write(f"{node.level}:{node.label} {coords}\n")

    @classmethod
    def load(cls, path) -> "PoincareEmbedding":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError(f"{path}: malformed embedding header")
            n, d_h = int(header[0]), int(header[1])
            nodes, rows = [], []
            for line in fh:
                parts = line.rstrip("\n").split(" ")
                if len(parts) != d_h + 1:
                    raise ValueError(f"{path}: malformed embedding row {parts[0]!r}")
                level, _, label = parts[0].partition(":")
                nodes.append(Node(int(level), label))
                rows.append([float(x) for x in parts[1:]])
        if len(nodes) != n:
            raise ValueError(f"{path}: expected {n} rows, found {len(nodes)}")
        return cls(nodes=nodes, vectors=np.array(rows, dtype=np.float64))


def _exclusion_offsets(n: int, edges) -> list[np.ndarray]:
    """Per node, its sorted excluded ids (itself and its neighbours) minus
    their rank; ``_non_neighbours`` maps pool indices through them."""
    excluded = [{i} for i in range(n)]
    for a, b in edges:
        excluded[a].add(b)
        excluded[b].add(a)
    return [np.array(sorted(ex), dtype=np.int64) - np.arange(len(ex)) for ex in excluded]


def _non_neighbours(offsets: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Ids of the idx-th non-neighbours of a node in ascending id order: each
    excluded id at or below the answer shifts it up by one."""
    return idx + np.searchsorted(offsets, idx, side="right")


def train_poincare(tree: LabelTree, cfg: EmbedConfig) -> PoincareEmbedding:
    """Train embeddings for all contracted nodes of a label tree."""
    cfg.validate()
    nodes, edges = tree.core_graph()
    n = len(nodes)
    if n < 2:
        raise ValueError("tree must have at least 2 nodes")
    offsets = _exclusion_offsets(n, edges)
    rng = np.random.default_rng(cfg.seed)
    vectors = rng.uniform(-0.001, 0.001, size=(n, cfg.d_h))
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate
        if epoch < cfg.burn_in_epochs:
            lr *= BURN_IN_LR_SCALE
        for edge_idx in rng.permutation(len(edges)):
            u, v = edges[edge_idx]
            pool_size = n - len(offsets[u])
            if pool_size:
                k = min(cfg.negatives_per_positive, pool_size)
                draws = rng.choice(pool_size, size=k, replace=False)
                negs = list(_non_neighbours(offsets[u], draws))
            else:
                negs = []
            _, grads = edge_loss_and_grads(vectors, u, v, negs)
            for idx, grad in grads.items():
                step = riemannian_scale(grad, vectors[idx])
                vectors[idx] = project_to_ball(vectors[idx] - lr * step, BALL_EPS)
    return PoincareEmbedding(nodes=nodes, vectors=vectors)


def mean_edge_distance(emb: PoincareEmbedding, tree: LabelTree) -> float:
    nodes, edges = tree.core_graph()
    dists = [poincare_distance(emb.vectors[a], emb.vectors[b]) for a, b in edges]
    return float(np.mean(dists))


def embedding_for_level(
    emb: PoincareEmbedding, tree: AugmentedLabelTree, k: int
) -> np.ndarray:
    """Rows of embeddings for level-k labels, in level_labels order.

    Padded copies map back to their original (contracted) node.
    """
    labels = tree.level_labels(k)
    rows = np.empty((len(labels), emb.d_h), dtype=np.float64)
    for i, label in enumerate(labels):
        node = tree.original(Node(k, label))
        try:
            rows[i] = emb.vector(node)
        except KeyError as exc:
            raise CodeError(f"label {label!r} at level {k} has no embedding") from exc
    return rows
