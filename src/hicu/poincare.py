"""Poincare-ball embeddings of label tree nodes.

Embeddings live in the open unit ball and are trained with mini-batched
Riemannian SGD on a negative-sampling softmax objective over tree edges
(Nickel & Kiela, 2017).  Each update takes EDGE_BATCH = 50 edges at once:
every edge draws distinct negatives from its first node's non-neighbours,
and every node the batch touches moves once, by its summed gradient at the
batch-start point.  Training is deterministic per seed.
Padding copies in the label tree share the vector of their source node,
so training runs on the contracted (un-padded) tree.

Before mini-batching, the trainer updated one edge at a time.  Embedding
files it wrote still load, but training again with the same seed gives
different vectors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .icd import CodeError, LabelTree, Node

BALL_EPS = 1e-5  # trained points keep norm <= 1 - BALL_EPS
BURN_IN_LR_SCALE = 0.1  # learning-rate factor for the burn-in epochs
EDGE_BATCH = 50  # edges per Riemannian SGD update


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


def _distance_and_grads(u: np.ndarray, v: np.ndarray):
    """Distances and their Euclidean gradients w.r.t. both endpoints, over
    the last axis of broadcast inputs."""
    alpha = 1.0 - np.einsum("...i,...i->...", u, u)
    beta = 1.0 - np.einsum("...i,...i->...", v, v)
    diff = u - v
    sq = np.einsum("...i,...i->...", diff, diff)
    gamma = 1.0 + 2.0 * sq / (alpha * beta)
    denom = np.sqrt(np.maximum(gamma * gamma - 1.0, 1e-30))
    alpha, beta = alpha[..., None], beta[..., None]
    sq, denom = sq[..., None], denom[..., None]
    du = (4.0 / (beta * denom)) * (diff / alpha + sq * u / alpha**2)
    dv = (4.0 / (alpha * denom)) * (-diff / beta + sq * v / beta**2)
    return np.arccosh(gamma), du, dv


def poincare_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Hyperbolic distance arcosh(1 + 2|u-v|^2 / ((1-|u|^2)(1-|v|^2)))."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u @ u >= 1.0 or v @ v >= 1.0:
        raise ValueError("poincare_distance arguments must lie inside the unit ball")
    return float(_distance_and_grads(u, v)[0])


def poincare_distance_grad(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean gradients of the distance with respect to both endpoints
    (broadcast over leading axes)."""
    _, du, dv = _distance_and_grads(np.asarray(u, dtype=np.float64),
                                    np.asarray(v, dtype=np.float64))
    return du, dv


def riemannian_scale(euclid_grad: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rescale a Euclidean gradient by the inverse Poincare metric at theta
    (each row of a batch at its own point)."""
    factor = (1.0 - np.einsum("...i,...i->...", theta, theta)) ** 2 / 4.0
    return euclid_grad * factor[..., None]


def project_to_ball(theta: np.ndarray, ball_eps: float) -> np.ndarray:
    """Retract a point, or each row of a batch, to norm at most 1 - ball_eps."""
    if not 0 < ball_eps < 1:
        raise ValueError("ball_eps must lie in (0, 1)")
    norm = np.linalg.norm(theta, axis=-1, keepdims=True)
    limit = 1.0 - ball_eps
    return np.where(norm >= limit, theta * (limit / np.maximum(norm, limit)), theta)


def _batch_loss_and_grads(
    vectors: np.ndarray, u: np.ndarray, cands: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Losses of a batch of edges and the Euclidean gradient of their sum.

    Row i is the edge ``(u[i], cands[i, 0])`` with negatives
    ``cands[i, j]`` for each ``j >= 1`` where ``mask[i, j]``; unmasked
    candidates get coefficient 0.  A row without negatives takes the plain
    distance as its loss.  Returns the per-edge losses, the sorted ids of the
    touched nodes and one summed gradient row per touched node.
    """
    dists, du, dc = _distance_and_grads(vectors[u][:, None, :], vectors[cands])
    neg = np.where(mask, -dists, -np.inf)
    top = neg.max(axis=1, keepdims=True)
    weights = np.exp(neg - top)
    total = weights.sum(axis=1, keepdims=True)
    coeffs = -weights / total
    coeffs[:, 0] += 1.0
    losses = dists[:, 0] + np.log(total[:, 0]) + top[:, 0]
    plain = ~mask[:, 1:].any(axis=1)
    coeffs[plain, 0] = 1.0
    losses[plain] = dists[plain, 0]
    coeffs = coeffs[..., None]
    d_h = du.shape[-1]
    rows = np.concatenate([(coeffs * du).sum(axis=1), (coeffs * dc).reshape(-1, d_h)])
    touched, where = np.unique(np.concatenate([u, cands.ravel()]), return_inverse=True)
    # scatter-add by node, as one bincount over (node, column) slots; it sums
    # each slot in order of occurrence from 0.0, so it gives np.add.at's bits
    slots = (where.reshape(-1, 1) * d_h + np.arange(d_h)).ravel()
    grads = np.bincount(slots, weights=rows.ravel(), minlength=len(touched) * d_h)
    return losses, touched, grads.reshape(-1, d_h)


def edge_loss_and_grads(
    vectors: np.ndarray, u: int, v: int, negatives: list[int]
) -> tuple[float, dict[int, np.ndarray]]:
    """Negative-sampling softmax loss for one edge and its Euclidean grads.

    loss = -log( exp(-d(u,v)) / sum_{c in {v} + negatives} exp(-d(u,c)) ).
    With no negatives available the loss degrades to the plain distance so
    the edge is still attractive.  This is the one-edge case of the batch
    kernel that ``train_poincare`` runs.
    """
    cands = np.array([[v, *negatives]], dtype=np.int64)
    losses, touched, grads = _batch_loss_and_grads(
        vectors, np.array([u]), cands, np.ones(cands.shape, dtype=bool))
    return float(losses[0]), {int(i): g for i, g in zip(touched, grads)}


def _rsgd_step(vectors: np.ndarray, u: np.ndarray, cands: np.ndarray,
               mask: np.ndarray, lr: float) -> None:
    """One Riemannian SGD update of a batch of edges, in place: every touched
    row moves once, by its summed gradient taken at the batch-start point."""
    _, touched, grads = _batch_loss_and_grads(vectors, u, cands, mask)
    theta = vectors[touched]
    vectors[touched] = project_to_ball(theta - lr * riemannian_scale(grads, theta), BALL_EPS)


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


class _NegativeSampler:
    """Draws negatives without replacement among each node's non-neighbours.

    The per-node offsets are concatenated, node u's shifted by ``u * n`` so
    the whole array stays sorted; one ``_non_neighbours`` call then maps
    draws for any mix of nodes.
    """

    def __init__(self, n: int, edges) -> None:
        offsets = _exclusion_offsets(n, edges)
        sizes = np.array([len(o) for o in offsets], dtype=np.int64)
        self.n = n
        self.pool_size = n - sizes
        self.start = np.cumsum(sizes) - sizes
        self.flat = np.concatenate([o + u * n for u, o in enumerate(offsets)])

    def candidates(self, rng: np.random.Generator, u: np.ndarray, v: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
        """Candidate block ``[v, k negatives of u]`` of each edge ``(u, v)``
        and its mask.  Edge i gets ``min(k, pool_size[u[i]])`` distinct
        negatives in its first columns; the rest of its row holds ``v``,
        masked out."""
        pool = self.pool_size[u]
        take = np.minimum(pool, k)
        # Floyd's subset sampling, one column at a time for all rows: column i
        # draws t from [0, top]; if an earlier column holds t, it takes top.
        # floor(r * m) < m for every float r < 1 and integer m < 2**53.
        top = (pool - take)[:, None] + np.arange(k)
        t = (rng.random((len(u), k)) * (top + 1)).astype(np.int64)
        idx = t.copy()
        for i in range(1, k):
            taken = (idx[:, :i] == t[:, i, None]).any(axis=1)
            idx[taken, i] = top[taken, i]
        mask = np.arange(k) < take[:, None]
        shift = (u * self.n)[:, None]
        negs = _non_neighbours(self.flat, shift + idx) - shift - self.start[u][:, None]
        negs = np.where(mask, negs, v[:, None])
        return np.column_stack([v, negs]), np.column_stack([np.ones(len(u), dtype=bool), mask])


def train_poincare(tree: LabelTree, cfg: EmbedConfig) -> PoincareEmbedding:
    """Train embeddings for all contracted nodes of a label tree.

    Each epoch visits the edges in a seeded random order, EDGE_BATCH at a
    time; every edge ``(u, v)`` draws ``negatives_per_positive`` distinct
    negatives for ``u``, or all of them if ``u`` has fewer.  An edge whose
    ``u`` is adjacent to every other node (the centre of a star) keeps the
    plain-distance loss and is updated on its own, after the rest of its
    batch: that gradient does not shrink as the edge contracts, so summing
    all of a hub's edges at one point would overshoot.
    """
    cfg.validate()
    nodes, edges = tree.core_graph()
    n = len(nodes)
    if n < 2:
        raise ValueError("tree must have at least 2 nodes")
    edges = np.array(edges, dtype=np.int64)
    sampler = _NegativeSampler(n, edges)
    rng = np.random.default_rng(cfg.seed)
    vectors = rng.uniform(-0.001, 0.001, size=(n, cfg.d_h))
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate
        if epoch < cfg.burn_in_epochs:
            lr *= BURN_IN_LR_SCALE
        order = rng.permutation(len(edges))
        for lo in range(0, len(order), EDGE_BATCH):
            u, v = edges[order[lo : lo + EDGE_BATCH]].T
            cands, mask = sampler.candidates(rng, u, v, cfg.negatives_per_positive)
            plain = ~mask[:, 1]
            if not plain.any():
                _rsgd_step(vectors, u, cands, mask, lr)
                continue
            for rows in [~plain, *np.flatnonzero(plain)[:, None]]:
                _rsgd_step(vectors, u[rows], cands[rows], mask[rows], lr)
    return PoincareEmbedding(nodes=nodes, vectors=vectors)


def mean_edge_distance(emb: PoincareEmbedding, tree: LabelTree) -> float:
    nodes, edges = tree.core_graph()
    dists = [poincare_distance(emb.vectors[a], emb.vectors[b]) for a, b in edges]
    return float(np.mean(dists))


def embedding_for_level(emb: PoincareEmbedding, tree: LabelTree, k: int) -> np.ndarray:
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
