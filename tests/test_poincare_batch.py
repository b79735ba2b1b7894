"""The mini-batched Riemannian SGD of ``train_poincare``: its batch kernel
against a loop-based per-edge reference, its negative sampler, degenerate
trees and the reconstruction quality of the trained embedding."""
from collections import defaultdict

import numpy as np
import pytest

from hicu.icd import LabelTree, Node
from hicu.poincare import (
    BALL_EPS,
    EmbedConfig,
    mean_edge_distance,
    poincare_distance,
    project_to_ball,
    riemannian_scale,
    train_poincare,
    _batch_loss_and_grads,
    _distance_and_grads,
    _NegativeSampler,
    _rsgd_step,
)

from test_poincare import _toy_tree


def _points(n, d, seed, radius=0.4):
    return np.random.default_rng(seed).uniform(-radius, radius, size=(n, d))


def _adjacency(tree):
    nodes, edges = tree.core_graph()
    adjacent = [{i} for i in range(len(nodes))]
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    return len(nodes), edges, adjacent


def _star_tree(children):
    root = Node(0, "<root>")
    return LabelTree({Node(1, f"c{i}"): root for i in range(children)}, k_max=1)


def _reference_edge(vectors, u, v, negatives):
    """The softmax loss of one edge and its Euclidean gradients, one
    candidate at a time: loss = d(u,v) + log sum_c exp(-d(u,c)), or d(u,v)
    alone when there are no negatives."""
    cands = [v, *negatives]
    dists = np.array([poincare_distance(vectors[u], vectors[c]) for c in cands])
    if negatives:
        probs = np.exp(-dists) / np.sum(np.exp(-dists))
        loss = -np.log(probs[0])
        coeffs = -probs
        coeffs[0] += 1.0
    else:
        loss, coeffs = dists[0], [1.0]
    grads = defaultdict(lambda: np.zeros(vectors.shape[1]))
    for c, coeff in zip(cands, coeffs):
        du, dc = _distance_and_grads(vectors[u], vectors[c])[1:]
        grads[u] += coeff * du
        grads[c] += coeff * dc
    return loss, dict(grads)


class TestBatchKernel:
    # Rows share nodes (0 is u twice and a candidate elsewhere; 2 and 5
    # recur), a row repeats a negative, one row has no negatives and one has
    # its last two candidates masked out.
    U = np.array([0, 1, 0, 3, 4, 7])
    CANDS = np.array([
        [1, 2, 2, 5],
        [2, 0, 5, 5],
        [3, 4, 6, 2],
        [6, 6, 6, 6],
        [5, 1, 0, 7],
        [6, 2, 6, 6],
    ])
    MASK = np.array([
        [True, True, True, True],
        [True, True, True, True],
        [True, True, True, True],
        [True, False, False, False],
        [True, True, True, True],
        [True, True, False, False],
    ])

    def _per_edge(self, vectors):
        losses, total = [], np.zeros_like(vectors)
        for u, row, keep in zip(self.U, self.CANDS, self.MASK):
            loss, grads = _reference_edge(vectors, int(u), int(row[0]), row[keep][1:].tolist())
            losses.append(loss)
            for idx, grad in grads.items():
                total[idx] += grad
        return np.array(losses), total

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_summed_gradients_match_per_edge_reference(self, seed):
        vectors = _points(8, 5, seed)
        losses, touched, grads = _batch_loss_and_grads(vectors, self.U, self.CANDS, self.MASK)
        expect_losses, expect = self._per_edge(vectors)
        np.testing.assert_allclose(losses, expect_losses, rtol=1e-12, atol=0)
        assert touched.tolist() == sorted(set(self.U) | set(self.CANDS.ravel()))
        np.testing.assert_allclose(grads, expect[touched], rtol=1e-12, atol=0)
        untouched = np.setdiff1d(np.arange(8), touched)
        assert not np.any(expect[untouched])

    @pytest.mark.parametrize("negatives", [[], [3], [2, 5, 5, 7]])
    def test_one_edge_case_matches_reference(self, negatives):
        vectors = _points(8, 5, 3)
        cands = np.array([[1, *negatives]])
        losses, touched, grads = _batch_loss_and_grads(
            vectors, np.array([0]), cands, np.ones(cands.shape, dtype=bool))
        expect_loss, expect = _reference_edge(vectors, 0, 1, negatives)
        assert losses[0] == pytest.approx(expect_loss, rel=1e-12)
        assert set(touched.tolist()) == expect.keys()
        for idx, grad in zip(touched, grads):
            np.testing.assert_allclose(grad, expect[idx], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("lr", [0.3, 40.0])
    def test_disjoint_batch_step_equals_sequential_edge_steps(self, lr):
        # lr 40 throws some rows past the ball, so the projection is exercised
        vectors = _points(16, 4, 4, radius=0.45)
        u = np.array([0, 4, 8, 12])
        cands = np.array([[1, 2, 3], [5, 6, 7], [9, 10, 11], [13, 14, 15]])
        batched = vectors.copy()
        _rsgd_step(batched, u, cands, np.ones(cands.shape, dtype=bool), lr)

        sequential = vectors.copy()
        for a, row in zip(u, cands):
            _, grads = _reference_edge(sequential, int(a), int(row[0]), row[1:].tolist())
            for idx, grad in grads.items():
                step = riemannian_scale(grad, sequential[idx])
                sequential[idx] = project_to_ball(sequential[idx] - lr * step, BALL_EPS)
        np.testing.assert_allclose(batched, sequential, rtol=1e-12, atol=0)
        if lr > 1:
            norms = np.linalg.norm(batched, axis=1)
            assert np.isclose(norms, 1 - BALL_EPS, rtol=1e-12).any()


class TestNegativeSampler:
    @pytest.mark.parametrize("which", ["toy", "synthetic"])
    def test_negatives_are_distinct_non_neighbours(self, which, small_corpus):
        tree = _toy_tree() if which == "toy" else small_corpus.tree
        n, edges, adjacent = _adjacency(tree)
        sampler = _NegativeSampler(n, edges)
        u = np.repeat(np.arange(n), 3)
        v = np.full_like(u, n)  # no node; only the first column and masked slots may hold it
        seen = [set() for _ in range(n)]
        for seed in range(40):
            cands, mask = sampler.candidates(np.random.default_rng(seed), u, v, 10)
            assert np.all(cands[:, 0] == n) and np.all(mask[:, 0])
            assert np.all(cands[~mask] == n)
            for node, row, keep in zip(u, cands, mask):
                pool = n - len(adjacent[node])
                assert sampler.pool_size[node] == pool
                negatives = row[keep][1:].tolist()
                assert len(negatives) == len(set(negatives)) == min(10, pool)
                assert not set(negatives) & adjacent[node]
                assert all(0 <= c < n for c in negatives)
                seen[node].update(negatives)
        # 120 rows per node reach every non-neighbour of these small trees
        for node in range(n):
            assert seen[node] == set(range(n)) - adjacent[node]

    def test_every_non_neighbour_is_drawn_equally_often(self, small_corpus):
        n, edges, adjacent = _adjacency(small_corpus.tree)
        node = 0
        pool = sorted(set(range(n)) - adjacent[node])
        rows, k = 4000, 10
        assert len(pool) > 2 * k
        cands, _ = _NegativeSampler(n, edges).candidates(
            np.random.default_rng(0), np.full(rows, node), np.full(rows, node), k)
        counts = np.bincount(cands[:, 1:].ravel(), minlength=n)[pool]
        p = k / len(pool)
        sigma = np.sqrt(rows * p * (1 - p))
        assert np.all(np.abs(counts - rows * p) < 5 * sigma)

    def test_empty_pool_rows_are_masked(self):
        n, edges, _ = _adjacency(_star_tree(7))
        cands, mask = _NegativeSampler(n, edges).candidates(
            np.random.default_rng(0), np.array([0, 1]), np.array([1, 0]), 3)
        assert mask.tolist() == [[True, False, False, False], [True, True, True, True]]
        assert cands[0].tolist() == [1, 1, 1, 1]


class TestDegenerateTrees:
    # test_poincare.py's test_two_node_tree_edge_contracts covers the 2-node tree
    def test_star_tree_stays_contracted_at_default_settings(self):
        # The centre of a star has no non-neighbours, so its edges keep the
        # plain distance. Summed over the batch at one point they overshoot
        # and drift apart (mean edge distance 6.4 after 300 epochs); one at a
        # time, as in per-edge SGD, they stay within about one step.
        tree = _star_tree(7)
        cfg = EmbedConfig()
        emb = train_poincare(tree, cfg)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.all(np.isfinite(emb.vectors)) and np.all(norms <= 1 - BALL_EPS + 1e-12)
        assert mean_edge_distance(emb, tree) < 2 * cfg.learning_rate


def _mean_rank(vectors, edges, adjacent):
    """Nickel & Kiela's reconstruction metric: for each edge, in both
    directions, the rank of the true neighbour's distance among the node's
    non-neighbours (1 = closer than all of them), averaged."""
    sq = np.sum(vectors**2, axis=1)
    diff = np.sum((vectors[:, None] - vectors[None]) ** 2, axis=-1)
    dist = np.arccosh(1 + 2 * diff / np.outer(1 - sq, 1 - sq))
    ranks = []
    for a, b in edges:
        for u, v in ((a, b), (b, a)):
            others = [j for j in range(len(vectors)) if j not in adjacent[u]]
            ranks.append(1 + np.sum(dist[u, others] < dist[u, v]))
    return float(np.mean(ranks))


def test_reconstruction_mean_rank_no_worse_than_per_edge_sgd(small_corpus):
    # The per-edge SGD this trainer replaced scored 1.838710, 1.750000,
    # 1.766129, 1.653226 and 2.177419 on seeds 0-4 (mean 1.837097), with
    # this function and these settings, at commit ba3d87c.
    n, edges, adjacent = _adjacency(small_corpus.tree)
    ranks = [
        _mean_rank(train_poincare(small_corpus.tree, EmbedConfig(
            d_h=10, epochs=30, burn_in_epochs=5, seed=seed)).vectors, edges, adjacent)
        for seed in range(5)
    ]
    assert np.mean(ranks) <= 1.837097
