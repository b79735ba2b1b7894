import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicu.icd import DIAGNOSIS, Node, RangeRow, RangeTable, build_label_tree, parse_code_auto
from hicu.poincare import (
    BALL_EPS,
    EmbedConfig,
    PoincareEmbedding,
    edge_loss_and_grads,
    embedding_for_level,
    mean_edge_distance,
    poincare_distance,
    poincare_distance_grad,
    project_to_ball,
    riemannian_scale,
    train_poincare,
    _exclusion_offsets,
    _non_neighbours,
)

from conftest import fd_gradient, rel_err


def _ball_point(draw_values):
    v = np.array(draw_values)
    n = np.linalg.norm(v)
    if n >= 0.95:
        v = v * (0.95 / n)
    return v


class TestDistance:
    def test_known_value(self):
        d = poincare_distance(np.zeros(2), np.array([0.5, 0.0]))
        assert abs(d - np.log(3.0)) < 1e-12

    def test_symmetry_and_identity(self):
        u = np.array([0.3, -0.2])
        v = np.array([-0.1, 0.6])
        assert poincare_distance(u, v) == pytest.approx(poincare_distance(v, u), abs=1e-15)
        assert poincare_distance(u, u) == 0.0

    def test_rejects_points_outside_ball(self):
        with pytest.raises(ValueError):
            poincare_distance(np.array([1.0, 0.0]), np.zeros(2))

    def test_grows_toward_boundary(self):
        origin = np.zeros(2)
        ds = [poincare_distance(origin, np.array([r, 0.0])) for r in (0.5, 0.9, 0.99)]
        assert ds[0] < ds[1] < ds[2]

    @given(
        st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3),
        st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3),
        st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        u, v, w = _ball_point(a), _ball_point(b), _ball_point(c)
        duv = poincare_distance(u, v)
        duw = poincare_distance(u, w)
        dwv = poincare_distance(w, v)
        assert duv <= duw + dwv + 1e-9


class TestDistanceGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(10):
            u = _ball_point(rng.uniform(-0.7, 0.7, size=4))
            v = _ball_point(rng.uniform(-0.7, 0.7, size=4))
            if np.linalg.norm(u - v) < 0.05:
                continue
            du, dv = poincare_distance_grad(u, v)
            fd_u = fd_gradient(lambda: poincare_distance(u, v), u, range(4))
            fd_v = fd_gradient(lambda: poincare_distance(u, v), v, range(4))
            for i in range(4):
                assert rel_err(du[i], fd_u[i]) < 1e-5
                assert rel_err(dv[i], fd_v[i]) < 1e-5
            checked += 1
        assert checked >= 8


class TestRiemannianUpdate:
    def test_scale_factor(self):
        theta = np.array([0.6, 0.0])
        grad = np.array([1.0, 2.0])
        scaled = riemannian_scale(grad, theta)
        assert np.allclose(scaled, grad * (1 - 0.36) ** 2 / 4)

    def test_projection_clamps_norm(self):
        eps = 1e-5
        out = project_to_ball(np.array([2.0, 0.0]), eps)
        assert np.linalg.norm(out) == pytest.approx(1 - eps, abs=1e-12)
        inside = np.array([0.1, 0.1])
        assert np.array_equal(project_to_ball(inside, eps), inside)


class TestEdgeLoss:
    def test_negative_sampling_softmax_value(self):
        rng = np.random.default_rng(1)
        vectors = rng.uniform(-0.3, 0.3, size=(5, 3))
        loss, _ = edge_loss_and_grads(vectors, 0, 1, [2, 3, 4])
        dists = [poincare_distance(vectors[0], vectors[c]) for c in (1, 2, 3, 4)]
        direct = -np.log(np.exp(-dists[0]) / np.sum(np.exp([-d for d in dists])))
        assert rel_err(loss, direct) < 1e-12

    def test_grads_match_finite_differences(self):
        rng = np.random.default_rng(2)
        vectors = rng.uniform(-0.4, 0.4, size=(6, 3))
        _, grads = edge_loss_and_grads(vectors, 0, 1, [2, 3])
        for idx, grad in grads.items():
            fd = fd_gradient(
                lambda: edge_loss_and_grads(vectors, 0, 1, [2, 3])[0],
                vectors[idx],
                range(3),
            )
            for i, g in fd.items():
                assert rel_err(grad[i], g) < 1e-5

    def test_no_negatives_degrades_to_distance(self):
        rng = np.random.default_rng(3)
        vectors = rng.uniform(-0.3, 0.3, size=(2, 3))
        loss, grads = edge_loss_and_grads(vectors, 0, 1, [])
        assert loss == pytest.approx(poincare_distance(vectors[0], vectors[1]), abs=1e-12)
        assert set(grads) == {0, 1}


def _toy_tree():
    rows = [
        RangeRow(DIAGNOSIS, "100", "199", "100", "109"),
        RangeRow(DIAGNOSIS, "200", "299", "200", "209"),
    ]
    codes = ["100.11", "100.12", "100.21", "200.11", "200.12", "200.21"]
    return build_label_tree([parse_code_auto(c) for c in codes], RangeTable(rows))


@pytest.fixture(scope="module")
def trained():
    tree = _toy_tree()
    cfg = EmbedConfig(d_h=10, epochs=120, burn_in_epochs=10, seed=0,
                      negatives_per_positive=5)
    return tree, train_poincare(tree, cfg)


class TestTraining:
    def test_vectors_inside_ball(self, trained):
        _, emb = trained
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.all(norms <= 1 - BALL_EPS + 1e-12)

    def test_two_node_tree_edge_contracts(self):
        parent = {Node(1, "a"): Node(0, "<root>")}
        from hicu.icd import LabelTree

        tree = LabelTree(parent, k_max=1)
        # plain-distance fallback: small steps so the pull is visible
        before = train_poincare(
            tree, EmbedConfig(d_h=5, epochs=1, burn_in_epochs=0, seed=0, learning_rate=1e-4)
        )
        after = train_poincare(
            tree, EmbedConfig(d_h=5, epochs=60, burn_in_epochs=0, seed=0, learning_rate=1e-4)
        )
        assert mean_edge_distance(after, tree) < mean_edge_distance(before, tree)

    def test_siblings_closer_than_non_siblings(self, trained):
        tree, emb = trained
        nodes, edges = tree.core_graph()
        index = {n: i for i, n in enumerate(nodes)}
        leaves = tree.leaves()
        sib, non = [], []
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                d = poincare_distance(emb.vectors[index[a]], emb.vectors[index[b]])
                if tree.parent[a] == tree.parent[b]:
                    sib.append(d)
                else:
                    non.append(d)
        assert np.mean(sib) < np.mean(non)

    def test_distance_correlates_with_tree_distance(self, trained):
        from scipy.stats import spearmanr

        tree, emb = trained
        nodes, edges = tree.core_graph()
        adj = {i: set() for i in range(len(nodes))}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)

        def graph_dist(src):
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in adj[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            return dist

        tree_d, ball_d = [], []
        for i in range(len(nodes)):
            gd = graph_dist(i)
            for j in range(i + 1, len(nodes)):
                tree_d.append(gd[j])
                ball_d.append(poincare_distance(emb.vectors[i], emb.vectors[j]))
        rho, _ = spearmanr(tree_d, ball_d)
        assert rho > 0

    def test_training_is_deterministic(self):
        tree = _toy_tree()
        cfg = EmbedConfig(d_h=6, epochs=10, burn_in_epochs=2, seed=7)
        a = train_poincare(tree, cfg)
        b = train_poincare(tree, cfg)
        assert np.array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("which", ["toy", "synthetic"])
def test_negative_pool_mapping_matches_brute_force(which, small_corpus):
    tree = _toy_tree() if which == "toy" else small_corpus.tree
    nodes, edges = tree.core_graph()
    n = len(nodes)
    adjacent = [set() for _ in range(n)]
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    offsets = _exclusion_offsets(n, edges)
    for u in range(n):
        pool = [j for j in range(n) if j != u and j not in adjacent[u]]
        assert n - len(offsets[u]) == len(pool)
        assert _non_neighbours(offsets[u], np.arange(len(pool))).tolist() == pool


class TestEmbeddingIo:
    def test_save_load_round_trip(self, tmp_path):
        tree = _toy_tree()
        emb = train_poincare(tree, EmbedConfig(d_h=4, epochs=3, burn_in_epochs=0, seed=1))
        path = tmp_path / "emb.txt"
        emb.save(path)
        back = PoincareEmbedding.load(path)
        assert back.nodes == emb.nodes
        assert np.array_equal(back.vectors, emb.vectors)

    def test_level_rows_share_padded_vectors(self):
        tree = _toy_tree()
        emb = train_poincare(tree, EmbedConfig(d_h=4, epochs=3, burn_in_epochs=0, seed=1))
        rows5 = embedding_for_level(emb, tree, 5)
        labels5 = tree.level_labels(5)
        # a two-decimal leaf keeps its own vector at its original node
        i = labels5.index("100.11")
        assert np.array_equal(rows5[i], emb.vector(Node(5, "100.11")))

    def test_missing_label_raises(self):
        tree = _toy_tree()
        emb = train_poincare(tree, EmbedConfig(d_h=4, epochs=2, burn_in_epochs=0, seed=1))
        emb2 = PoincareEmbedding(nodes=emb.nodes[:-1], vectors=emb.vectors[:-1])
        from hicu.icd import CodeError

        with pytest.raises(CodeError):
            embedding_for_level(emb2, tree, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EmbedConfig(d_h=1).validate()
        with pytest.raises(ValueError):
            EmbedConfig(burn_in_epochs=500, epochs=300).validate()
        EmbedConfig().validate()
