import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicu.metrics import (
    _average_ranks,
    auc_binary,
    evaluate,
    macro_micro_auc,
    macro_micro_f1,
    precision_at_k,
)

from conftest import oracle_auc, oracle_macro_micro_f1, oracle_precision_at_k


def _random_matrix(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(2, 7))
    scores = rng.random((n, m))
    if rng.random() < 0.5:
        scores = np.round(scores, 1)  # provoke ties
    labels = (rng.random((n, m)) < 0.4).astype(float)
    return scores, labels


def _loop_average_ranks(scores):
    """Tie-group average ranks found by walking the sorted scores."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@given(st.lists(st.integers(-4, 4), max_size=500))
@settings(max_examples=200, deadline=None)
def test_average_ranks_match_loop_oracle_on_ties(values):
    scores = np.array(values, dtype=np.float64)
    assert np.array_equal(_average_ranks(scores), _loop_average_ranks(scores))


class TestAucBinary:
    def test_perfect_and_reversed(self):
        s = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([1, 1, 0, 0])
        assert auc_binary(s, y) == 1.0
        assert auc_binary(s, 1 - y) == 0.0

    def test_all_ties_is_half(self):
        assert auc_binary(np.ones(6), np.array([1, 0, 1, 0, 0, 1])) == 0.5

    def test_single_class_returns_none(self):
        assert auc_binary(np.array([0.1, 0.9]), np.array([1, 1])) is None
        assert auc_binary(np.array([0.1, 0.9]), np.array([0, 0])) is None

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = np.round(rng.random(10), 1)
            y = (rng.random(10) < 0.5).astype(int)
            got = auc_binary(s, y)
            want = oracle_auc(s, y)
            if want is None:
                assert got is None
            else:
                assert abs(got - want) < 1e-12

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=20),
           st.integers(0, 2**20))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_monotone_transform(self, scores, label_seed):
        rng = np.random.default_rng(label_seed)
        s = np.array(scores)
        y = (rng.random(len(s)) < 0.5).astype(int)
        base = auc_binary(s, y)
        if base is None:
            return
        # scaling by a power of two is exact, so ties are preserved bit-for-bit
        transformed = auc_binary(4.0 * s, y)
        assert abs(base - transformed) < 1e-12


class TestAggregates:
    def test_macro_micro_by_oracle(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(100):
            scores, labels = _random_matrix(rng)
            per = [oracle_auc(scores[:, j], labels[:, j]) for j in range(scores.shape[1])]
            defined = [a for a in per if a is not None]
            if not defined or oracle_auc(scores.ravel(), labels.ravel()) is None:
                with pytest.raises(ValueError):
                    macro_micro_auc(scores, labels)
                continue
            macro, micro, skipped = macro_micro_auc(scores, labels)
            assert abs(macro - np.mean(defined)) < 1e-12
            assert abs(micro - oracle_auc(scores.ravel(), labels.ravel())) < 1e-12
            assert skipped == len(per) - len(defined)
            checked += 1
        assert checked >= 50

    def test_f1_by_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            scores, labels = _random_matrix(rng)
            macro, micro = macro_micro_f1(scores, labels)
            o_macro, o_micro = oracle_macro_micro_f1(scores, labels)
            assert abs(macro - o_macro) < 1e-12
            assert abs(micro - o_micro) < 1e-12

    def test_p_at_k_by_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scores, labels = _random_matrix(rng)
            for k in (1, 2, scores.shape[1]):
                got = precision_at_k(scores, labels, k)
                want = oracle_precision_at_k(scores, labels, k)
                assert abs(got - want) < 1e-12

    def test_p_at_k_tie_break_prefers_low_index(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        labels = np.array([[0.0, 1.0, 0.0]])
        # index 0 wins the tie, so the single pick misses the positive
        assert precision_at_k(scores, labels, 1) == 0.0

    def test_p_at_k_range_validated(self):
        with pytest.raises(ValueError):
            precision_at_k(np.zeros((2, 3)), np.zeros((2, 3)), 0)
        with pytest.raises(ValueError):
            precision_at_k(np.zeros((2, 3)), np.zeros((2, 3)), 4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            macro_micro_f1(np.zeros((2, 3)), np.zeros((2, 4)))


class TestEvaluate:
    def test_bundle_fields(self):
        rng = np.random.default_rng(4)
        scores = rng.random((20, 10))
        labels = (rng.random((20, 10)) < 0.3).astype(float)
        labels[0, 0] = 1.0
        labels[1, 0] = 0.0
        d = evaluate(scores, labels, ks=(5, 8, 15))
        assert set(d) >= {"macro_auc", "micro_auc", "macro_f1", "micro_f1",
                          "skipped_labels", "p_at_5", "p_at_8"}
        assert "p_at_15" not in d  # k beyond the label count is skipped
        assert 0.0 <= d["micro_auc"] <= 1.0

    def test_shape_mismatch_still_raises(self):
        # single-class labels make the AUC undefined; the mismatch must not be read as that
        with pytest.raises(ValueError, match="identical shapes"):
            evaluate(np.zeros((2, 3)), np.zeros((2, 4)))
