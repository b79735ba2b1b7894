import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hicu.metrics import (
    P_AT_ROWS,
    auc_binary,
    evaluate,
    macro_micro_f1,
    per_label_auc,
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


def _loop_mean_ranks(scores):
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


def _column_auc(scores, labels):
    """Each column's AUC by the one-column rank-sum formula; NaN where a class is missing."""
    out = []
    for j in range(scores.shape[1]):
        y = labels[:, j].astype(bool)
        n_pos = int(y.sum())
        n_neg = len(y) - n_pos
        if n_pos == 0 or n_neg == 0:
            out.append(np.nan)
            continue
        rank_sum = float(_loop_mean_ranks(scores[:, j])[y].sum())
        out.append((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return np.array(out)


def _loop_precision_at_k(scores, labels, k):
    """Precision@k with one lexsort per document and a running total."""
    total = 0.0
    idx = np.arange(scores.shape[1])
    for d in range(scores.shape[0]):
        order = np.lexsort((idx, -scores[d]))
        total += labels[d, order[:k]].astype(bool).sum() / k
    return total / scores.shape[0]


def _tie_heavy_matrix(rng, max_docs=30, max_labels=12):
    """Scores with many ties and labels whose prevalence leaves some columns single-class."""
    shape = (int(rng.integers(1, max_docs + 1)), int(rng.integers(1, max_labels + 1)))
    if rng.random() < 0.5:
        scores = rng.integers(-3, 4, shape).astype(np.float64)
    else:
        scores = np.round(rng.random(shape), 1)
    labels = rng.random(shape) < rng.choice([0.05, 0.4, 0.95])
    return scores, labels


_TIE_VALUES = st.integers(-4, 4).map(float)


@given(st.one_of(
    st.lists(_TIE_VALUES, min_size=1, max_size=500).map(lambda v: np.array(v).reshape(-1, 1)),
    arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=40), elements=_TIE_VALUES),
), st.integers(0, 2**32 - 1))
@example(np.array([[1.0, 1.0, -2.0, 1.0]]), 0)  # one row
@example(np.array([[3.0], [1.0], [3.0], [3.0]]), 0)  # one column
@example(np.array([[2.0, 0.0, -1.0], [2.0, 1.0, -1.0], [2.0, 0.0, -1.0]]), 0)  # all-equal columns
@settings(max_examples=200, deadline=None)
def test_per_label_auc_matches_rank_sum_oracle_on_ties(scores, seed):
    rng = np.random.default_rng(seed)
    labels = rng.random(scores.shape) < rng.choice([0.1, 0.5, 0.9])
    assert np.array_equal(per_label_auc(scores, labels), _column_auc(scores, labels), equal_nan=True)


def test_auc_peak_stays_below_the_score_matrix():
    # at the validation shape of the reference run, 300 documents and 243
    # leaves: a column's negatives are the largest temporary of the per-label
    # pass, and the flattened matrix's negatives that of the micro AUC
    rng = np.random.default_rng(7)
    scores = np.round(rng.random((300, 243)), 2)
    labels = rng.random(scores.shape) < 0.1
    for fn, bound in ((per_label_auc, 0.5), (auc_binary, 1.5)):
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(scores, labels)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= bound * scores.nbytes, (fn.__name__, peak / scores.nbytes)


def test_per_label_auc_rejects_a_vector():
    with pytest.raises(ValueError, match="2-D"):
        per_label_auc(np.array([0.2, 0.8]), np.array([0, 1]))


def test_per_label_auc_matches_column_formula_bitwise():
    rng = np.random.default_rng(5)
    single_class = 0
    for _ in range(300):
        scores, labels = _tie_heavy_matrix(rng)
        want = _column_auc(scores, labels)
        single_class += int(np.isnan(want).sum())
        assert np.array_equal(per_label_auc(scores, labels), want, equal_nan=True)
        micro = _column_auc(scores.reshape(-1, 1), labels.reshape(-1, 1))[0]
        got = auc_binary(scores, labels)
        assert got is None if np.isnan(micro) else got == micro
    assert single_class > 0


@pytest.mark.parametrize("n_pos", [1, 9, 10, 11, 19])
def test_per_label_auc_matches_column_formula_whichever_class_is_larger(n_pos):
    # 20 documents: positives the minority, exactly half or the majority of every column
    rng = np.random.default_rng(n_pos)
    scores = rng.integers(-3, 4, (20, 40)).astype(np.float64)
    labels = np.zeros(scores.shape, dtype=bool)
    for j in range(scores.shape[1]):
        labels[rng.permutation(20)[:n_pos], j] = True
    assert np.array_equal(per_label_auc(scores, labels), _column_auc(scores, labels))
    assert auc_binary(scores, labels) == _column_auc(scores.reshape(-1, 1), labels.reshape(-1, 1))[0]


def test_p_at_k_matches_lexsort_loop_bitwise():
    rng = np.random.default_rng(6)
    tallest = 0
    for _ in range(100):
        scores, labels = _tie_heavy_matrix(rng, max_docs=3 * P_AT_ROWS)
        n_labels = scores.shape[1]
        tallest = max(tallest, scores.shape[0])
        ks = sorted({1, (n_labels + 1) // 2, n_labels})
        want = [_loop_precision_at_k(scores, labels, k) for k in ks]
        assert [precision_at_k(scores, labels, k) for k in ks] == want
        assert precision_at_k(scores, labels, ks[::-1]) == want[::-1]  # one sort serves every k
    assert tallest > 2 * P_AT_ROWS  # the running totals crossed at least two block boundaries


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
            result, _ = evaluate(scores, labels, ks=())
            if not defined or oracle_auc(scores.ravel(), labels.ravel()) is None:
                assert result["macro_auc"] is None and result["micro_auc"] is None
                assert result["skipped_labels"] == len(per)
                continue
            macro, micro, skipped = (result[key] for key in ("macro_auc", "micro_auc", "skipped_labels"))
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

    def test_p_at_k_needs_a_document(self):
        with pytest.raises(ValueError, match="at least one document"):
            precision_at_k(np.zeros((0, 3)), np.zeros((0, 3)), 1)

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
        d, per_label = evaluate(scores, labels, ks=(5, 8, 15))
        assert np.array_equal(per_label, per_label_auc(scores, labels), equal_nan=True)
        assert set(d) >= {"macro_auc", "micro_auc", "macro_f1", "micro_f1",
                          "skipped_labels", "p_at_5", "p_at_8"}
        assert "p_at_15" not in d  # k beyond the label count is skipped
        assert 0.0 <= d["micro_auc"] <= 1.0

    @given(st.integers(1, 30), st.integers(1, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_document_order_changes_no_metric_beyond_roundoff(self, n_docs, n_labels, data):
        # tied scores; the AUCs, F1s and skipped count come out bit for bit,
        # and each p_at_k to roundoff, since it sums per-document fractions in
        # document order
        scores = data.draw(arrays(np.float64, (n_docs, n_labels), elements=_TIE_VALUES))
        labels = data.draw(arrays(np.uint8, (n_docs, n_labels), elements=st.integers(0, 1)))
        perm = np.array(data.draw(st.permutations(range(n_docs))))
        want, _ = evaluate(scores, labels, ks=(1, 3, 5))
        got, _ = evaluate(scores[perm], labels[perm], ks=(1, 3, 5))
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            if key.startswith("p_at_"):
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
            else:
                assert got[key] == value, key

    def test_shape_mismatch_still_raises(self):
        # single-class labels make the AUC undefined; the mismatch must not be read as that
        with pytest.raises(ValueError, match="identical shapes"):
            evaluate(np.zeros((2, 3)), np.zeros((2, 4)))
