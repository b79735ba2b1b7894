import functools
import inspect
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hicu.curriculum import ModelState, inspect_attention
from hicu.data import Vocab
from hicu.losses import AslConfig, asl, bce, sigmoid
from hicu import network
from hicu.network import (
    AdamState,
    DecoderParams,
    EncoderParams,
    _attention_slab,
    _encode,
    _im2col,
    adam_step,
    backward,
    corrected_queries,
    decode,
    decoder_param_dict,
    encoder_param_dict,
    forward,
    init_encoder,
    init_fc,
)

from conftest import fd_gradient, rel_err

VOCAB, D_E, D_F, S, L, D_H = 12, 4, 5, 3, 6, 3
# (kernel width, tokens): the default documents, then documents shorter than
# the kernel, whose windows overhang both ends
SHAPES = [(S, 7), (5, 1), (5, 2), (9, 1), (9, 2)]


def _setup(mode="none", seed=0, kernel=S, n_tokens=7):
    rng = np.random.default_rng(seed)
    enc = init_encoder(rng, VOCAB, D_E, D_F, kernel)
    Q = rng.normal(size=(D_F, L)) * 0.4
    W = rng.normal(size=(D_F, L)) * 0.4
    b = rng.normal(size=L) * 0.1
    fc_w = fc_b = None
    if mode != "none":
        fc_w, fc_b = init_fc(rng, D_F, D_H, mode)
    E_h = rng.uniform(-0.5, 0.5, size=(L, D_H)) if mode != "none" else None
    dec = DecoderParams(Q=Q, W=W, b=b, mode=mode, fc_w=fc_w, fc_b=fc_b, E_h=E_h)
    x = rng.integers(1, VOCAB, size=(2, n_tokens))
    y = (rng.random((2, L)) < 0.4).astype(float)
    return enc, dec, x, y


class TestForward:
    def test_attention_columns_sum_to_one(self):
        enc, dec, x, _ = _setup()
        _, trace = forward(x, enc, dec)
        sums = np.stack([_attention_slab(trace, b) for b in range(len(x))]).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_single_document_input_rejected(self):
        enc, dec, x, y = _setup()
        with pytest.raises(ValueError, match=r"\(B, N\) batch"):
            forward(x[0], enc, dec)
        with pytest.raises(ValueError, match=r"\(B, N\) batch"):
            _encode(x[0], enc)
        _, trace = forward(x[:1], enc, dec)
        _, dlogits = bce(trace.logits, y[:1])
        with pytest.raises(ValueError, match="dlogits shape"):
            backward(trace, enc, dec, dlogits[0])

    def test_encode_shape_and_range(self):
        enc, dec, x, _ = _setup()
        H = _encode(x, enc)
        assert H.shape == (2, 7, D_F)
        assert np.all(np.abs(H) <= 1.0)

    def test_oov_index_rejected(self):
        enc, dec, x, _ = _setup()
        bad = x.copy()
        bad[0, 0] = VOCAB + 5
        with pytest.raises(ValueError):
            _encode(bad, enc)
        bad[0, 0] = -1  # the window gather clips indices, so negatives must not reach it
        with pytest.raises(ValueError, match="out of vocabulary range"):
            _encode(bad, enc)

    def test_sum_pooling_equals_explicit_z_sum(self):
        enc, dec, x, _ = _setup()
        _, trace = forward(x, enc, dec)
        Z = trace.V @ dec.W  # (B, L, L)
        explicit = Z.sum(axis=2) + dec.b
        assert np.allclose(trace.logits, explicit, atol=1e-12)

    def test_conv_same_padding_matches_naive(self):
        for kernel, n_tokens in SHAPES:
            enc, dec, x, _ = _setup(kernel=kernel, n_tokens=n_tokens)
            H = _encode(x, enc)
            half = kernel // 2
            for b in range(len(x)):
                padded = np.zeros((n_tokens + 2 * half, D_E))
                padded[half : half + n_tokens] = enc.embedding[x[b]]
                for t in range(n_tokens):
                    window = padded[t : t + kernel]
                    pre = np.einsum("sd,sdf->f", window, enc.kernel) + enc.bias
                    assert np.allclose(H[b, t], np.tanh(pre), atol=1e-12), (kernel, n_tokens, b, t)


class TestCorrection:
    def test_none_returns_queries(self):
        enc, dec, x, _ = _setup()
        assert corrected_queries(dec) is dec.Q

    def test_add_formula(self):
        enc, dec, x, _ = _setup("add")
        got = corrected_queries(dec)
        for c in range(L):
            want = dec.Q[:, c] + dec.fc_w @ dec.E_h[c] + dec.fc_b
            assert np.allclose(got[:, c], want, atol=1e-12)

    def test_concat_formula(self):
        enc, dec, x, _ = _setup("concat")
        got = corrected_queries(dec)
        for c in range(L):
            stacked = np.concatenate([dec.Q[:, c], dec.E_h[c]])
            want = dec.fc_w @ stacked + dec.fc_b
            assert np.allclose(got[:, c], want, atol=1e-12)

    # a corrected decoder is checked once, when it is built, not on every forward call
    def test_missing_rows_rejected(self):
        enc, dec, x, _ = _setup("add")
        with pytest.raises(ValueError, match="requires hyperbolic rows"):
            DecoderParams(Q=dec.Q, W=dec.W, b=dec.b, mode="add", fc_w=dec.fc_w, fc_b=dec.fc_b)

    @pytest.mark.parametrize("mode", ["add", "concat"])
    @pytest.mark.parametrize("rows", [L - 1, L + 1])
    def test_row_count_other_than_the_label_count_rejected(self, mode, rows):
        enc, dec, x, _ = _setup(mode)
        with pytest.raises(ValueError, match="row count must match the label count"):
            DecoderParams(Q=dec.Q, W=dec.W, b=dec.b, mode=mode, fc_w=dec.fc_w, fc_b=dec.fc_b,
                          E_h=np.zeros((rows, D_H)))

    @pytest.mark.parametrize("mode, other", [("add", "concat"), ("concat", "add")])
    def test_transform_of_the_wrong_shape_rejected(self, mode, other):
        # each mode's fc_w has the other's shape, or a row count other than d_f
        enc, dec, x, _ = _setup(mode)
        wrong_fc_w, _ = init_fc(np.random.default_rng(0), D_F, D_H, other)
        for fc_w in (wrong_fc_w, dec.fc_w[:-1]):
            with pytest.raises(ValueError, match=f"transform shape mismatch for mode {mode}"):
                DecoderParams(Q=dec.Q, W=dec.W, b=dec.b, mode=mode, fc_w=fc_w, fc_b=dec.fc_b, E_h=dec.E_h)

    def test_transform_required(self):
        with pytest.raises(ValueError):
            DecoderParams(Q=np.zeros((3, 2)), W=np.zeros((3, 2)), b=np.zeros(2), mode="add")


def _check_all_grads(mode, loss_name, seed, per_param_counts):
    enc, dec, x, y = _setup(mode, seed=seed)
    loss_cfg = AslConfig(gamma_pos=0.5, gamma_neg=2.0, margin=0.05)

    def total_loss():
        _, trace = forward(x, enc, dec)
        if loss_name == "asl":
            return asl(trace.logits, y, loss_cfg)[0]
        return bce(trace.logits, y)[0]

    _, trace = forward(x, enc, dec)
    if loss_name == "asl":
        _, dlogits = asl(trace.logits, y, loss_cfg)
    else:
        _, dlogits = bce(trace.logits, y)
    grads = backward(trace, enc, dec, dlogits)

    arrays = {**encoder_param_dict(enc), **decoder_param_dict(dec)}
    rng = np.random.default_rng(seed + 100)
    for name, arr in arrays.items():
        assert name in grads, name
        if name == "embedding":
            used = np.unique(x)
            idxs = [int(u) * D_E + int(rng.integers(D_E)) for u in used]
        else:
            k = min(arr.size, 8)
            idxs = list(rng.choice(arr.size, size=k, replace=False))
        fd = fd_gradient(total_loss, arr, idxs)
        for i, g in fd.items():
            assert rel_err(grads[name].ravel()[i], g) < 1e-4, (name, i)
        per_param_counts[name] = per_param_counts.get(name, 0) + len(idxs)


class TestBackward:
    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    @pytest.mark.parametrize("loss_name", ["bce", "asl"])
    def test_gradients_match_finite_differences(self, mode, loss_name):
        counts = {}
        for seed in range(4):
            _check_all_grads(mode, loss_name, seed, counts)
        assert all(c >= 20 for c in counts.values()), counts

    def test_w_gradient_constant_across_columns(self):
        enc, dec, x, y = _setup()
        _, trace = forward(x, enc, dec)
        _, dlogits = bce(trace.logits, y)
        grads = backward(trace, enc, dec, dlogits)
        assert np.allclose(grads["W"], grads["W"][:, :1], atol=1e-15)

    def test_dlogits_shape_mismatch_rejected(self):
        enc, dec, x, y = _setup()
        _, trace = forward(x, enc, dec)
        with pytest.raises(ValueError):
            backward(trace, enc, dec, np.zeros((3, L)))


def _adam_reference(params, grads, adam):
    """Bias-corrected Adam written as the textbook expressions."""
    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    for name, grad in grads.items():
        if name not in adam.m:
            adam.m[name] = np.zeros_like(params[name])
            adam.v[name] = np.zeros_like(params[name])
        m, v = adam.m[name], adam.v[name]
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**adam.t)
        v_hat = v / (1.0 - b2**adam.t)
        params[name] -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)


class TestAdam:
    def test_scalar_hand_computation(self):
        # one parameter, two steps, worked by hand with bias correction
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = {"w": np.array([1.0])}
        adam = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
        g1, g2 = 0.5, -0.25

        adam_step(p, {"w": np.array([g1])}, adam)
        m1 = (1 - b1) * g1
        v1 = (1 - b2) * g1 * g1
        w1 = 1.0 - lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
        assert p["w"][0] == pytest.approx(w1, abs=1e-15)

        adam_step(p, {"w": np.array([g2])}, adam)
        m2 = b1 * m1 + (1 - b1) * g2
        v2 = b2 * v1 + (1 - b2) * g2 * g2
        w2 = w1 - lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)
        assert p["w"][0] == pytest.approx(w2, abs=1e-15)

    def test_nonfinite_gradient_rejected(self):
        p = {"w": np.zeros(2)}
        adam = AdamState(lr=0.1)
        with pytest.raises(FloatingPointError):
            adam_step(p, {"w": np.array([np.nan, 0.0])}, adam)

    def test_shape_mismatch_rejected(self):
        p = {"w": np.zeros(2)}
        with pytest.raises(ValueError):
            adam_step(p, {"w": np.zeros(3)}, AdamState(lr=0.1))

    def test_updates_are_in_place(self):
        arr = np.ones(3)
        p = {"w": arr}
        adam_step(p, {"w": np.ones(3)}, AdamState(lr=0.1))
        assert p["w"] is arr
        assert not np.allclose(arr, 1.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_in_place_update_matches_textbook_formula(self, seed):
        rng = np.random.default_rng(seed)
        shapes = {"Q": (5, 6), "b": (6,), "kernel": (3, 4, 5)}
        got = {n: rng.normal(size=s) for n, s in shapes.items()}
        want = {n: a.copy() for n, a in got.items()}
        adam_got, adam_want = AdamState(lr=0.01), AdamState(lr=0.01)
        for _ in range(20):
            grads = {n: rng.normal(size=s) * rng.choice([1e-6, 1.0, 1e3]) for n, s in shapes.items()}
            adam_step(got, {n: g.copy() for n, g in grads.items()}, adam_got)
            _adam_reference(want, grads, adam_want)
            for n in shapes:
                assert np.array_equal(got[n], want[n]), n
                assert np.array_equal(adam_got.m[n], adam_want.m[n]), n
                assert np.array_equal(adam_got.v[n], adam_want.v[n]), n


def test_even_kernel_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        init_encoder(rng, VOCAB, D_E, D_F, kernel_size=4)


@pytest.mark.parametrize("shape", [(10, 6), (5, 4)])
def test_embedding_of_another_shape_rejected(shape):
    # the table must have one row per vocabulary entry and d_e columns
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\), expected .* \(10, 4\)"):
        init_encoder(rng, vocab_size=10, d_e=4, d_f=D_F, kernel_size=S, embedding=np.zeros(shape))
    enc = init_encoder(rng, vocab_size=10, d_e=4, d_f=D_F, kernel_size=S, embedding=np.ones((10, 4)))
    assert enc.embedding.shape == (10, 4)


def _oracle_grads(x, enc, dec, dY):
    """Forward and backward recomputed one document and one label at a time,
    with einsum contractions and the explicit softmax Jacobian."""
    E_h = dec.E_h
    s, d_e, d_f = enc.kernel.shape
    half = s // 2
    B, N = x.shape
    n_labels = dec.Q.shape[1]
    Q = dec.Q
    if dec.mode == "add":
        qhat = Q + np.einsum("fh,lh->fl", dec.fc_w, E_h) + dec.fc_b[:, None]
    elif dec.mode == "concat":
        wq, we = dec.fc_w[:, :d_f], dec.fc_w[:, d_f:]
        qhat = np.einsum("fg,gl->fl", wq, Q) + np.einsum("fh,lh->fl", we, E_h) + dec.fc_b[:, None]
    else:
        qhat = Q
    w_sum = dec.W.sum(axis=1)
    g = {name: np.zeros_like(a) for name, a in
         {**encoder_param_dict(enc), **decoder_param_dict(dec)}.items()}
    dqhat = np.zeros_like(qhat)
    for b in range(B):
        emb_pad = np.zeros((N + 2 * half, d_e))
        emb_pad[half : half + N] = enc.embedding[x[b]]
        pre = enc.bias + sum(
            np.einsum("ne,ef->nf", emb_pad[j : j + N], enc.kernel[j]) for j in range(s)
        )
        H = np.tanh(pre)
        dH = np.zeros_like(H)
        for lab in range(n_labels):
            z = np.einsum("nf,f->n", H, qhat[:, lab])
            a = np.exp(z - z.max())
            a /= a.sum()
            v = np.einsum("n,nf->f", a, H)
            g["b"][lab] += dY[b, lab]
            g["W"] += (dY[b, lab] * v)[:, None]
            dv = dY[b, lab] * w_sum
            dH += np.outer(a, dv)
            da = np.einsum("nf,f->n", H, dv)
            dz = (np.diag(a) - np.outer(a, a)) @ da
            dqhat[:, lab] += np.einsum("nf,n->f", H, dz)
            dH += np.outer(dz, qhat[:, lab])
        dpre = dH * (1.0 - H**2)
        g["bias"] += dpre.sum(axis=0)
        demb_pad = np.zeros_like(emb_pad)
        for j in range(s):
            g["kernel"][j] += np.einsum("ne,nf->ef", emb_pad[j : j + N], dpre)
            demb_pad[j : j + N] += np.einsum("nf,ef->ne", dpre, enc.kernel[j])
        if "embedding" in g:
            for n in range(N):
                g["embedding"][x[b, n]] += demb_pad[half + n]
    g["Q"] = dqhat
    if dec.mode == "add":
        g["fc_w"] = np.einsum("fl,lh->fh", dqhat, E_h)
    elif dec.mode == "concat":
        g["Q"] = np.einsum("gf,gl->fl", dec.fc_w[:, :d_f], dqhat)
        g["fc_w"] = np.concatenate(
            [np.einsum("fl,gl->fg", dqhat, Q), np.einsum("fl,lh->fh", dqhat, E_h)], axis=1
        )
    if dec.mode != "none":
        g["fc_b"] = dqhat.sum(axis=1)
    return g


def _batched_softmax_forward(x, enc, dec):
    """yhat, A, V and logits from one (B, N, L) score array: batched matmuls
    and the softmax's max, exp and sum taken along the token axis of the batch."""
    H = _encode(x, enc)
    qhat = corrected_queries(dec)
    A = H @ qhat
    A -= A.max(axis=1, keepdims=True)
    np.exp(A, out=A)
    A /= A.sum(axis=1, keepdims=True)
    V = np.matmul(A.transpose(0, 2, 1), H)
    logits = V @ dec.W.sum(axis=1) + dec.b
    return sigmoid(logits), A, V, logits


def _magnitudes(x, enc, dec, dY=None):
    """The forward outputs and, given dY, the gradients recomputed over
    absolute values: every product of magnitudes, every difference taken as
    a sum, and the attention the exact (nonnegative) softmax.  An entry's
    magnitude bounds the size of each term it sums, so it fixes the scale of
    the entry's roundoff however much those terms cancel.  Also returns the
    largest score magnitude."""
    s, d_e, d_f = enc.kernel.shape
    half = s // 2
    B, N = x.shape
    emb_pad = np.zeros((B, N + 2 * half, d_e))
    emb_pad[:, half : half + N] = np.abs(enc.embedding[x])
    pre = np.abs(enc.bias) + sum(emb_pad[:, j : j + N] @ np.abs(enc.kernel[j]) for j in range(s))
    yhat, A, _, _ = _batched_softmax_forward(x, enc, dec)
    H = _encode(x, enc)
    Hm = np.abs(H) + (1.0 - H**2) * pre  # tanh passes on its argument's error
    Qm, Em = np.abs(dec.Q), None if dec.E_h is None else np.abs(dec.E_h)
    if dec.mode == "add":
        qm = Qm + np.abs(dec.fc_w) @ Em.T + np.abs(dec.fc_b)[:, None]
    elif dec.mode == "concat":
        wq, we = np.abs(dec.fc_w[:, :d_f]), np.abs(dec.fc_w[:, d_f:])
        qm = wq @ Qm + we @ Em.T + np.abs(dec.fc_b)[:, None]
    else:
        qm = Qm
    w_sum = np.abs(dec.W).sum(axis=1)
    V = np.matmul(A.transpose(0, 2, 1), Hm)
    logits = V @ w_sum + np.abs(dec.b)
    out = {"V": V, "logits": logits, "yhat": yhat * (1.0 - yhat) * logits + yhat}
    score_max = float((Hm @ qm).max())
    if dY is None:
        return out, score_max
    dV = np.abs(dY)[:, :, None] * w_sum
    dA = Hm @ dV.transpose(0, 2, 1)
    dS = A * (dA + np.sum(A * dA, axis=1, keepdims=True))
    dqhat = np.einsum("bnf,bnl->fl", Hm, dS)
    dpre = (np.matmul(A, dV) + dS @ qm.T) * (2.0 + 2.0 * np.abs(H) * Hm)
    out["W"] = np.repeat((np.abs(dY).reshape(-1) @ V.reshape(-1, d_f))[:, None], dec.n_labels, axis=1)
    out["b"] = np.abs(dY).sum(axis=0)
    out["Q"] = dqhat
    if dec.mode == "add":
        out["fc_w"] = dqhat @ Em
    elif dec.mode == "concat":
        out["Q"] = wq.T @ dqhat
        out["fc_w"] = np.concatenate([dqhat @ Qm.T, dqhat @ Em], axis=1)
    if dec.mode != "none":
        out["fc_b"] = dqhat.sum(axis=1)
    out["bias"] = dpre.sum(axis=(0, 1))
    out["kernel"] = np.stack([np.einsum("bne,bnf->ef", emb_pad[:, j : j + N], dpre) for j in range(s)])
    demb_pad = np.zeros_like(emb_pad)
    for j in range(s):
        demb_pad[:, j : j + N] += dpre @ np.abs(enc.kernel[j]).T
    out["embedding"] = np.zeros_like(enc.embedding)
    np.add.at(out["embedding"], x.ravel(), demb_pad[:, half : half + N].reshape(-1, d_e))
    return out, score_max


def _roundoff_bounds(x, enc, dec, dY=None):
    """How far two float64 evaluations of forward and backward that sum in
    different orders may differ, entry by entry.

    Each evaluation errs by at most k * eps times the entry's magnitude,
    where k adds up the sum lengths along the longest chain: the conv
    (s * d_e), the scores (d_f), the correction (d_f + d_h), the softmax
    and pooling over tokens (N), dH over labels (L) and the gradient sums
    over the batch's tokens (B * N).  The softmax's exp turns a score's
    absolute error, at most about d_f * eps times the largest score
    magnitude, into a relative error of the attention, which everything
    after it inherits: hence the factor 1 + score_max.  The two evaluations
    may err in opposite directions, hence the 2.  Nothing here is fitted to
    an observed error."""
    mags, score_max = _magnitudes(x, enc, dec, dY)
    s, d_e, d_f = enc.kernel.shape
    B, N = x.shape
    d_h = 0 if dec.E_h is None else dec.E_h.shape[1]
    k = s * d_e + 2 * d_f + d_h + N + dec.n_labels + B * N
    scale = 2 * k * np.finfo(np.float64).eps * (1.0 + score_max)
    return {name: scale * m for name, m in mags.items()}


def _assert_within(got, want, bounds, context=""):
    for name, w in want.items():
        excess = np.abs(got[name] - w) - bounds[name]
        assert np.all(excess <= 0), (
            f"{name} {context}: off by {np.abs(got[name] - w).max():.3g}, "
            f"bound exceeded by {excess.max():.3g}")


def _snapshot(*arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays if a is not None]


class TestKernels:
    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    @pytest.mark.parametrize("batch", [1, 2, 16])
    def test_forward_bits_match_batched_softmax(self, mode, batch):
        enc, dec, _, _ = _setup(mode, seed=batch)
        x = np.random.default_rng(batch).integers(1, VOCAB, size=(batch, 7))
        yhat, trace = forward(x, enc, dec)
        want_yhat, want_A, want_V, want_logits = _batched_softmax_forward(x, enc, dec)
        # the inspector's slab keeps the batched softmax's bits; decode divides
        # the pooled (L, d_f) V by s instead of the slab, so its outputs are
        # held to the roundoff bound
        A = np.stack([_attention_slab(trace, b) for b in range(batch)])
        assert np.array_equal(A, want_A)
        _assert_within({"yhat": yhat, "V": trace.V, "logits": trace.logits},
                       {"yhat": want_yhat, "V": want_V, "logits": want_logits},
                       _roundoff_bounds(x, enc, dec))

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_backward_matches_loop_oracle(self, mode, batch, seed):
        for kernel, n_tokens in SHAPES:
            enc, dec, x, y = _setup(mode, seed=seed, kernel=kernel, n_tokens=n_tokens)
            x, y = x[:batch], y[:batch]
            _, trace = forward(x, enc, dec)
            _, dlogits = bce(trace.logits, y)
            grads = backward(trace, enc, dec, dlogits)
            want = _oracle_grads(x, enc, dec, dlogits)
            assert sorted(grads) == sorted(want)
            # the oracle sums in another order: both sides are held to the
            # roundoff bound of each entry's magnitude
            _assert_within(grads, want, _roundoff_bounds(x, enc, dec, dlogits),
                           f"kernel {kernel} tokens {n_tokens}")

    @given(st.tuples(st.integers(1, 3), st.sampled_from(SHAPES)).flatmap(lambda b_shape: st.tuples(
        st.lists(st.lists(st.integers(0, 3), min_size=b_shape[1][1], max_size=b_shape[1][1]),
                 min_size=b_shape[0], max_size=b_shape[0]),
        st.just(b_shape[1][0]))),
        st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_embedding_gradient_bits_match_add_at(self, rows_kernel, seed):
        # Ids 0-3 repeat within and across documents, and 0 is PAD.  Each
        # position's token gradient is read from a copy of the model whose
        # embedding table has one row per position (the same vectors, so the
        # same activations), then scattered with np.add.at as the oracle.
        rows, kernel = rows_kernel
        enc, dec, _, _ = _setup("none", seed=seed % 7, kernel=kernel)
        x = np.array(rows)
        y = (np.random.default_rng(seed).random((len(x), L)) < 0.4).astype(float)
        _, trace = forward(x, enc, dec)
        grads = backward(trace, enc, dec, bce(trace.logits, y)[1])

        per_position = EncoderParams(embedding=enc.embedding[x.ravel()],
                                     kernel=enc.kernel, bias=enc.bias)
        _, trace1 = forward(np.arange(x.size).reshape(x.shape), per_position, dec)
        token_grads = backward(trace1, per_position, dec, bce(trace1.logits, y)[1])["embedding"]
        want = np.zeros_like(enc.embedding)
        np.add.at(want, x.ravel(), token_grads)
        assert np.array_equal(grads["embedding"], want)

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    def test_forward_and_backward_leave_inputs_untouched(self, mode):
        enc, dec, x, y = _setup(mode, seed=2)
        params = [*encoder_param_dict(enc).values(), *decoder_param_dict(dec).values()]
        before = _snapshot(x, dec.E_h, *params)
        _, trace = forward(x, enc, dec)
        assert _snapshot(x, dec.E_h, *params) == before
        _, dlogits = bce(trace.logits, y)
        windows = _im2col(trace.x, enc.embedding, enc.kernel.shape[0])  # backward rebuilds them
        kept = _snapshot(trace.H, trace.m, trace.s, windows, trace.qhat,
                         trace.V, trace.logits, dlogits)
        backward(trace, enc, dec, dlogits)
        windows = _im2col(trace.x, enc.embedding, enc.kernel.shape[0])
        assert _snapshot(trace.H, trace.m, trace.s, windows, trace.qhat,
                         trace.V, trace.logits, dlogits) == kept
        assert _snapshot(x, dec.E_h, *params) == before

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    @pytest.mark.parametrize("kernel,n_tokens", SHAPES)
    def test_int32_and_int64_ids_give_the_same_bits(self, mode, kernel, n_tokens):
        # hicu.data indexes documents as int32; backward widens the ids before
        # it builds its bincount slots
        enc, dec, x, y = _setup(mode, seed=3, kernel=kernel, n_tokens=n_tokens)
        runs = []
        for dtype in (np.int64, np.int32):
            yhat, trace = forward(x.astype(dtype), enc, dec)
            grads = backward(trace, enc, dec, bce(trace.logits, y)[1])
            runs.append(_snapshot(yhat, trace.H, trace.m, trace.s, trace.V, trace.logits,
                                  *(grads[name] for name in sorted(grads))))
        assert runs[1] == runs[0]


def _lanes(monkeypatch, n):
    """Run decode and backward on n worker lanes, one document per block,
    however small the documents."""
    monkeypatch.setattr(network, "_cores", lambda: n)
    monkeypatch.setattr(network, "LANE_WORK_FLOOR", 0)
    monkeypatch.setattr(network, "SLAB_BYTES", 0)


def _lane_batch(mode, seed, n_docs=7):
    enc, dec, _, _ = _setup(mode, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, VOCAB, size=(n_docs, 9))
    y = (rng.random((n_docs, L)) < 0.4).astype(float)
    return enc, dec, x, y


class TestWorkerLanes:
    """Decode and backward split a batch's documents across worker lanes."""

    def test_lane_count(self, monkeypatch):
        monkeypatch.setattr(network, "_cores", lambda: 2)
        floor = network.LANE_WORK_FLOOR
        assert network._lane_count(16, 64, 243, 16) == 1  # the reference shape, below the floor
        assert network._lane_count(16, 256, 550, 32) == 2  # a paper-wide leaf level
        assert network._lane_count(1, 256, 550, 32) == 1
        assert network._lane_count(16, floor, 1, 1) == 2
        assert network._lane_count(16, floor - 1, 1, 1) == 1

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    def test_bits_do_not_depend_on_the_lane_count(self, mode, monkeypatch):
        # three lanes on two cores, switching threads often: dqhat adds out of
        # document order, or a lost update, would change its bits
        enc, dec, x, y = _lane_batch(mode, seed=6)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1, 2, 3, 3):
                _lanes(monkeypatch, n)
                yhat, trace = forward(x, enc, dec)
                runs.append({"yhat": yhat, "V": trace.V, **backward(trace, enc, dec, bce(trace.logits, y)[1])})
        finally:
            sys.setswitchinterval(interval)
        for run in runs[1:]:
            assert sorted(run) == sorted(runs[0])
            for name, value in run.items():
                assert np.array_equal(value, runs[0][name]), name

    def test_worker_threads_call_no_public_function(self, monkeypatch):
        # perfbench's tracer wraps the package's public functions and assumes
        # one thread, so only private lane bodies may run on the lane threads
        import hicu

        callers, lane_threads = set(), set()

        def record(fn):
            def wrapped(*args, **kwargs):
                callers.add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapped

        public = {}
        for mod in [m for n, m in sys.modules.items() if n == "hicu" or n.startswith("hicu.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith("hicu") and not attr.startswith("_"):
                    monkeypatch.setattr(mod, attr, public.setdefault(obj, record(obj)))
        def spy(fn):
            def lane(*args):
                lane_threads.add(threading.get_ident())
                fn(*args)
            return lane

        for name in ("_decode_lane", "_backward_lane"):
            monkeypatch.setattr(network, name, spy(getattr(network, name)))
        _lanes(monkeypatch, 2)
        enc, dec, x, y = _lane_batch("add", seed=7)
        _, trace = hicu.network.forward(x, enc, dec)
        hicu.network.backward(trace, enc, dec, hicu.losses.bce(trace.logits, y)[1])
        assert callers == {threading.get_ident()}
        assert lane_threads - callers  # lane 1 ran on a thread of its own

    def test_no_lane_thread_outlives_its_call(self, monkeypatch):
        names = []
        for name in ("_decode_lane", "_backward_lane"):
            def lane(*args, _real=getattr(network, name)):
                names.append(threading.current_thread().name)
                _real(*args)
            monkeypatch.setattr(network, name, lane)
        _lanes(monkeypatch, 2)
        enc, dec, x, y = _lane_batch("none", seed=9)
        _, trace = forward(x, enc, dec)
        backward(trace, enc, dec, bce(trace.logits, y)[1])
        assert names.count("hicu-lane") == 2  # one per call
        assert not [t for t in threading.enumerate() if t.name == "hicu-lane"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs CPU affinity calls and two CPUs")
    def test_each_lane_runs_on_a_cpu_of_its_own(self, monkeypatch):
        seen = []
        for name in ("_decode_lane", "_backward_lane"):
            def lane(w, *args, _name=name, _real=getattr(network, name)):
                seen.append((_name, w, frozenset(os.sched_getaffinity(0))))
                _real(w, *args)
            monkeypatch.setattr(network, name, lane)
        _lanes(monkeypatch, 2)
        enc, dec, x, y = _lane_batch("none", seed=5)
        before = os.sched_getaffinity(0)
        _, trace = forward(x, enc, dec)
        assert os.sched_getaffinity(0) == before
        backward(trace, enc, dec, bce(trace.logits, y)[1])
        assert os.sched_getaffinity(0) == before
        assert sorted((name, w) for name, w, _ in seen) == [
            ("_backward_lane", 0), ("_backward_lane", 1), ("_decode_lane", 0), ("_decode_lane", 1)]
        for name in ("_decode_lane", "_backward_lane"):
            cpus = {w: cpu for lane, w, cpu in seen if lane == name}
            assert len(cpus[0]) == len(cpus[1]) == 1, cpus
            assert cpus[0] != cpus[1], cpus

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_lane_raises_instead_of_waiting(self, monkeypatch, failing):
        _lanes(monkeypatch, 2)
        enc, dec, x, y = _lane_batch("none", seed=8)
        _, trace = forward(x, enc, dec)
        dlogits = bce(trace.logits, y)[1]
        real = network._backward_lane

        def lane(w, *args):
            if w == failing:
                raise RuntimeError(f"lane {w} failed")
            real(w, *args)

        monkeypatch.setattr(network, "_backward_lane", lane)
        outcome = []

        def call():
            try:
                backward(trace, enc, dec, dlogits)
            except RuntimeError as exc:
                outcome.append(str(exc))

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "backward still waits on the failed lane"
        assert outcome == [f"lane {failing} failed"]


class TestDocumentBlocks:
    """Decode and backward run a batch's documents in blocks of k per numpy call."""

    def test_block_size(self):
        assert network._block_size(16, 64, 3) == 16  # reference level 1
        assert network._block_size(16, 64, 81) == 6  # reference level 4
        assert network._block_size(16, 64, 243) == 2  # reference leaf
        assert network._block_size(16, 256, 550) == 1  # paper-wide leaf
        assert network._block_size(1, 64, 3) == 1  # one document per training call
        assert network._block_size(16, 4096, 4096) == 1  # a slab larger than the budget

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    def test_bits_do_not_depend_on_the_block_size(self, mode, lanes, monkeypatch):
        # 7 documents: blocks of 3 leave a partial last block, and blocks of 7
        # are the whole batch.  Lanes switch threads often, so a block's dqhat
        # adds out of document order, or a lost update, would change its bits.
        enc, dec, x, y = _lane_batch(mode, seed=10)
        B, N = x.shape
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in (1, 2, 3, B):
                _lanes(monkeypatch, lanes)
                monkeypatch.setattr(network, "SLAB_BYTES", k * 8 * N * L)
                assert network._block_size(B, N, L) == k
                yhat, trace = forward(x, enc, dec)
                grads = backward(trace, enc, dec, bce(trace.logits, y)[1])
                runs.append({"yhat": yhat, "V": trace.V, "m": trace.m, "s": trace.s,
                             "logits": trace.logits, **grads})
        finally:
            sys.setswitchinterval(interval)
        for k, run in zip((2, 3, B), runs[1:]):
            assert sorted(run) == sorted(runs[0])
            for name, value in run.items():
                assert np.array_equal(value, runs[0][name]), (k, name)


def _stored_attention_backward(trace, A, enc, dec, dlogits):
    """The decoder and encoder backward as it ran on a stored (B, N, L)
    attention A, kept as the oracle for the backward that rebuilds each
    document's slab from the softmax statistics."""
    dY = np.asarray(dlogits, dtype=np.float64)
    B, N, d_f = trace.H.shape
    L = dec.n_labels
    w_sum = dec.W.sum(axis=1)
    dV = dY[:, :, None] * w_sum[None, None, :]
    dw_sum = dY.reshape(-1) @ trace.V.reshape(-1, d_f)
    grads = {"W": np.repeat(dw_sum[:, None], L, axis=1), "b": dY.sum(axis=0)}
    dH = np.empty_like(trace.H)
    dqhat = np.zeros((d_f, L))
    dS = np.empty((N, L))
    for Hb, Ab, dVb, dHb in zip(trace.H, A, dV, dH):
        np.matmul(Hb, dVb.T, out=dS)
        np.matmul(Ab, dVb, out=dHb)
        dS -= np.einsum("nl,nl->l", Ab, dS)
        dS *= Ab
        dqhat += Hb.T @ dS
        dHb += dS @ trace.qhat.T
    grads["Q"] = dqhat
    if dec.mode == "add":
        grads["fc_w"] = dqhat @ dec.E_h
    elif dec.mode == "concat":
        grads["Q"] = dec.fc_w[:, :d_f].T @ dqhat
        grads["fc_w"] = np.concatenate([dqhat @ dec.Q.T, dqhat @ dec.E_h], axis=1)
    if dec.mode != "none":
        grads["fc_b"] = dqhat.sum(axis=1)
    dpre = dH * (1.0 - trace.H**2)
    s, d_e = enc.kernel.shape[0], enc.kernel.shape[1]
    kflat = enc.kernel.reshape(s * d_e, d_f)
    windows = _im2col(trace.x, enc.embedding, s)
    grads["kernel"] = (windows.reshape(B * N, -1).T @ dpre.reshape(-1, d_f)).reshape(s, d_e, d_f)
    grads["bias"] = dpre.sum(axis=(0, 1))
    dwindows = np.matmul(dpre, kflat.T)
    half = s // 2
    demb_pad = np.zeros((B, N + 2 * half, d_e))
    for j in range(s):
        demb_pad[:, j : j + N] += dwindows[:, :, j * d_e : (j + 1) * d_e]
    demb = demb_pad[:, half : half + N]
    slots = (trace.x.reshape(-1, 1) * d_e + np.arange(d_e)).ravel()
    vocab = enc.embedding.shape[0]
    grads["embedding"] = np.bincount(slots, weights=demb.ravel(), minlength=vocab * d_e).reshape(vocab, d_e)
    return grads


# (B, N, L, d_e = d_f, correction) of the benchmark's batches: the reference
# shape, a paper-wide leaf level (two lanes on two cores), a concat-corrected
# ragged-hyperbolic document, and long notes at a wide level
COMPOSITION_SHAPES = {
    "reference": (16, 64, 243, 16, "none"),
    "paper-wide": (16, 256, 550, 32, "none"),
    "concat": (8, 145, 243, 16, "concat"),
    "long": (4, 2000, 900, 16, "none"),
}


@functools.lru_cache(maxsize=None)
def _composition_batch(name):
    """Model, token batch and full-batch scores of one COMPOSITION_SHAPES entry."""
    B, N, n_labels, d, mode = COMPOSITION_SHAPES[name]
    rng = np.random.default_rng(len(name))
    enc = init_encoder(rng, 500, d, d, 3)
    fc_w = fc_b = E_h = None
    if mode != "none":
        fc_w, fc_b = init_fc(rng, d, 16, mode)
        E_h = rng.uniform(-0.5, 0.5, size=(n_labels, 16))
    dec = DecoderParams(Q=rng.normal(size=(d, n_labels)) * 0.3, W=rng.normal(size=(d, n_labels)) * 0.3,
                        b=rng.normal(size=n_labels) * 0.1, mode=mode, fc_w=fc_w, fc_b=fc_b, E_h=E_h)
    x = rng.integers(0, 500, size=(B, N), dtype=np.int32)
    return enc, dec, x, forward(x, enc, dec)[0]


class TestBatchComposition:
    """A document's scores do not depend on the batch it is scored in."""

    @pytest.mark.parametrize("name", sorted(COMPOSITION_SHAPES))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_sub_batches_and_single_rows_score_as_the_full_batch(self, name, data):
        enc, dec, x, full = _composition_batch(name)
        rows = data.draw(st.lists(st.integers(0, len(x) - 1), min_size=1, max_size=len(x), unique=True)
                         | st.integers(0, len(x) - 1).map(lambda i: [i]))
        assert np.array_equal(forward(x[rows], enc, dec)[0], full[rows]), rows


class TestAttentionStatistics:
    """The trace keeps each label's softmax max and sum, not the attention."""

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    @pytest.mark.parametrize("batch", [1, 2, 16])
    def test_backward_bits_match_stored_attention_backward(self, mode, batch):
        for kernel, n_tokens in SHAPES:
            enc, dec, _, _ = _setup(mode, seed=batch, kernel=kernel)
            rng = np.random.default_rng(batch + 50)
            x = rng.integers(0, VOCAB, size=(batch, n_tokens))
            y = (rng.random((batch, L)) < 0.4).astype(float)
            _, trace = forward(x, enc, dec)
            dlogits = bce(trace.logits, y)[1]
            A = _batched_softmax_forward(x, enc, dec)[1]
            want = _stored_attention_backward(trace, A, enc, dec, dlogits)
            got = backward(trace, enc, dec, dlogits)
            assert sorted(got) == sorted(want)
            _assert_within(got, want, _roundoff_bounds(x, enc, dec, dlogits),
                           f"kernel {kernel} tokens {n_tokens}")

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    def test_softmax_correction_is_the_rowsum_of_dv_and_v(self, mode):
        # sum_n A * (H dV^T) = rowsum(dV * V) for any dV, not only the rank-one
        # dV of a shared output vector
        for kernel, n_tokens in SHAPES:
            enc, dec, x, _ = _setup(mode, seed=4, kernel=kernel, n_tokens=n_tokens)
            _, trace = forward(x, enc, dec)
            bound_V = _roundoff_bounds(x, enc, dec)["V"]
            rng = np.random.default_rng(n_tokens)
            for b in range(len(x)):
                dV = rng.normal(size=(L, D_F))
                assert np.linalg.matrix_rank(dV) > 1
                want = np.einsum("nl,nl->l", _attention_slab(trace, b), trace.H[b] @ dV.T)
                got = np.sum(dV * trace.V[b], axis=1)
                assert np.all(np.abs(got - want) <= np.sum(np.abs(dV) * bound_V[b], axis=1)), (kernel, n_tokens, b)

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    def test_large_scores_give_finite_gradients_matching_the_oracle(self, mode):
        # scale the corrected queries until the scores reach |S| = 400, so
        # most attention weights underflow to 0
        for kernel, n_tokens in SHAPES:
            enc, dec, x, y = _setup(mode, seed=5, kernel=kernel, n_tokens=n_tokens)
            qhat = corrected_queries(dec)
            c = 400.0 / np.abs(_encode(x, enc) @ qhat).max()
            if mode == "none":
                dec.Q *= c
            else:
                dec.fc_w *= c
                dec.fc_b *= c
                if mode == "add":
                    dec.Q *= c
            scores = _encode(x, enc) @ corrected_queries(dec)
            assert np.isclose(np.abs(scores).max(), 400.0)
            _, trace = forward(x, enc, dec)
            _, dlogits = bce(trace.logits, y)
            grads = backward(trace, enc, dec, dlogits)
            assert all(np.all(np.isfinite(g)) for g in grads.values())
            _assert_within(grads, _oracle_grads(x, enc, dec, dlogits),
                           _roundoff_bounds(x, enc, dec, dlogits), f"kernel {kernel} tokens {n_tokens}")

    def test_decode_peak_scales_with_one_slab(self):
        # the peak holds one block's (k, N, L) slab: one document per block,
        # then documents small enough that 32 share one
        for B, N, n_labels, d_f, k in [(64, 128, 256, 4, 1), (256, 64, 16, 1, 32)]:
            assert network._block_size(B, N, n_labels) == k
            rng = np.random.default_rng(0)
            H = np.tanh(rng.normal(size=(B, N, d_f)))
            dec = DecoderParams(Q=rng.normal(size=(d_f, n_labels)), W=rng.normal(size=(d_f, n_labels)),
                                b=np.zeros(n_labels))
            slab = 8 * k * N * n_labels
            outputs = 8 * B * n_labels * (d_f + 4)  # V, then m, s, logits and yhat
            whole_attention = 8 * B * N * n_labels
            was_tracing = tracemalloc.is_tracing()
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                decode(H, dec)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                if not was_tracing:
                    tracemalloc.stop()
            assert peak < 1.5 * (slab + outputs), (k, peak, slab + outputs)
            assert slab + outputs < whole_attention / 4

    def test_forward_backward_peak_holds_no_whole_batch_temporaries(self, monkeypatch):
        # One step holds the trace and the gradients, plus the larger of the
        # decoder backward's per-lane buffers and the encoder backward's
        # arrays.  A (B, L, d_f) dV, a second (B, N, d_f) dH, or padded copies
        # of the embeddings or their gradients break the bound.
        lanes = 2
        monkeypatch.setattr(network, "_cores", lambda: lanes)
        monkeypatch.setattr(network, "LANE_WORK_FLOOR", 0)
        B, N, d_e, d_f, s, n_labels, vocab = 32, 64, 8, 32, 3, 512, 20
        rng = np.random.default_rng(0)
        enc = init_encoder(rng, vocab, d_e, d_f, s)
        dec = DecoderParams(Q=rng.normal(size=(d_f, n_labels)), W=rng.normal(size=(d_f, n_labels)),
                            b=np.zeros(n_labels))
        x = rng.integers(0, vocab, size=(B, N))
        dlogits = rng.normal(size=(B, n_labels))
        trace = 8 * (B * N * d_f + B * n_labels * (d_f + 4))  # H; V, m, s, logits, yhat
        grads = 8 * 2 * d_f * n_labels  # W and Q; the rest are small
        # dpre, dqhat; per lane exp(scores - m), dS; [H_b | -1]; [qhat ; m_b],
        # [dV_b / s_b | c_b / s_b]; H^T dS
        decoder_backward = 8 * (B * N * d_f + d_f * n_labels
                                + lanes * (2 * N * n_labels + N * (d_f + 1)
                                           + 2 * (d_f + 1) * n_labels + n_labels * d_f))
        # dpre, then the rebuilt windows or dwindows, token gradients, their slots
        encoder_backward = 8 * B * N * (d_f + s * d_e + 2 * d_e)
        bound = 1.3 * (trace + grads + max(decoder_backward, encoder_backward))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, step_trace = forward(x, enc, dec)
            backward(step_trace, enc, dec, dlogits)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < bound, (peak, bound)
        assert trace + grads + max(decoder_backward, encoder_backward) + 8 * B * n_labels * d_f > bound

    @pytest.mark.parametrize("mode", ["none", "add", "concat"])
    def test_inspect_attention_reads_the_batched_softmax_column(self, mode):
        enc, dec, x, _ = _setup(mode, seed=3)
        codes = [f"c{j}" for j in range(L)]
        # letter-only words, as tokenize keeps letters only; id i + 2 is "w" + letter i
        vocab = Vocab([f"w{chr(ord('a') + i)}" for i in range(VOCAB - 2)], min_count=1)
        state = ModelState(encoder=enc, decoder=dec, codes=codes, vocab=vocab, max_len=x.shape[1])
        tokens = [vocab.tokens[t - 2] if t >= 2 else "unknown" for t in x[1]]  # "unknown" reads as UNK
        record = {"id": "d", "text": " ".join(tokens), "labels": []}
        assert np.array_equal(vocab.indices(tokens), x[1])
        A = _batched_softmax_forward(x[1:2], enc, dec)[1][0]
        for j, label in enumerate(codes):
            col = A[:, j]
            order = sorted(range(len(col)), key=lambda i: (-col[i], i))
            want = [(tokens[i], float(col[i])) for i in order]
            assert inspect_attention(state, record, label, top_n=len(tokens)) == want
