"""Encoder / per-label-attention decoder with hand-derived gradients.

The encoder is a single same-padded 1-D convolution with tanh over word
embeddings, producing H of shape (N, d_f).  The decoder computes one
softmax-over-tokens attention column per label from a query matrix that
may be corrected with the hyperbolic label rows the decoder holds, then
applies a linear layer with sum pooling and a sigmoid.

All arrays are float64 but the token ids, which may be any integer type
(``hicu.data`` gives int32).  Token input is always a (B, N) batch of
equal-length documents; a lone document is ``x[None]``.

The encoder builds the (B, N, s*d_e) windows, which one ``np.take`` fills
straight from the embedding table (the padding slots are zeroed, so no
(B, N, d_e) gather or padded copy is made), and H, which the conv matmul
writes and the bias add and tanh update in place.  The trace keeps H but
not the windows: backward rebuilds them from the tokens just before the
kernel gradient, from the same embedding table, so they have the same bits.
Backward turns dH into dpre in place and sums the window gradients into a
(B, N, d_e) array in slot order from 0.0, which keeps the bits of a sum over
a padded array.

The decoder's attention works on blocks of k consecutive documents, in
one reused (k, N, L) buffer per lane, with k = SLAB_BYTES // (8*N*L) (at
least 1, at most B) so the block's slab stays in cache.  Each operation
below is one batched numpy call per block, so a batch of small documents
pays for a few calls rather than a few per document.  Decode passes over a
block's slab with the score matmul, the token-axis max m, the subtraction of
m, the exp and the sum s.  It then pools the unnormalised slab
E = exp(scores - m) and divides the (L, d_f) result by s, instead of
dividing the slab.  The (B, N, L) attention is never stored: the trace
keeps m and s, two (B, L) arrays.  Backward rebuilds each block's E as
exp([H | -1] @ [qhat ; m]), one matmul and one exp.  It takes the softmax
correction sum_n A * dA from V instead of the slab (FlashAttention-2's
D term, rowsum(dV * V)) and folds it and the 1/s into one more matmul, so
it makes two elementwise passes (the exp and one product) on top of its
five slab matmuls.  The attention inspector's ``_attention_slab`` divides
the slab as a batched softmax would.  Deferring the division and folding
-m into the matmul move the low-order bits of V, the logits and every
gradient against a softmax-then-pool evaluation.

Decode and the attention backward split a batch's blocks across worker
lanes, one per CPU the process may use and at most one per block (the
per-row split of FlashAttention-2).  Lane w takes blocks w, w+n, w+2n, ...;
lane 0 runs on the calling thread and the others on threads started for
the call and joined before it returns, which call numpy only, never a
public function of the package.  Each lane has its own buffers, allocated
by the calling thread so they come from the arena the encoder backward
reuses, and writes only its own documents' rows of m, s, V and dpre.
A block's per-document H^T dS go into its lane's (k, d_f, L) buffer and are
added into dqhat one document at a time, only after the previous block's
adds, so dqhat is summed in document order from 0.0 at any lane count and
block size.  The other block operations give each document the bits of a
per-document call (a batched matmul is one GEMM per document).  The encoder and kernel-gradient GEMMs stay on
the calling thread.  Below a document's N*L*d_f work of LANE_WORK_FLOOR one
lane runs inline.  So the bits depend on neither the lane count nor the
block size; with one BLAS thread (the CLI pins it) they do not depend on the
core count either.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .losses import sigmoid

CORRECTION_MODES = ("none", "add", "concat")

# A document's attention work N*L*d_f below which decode and backward run
# their documents inline.  On two lanes, one BLAS thread and the 2-core
# x86_64 VM, a forward-backward step at the reference shape (N*L*d_f = 249k)
# went from 3.5-4.3 to 3.9-4.3 ms, and at paper-wide's leaf level (4.5M)
# from 46-56 to 27-32 ms.
LANE_WORK_FLOOR = 2**20

# The bytes of a block's (k, N, L) float64 slab: decode and backward take
# k = SLAB_BYTES // (8*N*L) documents per numpy call, at least 1 and at most B.
# scripts/slab_sweep.py, one BLAS thread, 2-core x86_64 VM, B = 16: a
# forward-backward step from one document per block to 256 KiB went at
# reference L = 3 from 1.26 to 0.67 ms (k = 16), L = 81 1.75 -> 1.62 (k = 6),
# L = 214 3.18 -> 2.53 (k = 2), and at paper-wide L = 5 5.28 -> 4.86 (k = 16).
# At 1 MiB the reference leaf (k = 9) took 2.95 ms.
SLAB_BYTES = 256 * 2**10


@dataclass
class EncoderParams:
    embedding: np.ndarray  # (|vocab|, d_e)
    kernel: np.ndarray  # (s, d_e, d_f)
    bias: np.ndarray  # (d_f,)

    def __post_init__(self):
        s = self.kernel.shape[0]
        if s % 2 == 0:
            raise ValueError("kernel width must be odd for same padding")
        if self.kernel.shape[2] < 1:
            raise ValueError("d_f must be >= 1")

    @property
    def d_f(self) -> int:
        return self.kernel.shape[2]


@dataclass
class DecoderParams:
    Q: np.ndarray  # (d_f, L)
    W: np.ndarray  # (d_f, L)
    b: np.ndarray  # (L,)
    mode: str = "none"
    fc_w: np.ndarray | None = None  # add: (d_f, d_h); concat: (d_f, d_f + d_h)
    fc_b: np.ndarray | None = None  # (d_f,)
    E_h: np.ndarray | None = None  # (L, d_h) hyperbolic label rows of a correction; not trained

    def __post_init__(self):
        if self.mode not in CORRECTION_MODES:
            raise ValueError(f"unknown correction mode {self.mode!r}")
        d_f, L = self.Q.shape
        if self.W.shape[1] != L or self.b.shape[0] != L:
            raise ValueError("Q, W and b must agree on the label count")
        if self.mode == "none":
            return
        if self.fc_w is None or self.fc_b is None:
            raise ValueError(f"correction mode {self.mode!r} requires a transform")
        if self.E_h is None:
            raise ValueError(f"correction mode {self.mode!r} requires hyperbolic rows")
        if self.E_h.shape[0] != L:
            raise ValueError("hyperbolic row count must match the label count")
        d_in = self.E_h.shape[1] + (d_f if self.mode == "concat" else 0)
        if self.fc_w.shape != (d_f, d_in):
            raise ValueError(f"transform shape mismatch for mode {self.mode}")

    @property
    def n_labels(self) -> int:
        return self.Q.shape[1]


@dataclass
class ForwardTrace:
    x: np.ndarray  # (B, N) token indices
    H: np.ndarray  # (B, N, d_f)
    qhat: np.ndarray  # (d_f, L)
    m: np.ndarray  # (B, L) per-label max of the scores over tokens
    s: np.ndarray  # (B, L) per-label sum of exp(scores - m) over tokens
    V: np.ndarray  # (B, L, d_f)
    logits: np.ndarray  # (B, L)


def xavier_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_encoder(
    rng: np.random.Generator,
    vocab_size: int,
    d_e: int,
    d_f: int,
    kernel_size: int,
    embedding: np.ndarray | None = None,
) -> EncoderParams:
    if embedding is None:
        embedding = rng.uniform(-0.1, 0.1, size=(vocab_size, d_e))
        embedding[0] = 0.0  # PAD row
    elif np.shape(embedding) != (vocab_size, d_e):
        raise ValueError(f"embedding has shape {np.shape(embedding)}, expected (vocab_size, d_e) = "
                         f"{(vocab_size, d_e)}")
    else:
        embedding = np.array(embedding, dtype=np.float64)  # a copy: training updates it in place
    kernel = xavier_uniform(
        rng, (kernel_size, d_e, d_f), fan_in=kernel_size * d_e, fan_out=d_f
    )
    return EncoderParams(
        embedding=embedding,
        kernel=kernel,
        bias=np.zeros(d_f),
    )


def init_fc(rng: np.random.Generator, d_f: int, d_h: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    d_in = d_h if mode == "add" else d_f + d_h
    return xavier_uniform(rng, (d_f, d_in), fan_in=d_in, fan_out=d_f), np.zeros(d_f)


def _im2col(x: np.ndarray, embedding: np.ndarray, s: int) -> np.ndarray:
    """Zero-padded sliding windows of the embedded tokens: (B, N) -> (B, N, s*d_e).

    One ``np.take`` gathers every slot of every window straight into the
    window array; the slots that fall in the padding are then zeroed."""
    B, N = x.shape
    d_e = embedding.shape[1]
    half = s // 2
    xpad = np.zeros((B, N + 2 * half), dtype=np.intp)
    xpad[:, half : half + N] = x
    cols = np.empty((B, N, s, d_e))
    np.take(embedding, xpad[:, np.arange(N)[:, None] + np.arange(s)], axis=0, out=cols, mode="clip")
    for j in range(s):  # slot j of window t reads token t + j - half
        cols[:, : max(0, half - j), j] = 0.0
        cols[:, max(0, N + half - j) :, j] = 0.0
    return cols.reshape(B, N, s * d_e)


def _encode(x: np.ndarray, enc: EncoderParams) -> np.ndarray:
    """H = tanh(conv1d_same(embed(x))) of a (B, N) batch; returns (B, N, d_f)."""
    if np.ndim(x) != 2:
        raise ValueError("token input must be a (B, N) batch")
    if x.size and (int(x.min()) < 0 or int(x.max()) >= enc.embedding.shape[0]):
        raise ValueError("token index out of vocabulary range")
    s = enc.kernel.shape[0]
    windows = _im2col(x, enc.embedding, s)
    H = windows @ enc.kernel.reshape(s * enc.kernel.shape[1], enc.d_f)
    H += enc.bias
    return np.tanh(H, out=H)


def corrected_queries(dec: DecoderParams) -> np.ndarray:
    """The decoder's query matrix, corrected with its hyperbolic rows E_h.

    add:    qhat_c = q_c + fc(e_c)
    concat: qhat_c = fc(q_c ++ e_c)
    """
    if dec.mode == "none":
        return dec.Q
    if dec.mode == "add":
        return dec.Q + dec.fc_w @ dec.E_h.T + dec.fc_b[:, None]
    d_f = dec.Q.shape[0]
    wq, we = dec.fc_w[:, :d_f], dec.fc_w[:, d_f:]
    return wq @ dec.Q + we @ dec.E_h.T + dec.fc_b[:, None]


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _block_size(B: int, N: int, L: int) -> int:
    """Documents per block: as many (N, L) float64 slabs as fit in SLAB_BYTES,
    at least one and at most the batch."""
    return max(1, min(B, SLAB_BYTES // (8 * N * L)))


def _lane_count(B: int, N: int, L: int, d_f: int) -> int:
    """Worker lanes for a batch: one per core, at most one per block, and
    one when a document's N*L*d_f attention work is below LANE_WORK_FLOOR."""
    if N * L * d_f < LANE_WORK_FLOOR:
        return 1
    return max(1, min(_cores(), -(-B // _block_size(B, N, L))))


def _run_lanes(lane, n: int, done: list[threading.Event] | None, *args) -> None:
    """Run ``lane(w, n, done, *args)`` for w = 0..n-1: lane 0 on the calling
    thread, the others on threads started for this call and joined before it
    returns.  Lane w takes blocks w, w+n, w+2n, ...  When a lane ends,
    raised or not, its blocks' events are set, so no lane waits forever on
    another; the first lane's error is re-raised here once every lane has
    stopped.

    Each lane's thread is held to its own CPU while it runs, and the calling
    thread gets its CPUs back afterwards.  Left to itself, the scheduler kept
    a new lane thread on its creator's core for about a second (2-core x86_64
    VM), a third of a paper-wide training run."""
    if n == 1:
        lane(0, 1, done, *args)
        return
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    errors: list[BaseException | None] = [None] * n

    def run(w):
        try:
            if cpus:
                os.sched_setaffinity(0, {cpus[w % len(cpus)]})
            lane(w, n, done, *args)
        except BaseException as exc:  # handed to the calling thread
            errors[w] = exc
        finally:
            if done is not None:
                for event in done[w::n]:
                    event.set()

    threads = [threading.Thread(target=run, args=(w,), name="hicu-lane") for w in range(1, n)]
    for thread in threads:
        thread.start()
    run(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _blocks(w: int, n: int, k: int, B: int):
    """Lane w's blocks of k consecutive documents: (block index, first
    document, last document + 1), for blocks w, w+n, w+2n, ..."""
    for j in range(w, -(-B // k), n):
        yield j, j * k, min(j * k + k, B)


def _decode_lane(w, n, done, k, H, qhat, m, s, V, slabs) -> None:
    E = slabs[w]  # a block's scores, turned into exp(scores - m) in place
    for _, lo, hi in _blocks(w, n, k, len(H)):
        if hi - lo < k:  # the batch's last block
            E = E[: hi - lo]
        Hb, mb, sb, Vb = H[lo:hi], m[lo:hi], s[lo:hi], V[lo:hi]
        np.matmul(Hb, qhat, out=E)
        E.max(axis=1, out=mb)
        E -= mb[:, None]
        np.exp(E, out=E)
        E.sum(axis=1, out=sb)
        np.matmul(E.transpose(0, 2, 1), Hb, out=Vb)
        Vb /= sb[:, :, None]  # the softmax division, on (L, d_f) instead of the slab


def decode(H: np.ndarray, dec: DecoderParams) -> tuple[np.ndarray, dict]:
    """Per-label attention, linear layer and sum pooling of a (B, N, d_f) H.

    Returns (yhat, partial trace); the trace holds qhat, the softmax
    statistics m and s, V and the logits.  The softmax runs along the token
    axis so each label's attention column sums to 1; its division is
    applied to the pooled V.
    """
    qhat = corrected_queries(dec)
    B, N, d_f = H.shape
    L = qhat.shape[1]
    m = np.empty((B, L))
    s = np.empty((B, L))
    V = np.empty((B, L, d_f))
    k = _block_size(B, N, L)
    n = _lane_count(B, N, L, d_f)
    _run_lanes(_decode_lane, n, None, k, H, qhat, m, s, V, [np.empty((k, N, L)) for _ in range(n)])
    w_sum = dec.W.sum(axis=1)  # sum pooling of Z = V W collapses W to row sums
    logits = V @ w_sum + dec.b
    yhat = sigmoid(logits)
    return yhat, {"qhat": qhat, "m": m, "s": s, "V": V, "logits": logits}


def _attention_slab(trace: ForwardTrace, b: int) -> np.ndarray:
    """Document b's (N, L) attention exp(H qhat - m) / s, rebuilt from the
    trace's softmax statistics with decode's score and exp operations, then
    divided, so it has the bits of a softmax over the whole batch's scores."""
    out = trace.H[b] @ trace.qhat
    out -= trace.m[b]
    np.exp(out, out=out)
    out /= trace.s[b]
    return out


def forward(x: np.ndarray, enc: EncoderParams, dec: DecoderParams) -> tuple[np.ndarray, ForwardTrace]:
    """Full forward pass of a (B, N) batch; returns (B, L) sigmoid outputs
    and a trace for backward."""
    H = _encode(x, enc)
    yhat, partial = decode(H, dec)
    trace = ForwardTrace(x=x, H=H, **partial)
    return yhat, trace


def _backward_buffers(k: int, N: int, d_f: int, qhat: np.ndarray) -> tuple[np.ndarray, ...]:
    """One lane's buffers for backward, for blocks of up to k documents."""
    L = qhat.shape[1]
    H1 = np.full((k, N, d_f + 1), -1.0)  # [H_b | -1]
    qm = np.empty((k, d_f + 1, L))  # [qhat ; m_b]
    qm[:, :d_f] = qhat
    G = np.empty((k, L, d_f + 1))  # [dV_b / s_b | c_b / s_b]
    return H1, qm, G, np.empty((k, N, L)), np.empty((k, N, L)), np.empty((k, d_f, L))


def _backward_lane(w, n, done, k, trace, dY, w_sum, dpre, dqhat, buffers) -> None:
    # V = A^T H, A = E / s with E = exp(H qhat - m), per document.  With
    # dA = H dV^T the softmax gives dS = A * (dA - c), where
    # c[l] = sum_n A dA = dV[l] . V[l] (FlashAttention-2's D term), so
    #   dS = E * ([H | -1] @ [dV / s | c / s]^T),  dH = E @ (dV / s) + dS @ qhat^T
    # and the slab sees two elementwise passes: the exp and the product.
    # The -1 column gives -m and -c as exact products inside the matmuls.
    # Block j's H^T dS are added into dqhat one document at a time, after
    # block j-1's, so dqhat is summed in document order at any lane count.
    d_f = trace.H.shape[2]
    H1, qm, G, E, dS, HdS = buffers[w]
    for j, lo, hi in _blocks(w, n, k, len(dY)):
        if hi - lo < k:  # the batch's last block
            H1, qm, G, E, dS, HdS = (a[: hi - lo] for a in buffers[w])
        Hb, mb, sb, dHb = trace.H[lo:hi], trace.m[lo:hi], trace.s[lo:hi], dpre[lo:hi]
        dVs = G[:, :, :d_f]
        H1[:, :, :d_f] = Hb
        qm[:, d_f] = mb
        np.exp(np.matmul(H1, qm, out=E), out=E)
        np.multiply((dY[lo:hi] / sb)[:, :, None], w_sum, out=dVs)
        np.einsum("kld,kld->kl", dVs, trace.V[lo:hi], out=G[:, :, d_f])
        np.matmul(H1, G.transpose(0, 2, 1), out=dS)
        dS *= E
        np.matmul(E, dVs, out=dHb)
        np.matmul(Hb.transpose(0, 2, 1), dS, out=HdS)
        if done is not None and j > 0:
            done[j - 1].wait()
        for b in range(hi - lo):
            dqhat += HdS[b]
        if done is not None:
            done[j].set()
        dHb += dS @ trace.qhat.T
        dHb *= 1.0 - Hb**2


def backward(
    trace: ForwardTrace, enc: EncoderParams, dec: DecoderParams, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of a scalar loss given its gradient w.r.t. the logits.

    Returns a dict with keys Q, W, b, kernel, bias, embedding and, under a
    hyperbolic correction, fc_w and fc_b.
    """
    dY = np.asarray(dlogits, dtype=np.float64)
    B, N, d_f = trace.H.shape
    L = dec.n_labels
    if dY.shape != (B, L):
        raise ValueError("dlogits shape does not match the trace")

    w_sum = dec.W.sum(axis=1)
    # logits = V @ w_sum + b, so dV[b] = dY[b, :, None] * w_sum
    dw_sum = dY.reshape(-1) @ trace.V.reshape(-1, d_f)
    dW = np.repeat(dw_sum[:, None], L, axis=1)  # every column of W gets the same grad
    db = dY.sum(axis=0)

    k = _block_size(B, N, L)
    n = _lane_count(B, N, L, d_f)
    dpre = np.empty_like(trace.H)  # dH, taken through H = tanh(pre) in place
    dqhat = np.zeros((d_f, L))
    done = [threading.Event() for _ in range(-(-B // k))] if n > 1 else None
    _run_lanes(_backward_lane, n, done, k, trace, dY, w_sum, dpre, dqhat,
               [_backward_buffers(k, N, d_f, trace.qhat) for _ in range(n)])  # freed before the encoder's arrays

    grads: dict[str, np.ndarray] = {"W": dW, "b": db, "Q": dqhat}
    if dec.mode == "add":
        grads["fc_w"] = dqhat @ dec.E_h
    elif dec.mode == "concat":
        grads["Q"] = dec.fc_w[:, :d_f].T @ dqhat
        grads["fc_w"] = np.concatenate([dqhat @ dec.Q.T, dqhat @ dec.E_h], axis=1)
    if dec.mode != "none":
        grads["fc_b"] = dqhat.sum(axis=1)

    # H = tanh(windows @ kflat + bias)
    s, d_e = enc.kernel.shape[0], enc.kernel.shape[1]
    kflat = enc.kernel.reshape(s * d_e, d_f)
    windows = _im2col(trace.x, enc.embedding, s)  # the trace does not keep them
    dkflat = windows.reshape(B * N, -1).T @ dpre.reshape(-1, d_f)
    del windows
    grads["kernel"] = dkflat.reshape(s, d_e, d_f)
    grads["bias"] = dpre.sum(axis=(0, 1))

    # each token's gradient sums its window slots in slot order from 0.0
    dwindows = np.matmul(dpre, kflat.T).reshape(B, N, s, d_e)
    half = s // 2
    demb = np.zeros((B, N, d_e))
    for j in range(s):  # slot j of window t reads token t + j - half
        lo, hi = max(0, half - j), min(N, N + half - j)
        if lo < hi:
            demb[:, lo + j - half : hi + j - half] += dwindows[:, lo:hi, j]
    # scatter-add by token, as one bincount over (token, column) slots; it sums
    # each slot in order of occurrence from 0.0, so it gives np.add.at's bits.
    # The ids are widened first: an int32 id times d_e may pass 2**31.
    slots = (trace.x.astype(np.intp).reshape(-1, 1) * d_e + np.arange(d_e)).ravel()
    vocab = enc.embedding.shape[0]
    grads["embedding"] = np.bincount(slots, weights=demb.ravel(), minlength=vocab * d_e).reshape(vocab, d_e)
    return grads


@dataclass
class AdamState:
    """Adam accumulators for a named parameter collection."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], adam: AdamState) -> None:
    """One bias-corrected Adam update, in place on the parameter dict."""
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        if params[name].shape != grad.shape:
            raise ValueError(f"gradient shape mismatch for parameter {name!r}")
    adam.t += 1
    b1, b2 = adam.beta1, adam.beta2
    c1, c2 = 1.0 - b1**adam.t, 1.0 - b2**adam.t
    for name, grad in grads.items():
        if name not in adam.m:
            adam.m[name] = np.zeros_like(params[name])
            adam.v[name] = np.zeros_like(params[name])
        m, v = adam.m[name], adam.v[name]
        # in place, with the bits of m += (1-b1) g; v += (1-b2) g g;
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        m *= b1
        tmp = (1.0 - b1) * grad
        m += tmp
        v *= b2
        np.multiply(grad, 1.0 - b2, out=tmp)
        tmp *= grad
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += adam.eps
        upd = m / c1
        upd *= adam.lr
        upd /= tmp
        params[name] -= upd


def encoder_param_dict(enc: EncoderParams) -> dict[str, np.ndarray]:
    return {"kernel": enc.kernel, "bias": enc.bias, "embedding": enc.embedding}


def decoder_param_dict(dec: DecoderParams) -> dict[str, np.ndarray]:
    out = {"Q": dec.Q, "W": dec.W, "b": dec.b}
    if dec.mode != "none":
        out["fc_w"] = dec.fc_w
        out["fc_b"] = dec.fc_b
    return out
