"""The differential chain: encoder, block-fading channel and decoders.

Transmission starts from a known identity frame and chains
X_t = U_t X_{t-1} / a_{t-1}, where a_{t-1}^2 is the scale of the previous
information codeword (U^H U = a^2 I), and frame t reaches the receiver as
R_t = X_t H + W_t.  The receiver never learns the channel: it minimises
|| R_t - U R_{t-1} / a_{t-1} ||^2 over candidate codewords, with a_{t-1}
taken from its own previous decision.

``block_frames`` runs a fading block in windows; ``draw_channel``,
``encoder_step`` and ``channel_step`` are its one-frame view, built on
the same draws and chain step.  ``decide_group`` and ``decide_exhaustive``
decide a window's frames from its correlation, ``decode_group``
(``decide_group`` on one frame) and ``decode_exhaustive`` one.

Two decoders are provided.  The exhaustive one scans all M codewords.
The group decoder exploits the cross-group anticommutation of the weight
matrices: the metric splits into four independent per-group
minimisations, dropping the scan from M to the sum of the four group
alphabet sizes (4 * M**(1/4) for identical groups).  Both share one
tie-break rule, smallest index wins, so their decisions can be compared
exactly.

Both window deciders score real coordinates.  For a scaled-unitary
linear design the metric of codeword x_m at frame t is, up to terms and
a positive factor common to all candidates, x_m . h_t + a_m, and
h_t = -2 sqrt(a_{t-1}) g_t / ||r_{t-1}||^2 with
g_t[v] = Re tr(r_t^H A_v r_{t-1}) (``_kernels`` docstring).
``correlate`` forms every g_t and ||r_{t-1}||^2 of a window at once, the
input of every decider; frame by frame only the scalar ``fold`` with the
previous decided scale stays sequential.  The exhaustive decider scans
all M coordinate rows against h_t, the group decider each group's points
against h_t's slice for that group, so both decide from the same h_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import metric_scan
from .codebook import Codebook, Codeword

#: Most frames of a block encoded, transmitted and decided in one pass.  It
#: bounds the memory of a whole-burst block; no result depends on it.
WINDOW = 256

#: Bytes per frame of the group-index draw ``block_frames`` makes for a whole
#: fading block: the (4, nf) int64 indices and their nf raveled int64 ones.
INDEX_BYTES_PER_FRAME = 40


def block_bytes(cb: Codebook, nf: int, n_r: int) -> int:
    """Bytes a fading block of ``nf`` frames holds at once while a window is
    decided: the group-index draw of the whole block, the channel and the
    reference frame's noise, and per frame of the window the composed
    codewords, their chain and the correlation product (n x n complex
    each; three codeword-sized arrays also bound the sum of the four group
    parts), the noise, the received frames, the previous frames, their
    conjugate and a transposed copy for the product (n x n_r complex each),
    and the gathered correlation taps, their sums and the scan vectors
    (K (L + 2) reals)."""
    n, (k, width) = cb.n, cb.basis_taps[0].shape
    square, column = 16 * n * n, 16 * n * n_r
    per_frame = 3 * square + 5 * column + 8 * k * (width + 2)
    return INDEX_BYTES_PER_FRAME * nf + 2 * column + min(nf, WINDOW) * per_frame


@dataclass(frozen=True, eq=False)
class EncoderState:
    x_prev: np.ndarray
    a_prev_sq: float


@dataclass(frozen=True, eq=False)
class DecodeResult:
    index: tuple[int, int, int, int]
    metric: float
    evaluations: int


@dataclass
class ChannelConfig:
    """Receive antenna count, noise level and RNG seed.

    ``noise_var`` is the variance per complex noise entry, i.e.
    noise_var/2 per real dimension.
    """

    n_r: int = 1
    noise_var: float = 1.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_r < 1:
            raise ValueError("need at least one receive antenna")
        if self.noise_var < 0:
            raise ValueError("noise variance must be nonnegative")
        self._rng = np.random.default_rng(self.seed)


def _complex_normal(rng, shape):
    """Standard normal pairs drawn as (*shape, 2), read as re + 1j * im."""
    return rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]


def _channel(rng, n: int, n_r: int) -> np.ndarray:
    """n x n_r matrix with i.i.d. CN(0, 1) entries."""
    return _complex_normal(rng, (n, n_r)) / math.sqrt(2.0)


def _chain_step(u, x_prev, root_prev, out=None):
    """X_t = U_t X_{t-1} / sqrt(a_{t-1}), with root_prev = sqrt(a_{t-1})."""
    x_t = np.dot(u, x_prev, out=out)
    x_t /= root_prev
    return x_t


def draw_channel(cfg: ChannelConfig, n: int, rng=None) -> np.ndarray:
    """n x n_r matrix with i.i.d. CN(0, 1) entries."""
    return _channel(cfg._rng if rng is None else rng, n, cfg.n_r)


def encoder_init(n: int) -> EncoderState:
    """Known reference frame: the identity, scale 1."""
    return EncoderState(x_prev=np.eye(n, dtype=np.complex128), a_prev_sq=1.0)


def encoder_step(state: EncoderState, u: Codeword):
    """Advance the chain: X_t = u / sqrt(a_prev_sq) @ X_prev.

    Returns (next_state, transmitted matrix).  The new state carries the
    scale of ``u`` so the next step divides by it.
    """
    if u.matrix.shape != state.x_prev.shape:
        raise ValueError(
            f"codeword shape {u.matrix.shape} does not match chain shape {state.x_prev.shape}"
        )
    x_t = _chain_step(u.matrix, state.x_prev, math.sqrt(state.a_prev_sq))
    return EncoderState(x_prev=x_t, a_prev_sq=float(u.scale_sq)), x_t


def channel_step(cfg: ChannelConfig, x_t: np.ndarray, h: np.ndarray, rng=None) -> np.ndarray:
    """R = X @ H + W with W i.i.d. circular complex Gaussian noise."""
    if h.shape[0] != x_t.shape[1]:
        raise ValueError(f"channel shape {h.shape} does not accept frames of shape {x_t.shape}")
    r = x_t @ h
    if cfg.noise_var > 0:
        rng = cfg._rng if rng is None else rng
        r = r + _complex_normal(rng, r.shape) * math.sqrt(cfg.noise_var / 2.0)
    return r


def block_frames(cb: Codebook, rng, nf: int, n_r: int, sigma: float):
    """Draw one fading block from ``rng`` and yield its frames window by window.

    The draws come in a fixed order: the channel, the four groups'
    indices for all ``nf`` frames, then the noise (``sigma`` per real
    dimension), reference frame first.  A frame's linear index is its
    four group indices raveled row-major over ``cb.sizes``.  Each window
    of at most ``WINDOW`` frames composes its codewords and scales from
    the group parts, runs the chain step per frame and forms its received
    frames with one batched product.  Yields ``(sent, r_prev, r)``: the
    window's sent linear indices as a list, the frame received just
    before it, and its received frames as one (w, n, n_r) array.  The
    noise is read in draw order, so no frame depends on ``WINDOW``, which
    only bounds the memory of a whole-burst block, and ``encoder_step``
    and ``channel_step`` on the same ``rng`` reproduce every frame.
    """
    n = cb.n
    h = _channel(rng, n, n_r)
    idx = rng.integers(0, np.array(cb.sizes)[:, None], (4, nf))
    lin_block = np.ravel_multi_index(idx, cb.sizes)
    r_prev = h
    x_prev = np.eye(n, dtype=np.complex128)
    root_prev = 1.0  # sqrt(a) of the reference frame
    for lo in range(0, nf, WINDOW):
        hi = min(lo + WINDOW, nf)
        window = idx[:, lo:hi]
        u = cb.compose(cb.group_stacks, window)
        x = np.empty_like(u)
        for u_t, x_t, root_t in zip(u, x, np.sqrt(cb.compose(cb.group_norms, window))):
            x_prev = _chain_step(u_t, x_prev, root_prev, x_t)
            root_prev = root_t
        r = np.matmul(x, h)
        if sigma > 0.0:
            ref = 1 if lo == 0 else 0
            noise = _complex_normal(rng, (ref + hi - lo, n, n_r)) * sigma
            if ref:
                r_prev = h + noise[0]
            r += noise[ref:]
        yield lin_block[lo:hi].tolist(), r_prev, r
        r_prev = r[-1]


def _as_receive(r, n: int) -> np.ndarray:
    r = np.ascontiguousarray(np.asarray(r, dtype=np.complex128))
    if r.ndim != 2 or r.shape[0] != n:
        raise ValueError(f"received frame must be {n} x N_R, got shape {r.shape}")
    return r


def decode_exhaustive(cb: Codebook, r_t, r_prev, a_prev_sq: float) -> DecodeResult:
    """Scan all M codewords for the minimum differential metric."""
    r_t = _as_receive(r_t, cb.n)
    r_prev = _as_receive(r_prev, cb.n)
    inv_a = 1.0 / math.sqrt(a_prev_sq)
    best, metric = metric_scan(cb.matrices, r_prev, r_t, inv_a)
    return DecodeResult(index=cb.unravel_index(best), metric=float(metric),
                        evaluations=cb.M)


def decode_group(cb: Codebook, r_t, r_prev, a_prev_sq: float) -> DecodeResult:
    """``decide_group`` on a one-frame window.

    It needs a group-decodable, scaled-unitary codebook: a failing
    grouping raises NotGroupDecodableError, then a codebook that is not
    scaled unitary ValueError (``Codebook.require_scaled_unitary``).  The
    reported metric is the full differential metric re-evaluated at the
    assembled decision, so it is directly comparable with the exhaustive
    decoder's.
    """
    cb.require_scaled_unitary()
    r_t = _as_receive(r_t, cb.n)
    r_prev = _as_receive(r_prev, cb.n)
    (lin,), _ = decide_group(cb, *correlate(cb, r_t[None], r_prev), a_prev_sq)
    idx = cb.unravel_index(lin)
    diff = r_t - (1.0 / math.sqrt(a_prev_sq)) * (cb.compose(cb.group_stacks, idx) @ r_prev)
    return DecodeResult(index=idx, metric=float(np.vdot(diff, diff).real),
                        evaluations=sum(cb.sizes))


def correlate(cb: Codebook, r, r_prev):
    """A window's correlation, once for all its frames: (g, energy), with
    row t of the (w, K) array g holding g_t[v] = Re tr(r_t^H A_v r_{t-1})
    in ``Codebook.basis`` order, and energy[t] = ||r_{t-1}||^2 as a float.

    Frame t's scan vector is then the scalar fold
    h_t = -2 sqrt(a_{t-1}) g_t / energy[t] (``fold``): the ``metric_scan``
    docstring's -2 inv_a g / c, with c = ||r_{t-1}||^2 / a_{t-1}.  One
    batched product gives every frame's O_t = conj(r_t) r_{t-1}^T, and
    ``Codebook.basis_taps`` reads g off it.
    """
    w = len(r)
    prevs = np.concatenate((r_prev[None], r[:-1]))
    outer = np.matmul(r.conj(), prevs.transpose(0, 2, 1)).reshape(w, -1).view(np.float64)
    taps, coef = cb.basis_taps
    flat = prevs.reshape(w, -1).view(np.float64)
    return np.vecdot(np.take(outer, taps, axis=1), coef), np.vecdot(flat, flat).tolist()


def fold(g_t, energy, a):
    """Frame t's h from its ``correlate`` row and energy and the decided
    scale a_{t-1}; None when r_{t-1} = 0, where every candidate ties."""
    return g_t * (-2.0 * math.sqrt(a) / energy) if energy else None


def decide_group(cb: Codebook, g, energy, a_prev_sq: float):
    """Decide a window's frames in turn from its ``correlate`` output
    ``(g, energy)``, tracking the decided scale.

    ``a_prev_sq`` belongs to the frame before the window.  Each frame
    makes one coordinate-form ``metric_scan`` per group, on the group's
    points as a (P_k, 1, K/4) table with its norms and its slice of the
    frame's h (``fold``): the call structure perfbench's traced run
    counts.  Dropping the metric's quadratic terms per group is exact for
    a scaled-unitary codebook.  Returns the decided linear indices and the
    scale of the last decision.
    """
    groups = cb.group_tables
    a, hats = a_prev_sq, []
    for g_t, e in zip(g.reshape(len(g), 4, -1), energy):
        h = fold(g_t, e, a)
        lin, a = 0, 0.0
        for h_k, (table, norms, norm_list, size) in zip(_TIED if h is None else h, groups):
            # ravels the winners row-major, sums their norms
            best = metric_scan(table, h_k, norms)
            lin, a = lin * size + best, a + norm_list[best]
        hats.append(lin)
    return hats, a


#: The four group slices of h of a frame whose previous frame is zero.
_TIED = (None,) * 4


def decide_exhaustive(cb: Codebook, g, energy, a_prev_sq: float):
    """``decide_group`` with one ``metric_scan`` of all M codewords per frame.

    The scan takes ``cb.exhaustive_table`` against the frame's h: the
    codewords' real coordinates and scales as one table, or on a large
    codebook a ``FactoredTable`` that sums the four groups' scores
    (``_kernels``), so the (M, n, n) stack is never built and the
    decisions are exact float64 ML either way; it needs a scaled-unitary
    codebook (``Codebook.require_scaled_unitary``).  The decided scale is
    summed from the winner's four group norms, as in ``decide_group``.
    """
    table, *scales = cb.exhaustive_table
    n0, n1, n2, n3 = cb.norm_lists
    a, hats = a_prev_sq, []
    for g_t, e in zip(g, energy):
        lin = metric_scan(table, fold(g_t, e, a), *scales)
        i0, i1, i2, i3 = cb.unravel_index(lin)
        a = n0[i0] + n1[i1] + n2[i2] + n3[i3]
        hats.append(lin)
    return hats, a


#: The window decision routine of each decoder name.
DECIDERS = {"group": decide_group, "exhaustive": decide_exhaustive}


def estimate_scale(u_hat: Codeword) -> float:
    """Decision-directed scale estimate: the decided codeword's scale_sq."""
    return float(u_hat.scale_sq)
