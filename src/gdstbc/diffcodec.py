"""The differential chain: encoder, block-fading channel and decoders.

Transmission starts from a known identity frame and chains
X_t = U_t X_{t-1} / a_{t-1}, where a_{t-1}^2 is the scale of the previous
information codeword (U^H U = a^2 I), and frame t reaches the receiver as
R_t = X_t H + W_t.  The receiver never learns the channel: it minimises
|| R_t - U R_{t-1} / a_{t-1} ||^2 over candidate codewords, with a_{t-1}
taken from its own previous decision.

Only X_t H reaches the receiver, so the simulator's ``window_frames``
never forms X_t: it steps Y_t = U_t Y_{t-1} / sqrt(a_{t-1}) = X_t H from
Y_0 = H.  Every weight is monomial, so U_t Y is a sum of 4 T scaled row
gathers of Y (T = 1 on the axis family, 2 on the hyperbola family), and
one window steps many fading blocks at once: O(T n n_r) per frame and a
few NumPy calls per step of all blocks, not an n x n codeword and an
n^3 product per frame.  ``draw_channel``, ``encoder_step`` and
``channel_step`` are the one-frame view on the same draws: the X chain
with dense codewords, equal to the window pass up to rounding.
``decide_group`` and ``decide_exhaustive`` decide a window's frames from
its correlation, ``decode_group`` (``decide_group`` on one frame) and
``decode_exhaustive`` one.

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
``Codebook.exhaustive_table`` against h_t (all M coordinate rows on small
codebooks; on large ones the four groups' scores and the points near
their minima), the group decider each group's points against h_t's slice
for that group, so both decide from the same h_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import metric_scan
from .codebook import Codebook, Codeword

#: Most frames one window of the window pass holds (``window_size``).  It
#: bounds the memory of a whole-burst block; no result depends on it.
WINDOW = 256

#: Most bytes of any one per-frame array of a window (``window_size``): it
#: keeps a window's correlation inside the cache at large n.
WINDOW_BYTES = 512 * 1024

#: Bytes per frame of the group-index draw ``window_frames`` makes for a
#: whole fading block: each generator's (4, nf) int64 draw and its copy in
#: the stacked (4, B, nf) array, both alive while the stack is made.
INDEX_BYTES_PER_FRAME = 64

#: Bytes ``block_bytes`` counts for each block's generator, a NumPy
#: ``default_rng`` (about 0.9 kB under ``tracemalloc``).
RNG_BYTES = 1024


def window_size(cb: Codebook, n_r: int) -> int:
    """Frames per window of the window pass: at most ``WINDOW``, and few
    enough that no per-frame array of the window, the n x n correlation
    product, its K x n taps or the gather of a frame's 4 T terms
    (``Codebook.chain_tables``; their ids, columns and units are smaller),
    passes ``WINDOW_BYTES``; at least 1."""
    n, (k, width) = cb.n, cb.basis_taps[0].shape
    terms = 4 * cb.chain_tables[1].shape[1]
    largest = max(16 * n * n, 8 * k * width, 16 * terms * n * n_r)
    return max(1, min(WINDOW, WINDOW_BYTES // largest))


def window_blocks(cb: Codebook, nf: int, n_r: int) -> int:
    """Fading blocks of ``nf`` frames that one window holds: as many whole
    blocks as fit in ``window_size`` frames, and 1 for a longer block,
    which then runs in windows of its own."""
    return max(1, window_size(cb, n_r) // nf)


def block_bytes(cb: Codebook, nf: int, n_r: int) -> int:
    """Bytes a window of ``window_frames`` holds at once while it is
    decided, for fading blocks of ``nf`` frames: ``window_blocks`` of
    them, or one in windows of ``window_size`` frames.

    Per block: its whole group-index draw, twice while the blocks' draws
    are stacked (``INDEX_BYTES_PER_FRAME``), its generator (``RNG_BYTES``),
    its channel as drawn and as stacked, the chain's and the noise's frame
    before the window, and a chain step's 4 T gathered terms (n x n_r
    complex each).  Per frame of the window:
    per term its gathered weight and coordinate (16 bytes), and per term and
    row the weight's gathered column and unit (24 bytes), its scale, their
    roots and the roots shifted by one frame (40 bytes), the
    chain Y_t, the noise that becomes R_t, the correlation's previous
    frames, their conjugate and a transposed copy for the product (n x n_r
    complex each), the n x n correlation product, and its gathered taps,
    their sums, the decisions and their comparison (K (L + 2) reals).  And
    two NumPy ufunc buffers of ``np.getbufsize()`` complex items, which a
    broadcast multiply on large frames allocates."""
    n, (k, width) = cb.n, cb.basis_taps[0].shape
    terms = 4 * cb.chain_tables[1].shape[1]
    column = 16 * n * n_r
    blocks = window_blocks(cb, nf, n_r)
    frames = blocks * min(nf, window_size(cb, n_r))
    per_block = INDEX_BYTES_PER_FRAME * nf + RNG_BYTES + (4 + terms) * column
    per_frame = terms * (16 + 24 * n) + 40 + 5 * column + 16 * n * n + 8 * k * (width + 2)
    return blocks * per_block + frames * per_frame + 32 * np.getbufsize()


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
    x_t = np.dot(u.matrix, state.x_prev)
    x_t /= math.sqrt(state.a_prev_sq)
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


def _chain(cb: Codebook, window, y_prev, root_prev):
    """The Y chain over one window of B blocks, (B, w + 1, n, n_r): frame 0
    is ``y_prev``, and frame t = U_t Y_{t-1} / sqrt(a_{t-1}) for t = 1 to w,
    with U_t from column t - 1 of the window's (4, B, w) group indices and
    sqrt(a_{t-1}) from column t - 1 of ``root_prev``.

    Each frame's 4 T terms (``Codebook.chain_tables``) are gathered for the
    whole window at once: their weights, those weights' rows in the flat
    view of the time-major chain, and their factors, coordinate times unit,
    over sqrt(a_{t-1}).  A step is then one row gather of the blocks'
    previous Y, a multiply and a sum over the terms.
    """
    _, b, w = window.shape
    n, n_r = y_prev.shape[-2:]
    offsets, ids, coords = cb.chain_tables
    cols, units = cb.basis_monomial
    point = (window + offsets[:, None, None]).transpose(2, 1, 0)
    weight = ids[point]
    rows = cols[weight].reshape(w, b, -1, n)
    rows += ((np.arange(w)[:, None] * b + np.arange(b)) * n)[:, :, None, None]
    scaled = units[weight].reshape(w, b, -1, n, 1)
    scaled *= coords[point].reshape(w, b, -1, 1, 1)
    scaled /= root_prev.T[:, :, None, None, None]
    y = np.empty((w + 1, b, n, n_r), dtype=np.complex128)
    y[0] = y_prev
    flat = y.reshape(-1, n_r)
    for rows_t, scaled_t, y_t in zip(rows, scaled, y[1:]):
        terms = flat[rows_t]
        terms *= scaled_t
        np.add.reduce(terms, axis=1, out=y_t)
    return y.swapaxes(0, 1)


def window_frames(cb: Codebook, rngs, nf: int, n_r: int, sigma: float):
    """Draw one fading block of ``nf`` frames from each generator of
    ``rngs`` and yield their frames window by window.

    Each block draws in a fixed order: the channel H, the four groups'
    indices for all ``nf`` frames, then the noise Z (``sigma`` per real
    dimension), reference frame first.  The B blocks run
    together through the receiver-side chain Y_0 = H,
    Y_t = U_t Y_{t-1} / sqrt(a_{t-1}) = X_t H (``_chain``), which applies
    each codeword as the row gathers of its partial codewords' monomial
    terms, so no n x n codeword is formed, and R_t = Y_t + Z_t.  A window
    holds ``window_size`` frames of each block, all of them for the
    ``window_blocks`` of a window.  Yields ``(sent, r_prev, r)``: the
    window's sent group indices as a (4, B, w) array, the frames received
    just before it, (B, n, n_r), and its received frames, (B, w, n, n_r).
    Every block's frames depend on its own draws only, whatever B or
    ``window_size``.
    """
    n = cb.n
    h = np.stack([_channel(rng, n, n_r) for rng in rngs])
    # equal sizes as one scalar bound: the same draws, without NumPy's slower
    # broadcast-bound path
    sizes = cb.sizes[0] if len(set(cb.sizes)) == 1 else np.array(cb.sizes)[:, None]
    idx = np.stack([rng.integers(0, sizes, (4, nf)) for rng in rngs], axis=1)
    y_prev, r_prev = h, None
    root_prev = np.ones((len(rngs), 1))  # sqrt(a) of the reference frame
    step = window_size(cb, n_r)
    for lo in range(0, nf, step):
        window = idx[:, :, lo:lo + step]
        roots = np.sqrt(cb.compose(cb.group_norms, window))
        y = _chain(cb, window, y_prev, np.concatenate((root_prev, roots[:, :-1]), axis=1))
        # copies, so that no carried frame keeps a window's arrays alive
        y_prev, root_prev = y[:, -1].copy(), roots[:, -1:]
        if sigma > 0.0:
            ref = r_prev is None
            z = np.empty((len(rngs), y.shape[1] - 1 + ref, n, n_r, 2))
            for rng, z_b in zip(rngs, z):
                rng.standard_normal(out=z_b)
            z *= sigma
            r = z.view(np.complex128)[..., 0]
            r += y[:, 1 - ref:]
            if ref:
                r_prev, r = r[:, 0], r[:, 1:]
        else:
            r_prev, r = y[:, 0], y[:, 1:]
        yield window, r_prev, r
        r_prev = r[:, -1].copy()


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

    It needs a group-decodable, scaled-unitary codebook: a design that
    fails the cross-group anticommutation check raises
    NotGroupDecodableError, then a codebook that is not scaled unitary
    ValueError (``Codebook.require_scaled_unitary``).  The
    reported metric is the full differential metric
    || r_t - S_m r_prev / sqrt(a) ||^2 at the assembled decision m, so it is
    directly comparable with the exhaustive decoder's.  It is read off the
    correlation the decision used, in the coordinate form
    ||r_t||^2 + energy / a * a_m - 2 / sqrt(a) * (x_m . g) (``correlate``),
    with a = ``a_prev_sq`` and x_m the decision's four group points in
    ``Codebook.basis`` order.
    """
    cb.require_scaled_unitary()
    r_t = _as_receive(r_t, cb.n)
    r_prev = _as_receive(r_prev, cb.n)
    g, energy = correlate(cb, r_t[None], r_prev)
    hats, a_m = decide_group(cb, g, energy, a_prev_sq)
    idx = tuple(hats)
    x = np.concatenate([points[i] for points, i in zip(cb.alphabets, idx)])
    metric = (np.vdot(r_t, r_t).real + energy[0] / a_prev_sq * a_m
              - 2.0 / math.sqrt(a_prev_sq) * float(np.dot(x, g[0])))
    return DecodeResult(index=idx, metric=float(metric), evaluations=sum(cb.sizes))


def correlate(cb: Codebook, r, r_prev):
    """A window's correlation, once for all its frames: (g, energy), with
    row t of the (w, K) array g holding g_t[v] = Re tr(r_t^H A_v r_{t-1})
    in ``Codebook.basis`` order, and energy[t] = ||r_{t-1}||^2 as a float.
    Leading axes batch windows: r of shape (B, w, n, n_r) and r_prev of
    (B, n, n_r) give a (B, w, K) g and B lists of energies.

    Frame t's scan vector is then the scalar fold
    h_t = -2 sqrt(a_{t-1}) g_t / energy[t] (``fold``): the ``metric_scan``
    docstring's -2 inv_a g / c, with c = ||r_{t-1}||^2 / a_{t-1}.  One
    batched product gives every frame's O_t = conj(r_t) r_{t-1}^T, and
    ``Codebook.basis_taps`` reads g off it.
    """
    prevs = np.concatenate((r_prev[..., None, :, :], r[..., :-1, :, :]), axis=-3)
    outer = np.matmul(r.conj(), prevs.swapaxes(-1, -2))
    outer = outer.reshape(*outer.shape[:-2], -1).view(np.float64)
    taps, coef = cb.basis_taps
    flat = prevs.reshape(*prevs.shape[:-2], -1).view(np.float64)
    return np.vecdot(np.take(outer, taps, axis=-1), coef), np.vecdot(flat, flat).tolist()


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
    a scaled-unitary codebook.  Returns the decided group indices, frame
    t's four at 4 t to 4 t + 3 of one list, and the scale of the last
    decision, its four winners' norms summed in group order.
    """
    groups = cb.group_tables
    a, hats = a_prev_sq, []
    for g_t, e in zip(g.reshape(len(g), 4, -1), energy):
        h = fold(g_t, e, a)
        a = 0.0
        for h_k, (table, norms, norm_list) in zip(_TIED if h is None else h, groups):
            best = metric_scan(table, h_k, norms)
            hats.append(best)
            a += norm_list[best]
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
    codebook (``Codebook.require_scaled_unitary``).  The scan returns the
    winner's row of the table, unravelled at once into its four group
    indices, which are returned as in ``decide_group``, and the decided
    scale is summed from the winner's four group norms.
    """
    table, *scales = cb.exhaustive_table
    n0, n1, n2, n3 = cb.norm_lists
    a, hats = a_prev_sq, []
    for g_t, e in zip(g, energy):
        i0, i1, i2, i3 = cb.unravel_index(metric_scan(table, fold(g_t, e, a), *scales))
        a = n0[i0] + n1[i1] + n2[i2] + n3[i3]
        hats += i0, i1, i2, i3
    return hats, a


#: The window decision routine of each decoder name.
DECIDERS = {"group": decide_group, "exhaustive": decide_exhaustive}


def estimate_scale(u_hat: Codeword) -> float:
    """Decision-directed scale estimate: the decided codeword's scale_sq."""
    return float(u_hat.scale_sq)
