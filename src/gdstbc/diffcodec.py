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
decide a window's frames, ``decode_group`` and ``decode_exhaustive`` one.

Two decoders are provided.  The exhaustive one scans all M codewords.
The group decoder exploits the cross-group anticommutation of the weight
matrices: the metric splits into four independent per-group
minimisations, dropping the scan from M to the sum of the four group
alphabet sizes (4 * M**(1/4) for identical groups).  Both share one
tie-break rule, smallest index wins, so their decisions can be compared
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import metric_scan, metric_values
from .codebook import Codebook, Codeword

#: Most frames of a block encoded and transmitted in one pass.  It bounds
#: the memory of a whole-burst block; no result depends on it.
WINDOW = 256

#: Bytes per frame of the group-index draw ``block_frames`` makes for a whole
#: fading block: the (4, nf) int64 indices and their nf raveled int64 ones.
INDEX_BYTES_PER_FRAME = 40


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
    """Per-group metric minimisation; needs a group-decodable codebook.

    An unchecked codebook is checked on demand, and a failing grouping
    raises NotGroupDecodableError.  Each group's winner is found against
    that group's partial codewords, first index on ties.  All four groups'
    metrics come from one NumPy pass over ``cb.partials``, which costs
    less per call than ``decide_group``'s four scans.  The reported metric
    is the full differential metric re-evaluated at the assembled
    decision, so it is directly comparable with the exhaustive decoder's.
    """
    cb.require_group_decodable()
    r_t = _as_receive(r_t, cb.n)
    r_prev = _as_receive(r_prev, cb.n)
    inv_a = 1.0 / math.sqrt(a_prev_sq)
    metrics = metric_values(cb.partials, r_prev, r_t, inv_a)
    idx, lo = [], 0
    for size in cb.sizes:
        idx.append(int(metrics[lo:lo + size].argmin()))
        lo += size
    diff = r_t - inv_a * (cb.compose(cb.group_stacks, idx) @ r_prev)
    return DecodeResult(index=tuple(idx), metric=float(np.vdot(diff, diff).real),
                        evaluations=len(metrics))


def decide_group(cb: Codebook, r, r_prev, a_prev_sq: float):
    """Decide a window's frames ``r`` in turn, tracking the decided scale.

    ``r_prev`` and ``a_prev_sq`` belong to the frame before the window.
    Each frame makes one ``metric_scan`` per group stack, the call
    structure perfbench's traced run counts.  Returns the decided linear
    indices and the scale of the last decision.
    """
    groups = tuple(zip(cb.group_stacks, cb.sizes, cb.norm_lists))
    a, prev, hats = a_prev_sq, r_prev, []
    for r_t in r:
        inv_a = 1.0 / math.sqrt(a)
        lin, a = 0, 0.0
        for stack, size, norms in groups:  # ravels the winners row-major, sums their norms
            best = metric_scan(stack, prev, r_t, inv_a)[0]
            lin, a = lin * size + best, a + norms[best]
        hats.append(lin)
        prev = r_t
    return hats, a


def decide_exhaustive(cb: Codebook, r, r_prev, a_prev_sq: float):
    """``decide_group`` with one ``metric_scan`` of all M codewords per frame.

    The scan takes ``cb.exhaustive_table``, the codewords' real
    coordinates and scales, with ``basis``, so the (M, n, n) stack is
    never built; it needs a scaled-unitary codebook
    (``Codebook.require_scaled_unitary``).  On a float32 table the kernel
    re-scores its candidates in float64 (``coordinate_metrics``), so the
    decisions stay exact ML.  The decided scale is summed from the
    winner's four group norms, as in ``decide_group``.
    """
    table, scales = cb.exhaustive_table
    extra = (cb.basis, cb.coordinate_metrics, cb.scale_max)
    (n0, n1, n2, n3), (_, s1, s2, s3) = cb.norm_lists, cb.sizes
    a, prev, hats = a_prev_sq, r_prev, []
    for r_t in r:
        lin, _ = metric_scan(table, prev, r_t, 1.0 / math.sqrt(a), scales, *extra)
        rest, i3 = divmod(lin, s3)
        rest, i2 = divmod(rest, s2)
        i0, i1 = divmod(rest, s1)
        a = n0[i0] + n1[i1] + n2[i2] + n3[i3]
        hats.append(lin)
        prev = r_t
    return hats, a


#: The window decision routine of each decoder name.
DECIDERS = {"group": decide_group, "exhaustive": decide_exhaustive}


def estimate_scale(u_hat: Codeword) -> float:
    """Decision-directed scale estimate: the decided codeword's scale_sq."""
    return float(u_hat.scale_sq)
