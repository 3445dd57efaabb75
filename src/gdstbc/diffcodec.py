"""Differential encoder, block-fading channel, and the two decoders.

Transmission starts from a known identity frame and chains
X_t = U_t X_{t-1} / a_{t-1}, where a_{t-1}^2 is the scale of the previous
information codeword (U^H U = a^2 I).  The receiver never learns the
channel: it minimises || R_t - U R_{t-1} / a_{t-1} ||^2 over candidate
codewords, with a_{t-1} taken from its own previous decision.

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


def draw_channel(cfg: ChannelConfig, n: int, rng=None) -> np.ndarray:
    """n x n_r matrix with i.i.d. CN(0, 1) entries."""
    rng = cfg._rng if rng is None else rng
    z = rng.standard_normal((n, cfg.n_r, 2))
    return (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)


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
    x_t = (u.matrix @ state.x_prev) / math.sqrt(state.a_prev_sq)
    return EncoderState(x_prev=x_t, a_prev_sq=float(u.scale_sq)), x_t


def channel_step(cfg: ChannelConfig, x_t: np.ndarray, h: np.ndarray, rng=None) -> np.ndarray:
    """R = X @ H + W with W i.i.d. circular complex Gaussian noise."""
    if h.shape[0] != x_t.shape[1]:
        raise ValueError(f"channel shape {h.shape} does not accept frames of shape {x_t.shape}")
    r = x_t @ h
    if cfg.noise_var > 0:
        rng = cfg._rng if rng is None else rng
        z = rng.standard_normal((*r.shape, 2))
        r = r + (z[..., 0] + 1j * z[..., 1]) * math.sqrt(cfg.noise_var / 2.0)
    return r


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

    A codebook built with ``check_decodable=False`` is checked here on
    demand, as the verifiers do; a failing grouping raises
    NotGroupDecodableError.  Each group's winner is found independently
    against that group's partial codewords, first index on ties.  All four
    groups' metrics come from one NumPy pass over ``cb.partials``: four
    separate scans of a few partials each would cost more in per-call
    overhead than in arithmetic.  The reported metric is the full
    differential metric re-evaluated at the assembled decision, so it is
    directly comparable with the exhaustive decoder's.
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
    i0, i1, i2, i3 = idx
    s0, s1, s2, s3 = cb.group_stacks
    diff = r_t - inv_a * ((s0[i0] + s1[i1] + s2[i2] + s3[i3]) @ r_prev)
    return DecodeResult(index=tuple(idx), metric=float(np.vdot(diff, diff).real),
                        evaluations=len(metrics))


def group_metrics(cb: Codebook, r_t, r_prev, a_prev_sq: float, idx) -> list[float]:
    """The four per-group metric values at a given index tuple.

    Mostly a verification hook: summing these and subtracting
    3*||r_t||^2 reproduces the full metric when the codebook is group
    decodable.
    """
    r_t = _as_receive(r_t, cb.n)
    r_prev = _as_receive(r_prev, cb.n)
    inv_a = 1.0 / math.sqrt(a_prev_sq)
    out = []
    for k, stack in enumerate(cb.group_stacks):
        out.append(float(np.linalg.norm(r_t - inv_a * (stack[idx[k]] @ r_prev)) ** 2))
    return out


def estimate_scale(u_hat: Codeword) -> float:
    """Decision-directed scale estimate: the decided codeword's scale_sq."""
    return float(u_hat.scale_sq)
