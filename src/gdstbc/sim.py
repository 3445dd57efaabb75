"""Monte Carlo harness: SNR sweeps and counts over ``diffcodec``'s chain.

Each SNR point runs independent coherence blocks; ``diffcodec`` encodes,
transmits and decides each one, and this module counts the errors.
Blocks are the unit of parallelism: every block derives its RNG stream
from (seed, snr_index, block_index), so results are bit-identical
regardless of worker count, and early stopping happens at fixed chunk
boundaries for the same reason.

SNR convention: snr_db = 10*log10(n / noise_var), with noise_var the
per-complex-entry noise variance, so noise_var = n / 10**(snr_db/10) and
"inf" gives a noiseless channel.  n is a nominal signal power only: each
of the four group alphabets has unit average power, so E(a^2) = 4 for
every lam, and an information frame reaches each receive antenna with
mean power 4.  The received SNR is therefore 10*log10(4/n) dB off the
nominal one: about +3 dB at lam 1, 0 dB at lam 2, -3 dB at lam 3 and
-6 dB at lam 4.  Which reference power the paper's SNR axis uses is not
settled by the abstract; the nominal convention is kept so that curves
stay comparable across versions.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from ._kernels import BACKEND, set_blas_threads
from .codebook import Codebook, check_memory
from .design import MAX_LAMBDA, construct_design
from .diffcodec import DECIDERS, INDEX_BYTES_PER_FRAME, block_frames
from .signalset import (
    PRESETS,
    SignalSet,
    construct_signal_set,
    default_radii,
    fourth_root_points,
    hyperbola_signal_set,
    preset_signal_set,
)

CSV_HEADER = "snr_db,decoder,frames,frame_errors,bler,bits,bit_errors,ber,metric_evals,seed"

SNR_CONVENTION = (
    "snr_db = 10*log10(n / noise_var); noise_var is the variance per complex "
    "noise entry (noise_var/2 per real dimension)"
)

#: Row order when decoder="both".
DECODER_ORDER = ("group", "exhaustive")


@dataclass(frozen=True)
class SimConfig:
    lam: int
    m: int
    family: str = "axis"
    radii: tuple[float, ...] | None = None
    preset: str | None = None
    c: float | None = None
    n_r: int = 1
    snr_db: tuple[float, ...] = (0.0,)
    frames: int = 1000
    target_errors: int | None = None
    coherence: int | None = None
    decoder: str = "group"
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        # lists from the Python API become tuples, so that the frozen config
        # and the codebook cache key built from its fields are hashable
        object.__setattr__(self, "snr_db", tuple(self.snr_db))
        if self.radii is not None:
            object.__setattr__(self, "radii", tuple(self.radii))

    def validate(self):
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.lam > MAX_LAMBDA:
            raise ValueError(f"lam={self.lam} exceeds the supported maximum {MAX_LAMBDA}")
        if self.family not in ("axis", "hyperbola"):
            raise ValueError(f"unknown signal family {self.family!r}")
        if self.family == "hyperbola" and self.lam != 2:
            raise ValueError("the circle-hyperbola family is defined for lam = 2 only")
        if self.preset is not None and self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.c is not None and self.family != "hyperbola":
            raise ValueError("c applies to the hyperbola family only")
        if self.preset is not None and (self.radii is not None or self.family == "hyperbola"):
            raise ValueError("a preset fixes the signal set: it takes no radii and no "
                             "hyperbola family")
        if not self.snr_db:
            raise ValueError("need at least one SNR point")
        if any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            raise ValueError("SNR values must be finite or +inf (noiseless)")
        for v in self.snr_db:
            try:
                var = noise_var_for_snr(v, 2 ** self.lam)
            except (OverflowError, ZeroDivisionError):  # 10**(v/10) overflows or underflows
                var = math.nan
            if v != math.inf and not 0.0 < var < math.inf:
                raise ValueError(f"SNR {v:g} dB gives a noise variance outside the "
                                 "float range")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.target_errors is not None and self.target_errors < 1:
            raise ValueError("target_errors must be >= 1")
        if self.coherence is not None and self.coherence < 2:
            raise ValueError("coherence must be >= 2 (reference frame plus data)")
        if self.decoder not in ("group", "exhaustive", "both"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.n_r < 1:
            raise ValueError("n_r must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def decoders(self) -> tuple[str, ...]:
        if self.decoder == "both":
            return DECODER_ORDER
        return (self.decoder,)

    @property
    def frames_per_block(self) -> int:
        """Information frames per fading block (the reference frame aside)."""
        return self.frames if self.coherence is None else self.coherence - 1


@dataclass(frozen=True)
class SimPoint:
    snr_db: float
    decoder: str
    frames: int
    frame_errors: int
    bler: float
    bits: int
    bit_errors: int
    ber: float
    metric_evals: int
    wall_time_s: float
    #: Seconds in this decoder's frame loops, summed over chunks (so
    #: worker-seconds when the sweep ran on a pool); not in the CSV.
    decode_time_s: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    points: tuple[SimPoint, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER.split(","))
        for p in self.points:
            w.writerow([
                f"{p.snr_db:g}", p.decoder, p.frames, p.frame_errors,
                f"{p.bler:.6g}", p.bits, p.bit_errors, f"{p.ber:.6g}",
                p.metric_evals, self.config.seed,
            ])
        return buf.getvalue()

    def to_json(self) -> str:
        """The config echo and every point as strict JSON.

        An infinite SNR is written as the string "inf", the CLI's own
        spelling, and the BER of a BLER-only point (no bits) as null.
        """
        cfg = asdict(self.config)
        cfg["snr_db"] = [_json_snr(v) for v in self.config.snr_db]
        rows = []
        for p in self.points:
            row = asdict(p)
            row["snr_db"] = _json_snr(p.snr_db)
            if not p.bits:
                row["ber"] = None
            rows.append(row)
        return json.dumps({
            "config": cfg,
            "backend": BACKEND,
            "snr_convention": SNR_CONVENTION,
            "results": rows,
        }, indent=2, allow_nan=False)


def _json_snr(snr_db: float):
    return "inf" if snr_db == math.inf else snr_db


def bit_mapping(idx, group_sizes):
    """Concatenated fixed-width binary encodings of the group indices.

    Widths are log2 of each group size; sizes that are not powers of two
    have no bit interpretation (the simulator then reports BLER only).
    """
    bits = []
    for i, size in zip(idx, group_sizes):
        w = int(size).bit_length() - 1
        if (1 << w) != size:
            raise ValueError(f"group size {size} is not a power of two; BER undefined")
        bits.extend(((int(i) >> (w - 1 - b)) & 1) for b in range(w))
    return bits


def noise_var_for_snr(snr_db: float, n: int) -> float:
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return n / (10.0 ** (snr_db / 10.0))


def build_signal_set(cfg: SimConfig) -> SignalSet:
    """The config's signal set: its preset, the hyperbola family or the axis family."""
    if cfg.preset is not None:
        plam, pradii = PRESETS[cfg.preset]
        if cfg.lam != plam:
            raise ValueError(f"preset {cfg.preset!r} is defined for lam={plam}, got lam={cfg.lam}")
        expected_m = (2 * len(pradii)) ** 4
        if cfg.m != expected_m:
            raise ValueError(f"preset {cfg.preset!r} implies M={expected_m}, got M={cfg.m}")
        return preset_signal_set(cfg.preset)
    if cfg.family == "hyperbola":
        p = fourth_root_points(cfg.m)
        radii = cfg.radii if cfg.radii is not None else default_radii(p // 2)
        c = cfg.c if cfg.c is not None else float(radii[0]) ** 2 / 4.0
        return hyperbola_signal_set(radii, c)
    return construct_signal_set(cfg.lam, cfg.m, radii=cfg.radii)


def build_codebook(cfg: SimConfig) -> Codebook:
    return Codebook(construct_design(cfg.lam), build_signal_set(cfg))


@lru_cache(maxsize=1)
def _codebook(lam, m, family, radii, preset, c) -> Codebook:
    """The signal set's codebook, cached per process.

    Construction is pure, so chunk tasks reuse it and forked workers
    inherit it.  Only the current codebook is kept: a run needs no other,
    and a stale one would keep its M-sized arrays alive.  A group-only
    run builds none, since encoding and group decoding sum per-group
    parts; ``prepare`` builds those the exhaustive rows scan.
    """
    return build_codebook(SimConfig(lam=lam, m=m, family=family, radii=radii, preset=preset,
                                    c=c))


def prepare(cfg: SimConfig) -> Codebook:
    """Validate ``cfg`` and check its cached codebook for each decoder, building the
    table and scales the exhaustive rows scan, so errors come before a sweep."""
    cfg.validate()
    cb = _codebook(cfg.lam, cfg.m, cfg.family, cfg.radii, cfg.preset, cfg.c)
    if "group" in cfg.decoders():
        cb.require_group_decodable()
    if "exhaustive" in cfg.decoders():
        cb.require_scaled_unitary()
        cb.exhaustive_table  # noqa: B018
    return cb


def prepare_sweep(cfg: SimConfig) -> Codebook:
    """``prepare``, plus the check a sweep makes once, not per chunk: the
    group-index draw of its largest fading block must fit in the memory
    available."""
    cb = prepare(cfg)
    nf = min(cfg.frames, cfg.frames_per_block)
    check_memory(f"a fading block of {nf} frames needs its group-index draw",
                 INDEX_BYTES_PER_FRAME * nf)
    return cb


def _run_blocks(cfg, snr_idx, block_lo, block_hi):
    """Simulate blocks [block_lo, block_hi) of SNR point ``snr_idx``.

    Returns one ``Counter`` per decoder: frames, frame_errors, bits,
    bit_errors, metric_evals and decode_s, the seconds spent in that
    decoder's decisions.  Each block draws from its own stream
    ``default_rng([seed, snr_idx, blk])``; ``diffcodec.block_frames``
    transmits it window by window, and each decoder's ``diffcodec``
    decision routine decides every window, tracking its own scale.  In a
    pool worker it stops at the next block once ``run_sim`` has stopped
    point ``snr_idx`` early; the parent never reads those counts.
    """
    cb = prepare(cfg)
    decoders = cfg.decoders()
    evals_per_frame = {"exhaustive": cb.M, "group": sum(cb.sizes)}
    # BER needs power-of-two group sizes (see bit_mapping); 0 means BLER only
    pow2 = all(size & (size - 1) == 0 for size in cb.sizes)
    bits_per_frame = cb.M.bit_length() - 1 if pow2 else 0
    noise_var = noise_var_for_snr(cfg.snr_db[snr_idx], cb.n)
    sigma = math.sqrt(noise_var / 2.0) if noise_var > 0 else 0.0
    fpb = cfg.frames_per_block

    counts = {d: Counter() for d in decoders}
    for blk in range(block_lo, block_hi):
        if _stopped is not None and _stopped.value > snr_idx:
            break  # a point already stopped discards this chunk: skip the rest
        nf = min(fpb, cfg.frames - blk * fpb)  # >= 1: blk < ceil(frames / fpb)
        rng = np.random.default_rng([cfg.seed, snr_idx, blk])
        a_dec = dict.fromkeys(decoders, 1.0)
        for sent, r_prev, r in block_frames(cb, rng, nf, cfg.n_r, sigma):
            for d in decoders:
                t0 = time.perf_counter()
                hats, a_dec[d] = DECIDERS[d](cb, r, r_prev, a_dec[d])
                c = counts[d]
                c["decode_s"] += time.perf_counter() - t0
                errs = [got ^ want for got, want in zip(hats, sent) if got != want]
                c["frame_errors"] += len(errs)
                if bits_per_frame:
                    # power-of-two group sizes: lin's binary digits are the
                    # concatenated group-index bits of bit_mapping
                    c["bit_errors"] += sum(e.bit_count() for e in errs)
        for d in decoders:
            c = counts[d]
            c["frames"] += nf
            c["metric_evals"] += nf * evals_per_frame[d]
            c["bits"] += nf * bits_per_frame
    return counts


#: In a pool worker, the shared count of SNR points whose sweep has
#: stopped early (``run_sim`` sets it); None in the calling process.
_stopped = None


def _init_worker(stopped):
    global _stopped
    set_blas_threads(1)
    _stopped = stopped


def _worker_pool(workers: int, stopped) -> ProcessPoolExecutor:
    """Process pool whose workers run BLAS single-threaded and see ``stopped``.

    Each worker's scans are already one of ``workers`` concurrent streams;
    letting OpenBLAS thread them too would put several spinning threads on
    every core.  The calling process keeps its BLAS threads.  ``stopped``
    is a shared integer: once ``run_sim`` sets it to ``snr_idx + 1``, the
    chunks of points up to ``snr_idx`` that are queued or running return
    at their next block instead of simulating results nobody reads.
    """
    return ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                               initargs=(stopped,))


def run_sim(cfg: SimConfig) -> SimResult:
    """Run the configured sweep and return exact integer counts per point.

    Deterministic for a fixed config: per-block RNG streams make the
    result independent of the worker count, and early stopping (when
    ``target_errors`` is set) only happens at fixed chunk boundaries.
    """
    prepare_sweep(cfg)
    decoders = cfg.decoders()
    n_blocks = math.ceil(cfg.frames / cfg.frames_per_block)
    chunk = max(1, math.ceil(n_blocks / 256))
    starts = range(0, n_blocks, chunk)

    points = []
    # a worker beyond the task count would sit idle, and on Linux every one
    # is forked at the first submit
    workers = min(cfg.workers, len(starts))
    stopped = pool = None
    if workers > 1:
        stopped = multiprocessing.RawValue("i", 0)
        pool = _worker_pool(workers, stopped)
    try:
        for snr_idx, snr in enumerate(cfg.snr_db):
            t0 = time.perf_counter()
            tasks = [(cfg, snr_idx, lo, min(lo + chunk, n_blocks)) for lo in starts]
            if pool is None:
                results = (_run_blocks(*task) for task in tasks)
            else:
                results = pool.map(_run_blocks, *zip(*tasks))
            totals = {d: Counter() for d in decoders}
            for chunk_counts in results:
                for d in decoders:
                    totals[d].update(chunk_counts[d])
                if cfg.target_errors is not None and all(
                    totals[d]["frame_errors"] >= cfg.target_errors for d in decoders
                ):
                    if stopped is not None:
                        stopped.value = snr_idx + 1  # workers drop this point's chunks
                    results.close()  # cancels this point's chunks not yet queued
                    break
            wall = time.perf_counter() - t0
            for d in decoders:
                t = totals[d]
                bler = t["frame_errors"] / t["frames"] if t["frames"] else 0.0
                ber = t["bit_errors"] / t["bits"] if t["bits"] else float("nan")
                points.append(SimPoint(
                    snr_db=snr, decoder=d, frames=t["frames"],
                    frame_errors=t["frame_errors"], bler=bler, bits=t["bits"],
                    bit_errors=t["bit_errors"], ber=ber,
                    metric_evals=t["metric_evals"], wall_time_s=wall,
                    decode_time_s=t["decode_s"],
                ))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return SimResult(config=cfg, points=tuple(points))
