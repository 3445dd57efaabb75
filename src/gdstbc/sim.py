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

import contextlib
import csv
import io
import json
import math
import multiprocessing
import numbers
import operator
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from multiprocessing.connection import wait

import numpy as np

from ._kernels import BACKEND, set_blas_threads
from .codebook import Codebook, check_memory
from .design import MAX_LAMBDA, construct_design
from .diffcodec import DECIDERS, block_bytes, correlate, window_blocks, window_frames
from .signalset import (
    PRESETS,
    construct_signal_set,
    group_radii,
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


def _real_tuple(name: str, values) -> tuple:
    """``values`` as a tuple; ValueError naming the field ``name`` unless
    they are an iterable of real numbers."""
    try:
        reals = tuple(values)
    except TypeError:
        reals = None
    if reals is None or not all(isinstance(v, numbers.Real) for v in reals):
        raise ValueError(f"{name} must be a sequence of real numbers, got {values!r}")
    return reals


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
        """Normalise and check every field, so that every config is valid."""
        for name in ("lam", "m", "n_r", "frames", "target_errors", "coherence", "seed", "workers"):
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise ValueError(f"{name} must be an integer, got {value!r}") from None
        # lists from the Python API become tuples, so that the frozen config
        # and the codebook cache key built from its fields are hashable
        object.__setattr__(self, "snr_db", _real_tuple("snr_db", self.snr_db))
        if self.radii is not None:
            object.__setattr__(self, "radii", _real_tuple("radii", self.radii))
        if self.c is not None and not isinstance(self.c, numbers.Real):
            raise ValueError(f"c must be a real number, got {self.c!r}")
        if self.preset is not None and not isinstance(self.preset, str):
            raise ValueError(f"preset must be a string, got {self.preset!r}")
        if self.lam < 1:
            raise ValueError("lam must be >= 1")
        if self.lam > MAX_LAMBDA:
            raise ValueError(f"lam={self.lam} exceeds the supported maximum {MAX_LAMBDA}")
        if self.family not in ("axis", "hyperbola"):
            raise ValueError(f"unknown signal family {self.family!r}")
        if self.family == "hyperbola" and self.lam != 2:
            raise ValueError("the circle-hyperbola family is defined for lam = 2 only")
        if self.c is not None and self.family != "hyperbola":
            raise ValueError("c applies to the hyperbola family only")
        if self.preset is not None:
            if self.preset not in PRESETS:
                raise ValueError(f"unknown preset {self.preset!r}")
            if self.radii is not None or self.family == "hyperbola":
                raise ValueError("a preset fixes the signal set: it takes no radii and no "
                                 "hyperbola family")
            plam, pradii = PRESETS[self.preset]
            pm = (2 * len(pradii)) ** 4
            if (self.lam, self.m) != (plam, pm):
                raise ValueError(f"preset {self.preset!r} is defined for lam={plam} and M={pm}, "
                                 f"got lam={self.lam} and M={self.m}")
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
    #: Seconds in this decoder's decisions and the correlations they read,
    #: summed over chunks (worker-seconds on several workers); not in the CSV.
    decode_time_s: float
    #: Seconds in the point's draws, chain and noise (``window_frames``),
    #: summed over chunks like ``decode_time_s``; shared by the point's rows,
    #: not in the CSV.
    encode_time_s: float


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


def noise_var_for_snr(snr_db: float, n: int) -> float:
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return n / (10.0 ** (snr_db / 10.0))


def build_signal_set(cfg: SimConfig) -> tuple[np.ndarray, ...]:
    """The config's signal set, four (P, K/4) point arrays: its preset, the
    hyperbola family or the axis family.  The constructors are called
    through this module's globals (a profiler may wrap them there)."""
    if cfg.preset is not None:
        return preset_signal_set(cfg.preset)
    if cfg.family == "hyperbola":
        radii = group_radii(cfg.m, 2, cfg.radii)
        c = cfg.c if cfg.c is not None else float(radii[0]) ** 2 / 4.0
        return hyperbola_signal_set(radii, c)
    return construct_signal_set(cfg.lam, cfg.m, radii=cfg.radii)


def build_codebook(cfg: SimConfig) -> Codebook:
    return Codebook(construct_design(cfg.lam), build_signal_set(cfg))


@lru_cache(maxsize=1)
def _codebook(lam, m, family, radii, preset, c) -> Codebook:
    """The signal set's codebook, cached per process.

    Construction is pure, so repeated sweeps reuse it.  Only the current
    codebook is kept: a run needs no other, and a stale one would keep
    its M-sized arrays alive.  A group-only run builds none, since
    encoding gathers per-group terms and group decoding scans per-group
    points; ``prepare`` builds those the exhaustive rows scan.
    """
    return build_codebook(SimConfig(lam=lam, m=m, family=family, radii=radii, preset=preset,
                                    c=c))


def _chunks(cb: Codebook, cfg: SimConfig):
    """(bounds, workers): each point's chunks as (lo, hi) block ranges, of
    whole windows (``diffcodec.window_blocks``) and at most 256 of them,
    and the processes that run blocks, ``cfg.workers`` but no more than
    there are chunks (a worker beyond them would find none)."""
    n_blocks = math.ceil(cfg.frames / cfg.frames_per_block)
    chunk = max(window_blocks(cb, cfg.frames_per_block, cfg.n_r), math.ceil(n_blocks / 256))
    bounds = [(lo, min(lo + chunk, n_blocks)) for lo in range(0, n_blocks, chunk)]
    return bounds, min(cfg.workers, len(bounds))


def prepare(cfg: SimConfig) -> Codebook:
    """Require the config's cached codebook to be group decodable and
    scaled unitary (``require_scaled_unitary``; the differential chain needs
    it whatever the decoder; its bound builds what the encoder gathers,
    ``chain_tables``, which refuses tables past the memory available; a
    design that is not monomial was refused by ``LinearDesign.monomial``
    when the codebook was built), build what the exhaustive rows scan
    (``exhaustive_table``, after its memory check), and check that a window
    of the sweep's largest fading blocks fits in the memory available once
    in each process that runs blocks (``block_bytes``: the group-index
    draws of its blocks and its arrays), so errors come before a sweep.
    ``cfg`` itself was checked when it was constructed."""
    cb = _codebook(cfg.lam, cfg.m, cfg.family, cfg.radii, cfg.preset, cfg.c)
    cb.require_scaled_unitary()
    if "exhaustive" in cfg.decoders():
        cb.exhaustive_table  # noqa: B018
    nf = min(cfg.frames, cfg.frames_per_block)
    workers = _chunks(cb, cfg)[1]
    each = f" in each of {workers} workers" if workers > 1 else ""
    check_memory(f"a fading block of {nf} frames needs its group-index draw and one "
                 f"window's arrays{each}", workers * block_bytes(cb, nf, cfg.n_r))
    return cb


def _run_blocks(cb, cfg, snr_idx, block_lo, block_hi, stopped=None):
    """Simulate blocks [block_lo, block_hi) of SNR point ``snr_idx`` on
    ``cb``, the codebook ``prepare(cfg)`` returned.

    Returns one ``Counter`` per decoder: frames, frame_errors (frames whose
    decided group indices differ from the sent ones in any group),
    bit_errors (differing bits of the group indices), decode_s
    (``SimPoint.decode_time_s``) and encode_s (``SimPoint.encode_time_s``).
    Each block draws from its own stream ``default_rng([seed, snr_idx,
    blk])``.  ``diffcodec.window_frames`` encodes and transmits the blocks
    together, ``window_blocks`` of them at a time (a partial last block
    alone), window by window; ``correlate`` correlates each window once,
    each decoder's ``diffcodec`` decision routine decides every block of it
    from that, tracking the block's own scale, and one XOR of the decided
    and sent group indices counts the window's errors.  ``stopped``, a forked
    worker's shared count of stopped points, ends the chunk at its next
    window once ``run_sim`` has stopped point ``snr_idx`` (the caller drops
    its counts).
    """
    decoders = cfg.decoders()
    noise_var = noise_var_for_snr(cfg.snr_db[snr_idx], cb.n)
    sigma = math.sqrt(noise_var / 2.0) if noise_var > 0 else 0.0
    fpb = cfg.frames_per_block
    full = cfg.frames // fpb  # blocks of fpb frames; one more is partial
    per_window = window_blocks(cb, fpb, cfg.n_r)
    windows = [(lo, min(lo + per_window, block_hi, full), fpb)
               for lo in range(block_lo, min(block_hi, full), per_window)]
    if block_hi > full:
        windows.append((full, full + 1, cfg.frames - full * fpb))

    counts = {d: Counter() for d in decoders}
    encode_s = 0.0
    for lo, hi, nf in windows:
        if stopped is not None and stopped.value > snr_idx:
            break  # a point already stopped discards this chunk: skip the rest
        t0 = time.perf_counter()
        rngs = [np.random.default_rng([cfg.seed, snr_idx, blk]) for blk in range(lo, hi)]
        a_dec = {d: [1.0] * len(rngs) for d in decoders}
        for sent, r_prev, r in window_frames(cb, rngs, nf, cfg.n_r, sigma):
            t1 = time.perf_counter()
            encode_s += t1 - t0
            g, energy = correlate(cb, r, r_prev)
            t_corr = time.perf_counter() - t1
            for d in decoders:
                t1 = time.perf_counter()
                decide, a, hats = DECIDERS[d], a_dec[d], []
                for b, (g_b, energy_b) in enumerate(zip(g, energy)):
                    hats_b, a[b] = decide(cb, g_b, energy_b, a[b])
                    hats += hats_b
                c = counts[d]
                c["decode_s"] += t_corr + time.perf_counter() - t1
                errs = np.reshape(hats, (*sent.shape[1:], 4)).transpose(2, 0, 1) ^ sent
                c["frame_errors"] += int(np.count_nonzero(errs.any(axis=0)))
                c["bit_errors"] += int(np.bitwise_count(errs).sum())
            t0 = time.perf_counter()
        encode_s += time.perf_counter() - t0
        for d in decoders:
            counts[d]["frames"] += (hi - lo) * nf
    for d in decoders:
        counts[d]["encode_s"] = encode_s
    return counts


def _claim(tickets, stopped, per_point: int) -> int:
    """The next ticket in sweep order, ``snr_idx * per_point + chunk``,
    skipping every ticket of a point that has already stopped."""
    with tickets.get_lock():
        t = max(tickets.value, stopped.value * per_point)
        tickets.value = t + 1
    return t


def _worker(cb, cfg, bounds, tickets, stopped, conn):
    """Run claimed chunks until the sweep has none left, sending
    ``(ticket, counts)`` for each on ``conn``, or the exception that ends it.

    BLAS runs single-threaded: each worker's scans are already one of
    several concurrent streams, and OpenBLAS threading them on top would
    put several spinning threads on every core.
    """
    set_blas_threads(1)
    per_point = len(bounds)
    try:
        while (t := _claim(tickets, stopped, per_point)) < per_point * len(cfg.snr_db):
            snr_idx, c = divmod(t, per_point)
            conn.send((t, _run_blocks(cb, cfg, snr_idx, *bounds[c], stopped)))
    except Exception as exc:
        with contextlib.suppress(OSError):  # the caller is gone and reads nothing
            conn.send(exc)
    finally:
        conn.close()


class _Workers:
    """``count`` forked workers claiming the chunks of a sweep on ``cb``
    (``bounds``: one (lo, hi) block range per chunk of a point); the caller
    only reduces.

    Workers claim ``(point, chunk)`` tickets from one shared counter and
    stream their counts back over one pipe each, so they run ahead into
    later points while the caller adds up the current one in chunk order.
    A failed start closes the workers already forked.
    """

    def __init__(self, cb: Codebook, cfg: SimConfig, bounds, count: int):
        # fork, not the platform default (forkserver from Python 3.14): workers
        # take the prepared ``cb`` unpickled and inherit the caller's state
        ctx = multiprocessing.get_context("fork")
        tickets, self.stopped = ctx.Value("q", 0), ctx.RawValue("q", 0)
        self.n_points = len(cfg.snr_db)
        self.per_point = len(bounds)
        self.procs = {}  # the read end of each worker's pipe -> its process
        self.readers = []  # pipes not yet at EOF
        self.done = {}  # ticket -> counts received ahead of their turn
        try:
            for _ in range(count):
                reader, writer = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_worker, daemon=True,
                                   args=(cb, cfg, bounds, tickets, self.stopped, writer))
                proc.start()
                writer.close()
                self.procs[reader] = proc
                self.readers.append(reader)
        except BaseException:
            self.close()
            raise

    def chunks(self, snr_idx: int):
        """Point ``snr_idx``'s chunk counts, in chunk order."""
        first = snr_idx * self.per_point
        for t in range(first, first + self.per_point):
            while t not in self.done:
                self._receive()
            yield self.done.pop(t)

    def _receive(self):
        if not self.readers:
            raise RuntimeError("the sim workers ended before sending every chunk")
        for reader in wait(self.readers):
            try:
                msg = reader.recv()
            except EOFError:
                self.readers.remove(reader)
                proc = self.procs[reader]
                proc.join()
                if proc.exitcode:
                    raise RuntimeError(f"a sim worker exited with code {proc.exitcode}") \
                        from None
                continue
            if isinstance(msg, BaseException):
                raise msg
            t, counts = msg
            if t >= self.stopped.value * self.per_point:  # else its point has stopped
                self.done[t] = counts

    def stop(self, snr_idx: int):
        """Stop point ``snr_idx``: claims skip its tickets, and running
        chunks of it end at their next window."""
        self.stopped.value = snr_idx + 1

    def close(self):
        """Stop every point, drain each pipe to EOF and join the workers."""
        self.stopped.value = self.n_points
        try:
            for reader in self.readers:
                with contextlib.suppress(EOFError):
                    while True:
                        reader.recv_bytes()
        except BaseException:
            for proc in self.procs.values():
                proc.terminate()
            raise
        finally:
            for reader, proc in self.procs.items():
                proc.join()
                reader.close()


def run_sim(cfg: SimConfig) -> SimResult:
    """Run the configured sweep and return exact integer counts per point.

    Deterministic for a fixed config: per-block RNG streams make the
    result independent of the worker count, and early stopping (when
    ``target_errors`` is set) only happens at fixed chunk boundaries.
    Each point runs as at most 256 chunks of whole blocks, each at least
    a window of them (``diffcodec.window_blocks``).  With more than one
    worker and one chunk, ``cfg.workers`` processes (no more than a point
    has chunks) are forked once for the whole sweep; each claims chunks in
    sweep order and streams back their counts, and this process adds them
    up in chunk order and applies the stop rule; past a point's stop, each
    worker finishes at most the window of it that it is in.
    """
    cb = prepare(cfg)
    decoders = cfg.decoders()
    evals_per_frame = {"exhaustive": cb.M, "group": sum(cb.sizes)}
    # BER needs power-of-two group sizes: a frame then carries log2 M bits,
    # each group index written in log2 P_k bits and the four concatenated,
    # and a bit error is a differing bit of a group index; 0 means BLER only
    pow2 = all(size & (size - 1) == 0 for size in cb.sizes)
    bits_per_frame = cb.M.bit_length() - 1 if pow2 else 0
    bounds, workers = _chunks(cb, cfg)

    points = []
    pool = _Workers(cb, cfg, bounds, workers) if workers > 1 else None
    try:
        for snr_idx, snr in enumerate(cfg.snr_db):
            t0 = time.perf_counter()
            if pool is None:
                results = (_run_blocks(cb, cfg, snr_idx, lo, hi) for lo, hi in bounds)
            else:
                results = pool.chunks(snr_idx)
            totals = {d: Counter() for d in decoders}
            for chunk_counts in results:
                for d in decoders:
                    totals[d].update(chunk_counts[d])
                if cfg.target_errors is not None and all(
                    totals[d]["frame_errors"] >= cfg.target_errors for d in decoders
                ):
                    if pool is not None:
                        pool.stop(snr_idx)
                    break
            wall = time.perf_counter() - t0
            for d in decoders:
                t = totals[d]
                bits = t["frames"] * bits_per_frame
                bit_errors = t["bit_errors"] if bits else 0
                bler = t["frame_errors"] / t["frames"] if t["frames"] else 0.0
                ber = bit_errors / bits if bits else float("nan")
                points.append(SimPoint(
                    snr_db=snr, decoder=d, frames=t["frames"],
                    frame_errors=t["frame_errors"], bler=bler, bits=bits,
                    bit_errors=bit_errors, ber=ber,
                    metric_evals=t["frames"] * evals_per_frame[d], wall_time_s=wall,
                    decode_time_s=t["decode_s"], encode_time_s=t["encode_s"],
                ))
    finally:
        if pool is not None:
            pool.close()
    return SimResult(config=cfg, points=tuple(points))
