#!/usr/bin/env python3
"""One benchmark child process; run.py starts a fresh one per task.

Modes:

  measure  set up (timed), then repeat the workload's sweep for --seconds
           and check every result; with --trace 1, interleave traced
           sweeps with untraced ones and report the per-layer metrics
  micro    kernel scans at fixed sizes, a replay of diffcodec's per-frame
           API on the workload's codebook, and one traced round of
           ``gdstbc codebook verify`` calls (traced runs only)

The child expects the checkout's src/ on PYTHONPATH and prints one JSON
object as the last line of its standard output.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before gdstbc is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    VERIFY_CALLS,
    WORKLOADS,
    bler_interval,
    load_reference,
    sweep_seed,
)

#: (lam, M) of the fixed-size kernel scans, as in benchmarks/bench_kernels.py.
KERNEL_CASES = ((1, 16), (2, 256), (3, 4096), (3, 16**4))
KERNEL_BUDGET_S = 0.3
REPLAY_FRAMES = 200
#: Exhaustive decodes replayed per frame count when M is above 4096.
REPLAY_EXHAUSTIVE_LARGE = 8
VERIFY_ROUNDS = 2
MIN_OPS = 2

gdstbc = None


class Book:
    """Operations attempted and failed; a failure is logged, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, errors: list[str]):
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors[:5]:
                print(f"check failed: {what}: {e}", file=sys.stderr)


def set_up(wl):
    """Import gdstbc and do everything before the first decoded frame."""
    global gdstbc
    import gdstbc as g

    gdstbc = g
    g.run_sim(g.SimConfig(**wl.sweep_config(0, frames=1, target_errors=None, workers=1)))
    return time.perf_counter() - T_START


# -- sim workloads ------------------------------------------------------------

def check_sweep(wl, cfg, res, ref) -> list[str]:
    """Exact count checks plus the BLER reference interval for one sweep."""
    decs = cfg.decoders()
    want = [(float(s), d) for s in cfg.snr_db for d in decs]
    got = [(p.snr_db, p.decoder) for p in res.points]
    if got != want:
        return [f"rows {got} != {want}"]
    errs = []
    per_frame = {"group": 4 * round(cfg.m ** 0.25), "exhaustive": cfg.m}
    bits_per_frame = round(math.log2(cfg.m))
    fpb = wl.frames_per_block
    rows = {(p.snr_db, p.decoder): p for p in res.points}
    for p in res.points:
        tag = f"{p.snr_db:g} dB {p.decoder}"
        if cfg.target_errors is None:
            ok = p.frames == cfg.frames
        else:
            ok = 1 <= p.frames <= cfg.frames and (p.frames == cfg.frames or (
                p.frame_errors >= cfg.target_errors and p.frames % fpb == 0))
        if not ok:
            errs.append(f"{tag}: {p.frames} frames with {p.frame_errors} errors "
                        "match neither the config nor the early-stop rule")
        if p.metric_evals != p.frames * per_frame[p.decoder]:
            errs.append(f"{tag}: metric_evals {p.metric_evals} != "
                        f"{p.frames} x {per_frame[p.decoder]}")
        if p.bits != p.frames * bits_per_frame or not p.frame_errors <= p.bit_errors <= p.bits:
            errs.append(f"{tag}: bits {p.bits}, bit errors {p.bit_errors}, "
                        f"frame errors {p.frame_errors} are inconsistent")
    for s in cfg.snr_db:
        if len(decs) == 2:
            a, b = rows[(float(s), decs[0])], rows[(float(s), decs[1])]
            if (a.frames, a.frame_errors, a.bits, a.bit_errors) != \
                    (b.frames, b.frame_errors, b.bits, b.bit_errors):
                errs.append(f"{s:g} dB: group and exhaustive rows differ")
        p = rows[(float(s), decs[0])]
        errs += bler_errors(ref, s, p.frame_errors, p.frames, math.ceil(p.frames / fpb))
    return errs


def bler_errors(ref, snr, errors, frames, blocks) -> list[str]:
    if frames == 0:
        return [f"{snr:g} dB: no frames"]
    lo, hi = bler_interval(ref[f"{snr:g}"], blocks)
    bler = errors / frames
    if lo <= bler <= hi:
        return []
    return [f"{snr:g} dB: BLER {bler:.4g} over {blocks} blocks is outside the "
            f"reference interval [{lo:.4g}, {hi:.4g}]"]


def row_counts(res):
    return [(p.snr_db, p.decoder, p.frames, p.frame_errors, p.bits, p.bit_errors,
             p.metric_evals) for p in res.points]


class Kind:
    """One way of running the workload's sweep: traced or not, worker count."""

    def __init__(self, label, tracer=None, workers=None):
        self.label, self.tracer, self.workers = label, tracer, workers
        self.samples = []  # information frames per second of each sweep
        self.rows = []  # sweep counts
        self.pooled = {}  # snr -> [frame errors, frames, blocks] of the first decoder


def sim_op(wl, args, rep, book, ref, kind, seen):
    """One checked sweep.  ``seen`` maps a repetition to the counts its
    first run gave; every other way of running it must give the same."""
    overrides = {} if kind.workers is None else {"workers": kind.workers}
    seed = sweep_seed(args.seed, args.part, rep)
    cfg = gdstbc.SimConfig(**wl.sweep_config(seed, **overrides))
    what = f"{kind.label} sweep {rep} (seed {cfg.seed}, {cfg.workers} worker(s))"
    tracer = kind.tracer
    try:
        before = dict(tracer.counters) if tracer else None
        t0 = time.perf_counter()
        if tracer:
            with tracer.span("sim.run_sim"):
                res = gdstbc.run_sim(cfg)
        else:
            res = gdstbc.run_sim(cfg)
        wall = time.perf_counter() - t0
    except Exception:
        book.record(what, [traceback.format_exc()])
        return
    errs = check_sweep(wl, cfg, res, ref)
    decs = cfg.decoders()
    fpb = wl.frames_per_block
    frames = [p.frames for p in res.points if p.decoder == decs[0]]
    if tracer:
        got = {k: tracer.counters[k] - before.get(k, 0.0)
               for k in ("scan_calls", "scan_candidates", "rng_streams")}
        want = {
            "scan_calls": sum(frames) * sum(4 if d == "group" else 1 for d in decs),
            "scan_candidates": sum(p.metric_evals for p in res.points),
            "rng_streams": sum(math.ceil(f / fpb) for f in frames),
        }
        errs += [f"traced {k} {got[k]:g} != {want[k]}" for k in want if got[k] != want[k]]
    counts = row_counts(res)
    if seen.setdefault(rep, counts) != counts:
        errs.append("counts differ from the same sweep run another way")
    book.record(what, errs)
    kind.samples.append(sum(frames) / wall)
    kind.rows.append(counts)
    for p in res.points:
        if p.decoder == decs[0]:
            acc = kind.pooled.setdefault(p.snr_db, [0, 0, 0])
            acc[0] += p.frame_errors
            acc[1] += p.frames
            acc[2] += math.ceil(p.frames / fpb)


# -- codebook verify (micro child) ---------------------------------------------

def verify_call(lam, m, gain, seed) -> list[str]:
    """One checked ``gdstbc codebook verify`` through cli.main; returns the errors."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = gdstbc.cli.main(["codebook", "verify", "--lambda", str(lam),
                              "--points", str(m), "--seed", str(seed)])
    try:
        rep = json.loads(buf.getvalue())
    except ValueError:
        return [f"exit code {rc}, output is not JSON"]
    errs = [] if rc == 0 else [f"exit code {rc}"]
    if rep.get("full_diversity") != "full diversity verified (exhaustive)":
        errs.append(f"claim {rep.get('full_diversity')!r}")
    if not abs(rep.get("coding_gain", math.nan) - gain) <= 1e-9 * gain:
        errs.append(f"coding gain {rep.get('coding_gain')!r} != {gain!r}")
    if not rep.get("max_unitarity_residual", math.inf) <= 1e-9:
        errs.append(f"unitarity residual {rep.get('max_unitarity_residual')!r} > 1e-9")
    return errs


def verify_metrics(seed, book) -> tuple[dict, list[bool]]:
    """Traced rounds of VERIFY_CALLS, each call checked; codebook verifier metrics."""
    import gdstbc.cli  # noqa: F401

    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(VERIFY_ROUNDS):
            with tracer.span("bench.verify_round"):
                for lam, m, gain in VERIFY_CALLS:
                    try:
                        with tracer.span("cli.main"):
                            errs = verify_call(lam, m, gain, seed)
                    except Exception:
                        errs = [traceback.format_exc()]
                    book.record(f"codebook verify lam {lam} M {m}", errs)
    finally:
        tracer.uninstall()
    agg = tracer.aggregate()

    def per_round(name, col):
        return agg.get(("bench.verify_round", name), (0, 0.0, 0.0))[col] / VERIFY_ROUNDS

    return {
        "codebook.verify_round_s": per_round("bench.verify_round", 1),
        "codebook.full_diversity_s": per_round("codebook.verify_full_diversity", 2),
        "codebook.coding_gain_s": per_round("codebook.coding_gain", 2),
        "codebook.unitarity_s": per_round("codebook.max_unitarity_residual", 2),
        "codebook.pairs_scanned": tracer.counters["pairs_scanned"] / VERIFY_ROUNDS,
        "codebook.bound_holds": float(all(tracer.bound_holds)),
    }, tracer.bound_holds


def measure(wl, args, book, ref, kinds):
    """Run one sweep of each kind in turn until ``args.seconds`` have passed.

    Interleaving the kinds lets drift in the host's speed cancel out of
    the ratios between them (tracing overhead, parallel efficiency).
    """
    seen = {}
    t_start = time.perf_counter()
    rep = 0
    while rep < MIN_OPS or time.perf_counter() - t_start < args.seconds:
        for kind in kinds:
            if kind.tracer:
                kind.tracer.install()
            try:
                sim_op(wl, args, rep, book, ref, kind, seen)
            finally:
                if kind.tracer:
                    kind.tracer.uninstall()
        rep += 1
    # Pooling a kind's independent sweeps narrows the BLER interval.
    for kind in kinds:
        for snr, (errors, frames, blocks) in kind.pooled.items():
            book.record(f"{kind.label} BLER at {snr:g} dB pooled over "
                        f"{len(kind.samples)} sweeps",
                        bler_errors(ref, snr, errors, frames, blocks))


# -- modes ------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def mode_measure(wl, args, book):
    ref = load_reference()["workloads"][wl.name]
    if not args.trace:
        setup_s = set_up(wl)
        kind = Kind("untraced")
        measure(wl, args, book, ref, [kind])
        return {"setup_s": setup_s, "frames_per_s": kind.samples,
                "peak_rss_mb": peak_rss_mb()}

    tracer = Tracer()
    tracer.install()
    with tracer.span("bench.setup"):
        set_up(wl)
    tracer.uninstall()
    setup_counters = dict(tracer.counters)
    tracer.counters.clear()

    # Traced sweeps run in-process: spans are kept in this process's memory.
    workers = wl.sim["workers"]
    untraced = Kind("untraced")
    one_worker = Kind("one-worker", workers=1) if workers > 1 else untraced
    traced = Kind("traced", tracer, workers=1)
    kinds = [untraced] + ([one_worker] if workers > 1 else []) + [traced]
    measure(wl, args, book, ref, kinds)

    agg = tracer.aggregate()
    metrics = layer_metrics(agg, tracer, setup_counters, len(traced.samples), traced.rows)
    med = statistics.median
    metrics["sim.parallel_efficiency"] = med(untraced.samples) / (
        workers * med(one_worker.samples))
    metrics["trace.overhead_frac"] = med(one_worker.samples) / med(traced.samples) - 1.0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_file = out_dir / f"spans-{wl.name}.csv.gz"
    tracer.write(spans_file)
    return {"metrics": metrics, "spans_file": str(spans_file), "spans": len(tracer.start),
            "frames_per_s": {k.label: k.samples for k in kinds}}


def layer_metrics(agg, tracer, setup_counters, n_ops, traced_rows) -> dict:
    """Per-layer metrics: set-up layers from the traced set-up, the rest per operation."""
    def tot(root, name, col):
        return agg.get((root, name), (0, 0.0, 0.0))[col]

    COUNT, TOTAL, SELF = 0, 1, 2
    setup = "bench.setup"
    op = "sim.run_sim"
    c = tracer.counters
    n = max(n_ops, 1)
    m = {
        "design.construct_s": tot(setup, "design.construct_design", SELF),
        "design.verify_group_decodable_s": tot(setup, "design.verify_group_decodable", SELF),
        "signalset.construct_s": sum(
            tot(setup, f"signalset.{fn}", SELF)
            for fn in ("construct_signal_set", "preset_signal_set", "hyperbola_signal_set")),
        "codebook.build_s": tot(setup, "codebook.build_codebook", SELF),
        "codebook.matrices_s": tot(setup, "codebook.matrices", SELF),
        "codebook.matrices_mb": setup_counters.get("matrices_bytes", 0.0) / 1e6,
        "sim.sweep_s": tot(op, op, TOTAL) / n,
        "sim.self_s": tot(op, op, SELF) / n,
        "sim.rng_init_s": tot(op, "numpy.default_rng", TOTAL) / n,
        "sim.rng_streams": c["rng_streams"] / n,
        "kernels.scan_calls": c["scan_calls"] / n,
        "kernels.scan_candidates": c["scan_candidates"] / n,
        "kernels.scan_s": tot(op, "kernels.metric_scan", TOTAL) / n,
        "kernels.scan_gb_computed": c["scan_bytes_computed"] / n / 1e9,
        "diffcodec.calls_in_sim": sum(
            v[COUNT] for (root, name), v in agg.items()
            if root == op and name.startswith("diffcodec.")) / n,
    }
    cand = c["scan_candidates"]
    m["kernels.scan_ns_per_candidate"] = (
        tot(op, "kernels.metric_scan", TOTAL) / cand * 1e9 if cand else 0.0)
    for d in ("group", "exhaustive"):
        rows = [r for counts in traced_rows for r in counts if r[1] == d]
        frames = sum(r[2] for r in rows)
        evals = sum(r[6] for r in rows)
        m[f"sim.metric_evals_per_frame.{d}"] = evals / frames if frames else 0.0
    return m


def time_calls(fn, budget_s, min_calls=5, max_calls=10000):
    """Per-call seconds of fn, after one warm-up call."""
    fn()
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < min_calls or (time.perf_counter() < t_end and len(times) < max_calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def mode_micro(wl, args, book):
    global gdstbc
    import numpy as np

    import gdstbc as g

    gdstbc = g
    from gdstbc import _kernels
    from gdstbc.diffcodec import draw_channel
    from gdstbc.sim import build_codebook, noise_var_for_snr

    med = statistics.median
    metrics = {}
    for lam, m in KERNEL_CASES:
        cb = g.Codebook(g.construct_design(lam), g.construct_signal_set(lam, m),
                        check_decodable=False)
        stack = cb.matrices
        rng = np.random.default_rng([args.seed, lam, m])
        r_prev, r_t = (np.ascontiguousarray(rng.standard_normal((cb.n, 1))
                                            + 1j * rng.standard_normal((cb.n, 1)))
                       for _ in range(2))
        times = time_calls(lambda: _kernels.metric_scan(stack, r_prev, r_t, 1.0),
                           KERNEL_BUDGET_S)
        best, val = _kernels.metric_scan(stack, r_prev, r_t, 1.0)
        ref = np.sum(np.abs(r_t[None] - stack @ r_prev) ** 2, axis=(1, 2))
        ok = best == int(np.argmin(ref)) and abs(val - ref.min()) <= 1e-9 * max(1.0, ref.min())
        book.record(f"metric_scan lam {lam} M {m}", [] if ok else [
            f"({best}, {val!r}) != reference ({int(np.argmin(ref))}, {ref.min()!r})"])
        metrics[f"kernels.scan_us.M{m}"] = med(times) * 1e6
        del cb, stack

    verify, bound_holds = verify_metrics(args.seed, book)
    metrics.update(verify)

    # Replay of the per-frame API on this workload's codebook.
    cfg = g.SimConfig(**wl.sweep_config(args.seed))
    snr = cfg.snr_db[0]
    cb = build_codebook(cfg)
    cb.matrices  # noqa: B018  (built before timing, as run_sim's set-up does)
    ch = g.ChannelConfig(n_r=1, noise_var=noise_var_for_snr(snr, cb.n), seed=args.seed)
    h = draw_channel(ch, cb.n)
    state = g.encoder_init(cb.n)
    r_prev = g.channel_step(ch, state.x_prev, h)
    a_dec = 1.0
    rng = np.random.default_rng([args.seed, 1])
    n_exh = REPLAY_FRAMES if cb.M <= 4096 else REPLAY_EXHAUSTIVE_LARGE
    t_enc, t_ch, t_grp, t_exh = [], [], [], []
    for t in range(REPLAY_FRAMES):
        u = cb.codeword_at(tuple(int(rng.integers(0, s)) for s in cb.sizes))
        t0 = time.perf_counter()
        state, x = g.encoder_step(state, u)
        t1 = time.perf_counter()
        r = g.channel_step(ch, x, h)
        t2 = time.perf_counter()
        dg = g.decode_group(cb, r, r_prev, a_dec)
        t3 = time.perf_counter()
        t_enc.append(t1 - t0)
        t_ch.append(t2 - t1)
        t_grp.append(t3 - t2)
        if t < n_exh:
            t4 = time.perf_counter()
            de = g.decode_exhaustive(cb, r, r_prev, a_dec)
            t_exh.append(time.perf_counter() - t4)
            ok = de.index == dg.index and de.evaluations == cb.M \
                and dg.evaluations == sum(cb.sizes)
            book.record(f"replay frame {t}", [] if ok else [
                f"group {dg.index}/{dg.evaluations} vs exhaustive {de.index}/{de.evaluations}"])
        a_dec = g.estimate_scale(cb.codeword_at(dg.index))
        r_prev = r
    metrics.update({
        "diffcodec.encoder_step_us": med(t_enc) * 1e6,
        "diffcodec.channel_step_us": med(t_ch) * 1e6,
        "diffcodec.decode_group_us": med(t_grp) * 1e6,
        "diffcodec.decode_exhaustive_us": med(t_exh) * 1e6,
    })
    return {"metrics": metrics, "bound_holds": bound_holds}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("measure", "micro"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0, help="index of this measurement child")
    ap.add_argument("--out-dir", default=".perfbench")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    book = Book()
    if args.mode == "measure":
        out = mode_measure(wl, args, book)
    else:
        out = mode_micro(wl, args, book)
    import numpy

    import gdstbc as g

    out.update(attempted=book.attempted, failed=book.failed, numpy=numpy.__version__,
               backend=g.BACKEND, gdstbc_file=g.__file__)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
