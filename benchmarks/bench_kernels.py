#!/usr/bin/env python3
"""Benchmark the metric scan kernels.

Times one differential decode metric scan (the hot loop of both decoders
and of the Monte Carlo simulator) over codebooks of increasing size: the
direct scan over the codeword stack (where the stack takes at most
``DIRECT_MAX_BYTES``), and the two forms of the coordinate scan the
simulator's exhaustive decoder uses against the frame's h: one GEMV over
the codewords' float64 real coordinates (``Codebook.coordinate_table``),
and the ``FactoredTable`` scan of the four groups' scores and the points
near their minima.  h is formed once per frame outside the timed scan
(``diffcodec.correlate``, which the simulator runs once per window).  For
each size it prints which coordinate form is faster; that comparison sets
``codebook.TABLE_SCAN_BYTES``, the table size above which
``Codebook.exhaustive_table`` switches from the table to the factored
form.  Then the coordinate scan of single groups, the (M^(1/4), 1, K/4)
point tables the simulator's group decoder scans four times per frame,
where per-call overhead, not arithmetic, sets the cost.  Then the
per-frame cost of the two decoders through the public API on the largest
codebook.

BLAS runs on one thread, as in the simulator's workers
(``set_blas_threads(1)``): a threaded GEMV in a process whose OpenBLAS
keeps its threads sometimes takes about 8 ms a call for a whole run, which
would decide the comparison above.

Run from the repository root:

    python benchmarks/bench_kernels.py [--repeats 9]
"""

import argparse
import functools
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from gdstbc._kernels import FactoredTable, metric_scan, set_blas_threads  # noqa: E402
from gdstbc.codebook import Codebook  # noqa: E402
from gdstbc.design import construct_design  # noqa: E402
from gdstbc.diffcodec import (  # noqa: E402
    correlate,
    decode_exhaustive,
    decode_group,
    fold,
)
from gdstbc.signalset import construct_signal_set, preset_signal_set  # noqa: E402


#: Largest codeword stack the direct scan is timed on.
DIRECT_MAX_BYTES = 70 * 10**6


def _direct(cb):
    stack = cb.matrices
    return (lambda *frame: frame), (lambda *frame: metric_scan(stack, *frame)[0])


def _frame_h(cb, r_prev, r_t, inv_a):
    """(h,) of one frame, as the simulator's deciders form it."""
    g, energy = correlate(cb, r_t[None], r_prev)
    return (fold(g[0], energy[0], inv_a ** -2),)


def _table(cb):
    table, scales = cb.coordinate_table()
    return functools.partial(_frame_h, cb), lambda h: metric_scan(table, h, scales)


def _factored(cb):
    factored = FactoredTable(cb.alphabets, cb.group_norms)
    return functools.partial(_frame_h, cb), lambda h: metric_scan(factored, h)


#: The timed scans: a name, and a function of the codebook that builds the
#: scan's arrays once and returns (operands, scan): operands(r_prev, r_t,
#: inv_a) forms a frame's scan arguments, untimed, and scan(*operands)
#: returns the decided index.
SCANS = [("direct", _direct), ("table", _table), ("factored", _factored)]


def time_call(fn, args, repeats, number=1):
    """Median over ``repeats`` samples of the seconds per call of fn(*args)."""
    fn(*args)  # warm up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def random_frame(rng, n):
    return np.ascontiguousarray(
        rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=9)
    args = ap.parse_args()
    set_blas_threads(1)

    rng = np.random.default_rng(0)
    cases = [(1, 16), (2, 256), (4, 256), (2, 1296), (1, 4096), (3, 1296), (2, 4096),
             (4, 1296), (3, 4096), (2, 10000), (4, 4096), (3, 10000), (2, 20736),
             (2, 38416), (4, 10000), (3, 20736), (2, 16**4), (3, 16**4), (4, 16**4)]

    print(f"{'case':>16} {'M':>6} {'table MB':>9}", *(f"{name:>12}" for name, _ in SCANS),
          f"{'faster':>9}")
    for lam, m in cases:
        cb = Codebook(construct_design(lam), construct_signal_set(lam, m),
                      check_decodable=False)
        n = cb.n
        direct = cb.M * n * n * 16 <= DIRECT_MAX_BYTES
        scans = [bind(cb) for _, bind in (SCANS if direct else SCANS[1:])]
        frame = (random_frame(rng, n), random_frame(rng, n), 1.0)
        number = max(1, 2**16 // m)  # samples of at least ~1 ms
        times = [time_call(scan, operands(*frame), args.repeats, number)
                 for operands, scan in scans]
        want = {scan(*operands(*frame)) for operands, scan in scans}
        assert len(want) == 1, "scans disagree on the argmin"
        row = [f"{f'lam={lam} n={n}':>16} {m:>6} {cb.M * cb.design.K * 8 / 1e6:>9.2f}"]
        row += [] if direct else [f"{'-':>12}"]
        row += [f"{t * 1e6:>10.1f}us" for t in times]
        row.append(f"{'factored' if times[-1] < times[-2] else 'table':>9}")
        print(" ".join(row))
        del cb, scans

    print("\ncoordinate scan of one group (four per group-decoded frame):")
    group_cases = [
        ("lam=2, M=16", construct_signal_set(2, 16), 2),
        ("preset paper-8ant-rate2", preset_signal_set("paper-8ant-rate2"), 3),
        ("lam=4, M=16^4", construct_signal_set(4, 16**4), 4),
    ]
    for label, sset, lam in group_cases:
        cb = Codebook(construct_design(lam), sset, check_decodable=False)
        table = cb.alphabets[0][:, None]
        frame = (random_frame(rng, cb.n), random_frame(rng, cb.n), 1.0)
        h = _frame_h(cb, *frame)[0][:table.shape[2]]
        t = time_call(metric_scan, (table, h, cb.group_norms[0]), args.repeats, number=2000)
        print(f"{label:>24} {str(table.shape):>12} {t * 1e6:8.2f}us")

    print("\nfull decoder paths on lam=3, M=16^4:")
    cb = Codebook(construct_design(3), construct_signal_set(3, 16**4))
    r_prev, r_t = random_frame(rng, 8), random_frame(rng, 8)
    t_e = time_call(lambda: decode_exhaustive(cb, r_t, r_prev, 1.0), (), args.repeats)
    t_g = time_call(lambda: decode_group(cb, r_t, r_prev, 1.0), (), 50)
    print(f"  exhaustive (65536 evals): {t_e * 1e3:8.2f} ms/frame")
    print(f"  group      (   64 evals): {t_g * 1e6:8.1f} us/frame "
          f"({t_e / t_g:.0f}x faster)")


if __name__ == "__main__":
    main()
