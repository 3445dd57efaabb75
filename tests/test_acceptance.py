"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 7 is split: the rate assertion and the average-scale
assertion are independent checks.
"""

import math
import time

import numpy as np

from gdstbc.codebook import Codebook, average_scale, verify_full_diversity
from gdstbc.design import canonical_grouping, construct_design, render
from gdstbc.diffcodec import decode_exhaustive, decode_group
from gdstbc.sim import SimConfig, run_sim
from gdstbc.signalset import (
    circle_hyperbola_set,
    construct_signal_set,
    hyperbola_signal_set,
    preset_signal_set,
)

from oracles import int_anticommutes, random_window

R1 = 0.3235
PAPER_RADII = (
    R1,
    math.sqrt(3) * R1,
    (1 + 2 * math.sqrt(3) / 3) * R1,
    (2 + math.sqrt(3) / 3) * R1,
    3 * R1,
    (2 + math.sqrt(3)) * R1,
    (3 + 2 * math.sqrt(3) / 3) * R1,
    (4 + math.sqrt(3) / 3) * R1,
)


def _report(num, desc, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_design_reproduction():
    t0 = time.perf_counter()
    got = render(construct_design(2))
    elapsed = time.perf_counter() - t0
    expected = [
        ["x1", "x2", "-x3*", "-x4*"],
        ["x2", "x1", "-x4*", "-x3*"],
        ["x3", "x4", "x1*", "x2*"],
        ["x4", "x3", "x2*", "x1*"],
    ]
    _report(1, "4-antenna design renders the published matrix symbol-for-symbol",
            got == expected and elapsed < 1.0, f"{elapsed * 1e3:.1f} ms")


def test_criterion_02_cross_group_anticommutation():
    t0 = time.perf_counter()
    worst_pairs = 0
    for lam in (1, 2, 3, 4):
        d = construct_design(lam)
        grp = canonical_grouping(d)
        member = {}
        for g, idxs in enumerate(grp.groups):
            for i in idxs:
                member[i] = g
        pairs = 0
        for i in range(d.K):
            for j in range(d.K):
                if i != j and member[i] != member[j]:
                    pairs += 1
                    assert int_anticommutes(d.weight_stack[i], d.weight_stack[j]), \
                        f"lam={lam}: weights {i},{j} do not anticommute"
        worst_pairs = max(worst_pairs, pairs)
    elapsed = time.perf_counter() - t0
    _report(2, "cross-group anticommutation exact in integer arithmetic, lam=1..4",
            elapsed < 5.0, f"{worst_pairs} ordered cross pairs at lam=4, {elapsed:.2f} s")


def test_criterion_03_paper_signal_set():
    lit_sum = sum(r * r for r in PAPER_RADII)
    pts = preset_signal_set("paper-8ant-rate2")[0]
    expected = np.zeros((16, 4))
    for q in range(8):
        expected[2 * q, q % 4] = PAPER_RADII[q]
        expected[2 * q + 1, q % 4] = -PAPER_RADII[q]
    points_match = pts.shape == (16, 4) and np.allclose(pts, expected, atol=5e-4)
    # sign pairs: the radii's squares sum to half the points' norms
    produced_sum = float(np.sum(pts * pts)) / 2
    _report(3, "published 8-antenna signal set reproduced, sum r^2 within 5e-3 of 8",
            points_match and abs(lit_sum - 8.0) <= 5e-3 and abs(produced_sum - 8.0) <= 5e-3,
            f"|sum-8| = {abs(lit_sum - 8.0):.2e} (as printed), "
            f"{abs(produced_sum - 8.0):.2e} (produced)")


def test_criterion_04_scaled_unitarity_exhaustive():
    worst = 0.0
    lam3_time = None
    for lam in (1, 2, 3):
        d = construct_design(lam)
        for p in (2, 4, 8, 16):
            m = p**4
            cb = Codebook(d, construct_signal_set(lam, m), check_decodable=False)
            t0 = time.perf_counter()
            resid = cb.max_unitarity_residual()
            dt = time.perf_counter() - t0
            if lam == 3 and m == 16**4:
                lam3_time = dt
            worst = max(worst, resid)
    cb = Codebook(construct_design(3), preset_signal_set("paper-8ant-rate2"),
                  check_decodable=False)
    worst = max(worst, cb.max_unitarity_residual())
    _report(4, "every codeword scaled unitary to 1e-9, lam=1..3, M up to 65536",
            worst <= 1e-9 and lam3_time < 60.0,
            f"max residual {worst:.2e}, lam=3 M=65536 scan {lam3_time:.2f} s")


def test_criterion_05_full_diversity_exhaustive():
    ok = True
    details = []
    for lam, m in ((2, 16), (3, 16)):
        cb = Codebook(construct_design(lam), construct_signal_set(lam, m))
        rep = verify_full_diversity(cb)
        ok &= rep.all_full_rank and rep.pairs_checked == 120
        ok &= rep.bound_holds
        details.append(f"lam={lam}: min|det|={rep.min_abs_det:.3g}, "
                       f"block bound {'holds' if rep.bound_holds else 'unproven'}")
    _report(5, "exhaustive full diversity plus block determinant bound on 120 pairs",
            ok, "; ".join(details))


def test_criterion_06_negative_control():
    cb = Codebook(construct_design(2), hyperbola_signal_set([1.0], 0.25, branch="AB"))
    rep = verify_full_diversity(cb)
    _report(6, "rejected hyperbola branch pair produces reported rank-deficient pairs",
            (not rep.all_full_rank) and rep.num_rank_deficient >= 1
            and rep.first_deficient_pair is not None,
            f"{rep.num_rank_deficient} deficient pairs, first {rep.first_deficient_pair}")


def test_criterion_07a_rate():
    cb = Codebook(construct_design(3), preset_signal_set("paper-8ant-rate2"),
                  check_decodable=False)
    rate = cb.rate_bits_per_use
    _report("7a", "lam=3, M=16^4 reports 2.000 bits per channel use",
            abs(rate - 2.0) < 5e-4, f"rate = {rate:.6f}")


def test_criterion_07b_average_scale():
    # Each group alphabet is +-r_q e_{(q-1) mod 4}, q = 1..8, so its mean
    # power is 2*sum(r_q^2)/16; the four groups add, giving
    # E(a^2) = sum(r_q^2)/2.  Criterion 3 pins sum(r_q^2) = 8 (7.99829 as
    # printed) and criterion 4 pins S^H S = |x|^2 I, so E(a^2) = 4 (3.99915
    # from the printed radii; exactly 4 once they are normalised to P/2).
    # The mean of tr(S^H S)/n over the codewords themselves must agree with
    # the bookkept scales.
    expected = sum(r * r for r in PAPER_RADII) / 2
    cb = Codebook(construct_design(3), preset_signal_set("paper-8ant-rate2"),
                  check_decodable=False)
    avg = average_scale(cb)
    mats = cb.matrices
    trace_mean = float(np.vdot(mats, mats).real) / (cb.M * cb.n)
    _report("7b", "lam=3, M=16^4 reports E(a^2) = sum r^2/2 = 4 within 5e-3, "
            "and mean tr(S^H S)/n matches within 1e-9",
            abs(avg - expected) <= 5e-3 and abs(trace_mean - avg) <= 1e-9,
            f"measured E(a^2) = {avg:.6f}, sum r^2/2 = {expected:.6f}, "
            f"mean tr(S^H S)/n = {trace_mean:.6f}")


def test_criterion_08_decoder_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    instances = 0
    lam3_time = None
    for lam, m in ((1, 16), (2, 256), (3, 4096)):
        cb = Codebook(construct_design(lam), construct_signal_set(lam, m))
        rng = np.random.default_rng(1000 + lam)
        t_lam = time.perf_counter()
        for _ in range(10**4):
            r_t, r_prev, a_sq, _ = random_window(cb, rng)
            a = decode_exhaustive(cb, r_t, r_prev, a_sq)
            b = decode_group(cb, r_t, r_prev, a_sq)
            instances += 1
            if a.index != b.index:
                mismatches += 1
        if lam == 3:
            lam3_time = time.perf_counter() - t_lam
    elapsed = time.perf_counter() - t0
    _report(8, "group and exhaustive decoders agree on 100% of 3x10^4 noisy instances",
            mismatches == 0 and lam3_time < 120.0,
            f"{instances} instances, {mismatches} mismatches, "
            f"lam=3 portion {lam3_time:.1f} s, total {elapsed:.1f} s")


def test_criterion_09_complexity_accounting():
    cb = Codebook(construct_design(3), preset_signal_set("paper-8ant-rate2"))
    rng = np.random.default_rng(42)
    r_t, r_prev, a_sq, _ = random_window(cb, rng)

    res_e = decode_exhaustive(cb, r_t, r_prev, a_sq)
    res_g = decode_group(cb, r_t, r_prev, a_sq)
    counts_ok = res_e.evaluations == 65536 and res_g.evaluations == 64

    reps_e, reps_g = 10, 400
    t0 = time.perf_counter()
    for _ in range(reps_e):
        decode_exhaustive(cb, r_t, r_prev, a_sq)
    per_e = (time.perf_counter() - t0) / reps_e
    t0 = time.perf_counter()
    for _ in range(reps_g):
        decode_group(cb, r_t, r_prev, a_sq)
    per_g = (time.perf_counter() - t0) / reps_g
    ratio = per_e / per_g
    _report(9, "group decoder: 64 vs 65536 metric evaluations and >=100x faster per frame",
            counts_ok and ratio >= 100.0,
            f"exhaustive {per_e * 1e3:.2f} ms, group {per_g * 1e6:.1f} us, "
            f"ratio {ratio:.0f}x")


def test_criterion_10_monte_carlo_properties():
    t0 = time.perf_counter()
    base = dict(lam=2, m=16, n_r=1, snr_db=(0.0, 4.0, 8.0, 12.0, 16.0, 20.0),
                frames=10**5, coherence=10, decoder="group", seed=1)
    res_1w = run_sim(SimConfig(**base, workers=1))
    res_8w = run_sim(SimConfig(**base, workers=8))
    csv_1w = res_1w.to_csv()
    identical = csv_1w == res_8w.to_csv()

    blers = [p.bler for p in res_1w.points]
    strictly_decreasing = all(a > b for a, b in zip(blers, blers[1:]))
    tail_drop = blers[-1] < blers[0] / 10.0

    noiseless = run_sim(SimConfig(lam=2, m=16, n_r=1, snr_db=(math.inf,),
                                  frames=10**4, coherence=10, decoder="group", seed=1))
    zero_errors = noiseless.points[0].frame_errors == 0

    elapsed = time.perf_counter() - t0
    _report(10, "BLER sweep monotone, 10x tail drop, exact noiseless, worker-invariant CSV",
            strictly_decreasing and tail_drop and zero_errors and identical
            and elapsed < 300.0,
            f"bler = {['%.3g' % b for b in blers]}, {elapsed:.0f} s")


def test_criterion_11_circle_hyperbola_geometry():
    g = circle_hyperbola_set([1.0], 0.25)
    on_curves = all(
        abs(x * x + y * y - 1.0) <= 1e-12 and abs(x * y - 0.25) <= 1e-12
        for x, y in g
    )
    rejected = 0
    for c in (0.75, 1.0, 1.2):
        try:
            circle_hyperbola_set([1.0], c)
        except ValueError:
            rejected += 1
    _report(11, "intersection points satisfy both curve equations; c >= r1^2/2 rejected",
            on_curves and rejected == 3, f"{len(g)} points checked")
