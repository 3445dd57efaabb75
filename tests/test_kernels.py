import functools
import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gdstbc
from gdstbc import _kernels, codebook, diffcodec, sim
from gdstbc._kernels import FactoredTable, metric_scan, metric_values
from gdstbc.codebook import Codebook
from gdstbc.design import construct_design
from gdstbc.diffcodec import decode_exhaustive
from gdstbc.signalset import construct_signal_set
from gdstbc.sim import SimConfig, build_codebook

from oracles import dense_unitarity_residual, factored_scan, noisy_window


def _random_problem(rng, m=32, n=4, nr=2):
    stack = np.ascontiguousarray(
        rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    )
    r_prev = np.ascontiguousarray(rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr)))
    r_t = np.ascontiguousarray(rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr)))
    return stack, r_prev, r_t


class TestFallbackKernel:
    """The direct scan on small hand-made problems."""

    def test_exact_zero_at_match(self):
        rng = np.random.default_rng(0)
        stack, r_prev, _ = _random_problem(rng)
        r_t = 0.5 * (stack[7] @ r_prev)
        idx, metric = metric_scan(stack, r_prev, r_t, 0.5)
        assert idx == 7
        assert metric == pytest.approx(0.0, abs=1e-20)

    def test_first_minimum_wins(self):
        stack = np.zeros((4, 2, 2), dtype=np.complex128)
        stack[2] = np.eye(2)  # both zero rows tie; index 0 must win
        r_prev = np.zeros((2, 1), dtype=np.complex128)
        r_t = np.zeros((2, 1), dtype=np.complex128)
        idx, metric = metric_scan(stack, r_prev, r_t, 1.0)
        assert idx == 0 and metric == 0.0

    def test_shape_mismatch_raises(self):
        stack = np.zeros((2, 3, 3), dtype=np.complex128)
        bad_prev = np.zeros((2, 1), dtype=np.complex128)
        r_t = np.zeros((3, 1), dtype=np.complex128)
        with pytest.raises(ValueError):
            metric_scan(stack, bad_prev, r_t, 1.0)
        # the coordinate form, on two candidates of a K = 4 design
        with pytest.raises(ValueError):
            metric_scan(np.zeros((2, 4, 1)), np.zeros(3), np.ones(2))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        stack, r_prev, r_t = _random_problem(rng, m=17, n=3, nr=2)
        inv_a = 0.7
        metrics = [
            float(np.sum(np.abs(r_t - inv_a * (stack[m] @ r_prev)) ** 2))
            for m in range(stack.shape[0])
        ]
        idx, metric = metric_scan(stack, r_prev, r_t, inv_a)
        assert idx == int(np.argmin(metrics))
        assert metric == pytest.approx(min(metrics), rel=1e-12)


def _naive(stack, r_prev, r_t, inv_a):
    metrics = [float(np.sum(np.abs(r_t - inv_a * (stack[m] @ r_prev)) ** 2))
               for m in range(stack.shape[0])]
    return int(np.argmin(metrics)), min(metrics)


class TestGemvKernel:
    """The one-GEMV scan against a per-candidate loop."""

    @pytest.mark.parametrize("nr", [1, 2, 3])
    @pytest.mark.parametrize("inv_a", [1.0, 0.37])
    def test_matches_naive_loop_per_receive_count(self, nr, inv_a):
        rng = np.random.default_rng(10 + nr)
        stack, r_prev, r_t = _random_problem(rng, m=64, n=8, nr=nr)
        idx, metric = metric_scan(stack, r_prev, r_t, inv_a)
        ref_idx, ref_metric = _naive(stack, r_prev, r_t, inv_a)
        assert idx == ref_idx
        assert metric == pytest.approx(ref_metric, rel=1e-12)

    @pytest.mark.parametrize("layout", ["fortran", "sliced", "transposed"])
    def test_non_contiguous_operands(self, layout):
        rng = np.random.default_rng(20)
        stack, r_prev, r_t = _random_problem(rng, m=80, n=4, nr=2)
        view = {"fortran": np.asfortranarray(stack), "sliced": stack[1::3],
                "transposed": stack.transpose(0, 2, 1)}[layout]
        assert not view.flags.c_contiguous
        idx, metric = metric_scan(view, np.asfortranarray(r_prev), r_t[:, ::-1], 0.8)
        ref_idx, ref_metric = _naive(view, r_prev, r_t[:, ::-1], 0.8)
        assert idx == ref_idx
        assert metric == pytest.approx(ref_metric, rel=1e-12)

    def test_large_random_stack(self):
        rng = np.random.default_rng(21)
        stack, r_prev, r_t = _random_problem(rng, m=4096, n=8, nr=1)
        idx, metric = metric_scan(stack, r_prev, r_t, 0.6)
        ref_idx, ref_metric = _naive(stack, r_prev, r_t, 0.6)
        assert idx == ref_idx
        assert metric == pytest.approx(ref_metric, rel=1e-12)

    def test_first_minimum_wins_on_large_stack(self):
        # integer-valued operands make every metric exact, so the ties are exact
        rng = np.random.default_rng(22)
        stack = (rng.integers(-2, 3, (4096, 8, 8))
                 + 1j * rng.integers(-2, 3, (4096, 8, 8))).astype(np.complex128)
        r_prev = np.ascontiguousarray(rng.integers(-2, 3, (8, 1)) + 0j)
        for k in (3001, 1234, 4095):
            stack[k] = stack[777]
        r_t = 0.5 * (stack[777] @ r_prev)
        idx, metric = metric_scan(np.ascontiguousarray(stack), r_prev, r_t, 0.5)
        assert (idx, metric) == (777, 0.0)
        stack[777] += 1  # the earliest remaining copy now wins
        idx, metric = metric_scan(np.ascontiguousarray(stack), r_prev, r_t, 0.5)
        assert (idx, metric) == (1234, 0.0)


#: Codebooks the simulator can build: lam 1-4, the preset and the hyperbola family.
SCALED_CONFIGS = {
    "lam1-M256": dict(lam=1, m=256),
    "lam2-M256": dict(lam=2, m=256),
    "lam3-M4096": dict(lam=3, m=4096),
    "lam4-M16": dict(lam=4, m=16),
    "preset": dict(lam=3, m=16**4, preset="paper-8ant-rate2"),
    "hyperbola": dict(lam=2, m=256, family="hyperbola"),
}


@pytest.fixture(scope="module", params=sorted(SCALED_CONFIGS))
def scaled_cb(request):
    cb = build_codebook(SimConfig(**SCALED_CONFIGS[request.param]))
    assert cb.max_unitarity_residual() == dense_unitarity_residual(cb) <= 1e-9
    return cb


@functools.lru_cache(maxsize=4)
def _table(cb):
    """``cb.coordinate_table()``, built once for the scans below."""
    return cb.coordinate_table()


def _scaled_h(cb, r_prev, r_t, inv_a):
    """h = -2 inv_a g / c of the coordinate form, from its definition."""
    g = np.array([np.trace(r_t.conj().T @ a @ r_prev).real for a in cb.basis])
    return -2.0 * inv_a * g / (inv_a ** 2 * np.vdot(r_prev, r_prev).real)


def _scan_table(cb, h):
    """metric_scan's coordinate form on ``cb``'s table."""
    table, scales = _table(cb)
    return metric_scan(table, h, scales)


class TestScaledUnitaryScan:
    """metric_scan in a codebook's real coordinates (``coordinate_table``
    against h) against the direct metric on its codeword stack."""

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("inv_a", [1.0, 0.37])
    @pytest.mark.parametrize("nr", [1, 2, 3])
    def test_matches_metric_values(self, scaled_cb, nr, inv_a, sigma):
        cb = scaled_cb
        rng = np.random.default_rng([nr, int(inv_a * 100), int(sigma * 1e3)])
        for _ in range(3):
            r_t, r_prev, _ = noisy_window(cb, rng, sigma, nr)
            ref = metric_values(cb.matrices, r_prev, r_t, inv_a)
            h = _scaled_h(cb, r_prev, r_t, inv_a)
            idx = _scan_table(cb, h)
            # the metric is ||r_t||^2 + c (x_m . h + a_m)
            c = inv_a ** 2 * np.vdot(r_prev, r_prev).real
            metric = np.vdot(r_t, r_t).real + c * cb.coordinate_metrics(h)[idx]
            size = np.vdot(r_t, r_t).real + c * _table(cb)[1].max()
            assert idx == int(ref.argmin())
            assert abs(metric - ref.min()) <= 1e-12 * size

    def test_no_h_ties_to_first_index(self, scaled_cb):
        # h is None when r_prev == 0: every candidate's metric is ||r_t||^2
        assert _scan_table(scaled_cb, None) == 0

    def test_group_tables(self, scaled_cb):
        # a group's points as a (P_k, 1, K/4) table, with its norms and its
        # slice of h, as decide_group scans them
        cb = scaled_cb
        rng = np.random.default_rng(33)
        r_t, r_prev, a_sq = noisy_window(cb, rng, 0.3, 2)
        h = _scaled_h(cb, r_prev, r_t, 1.0 / math.sqrt(a_sq))
        for points, h_k, norms in zip(cb.alphabets, h.reshape(4, -1), cb.group_norms):
            want = int((points @ h_k + norms).argmin())
            assert metric_scan(points[:, None], h_k, norms) == want

    def test_non_contiguous_h(self):
        cb = Codebook(construct_design(2), construct_signal_set(2, 256))
        r_t, r_prev, _ = noisy_window(cb, np.random.default_rng(30), 0.1, 3)
        h = _scaled_h(cb, r_prev, r_t, 0.6)
        view = np.repeat(h, 2)[::2]
        assert not view.flags.c_contiguous
        assert _scan_table(cb, view) == _scan_table(cb, h)
        assert _scan_table(cb, h) == int(metric_values(cb.matrices, r_prev, r_t, 0.6).argmin())

    def test_one_candidate_sized_array_per_scan(self):
        # a second M-sized temporary would cost a fresh allocation (and its
        # page faults) on every scan
        cb = build_codebook(SimConfig(lam=3, m=4096))
        r_t, r_prev, _ = noisy_window(cb, np.random.default_rng(32), 0.1, 2)
        table, scales = cb.coordinate_table()
        args = (table, _scaled_h(cb, r_prev, r_t, 0.7), scales)
        metric_scan(*args)
        tracemalloc.start()
        try:
            metric_scan(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * cb.M <= peak < 12 * cb.M

    def test_without_scales_is_the_direct_scan(self):
        rng = np.random.default_rng(31)
        stack, r_prev, r_t = _random_problem(rng, m=64, n=4, nr=2)
        metrics = metric_values(stack, r_prev, r_t, 0.9)
        best = int(metrics.argmin())
        assert metric_scan(stack, r_prev, r_t, 0.9) == (best, float(metrics[best]))


def _factored(cb):
    """``cb``'s ``FactoredTable``, whatever its size."""
    return FactoredTable(cb.alphabets, cb.group_norms)


def _e1(n):
    e = np.zeros((n, 1), dtype=np.complex128)
    e[0] = 1.0
    return e


class TestFactoredScan:
    """metric_scan on a ``FactoredTable``: the four groups' scores summed in
    ``compose`` order, bit for bit ``coordinate_metrics``."""

    @pytest.mark.parametrize("limit", [0, math.inf])
    def test_equals_the_coordinate_metrics_argmin(self, scaled_cb, limit, monkeypatch):
        # both sides of the threshold: the scan of exhaustive_table picks
        # coordinate_metrics' first argmin on random and on received h
        monkeypatch.setattr(codebook, "TABLE_SCAN_BYTES", limit)
        cb = Codebook(scaled_cb.design, scaled_cb.alphabets, check_decodable=False)
        table, *scales = cb.exhaustive_table
        assert isinstance(table, FactoredTable) == (limit == 0)
        rng = np.random.default_rng(45)
        for w in range(30):
            if w % 2:
                r_t, r_prev, a_sq = noisy_window(cb, rng, (0.0, 0.05, 0.5)[w % 3], 1 + w % 3)
                h = _scaled_h(cb, r_prev, r_t, 1.0 / math.sqrt(a_sq))
            else:
                h = rng.standard_normal(cb.design.K) * 10.0 ** rng.integers(-3, 4)
            assert metric_scan(table, h, *scales) == int(cb.coordinate_metrics(h).argmin())

    def test_stands_for_the_coordinate_table(self, scaled_cb):
        # the four groups' points, one per codeword row-major, are the
        # coordinate table's rows and their norms its scales
        cb = scaled_cb
        factored = _factored(cb)
        table, scales = _table(cb)
        assert factored.shape == table.shape
        assert table.reshape(cb.M, -1).flags.f_contiguous
        idx = np.unravel_index(np.arange(cb.M), cb.sizes)
        for k, points in enumerate(factored.points):
            assert np.array_equal(table[:, k], points[idx[k]])
        assert np.array_equal(cb.compose(factored.norms, idx), scales)

    @pytest.mark.parametrize("case", ["plain", "tiny-prev", "large-t", "tiny-t"])
    def test_scaled_windows_give_the_coordinate_metrics_argmin(self, scaled_cb, case):
        # received windows scaled far from unit power, down to a subnormal h
        cb = scaled_cb
        prev_scale, t_scale = {"plain": (1.0, 1.0), "tiny-prev": (1e-12, 1.0),
                               "large-t": (1.0, 1e12), "tiny-t": (1.0, 1e-41)}[case]
        factored = _factored(cb)
        rng = np.random.default_rng(40)
        for w in range(4):
            r_t, r_prev, a_sq = noisy_window(cb, rng, 0.3, 1 + w % 3)
            h = _scaled_h(cb, r_prev * prev_scale, r_t * t_scale, 1.0 / math.sqrt(a_sq))
            assert np.all(np.isfinite(h))
            assert metric_scan(factored, h) == int(cb.coordinate_metrics(h).argmin())

    def test_exact_tie_in_group_3_goes_to_the_first_index(self):
        # small integers make every score exact: codewords (1, 0, 2, 1) and
        # (1, 0, 2, 3) differ only in group 3 and tie at the minimum
        points = ([[1.0], [-1.0]], [[0.0], [2.0]], [[1.0], [3.0], [-1.0]],
                  [[3.0], [-1.0], [1.0], [-1.0]])
        points = [np.array(p) for p in points]
        norms = [np.einsum("pd,pd->p", p, p) for p in points]
        h = np.array([1.0, -1.0, 1.0, 2.0])
        sums = sum(np.meshgrid(*[p @ h_k + n for p, h_k, n in zip(points, h[:, None], norms)],
                               indexing="ij")).ravel()
        first, second = (int(np.ravel_multi_index(i, (2, 2, 3, 4)))
                         for i in ((1, 0, 2, 1), (1, 0, 2, 3)))
        assert np.flatnonzero(sums == sums.min()).tolist() == [first, second]
        assert metric_scan(FactoredTable(points, norms), h) == first

    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_near_ties_give_the_float64_decision(self, lam):
        # M 16: every group's points are +-e1, and with r_prev = e1 every
        # prediction S_m r_prev is exact, so the midpoint of two codewords that
        # differ in one group ties them exactly in float64
        cb = build_codebook(SimConfig(lam=lam, m=16))
        factored = _factored(cb)
        e1 = _e1(cb.n)
        rng = np.random.default_rng(lam)
        for k in range(4):
            lo = [int(i) for i in rng.integers(0, 2, 4)]
            lo[k] = 0
            hi = list(lo)
            hi[k] = 1
            pred_lo, pred_hi = (cb.codeword_at(i).matrix @ e1 for i in (lo, hi))
            mid = (pred_lo + pred_hi) / 2
            assert cb.unravel_index(metric_scan(factored, _scaled_h(cb, e1, mid, 1.0))) \
                == decode_exhaustive(cb, mid, e1, 1.0).index == tuple(lo)
            # about 1e-10 relative toward the higher index
            for toward, want in ((pred_hi, hi), (pred_lo, lo)):
                r_t = mid + 1e-10 * (toward - mid)
                assert decode_exhaustive(cb, r_t, e1, 1.0).index == tuple(want)
                h = _scaled_h(cb, e1, r_t, 1.0)
                assert metric_scan(factored, h) == _scan_table(cb, h)
                assert cb.unravel_index(_scan_table(cb, h)) == tuple(want)

    def test_near_tie_in_group_3(self):
        # lam 2 M 256: two codewords that differ in group 3, 1e-8 apart
        cb = build_codebook(SimConfig(lam=2, m=256))
        e1 = _e1(cb.n)
        win, lose = (1, 2, 3, 1), (1, 2, 3, 3)
        pred_win, pred_lose = (cb.codeword_at(i).matrix @ e1 for i in (win, lose))
        r_t = (pred_win + pred_lose) / 2 + 1e-8 * (pred_win - pred_lose) / 2
        assert decode_exhaustive(cb, r_t, e1, 1.0).index == win
        assert cb.unravel_index(metric_scan(_factored(cb), _scaled_h(cb, e1, r_t, 1.0))) == win

    def test_no_h_ties_to_first_index(self, scaled_cb):
        assert metric_scan(_factored(scaled_cb), None) == 0

    def test_extreme_scales(self):
        # ||h|| about 1e40 and 1e-30: the float64 sums still order the codewords
        cb = build_codebook(SimConfig(lam=3, m=256))
        rng = np.random.default_rng(41)
        for prev_scale, t_scale in ((1e-30, 1e10), (1.0, 1e-30)):
            r_t, r_prev, a_sq = noisy_window(cb, rng, 0.3, 2)
            h = _scaled_h(cb, r_prev * prev_scale, r_t * t_scale, 1.0 / math.sqrt(a_sq))
            assert metric_scan(_factored(cb), h) == _scan_table(cb, h)

    def test_preset_decisions_equal_the_table_scan(self):
        cb = build_codebook(SimConfig(lam=3, m=16**4, preset="paper-8ant-rate2"))
        factored = _factored(cb)
        rng = np.random.default_rng(43)
        for w in range(40):
            r_t, r_prev, a_sq = noisy_window(cb, rng, (0.0, 0.05, 0.5)[w % 3], 1 + w % 2)
            h = _scaled_h(cb, r_prev, r_t, 1.0 / math.sqrt(a_sq))
            assert metric_scan(factored, h) == _scan_table(cb, h)

    def test_holds_what_exhaustive_table_counts(self, monkeypatch):
        # exhaustive_table checks the worst case against the memory available:
        # every point of every group tied, so that the sums run over all M,
        # with the partial sums of groups 0-1 and 0-2 and the scores.  NumPy's
        # broadcasting add also keeps up to two 64 KiB iterator buffers,
        # whatever M, which no check counts.  lam 3, the eight points +-e_i in
        # each group: every norm is 1, so h = 0 ties all M = 4096 codewords
        monkeypatch.setattr(codebook, "TABLE_SCAN_BYTES", 0)
        counted = []
        monkeypatch.setattr(codebook, "check_memory", lambda need, nbytes: counted.append(nbytes))
        unit = np.concatenate((np.eye(4), -np.eye(4)))
        cb = Codebook(construct_design(3), [unit] * 4, check_decodable=False)
        counted.clear()
        (factored,) = cb.exhaustive_table
        s0, s1, s2, _ = cb.sizes
        assert counted == [8 * (cb.M + s0 * s1 * s2 + s0 * s1 + sum(cb.sizes))]
        tied = np.zeros(cb.design.K)
        h = np.random.default_rng(32).standard_normal(cb.design.K)
        peaks = {}
        for name, frame_h in (("tied", tied), ("random", h)):
            metric_scan(factored, frame_h)
            tracemalloc.start()
            try:
                metric_scan(factored, frame_h)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert 8 * cb.M <= peaks["tied"] <= counted[0] + 2 * 2**16, peaks
        # one near point per group: no M-sized array at all
        assert peaks["random"] < cb.M, peaks


def _hand_codebook(lam, points):
    """A codebook of the lam design over hand-made alphabets, any sizes."""
    return Codebook(construct_design(lam), [np.array(p, dtype=float) for p in points],
                    check_decodable=False)


class TestFactoredTieSet:
    """The factored scan decides from the group minima and the points near
    them; it must return the all-M scan's index (``oracles.factored_scan``)
    and ``coordinate_metrics``' first argmin on exact ties, near ties and
    extreme or non-finite h."""

    @pytest.fixture
    def tie_calls(self, monkeypatch):
        # counts the scans that sum over a product of near sets (or all M)
        calls = []
        inner = _kernels._first_in

        def spy(scores, ids):
            calls.append(math.prod(map(len, ids)))
            return inner(scores, ids)

        monkeypatch.setattr(_kernels, "_first_in", spy)
        return calls

    @staticmethod
    def _check(cb, h):
        want = factored_scan(cb.alphabets, cb.group_norms, h)
        assert metric_scan(_factored(cb), h) == want == int(cb.coordinate_metrics(h).argmin())

    @staticmethod
    def _integer_codebooks(rng, count):
        # lam 2 (two coordinates a group): small integer points, repeated
        # within a group and across groups, 2 to 6 points a group
        for _ in range(count):
            pool = rng.integers(-2, 3, (4, 2))
            yield _hand_codebook(2, [pool[rng.integers(0, 4, rng.integers(2, 7))]
                                     for _ in range(4)])

    def test_integer_ties_within_and_across_groups(self, tie_calls):
        rng = np.random.default_rng(46)
        for cb in self._integer_codebooks(rng, 60):
            for _ in range(10):
                self._check(cb, rng.integers(-2, 3, 8).astype(float))
        assert tie_calls and max(tie_calls) > 1

    def test_one_ulp_near_ties(self, tie_calls):
        # integer h moved by one unit in the last place, each way, on one
        # coordinate at a time: ties split by a single rounding
        rng = np.random.default_rng(47)
        for cb in self._integer_codebooks(rng, 30):
            base = rng.integers(-2, 3, 8).astype(float)
            for v in range(8):
                for toward in (-np.inf, np.inf):
                    h = base.copy()
                    h[v] = np.nextafter(h[v], toward)
                    self._check(cb, h)
        assert tie_calls

    @pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e-12, 1.0, 1e12])
    def test_subnormal_and_scaled_h(self, scale):
        # random h scaled down to subnormals and up by 1e12, on the preset,
        # a lam 2 hyperbola set and integer tables (where the scores of tiny h
        # round to the norms and tie)
        rng = np.random.default_rng(48)
        cbs = [build_codebook(SimConfig(lam=3, m=16**4, preset="paper-8ant-rate2")),
               build_codebook(SimConfig(lam=2, m=256, family="hyperbola"))]
        cbs += list(self._integer_codebooks(rng, 10))
        for cb in cbs:
            for _ in range(10):
                self._check(cb, rng.standard_normal(cb.design.K) * scale)
                self._check(cb, rng.integers(-3, 4, cb.design.K) * scale)

    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_zero_h_on_equal_norms_ties_everything(self, lam, tie_calls):
        # M 16: every group is +-e1, so h = 0 ties all M codewords and the
        # scan sums the full product; index 0 wins
        cb = build_codebook(SimConfig(lam=lam, m=16))
        h = np.zeros(cb.design.K)
        assert metric_scan(_factored(cb), h) == factored_scan(cb.alphabets, cb.group_norms,
                                                               h) == 0
        assert tie_calls == [cb.M]

    def test_unequal_group_sizes(self, tie_calls):
        # the padded norms (+inf) never win, tie or no tie
        rng = np.random.default_rng(49)
        for sizes in ((1, 2, 3, 4), (5, 1, 1, 2), (2, 7, 3, 1), (3, 3, 3, 9)):
            points = [rng.integers(-1, 2, (p, 2)) for p in sizes]
            cb = _hand_codebook(2, points)
            assert _factored(cb).padded_norms.shape == (4, max(sizes))
            for _ in range(20):
                self._check(cb, rng.integers(-2, 3, 8).astype(float))
                self._check(cb, rng.standard_normal(8))
        assert tie_calls

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e308])
    def test_non_finite_scores_scan_all_m(self, bad, tie_calls):
        # a non-finite (or overflowing) minimum: the full product, the
        # arithmetic of the all-M scan, NaN and infinities included
        rng = np.random.default_rng(50)
        cb = _hand_codebook(2, [rng.integers(-1, 2, (p, 2)) for p in (3, 2, 4, 3)])
        with np.errstate(all="ignore"):
            for v in range(8):
                h = rng.standard_normal(8)
                h[v] = bad
                self._check(cb, h)
        assert tie_calls.count(cb.M) >= 1


def _load_bench_kernels():
    """benchmarks/bench_kernels.py as a module (the benchmarks are not a package)."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_kernels_scans_agree():
    # each timed scan once, on lam 1 M 16, so a renamed Codebook member breaks here
    bench = _load_bench_kernels()
    cb = build_codebook(SimConfig(lam=1, m=16))
    rng = np.random.default_rng(44)
    for _ in range(5):
        r_t, r_prev, a_sq = noisy_window(cb, rng, 0.5, 1)
        frame = (r_prev, r_t, 1.0 / math.sqrt(a_sq))
        best = {}
        for name, bind in bench.SCANS:
            operands, scan = bind(cb)
            best[name] = scan(*operands(*frame))
        assert sorted(best) == ["direct", "factored", "table"]
        assert len(set(best.values())) == 1


class TestBackendSelection:
    def test_backend_reported(self):
        # one kernel module, and the simulator scans only through diffcodec
        assert diffcodec.metric_scan is _kernels.metric_scan
        assert not hasattr(sim, "metric_scan")
        assert gdstbc.BACKEND == _kernels.BACKEND == "python"
