import tracemalloc

import numpy as np
import pytest

import gdstbc
from gdstbc import _kernels, diffcodec, sim
from gdstbc._kernels import metric_scan, metric_values
from gdstbc.codebook import Codebook
from gdstbc.design import construct_design
from gdstbc.signalset import construct_signal_set
from gdstbc.sim import SimConfig, build_codebook

from oracles import noisy_window


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
        basis = np.zeros((4, 3, 3), dtype=np.complex128)
        with pytest.raises(ValueError):
            metric_scan(np.zeros((2, 4, 1)), bad_prev, r_t, 1.0, np.ones(2), basis)

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
    assert cb.max_unitarity_residual() <= 1e-9
    return cb


class TestScaledUnitaryScan:
    """metric_scan in a codebook's real coordinates (``points`` with ``scales``
    and ``basis``) against the direct metric on its codeword stack."""

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 1.0])
    @pytest.mark.parametrize("inv_a", [1.0, 0.37])
    @pytest.mark.parametrize("nr", [1, 2, 3])
    def test_matches_metric_values(self, scaled_cb, nr, inv_a, sigma):
        cb = scaled_cb
        rng = np.random.default_rng([nr, int(inv_a * 100), int(sigma * 1e3)])
        for _ in range(3):
            r_t, r_prev, _ = noisy_window(cb, rng, sigma, nr)
            ref = metric_values(cb.matrices, r_prev, r_t, inv_a)
            idx, metric = metric_scan(cb.points, r_prev, r_t, inv_a, cb.scales, cb.basis)
            size = (np.vdot(r_t, r_t).real
                    + inv_a ** 2 * cb.scales.max() * np.vdot(r_prev, r_prev).real)
            assert idx == int(ref.argmin())
            assert abs(metric - ref.min()) <= 1e-12 * size

    def test_zero_previous_frame_ties_to_first_index(self, scaled_cb):
        cb = scaled_cb
        r_prev = np.zeros((cb.n, 2), dtype=np.complex128)
        r_t = np.ones((cb.n, 2), dtype=np.complex128)
        idx, metric = metric_scan(cb.points, r_prev, r_t, 0.8, cb.scales, cb.basis)
        assert idx == 0
        assert metric == 2.0 * cb.n

    def test_non_contiguous_frames(self):
        cb = Codebook(construct_design(2), construct_signal_set(2, 256))
        rng = np.random.default_rng(30)
        r_t, r_prev, _ = noisy_window(cb, rng, 0.1, 3)
        views = (np.asfortranarray(r_prev), r_t[:, ::-1])
        assert not views[0].flags.c_contiguous and not views[1].flags.c_contiguous
        idx, metric = metric_scan(cb.points, *views, 0.6, cb.scales, cb.basis)
        ref = metric_values(cb.matrices, r_prev, r_t[:, ::-1], 0.6)
        assert idx == int(ref.argmin())
        assert metric == pytest.approx(ref.min(), rel=1e-12)

    def test_one_candidate_sized_array_per_scan(self):
        # a second M-sized temporary would cost a fresh allocation (and its
        # page faults) on every scan
        cb = build_codebook(SimConfig(lam=3, m=4096))
        r_t, r_prev, _ = noisy_window(cb, np.random.default_rng(32), 0.1, 2)
        args = (cb.points, r_prev, r_t, 0.7, cb.scales, cb.basis)
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


class TestBackendSelection:
    def test_backend_reported(self):
        # one kernel module, and the simulator scans only through diffcodec
        assert diffcodec.metric_scan is _kernels.metric_scan
        assert not hasattr(sim, "metric_scan")
        assert gdstbc.BACKEND == _kernels.BACKEND == "python"
