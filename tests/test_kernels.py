import os
import subprocess
import sys

import numpy as np
import pytest

from gdstbc import _kernels
from gdstbc._kernels_py import metric_scan as py_metric_scan

try:
    from gdstbc._ckernels import metric_scan as c_metric_scan

    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False

needs_compiled = pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernel not built")


def _random_problem(rng, m=32, n=4, nr=2):
    stack = np.ascontiguousarray(
        rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    )
    r_prev = np.ascontiguousarray(rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr)))
    r_t = np.ascontiguousarray(rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr)))
    return stack, r_prev, r_t


class TestFallbackKernel:
    def test_exact_zero_at_match(self):
        rng = np.random.default_rng(0)
        stack, r_prev, _ = _random_problem(rng)
        r_t = 0.5 * (stack[7] @ r_prev)
        idx, metric = py_metric_scan(stack, r_prev, r_t, 0.5)
        assert idx == 7
        assert metric == pytest.approx(0.0, abs=1e-20)

    def test_first_minimum_wins(self):
        stack = np.zeros((4, 2, 2), dtype=np.complex128)
        stack[2] = np.eye(2)  # both zero rows tie; index 0 must win
        r_prev = np.zeros((2, 1), dtype=np.complex128)
        r_t = np.zeros((2, 1), dtype=np.complex128)
        idx, metric = py_metric_scan(stack, r_prev, r_t, 1.0)
        assert idx == 0 and metric == 0.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        stack, r_prev, r_t = _random_problem(rng, m=17, n=3, nr=2)
        inv_a = 0.7
        metrics = [
            float(np.sum(np.abs(r_t - inv_a * (stack[m] @ r_prev)) ** 2))
            for m in range(stack.shape[0])
        ]
        idx, metric = py_metric_scan(stack, r_prev, r_t, inv_a)
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
        idx, metric = py_metric_scan(stack, r_prev, r_t, inv_a)
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
        idx, metric = py_metric_scan(view, np.asfortranarray(r_prev), r_t[:, ::-1], 0.8)
        ref_idx, ref_metric = _naive(view, r_prev, r_t[:, ::-1], 0.8)
        assert idx == ref_idx
        assert metric == pytest.approx(ref_metric, rel=1e-12)

    def test_large_random_stack(self):
        rng = np.random.default_rng(21)
        stack, r_prev, r_t = _random_problem(rng, m=4096, n=8, nr=1)
        idx, metric = py_metric_scan(stack, r_prev, r_t, 0.6)
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
        idx, metric = py_metric_scan(np.ascontiguousarray(stack), r_prev, r_t, 0.5)
        assert (idx, metric) == (777, 0.0)
        stack[777] += 1  # the earliest remaining copy now wins
        idx, metric = py_metric_scan(np.ascontiguousarray(stack), r_prev, r_t, 0.5)
        assert (idx, metric) == (1234, 0.0)


@needs_compiled
class TestCompiledKernel:
    def test_agrees_with_fallback(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            stack, r_prev, r_t = _random_problem(
                rng, m=int(rng.integers(1, 64)), n=int(rng.integers(1, 9)),
                nr=int(rng.integers(1, 4)),
            )
            inv_a = float(rng.uniform(0.2, 2.0))
            ci, cm = c_metric_scan(stack, r_prev, r_t, inv_a)
            pi, pm = py_metric_scan(stack, r_prev, r_t, inv_a)
            assert ci == pi
            assert cm == pytest.approx(pm, rel=1e-10)

    def test_tie_break_matches_fallback(self):
        stack = np.zeros((5, 3, 3), dtype=np.complex128)
        stack[1] = stack[3] = np.eye(3)
        r_prev = np.ascontiguousarray(np.ones((3, 1), dtype=np.complex128))
        r_t = np.ascontiguousarray(np.ones((3, 1), dtype=np.complex128))
        # candidates 1 and 3 both hit metric 0; first one wins in both backends
        ci, _ = c_metric_scan(stack, r_prev, r_t, 1.0)
        pi, _ = py_metric_scan(stack, r_prev, r_t, 1.0)
        assert ci == pi == 1

    def test_shape_validation(self):
        stack = np.zeros((2, 3, 3), dtype=np.complex128)
        bad_prev = np.zeros((2, 1), dtype=np.complex128)
        r_t = np.zeros((3, 1), dtype=np.complex128)
        with pytest.raises(ValueError):
            c_metric_scan(stack, bad_prev, r_t, 1.0)


class TestBackendSelection:
    def test_backend_reported(self):
        assert _kernels.BACKEND in ("compiled", "python")
        if HAVE_COMPILED and not os.environ.get("GDSTBC_PURE_PYTHON"):
            assert _kernels.BACKEND == "compiled"

    def test_env_override_forces_python(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, GDSTBC_PURE_PYTHON="1")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", "from gdstbc._kernels import BACKEND; print(BACKEND)"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"
