"""The decoder metric kernel (NumPy), and BLAS thread control.

``metric_scan`` makes one BLAS call per scan: the (M, n, n) candidate
stack is viewed as one (M*n, n) matrix and multiplied by ``r_prev`` (a
GEMV for one receive antenna), so the scan streams the stack once instead
of running M tiny matrix products.  The first candidate index achieving
the minimum wins.

Given ``scales``, the a_m with ``stack[m]^H stack[m] = a_m I``, the scan
uses the scaled-unitary expansion of the metric instead,

    ||r_t||^2 + inv_a^2 a_m ||r_prev||^2 - 2 inv_a Re tr(r_t^H S_m r_prev),

whose only per-candidate work is the cross term: with the n x n matrix
w = conj(r_t) r_prev^T it is sum_ij S_m[i, j] w[i, j], one GEMV over the
stack viewed as (M, n*n), and no (M, n, n_r) product is formed.
||r_t||^2 is the same for every candidate, so it is added to the
winner's metric only.  The caller vouches for the identity; on a stack
that breaks it the result is a different metric.

OpenBLAS threads that GEMV once the stack is large enough.  Pool workers
that scan side by side would then oversubscribe the cores, so
``set_blas_threads(1)`` is the initializer of the simulator's worker
pool.  It finds the loaded OpenBLAS the way threadpoolctl does (by
walking the loaded shared objects) and does nothing where there is none.
"""

import ctypes

import numpy as np

#: The metric kernel's implementation, reported in ``--json`` output.
BACKEND = "python"


def metric_values(stack, r_prev, r_t, inv_a):
    """|| r_t - inv_a * stack[m] @ r_prev ||_F^2 for every m, as one array.

    One GEMV (a GEMM for several receive antennas), two in-place updates
    and one row-wise sum of squares over the float64 view, whatever the
    stack size: at the sizes of the group stacks (M from 2 to 16) the
    cost is per-call overhead, not arithmetic.
    """
    m, n, _ = stack.shape
    diff = np.dot(stack.reshape(m * n, n), r_prev).reshape(m, -1)
    diff *= -inv_a
    diff += r_t.reshape(-1)
    parts = diff.view(np.float64)
    return np.vecdot(parts, parts)


def metric_scan(stack, r_prev, r_t, inv_a, scales=None):
    """argmin_m || r_t - inv_a * stack[m] @ r_prev ||_F^2 over the stack.

    ``scales`` (optional) are the a_m of a scaled-unitary stack; with
    them the scan uses the expansion in the module docstring.  Returns
    (best_index, best_metric).
    """
    if scales is None:
        metrics = metric_values(stack, r_prev, r_t, inv_a)
        best = int(metrics.argmin())
        return best, float(metrics[best])
    m, n, _ = stack.shape
    # np.dot, not @: about 1 us less per call, which matters at M = 16
    w = np.dot(r_t.conj(), r_prev.T)
    w *= -2.0 * inv_a
    metrics = scales * (inv_a * inv_a * np.vdot(r_prev, r_prev).real)
    metrics += np.dot(stack.reshape(m, n * n), w.reshape(n * n)).real
    best = int(metrics.argmin())
    return best, float(np.vdot(r_t, r_t).real + metrics[best])


class _DlPhdrInfo(ctypes.Structure):
    _fields_ = [("dlpi_addr", ctypes.c_void_p), ("dlpi_name", ctypes.c_char_p)]


_DL_CALLBACK = ctypes.CFUNCTYPE(
    ctypes.c_int, ctypes.POINTER(_DlPhdrInfo), ctypes.c_size_t, ctypes.c_void_p)

#: Thread-count entry points of the OpenBLAS builds NumPy ships or links.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


def _openblas_libs():
    """The loaded OpenBLAS libraries, as ctypes handles (empty if none)."""
    paths = []

    def collect(info, size, data):
        name = info.contents.dlpi_name
        if name and b"openblas" in name:
            paths.append(name.decode())
        return 0

    try:
        ctypes.CDLL(None).dl_iterate_phdr(_DL_CALLBACK(collect), None)
    except (AttributeError, OSError, TypeError):  # no dl_iterate_phdr here
        return []
    return [ctypes.CDLL(p) for p in paths]


def _entry(lib, verb):
    for pattern in _OPENBLAS_SYMBOLS:
        fn = getattr(lib, pattern.format(verb), None)
        if fn is not None:
            return fn
    return None


def set_blas_threads(count: int) -> None:
    """Set the thread count of every loaded OpenBLAS; a no-op without one."""
    for lib in _openblas_libs():
        fn = _entry(lib, "set")
        if fn is not None:
            fn(count)


def blas_threads():
    """Thread count of the first loaded OpenBLAS, or None if there is none."""
    for lib in _openblas_libs():
        fn = _entry(lib, "get")
        if fn is not None:
            return int(fn())
    return None
