"""NumPy implementation of the decoder metric kernel, and BLAS thread control.

``metric_scan`` makes one BLAS call per scan: the (M, n, n) candidate
stack is viewed as one (M*n, n) matrix and multiplied by ``r_prev`` (a
GEMV for one receive antenna), so the scan streams the stack once instead
of running M tiny matrix products.  It must stay semantically identical
to the compiled version in ``_ckernels.pyx``: the first candidate index
achieving the minimum wins.

OpenBLAS threads that GEMV once the stack is large enough.  Pool workers
that scan side by side would then oversubscribe the cores, so
``set_blas_threads(1)`` is the initializer of the simulator's worker
pool.  It finds the loaded OpenBLAS the way threadpoolctl does (by
walking the loaded shared objects) and does nothing where there is none.
"""

import ctypes

import numpy as np


def metric_values(stack, r_prev, r_t, inv_a):
    """|| r_t - inv_a * stack[m] @ r_prev ||_F^2 for every m, as one array."""
    m, n, _ = stack.shape
    diff = (stack.reshape(m * n, n) @ r_prev).reshape(m, n, -1)
    diff *= -inv_a
    diff += r_t
    parts = diff.reshape(m, -1).view(np.float64)
    return np.einsum("ij,ij->i", parts, parts)


def metric_scan(stack, r_prev, r_t, inv_a):
    """argmin_m || r_t - inv_a * stack[m] @ r_prev ||_F^2 over the stack.

    Returns (best_index, best_metric).
    """
    metrics = metric_values(stack, r_prev, r_t, inv_a)
    best = int(metrics.argmin())
    return best, float(metrics[best])


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
