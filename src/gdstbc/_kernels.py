"""The decoder metric kernel (NumPy), and BLAS thread control.

``metric_scan`` makes one BLAS call per scan over the candidates.  In
its direct form the (M, n, n) candidate stack is viewed as one (M*n, n)
matrix and multiplied by ``r_prev`` (a GEMV for one receive antenna), so
the scan streams the stack once instead of running M tiny matrix
products.  The first candidate index achieving the minimum wins.

Given ``scales`` and ``basis``, the scan takes a linear design's
codebook in its real coordinates instead of its matrices: ``stack`` is
the (M, 4, K/4) array of every codeword's group points, ``basis`` the K
weight matrices A_v in the same order, so that S_m = sum_v x_m[v] A_v,
and ``scales`` the a_m with S_m^H S_m = a_m I.  The metric then expands
as

    ||r_t||^2 + c a_m - 2 inv_a Re tr(r_t^H S_m r_prev),
    c = inv_a^2 ||r_prev||^2,

and by linearity the cross term is x_m . g with g_v = Re tr(r_t^H A_v
r_prev), the real inner product of r_t and A_v r_prev.  Two tiny
products form g (one GEMM for every A_v r_prev, one real GEMV of their
float64 view against r_t's), and one real (M, K) GEMV scores every
candidate: 8 K bytes of coordinates per codeword where the matrices
take 16 n^2, n times less.  The scan makes one M-sized array: g is
scaled by -2 inv_a / c, so the GEMV and an in-place add of ``scales``
give the metric less ||r_t||^2, divided by c.  That has the same
argmin; ||r_t||^2 and the factor c are applied to the winner only.
The caller vouches for the scaled unitarity; on a codebook that breaks
it the result is a different metric.

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


def metric_scan(stack, r_prev, r_t, inv_a, scales=None, basis=None):
    """argmin_m || r_t - inv_a * S_m @ r_prev ||_F^2 over M candidates.

    Without ``scales`` the candidates are the matrices of ``stack``.
    With ``scales`` and ``basis`` they are the codewords of a
    scaled-unitary linear design, given by their coordinates ``stack``,
    and the scan uses the expansion in the module docstring.  Returns
    (best_index, best_metric).
    """
    if scales is None:
        metrics = metric_values(stack, r_prev, r_t, inv_a)
        best = int(metrics.argmin())
        return best, float(metrics[best])
    k, n, _ = basis.shape
    # A_v r_prev for every v (np.dot, not @: about 1 us less per call, which
    # matters at M = 16), then g_v = Re <r_t, A_v r_prev> over float64 views
    y = np.dot(basis.reshape(k * n, n), r_prev)
    g = np.dot(y.reshape(k, -1).view(np.float64), r_t.reshape(-1).view(np.float64))
    c = inv_a * inv_a * np.vdot(r_prev, r_prev).real
    # c == 0 only when r_prev == 0 (g is then 0 too): no scale term to fold
    fold = c if c else 1.0
    g *= -2.0 * inv_a / fold
    metrics = np.dot(stack.reshape(-1, k), g)
    if c:
        metrics += scales
    best = int(metrics.argmin())
    return best, float(np.vdot(r_t, r_t).real + fold * metrics[best])


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
