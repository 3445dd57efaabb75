"""The decoder metric kernel (NumPy), and BLAS thread control.

``metric_scan`` makes one BLAS call per scan over the candidates, in one
of two forms.  In its direct form the (M, n, n) candidate stack is
viewed as one (M*n, n) matrix and multiplied by ``r_prev`` (a GEMV for
one receive antenna), so the scan streams the stack once instead of
running M tiny matrix products.  The first candidate index achieving
the minimum wins.

Its coordinate form takes a linear design's codewords in their real
coordinates instead of their matrices: an (M, r, d) table holding every
codeword's K = r*d real coordinates against as many weight matrices A_v,
so that S_m = sum_v x_m[v] A_v, and the scales a_m with S_m^H S_m = a_m I.
For such a scaled-unitary codebook the metric expands as

    ||r_t||^2 + c a_m - 2 inv_a Re tr(r_t^H S_m r_prev),
    c = inv_a^2 ||r_prev||^2,

and by linearity the cross term is x_m . g with g_v = Re tr(r_t^H A_v
r_prev), the real inner product of r_t and A_v r_prev.  The caller forms
g (``diffcodec`` does it once per window of frames) and passes
h = -2 inv_a g / c: the metric less ||r_t||^2, divided by c, is then
x_m . h + a_m, with the same argmin.  One real (M, K) GEMV and an
in-place add of the scales score every candidate, reading 8 K bytes per
codeword where the matrices take 16 n^2 (n times less for a rate-1
design, K = 2n), and no M-sized array is made but the metrics.  An h of
None stands for c == 0 (r_prev == 0): every candidate then ties and
index 0 wins.  The caller vouches for the scaled unitarity; on a
codebook that breaks it the result is a different metric.  The
simulator's exhaustive decoder scans all M codewords this way, its group
decoder each group's points (a group's share of the metric is
x_k . h_k + |x_k|^2, on the group's slice of h), so both decoders scan
the same h.

A float32 table (with float32 scales) halves the bytes that GEMV reads,
and the scan stays exact ML.  Write F_m = x_m . h + a_m for the exact
divided metric and f_m for its float32 value: the table, h and the
scales rounded to float32 (the scales summed from four rounded group
norms), one single-precision GEMV and one float32 add.  With u = 2^-24 and
gamma_j = j u / (1 - j u), each product x_v h_v picks up three relative
roundings (table, h, product) and at most K - 1 additions in whatever
order the GEMV sums them, so the dot product is within
gamma_{K+2} sum_v |x_v h_v|; the float32 scale is within gamma_4 a_m;
the final add contributes u times their sum.  So

    |f_m - F_m| <= gamma_{K+3} sum_v |x_v h_v| + gamma_5 a_m + t,

where t covers float32 underflow: a value rounded into the subnormal
range is off by at most 2^-150 absolutely, which can happen to each
h_v (weighted by |x_v|), to each table entry (weighted by |h_v|), to
each product and to each group norm, while subnormal additions are
exact.  Cauchy-Schwarz gives sum_v |x_v h_v| <= sqrt(a_m) ||h|| (a_m is
||x_m||^2) and the l1 norms are at most sqrt(K) times the l2 norms, so
with a_max >= every a_m one bound serves the whole scan, in O(1):

    delta = gamma_{K+4} sqrt(a_max) ||h|| + gamma_6 a_max
            + 2^-149 (K + 4 + sqrt(K) (2 sqrt(a_max) + ||h||)).

The extra rounding in each gamma (K+4 and 6, not K+3 and 5) covers the
float64 arithmetic of the re-score and of delta itself, both within a
few 2^-53 relative.  Let m* be a codeword with the smallest float64
re-scored metric and f_min the float32 minimum: f_{m*} <= F_{m*} + delta
<= F_m + delta <= f_m + 2 delta for every m, so every such m* (every
tied one too) lies among the candidates f_m <= f_min + 2 delta.  Those
are re-scored in float64 by ``rescore`` and the first index of the
smallest re-scored metric wins, which is the float64 decision with the
usual tie rule.  When ||h|| or sqrt(a_max) ||h|| + a_max leaves the
float32 range, delta is infinite and nothing is scanned in float32;
then, or when the float32 minimum is not finite (a NaN among the
metrics), all M codewords are re-scored in float64.  With delta finite
every |f_m| stays below 2^127, so no metric overflows.

OpenBLAS threads that GEMV once the stack is large enough.  Pool workers
that scan side by side would then oversubscribe the cores, so the
initializer of the simulator's worker pool calls ``set_blas_threads(1)``.
It finds the loaded OpenBLAS the way threadpoolctl does (by
walking the loaded shared objects) and does nothing where there is none.
"""

import ctypes
import math

import numpy as np

#: The metric kernel's implementation, reported in ``--json`` output.
BACKEND = "python"

#: Unit roundoff of float32.
_U32 = 2.0 ** -24


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


def metric_scan(stack, *frame, rescore=None, scale_max=None):
    """The first index of the smallest decoder metric over M candidates.

    ``metric_scan(stack, r_prev, r_t, inv_a)`` is the direct form: it
    returns (m, its metric) for argmin_m || r_t - inv_a * stack[m] @ r_prev ||_F^2
    over the (M, n, n) ``stack``.  ``metric_scan(table, h, scales)`` is the
    coordinate form of the module docstring: it returns the first argmin of
    x_m . h + a_m over the (M, r, d) ``table`` of coordinates x_m and the
    ``scales`` a_m, or 0 when h is None.  A float32 table and scales take
    the float32 form there, which also needs ``scale_max`` >= every scale
    and ``rescore(h, lin)``, the float64 x_m . h + a_m of the candidates
    with linear indices ``lin`` (of all M when ``lin`` is None).
    """
    if len(frame) == 3:
        metrics = metric_values(stack, *frame)
        best = int(metrics.argmin())
        return best, float(metrics[best])
    h, scales = frame
    if h is None:  # r_prev == 0: every candidate ties
        return 0
    if stack.dtype == np.float32:
        return _float32_scan(stack, scales, h, rescore, scale_max)
    metrics = np.dot(stack.reshape(len(stack), -1), h)
    metrics += scales
    return int(metrics.argmin())


def float32_bound(k: int, scale_max: float, h_norm: float) -> float:
    """delta of the module docstring: the largest |f_m - F_m| of a float32
    scan with K = ``k``, a_max = ``scale_max`` and ||h|| = ``h_norm``;
    infinite when the scan could leave the float32 range."""
    root = math.sqrt(scale_max)
    if not max(h_norm, root * h_norm + scale_max) < 2.0 ** 126:  # also NaN
        return math.inf

    def gamma(j):
        return j * _U32 / (1.0 - j * _U32)

    return (gamma(k + 4) * root * h_norm + gamma(6) * scale_max
            + 2.0 ** -149 * (k + 4 + math.sqrt(k) * (2.0 * root + h_norm)))


def float32_metrics(stack, scales, h):
    """f_m of the module docstring for every m: one single-precision GEMV of
    the float32 table against h rounded to float32, plus the float32 scales."""
    metrics = np.dot(stack.reshape(len(stack), -1), h.astype(np.float32))
    metrics += scales
    return metrics


def _float32_scan(stack, scales, h, rescore, scale_max):
    """The first index of the smallest float64 x_m . h + a_m, from a
    float32 scan and a float64 re-score of its candidates."""
    delta = float32_bound(len(h), scale_max, math.sqrt(np.dot(h, h)))
    cand = None
    if math.isfinite(delta):
        metrics = float32_metrics(stack, scales, h)
        low = float(metrics.min())  # NaN if any metric is
        if math.isfinite(low):
            # rounding the threshold to float32 loses no candidate: a float32
            # value at most the float64 threshold is at most its rounding
            cand = np.flatnonzero(metrics <= np.float32(low + 2.0 * delta))
    i = int(rescore(h, cand).argmin())
    return i if cand is None else int(cand[i])


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
