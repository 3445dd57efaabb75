"""The decoder metric kernel (NumPy), and BLAS thread control.

``metric_scan`` scores one frame's candidates in one of three forms.  In
its direct form the (M, n, n) candidate stack is viewed as one (M*n, n)
matrix and multiplied by ``r_prev`` (a GEMV for one receive antenna), so
the scan streams the stack once instead of running M tiny matrix
products.  The first candidate index achieving the minimum wins.

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
simulator's exhaustive decoder scans all M codewords this way up to
``codebook.TABLE_SCAN_BYTES`` of coordinates and a ``FactoredTable``
above, its group decoder each group's points (a group's share of the
metric is x_k . h_k + |x_k|^2, on the group's slice of h), so both
decoders scan the same h.

A ``FactoredTable`` stands for the (M, 4, K/4) table of a product
codebook without building it: the codewords are every choice of one
point per group, row-major over the four index ranges, and a group's
share of x_m . h + a_m is p_k[i] = x_k(i) . h_k + |x_k(i)|^2.  Its scan
returns the first minimum, in row-major order, of the compose sums
((p0 + p1) + p2) + p3 of the four group scores, each scored by its own
``np.dot``, bit for bit, without forming the M sums (the tests' oracle
``compose_sums`` forms them all).  Rounded addition is monotone, so the
smallest sum is the sum of the four group minima m_k, and only points
within tau = 4 eps sum_k |m_k| of their group's minimum can tie it
(``FactoredTable.first_min`` gives the proof).  When each group has one
such point, the answer is the four argmins; otherwise the sums are
formed over the product of these near sets only, and with a non-finite
minimum over all M.  A frame costs a dozen NumPy calls on the four
P_k-sized score vectors, so the scan reads the four alphabets instead of
8 K bytes per codeword and is faster than a GEMV on all but small
tables (``codebook.TABLE_SCAN_BYTES``).  Its worst case, every point of
every group tied (h = 0 on groups of equal norms), still holds the M
sums and the partial sums of groups 0-1 and 0-2, as
``Codebook.exhaustive_table`` counts.

OpenBLAS threads that GEMV once the stack is large enough.  Simulator
workers that scan side by side would then oversubscribe the cores, so
each forked worker calls ``set_blas_threads(1)``.
It finds the loaded OpenBLAS the way threadpoolctl does (by
walking the loaded shared objects) and does nothing where there is none.
"""

import ctypes
import math

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


def metric_scan(stack, *frame):
    """The first index of the smallest decoder metric over M candidates.

    ``metric_scan(stack, r_prev, r_t, inv_a)`` is the direct form: it
    returns (m, its metric) for argmin_m || r_t - inv_a * stack[m] @ r_prev ||_F^2
    over the (M, n, n) ``stack``.  ``metric_scan(table, h, scales)`` is the
    coordinate form of the module docstring: it returns the first argmin of
    x_m . h + a_m over the (M, r, d) ``table`` of coordinates x_m and the
    ``scales`` a_m, or 0 when h is None.  ``metric_scan(factored, h)`` is
    the same on a ``FactoredTable``, which carries its own scales.
    """
    if len(frame) == 3:
        metrics = metric_values(stack, *frame)
        best = int(metrics.argmin())
        return best, float(metrics[best])
    h = frame[0]
    if h is None:  # r_prev == 0: every candidate ties
        return 0
    if len(frame) == 2:
        metrics = np.dot(stack.reshape(len(stack), -1), h)
        metrics += frame[1]
        return int(metrics.argmin())
    return stack.first_min(h)


#: tau / sum_k |m_k|: 4 eps, 8 units in the last place.
_NEAR = 4 * np.finfo(np.float64).eps


def _first_in(scores, ids):
    """The group indices of the first minimum, row-major, of the compose
    sums of the (4, P) ``scores`` over the product of the four ascending
    index arrays ``ids``.  The sums are laid out with the last group's
    index first, so that each add and min runs along a row of the other
    three groups' product, and found in two steps: the first (j0, j1, j2)
    column holding the smallest sum, then the first j3 in that column."""
    p0, p1, p2, p3 = (row[i] for row, i in zip(scores, ids))
    sums = np.add.outer(p3, np.add.outer(np.add.outer(p0, p1), p2).ravel())
    col = int(sums.min(axis=0).argmin())
    rest, j2 = divmod(col, len(p2))
    j0, j1 = divmod(rest, len(p1))
    return [int(i[j]) for i, j in zip(ids, (j0, j1, j2, int(sums[:, col].argmin())))]


class FactoredTable:
    """A product codebook's coordinate table and scales, held as its four
    groups' (P_k, K/4) ``points`` and (P_k,) ``norms``; ``shape`` is the
    (M, 4, K/4) of the table it stands for (module docstring).  The norms
    are also kept as one (4, max P_k) array, padded with +inf."""

    def __init__(self, points, norms):
        self.points, self.norms = tuple(points), tuple(norms)
        self.sizes = tuple(map(len, self.points))
        self.shape = (math.prod(self.sizes), 4, self.points[0].shape[1])
        self.padded_norms = np.full((4, max(self.sizes)), np.inf)
        for row, norms_k in zip(self.padded_norms, self.norms):
            row[:len(norms_k)] = norms_k

    def first_min(self, h):
        """The first index, row-major, of the smallest compose sum
        ((p0 + p1) + p2) + p3 of the group scores p_k = points_k . h_k +
        norms_k, h in four equal slices.

        Each group is scored by its own ``np.dot``, as the compose sums
        are defined: one stacked product over the padded groups would round
        some scores differently, as the GEMV kernel splits rows by the
        padded count.

        With m_k the group minima, A = sum_k |m_k| and u = eps / 2, the
        near set of group k is every i with p_k[i] <= fl(m_k + tau),
        tau = 4 eps A.  No tuple outside the product of the near sets is a
        minimum.  Let S(i) be its rounded sum, S* that of the minima and
        sigma the exact sums.  Rounded addition is monotone, so if
        p_j[i_j] is past the cut, S(i) >= T, the rounded sum of the minima
        with m_j replaced by q, the least float past the cut (q <= p_j[i_j]).
        Addition has no underflow error, so recursive summation of four
        terms is off by at most gamma_3 = 3u / (1 - 3u) times the sum of
        their magnitudes, and T - S* >= (q - m_j)(1 - gamma_3) - 2 gamma_3 A
        (a T that overflows is +inf, past S*).  Rounding A, tau and
        m_j + tau loses at most (u + 32 u^2) A plus half the smallest
        subnormal, and q lies at least one smallest subnormal past the cut,
        so q - m_j > (7 - 32u) u A > 2 gamma_3 A / (1 - gamma_3), and
        T > S*.  So S(i) > S*; and every sum is at least S*, by
        monotonicity.

        Then, when every near set is a single point, the answer is the four
        argmins raveled.  Otherwise the compose sums and the two-step
        argmin run over the product of the near sets, each in ascending
        index order, so the product's row-major order is the codewords'
        and its first minimum theirs.  With a non-finite minimum, or a
        non-finite S* + tau, the product is every point of every group,
        the arithmetic of the all-M scan.
        """
        scores = np.zeros(self.padded_norms.shape)
        for points, h_k, row in zip(self.points, h.reshape(4, -1), scores):
            np.dot(points, h_k, out=row[:len(points)])
        scores += self.padded_norms
        mins = scores.min(axis=1)
        m0, m1, m2, m3 = mins.tolist()
        tau = _NEAR * (abs(m0) + abs(m1) + abs(m2) + abs(m3))
        if not math.isfinite(((m0 + m1) + m2) + m3 + tau):
            best = _first_in(scores, [np.arange(size) for size in self.sizes])
        else:
            near = scores <= (mins + tau)[:, None]
            if np.count_nonzero(near) == 4:
                best = scores.argmin(axis=1).tolist()
            else:
                best = _first_in(scores, [np.flatnonzero(row) for row in near])
        _, s1, s2, s3 = self.sizes
        i0, i1, i2, i3 = best
        return ((i0 * s1 + i1) * s2 + i2) * s3 + i3


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
    """Set the thread count of every loaded OpenBLAS; a no-op without one.

    Setting the count starts OpenBLAS's thread pool (in a forked process,
    whose pool the fork stopped, too), and a new pool thread spins for
    about 0.1 s of CPU before it sleeps.  So the pool is stopped again, as
    OpenBLAS's own fork handler stops it; OpenBLAS restarts it at its next
    threaded call.  Call this while no other thread is inside BLAS.
    """
    for lib in _openblas_libs():
        fn = _entry(lib, "set")
        if fn is not None:
            fn(count)
            shutdown = getattr(lib, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown()
