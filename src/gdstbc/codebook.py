"""Codebooks: a design combined with a signal set, plus the verifiers.

A codebook enumerates the M codeword matrices S(x) obtained by letting
each of the four variable groups pick one point from its alphabet, a
(P_k, K/4) array of real points.  The checks here cover everything the
construction promises: scaled unitarity, injectivity, full diversity of
pairwise differences, the block-determinant lower bound, coding gain and
the average scale factor.

The verifiers never scan codeword pairs.  Weights of different groups
anticommute and difference vectors are real, so every Gram splits into
four per-group terms, and each verdict follows exactly, for any M, from
the alphabets and the weights' within-group products (traceless Hermitian
involutions): scaled unitarity from each group point's monomial excess,
full diversity in closed form from each group's within-group point
differences, whose singular values those products fix.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import FactoredTable
from .design import (
    LinearDesign,
    canonical_grouping,
    verify_doubling_blocks,
    verify_group_decodable,
    verify_within_group_involutions,
    weight_products,
)

#: Relative threshold of the full-rank decision rule: a matrix is full
#: rank iff its smallest singular value exceeds RANK_RTOL * max(1, largest).
#: Matrices judged by it are either exactly singular or well conditioned at
#: the scales this package works at, so a single relative threshold is
#: enough.
RANK_RTOL = 1e-9

#: Largest ``Codebook.max_unitarity_residual`` (a bound on every codeword's
#: ||S^H S - scale_sq * I||_inf) for which a codebook counts as scaled
#: unitary.
UNITARITY_TOL = 1e-9


#: Largest float64 coordinate table (8 M K bytes) the simulator's
#: exhaustive rows scan; above it they scan a ``FactoredTable``
#: (``exhaustive_table``).  benchmarks/bench_kernels.py (BLAS on one
#: thread), us per scan against a given h (table: one GEMV and an add;
#: factored: the four group scores, their minima and near sets), three runs
#: on a 2-core x86-64 host: the table is faster in every run up to 0.33 MB
#: (lam 2 M 256, 0.02 MB: 2.1/2.0/2.0 against 9.6/9.2/9.1; lam 4 M 1296:
#: 5.4/5.4/5.6 against 9.7/9.1/9.0), the factored scan in every run from
#: 0.64 MB (lam 2 M 10000: 17.4/17.9/16.6 against 9.9/9.6/9.9; the preset,
#: 8.4 MB: 381/375/383 against 9.9/10.7/9.8).  At 0.52 MB (lam 3 M 4096)
#: the runs split (9.5/10.6/10.1 against 10.0/9.0/12.3), so the threshold
#: sits between 0.52 and 0.64 MB.
TABLE_SCAN_BYTES = 600_000


def _read(path: str):
    """The text of ``path``, or None where it cannot be read."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _headroom(limit_file: str, usage_file: str, cap: float = math.inf) -> float:
    """limit - usage from two cgroup files; infinite where either is
    missing or the limit reads "max" or is at least ``cap``."""
    try:
        limit, usage = int(_read(limit_file)), int(_read(usage_file))
    except (TypeError, ValueError):
        return math.inf
    return math.inf if limit >= cap else max(limit - usage, 0)


def _cgroup_headroom() -> float:
    """Memory the process's cgroup may still charge: memory.max -
    memory.current (cgroup v2, the path on the ``0::`` line of
    /proc/self/cgroup) and memory.limit_in_bytes - memory.usage_in_bytes
    (cgroup v1, its memory controller's path or the mount root), the
    smallest of them; infinite where no limit is set ("max", or a v1
    limit of 2^62 or more)."""
    room = math.inf
    for line in (_read("/proc/self/cgroup") or "").splitlines():
        ident, controllers, path = line.split(":", 2)
        if ident == "0" and not controllers:
            base = "/sys/fs/cgroup" + path.rstrip("/")
            room = min(room, _headroom(f"{base}/memory.max", f"{base}/memory.current"))
        elif "memory" in controllers.split(","):
            for base in {"/sys/fs/cgroup/memory" + path.rstrip("/"), "/sys/fs/cgroup/memory"}:
                room = min(room, _headroom(f"{base}/memory.limit_in_bytes",
                                           f"{base}/memory.usage_in_bytes", 2**62))
    return room


def _available_bytes() -> float:
    """Memory available now: the smaller of ``MemAvailable`` from
    /proc/meminfo, which counts the memory the kernel can reclaim, and the
    cgroup's headroom; infinite where neither is reported."""
    meminfo = math.inf
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemAvailable:"):
            meminfo = int(line.split()[1]) * 1024
    return min(meminfo, _cgroup_headroom())


def check_memory(need: str, nbytes: int):
    """Raise ValueError unless ``nbytes`` fit in the memory available now;
    ``need`` says who needs what ("decode_exhaustive needs Codebook.matrices")."""
    available = _available_bytes()
    if nbytes > available:
        mb = nbytes / 1e6 if nbytes < 1e300 else math.inf  # a huge int overflows a float
        raise ValueError(
            f"{need}, {mb:.1f} MB, but only "
            f"{available / 1e6:.1f} MB of memory is available"
        )


def _shared(items, f) -> list:
    """``[f(x) for x in items]`` with f called once per distinct object of
    ``items``, matched by identity while ``items`` holds them (so no id is
    reused): items that are one object share one result."""
    done = {}
    for x in items:
        if id(x) not in done:
            done[id(x)] = f(x)
    return [done[id(x)] for x in items]


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: groups may share it."""
    a.setflags(write=False)
    return a


class NotGroupDecodableError(ValueError):
    """Raised when group decoding is requested on a codebook that failed
    the cross-group anticommutation check."""


@dataclass(frozen=True, eq=False)
class Codeword:
    matrix: np.ndarray
    scale_sq: float
    index: tuple[int, int, int, int]


@dataclass(frozen=True, eq=False)
class DiversityReport:
    """Result of ``verify_full_diversity``; its docstring defines the fields."""

    pairs_checked: int
    all_full_rank: bool
    num_rank_deficient: int
    first_deficient_pair: tuple | None
    min_abs_det: float
    coding_gain: float
    bound_holds: bool
    claim: str


class Codebook:
    """design x signal set: the weights and the four groups' alphabets.

    The signal set is ``alphabets``: four 2-D arrays of K/4 columns, group
    k's P_k points in R^(K/4), as the ``signalset`` constructors return
    them, split by the design's ``canonical_grouping``.  The constructor
    refuses (ValueError) a design whose K is not a positive multiple of 4,
    any other shape, an empty group, and a design that is not monomial
    (``LinearDesign.monomial``), and keeps one read-only float64 copy per
    distinct input array as ``alphabets``, so groups given one array share
    one copy; ``group_norms[k][p]`` is |x_k(p)|^2, one read-only array per
    distinct alphabet, like ``norm_lists`` and ``group_tables``' views.  The
    design's verdicts ``group_decodable`` (read here unless
    ``check_decodable`` is false), ``within_group_involutions`` and
    ``unitarity_residual`` are computed once, on first use, and the
    ``require_*`` methods raise on them.
    A codebook holds nothing else per point: ``partials`` forms
    S_k(p), the contribution of group k's point p to the codeword
    matrix, on demand, and ``compose`` sums four group parts at an index
    tuple (a codeword's ``group_norms`` into its scale).  ``basis_taps``
    tells ``correlate`` how to read the correlation of a frame with every
    ``basis`` weight, ``chain_tables`` the encoder how to apply a partial
    codeword as row gathers, and ``max_unitarity_residual`` each partial's
    excess over scaled unitarity.  Only
    exhaustive decoding needs M-sized arrays, built lazily, and refused
    (ValueError) past the memory available: ``exhaustive_table`` (what the
    simulator's exhaustive decoder scans: every codeword's real
    coordinates against ``basis`` and its scale from ``coordinate_table``,
    or on large codebooks a ``FactoredTable``, which sums its groups'
    scores only over their points near each group's minimum)
    and the full (M, n, n) ``matrices`` stack (for ``decode_exhaustive``).
    """

    def __init__(self, design: LinearDesign, alphabets, check_decodable: bool = True):
        if design.K <= 0 or design.K % 4:
            raise ValueError(f"codebooks need a design whose K is a positive multiple of 4, "
                             f"not {design.K}")
        dim = design.K // 4
        alphabets = tuple(_shared(list(alphabets), lambda a: _read_only(
            np.array(a, dtype=np.float64, order="C"))))
        if len(alphabets) != 4 or any(a.ndim != 2 or a.shape[1] != dim or not len(a)
                                      for a in alphabets):
            raise ValueError(f"a signal set is four non-empty (P_k, {dim}) point arrays for a "
                             f"design with K/4 = {dim}")
        design.monomial  # noqa: B018  (refuses a design that is not monomial)
        self.design = design
        self.alphabets = alphabets
        self.grouping = canonical_grouping(design)
        self.sizes = tuple(len(a) for a in alphabets)
        self.M = math.prod(self.sizes)
        self.group_norms = _shared(alphabets,
                                   lambda p: _read_only(np.einsum("pd,pd->p", p, p)))
        if check_decodable:
            self.group_decodable  # noqa: B018

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def rate_bits_per_use(self) -> float:
        return math.log2(self.M) / self.n

    def unravel_index(self, lin: int) -> tuple[int, int, int, int]:
        """The group indices of row ``lin`` of a table row-major over
        ``sizes``, such as ``matrices`` or ``coordinate_table``."""
        lin = operator.index(lin)
        if not 0 <= lin < self.M:
            raise ValueError(f"index {lin} is out of bounds for {self.M} codewords")
        _, s1, s2, s3 = self.sizes
        rest, i3 = divmod(lin, s3)
        rest, i2 = divmod(rest, s2)
        i0, i1 = divmod(rest, s1)
        return i0, i1, i2, i3

    @staticmethod
    def compose(parts, idx):
        """Group ``parts`` summed at index tuples ``idx``, shape (4, ...), left
        to right: scales from ``group_norms``, or anything indexed by group
        point, such as the four groups' scores."""
        return parts[0][idx[0]] + parts[1][idx[1]] + parts[2][idx[2]] + parts[3][idx[3]]

    def partials(self, k: int, idx=slice(None)) -> np.ndarray:
        """S_k(p) = sum_v x_v A_v for group k's points p at ``idx`` (an index,
        a slice or an index array; all P_k points by default), formed from
        the alphabet and group k's slice of ``basis``: shape
        (*the points' shape, n, n)."""
        dim = self.design.K // 4
        return np.tensordot(self.alphabets[k][idx], self.basis[k * dim:(k + 1) * dim], 1)

    def _codewords(self, idx):
        """The codewords at index tuples ``idx``, shape (4, ...): their four
        ``partials`` summed left to right, like ``compose``."""
        s0, s1, s2, s3 = (self.partials(k, i) for k, i in enumerate(idx))
        return s0 + s1 + s2 + s3

    @cached_property
    def matrices(self) -> np.ndarray:
        """All M codeword matrices, row-major over the index tuples."""
        check_memory("decode_exhaustive needs Codebook.matrices", self.M * self.n * self.n * 16)
        full = self._codewords(np.ogrid[tuple(map(slice, self.sizes))])
        return np.ascontiguousarray(full.reshape(self.M, self.n, self.n))

    @cached_property
    def basis(self) -> np.ndarray:
        """The design's weight matrices in ``coordinate_table`` order, (K, n, n):
        group 0's variables first, each group in its grouping order."""
        return self.design.weight_stack[self.grouping.permutation()]

    @cached_property
    def basis_monomial(self):
        """(cols, units): ``LinearDesign.monomial`` in ``basis`` order."""
        return tuple(t[self.grouping.permutation()] for t in self.design.monomial)

    @cached_property
    def basis_taps(self):
        """(taps, coef), each (K, n): g_v = Re tr(r_t^H A_v r_prev) for every
        ``basis`` weight A_v, read off O = conj(r_t) r_prev^T (summed over the
        receive antennas) as sum_r coef[v, r] * o[taps[v, r]], with o the
        float64 view of O raveled.  Re(A O) at a cell is Re A Re O - Im A Im O,
        and row r of A_v holds one entry e (``basis_monomial``), real or
        imaginary (ValueError otherwise), so its tap is Re or Im O at
        (r, cols[v, r]) with the coefficient Re e or -Im e: K n products."""
        cols, units = self.basis_monomial
        if ((units.real != 0) & (units.imag != 0)).any():
            raise ValueError("correlate needs weight entries that are real or imaginary, but "
                             "the design has an entry that is neither")
        return 2 * (np.arange(self.n) * self.n + cols) + (units.real == 0), units.real - units.imag

    @cached_property
    def chain_tables(self):
        """(offsets, ids, coords): what ``diffcodec``'s Y chain gathers to
        apply a partial codeword to an n x n_r matrix without forming it.
        Group k's points are rows o = offsets[k] to o + P_k - 1 of the two
        (sum P_k, T) tables, and term j of a point is its j-th nonzero
        coordinate, coords[o + p, j] on ``basis`` weight v = ids[o + p, j]:
        S_k(p) Y = sum_j coords[o + p, j] units[v][:, None] Y[cols[v]] with
        ``basis_monomial``'s (cols, units).  T is the most nonzero coordinates
        of any point (1 on the axis family, 2 on the hyperbola family); a point
        with fewer has zero coordinates past them.  The tables are refused
        (ValueError) past the memory available, counted with the zero mask
        and its sort that find a group's nonzero coordinates."""
        dim = self.design.K // 4
        width = max(1, *(int(np.count_nonzero(points, axis=1).max(initial=0))
                         for points in self.alphabets))
        check_memory("Codebook.chain_tables needs its monomial tables",
                     16 * width * sum(self.sizes) + 9 * dim * max(self.sizes))
        ids = np.empty((sum(self.sizes), width), dtype=np.intp)
        coords = np.empty((sum(self.sizes), width))
        offsets = np.cumsum((0, *self.sizes[:-1]))
        for k, (points, lo) in enumerate(zip(self.alphabets, offsets)):
            coord = np.argsort(points == 0, axis=1, kind="stable")[:, :width]
            ids[lo:lo + len(points)] = coord + k * dim
            coords[lo:lo + len(points)] = np.take_along_axis(points, coord, axis=1)
        return offsets, ids, coords

    def coordinate_table(self):
        """(table, scales): every codeword's four group points, (M, 4, K/4),
        row-major over the index tuples like ``matrices``, and its scale_sq,
        summed by ``compose`` from the group norms.  Codeword m is
        ``tensordot(table[m].reshape(K), basis, 1)``, in K values instead of
        the n^2 complex ones of its matrix.  The table is stored
        column-major, a (K, M) array viewed as (M, 4, K/4), so that a GEMV
        streams each coordinate's M values in order."""
        dim = self.design.K // 4
        check_memory("decide_exhaustive needs Codebook.exhaustive_table",
                     self.M * (4 * dim + 1) * 8)
        table = np.empty((4, dim, *self.sizes))
        for k, points in enumerate(self.alphabets):
            shape = [1, 1, 1, 1]
            shape[k] = self.sizes[k]
            table[k] = points.T.reshape(dim, *shape)
        scales = self.compose(self.group_norms, np.ogrid[tuple(map(slice, self.sizes))]).ravel()
        return table.reshape(4 * dim, self.M).T.reshape(self.M, 4, dim), scales

    @cached_property
    def exhaustive_table(self):
        """What the simulator's exhaustive decoder scans, as ``metric_scan``'s
        arguments after h: ``coordinate_table`` up to ``TABLE_SCAN_BYTES`` of
        coordinates, a one-element tuple of a ``FactoredTable`` above.  The
        factored scan's memory is checked here, once, for its worst case,
        where every point of every group ties its group's minimum: the M
        sums and the partial sums of groups 0-1 and 0-2 it then holds, and
        the four groups' scores.  A frame with one near point per group
        holds no M-sized array."""
        if self.M * self.design.K * 8 <= TABLE_SCAN_BYTES:
            return self.coordinate_table()
        s0, s1, s2, _ = self.sizes
        check_memory("decide_exhaustive needs Codebook.exhaustive_table",
                     8 * (self.M + s0 * s1 * s2 + s0 * s1 + sum(self.sizes)))
        return (FactoredTable(self.alphabets, self.group_norms),)

    @cached_property
    def group_tables(self):
        """What the group decoder scans, per group: its points as a
        (P_k, 1, K/4) coordinate table and their norms as an array and as
        a list, one of each per distinct alphabet."""
        return tuple(zip(_shared(self.alphabets, lambda points: points[:, None]),
                         self.group_norms, self.norm_lists))

    @cached_property
    def norm_lists(self) -> list[list[float]]:
        """``group_norms`` as Python floats, for per-frame scale sums, one
        list per distinct alphabet."""
        return _shared(self.group_norms, np.ndarray.tolist)

    def codeword_at(self, idx) -> Codeword:
        idx = tuple(int(i) for i in idx)
        if len(idx) != 4:
            raise ValueError("codeword index must be a 4-tuple")
        for k, i in enumerate(idx):
            if not 0 <= i < self.sizes[k]:
                raise IndexError(f"group {k} index {i} out of range [0, {self.sizes[k]})")
        return Codeword(matrix=self._codewords(idx),
                        scale_sq=float(self.compose(self.group_norms, idx)), index=idx)

    @cached_property
    def group_decodable(self) -> bool:
        """``verify_group_decodable``'s verdict on the canonical grouping."""
        return verify_group_decodable(self.design, self.grouping)

    @cached_property
    def within_group_involutions(self) -> bool:
        """``verify_within_group_involutions``' verdict on the canonical
        grouping."""
        return verify_within_group_involutions(self.design, self.grouping)

    @cached_property
    def unitarity_residual(self) -> float:
        """``max_unitarity_residual()``."""
        return self.max_unitarity_residual()

    def require_group_decodable(self):
        """Raise NotGroupDecodableError unless ``group_decodable``."""
        if not self.group_decodable:
            raise NotGroupDecodableError(
                "codebook's grouping failed the cross-group anticommutation check"
            )

    def require_within_group_involutions(self):
        """Raise ValueError unless ``within_group_involutions``.  The closed
        forms of ``max_unitarity_residual`` and ``verify_full_diversity``
        rest on it."""
        if not self.within_group_involutions:
            raise ValueError("the codebook's closed-form checks need within-group weight "
                             "products that are traceless Hermitian involutions, but the "
                             "design fails verify_within_group_involutions")

    def require_scaled_unitary(self):
        """Raise ValueError unless every codeword is scaled unitary within
        ``UNITARITY_TOL`` by ``unitarity_residual`` (NotGroupDecodableError
        first, from ``require_group_decodable``).

        The simulator requires it for every sweep, and ``decode_group`` for
        every call: the differential chain keeps X_t^H X_t = a_t I only for
        scaled-unitary codewords, and both deciders' expansion of the
        metric in real coordinates (``_kernels.metric_scan``'s coordinate
        form) is exact only when S^H S = a(S) I for every codeword.
        """
        if not self.unitarity_residual <= UNITARITY_TOL:
            raise ValueError(
                f"the differential chain needs scaled-unitary codewords, but the codebook's "
                f"unitarity residual is {self.unitarity_residual:.3g} "
                f"(tolerance {UNITARITY_TOL:g})"
            )

    def max_unitarity_residual(self) -> float:
        """Upper bound on max over codewords of || S^H S - scale_sq * I ||_inf.

        With cross-group anticommutation, S^H S - scale_sq * I is the sum of
        the group excesses E_k(p) = S_k(p)^H S_k(p) - |x_k(p)|^2 I, so every
        codeword's residual is at most
        sum_k max_p ||E_k(p) - E_k(0)|| + ||sum_k E_k(0)||.  The bound is
        zero iff each E_k is the same for every point and the four sum to
        zero, i.e. iff every codeword is scaled unitary (the hyperbola
        family's +c and -c excesses cancel this way).

        Each excess is read off ``chain_tables``.  With unitary weights whose
        within-group products U = A_a^H A_b are Hermitian
        (``require_within_group_involutions``), a point on the coordinates
        a and b has E = 2 x_a x_b U, monomial like its weights
        (``weight_products``), and a point on one coordinate has E = 0.  So
        the bound costs O(P_k n) per group, not P_k products of n x n
        matrices.  Raises NotGroupDecodableError first, then ValueError on a
        design that fails the involution check, on a point on more than two
        coordinates, and past the memory available.
        """
        self.require_group_decodable()
        self.require_within_group_involutions()
        offsets, ids, coords = self.chain_tables
        terms = ids.shape[1]
        if terms > 2:
            raise ValueError(f"max_unitarity_residual needs group points on at most two "
                             f"coordinates, but a point lies on {terms}")
        if terms == 1:
            return 0.0
        n = self.n
        # per point and row: the excess's columns and entries, their
        # gathers and the bound's temporaries
        check_memory("max_unitarity_residual needs a group's excesses", 128 * n * max(self.sizes))
        bound = 0.0
        base = np.zeros((n, n), dtype=np.complex128)
        for k, (group, lo, size) in enumerate(zip(self.grouping.groups, offsets, self.sizes)):
            to, f = weight_products(self.design, group, group)
            (a, b), (x_a, x_b) = ids[lo:lo + size].T - k * len(group), coords[lo:lo + size].T
            w, v = to[a, b], (2 * x_a * x_b)[:, None] * f[a, b]
            # a row of E_k(p) - E_k(0) holds one difference where both excesses
            # share its column, and both of them where they do not
            same = w == w[0]
            bound += float(np.where(same, np.abs(v - v[0]),
                                    np.maximum(np.abs(v), np.abs(v[0]))).max())
            base[np.arange(n), w[0]] += v[0]
        return bound + float(np.max(np.abs(base)))


def _single_group_pair(k: int, p: int, q: int) -> tuple:
    """The codeword pair that differs only in group k, by points p and q."""
    a, b = [0] * 4, [0] * 4
    a[k], b[k] = int(p), int(q)
    return tuple(a), tuple(b)


def verify_full_diversity(cb: Codebook) -> DiversityReport:
    """Exact full-diversity verdict over all M(M-1)/2 codeword pairs.

    Cross-group anticommutation with real difference vectors gives
    dS^H dS = sum_k D_k^H D_k for any two codewords, where D_k is group k's
    within-group difference.  A sum of PSD terms with one PD term is PD,
    so the codebook is fully diverse iff every within-group difference
    passes the full-rank rule (see ``RANK_RTOL``); and adding PSD terms
    never lowers a determinant, so min |det dS| is reached by a pair that
    differs in a single group.  ``num_rank_deficient`` counts the pairs
    that differ in exactly one group, by a singular difference: a lower
    bound on the rank-deficient pairs, and zero iff there are none.

    Every within-group difference is read off the alphabets in closed
    form.  Where the design passes ``verify_within_group_involutions`` and
    a difference d lies on at most two coordinates, D = sum_a d_a A_a has
    the singular values hi = |big| + |small| and lo = |big| - |small|, n/2
    times each (big and small its two largest entries by magnitude, small
    0 on one coordinate).  So the rank rule reads lo <= RANK_RTOL *
    max(1, hi), and |det D| = (lo hi)^(n/2), 0.0 for a difference the rule
    calls singular.  So ``min_abs_det`` and the coding gain
    ``coding_gain`` = min det(dS^H dS)^(1/n) = ``min_abs_det`` ** (2/n) are
    0.0 exactly when ``all_full_rank`` is false.

    ``bound_holds`` is the verdict of ``verify_doubling_blocks`` on the
    design, which proves the block lower bound
    det(dS^H dS) >= max(|det dA|^2, |det dB|^2)^2 for every pair.

    Each alphabet is walked once, one row of its pair grid at a time:
    row i holds the pairs (i, j > i), in ``triu_indices`` order, with a
    running count, minimum and first deficient pair, so the memory does
    not grow with P^2.  A group whose alphabet an earlier group holds
    repeats that group's verdicts and adds its share of the count.

    Raises NotGroupDecodableError on a codebook whose design fails the
    cross-group anticommutation check, and ValueError on a design that
    fails ``Codebook.require_within_group_involutions``, on a within-group
    difference on more than two coordinates, and when a row of a group's
    differences does not fit in the memory available.
    """
    cb.require_group_decodable()
    cb.require_within_group_involutions()
    n = cb.n
    num_def = 0
    first_def = None
    min_det = math.inf
    for k, points in enumerate(cb.alphabets):
        if any(points is a for a in cb.alphabets[:k]):
            continue
        p, dim = points.shape
        # per pair of the first row: its difference and the operand it is
        # taken from, and at most seven floats: small, lo, hi and the
        # temporaries of the rank rule and of the dets
        check_memory(f"verify_full_diversity needs a row of group {k}'s within-group "
                     f"differences", (p - 1) * (16 * dim + 56))
        deficient_pairs = 0
        for i in range(p - 1):
            d = np.abs(points[i + 1:] - points[i])
            d.sort(axis=1)
            if d[:, :-2].any():
                t = int(np.flatnonzero(d[:, -3])[0])
                raise ValueError(f"verify_full_diversity needs within-group differences on at "
                                 f"most two coordinates, but group {k}'s points {i} and "
                                 f"{i + 1 + t} differ on {np.count_nonzero(d[t])}")
            # the largest |coordinate| and the only other nonzero one (or 0)
            big, small = d[:, -1], d[:, :-1].sum(axis=1)
            lo, hi = big - small, big + small
            deficient = lo <= RANK_RTOL * np.maximum(1.0, hi)
            if deficient.any():
                deficient_pairs += int(deficient.sum())
                if first_def is None:
                    first_def = _single_group_pair(k, i, i + 1 + int(np.argmax(deficient)))
            dets = np.where(deficient, 0.0, (lo * hi) ** (n // 2))
            min_det = min(min_det, float(dets.min()))
        num_def += deficient_pairs * sum(cb.M // size for a, size in zip(cb.alphabets, cb.sizes)
                                         if a is points)
    all_ok = num_def == 0
    claim = "full diversity verified (exhaustive)" if all_ok \
        else f"at least {num_def} rank-deficient pair(s) found (exhaustive)"
    return DiversityReport(
        pairs_checked=cb.M * (cb.M - 1) // 2, all_full_rank=all_ok,
        num_rank_deficient=num_def, first_deficient_pair=first_def,
        min_abs_det=min_det, coding_gain=min_det ** (2.0 / n),
        bound_holds=verify_doubling_blocks(cb.design), claim=claim,
    )


def average_scale(cb: Codebook) -> float:
    """Mean scale_sq over the codebook: the sum of the per-group mean
    norms, which is exact for product alphabets."""
    return float(sum(np.mean(nk) for nk in cb.group_norms))
