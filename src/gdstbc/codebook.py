"""Codebooks: a design combined with a signal set, plus the verifiers.

A codebook enumerates the M codeword matrices S(x) obtained by letting
each of the four variable groups pick one point from its alphabet.  The
checks here cover everything the construction promises: scaled
unitarity, injectivity, full diversity of pairwise differences, the
block-determinant lower bound, coding gain and the average scale factor.

The verifiers never scan codeword pairs.  Weights of different groups
anticommute and difference vectors are real, so every Gram splits into
four per-group terms, and each verdict follows exactly from one pass
over the groups' partial-codeword stacks, for any M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import (
    Grouping,
    LinearDesign,
    canonical_grouping,
    verify_doubling_blocks,
    verify_group_decodable,
)
from .signalset import SignalSet

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


#: Size of the float64 coordinate table (8 M K bytes) above which the
#: simulator's exhaustive rows scan it in float32 (``exhaustive_table``).
#: benchmarks/bench_kernels.py, us per scan, float64 against float32 with
#: its re-score, both tables column-major, three runs on a 2-core x86-64
#: host: float64 is faster at 0.64 MB (lam 2 M 10000: 36-52 against 38-64)
#: and 1.05 MB (lam 4 M 4096: 63-66 against 72-76), float32 from 1.33 MB
#: (lam 2 M 20736: 80-85 against 87-94; the preset, 8.4 MB: 270-376
#: against 424-623).  At 1.28 MB (lam 3 M 10000) runs on the same host have
#: put either form ahead, so the threshold stays below it.
FLOAT32_SCAN_BYTES = 1_200_000


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
        raise ValueError(
            f"{need}, {nbytes / 1e6:.1f} MB, but only "
            f"{available / 1e6:.1f} MB of memory is available"
        )


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

    mode: str
    pairs_checked: int
    all_full_rank: bool
    num_rank_deficient: int
    first_deficient_pair: tuple | None
    min_abs_det: float
    argmin_pair: tuple | None
    bound_holds: bool
    min_bound_margin: float
    claim: str


class Codebook:
    """design x signal set, with per-group partial-codeword stacks.

    ``group_stacks[k][p]`` holds S_k(p), the contribution of group k's
    point p to the codeword matrix; ``compose`` sums four partials into
    a codeword, or their ``group_norms`` into its scale.  ``partials``
    stacks all four groups' partials, group 0 first, for the group
    decoder's one-pass scan; ``group_stacks`` are views into it.  Only
    exhaustive decoding needs M-sized arrays, built lazily, and refused
    (ValueError) past the memory available: ``exhaustive_table`` (every
    codeword's real coordinates against ``basis`` and its scale, the form
    the simulator's exhaustive decoder scans, from ``coordinate_table``)
    and the full (M, n, n) ``matrices`` stack (n times larger, for
    ``decode_exhaustive``).
    """

    def __init__(self, design: LinearDesign, sset: SignalSet,
                 grouping: Grouping | None = None, check_decodable: bool = True):
        if grouping is None:
            grouping = canonical_grouping(design)
        if grouping.g != 4:
            raise ValueError("codebooks are built on four-group partitions")
        if not grouping.covers(design.K):
            raise ValueError("grouping does not partition the design's variables")
        if any(len(g) != design.K // 4 for g in grouping.groups):
            raise ValueError("groups must all have K/4 variables")
        if sset.dim != design.K // 4:
            raise ValueError(
                f"group dimension {sset.dim} does not match design K/4 = {design.K // 4}"
            )
        self.design = design
        self.sset = sset
        self.grouping = grouping
        self.sizes = sset.sizes
        self.M = math.prod(self.sizes)
        self.partials = np.concatenate([
            np.tensordot(gset.points,
                         design.weight_stack[np.asarray(grouping.groups[k], dtype=np.intp)],
                         axes=(1, 0))
            for k, gset in enumerate(sset.groups)
        ])
        self.group_stacks = np.split(self.partials, np.cumsum(self.sizes)[:-1])
        self.group_norms = [gset.norms_sq() for gset in sset.groups]
        self.group_decodable = (
            verify_group_decodable(design, grouping) if check_decodable else None
        )
        #: ``max_unitarity_residual()``, once ``require_scaled_unitary`` ran.
        self.unitarity_residual = None

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def rate_bits_per_use(self) -> float:
        return math.log2(self.M) / self.n

    def linear_index(self, idx) -> int:
        return int(np.ravel_multi_index(idx, self.sizes))

    def unravel_index(self, lin: int) -> tuple[int, int, int, int]:
        return tuple(int(v) for v in np.unravel_index(lin, self.sizes))

    @staticmethod
    def compose(parts, idx):
        """Group ``parts`` summed at index tuples ``idx``, shape (4, ...), left
        to right: codewords from ``group_stacks``, scales from ``group_norms``."""
        return parts[0][idx[0]] + parts[1][idx[1]] + parts[2][idx[2]] + parts[3][idx[3]]

    @cached_property
    def matrices(self) -> np.ndarray:
        """All M codeword matrices, row-major over the index tuples."""
        check_memory("decode_exhaustive needs Codebook.matrices", self.M * self.n * self.n * 16)
        full = self.compose(self.group_stacks, np.ogrid[tuple(map(slice, self.sizes))])
        return np.ascontiguousarray(full.reshape(self.M, self.n, self.n))

    @cached_property
    def basis(self) -> np.ndarray:
        """The design's weight matrices in ``coordinate_table`` order, (K, n, n):
        group 0's variables first, each group in its grouping order."""
        return self.design.weight_stack[self.grouping.permutation()]

    def coordinate_table(self, dtype):
        """(table, scales) in ``dtype``: every codeword's four group points,
        (M, 4, K/4), row-major over the index tuples like ``matrices``, and
        its scale_sq, summed by ``compose`` from the group norms cast to
        ``dtype``.  Codeword m is ``tensordot(table[m].reshape(K), basis, 1)``,
        in K values instead of the n^2 complex ones of its matrix.  The
        table is stored column-major, a (K, M) array viewed as (M, 4, K/4),
        so that a GEMV streams each coordinate's M values in order."""
        dim = self.sset.dim
        check_memory("decide_exhaustive needs Codebook.exhaustive_table",
                     self.M * (4 * dim + 1) * np.dtype(dtype).itemsize)
        table = np.empty((4, dim, *self.sizes), dtype=dtype)
        for k, gset in enumerate(self.sset.groups):
            shape = [1, 1, 1, 1]
            shape[k] = self.sizes[k]
            table[k] = gset.points.T.reshape(dim, *shape)
        norms = [nk.astype(dtype) for nk in self.group_norms]
        scales = self.compose(norms, np.ogrid[tuple(map(slice, self.sizes))]).ravel()
        return table.reshape(4 * dim, self.M).T.reshape(self.M, 4, dim), scales

    @cached_property
    def exhaustive_table(self):
        """What the simulator's exhaustive decoder scans: ``coordinate_table``
        in float64 up to ``FLOAT32_SCAN_BYTES`` of float64 coordinates, in
        float32 above."""
        small = self.M * self.design.K * 8 <= FLOAT32_SCAN_BYTES
        return self.coordinate_table(np.float64 if small else np.float32)

    @cached_property
    def norm_lists(self) -> list[list[float]]:
        """``group_norms`` as Python floats, for per-frame scale sums."""
        return [nk.tolist() for nk in self.group_norms]

    @cached_property
    def scale_max(self) -> float:
        """The largest codeword scale_sq: the sum of the groups' largest norms."""
        return sum(float(nk.max()) for nk in self.group_norms)

    @cached_property
    def _group_points(self):
        """(blocks, norms, rows): every group's points in one block-diagonal
        (sum of sizes, K) array, group k's ``rows`` holding its points in
        its K/4 columns, and the group norms in the same row order."""
        dim, lo, rows = self.sset.dim, 0, []
        blocks = np.zeros((sum(self.sizes), 4 * dim))
        for k, gset in enumerate(self.sset.groups):
            rows.append(slice(lo, lo + self.sizes[k]))
            blocks[rows[k], k * dim:(k + 1) * dim] = gset.points
            lo += self.sizes[k]
        return blocks, np.concatenate(self.group_norms), rows

    def coordinate_metrics(self, h, lin=None) -> np.ndarray:
        """x_m . h + a_m in float64 for the codewords with linear indices
        ``lin`` (all M when None), h in ``basis`` order: every group point's
        dot product with its group's part of h plus its norm, summed by
        ``compose`` at the codewords' index tuples."""
        blocks, norms, rows = self._group_points
        flat = np.dot(blocks, h)
        flat += norms
        idx = (np.ogrid[tuple(map(slice, self.sizes))] if lin is None
               else np.unravel_index(lin, self.sizes))
        return self.compose([flat[r] for r in rows], idx).ravel()

    def codeword_at(self, idx) -> Codeword:
        idx = tuple(int(i) for i in idx)
        if len(idx) != 4:
            raise ValueError("codeword index must be a 4-tuple")
        for k, i in enumerate(idx):
            if not 0 <= i < self.sizes[k]:
                raise IndexError(f"group {k} index {i} out of range [0, {self.sizes[k]})")
        return Codeword(matrix=self.compose(self.group_stacks, idx),
                        scale_sq=float(self.compose(self.group_norms, idx)), index=idx)

    def require_group_decodable(self):
        """Run the exact cross-group anticommutation check if construction
        skipped it; raise NotGroupDecodableError unless it passed."""
        if self.group_decodable is None:
            self.group_decodable = verify_group_decodable(self.design, self.grouping)
        if not self.group_decodable:
            raise NotGroupDecodableError(
                "codebook's grouping failed the cross-group anticommutation check"
            )

    def require_scaled_unitary(self):
        """Compute ``max_unitarity_residual`` once; raise ValueError unless
        every codeword is scaled unitary within ``UNITARITY_TOL``.

        The simulator's exhaustive decoder needs it: its scaled-unitary
        expansion of the metric (``_kernels.metric_scan`` over
        ``exhaustive_table`` with ``basis``) is exact only when S^H S = a(S) I
        for every codeword.
        """
        if self.unitarity_residual is None:
            self.unitarity_residual = self.max_unitarity_residual()
        if not self.unitarity_residual <= UNITARITY_TOL:
            raise ValueError(
                f"exhaustive decoding needs scaled-unitary codewords, but the codebook's "
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
        """
        self.require_group_decodable()
        eye = np.eye(self.n)
        bound = 0.0
        base = np.zeros((self.n, self.n), dtype=np.complex128)
        for stack, norms in zip(self.group_stacks, self.group_norms):
            excess = np.einsum("pji,pjk->pik", stack.conj(), stack) - norms[:, None, None] * eye
            bound += float(np.max(np.abs(excess - excess[0])))
            base += excess[0]
        return bound + float(np.max(np.abs(base)))


def _within_group_differences(cb: Codebook):
    """Yield (k, i, j, D) for every point pair i < j of each group k, with the
    stack D[t] = S_k(j[t]) - S_k(i[t]) of group k's within-group differences."""
    for k, stack in enumerate(cb.group_stacks):
        i, j = np.triu_indices(stack.shape[0], 1)
        yield k, i, j, stack[j] - stack[i]


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

    ``bound_holds`` is the verdict of ``verify_doubling_blocks`` on the
    design, which proves the block lower bound
    det(dS^H dS) >= max(|det dA|^2, |det dB|^2)^2 for every pair.
    ``min_bound_margin`` is the margin that proof certifies: 0.0 (pairs
    whose difference sits wholly in the A or the B blocks, as every
    single-group pair of the canonical grouping does, reach equality), or
    -inf when nothing is established.

    Raises NotGroupDecodableError on a codebook whose grouping fails the
    cross-group anticommutation check.
    """
    cb.require_group_decodable()
    num_def = 0
    first_def = None
    min_det = math.inf
    argmin_pair = None
    for k, i, j, d in _within_group_differences(cb):
        if not d.shape[0]:
            continue
        svals = np.linalg.svd(d, compute_uv=False)
        deficient = svals[:, -1] <= RANK_RTOL * np.maximum(1.0, svals[:, 0])
        if deficient.any():
            num_def += int(deficient.sum()) * (cb.M // cb.sizes[k])
            if first_def is None:
                t = int(np.argmax(deficient))
                first_def = _single_group_pair(k, i[t], j[t])
        dets = np.abs(np.linalg.det(d))
        t = int(np.argmin(dets))
        if dets[t] < min_det:
            min_det = float(dets[t])
            argmin_pair = _single_group_pair(k, i[t], j[t])
    all_ok = num_def == 0
    bound_holds = verify_doubling_blocks(cb.design)
    claim = "full diversity verified (exhaustive)" if all_ok \
        else f"at least {num_def} rank-deficient pair(s) found (exhaustive)"
    return DiversityReport(
        mode="exhaustive", pairs_checked=cb.M * (cb.M - 1) // 2, all_full_rank=all_ok,
        num_rank_deficient=num_def, first_deficient_pair=first_def,
        min_abs_det=min_det, argmin_pair=argmin_pair,
        bound_holds=bound_holds, min_bound_margin=0.0 if bound_holds else -math.inf,
        claim=claim,
    )


def coding_gain(cb: Codebook) -> float:
    """min over codeword pairs of det(dS^H dS)^(1/n) = min |det dS|^(2/n).

    Exact from the within-group differences, for the reason given in
    ``verify_full_diversity``.  A repeated codeword drives this to zero;
    fully diverse codebooks give a positive value.
    """
    cb.require_group_decodable()
    min_det = min((float(np.min(np.abs(np.linalg.det(d))))
                   for _, _, _, d in _within_group_differences(cb) if d.shape[0]),
                  default=math.inf)
    return min_det ** (2.0 / cb.n)


def average_scale(cb: Codebook) -> float:
    """Mean scale_sq over the codebook: the sum of the per-group mean
    norms, which is exact for product alphabets."""
    return float(sum(np.mean(nk) for nk in cb.group_norms))
