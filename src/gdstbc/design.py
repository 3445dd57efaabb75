"""Rate-1 linear space-time designs for 2**lam transmit antennas.

A linear design is an n x n matrix whose entries are complex linear
combinations of K real variables s_1..s_K, i.e. S(s) = sum_i s_i A_i with
fixed weight matrices A_i.  The designs built here come from two block
rules applied to one seed:

* ``abba``     : A -> [[A, B], [B, A]]        (B = copy of A in fresh variables)
* ``doubling`` : A -> [[A, -B^H], [B, A^H]]

Starting from the seed [x1], applying ``abba`` until the half size is
reached (first to C1(x1, x2) = [[x1, x2], [x2, x1]]) and then ``doubling``
once yields, for every lam >= 1, a rate-1 design in 2**lam complex
variables whose weight matrices split into four groups with exact
cross-group anticommutation (A_i^H A_j + A_j^H A_i = 0).  That property is
what makes the decoder metric separate into four independent minimisations.

Real-variable convention: the real vector is ordered
[x1I, x1Q, x2I, x2Q, ...], so complex variable x_m owns the two real
slots 2m-2 and 2m-1 (0-based).  Every cell of a constructed design holds
at most one signed, possibly conjugated complex variable, so ``render``
reads the symbolic matrix off the weights.

A design is its weights alone, one (K, n, n) complex128 stack, which both
(linear) rules map weight by weight.  Each weight they build is monomial,
one entry from +-1 and +-i in each row and column, which
``LinearDesign.monomial`` holds as two (K, n) tables.  The three exact
checks (cross-group anticommutation, within-group involutions,
doubling-block structure) compose products of weights as permutations of
those tables and compare columns and entries, exact in float64 for
Gaussian-integer entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

MAX_LAMBDA = 6  # 64x64 designs; larger sizes are out of scope


@dataclass(frozen=True, eq=False)
class LinearDesign:
    """An n x n design in K real variables, held as its weight matrices.

    ``weight_stack`` holds the K weight matrices as a (K, n, n) complex
    array, in the real variable order described in the module docstring;
    it is made read-only here, and the sizes are read off its shape.
    """

    weight_stack: np.ndarray

    def __post_init__(self):
        self.weight_stack.setflags(write=False)

    @property
    def K(self) -> int:
        return self.weight_stack.shape[0]

    @property
    def n(self) -> int:
        return self.weight_stack.shape[1]

    @property
    def lam(self) -> int:
        return self.n.bit_length() - 1

    @property
    def num_complex(self) -> int:
        return self.K // 2

    @cached_property
    def monomial(self):
        """(cols, units), read-only (K, n): row r of weight v holds its one
        nonzero entry units[v, r] in column cols[v, r].  ValueError unless
        every weight has one nonzero entry in each row and each column."""
        nonzero = self.weight_stack != 0
        for axis, line in ((2, "row"), (1, "column")):
            counts = np.count_nonzero(nonzero, axis=axis)
            for v, r in np.argwhere(counts != 1)[:1]:
                raise ValueError(f"weight {v} of the design is not monomial: its {line} {r} "
                                 f"holds {counts[v, r]} nonzero entries, not one")
        cols = np.argmax(nonzero, axis=2)
        units = np.take_along_axis(self.weight_stack, cols[..., None], axis=2)[..., 0]
        for table in (cols, units):
            table.setflags(write=False)
        return cols, units

    def __repr__(self):
        return f"LinearDesign(lam={self.lam}, n={self.n}, K={self.K})"


@dataclass(frozen=True)
class Grouping:
    """Ordered partition of the real variable indices 0..K-1 into groups."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [i for grp in self.groups for i in grp]
        if len(flat) != len(set(flat)):
            raise ValueError("groups are not disjoint")

    def permutation(self) -> np.ndarray:
        """Concatenated group indices: position p of the stacked group
        coordinates maps to real variable index permutation()[p]."""
        return np.fromiter((i for grp in self.groups for i in grp), dtype=np.intp)

    def covers(self, K: int) -> bool:
        return sorted(i for grp in self.groups for i in grp) == list(range(K))


def scalar_design() -> LinearDesign:
    """The 1x1 seed design [x1]: weight 1 for x1I and i for x1Q."""
    return LinearDesign(np.array([[[1]], [[1j]]]))


def abba(d: LinearDesign) -> LinearDesign:
    """[[A, B], [B, A]] with B a fresh-variable copy of A.

    Doubles both the matrix size and the variable count: each weight W of
    A becomes [[W, 0], [0, W]], and its copy in B [[0, W], [W, 0]].
    """
    w, K, n = d.weight_stack, d.K, d.n
    out = np.zeros((2 * K, 2 * n, 2 * n), np.complex128)
    out[:K, :n, :n] = out[:K, n:, n:] = w
    out[K:, :n, n:] = out[K:, n:, :n] = w
    return LinearDesign(out)


def doubling(d: LinearDesign) -> LinearDesign:
    """[[A, -B^H], [B, A^H]] with B a fresh-variable copy of A.

    The variables are real, so A^H = sum_i s_i W_i^H: each weight W of A
    becomes [[W, 0], [0, W^H]], and its copy in B [[0, -W^H], [W, 0]].
    """
    w, K, n = d.weight_stack, d.K, d.n
    wh = w.conj().swapaxes(1, 2) + 0.0  # + 0.0 and 0.0 - wh store conj's -0.0 zeros as +0.0
    out = np.zeros((2 * K, 2 * n, 2 * n), np.complex128)
    out[:K, :n, :n] = out[K:, n:, :n] = w
    out[:K, n:, n:] = wh
    out[K:, :n, n:] = 0.0 - wh
    return LinearDesign(out)


def construct_design(lam: int) -> LinearDesign:
    """Iterated construction: abba^(lam-1) on the scalar seed, then one doubling.

    The first ``abba`` gives C1, and lam = 1 doubles the seed itself, which
    lands on the Alamouti design.
    """
    if not isinstance(lam, (int, np.integer)) or lam < 1:
        raise ValueError(f"lam must be an integer >= 1, got {lam!r}")
    if lam > MAX_LAMBDA:
        raise ValueError(f"lam={lam} exceeds the supported maximum {MAX_LAMBDA}")
    d = scalar_design()
    for _ in range(lam - 1):
        d = abba(d)
    return doubling(d)


def canonical_grouping(d: LinearDesign) -> Grouping:
    """The four-group split the construction is built around.

    Group 1: in-phase parts of the first half of the complex variables,
    group 2: their quadrature parts, groups 3 and 4: the same for the
    second half.  Each group has K/4 members.
    """
    nc = d.num_complex
    half = nc // 2
    g1 = tuple(2 * m for m in range(half))
    g2 = tuple(2 * m + 1 for m in range(half))
    g3 = tuple(2 * m for m in range(half, nc))
    g4 = tuple(2 * m + 1 for m in range(half, nc))
    return Grouping(groups=(g1, g2, g3, g4))


def _herm(cols, units):
    """Conjugate transposes of monomials (cols, units): cols inverted."""
    inv = np.argsort(cols, axis=-1)
    return inv, np.take_along_axis(units, inv, axis=-1).conj()


def _mul(x, y):
    """Products x y of monomials (cols, units), broadcast: row r of x y is
    units_x[r] times row cols_x[r] of y, also where x or y is partial, with
    unit 0 on a row without an entry."""
    (cx, ux), (cy, uy) = x, y
    return np.take_along_axis(cy, cx, axis=-1), ux * np.take_along_axis(uy, cx, axis=-1)


def weight_products(d: LinearDesign, ga, gb):
    """A_i^H A_j for every weight i of ``ga`` and j of ``gb``, as monomials
    (to, f) of shape (len(ga), len(gb), n): row c holds f[..., c] in column
    to[..., c]."""
    cols, units = d.monomial
    return _mul(_herm(cols[list(ga), None], units[list(ga), None]),
                (cols[None, list(gb)], units[None, list(gb)]))


def verify_group_decodable(d: LinearDesign, grp: Grouping, return_witness: bool = False):
    """Exact cross-group anticommutation check on the weight matrices.

    True iff A_i^H A_j + A_j^H A_i = 0 for every pair (i, j) drawn from
    two different groups, i.e. iff p = A_i^H A_j and its conjugate
    transpose hold opposite entries in the same columns (see the module
    docstring).  With ``return_witness`` the first violating pair (or None)
    is returned alongside the verdict, in the order group pair, then i,
    then j.
    """
    if not grp.covers(d.K):
        raise ValueError("grouping does not partition the design's variable indices")
    for ga, gb in combinations(grp.groups, 2):
        to, f = weight_products(d, ga, gb)
        to_h, f_h = _herm(to, f)
        bad = ((to != to_h) | (f != -f_h)).any(axis=2)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            return (False, (ga[i], gb[j])) if return_witness else False
    return (True, None) if return_witness else True


def verify_within_group_involutions(d: LinearDesign, grp: Grouping) -> bool:
    """Exact check of the structure behind the closed-form difference spectra.

    True iff every weight is unitary (A^H A = I) and, for two weights a != b
    of one group, U = A_a^H A_b is Hermitian with trace 0 (see the module
    docstring).  U is then a Hermitian unitary, so U^2 = I, with eigenvalues
    +1 and -1 n/2 times each; a real difference on the two coordinates a
    and b, D = A_a (d_a I + d_b U), has the singular values |d_a| + |d_b|
    and ||d_a| - |d_b||, n/2 times each.
    """
    if not grp.covers(d.K):
        raise ValueError("grouping does not partition the design's variable indices")
    for g in grp.groups:
        to, f = weight_products(d, g, g)
        to_h, f_h = _herm(to, f)
        ok = ((to == to_h) & (f == f_h)).all(axis=2)
        ok &= np.where(to == np.arange(d.n), f, 0).sum(axis=2) == 0
        np.fill_diagonal(ok, (np.diagonal(f) == 1).all(axis=0))  # A_a^H A_a = I
        if not ok.all():
            return False
    return True


def _blocks(cols, units):
    """The n/2 x n/2 blocks TL, TR, BL, BR of monomials, as partial ones."""
    h = cols.shape[1] // 2
    halves = ((cols[:, :h], units[:, :h]), (cols[:, h:], units[:, h:]))
    return [(np.where(inside, c % h, 0), np.where(inside, u, 0))
            for c, u in halves for inside in (c < h, c >= h)]


def _same(x, y) -> bool:
    """Whether partial monomials have equal units, and columns where set."""
    return bool((x[1] == y[1]).all() and (x[0] == y[0])[x[1] != 0].all())


def verify_doubling_blocks(d: LinearDesign) -> bool:
    """Exact check of the structure behind the block-determinant bound.

    True iff every weight has the layout [[A, -B^H], [B, A^H]] and its
    top-left and bottom-left blocks, over all weights, are normal and
    commute pairwise, i.e. (Fuglede's theorem) iff those blocks and their
    conjugate transposes commute pairwise; a weight of that layout has the
    conjugate transpose [[A^H, B^H], [-B, A]] (see the module docstring).
    Commuting normal matrices are unitarily diagonalisable together, so
    every real difference dS = [[dA, -dB^H], [dB, dA^H]] then has
    det dS = det(dA dA^H + dB^H dB) = prod_j (|a_j|^2 + |b_j|^2) over the
    shared eigenvalues, and det(dS^H dS) >= max(|det dA|^2, |det dB|^2)^2.
    """
    if d.n % 2:
        return False
    a, top_right, b, bottom_right = _blocks(*d.monomial)
    a_h, b_h, _, _ = _blocks(*_herm(*d.monomial))
    if not (_same(top_right, (b_h[0], -b_h[1])) and _same(bottom_right, a_h)):
        return False
    # a repeated block needs checking once; in the constructed designs every
    # B block repeats an A block, and half of the blocks are 0
    to, f = (np.concatenate(p) for p in zip(a, b, a_h, b_h))
    _, first = np.unique(np.column_stack((to, f.real, f.imag)), axis=0, return_index=True)
    to, f = to[first], f[first]
    for t in range(len(to) - 1):
        one, rest = (to[t:t + 1], f[t:t + 1]), (to[t + 1:], f[t + 1:])
        if not _same(_mul(one, rest), _mul(rest, one)):
            return False
    return True


def _entry_str(m: int, s: float, q: float) -> str:
    """Cell text of s * x_m: x_m's I weight reads s in the cell and its Q
    weight s * i, or -s * i when x_m appears conjugated."""
    if s == 0:
        return "0"
    return ("-" if s < 0 else "") + f"x{m}" + ("*" if q != s else "")


def render(d: LinearDesign) -> list[list[str]]:
    """Symbolic matrix as nested lists of strings like '-x3*', read off the
    I and Q weights of the one variable in each cell."""
    re = d.weight_stack.real[0::2]
    im = d.weight_stack.imag[1::2]
    m = np.abs(re).argmax(axis=0)
    i, j = np.indices(m.shape)
    s, q = re[m, i, j], im[m, i, j]
    return [[_entry_str(int(m[r, c]) + 1, s[r, c], q[r, c]) for c in range(d.n)]
            for r in range(d.n)]


def render_text(d: LinearDesign) -> str:
    rows = render(d)
    width = max(len(e) for row in rows for e in row)
    return "\n".join("[ " + "  ".join(e.rjust(width) for e in row) + " ]" for row in rows)
