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
(linear) rules map weight by weight.  The three exact checks (cross-group
anticommutation, within-group involutions, doubling-block structure) run
as matrix products on it.  They still decide with zero tolerance: every
weight entry is 0, +-1 or +-i, so every entry of a product of two weights
(or of blocks of them) is a Gaussian integer whose real and imaginary
parts are at most n <= 64 in magnitude, an anticommutator adds two such
entries and a trace n of them.  Integers that small (below 2^24), and
every partial sum of them, are exact even in float32, whatever order BLAS
sums in and with or without fused multiply-add, so ``== 0`` and
``array_equal`` on those products are exact verdicts.  The two checks
that multiply every weight against a group's weights (``_herm_products``)
do so on a complex64 copy of the stack, at half the cost of complex128.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def g(self) -> int:
        return len(self.groups)

    @property
    def K(self) -> int:
        return sum(len(grp) for grp in self.groups)

    def permutation(self) -> np.ndarray:
        """Concatenated group indices: position p of the stacked group
        coordinates maps to real variable index permutation()[p]."""
        return np.fromiter((i for grp in self.groups for i in grp), dtype=np.intp)

    def covers(self, K: int) -> bool:
        return sorted(i for grp in self.groups for i in grp) == list(range(K))


def scalar_design() -> LinearDesign:
    """The 1x1 seed design [x1]: weight 1 for x1I and i for x1Q."""
    return LinearDesign(np.array([[[1]], [[1j]]]))


def c1_design() -> LinearDesign:
    """The 2x2 design C1(x1, x2) = [[x1, x2], [x2, x1]]."""
    return abba(scalar_design())


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
    wh = _herm(w) + 0.0  # conj leaves -0.0 zeros; + 0.0 and 0.0 - wh store them as +0.0
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


def evaluate(d: LinearDesign, x) -> np.ndarray:
    """S(x) = sum_i x_i A_i as a floating complex matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d.K,):
        raise ValueError(f"expected a real vector of length {d.K}, got shape {x.shape}")
    return np.tensordot(x, d.weight_stack, axes=(0, 0))


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


def _herm(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _herm_products(a: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack of a^H b_j over the (k, n, n) stack ``bs``, as one
    GEMM of a^H against [b_1 ... b_k]."""
    n = a.shape[0]
    p = _herm(a) @ bs.transpose(1, 0, 2).reshape(n, -1)
    return p.reshape(n, -1, n).transpose(1, 0, 2)


def verify_group_decodable(d: LinearDesign, grp: Grouping, return_witness: bool = False):
    """Exact cross-group anticommutation check on the weight matrices.

    True iff A_i^H A_j + A_j^H A_i = 0 for every pair (i, j) drawn from
    two different groups, decided with zero tolerance (see the module
    docstring).  Each weight i of a group is multiplied against all
    weights of a later group in one GEMM.  With ``return_witness`` the
    first violating pair (or None) is returned alongside the verdict, in
    the order group pair, then i, then j.
    """
    if not grp.covers(d.K):
        raise ValueError("grouping does not partition the design's variable indices")
    w = d.weight_stack.astype(np.complex64)
    for ga, gb in combinations(grp.groups, 2):
        bs = w[list(gb)]
        for i in ga:
            p = _herm_products(w[i], bs)
            bad = (p + _herm(p)).any(axis=(1, 2))
            if bad.any():
                return (False, (i, gb[int(np.argmax(bad))])) if return_witness else False
    return (True, None) if return_witness else True


def verify_within_group_involutions(d: LinearDesign, grp: Grouping) -> bool:
    """Exact check of the structure behind the closed-form difference spectra.

    True iff every weight is unitary (A^H A = I) and, for two weights a != b
    of one group, U = A_a^H A_b is Hermitian with trace 0, decided with zero
    tolerance (see the module docstring).  U is then a Hermitian unitary,
    so U^2 = I, with eigenvalues +1 and -1 n/2 times each; a real difference
    on the two coordinates a and b, D = A_a (d_a I + d_b U), has the
    singular values |d_a| + |d_b| and ||d_a| - |d_b||, n/2 times each.
    Each weight is multiplied against itself and the later weights of its
    group in one GEMM.
    """
    if not grp.covers(d.K):
        raise ValueError("grouping does not partition the design's variable indices")
    w = d.weight_stack.astype(np.complex64)
    eye = np.eye(d.n)
    for g in grp.groups:
        for t, a in enumerate(g):
            p = _herm_products(w[a], w[list(g[t:])])
            if not np.array_equal(p[0], eye):
                return False
            u = p[1:]
            if not np.array_equal(u, _herm(u)) or np.trace(u, axis1=1, axis2=2).any():
                return False
    return True


def verify_doubling_blocks(d: LinearDesign) -> bool:
    """Exact check of the structure behind the block-determinant bound.

    True iff every weight has the layout [[A, -B^H], [B, A^H]] and its
    top-left and bottom-left blocks, over all weights, are normal and
    commute pairwise, decided with zero tolerance (see the module
    docstring).  Commuting normal matrices are unitarily diagonalisable
    together, so every real difference dS = [[dA, -dB^H], [dB, dA^H]] then
    has det dS = det(dA dA^H + dB^H dB) = prod_j (|a_j|^2 + |b_j|^2) over
    the shared eigenvalues, and det(dS^H dS) >= max(|det dA|^2, |det dB|^2)^2.
    """
    if d.n % 2:
        return False
    h = d.n // 2
    w = d.weight_stack
    a, b = w[:, :h, :h], w[:, h:, :h]
    if not (np.array_equal(w[:, :h, h:], -_herm(b)) and np.array_equal(w[:, h:, h:], _herm(a))):
        return False
    # a repeated block needs checking once; in the constructed designs every
    # B block repeats an A block
    blocks = np.unique(np.concatenate([a, b]), axis=0)
    if not np.array_equal(blocks @ _herm(blocks), _herm(blocks) @ blocks):
        return False
    for t in range(len(blocks) - 1):
        x, rest = blocks[t], blocks[t + 1:]
        if not np.array_equal(x @ rest, rest @ x):
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
