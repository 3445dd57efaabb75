"""Rate-1 linear space-time designs for 2**lam transmit antennas.

A linear design is an n x n matrix whose entries are complex linear
combinations of K real variables s_1..s_K, i.e. S(s) = sum_i s_i A_i with
fixed weight matrices A_i.  The designs built here come from two block
rules applied to tiny seeds:

* ``abba``     : A -> [[A, B], [B, A]]        (B = copy of A in fresh variables)
* ``doubling`` : A -> [[A, -B^H], [B, A^H]]

Starting from C1(x1, x2) = [[x1, x2], [x2, x1]], applying ``abba`` until
the half size is reached and then ``doubling`` once yields, for every
lam >= 1, a rate-1 design in 2**lam complex variables whose weight
matrices split into four groups with exact cross-group anticommutation
(A_i^H A_j + A_j^H A_i = 0).  That property is what makes the decoder
metric separate into four independent minimisations.

Real-variable convention: the real vector is ordered
[x1I, x1Q, x2I, x2Q, ...], so complex variable x_m owns the two real
slots 2m-2 and 2m-1 (0-based).  Every entry of a constructed design is a
single signed, possibly conjugated variable, which keeps a compact
symbolic table (variable index, sign, conjugation flag) alongside the
materialised weight matrices.

The weights are kept once, as a (K, n, n) complex128 stack, and the two
exact checks (cross-group anticommutation, doubling-block structure) run
as matrix products on it.  They still decide with zero tolerance: every
weight entry is 0, +-1 or +-i, so every entry of a product of two
weights (or of blocks of them) is a Gaussian integer whose real and
imaginary parts are at most n <= 64 in magnitude, and an anticommutator
adds two such entries.  Integers that small, and every partial sum of
them, are exact in float64, whatever order BLAS sums in and with or
without fused multiply-add, so ``== 0`` and ``array_equal`` on those
products are exact verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

MAX_LAMBDA = 6  # 64x64 designs; larger sizes are out of scope


@dataclass(frozen=True, eq=False)
class LinearDesign:
    """An n x n design in K real variables plus its symbolic entry table.

    ``var``/``sign``/``conj`` hold, per matrix cell, the 1-based complex
    variable index (0 for an empty cell), its sign and whether it appears
    conjugated.  ``weight_stack`` holds the K weight matrices as a
    (K, n, n) complex array, in the real variable order described in the
    module docstring.
    """

    lam: int
    n: int
    K: int
    weight_stack: np.ndarray
    var: np.ndarray
    sign: np.ndarray
    conj: np.ndarray

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


def _design_from_table(var, sign, conj) -> LinearDesign:
    """Materialise weight matrices from the symbolic entry table."""
    var = np.asarray(var, dtype=np.int16)
    sign = np.asarray(sign, dtype=np.int16)
    conj = np.asarray(conj, dtype=np.int16)
    n = var.shape[0]
    num_complex = int(var.max())
    K = 2 * num_complex
    stack = np.zeros((K, n, n), np.complex128)
    i, j = np.nonzero(var)
    m = var[i, j].astype(np.intp)
    s = sign[i, j]
    # s * x_m   = s*(xI + j xQ)  -> I-weight gets s, Q-weight gets s*j
    # s * x_m^* = s*(xI - j xQ)  -> I-weight gets s, Q-weight gets -s*j
    stack.real[2 * m - 2, i, j] = s
    stack.imag[2 * m - 1, i, j] = np.where(conj[i, j], -s, s)
    for arr in (var, sign, conj, stack):
        arr.setflags(write=False)
    lam = int(np.log2(n)) if n > 1 else 0
    return LinearDesign(lam=lam, n=n, K=K, weight_stack=stack,
                        var=var, sign=sign, conj=conj)


def scalar_design() -> LinearDesign:
    """The 1x1 seed design [x1]."""
    return _design_from_table([[1]], [[1]], [[0]])


def c1_design() -> LinearDesign:
    """The 2x2 seed C1(x1, x2) = [[x1, x2], [x2, x1]]."""
    return _design_from_table([[1, 2], [2, 1]], [[1, 1], [1, 1]], [[0, 0], [0, 0]])


def abba(d: LinearDesign) -> LinearDesign:
    """[[A, B], [B, A]] with B a fresh-variable copy of A.

    Doubles both the matrix size and the variable count.
    """
    nc = d.num_complex
    shifted = np.where(d.var > 0, d.var + nc, 0).astype(np.int16)
    var = np.block([[d.var, shifted], [shifted, d.var]])
    sign = np.block([[d.sign, d.sign], [d.sign, d.sign]])
    conj = np.block([[d.conj, d.conj], [d.conj, d.conj]])
    return _design_from_table(var, sign, conj)


def doubling(d: LinearDesign) -> LinearDesign:
    """[[A, -B^H], [B, A^H]] with B a fresh-variable copy of A."""
    nc = d.num_complex
    shifted = np.where(d.var > 0, d.var + nc, 0).astype(np.int16)
    var = np.block([[d.var, shifted.T], [shifted, d.var.T]])
    sign = np.block([[d.sign, -d.sign.T], [d.sign, d.sign.T]])
    flip = (1 - d.conj.T).astype(np.int16)
    flip[d.var.T == 0] = 0
    conj = np.block([[d.conj, flip], [d.conj, flip]])
    return _design_from_table(var, sign, conj)


def construct_design(lam: int) -> LinearDesign:
    """Iterated construction: abba^(lam-2) on C1, then one doubling.

    lam = 1 doubles the scalar seed, which lands on the Alamouti design,
    so a single code path covers every size.
    """
    if not isinstance(lam, (int, np.integer)) or lam < 1:
        raise ValueError(f"lam must be an integer >= 1, got {lam!r}")
    if lam > MAX_LAMBDA:
        raise ValueError(f"lam={lam} exceeds the supported maximum {MAX_LAMBDA}")
    if lam == 1:
        return doubling(scalar_design())
    d = c1_design()
    for _ in range(lam - 2):
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
    w = d.weight_stack
    for ga, gb in combinations(grp.groups, 2):
        bs = w[list(gb)]
        for i in ga:
            p = _herm_products(w[i], bs)
            bad = (p + _herm(p)).any(axis=(1, 2))
            if bad.any():
                return (False, (i, gb[int(np.argmax(bad))])) if return_witness else False
    return (True, None) if return_witness else True


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


def _entry_str(m: int, s: int, c: int) -> str:
    if m == 0:
        return "0"
    return ("-" if s < 0 else "") + f"x{m}" + ("*" if c else "")


def render(d: LinearDesign) -> list[list[str]]:
    """Symbolic matrix as nested lists of strings like '-x3*'."""
    return [
        [_entry_str(int(d.var[i, j]), int(d.sign[i, j]), int(d.conj[i, j]))
         for j in range(d.n)]
        for i in range(d.n)
    ]


def render_text(d: LinearDesign) -> str:
    rows = render(d)
    width = max(len(e) for row in rows for e in row)
    return "\n".join("[ " + "  ".join(e.rjust(width) for e in row) + " ]" for row in rows)
