"""Signal sets that make the constructed designs scaled-unitary and fully diverse.

The codeword alphabet is a Cartesian product of four per-group point sets
(one real vector per group), which is what keeps encoding and decoding
separable.  Two families are provided:

* axis family: every point sits on a coordinate axis, at distances given
  by a strictly increasing radius list.  Works for every lam and makes
  all the cross products in the codeword Gram matrix vanish identically.
* circle-hyperbola family (2-D groups only, lam = 2): points on the
  intersection of concentric circles x^2 + y^2 = r^2 with a hyperbola
  x*y = c.  The in-phase groups use x*y = +c, the quadrature groups the
  mirrored x*y = -c set, so the Gram cross terms cancel pairwise.

Radii are always normalised so that sum(r_q^2) = P/2 for P points per
group, which puts unit average power on each group alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AXIS = "axis"
HYPERBOLA = "hyperbola"

#: Radius presets, keyed by name.  Each entry is (lam, radii) with the radii
#: given before normalisation.  "paper-8ant-rate2" is the published
#: 8-antenna, 2 bit/channel-use instance (16 points per group in R^4).
_R1 = 0.3235
PRESETS = {
    "paper-8ant-rate2": (
        3,
        (
            _R1,
            math.sqrt(3) * _R1,
            math.sqrt(3) * _R1 + (3 * _R1 - math.sqrt(3) * _R1) / 3,
            math.sqrt(3) * _R1 + 2 * (3 * _R1 - math.sqrt(3) * _R1) / 3,
            3 * _R1,
            (2 + math.sqrt(3)) * _R1,
            math.sqrt(3) * _R1 + (3 * _R1 - math.sqrt(3) * _R1) / 3 + 2 * _R1,
            math.sqrt(3) * _R1 + 2 * (3 * _R1 - math.sqrt(3) * _R1) / 3 + 2 * _R1,
        ),
    ),
}


@dataclass(frozen=True, eq=False)
class GroupSignalSet:
    """One group's alphabet: an ordered list of points in R^dim."""

    dim: int
    points: np.ndarray  # (P, dim) float64
    radii: tuple[float, ...]
    family: str
    c: float | None = None

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (P, {self.dim})")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def norms_sq(self) -> np.ndarray:
        return np.einsum("pd,pd->p", self.points, self.points)


@dataclass(frozen=True, eq=False)
class SignalSet:
    """Cartesian product of four group alphabets."""

    groups: tuple[GroupSignalSet, GroupSignalSet, GroupSignalSet, GroupSignalSet]

    def __post_init__(self):
        if len(self.groups) != 4:
            raise ValueError("a signal set has exactly four groups")
        dims = {g.dim for g in self.groups}
        if len(dims) != 1:
            raise ValueError("all four groups must share one dimension")

    @property
    def dim(self) -> int:
        return self.groups[0].dim

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return tuple(g.size for g in self.groups)

    @property
    def M(self) -> int:
        return int(np.prod(self.sizes))


def default_radii(p_half: int) -> np.ndarray:
    """Linear radius ramp r_q = q*delta normalised to sum(r^2) = p_half."""
    if p_half < 1:
        raise ValueError("need at least one radius")
    q = np.arange(1, p_half + 1, dtype=np.float64)
    delta = math.sqrt(p_half / float(np.sum(q * q)))
    return q * delta


def _check_radii(radii) -> np.ndarray:
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or r.size < 1:
        raise ValueError("radii must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(r)):
        raise ValueError("radii must be finite")
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    if np.any(np.diff(r) <= 0):
        raise ValueError("radii must be strictly increasing")
    return r


def normalize_radii(radii, target_sum_sq: float) -> np.ndarray:
    r = _check_radii(radii)
    with np.errstate(over="ignore"):
        total = float(np.sum(r * r))
    if not 0.0 < total < math.inf:
        raise ValueError("radii are too large or too small to normalise")
    return r * math.sqrt(target_sum_sq / total)


def fourth_root_points(m: int) -> int:
    """P with P**4 = m; rejects m that is not the fourth power of an even integer.

    The root is taken in integers, so any int is decided exactly.
    """
    p = math.isqrt(math.isqrt(m)) if m >= 1 else 0
    if p < 2 or p**4 != m or p % 2 != 0:
        raise ValueError(f"point count {m} is not the fourth power of an even integer")
    return p


def construct_signal_set(lam: int, m: int, radii=None) -> SignalSet:
    """Axis-family signal set: identical groups of P = m**(1/4) points.

    Points come in sign pairs +-r_q e_j(q) with the axis cycling through
    the coordinates as the radius index grows:
    j(q) = ((q-1) mod dim) + 1.  Supplied radii are normalised to
    sum(r^2) = P/2 (unit average group power); by default a linear ramp
    is used.
    """
    if lam < 1:
        raise ValueError("lam must be >= 1")
    dim = 2 ** (lam - 1)
    p = fourth_root_points(m)
    if radii is None:
        r = default_radii(p // 2)
    else:
        r = _check_radii(radii)
        if len(r) != p // 2:
            raise ValueError(f"expected {p // 2} radii for {p} points per group, got {len(r)}")
        r = normalize_radii(r, p / 2)
    pts = np.zeros((p, dim))
    for q in range(1, p // 2 + 1):
        axis = (q - 1) % dim
        pts[2 * q - 2, axis] = r[q - 1]
        pts[2 * q - 1, axis] = -r[q - 1]
    group = GroupSignalSet(dim=dim, points=pts, radii=tuple(float(v) for v in r), family=AXIS)
    return SignalSet(groups=(group, group, group, group))


def preset_signal_set(name: str) -> SignalSet:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    lam, radii = PRESETS[name]
    p = 2 * len(radii)
    return construct_signal_set(lam, p**4, radii=radii)


def hyperbola_intersection(r: float, c: float):
    """The (x0, y0) with x0 > y0 > 0 on x^2 + y^2 = r^2 and x*y = c.

    x^2 and y^2 are the roots of t^2 - r^2 t + c^2 = 0.  Raises when the
    circle and hyperbola do not meet, or meet tangentially (x0 == y0,
    which the diversity condition excludes).
    """
    disc = r**4 - 4 * c**2
    if disc <= 0:
        raise ValueError(
            f"hyperbola x*y={c} does not cross circle r={r} in two distinct points"
        )
    x0 = math.sqrt((r**2 + math.sqrt(disc)) / 2)
    y0 = c / x0
    return x0, y0


def circle_hyperbola_set(radii, c: float, branch: str = "A") -> GroupSignalSet:
    """2-D group alphabet from circle/hyperbola intersections.

    For each radius the hyperbola x*y = c crosses the circle in four
    points; keeping one diagonal pair (branch 'A': x0 > y0, branch 'B':
    the mirrored pair) preserves full diversity.  Branch 'AB' returns all
    four points; that set violates the difference condition and exists
    for negative testing only.

    Radii must already satisfy sum(r^2) = len(radii) (unit average symbol
    power) and 0 < c < r_min^2.
    """
    r = _check_radii(radii)
    if abs(float(np.sum(r * r)) - len(r)) > 1e-9:
        raise ValueError("radii must satisfy sum(r^2) == len(radii)")
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    if c <= 0:
        raise ValueError("c must be positive")
    if c >= r[0] ** 2:
        raise ValueError(
            f"c={c} >= r1^2={r[0]**2}: hyperbola misses the smallest circle"
        )
    if branch not in ("A", "B", "AB"):
        raise ValueError("branch must be 'A', 'B' or 'AB'")
    pts = []
    for rv in r:
        x0, y0 = hyperbola_intersection(float(rv), c)
        if branch in ("A", "AB"):
            pts += [(x0, y0), (-x0, -y0)]
        if branch in ("B", "AB"):
            pts += [(y0, x0), (-y0, -x0)]
    return GroupSignalSet(dim=2, points=np.array(pts), radii=tuple(float(v) for v in r),
                          family=HYPERBOLA, c=float(c))


def q_mirror(gset: GroupSignalSet) -> GroupSignalSet:
    """Mirror the second coordinate, flipping the hyperbola to x*y = -c.

    The quadrature groups use this set so the in-phase and quadrature
    product terms cancel in the codeword Gram matrix.
    """
    pts = gset.points.copy()
    pts[:, 1] = -pts[:, 1]
    c = -gset.c if gset.c is not None else None
    return GroupSignalSet(dim=gset.dim, points=pts, radii=gset.radii,
                          family=gset.family, c=c)


def hyperbola_signal_set(radii, c: float, branch: str = "A") -> SignalSet:
    """Four-group set for lam=2: +c set on the I groups, -c mirror on the Q groups."""
    i_set = circle_hyperbola_set(radii, c, branch=branch)
    q_set = q_mirror(i_set)
    return SignalSet(groups=(i_set, q_set, i_set, q_set))


def canonical_pairing(dim: int) -> tuple[tuple[int, int], ...]:
    """Adjacent coordinate pairs (0,1), (2,3), ... within a group vector."""
    if dim % 2:
        return ()
    return tuple((2 * k, 2 * k + 1) for k in range(dim // 2))


def verify_difference_conditions(gset: GroupSignalSet, pairing=None, tol: float = 1e-9) -> bool:
    """Difference condition behind full diversity.

    For every pair of distinct points and every designated coordinate
    pair (u, v): delta_u != +-delta_v unless both deltas vanish.
    """
    if pairing is None:
        pairing = canonical_pairing(gset.dim)
    pts = gset.points
    for a in range(pts.shape[0]):
        for b in range(a + 1, pts.shape[0]):
            d = pts[a] - pts[b]
            for (u, v) in pairing:
                du, dv = d[u], d[v]
                if abs(du) <= tol and abs(dv) <= tol:
                    continue
                if abs(du - dv) <= tol or abs(du + dv) <= tol:
                    return False
    return True

