"""Signal sets that make the constructed designs scaled-unitary and fully diverse.

The codeword alphabet is a Cartesian product of four per-group point sets
(one real vector per group), which is what keeps encoding and decoding
separable.  A signal set is therefore a tuple of four read-only float64
(P_k, K/4) point arrays, which ``codebook.Codebook`` checks and combines
with a design.  Two families are provided:

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

import numpy as np

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
    # a tiny positive sum of squares passes the first test but overflows the scale
    if not 0.0 < total < math.inf or not math.isfinite(target_sum_sq / total):
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


def group_radii(m: int, dim: int, radii=None) -> np.ndarray:
    """The P/2 radii of a group of P = m**(1/4) points in R^dim, at unit
    average group power: ``radii`` normalised to sum(r^2) = P/2, or the
    linear ramp ``default_radii`` when None.  Both families take their
    radii from here, after a check that the radii and the group's (P, dim)
    points fit in the memory available (ValueError otherwise)."""
    from .codebook import check_memory  # codebook imports this module

    p = fourth_root_points(m)
    check_memory(f"a group of {p} points needs its radii and points",
                 8 * (p // 2 + p * dim))
    if radii is None:
        return default_radii(p // 2)
    r = _check_radii(radii)
    if len(r) != p // 2:
        raise ValueError(f"expected {p // 2} radii for {p} points per group, got {len(r)}")
    return normalize_radii(r, p / 2)


def construct_signal_set(lam: int, m: int, radii=None) -> tuple[np.ndarray, ...]:
    """Axis-family signal set: four identical groups of P = m**(1/4) points.

    Points come in sign pairs +-r_q e_j(q) with the axis cycling through
    the coordinates as the radius index grows:
    j(q) = ((q-1) mod dim) + 1.  The radii are ``group_radii(m, dim, radii)``.
    """
    if lam < 1:
        raise ValueError("lam must be >= 1")
    dim = 2 ** (lam - 1)
    r = group_radii(m, dim, radii)
    p = 2 * len(r)
    pts = np.zeros((p, dim))
    for q in range(1, p // 2 + 1):
        axis = (q - 1) % dim
        pts[2 * q - 2, axis] = r[q - 1]
        pts[2 * q - 1, axis] = -r[q - 1]
    pts.setflags(write=False)
    return (pts, pts, pts, pts)


def preset_signal_set(name: str) -> tuple[np.ndarray, ...]:
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
    # c >= r^2/2 is refused before c**2 is taken, which overflows for huge c
    disc = r**4 - 4 * c**2 if 2 * c < r * r else 0.0
    if disc <= 0:
        raise ValueError(
            f"hyperbola x*y={c} does not cross circle r={r} in two distinct points"
        )
    x0 = math.sqrt((r**2 + math.sqrt(disc)) / 2)
    y0 = c / x0
    return x0, y0


def circle_hyperbola_set(radii, c: float, branch: str = "A") -> np.ndarray:
    """2-D group alphabet from circle/hyperbola intersections, a read-only
    (P, 2) array.

    For each radius the hyperbola x*y = c crosses the circle in four
    points; keeping one diagonal pair (branch 'A': x0 > y0, branch 'B':
    the mirrored pair) preserves full diversity.  Branch 'AB' returns all
    four points; it is not fully diverse (criterion 6's control) and
    exists for negative testing only.

    Radii must already satisfy sum(r^2) = len(radii) (unit average symbol
    power) and 0 < c < r_min^2/2 (``hyperbola_intersection`` refuses the
    rest).
    """
    r = _check_radii(radii)
    if abs(float(np.sum(r * r)) - len(r)) > 1e-9:
        raise ValueError("radii must satisfy sum(r^2) == len(radii)")
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    if c <= 0:
        raise ValueError("c must be positive")
    if branch not in ("A", "B", "AB"):
        raise ValueError("branch must be 'A', 'B' or 'AB'")
    # per radius and branch, a point and its negative
    pts = np.empty((len(r), len(branch), 2, 2))
    for q, rv in enumerate(r):
        x0, y0 = hyperbola_intersection(float(rv), c)
        for b, name in enumerate(branch):
            pts[q, b, 0] = (x0, y0) if name == "A" else (y0, x0)
    np.negative(pts[:, :, 0], out=pts[:, :, 1])
    pts = pts.reshape(-1, 2)
    pts.setflags(write=False)
    return pts


def hyperbola_signal_set(radii, c: float, branch: str = "A") -> tuple[np.ndarray, ...]:
    """Four-group set for lam=2: the x*y = +c set on the in-phase groups, its
    mirror (x, -y), on x*y = -c, on the quadrature groups, so the in-phase
    and quadrature product terms cancel in the codeword Gram matrix."""
    i_set = circle_hyperbola_set(radii, c, branch=branch)
    q_set = i_set * (1.0, -1.0)
    q_set.setflags(write=False)
    return (i_set, q_set, i_set, q_set)
