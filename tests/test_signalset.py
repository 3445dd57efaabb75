import math

import numpy as np
import pytest

from gdstbc.codebook import UNITARITY_TOL, Codebook
from gdstbc.design import construct_design
from gdstbc.signalset import (
    PRESETS,
    GroupSignalSet,
    SignalSet,
    canonical_pairing,
    circle_hyperbola_set,
    construct_signal_set,
    default_radii,
    fourth_root_points,
    hyperbola_intersection,
    hyperbola_signal_set,
    preset_signal_set,
    q_mirror,
    verify_difference_conditions,
)

# the published 8-antenna radii, as given (before normalisation)
R1 = 0.3235
PAPER_RADII = (
    R1,
    math.sqrt(3) * R1,
    (1 + 2 * math.sqrt(3) / 3) * R1,
    (2 + math.sqrt(3) / 3) * R1,
    3 * R1,
    (2 + math.sqrt(3)) * R1,
    (3 + 2 * math.sqrt(3) / 3) * R1,
    (4 + math.sqrt(3) / 3) * R1,
)


class TestDefaultRadii:
    def test_single_radius_is_unit(self):
        assert np.allclose(default_radii(1), [1.0], atol=1e-12)

    def test_two_radii_closed_form(self):
        r = default_radii(2)
        delta = math.sqrt(2.0 / 5.0)
        assert np.allclose(r, [delta, 2 * delta], atol=1e-12)
        assert r[0] == pytest.approx(0.63246, abs=1e-5)
        assert r[1] == pytest.approx(1.26491, abs=1e-5)

    def test_eight_radii_closed_form(self):
        r = default_radii(8)
        assert r[0] == pytest.approx(0.19803, abs=1e-5)
        assert r[-1] == pytest.approx(1.58424, abs=1e-5)
        assert np.sum(r**2) == pytest.approx(8.0, abs=1e-12)

    def test_strictly_increasing_normalised(self):
        for p_half in (1, 2, 3, 8, 16):
            r = default_radii(p_half)
            assert np.all(np.diff(r) > 0)
            assert np.sum(r**2) == pytest.approx(p_half, abs=1e-9)


class TestAxisFamily:
    def test_lambda2_sixteen_points(self):
        ss = construct_signal_set(2, 16)
        assert ss.M == 16 and ss.dim == 2
        assert np.allclose(ss.groups[0].points, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)

    def test_lambda1_bpsk_per_dimension(self):
        ss = construct_signal_set(1, 16)
        assert ss.dim == 1
        assert np.allclose(ss.groups[0].points, [[1.0], [-1.0]], atol=1e-12)

    def test_point_structure(self):
        # sign pairs on cycling axes, exactly one nonzero coordinate each
        ss = construct_signal_set(3, 4096)
        pts = ss.groups[0].points
        assert pts.shape == (8, 4)
        assert np.all(np.count_nonzero(pts, axis=1) == 1)
        assert np.allclose(pts[0::2], -pts[1::2], atol=1e-12)
        # axes cycle 1, 2, 3, 4
        assert [int(np.flatnonzero(p)[0]) for p in pts[0::2]] == [0, 1, 2, 3]

    def test_points_distinct_and_sign_balanced(self):
        ss = construct_signal_set(3, 16**4)
        pts = ss.groups[0].points
        assert len({tuple(p) for p in pts}) == len(pts)
        assert np.allclose(pts.sum(axis=0), 0.0, atol=1e-12)

    def test_group_power_is_unit(self):
        for lam, m in ((1, 16), (2, 256), (3, 4096)):
            ss = construct_signal_set(lam, m)
            assert np.mean(ss.groups[0].norms_sq()) == pytest.approx(1.0, abs=1e-9)

    def test_supplied_radii_are_normalised(self):
        ss = construct_signal_set(2, 256, radii=(10.0, 30.0))
        assert np.sum(np.asarray(ss.groups[0].radii) ** 2) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("bad_m", [15, 81, 64, 2401, 17, 0, -16, 10**400 + 1])
    def test_rejects_bad_point_counts(self, bad_m):
        # 81 = 3^4 and 2401 = 7^4 have odd fourth roots; the rest are not
        # fourth powers of a positive integer at all
        with pytest.raises(ValueError, match=f"point count {bad_m} is not"):
            construct_signal_set(2, bad_m)

    def test_fourth_root_is_exact_for_any_int(self):
        assert fourth_root_points(16) == 2 and fourth_root_points(20736) == 12
        assert fourth_root_points(10**400) == 10**100
        assert fourth_root_points((2**60 + 2) ** 4) == 2**60 + 2
        with pytest.raises(ValueError):
            fourth_root_points((2**60 + 2) ** 4 - 1)
        # 10^400 is (10^100)^4, but no group of 10^100 points can be built
        with pytest.raises(ValueError):
            construct_signal_set(2, 10**400)

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            construct_signal_set(2, 256, radii=(1.0,))  # wrong length
        with pytest.raises(ValueError):
            construct_signal_set(2, 256, radii=(1.0, 0.5))  # not increasing
        with pytest.raises(ValueError):
            construct_signal_set(2, 256, radii=(-1.0, 2.0))  # not positive

    @pytest.mark.parametrize("radii", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                       (1.0, math.inf), (-math.inf, 1.0)])
    def test_rejects_non_finite_radii(self, radii):
        with pytest.raises(ValueError, match="finite"):
            construct_signal_set(2, 256, radii=radii)

    @pytest.mark.parametrize("radii", [(1e200, 1e300), (1e-200, 1e-190)])
    def test_rejects_radii_that_cannot_be_normalised(self, radii):
        with pytest.raises(ValueError, match="normalise"):
            construct_signal_set(2, 256, radii=radii)


class TestPaperPreset:
    def test_radii_formulas_near_eight(self):
        assert abs(sum(r * r for r in PAPER_RADII) - 8.0) <= 5e-3

    def test_preset_reproduces_listing(self):
        ss = preset_signal_set("paper-8ant-rate2")
        pts = ss.groups[0].points
        assert pts.shape == (16, 4)
        expected = np.zeros((16, 4))
        for q in range(8):
            axis = q % 4
            expected[2 * q, axis] = PAPER_RADII[q]
            expected[2 * q + 1, axis] = -PAPER_RADII[q]
        # entry-for-entry up to the 4-decimal rounding of the leading radius
        assert np.allclose(pts, expected, atol=5e-4)
        assert np.sum(np.asarray(ss.groups[0].radii) ** 2) == pytest.approx(8.0, abs=1e-9)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_signal_set("nope")

    def test_preset_table_entry(self):
        lam, radii = PRESETS["paper-8ant-rate2"]
        assert lam == 3 and len(radii) == 8 and radii[0] == R1


class TestCircleHyperbola:
    def test_quarter_c_points(self):
        g = circle_hyperbola_set([1.0], 0.25)
        x0, y0 = 0.9659258262890683, 0.25881904510252074
        assert np.allclose(g.points, [[x0, y0], [-x0, -y0]], atol=1e-12)
        for x, y in g.points:
            assert x * x + y * y == pytest.approx(1.0, abs=1e-12)
            assert x * y == pytest.approx(0.25, abs=1e-12)

    def test_tangency_rejected(self):
        # c = r^2/2 makes the hyperbola tangent (x0 == y0), which the
        # diversity condition rules out
        with pytest.raises(ValueError):
            circle_hyperbola_set([1.0], 0.5)

    def test_footnote_bound_rejected(self):
        for c in (1.0, 1.5):
            with pytest.raises(ValueError):
                circle_hyperbola_set([1.0], c)

    def test_nonpositive_c_rejected(self):
        for c in (0.0, -0.1):
            with pytest.raises(ValueError):
                circle_hyperbola_set([1.0], c)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            circle_hyperbola_set([1.0], c)

    @pytest.mark.parametrize("radii", [[math.nan], [math.inf], [0.5, math.inf]])
    def test_non_finite_radii_rejected(self, radii):
        with pytest.raises(ValueError, match="radii must be finite"):
            circle_hyperbola_set(radii, 0.1)

    def test_unnormalised_radii_rejected(self):
        with pytest.raises(ValueError):
            circle_hyperbola_set([1.0, 2.0], 0.1)  # sum of squares != 2

    def test_two_circles(self):
        radii = np.array([0.8, 1.0]) / math.sqrt(0.82)  # sum of squares = 2
        g = circle_hyperbola_set(radii, 0.1)
        assert g.size == 4
        for (x, y), r in zip(g.points, np.repeat(radii, 2)):
            assert x * x + y * y == pytest.approx(r * r, abs=1e-12)
            assert x * y == pytest.approx(0.1, abs=1e-12)

    def test_q_mirror_flips_hyperbola(self):
        g = circle_hyperbola_set([1.0], 0.25)
        gq = q_mirror(g)
        assert gq.c == pytest.approx(-0.25)
        for x, y in gq.points:
            assert x * y == pytest.approx(-0.25, abs=1e-12)

    def test_branches(self):
        a = circle_hyperbola_set([1.0], 0.25, branch="A")
        b = circle_hyperbola_set([1.0], 0.25, branch="B")
        ab = circle_hyperbola_set([1.0], 0.25, branch="AB")
        assert a.size == b.size == 2 and ab.size == 4
        assert np.allclose(b.points, a.points[:, ::-1], atol=1e-12)
        with pytest.raises(ValueError):
            circle_hyperbola_set([1.0], 0.25, branch="C")

    def test_intersection_oracle(self):
        # roots of t^2 - r^2 t + c^2 recomputed independently
        r, c = 1.3, 0.4
        x0, y0 = hyperbola_intersection(r, c)
        roots = np.roots([1.0, -r**2, c**2])
        assert np.allclose(sorted([x0**2, y0**2]), sorted(roots.real), atol=1e-12)
        assert x0 > y0 > 0


class TestDifferenceConditions:
    def test_axis_two_points(self):
        ss = construct_signal_set(2, 16)
        assert verify_difference_conditions(ss.groups[0], [(0, 1)]) is True

    def test_rejected_hyperbola_pair(self):
        g = circle_hyperbola_set([1.0], 0.25, branch="AB")
        assert verify_difference_conditions(g, [(0, 1)]) is False

    def test_surviving_hyperbola_pair(self):
        g = circle_hyperbola_set([1.0], 0.25, branch="A")
        assert verify_difference_conditions(g, [(0, 1)]) is True

    def test_paper_preset_exhaustive(self):
        ss = preset_signal_set("paper-8ant-rate2")
        assert verify_difference_conditions(ss.groups[0], [(0, 1), (2, 3)]) is True

    def test_canonical_pairing(self):
        assert canonical_pairing(2) == ((0, 1),)
        assert canonical_pairing(4) == ((0, 1), (2, 3))

    def test_zero_zero_pair_allowed(self):
        g = GroupSignalSet(dim=2, points=np.array([[1.0, 0.0], [2.0, 0.0]]),
                           radii=(1.0, 2.0), family="custom")
        # delta = (-1, 0): the second coordinate pair is (0, 0) free
        assert verify_difference_conditions(g, [(0, 1)]) is True


class TestScaledUnitarity:
    """Every codeword a set induces is scaled unitary, as the codebook built on
    it decides (``Codebook.max_unitarity_residual``, exact for every M)."""

    @staticmethod
    def residual(sset, lam):
        return Codebook(construct_design(lam), sset).max_unitarity_residual()

    @pytest.mark.parametrize("lam,m", [(1, 16), (2, 16), (2, 256), (3, 4096)])
    def test_axis_family(self, lam, m):
        assert self.residual(construct_signal_set(lam, m), lam) <= UNITARITY_TOL

    def test_hyperbola_family(self):
        assert self.residual(hyperbola_signal_set([1.0], 0.25), 2) <= UNITARITY_TOL

    def test_same_sign_products_fail(self):
        # x1I*x2I = +1 and x1Q*x2Q = +1 breaks the cancellation that
        # scaled unitarity needs
        g = GroupSignalSet(dim=2, points=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                           radii=(math.sqrt(2.0),), family="custom")
        ss = SignalSet(groups=(g, g, g, g))
        assert self.residual(ss, 2) > UNITARITY_TOL

    def test_large_codebook(self):
        # exact at M = 16^4 from the per-group excesses
        assert self.residual(construct_signal_set(3, 16**4), 3) <= UNITARITY_TOL
        assert self.residual(preset_signal_set("paper-8ant-rate2"), 3) <= UNITARITY_TOL


class TestSignalSetValidation:
    def test_four_groups_required(self):
        g = construct_signal_set(2, 16).groups[0]
        with pytest.raises(ValueError):
            SignalSet(groups=(g, g, g))

    def test_mixed_dimensions_rejected(self):
        g2 = construct_signal_set(2, 16).groups[0]
        g1 = construct_signal_set(1, 16).groups[0]
        with pytest.raises(ValueError):
            SignalSet(groups=(g2, g2, g2, g1))

    def test_points_immutable(self):
        g = construct_signal_set(2, 16).groups[0]
        with pytest.raises(ValueError):
            g.points[0, 0] = 5.0
