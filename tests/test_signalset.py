import math
import tracemalloc

import numpy as np
import pytest

from gdstbc.codebook import UNITARITY_TOL, Codebook, verify_full_diversity
from gdstbc.design import construct_design
from gdstbc.signalset import (
    PRESETS,
    circle_hyperbola_set,
    construct_signal_set,
    default_radii,
    fourth_root_points,
    hyperbola_intersection,
    hyperbola_signal_set,
    preset_signal_set,
)
from gdstbc.sim import SimConfig, build_signal_set

from oracles import dense_unitarity_residual

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
        assert len(ss) == 4 and math.prod(len(pts) for pts in ss) == 16
        for pts in ss:
            assert np.allclose(pts, [[1.0, 0.0], [-1.0, 0.0]], atol=1e-12)

    def test_lambda1_bpsk_per_dimension(self):
        ss = construct_signal_set(1, 16)
        assert {pts.shape for pts in ss} == {(2, 1)}
        assert np.allclose(ss[0], [[1.0], [-1.0]], atol=1e-12)

    def test_point_structure(self):
        # sign pairs on cycling axes, exactly one nonzero coordinate each
        pts = construct_signal_set(3, 4096)[0]
        assert pts.shape == (8, 4)
        assert np.all(np.count_nonzero(pts, axis=1) == 1)
        assert np.allclose(pts[0::2], -pts[1::2], atol=1e-12)
        # axes cycle 1, 2, 3, 4
        assert [int(np.flatnonzero(p)[0]) for p in pts[0::2]] == [0, 1, 2, 3]

    def test_points_distinct_and_sign_balanced(self):
        pts = construct_signal_set(3, 16**4)[0]
        assert len({tuple(p) for p in pts}) == len(pts)
        assert np.allclose(pts.sum(axis=0), 0.0, atol=1e-12)

    def test_group_power_is_unit(self):
        for lam, m in ((1, 16), (2, 256), (3, 4096)):
            for pts in construct_signal_set(lam, m):
                assert np.mean(np.sum(pts * pts, axis=1)) == pytest.approx(1.0, abs=1e-9)

    def test_supplied_radii_are_normalised(self):
        # sign pairs, so the P/2 radii's squares sum to half the points' norms
        pts = construct_signal_set(2, 256, radii=(10.0, 30.0))[0]
        assert np.sum(pts * pts) / 2 == pytest.approx(2.0, abs=1e-12)
        assert np.linalg.norm(pts[2]) / np.linalg.norm(pts[0]) == pytest.approx(3.0)

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
        pts = preset_signal_set("paper-8ant-rate2")[0]
        assert pts.shape == (16, 4)
        expected = np.zeros((16, 4))
        for q in range(8):
            axis = q % 4
            expected[2 * q, axis] = PAPER_RADII[q]
            expected[2 * q + 1, axis] = -PAPER_RADII[q]
        # entry-for-entry up to the 4-decimal rounding of the leading radius
        assert np.allclose(pts, expected, atol=5e-4)
        assert np.sum(pts * pts) / 2 == pytest.approx(8.0, abs=1e-9)

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
        assert np.allclose(g, [[x0, y0], [-x0, -y0]], atol=1e-12)
        for x, y in g:
            assert x * x + y * y == pytest.approx(1.0, abs=1e-12)
            assert x * y == pytest.approx(0.25, abs=1e-12)

    def test_tangency_rejected(self):
        # c = r^2/2 makes the hyperbola tangent (x0 == y0), which the
        # diversity condition rules out
        with pytest.raises(ValueError):
            circle_hyperbola_set([1.0], 0.5)

    def test_footnote_bound_rejected(self):
        # 0.75 lies between r^2/2 and r^2: the hyperbola crosses no circle
        # there, and 1e200 would overflow c**2
        for c in (0.75, 1.0, 1.5, 1e200):
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

    def test_family_normalises_supplied_radii(self):
        # one radius for 2 points per group, normalised from 2 to the default
        # 1, so the default c and every group match the default set's
        want = build_signal_set(SimConfig(lam=2, m=16, family="hyperbola"))
        got = build_signal_set(SimConfig(lam=2, m=16, family="hyperbola", radii=(2.0,)))
        assert len(got) == len(want) == 4
        for g, w, sign in zip(got, want, (1.0, -1.0, 1.0, -1.0)):
            assert np.array_equal(g, w)
            # radius 1 and the default c = r^2/4, +c on I and -c on Q groups
            assert np.allclose(np.sum(g * g, axis=1), 1.0, atol=1e-12)
            assert np.allclose(g[:, 0] * g[:, 1], sign * 0.25, atol=1e-12)

    def test_two_circles(self):
        radii = np.array([0.8, 1.0]) / math.sqrt(0.82)  # sum of squares = 2
        g = circle_hyperbola_set(radii, 0.1)
        assert g.shape == (4, 2)
        for (x, y), r in zip(g, np.repeat(radii, 2)):
            assert x * x + y * y == pytest.approx(r * r, abs=1e-12)
            assert x * y == pytest.approx(0.1, abs=1e-12)

    def test_quadrature_groups_mirror_the_hyperbola(self):
        g = circle_hyperbola_set([1.0], 0.25)
        gq = hyperbola_signal_set([1.0], 0.25)[1]
        assert np.array_equal(gq, g * (1.0, -1.0))
        for x, y in gq:
            assert x * y == pytest.approx(-0.25, abs=1e-12)

    def test_branches(self):
        a = circle_hyperbola_set([1.0], 0.25, branch="A")
        b = circle_hyperbola_set([1.0], 0.25, branch="B")
        ab = circle_hyperbola_set([1.0], 0.25, branch="AB")
        assert len(a) == len(b) == 2 and len(ab) == 4
        assert np.allclose(b, a[:, ::-1], atol=1e-12)
        assert np.array_equal(ab, np.concatenate([a, b]))
        with pytest.raises(ValueError):
            circle_hyperbola_set([1.0], 0.25, branch="C")

    def test_intersection_oracle(self):
        # roots of t^2 - r^2 t + c^2 recomputed independently
        r, c = 1.3, 0.4
        x0, y0 = hyperbola_intersection(r, c)
        roots = np.roots([1.0, -r**2, c**2])
        assert np.allclose(sorted([x0**2, y0**2]), sorted(roots.real), atol=1e-12)
        assert x0 > y0 > 0


class TestFullDiversity:
    """Every codeword pair a set induces differs by a full-rank matrix, as the
    codebook built on it decides (``verify_full_diversity``, exact for every M)."""

    @staticmethod
    def report(sset, lam):
        return verify_full_diversity(Codebook(construct_design(lam), sset))

    @pytest.mark.parametrize("branch", ["A", "B"])
    @pytest.mark.parametrize("radii", [(1.0,), tuple(default_radii(2))])
    def test_hyperbola_branches(self, branch, radii):
        c = radii[0] ** 2 / 4
        rep = self.report(hyperbola_signal_set(radii, c, branch=branch), 2)
        assert rep.all_full_rank and rep.coding_gain > 0

    def test_paper_preset(self):
        rep = self.report(preset_signal_set("paper-8ant-rate2"), 3)
        assert rep.all_full_rank and rep.claim == "full diversity verified (exhaustive)"
        assert rep.pairs_checked == 16**4 * (16**4 - 1) // 2
        assert rep.coding_gain == pytest.approx(0.17195253132676594, rel=1e-9)


class TestScaledUnitarity:
    """Every codeword a set induces is scaled unitary, as the codebook built on
    it decides (``Codebook.max_unitarity_residual``, exact for every M, and
    equal to the dense bound)."""

    @staticmethod
    def residual(sset, lam):
        cb = Codebook(construct_design(lam), sset)
        resid = cb.max_unitarity_residual()
        assert resid == dense_unitarity_residual(cb)
        return resid

    @pytest.mark.parametrize("lam,m", [(1, 16), (2, 16), (2, 256), (3, 4096)])
    def test_axis_family(self, lam, m):
        assert self.residual(construct_signal_set(lam, m), lam) <= UNITARITY_TOL

    def test_hyperbola_family(self):
        assert self.residual(hyperbola_signal_set([1.0], 0.25), 2) <= UNITARITY_TOL

    def test_same_sign_products_fail(self):
        # x1I*x2I = +1 and x1Q*x2Q = +1 breaks the cancellation that
        # scaled unitarity needs
        g = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert self.residual((g, g, g, g), 2) > UNITARITY_TOL

    def test_large_codebook(self):
        # exact at M = 16^4 from the per-group excesses
        assert self.residual(construct_signal_set(3, 16**4), 3) <= UNITARITY_TOL
        assert self.residual(preset_signal_set("paper-8ant-rate2"), 3) <= UNITARITY_TOL


class TestAlphabetValidation:
    """A signal set is four 2-D point arrays of K/4 columns; ``Codebook`` is
    the one place that checks it."""

    def test_four_groups_required(self):
        g = construct_signal_set(2, 16)[0]
        with pytest.raises(ValueError, match="four"):
            Codebook(construct_design(2), (g, g, g))
        with pytest.raises(ValueError, match="four"):
            Codebook(construct_design(2), (g,) * 5)

    def test_wrong_dimension_rejected(self):
        g2 = construct_signal_set(2, 16)[0]
        g1 = construct_signal_set(1, 16)[0]
        with pytest.raises(ValueError, match="K/4 = 2"):
            Codebook(construct_design(2), (g2, g2, g2, g1))
        with pytest.raises(ValueError, match="K/4 = 4"):
            Codebook(construct_design(3), (g2,) * 4)

    def test_one_dimensional_array_rejected(self):
        g = construct_signal_set(2, 16)[0]
        with pytest.raises(ValueError, match="four"):
            Codebook(construct_design(2), (g, g, g, np.array([1.0, -1.0])))

    def test_empty_group_rejected(self):
        # an empty group would leave M = 0: no rate, no pair and no decision
        g = construct_signal_set(2, 16)[0]
        with pytest.raises(ValueError, match="four non-empty"):
            Codebook(construct_design(2), [np.empty((0, 2))] * 4)
        with pytest.raises(ValueError, match="four non-empty"):
            Codebook(construct_design(2), (g, g, np.empty((0, 2)), g))

    @pytest.mark.parametrize("sset", [
        construct_signal_set(2, 256),
        preset_signal_set("paper-8ant-rate2"),
        hyperbola_signal_set([1.0], 0.25),
        hyperbola_signal_set([1.0], 0.25, branch="AB"),
        (circle_hyperbola_set([1.0], 0.25),),
    ], ids=["axis", "preset", "hyperbola", "hyperbola-AB", "circle-hyperbola"])
    def test_points_immutable(self, sset):
        for pts in sset:
            assert pts.dtype == np.float64 and not pts.flags.writeable
            with pytest.raises(ValueError):
                pts[0, 0] = 5.0

    def test_codebook_keeps_read_only_copies(self):
        # writable input arrays are copied, so later writes to them leave the
        # codebook's alphabets, partials and norms as they were
        g = np.array([[1, 0], [-1, 0]])
        cb = Codebook(construct_design(2), (g, g, g, g))
        g[0, 0] = 5
        for pts in cb.alphabets:
            assert pts.dtype == np.float64 and not pts.flags.writeable
            assert np.array_equal(pts, [[1.0, 0.0], [-1.0, 0.0]])
            with pytest.raises(ValueError):
                pts[0, 0] = 5.0
        assert [nk.tolist() for nk in cb.group_norms] == [[1.0, 1.0]] * 4


class TestMemoryPeak:
    def test_hyperbola_points_fit_what_group_radii_counts(self):
        # 50 000 radii, 100 000 points: the peak stays within the bytes
        # group_radii checks for the group's radii and points (2.0 MB)
        p = 100_000
        radii = default_radii(p // 2)
        tracemalloc.start()
        try:
            pts = circle_hyperbola_set(radii, float(radii[0]) ** 2 / 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pts.shape == (p, 2)
        assert peak <= 8 * (p // 2 + p * 2)
