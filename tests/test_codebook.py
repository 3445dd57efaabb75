import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdstbc import codebook
from gdstbc.codebook import (
    RANK_RTOL,
    UNITARITY_TOL,
    Codebook,
    NotGroupDecodableError,
    average_scale,
    coding_gain,
    verify_full_diversity,
)
from gdstbc.design import Grouping, construct_design, evaluate
from gdstbc.signalset import (
    GroupSignalSet,
    SignalSet,
    construct_signal_set,
    hyperbola_signal_set,
    normalize_radii,
    preset_signal_set,
)
from gdstbc.sim import SimConfig, build_codebook

from oracles import assemble_real_vector, cofactor_det, pair_scan


@pytest.fixture(scope="module")
def cb16():
    return Codebook(construct_design(2), construct_signal_set(2, 16))


@pytest.fixture(scope="module")
def cb_alamouti():
    return Codebook(construct_design(1), construct_signal_set(1, 16))


class TestCodewordAssembly:
    def test_all_ones_index(self, cb16):
        cw = cb16.codeword_at((0, 0, 0, 0))
        # group point (1, 0) everywhere: x1 = 1+j, x2 = 0, x3 = 1+j, x4 = 0
        assert cw.scale_sq == pytest.approx(4.0, abs=1e-12)
        gram = cw.matrix.conj().T @ cw.matrix
        assert np.allclose(gram, 4 * np.eye(4), atol=1e-12)
        x1 = cw.matrix[0, 0]
        assert x1 == pytest.approx(1 + 1j)
        assert cw.matrix[0, 1] == 0 and cw.matrix[1, 1] == x1

    def test_matches_design_evaluation(self, cb16):
        pts = [g.points for g in cb16.sset.groups]
        grp = cb16.grouping
        d = cb16.design
        for idx in ((0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 0, 1)):
            x = assemble_real_vector(grp, pts, idx)
            expected = evaluate(d, x)
            cw = cb16.codeword_at(idx)
            assert np.allclose(cw.matrix, expected, atol=1e-12)
            assert cw.scale_sq == pytest.approx(float(x @ x), abs=1e-12)

    def test_stack_consistent_with_codeword_at(self, cb16):
        scales = cb16.coordinate_table(np.float64)[1]
        for lin in range(cb16.M):
            idx = cb16.unravel_index(lin)
            assert np.array_equal(cb16.matrices[lin], cb16.codeword_at(idx).matrix)
            assert scales[lin] == cb16.codeword_at(idx).scale_sq

    def test_partials_hold_every_group_in_order(self, cb16):
        assert cb16.partials.shape == (sum(cb16.sizes), cb16.n, cb16.n)
        assert np.array_equal(cb16.partials, np.concatenate(cb16.group_stacks))
        for stack, size in zip(cb16.group_stacks, cb16.sizes):
            assert stack.shape[0] == size and stack.flags.c_contiguous
            assert np.shares_memory(stack, cb16.partials)

    def test_no_zero_codeword(self, cb16):
        assert float(cb16.coordinate_table(np.float64)[1].min()) > 0

    def test_index_out_of_range(self, cb16):
        with pytest.raises(IndexError):
            cb16.codeword_at((2, 0, 0, 0))
        with pytest.raises(ValueError):
            cb16.codeword_at((0, 0, 0))

    def test_alamouti_codewords_are_qam_scaled_unitary(self, cb_alamouti):
        assert cb_alamouti.M == 16
        assert cb_alamouti.max_unitarity_residual() <= UNITARITY_TOL
        for lin in range(16):
            cw = cb_alamouti.codeword_at(cb_alamouti.unravel_index(lin))
            assert cw.scale_sq == pytest.approx(4.0, abs=1e-12)
            # entries are +-1 +- j QAM points
            x1 = cw.matrix[0, 0]
            assert abs(x1.real) == 1.0 and abs(x1.imag) == 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Codebook(construct_design(3), construct_signal_set(2, 16))


#: Axis lam 1-4, the preset and the hyperbola family, as the simulator builds them.
COORDINATE_CODEBOOKS = {
    "lam1-M256": dict(lam=1, m=256),
    "lam2-M256": dict(lam=2, m=256),
    "lam3-M256": dict(lam=3, m=256),
    "lam4-M256": dict(lam=4, m=256),
    "preset": dict(lam=3, m=16**4, preset="paper-8ant-rate2"),
    "hyperbola": dict(lam=2, m=256, family="hyperbola"),
}


class TestCoordinates:
    """``coordinate_table`` and ``basis``: every codeword in the design's real
    coordinates, with its scale."""

    @pytest.fixture(scope="class", params=sorted(COORDINATE_CODEBOOKS))
    def cb(self, request):
        return build_codebook(SimConfig(**COORDINATE_CODEBOOKS[request.param]))

    def test_coordinates_reproduce_the_codeword_stack(self, cb):
        k = cb.design.K
        points = cb.coordinate_table(np.float64)[0]
        assert points.shape == (cb.M, 4, k // 4) and cb.basis.shape == (k, cb.n, cb.n)
        assert points.nbytes == 8 * k * cb.M
        stack = np.tensordot(points.reshape(cb.M, k), cb.basis, 1)
        scale = np.abs(cb.matrices).max()
        assert np.abs(stack - cb.matrices).max() <= 1e-12 * scale

    def test_scales_are_the_squared_norms_of_the_points(self, cb):
        points, scales = cb.coordinate_table(np.float64)
        norms = np.einsum("mkd,mkd->m", points, points)
        assert np.abs(norms - scales).max() <= 1e-12 * scales.max()

    def test_points_place_the_real_vector_of_each_codeword(self, cb):
        points = cb.coordinate_table(np.float64)[0]
        pts = [g.points for g in cb.sset.groups]
        order = np.concatenate(cb.grouping.groups)
        for lin in (0, 1, cb.M // 3, cb.M - 1):
            x = assemble_real_vector(cb.grouping, pts, cb.unravel_index(lin))
            assert np.array_equal(points[lin].reshape(-1), x[order])
            assert np.allclose(evaluate(cb.design, x), cb.matrices[lin], atol=1e-12)

    def test_coordinate_metrics_score_every_codeword(self, cb):
        points, scales = cb.coordinate_table(np.float64)
        h = np.random.default_rng(7).standard_normal(cb.design.K)
        want = points.reshape(cb.M, -1) @ h + scales
        tol = 1e-12 * (np.sqrt(scales.max()) * np.linalg.norm(h) + scales.max())
        assert np.abs(cb.coordinate_metrics(h) - want).max() <= tol
        lin = np.array([0, cb.M // 3, cb.M - 1, 1])
        assert np.array_equal(cb.coordinate_metrics(h, lin), cb.coordinate_metrics(h)[lin])

    def test_float32_table_takes_over_above_the_threshold(self, cb, monkeypatch):
        table_bytes = 8 * cb.M * cb.design.K
        for limit, dtype in ((table_bytes, np.float64), (table_bytes - 1, np.float32)):
            monkeypatch.setattr(codebook, "FLOAT32_SCAN_BYTES", limit)
            fresh = build_codebook(SimConfig(lam=cb.design.lam, m=cb.M))
            table, scales = fresh.exhaustive_table
            assert fresh.exhaustive_table[0] is table  # built once
            assert table.dtype == scales.dtype == dtype
            assert table.nbytes == table_bytes * np.dtype(dtype).itemsize // 8
            want_table, want_scales = fresh.coordinate_table(dtype)
            assert np.array_equal(table, want_table) and np.array_equal(scales, want_scales)


def _fake_files(monkeypatch, files):
    """Serve ``codebook._read`` from ``files`` (path: text); other paths are missing."""
    monkeypatch.setattr(codebook, "_read", files.get)


class TestMemoryBudget:
    """``_available_bytes``: MemAvailable, capped by the cgroup's headroom."""

    MEMINFO = {"/proc/meminfo": "MemTotal: 8000000 kB\nMemAvailable: 4000000 kB\n"}

    def test_meminfo_alone(self, monkeypatch):
        _fake_files(monkeypatch, dict(self.MEMINFO))
        assert codebook._available_bytes() == 4_096_000_000
        _fake_files(monkeypatch, {})
        assert codebook._available_bytes() == math.inf

    def test_cgroup_v2_limit(self, monkeypatch):
        files = {**self.MEMINFO, "/proc/self/cgroup": "0::/user.slice/run-1.scope\n",
                 "/sys/fs/cgroup/user.slice/run-1.scope/memory.max": "300000000\n",
                 "/sys/fs/cgroup/user.slice/run-1.scope/memory.current": "100000000\n"}
        _fake_files(monkeypatch, files)
        assert codebook._available_bytes() == 200_000_000
        files["/sys/fs/cgroup/user.slice/run-1.scope/memory.max"] = "max\n"
        assert codebook._available_bytes() == 4_096_000_000

    def test_cgroup_v2_at_the_root(self, monkeypatch):
        _fake_files(monkeypatch, {**self.MEMINFO, "/proc/self/cgroup": "0::/\n",
                                  "/sys/fs/cgroup/memory.max": "5000\n",
                                  "/sys/fs/cgroup/memory.current": "7000\n"})
        assert codebook._available_bytes() == 0  # charged past its limit

    def test_cgroup_v1_limit(self, monkeypatch):
        base = "/sys/fs/cgroup/memory/docker/abc"
        files = {**self.MEMINFO, "/proc/self/cgroup": "5:cpu,cpuacct:/docker/abc\n"
                                                      "4:memory:/docker/abc\n0::/\n",
                 f"{base}/memory.limit_in_bytes": "500000000\n",
                 f"{base}/memory.usage_in_bytes": "120000000\n"}
        _fake_files(monkeypatch, files)
        assert codebook._available_bytes() == 380_000_000
        files[f"{base}/memory.limit_in_bytes"] = f"{2**62}\n"
        assert codebook._available_bytes() == 4_096_000_000
        # a namespaced container sees its own cgroup at the mount root
        del files[f"{base}/memory.limit_in_bytes"]
        files["/sys/fs/cgroup/memory/memory.limit_in_bytes"] = "1000000000\n"
        files["/sys/fs/cgroup/memory/memory.usage_in_bytes"] = "400000000\n"
        assert codebook._available_bytes() == 600_000_000
        files["/sys/fs/cgroup/memory/memory.limit_in_bytes"] = "9223372036854771712\n"
        assert codebook._available_bytes() == 4_096_000_000

    def test_refusal_under_a_cgroup_limit(self, monkeypatch):
        _fake_files(monkeypatch, {**self.MEMINFO, "/proc/self/cgroup": "0::/job\n",
                                  "/sys/fs/cgroup/job/memory.max": "3000000\n",
                                  "/sys/fs/cgroup/job/memory.current": "2000000\n"})
        cb = build_codebook(SimConfig(lam=2, m=16**4))
        # the float32 table (2.1 MB) and its scales (0.26 MB), checked together
        with pytest.raises(ValueError, match=r"decide_exhaustive needs "
                                             r"Codebook\.exhaustive_table, 2\.4 MB, but "
                                             r"only 1\.0 MB"):
            cb.exhaustive_table  # noqa: B018
        assert "exhaustive_table" not in cb.__dict__


class TestScaledUnitarity:
    def test_perturbed_hyperbola_set_fails(self):
        good = hyperbola_signal_set([1.0], 0.25)
        g0 = good.groups[0]
        pts = g0.points.copy()
        assert pts[0, 0] * pts[0, 1] == pytest.approx(0.25)
        pts[0, 0] += 0.1  # pull one point off the hyperbola x*y = c
        moved = GroupSignalSet(dim=2, points=pts, radii=g0.radii, family=g0.family, c=g0.c)
        cb = Codebook(construct_design(2), SignalSet(groups=(moved, *good.groups[1:])))
        assert cb.max_unitarity_residual() > UNITARITY_TOL
        assert pair_scan(cb)["max_unitarity_residual"] > UNITARITY_TOL

    def test_whole_codebook_residual(self, cb16):
        assert cb16.max_unitarity_residual() <= 1e-12

    @pytest.mark.parametrize("lam, sset", [
        *((lam, construct_signal_set(lam, 16)) for lam in (1, 2, 3, 4)),
        (2, construct_signal_set(2, 256)),
        (2, hyperbola_signal_set([1.0], 0.25)),
        (3, preset_signal_set("paper-8ant-rate2")),
    ], ids=["lam1", "lam2", "lam3", "lam4", "lam2-M256", "hyperbola", "preset"])
    def test_require_scaled_unitary_passes(self, lam, sset):
        cb = Codebook(construct_design(lam), sset)
        cb.require_scaled_unitary()
        assert cb.unitarity_residual <= UNITARITY_TOL

    def test_require_scaled_unitary_refuses_same_sign_control(self):
        same_sign = GroupSignalSet(dim=2, points=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                   radii=(math.sqrt(2.0),), family="custom")
        cb = Codebook(construct_design(2), SignalSet(groups=(same_sign,) * 4))
        with pytest.raises(ValueError, match="needs scaled-unitary codewords.*residual is 8 "):
            cb.require_scaled_unitary()
        assert cb.unitarity_residual == pytest.approx(8.0)

    def test_require_scaled_unitary_computes_the_residual_once(self, monkeypatch):
        cb = Codebook(construct_design(2), construct_signal_set(2, 16))
        calls = []
        residual = Codebook.max_unitarity_residual

        def counted(self):
            calls.append(1)
            return residual(self)

        monkeypatch.setattr(Codebook, "max_unitarity_residual", counted)
        for _ in range(3):
            cb.require_scaled_unitary()
        assert calls == [1]
        # a fresh codebook computes its own
        Codebook(construct_design(2), construct_signal_set(2, 16)).require_scaled_unitary()
        assert calls == [1, 1]


class TestFullDiversity:
    def test_lambda2_exhaustive(self, cb16):
        rep = verify_full_diversity(cb16)
        assert rep.all_full_rank and rep.pairs_checked == 120
        assert rep.min_abs_det > 0
        assert rep.bound_holds and rep.min_bound_margin >= -1e-6
        assert rep.claim == "full diversity verified (exhaustive)"

    def test_lambda3_two_points_per_group(self):
        cb = Codebook(construct_design(3), construct_signal_set(3, 16))
        rep = verify_full_diversity(cb)
        assert rep.all_full_rank and rep.pairs_checked == 120
        assert rep.bound_holds

    def test_rejected_hyperbola_branch_pair_fails(self):
        cb = Codebook(construct_design(2), hyperbola_signal_set([1.0], 0.25, branch="AB"))
        rep = verify_full_diversity(cb)
        assert not rep.all_full_rank
        assert rep.num_rank_deficient > 0
        assert rep.first_deficient_pair is not None
        assert rep.min_abs_det == pytest.approx(0.0, abs=1e-9)
        assert "rank-deficient" in rep.claim

    def test_deficient_count_is_single_group_lower_bound(self):
        # counts the pairs that differ in one group by a singular
        # difference: 4 singular point pairs x 64 other-group choices x 4
        # groups; the pair scan also finds multi-group deficient pairs
        cb = Codebook(construct_design(2), hyperbola_signal_set([1.0], 0.25, branch="AB"))
        rep = verify_full_diversity(cb)
        assert rep.num_rank_deficient == 1024
        assert pair_scan(cb)["num_rank_deficient"] == 3840
        assert rep.claim == "at least 1024 rank-deficient pair(s) found (exhaustive)"
        i, j = rep.first_deficient_pair
        assert sum(a != b for a, b in zip(i, j)) == 1
        d = cb.codeword_at(j).matrix - cb.codeword_at(i).matrix
        assert abs(np.linalg.det(d)) < 1e-12

    def test_no_size_cap(self):
        cb = Codebook(construct_design(2), construct_signal_set(2, 10000))
        rep = verify_full_diversity(cb)
        assert rep.all_full_rank and rep.claim == "full diversity verified (exhaustive)"
        assert rep.pairs_checked == 10000 * 9999 // 2
        assert "matrices" not in cb.__dict__  # the full stack is never built

    def test_non_decodable_grouping_refused(self):
        bad = Grouping(g=4, groups=((0, 3), (1, 2), (4, 6), (5, 7)))
        cb = Codebook(construct_design(2), construct_signal_set(2, 16), grouping=bad)
        for verifier in (verify_full_diversity, coding_gain):
            with pytest.raises(NotGroupDecodableError):
                verifier(cb)
        with pytest.raises(NotGroupDecodableError):
            cb.max_unitarity_residual()

    def test_unchecked_codebook_is_checked_on_demand(self):
        cb = Codebook(construct_design(2), construct_signal_set(2, 16), check_decodable=False)
        assert cb.group_decodable is None
        assert verify_full_diversity(cb).all_full_rank
        assert cb.group_decodable is True

    def test_full_rank_rule(self):
        # the rule documented on RANK_RTOL, as the verifiers apply it
        def is_full_rank(a):
            s = np.linalg.svd(a, compute_uv=False)
            return bool(s[-1] > RANK_RTOL * max(1.0, float(s[0])))

        assert is_full_rank(np.eye(3))
        assert not is_full_rank(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_codeword_difference_gram_positive(self, cb16):
        # two distinct codewords: the difference Gram determinant is a
        # positive real, cross-checked with the cofactor oracle
        d = cb16.codeword_at((0, 0, 0, 0)).matrix - cb16.codeword_at((1, 0, 1, 0)).matrix
        gram = d.conj().T @ d
        val = np.linalg.det(gram)
        assert val.real > 0 and abs(val.imag) < 1e-9
        assert val == pytest.approx(cofactor_det(gram), abs=1e-8)


class TestCodingGain:
    def test_alamouti_bpsk_value(self, cb_alamouti):
        # independent enumeration oracle over all 120 pairs
        mats = cb_alamouti.matrices
        gains = []
        for i in range(16):
            for j in range(i + 1, 16):
                d = mats[j] - mats[i]
                gains.append(np.linalg.det(d.conj().T @ d).real ** 0.5)
        assert min(gains) == pytest.approx(4.0, abs=1e-9)
        assert coding_gain(cb_alamouti) == pytest.approx(4.0, abs=1e-9)

    def test_repeated_codeword_gives_zero(self):
        g = GroupSignalSet(dim=2, points=np.array([[1.0, 0.0], [1.0, 0.0]]),
                           radii=(1.0,), family="custom")
        cb = Codebook(construct_design(2), SignalSet(groups=(g, g, g, g)))
        assert coding_gain(cb) == pytest.approx(0.0, abs=1e-12)

    def test_lambda2_regression_value(self, cb16):
        # frozen regression baseline, computed by exhaustive enumeration
        gain = coding_gain(cb16)
        mats = cb16.matrices
        oracle = min(
            np.linalg.det((mats[j] - mats[i]).conj().T @ (mats[j] - mats[i])).real
            ** (1 / 4)
            for i in range(16) for j in range(i + 1, 16)
        )
        assert gain == pytest.approx(oracle, rel=1e-9)
        assert gain > 0


class TestAverageScale:
    def test_lambda2_equals_antenna_count(self, cb16):
        assert average_scale(cb16) == pytest.approx(4.0, abs=1e-9)

    def test_group_marginal_oracle(self):
        # exhaustive mean equals the sum of per-group mean norms
        cb = Codebook(construct_design(3), preset_signal_set("paper-8ant-rate2"))
        oracle = sum(float(np.mean(g.norms_sq())) for g in cb.sset.groups)
        assert average_scale(cb) == pytest.approx(oracle, abs=1e-9)
        # four unit-power groups: the mean scale is 4 regardless of lam
        assert average_scale(cb) == pytest.approx(4.0, abs=1e-9)

    def test_closed_form_path(self, cb16):
        # the group-marginal sum equals the mean over every codeword's scale
        scales = cb16.coordinate_table(np.float64)[1]
        assert average_scale(cb16) == pytest.approx(float(np.mean(scales)), abs=1e-12)

    def test_single_unitary_codeword(self):
        half = math.sqrt(0.5)
        g_i = GroupSignalSet(dim=1, points=np.array([[half]]), radii=(half,), family="custom")
        g_z = GroupSignalSet(dim=1, points=np.array([[0.0]]), radii=(), family="custom")
        cb = Codebook(construct_design(1), SignalSet(groups=(g_i, g_i, g_z, g_z)))
        assert cb.M == 1
        assert cb.max_unitarity_residual() <= UNITARITY_TOL
        assert cb.codeword_at((0, 0, 0, 0)).scale_sq == pytest.approx(1.0, abs=1e-12)
        assert average_scale(cb) == pytest.approx(1.0, abs=1e-12)


class TestCodebookInvariants:
    @pytest.mark.parametrize("lam,m", [(1, 16), (2, 16), (2, 256), (3, 16)])
    def test_injectivity(self, lam, m):
        cb = Codebook(construct_design(lam), construct_signal_set(lam, m))
        keys = {cb.matrices[i].round(9).tobytes() for i in range(cb.M)}
        assert len(keys) == cb.M

    def test_block_bound_holds_on_pairs(self, cb16):
        # det(dS^H dS) >= max(|det dA|^2, |det dB|^2)^2 - 1e-6 on every pair
        mats = cb16.matrices
        for i in range(16):
            for j in range(i + 1, 16):
                d = mats[j] - mats[i]
                lhs = np.linalg.det(d.conj().T @ d).real
                da = abs(np.linalg.det(d[:2, :2])) ** 2
                db = abs(np.linalg.det(d[2:, :2])) ** 2
                assert lhs >= max(da, db) ** 2 - 1e-6

    def test_rate(self):
        cb = Codebook(construct_design(3), preset_signal_set("paper-8ant-rate2"))
        assert cb.M == 16**4
        assert cb.rate_bits_per_use == pytest.approx(2.0, abs=1e-12)

    def test_size_is_product_of_groups(self, cb16):
        assert cb16.M == int(np.prod(cb16.sizes)) == 16

    def test_group_decodable_flag(self, cb16):
        assert cb16.group_decodable is True

    def test_linear_index_roundtrip(self, cb16):
        for lin in range(cb16.M):
            assert cb16.linear_index(cb16.unravel_index(lin)) == lin


def _assert_matches_pair_scan(cb):
    """The per-group verdicts agree with the brute-force pair scan."""
    ref = pair_scan(cb)
    rep = verify_full_diversity(cb)
    assert rep.pairs_checked == ref["pairs"]
    assert rep.all_full_rank == (ref["num_rank_deficient"] == 0)
    assert rep.num_rank_deficient <= ref["num_rank_deficient"]
    assert rep.min_abs_det == pytest.approx(ref["min_abs_det"], rel=1e-9, abs=1e-12)
    assert coding_gain(cb) == pytest.approx(ref["coding_gain"], rel=1e-9, abs=1e-12)
    assert rep.bound_holds == (ref["min_rel_bound_margin"] >= -1e-9)
    resid = cb.max_unitarity_residual()
    assert (resid <= 1e-9) == (ref["max_unitarity_residual"] <= 1e-9)
    assert resid >= ref["max_unitarity_residual"] - 1e-12
    return rep


class TestPairScanOracle:
    @pytest.mark.parametrize("lam,m", [(1, 16), (1, 256), (2, 16), (2, 256),
                                       (3, 16), (3, 256), (4, 16)])
    def test_axis_family(self, lam, m):
        rep = _assert_matches_pair_scan(Codebook(construct_design(lam),
                                                 construct_signal_set(lam, m)))
        assert rep.all_full_rank and rep.bound_holds and rep.min_bound_margin == 0.0

    def test_negative_controls(self):
        same_sign = GroupSignalSet(dim=2, points=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                   radii=(math.sqrt(2.0),), family="custom")
        repeated = GroupSignalSet(dim=2, points=np.array([[1.0, 0.0], [1.0, 0.0]]),
                                  radii=(1.0,), family="custom")
        d = construct_design(2)
        ab = Codebook(d, hyperbola_signal_set([1.0], 0.25, branch="AB"))
        rep = _assert_matches_pair_scan(ab)
        assert not rep.all_full_rank and rep.min_abs_det == pytest.approx(0.0, abs=1e-12)
        cb = Codebook(d, SignalSet(groups=(same_sign,) * 4))
        _assert_matches_pair_scan(cb)
        assert cb.max_unitarity_residual() > UNITARITY_TOL
        cb = Codebook(d, SignalSet(groups=(repeated,) * 4))
        _assert_matches_pair_scan(cb)
        assert coding_gain(cb) == 0.0

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(lam=st.integers(1, 3),
           raw=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=2, unique=True))
    def test_random_axis_radii(self, lam, raw):
        raw = sorted(raw)
        if len(raw) == 2 and raw[1] - raw[0] < 0.05:
            raw = [raw[0], raw[0] + 0.05]
        m = (2 * len(raw)) ** 4
        _assert_matches_pair_scan(Codebook(construct_design(lam),
                                           construct_signal_set(lam, m, radii=raw)))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(raw=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=2, unique=True),
           frac=st.floats(0.05, 0.95), branch=st.sampled_from(("A", "B", "AB")))
    def test_random_hyperbola(self, raw, frac, branch):
        raw = sorted(raw)[:1] if branch == "AB" else sorted(raw)  # keep M <= 256
        if len(raw) == 2 and raw[1] - raw[0] < 0.05:
            raw = [raw[0], raw[0] + 0.05]
        radii = normalize_radii(raw, len(raw))
        c = frac * radii[0] ** 2 / 2
        _assert_matches_pair_scan(Codebook(construct_design(2),
                                           hyperbola_signal_set(radii, c, branch=branch)))
