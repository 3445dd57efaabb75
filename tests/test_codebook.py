import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdstbc import codebook
from gdstbc._kernels import FactoredTable
from gdstbc.codebook import (
    RANK_RTOL,
    UNITARITY_TOL,
    Codebook,
    NotGroupDecodableError,
    average_scale,
    verify_full_diversity,
)
from gdstbc.design import (
    LinearDesign,
    canonical_grouping,
    construct_design,
    evaluate,
    verify_group_decodable,
    verify_within_group_involutions,
)
from gdstbc.signalset import (
    construct_signal_set,
    hyperbola_signal_set,
    normalize_radii,
    preset_signal_set,
)
from gdstbc.sim import SimConfig, build_codebook, build_signal_set

from oracles import (
    assemble_real_vector,
    cofactor_det,
    dense_unitarity_residual,
    group_svd_verdict,
    pair_scan,
)


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
        pts = cb16.alphabets
        grp = cb16.grouping
        d = cb16.design
        for idx in ((0, 0, 0, 0), (1, 0, 1, 1), (0, 1, 0, 1)):
            x = assemble_real_vector(grp, pts, idx)
            expected = evaluate(d, x)
            cw = cb16.codeword_at(idx)
            assert np.allclose(cw.matrix, expected, atol=1e-12)
            assert cw.scale_sq == pytest.approx(float(x @ x), abs=1e-12)

    def test_stack_consistent_with_codeword_at(self, cb16):
        scales = cb16.coordinate_table()[1]
        for lin in range(cb16.M):
            idx = cb16.unravel_index(lin)
            assert np.array_equal(cb16.matrices[lin], cb16.codeword_at(idx).matrix)
            assert scales[lin] == cb16.codeword_at(idx).scale_sq

    def test_partials_are_formed_on_demand(self, cb16):
        # a codebook keeps no per-point n x n array; S_k(p) is formed from the
        # alphabet and group k's weights, for all points or any of them
        cb = Codebook(cb16.design, cb16.alphabets)
        held = [a for v in vars(cb).values() for a in (v if isinstance(v, (list, tuple))
                                                        else (v,))]
        assert not any(isinstance(a, np.ndarray) and a.shape[-2:] == (cb.n, cb.n)
                       for a in held)
        for k, size in enumerate(cb16.sizes):
            stack = cb16.partials(k)
            assert stack.shape == (size, cb16.n, cb16.n) and stack.flags.c_contiguous
            weights = cb16.design.weight_stack[list(cb16.grouping.groups[k])]
            assert np.array_equal(stack, np.tensordot(cb16.alphabets[k], weights, 1))
            for p in range(size):
                assert np.array_equal(cb16.partials(k, p), stack[p])

    def test_group_tables_view_the_alphabets(self, cb16):
        # what decide_group scans per group, built once: read-only views
        assert cb16.group_tables is cb16.group_tables
        for k, (table, norms, norm_list) in enumerate(cb16.group_tables):
            points = cb16.alphabets[k]
            assert table.shape == (cb16.sizes[k], 1, points.shape[1])
            assert np.shares_memory(table, points) and not table.flags.writeable
            assert norms is cb16.group_norms[k] and norm_list == norms.tolist()

    @pytest.mark.parametrize("cfg, terms", [
        (dict(lam=1, m=16), 1), (dict(lam=2, m=256), 1), (dict(lam=4, m=16), 1),
        (dict(lam=6, m=16), 1), (dict(lam=2, m=256, family="hyperbola"), 2),
        (dict(lam=3, m=16**4, preset="paper-8ant-rate2"), 1),
    ])
    def test_chain_tables_apply_every_partial_codeword(self, cfg, terms):
        # the encoder's row gathers give S_k(p) Y for every group point
        cb = build_codebook(SimConfig(**cfg))
        offsets, ids, coords = cb.chain_tables
        cols, units = cb.basis_monomial
        assert ids.shape == coords.shape == (sum(cb.sizes), terms)
        assert cols.shape == units.shape == (cb.design.K, cb.n)
        y = np.random.default_rng(cb.n).standard_normal((cb.n, 3, 2)).view(complex)[..., 0]
        for k in range(4):
            rows = slice(offsets[k], offsets[k] + cb.sizes[k])
            v = ids[rows]
            gathered = (coords[rows, :, None, None] * units[v][..., None] * y[cols[v]]).sum(1)
            assert np.allclose(gathered, cb.partials(k) @ y, rtol=0, atol=1e-12)

    def test_no_zero_codeword(self, cb16):
        assert float(cb16.coordinate_table()[1].min()) > 0

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
        with pytest.raises(ValueError, match="four"):
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
        points = cb.coordinate_table()[0]
        assert points.shape == (cb.M, 4, k // 4) and cb.basis.shape == (k, cb.n, cb.n)
        assert points.nbytes == 8 * k * cb.M
        stack = np.tensordot(points.reshape(cb.M, k), cb.basis, 1)
        scale = np.abs(cb.matrices).max()
        assert np.abs(stack - cb.matrices).max() <= 1e-12 * scale

    def test_scales_are_the_squared_norms_of_the_points(self, cb):
        points, scales = cb.coordinate_table()
        norms = np.einsum("mkd,mkd->m", points, points)
        assert np.abs(norms - scales).max() <= 1e-12 * scales.max()

    def test_points_place_the_real_vector_of_each_codeword(self, cb):
        points = cb.coordinate_table()[0]
        pts = cb.alphabets
        order = np.concatenate(cb.grouping.groups)
        for lin in (0, 1, cb.M // 3, cb.M - 1):
            x = assemble_real_vector(cb.grouping, pts, cb.unravel_index(lin))
            assert np.array_equal(points[lin].reshape(-1), x[order])
            assert np.allclose(evaluate(cb.design, x), cb.matrices[lin], atol=1e-12)

    def test_coordinate_metrics_score_every_codeword(self, cb):
        points, scales = cb.coordinate_table()
        assert points.reshape(cb.M, -1).flags.f_contiguous  # a GEMV streams each coordinate
        h = np.random.default_rng(7).standard_normal(cb.design.K)
        want = points.reshape(cb.M, -1) @ h + scales
        tol = 1e-12 * (np.sqrt(scales.max()) * np.linalg.norm(h) + scales.max())
        assert np.abs(cb.coordinate_metrics(h) - want).max() <= tol

    def test_factored_table_takes_over_above_the_threshold(self, cb, monkeypatch):
        table_bytes = 8 * cb.M * cb.design.K
        for limit in (table_bytes, table_bytes - 1):
            monkeypatch.setattr(codebook, "TABLE_SCAN_BYTES", limit)
            fresh = Codebook(cb.design, cb.alphabets, check_decodable=False)
            scan = fresh.exhaustive_table
            assert fresh.exhaustive_table is scan  # built once
            assert scan[0].shape == (cb.M, 4, cb.design.K // 4)
            if limit == table_bytes:
                table, scales = scan
                want_table, want_scales = fresh.coordinate_table()
                assert table.dtype == scales.dtype == np.float64
                assert np.array_equal(table, want_table) and np.array_equal(scales, want_scales)
            else:
                (factored,) = scan
                assert isinstance(factored, FactoredTable)
                assert factored.points == fresh.alphabets
                assert factored.norms == tuple(fresh.group_norms)


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
                                  "/sys/fs/cgroup/job/memory.current": "2500000\n"})
        cb = build_codebook(SimConfig(lam=2, m=16**4))
        # the factored scan's M sums (0.52 MB) and partial sums (35 kB)
        with pytest.raises(ValueError, match=r"decide_exhaustive needs "
                                             r"Codebook\.exhaustive_table, 0\.6 MB, but "
                                             r"only 0\.5 MB"):
            cb.exhaustive_table  # noqa: B018
        assert "exhaustive_table" not in cb.__dict__


class TestScaledUnitarity:
    def test_perturbed_hyperbola_set_fails(self):
        good = hyperbola_signal_set([1.0], 0.25)
        pts = good[0].copy()
        assert pts[0, 0] * pts[0, 1] == pytest.approx(0.25)
        pts[0, 0] += 0.1  # pull one point off the hyperbola x*y = c
        cb = Codebook(construct_design(2), (pts, *good[1:]))
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
        same_sign = np.array([[1.0, 1.0], [-1.0, -1.0]])
        cb = Codebook(construct_design(2), (same_sign,) * 4)
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


def _perturbed_hyperbola():
    good = hyperbola_signal_set([1.0], 0.25)
    pts = good[0].copy()
    pts[0, 0] += 0.1  # one point off the hyperbola x*y = c
    return (pts, *good[1:])


@st.composite
def _two_coordinate_alphabets(draw):
    """lam 1-5 and four alphabets of 1-4 points, each point on 0-2 random
    coordinates of K/4 with random values."""
    lam = draw(st.integers(1, 5))
    dim = construct_design(lam).K // 4
    value = st.floats(-2.0, 2.0, allow_nan=False, width=32)
    alphabets = []
    for _ in range(4):
        points = np.zeros((draw(st.integers(1, 4)), dim))
        for row in points:
            coords = draw(st.lists(st.integers(0, dim - 1), max_size=2, unique=True))
            row[coords] = [draw(value) for _ in coords]
        alphabets.append(points)
    return lam, alphabets


class TestMonomialResidual:
    """``max_unitarity_residual`` reads each group point's excess off
    ``chain_tables``; it equals the dense bound over S_k(p)^H S_k(p) exactly."""

    @pytest.mark.parametrize("lam, sset", [
        *((lam, construct_signal_set(lam, 16)) for lam in range(1, 7)),
        (2, construct_signal_set(2, 10000)),
        (3, preset_signal_set("paper-8ant-rate2")),
        *((2, hyperbola_signal_set([1.0], 0.25, branch=b)) for b in ("A", "B", "AB")),
        (2, build_signal_set(SimConfig(lam=2, m=256, family="hyperbola"))),
        (2, _perturbed_hyperbola()),
        (2, (np.array([[1.0, 1.0], [-1.0, -1.0]]),) * 4),
        (2, (np.array([[1.0, 0.0], [1.0, 0.0]]),) * 4),
    ], ids=[*(f"lam{lam}" for lam in range(1, 7)), "lam2-M10000", "preset",
            "hyperbola-A", "hyperbola-B", "hyperbola-AB", "hyperbola-M256",
            "perturbed-hyperbola", "same-sign", "repeated"])
    def test_equals_the_dense_bound(self, lam, sset):
        cb = Codebook(construct_design(lam), sset)
        assert cb.max_unitarity_residual() == dense_unitarity_residual(cb)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_two_coordinate_alphabets())
    def test_random_two_coordinate_alphabets(self, case):
        lam, alphabets = case
        cb = Codebook(construct_design(lam), alphabets)
        assert cb.max_unitarity_residual() == dense_unitarity_residual(cb)

    def test_point_on_three_coordinates_is_refused(self):
        points = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        cb = Codebook(construct_design(3), (points,) * 4)
        with pytest.raises(ValueError, match="at most two coordinates, but a point lies on 3"):
            cb.max_unitarity_residual()

    def test_design_failing_the_involution_check_is_refused(self):
        d = construct_design(3)
        w = d.weight_stack.copy()
        g0 = canonical_grouping(d).groups[0]
        w[g0[1]] = w[g0[0]]
        cb = Codebook(LinearDesign(w), construct_signal_set(3, 16))
        with pytest.raises(ValueError, match="verify_within_group_involutions"):
            cb.max_unitarity_residual()
        assert cb.within_group_involutions is False

    def test_one_involution_verdict_per_codebook(self, monkeypatch):
        calls = []
        verdict = codebook.verify_within_group_involutions

        def counted(d, grp):
            calls.append(1)
            return verdict(d, grp)

        monkeypatch.setattr(codebook, "verify_within_group_involutions", counted)
        cb = Codebook(construct_design(3), construct_signal_set(3, 256))
        cb.max_unitarity_residual()
        verify_full_diversity(cb)
        cb.max_unitarity_residual()
        assert calls == [1] and cb.within_group_involutions is True

    def test_chain_tables_past_the_memory_budget_are_refused(self, monkeypatch):
        # lam 2, 4 x 16 one-coordinate points: (64, 1) weight ids and
        # coordinates, 16 bytes a point, and one group's (16, 2) zero mask
        # and its sort, 9 bytes an entry
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 1_311)
        cb = Codebook(construct_design(2), construct_signal_set(2, 16**4))
        with pytest.raises(ValueError, match=r"Codebook\.chain_tables needs its monomial "
                                             r"tables, 0\.0 MB"):
            cb.max_unitarity_residual()
        assert "chain_tables" not in cb.__dict__
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 1_312)
        assert cb.max_unitarity_residual() == 0.0


class TestFullDiversity:
    def test_lambda2_exhaustive(self, cb16):
        rep = verify_full_diversity(cb16)
        assert rep.all_full_rank and rep.pairs_checked == 120
        assert rep.min_abs_det > 0
        assert rep.bound_holds
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
        # weights 2 and 3 swapped: the canonical grouping's groups 0 and 1
        # then hold x1I with x2Q and x1Q with x2I, which do not anticommute
        bad = LinearDesign(construct_design(2).weight_stack[[0, 1, 3, 2, 4, 5, 6, 7]])
        cb = Codebook(bad, construct_signal_set(2, 16))
        assert cb.group_decodable is False
        with pytest.raises(NotGroupDecodableError):
            verify_full_diversity(cb)
        with pytest.raises(NotGroupDecodableError):
            cb.max_unitarity_residual()
        assert "within_group_involutions" not in cb.__dict__  # the grouping is refused first

    def test_unchecked_codebook_is_checked_on_demand(self):
        cb = Codebook(construct_design(2), construct_signal_set(2, 16), check_decodable=False)
        assert "group_decodable" not in cb.__dict__
        assert verify_full_diversity(cb).all_full_rank
        assert cb.__dict__["group_decodable"] is True

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
        assert verify_full_diversity(cb_alamouti).coding_gain == pytest.approx(4.0, abs=1e-9)

    def test_repeated_codeword_gives_zero(self):
        g = np.array([[1.0, 0.0], [1.0, 0.0]])
        cb = Codebook(construct_design(2), (g, g, g, g))
        assert verify_full_diversity(cb).coding_gain == pytest.approx(0.0, abs=1e-12)

    def test_lambda2_regression_value(self, cb16):
        # frozen regression baseline, computed by exhaustive enumeration
        gain = verify_full_diversity(cb16).coding_gain
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
        oracle = sum(float(np.mean(np.sum(g * g, axis=1))) for g in cb.alphabets)
        assert average_scale(cb) == pytest.approx(oracle, abs=1e-9)
        # four unit-power groups: the mean scale is 4 regardless of lam
        assert average_scale(cb) == pytest.approx(4.0, abs=1e-9)

    def test_closed_form_path(self, cb16):
        # the group-marginal sum equals the mean over every codeword's scale
        scales = cb16.coordinate_table()[1]
        assert average_scale(cb16) == pytest.approx(float(np.mean(scales)), abs=1e-12)

    def test_single_unitary_codeword(self):
        half = math.sqrt(0.5)
        g_i, g_z = np.array([[half]]), np.array([[0.0]])
        cb = Codebook(construct_design(1), (g_i, g_i, g_z, g_z))
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
        assert cb16.M == math.prod(cb16.sizes) == 16

    def test_group_decodable_flag(self, cb16):
        assert cb16.group_decodable is True

    def test_linear_index_roundtrip(self, cb16):
        for lin in range(cb16.M):
            assert np.ravel_multi_index(cb16.unravel_index(lin), cb16.sizes) == lin

    def test_unravel_index_is_row_major_over_unequal_sizes(self):
        sizes = (2, 3, 4, 5)
        cb = Codebook(construct_design(1), [np.arange(1.0, p + 1)[:, None] for p in sizes],
                      check_decodable=False)
        for lin in range(cb.M):
            assert cb.unravel_index(lin) == tuple(np.unravel_index(lin, sizes))
        assert cb.unravel_index(np.int64(7)) == (0, 0, 1, 2)
        for bad in (-1, cb.M):
            with pytest.raises(ValueError, match="out of bounds"):
                cb.unravel_index(bad)
        with pytest.raises(TypeError):
            cb.unravel_index(1.0)


def _assert_matches_group_svd(cb):
    """The closed-form verdicts agree with one SVD per within-group difference."""
    ref = group_svd_verdict(cb)
    rep = verify_full_diversity(cb)
    assert rep.all_full_rank == ref["all_full_rank"]
    assert rep.num_rank_deficient == ref["num_rank_deficient"]
    assert rep.first_deficient_pair == ref["first_deficient_pair"]
    assert rep.min_abs_det == pytest.approx(ref["min_abs_det"], rel=1e-12, abs=0.0)
    assert rep.coding_gain == pytest.approx(ref["coding_gain"], rel=1e-12, abs=0.0)
    return rep


def _assert_matches_pair_scan(cb):
    """The per-group verdicts agree with the brute-force pair scan, and with
    one SVD per within-group difference."""
    ref = pair_scan(cb)
    rep = _assert_matches_group_svd(cb)
    assert rep.pairs_checked == ref["pairs"]
    assert rep.all_full_rank == (ref["num_rank_deficient"] == 0)
    assert rep.num_rank_deficient <= ref["num_rank_deficient"]
    assert rep.min_abs_det == pytest.approx(ref["min_abs_det"], rel=1e-9, abs=1e-12)
    assert rep.coding_gain == pytest.approx(ref["coding_gain"], rel=1e-9, abs=1e-12)
    assert (rep.coding_gain == 0.0) == (not rep.all_full_rank)
    assert rep.bound_holds == (ref["min_rel_bound_margin"] >= -1e-9)
    resid = cb.max_unitarity_residual()
    assert resid == dense_unitarity_residual(cb)
    assert (resid <= 1e-9) == (ref["max_unitarity_residual"] <= 1e-9)
    assert resid >= ref["max_unitarity_residual"] - 1e-12
    return rep


class TestPairScanOracle:
    @pytest.mark.parametrize("lam,m", [(1, 16), (1, 256), (2, 16), (2, 256),
                                       (3, 16), (3, 256), (4, 16)])
    def test_axis_family(self, lam, m):
        rep = _assert_matches_pair_scan(Codebook(construct_design(lam),
                                                 construct_signal_set(lam, m)))
        assert rep.all_full_rank and rep.bound_holds

    def test_negative_controls(self):
        same_sign = np.array([[1.0, 1.0], [-1.0, -1.0]])
        repeated = np.array([[1.0, 0.0], [1.0, 0.0]])
        d = construct_design(2)
        ab = Codebook(d, hyperbola_signal_set([1.0], 0.25, branch="AB"))
        rep = _assert_matches_pair_scan(ab)
        assert not rep.all_full_rank and rep.min_abs_det == pytest.approx(0.0, abs=1e-12)
        cb = Codebook(d, (same_sign,) * 4)
        _assert_matches_pair_scan(cb)
        assert cb.max_unitarity_residual() > UNITARITY_TOL
        cb = Codebook(d, (repeated,) * 4)
        assert _assert_matches_pair_scan(cb).coding_gain == 0.0

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


class TestGroupSvdOracle:
    """Codebooks past the pair scan's reach, against one SVD per difference."""

    @pytest.mark.parametrize("lam,alphabets", [
        (5, construct_signal_set(5, 16)),
        (6, construct_signal_set(6, 16)),
        (3, construct_signal_set(3, 256**4)),
        (2, construct_signal_set(2, 10000)),
        (3, preset_signal_set("paper-8ant-rate2")),
    ], ids=["lam5-M16", "lam6-M16", "lam3-P256", "lam2-M10000", "preset"])
    def test_unreachable_by_the_pair_scan(self, lam, alphabets):
        cb = Codebook(construct_design(lam), alphabets)
        rep = _assert_matches_group_svd(cb)
        assert rep.all_full_rank and rep.claim == "full diversity verified (exhaustive)"
        assert cb.max_unitarity_residual() == dense_unitarity_residual(cb)


class TestDiversityBlocks:
    """verify_full_diversity walks each group's pairs one row of its pair
    grid at a time."""

    @pytest.mark.parametrize("name", ["hyperbola-AB", "repeated", "lam2-M10000", "lam3-P17"])
    def test_block_size_changes_no_field(self, name):
        rng = np.random.default_rng(52)
        d2, d3 = construct_design(2), construct_design(3)
        # rank-deficient pairs scattered through the grid: points on two
        # radii in one axis direction, some of them repeated
        scattered = np.zeros((17, 4))
        scattered[:, 1] = rng.choice([-2.0, -1.0, 1.0, 2.0], 17)
        cb = {"hyperbola-AB": lambda: Codebook(d2, hyperbola_signal_set([1.0], 0.25,
                                                                        branch="AB")),
              "repeated": lambda: Codebook(d2, (np.array([[1.0, 0.0], [-1.0, 0.0],
                                                          [1.0, 0.0], [0.0, 2.0],
                                                          [0.0, 2.0]]),) * 4),
              "lam2-M10000": lambda: Codebook(d2, construct_signal_set(2, 10000)),
              "lam3-P17": lambda: Codebook(d3, (scattered,) * 4)}[name]()
        _assert_matches_group_svd(cb)

    def test_refusal_names_the_first_wide_difference_in_any_block(self):
        # points 1 and 2 differ on three coordinates, the first such pair in
        # triu_indices order: row 1 of the pair grid
        points = np.zeros((6, 4))
        points[:, 0] = np.arange(6)
        points[1, 1] = points[2, 2] = 1.0
        cb = Codebook(construct_design(3), (points,) * 4)
        with pytest.raises(ValueError, match="group 0's points 1 and 2 differ on 3"):
            verify_full_diversity(cb)

    def test_memory_is_checked_per_block(self, monkeypatch):
        # lam 2, P = 2048: the whole group's 2 096 128 differences would take
        # 184 MB; the first row of the grid, 2 047 pairs at 88 B a pair, is
        # checked once, for the one alphabet the four groups share
        counted = []
        monkeypatch.setattr(codebook, "check_memory",
                            lambda need, nbytes: counted.append((need, nbytes)))
        cb = Codebook(construct_design(2), construct_signal_set(2, 2048**4))
        counted.clear()
        verify_full_diversity(cb)
        assert counted == [("verify_full_diversity needs a row of group 0's within-group "
                            "differences", 2047 * 88)]


class TestSharedAlphabets:
    """A codebook keeps one copy per distinct input array, and
    verify_full_diversity walks each copy once; the verdicts are those of
    four distinct copies and of one SVD per within-group difference."""

    @pytest.mark.parametrize("lam, points", [
        (2, construct_signal_set(2, 256)[0]),
        (3, construct_signal_set(3, 256)[0]),
        (2, hyperbola_signal_set([1.0], 0.25, branch="AB")[0]),
        (2, np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 2.0]])),
    ], ids=["lam2-P4", "lam3-P4", "hyperbola-AB", "repeated"])
    def test_one_object_and_four_copies_agree(self, lam, points):
        shared = Codebook(construct_design(lam), (points,) * 4)
        copies = Codebook(construct_design(lam), [points.copy() for _ in range(4)])
        assert len({id(a) for a in shared.alphabets}) == 1
        assert len({id(a) for a in copies.alphabets}) == 4
        assert vars(_assert_matches_group_svd(shared)) == vars(_assert_matches_group_svd(copies))

    @pytest.mark.parametrize("order", ["AB-A-AB-A", "A-AB-A-AB"])
    def test_mixed_hyperbola_set_counts_both_deficient_groups(self, order):
        # the AB branch has 4 singular point pairs; the A branch has none
        ab = hyperbola_signal_set([1.0], 0.25, branch="AB")[0]
        a = hyperbola_signal_set([1.0], 0.25)[0]
        first = 0 if order == "AB-A-AB-A" else 1
        cb = Codebook(construct_design(2), (ab, a, ab, a) if first == 0 else (a, ab, a, ab))
        assert len({id(x) for x in cb.alphabets}) == 2
        rep = _assert_matches_group_svd(cb)
        assert rep.num_rank_deficient == 4 * (cb.M // 4) * 2 == 128
        i, j = rep.first_deficient_pair
        assert [k for k in range(4) if i[k] != j[k]] == [first]

    def test_signal_sets_share_their_alphabets(self):
        for lam, sset, distinct in ((2, construct_signal_set(2, 256), 1),
                                    (3, preset_signal_set("paper-8ant-rate2"), 1),
                                    (2, hyperbola_signal_set([1.0], 0.25), 2),
                                    (2, hyperbola_signal_set([1.0], 0.25, branch="AB"), 2)):
            cb = Codebook(construct_design(lam), sset)
            assert len({id(a) for a in cb.alphabets}) == distinct
        cfg = SimConfig(lam=2, m=256, family="hyperbola", frames=1)
        assert len({id(a) for a in build_codebook(cfg).alphabets}) == 2


class TestClosedFormRefusals:
    def test_design_failing_the_involution_check_is_refused(self):
        # group 0's second weight repeats its first: A_0^H A_2 = I, Hermitian
        # with trace n, so a difference on those two coordinates is no longer
        # lo = ||d_0| - |d_2||, hi = |d_0| + |d_2| n/2 times each
        d = construct_design(3)
        w = d.weight_stack.copy()
        g0 = canonical_grouping(d).groups[0]
        w[g0[1]] = w[g0[0]]
        bad = LinearDesign(w)
        grouping = canonical_grouping(bad)
        assert verify_group_decodable(bad, grouping)
        assert not verify_within_group_involutions(bad, grouping)
        cb = Codebook(bad, construct_signal_set(3, 16**4))
        with pytest.raises(ValueError, match="verify_within_group_involutions"):
            verify_full_diversity(cb)

    def test_difference_on_more_than_two_coordinates_is_refused(self):
        points = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        cb = Codebook(construct_design(3), (points,) * 4)
        with pytest.raises(ValueError, match="group 0's points 0 and 1 differ on 4"):
            verify_full_diversity(cb)
