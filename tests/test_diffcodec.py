import math
import tracemalloc

import numpy as np
import pytest

from gdstbc import codebook, diffcodec
from gdstbc._kernels import FactoredTable, metric_scan
from gdstbc.codebook import Codebook, Codeword, NotGroupDecodableError
from gdstbc.design import LinearDesign, construct_design
from gdstbc.diffcodec import (
    ChannelConfig,
    block_bytes,
    channel_step,
    correlate,
    decide_exhaustive,
    decide_group,
    decode_exhaustive,
    decode_group,
    draw_channel,
    encoder_init,
    encoder_step,
    estimate_scale,
    window_blocks,
    window_frames,
    window_size,
)
from gdstbc.signalset import construct_signal_set
from gdstbc.sim import SimConfig, build_codebook

from oracles import brute_force_decode, noisy_window, random_window


@pytest.fixture(scope="module")
def cb16():
    return Codebook(construct_design(2), construct_signal_set(2, 16))


def _codeword(matrix, scale_sq):
    return Codeword(matrix=np.asarray(matrix, dtype=complex), scale_sq=scale_sq,
                    index=(0, 0, 0, 0))


class TestEncoder:
    @pytest.mark.parametrize("n", [2, 4])
    def test_init(self, n):
        st = encoder_init(n)
        assert np.array_equal(st.x_prev, np.eye(n))
        assert st.a_prev_sq == 1.0
        gram = st.x_prev.conj().T @ st.x_prev
        assert np.allclose(gram, st.a_prev_sq * np.eye(n), atol=1e-9)

    def test_scaled_identity_step(self):
        st = encoder_init(2)
        st1, x1 = encoder_step(st, _codeword(2 * np.eye(2), 4.0))
        assert np.allclose(x1, 2 * np.eye(2), atol=1e-12)
        assert st1.a_prev_sq == 4.0

    def test_scale_chain_is_bounded(self):
        # two steps with the same scaled codeword cancel: X2 = (1/2)*2I*2I = 2I
        st = encoder_init(2)
        u = _codeword(2 * np.eye(2), 4.0)
        st, x1 = encoder_step(st, u)
        st, x2 = encoder_step(st, u)
        assert np.allclose(x2, 2 * np.eye(2), atol=1e-12)

    def test_unitary_codewords_keep_chain_unitary(self):
        rng = np.random.default_rng(0)
        st = encoder_init(2)
        for _ in range(20):
            # random unitary Alamouti point
            phase1, phase2 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            x1, x2 = phase1 / math.sqrt(2), phase2 / math.sqrt(2)
            u = np.array([[x1, -np.conj(x2)], [x2, np.conj(x1)]])
            st, x_t = encoder_step(st, _codeword(u, 1.0))
            assert np.allclose(x_t.conj().T @ x_t, np.eye(2), atol=1e-9)

    def test_power_stability_long_chain(self, cb16):
        rng = np.random.default_rng(1)
        st = encoder_init(4)
        for _ in range(10**4):
            idx = tuple(int(v) for v in rng.integers(0, 2, 4))
            u = cb16.codeword_at(idx)
            st, x_t = encoder_step(st, u)
            # scale_sq is constant 4 over this codebook: no drift allowed
        assert float(np.linalg.norm(x_t) ** 2) == pytest.approx(4 * u.scale_sq, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            encoder_step(encoder_init(2), _codeword(np.eye(3), 1.0))


class TestChannel:
    def test_noiseless_is_exact(self):
        cfg = ChannelConfig(n_r=2, noise_var=0.0, seed=1)
        x = np.arange(4, dtype=complex).reshape(2, 2)
        h = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        assert np.array_equal(channel_step(cfg, x, h), x @ h)

    def test_noise_variance(self):
        cfg = ChannelConfig(n_r=1, noise_var=0.8, seed=2)
        x = np.zeros((1, 1), dtype=complex)
        h = np.zeros((1, 1), dtype=complex)
        draws = np.array([channel_step(cfg, x, h)[0, 0] for _ in range(10**5)])
        measured = float(np.mean(np.abs(draws) ** 2))
        assert abs(measured - 0.8) / 0.8 < 0.02

    def test_seed_determinism(self):
        x = np.eye(2, dtype=complex)
        h = np.ones((2, 1), dtype=complex)
        r1 = channel_step(ChannelConfig(noise_var=1.0, seed=5), x, h)
        r2 = channel_step(ChannelConfig(noise_var=1.0, seed=5), x, h)
        assert np.array_equal(r1, r2)

    def test_channel_draw_statistics(self):
        cfg = ChannelConfig(n_r=4, noise_var=1.0, seed=3)
        h = draw_channel(cfg, 64)
        assert h.shape == (64, 4)
        assert abs(float(np.mean(np.abs(h) ** 2)) - 1.0) < 0.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(n_r=0)
        with pytest.raises(ValueError):
            ChannelConfig(noise_var=-1.0)

    def test_mismatched_channel(self):
        cfg = ChannelConfig()
        with pytest.raises(ValueError):
            channel_step(cfg, np.eye(2, dtype=complex), np.ones((3, 1), dtype=complex))


class TestExhaustiveDecoder:
    def test_noiseless_roundtrip(self, cb16):
        rng = np.random.default_rng(4)
        h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / math.sqrt(2)
        st = encoder_init(4)
        r_prev = st.x_prev @ h
        a = st.a_prev_sq
        for _ in range(10):
            idx = tuple(int(v) for v in rng.integers(0, 2, 4))
            st, x_t = encoder_step(st, cb16.codeword_at(idx))
            r_t = x_t @ h
            res = decode_exhaustive(cb16, r_t, r_prev, a)
            assert res.index == idx
            assert res.evaluations == 16
            a = estimate_scale(cb16.codeword_at(res.index))
            r_prev = r_t

    def test_matches_straight_line_oracle(self, cb16):
        rng = np.random.default_rng(5)
        for _ in range(200):
            r_t, r_prev, a_sq, _ = random_window(cb16, rng)
            res = decode_exhaustive(cb16, r_t, r_prev, a_sq)
            oi, om = brute_force_decode(cb16.matrices, r_t, r_prev, a_sq)
            assert res.index == cb16.unravel_index(oi)
            assert res.metric == pytest.approx(om, rel=1e-10)

    def test_refuses_a_stack_past_the_memory_budget(self, monkeypatch):
        # lam 2, M 4096: the (M, 4, 4) stack takes 1.0 MB
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 10**5)
        cb = build_codebook(SimConfig(lam=2, m=4096))
        r = np.ones((4, 1), dtype=complex)
        with pytest.raises(ValueError, match=r"decode_exhaustive needs Codebook\.matrices, "
                                             r"1\.0 MB, but only 0\.1 MB"):
            decode_exhaustive(cb, r, r, 1.0)
        assert "matrices" not in cb.__dict__
        assert decode_group(cb, r, r, 1.0).evaluations == 32

    def test_all_zero_tie_break(self, cb16):
        z = np.zeros((4, 1), dtype=complex)
        res = decode_exhaustive(cb16, z, z, 1.0)
        assert res.index == (0, 0, 0, 0)
        assert res.metric == 0.0


class TestScaledUnitaryExhaustiveScan:
    """The simulator's deciders (``metric_scan``'s coordinate form, against
    each window's correlation) against ``decode_exhaustive``, the literal
    stack scan."""

    #: name: (codebook config, windows); 10 700 windows in all
    CODEBOOKS = {
        "lam1-M16": (dict(lam=1, m=16), 2500),
        "lam2-M256": (dict(lam=2, m=256), 2500),
        "lam3-M256": (dict(lam=3, m=256), 2000),
        "lam3-M4096": (dict(lam=3, m=4096), 800),
        "lam4-M256": (dict(lam=4, m=256), 1500),
        "lam4-M4096": (dict(lam=4, m=4096), 200),
        "hyperbola": (dict(lam=2, m=256, family="hyperbola"), 1000),
        "preset": (dict(lam=3, m=16**4, preset="paper-8ant-rate2"), 200),
    }

    def _check(self, name, limit, monkeypatch):
        config, windows = self.CODEBOOKS[name]
        monkeypatch.setattr(codebook, "TABLE_SCAN_BYTES", limit)
        cb = build_codebook(SimConfig(**config))
        rng = np.random.default_rng([config["lam"], config["m"]])
        for w in range(windows):
            # every SNR meets every receive-antenna count (5 and 3 are coprime)
            snr_db = (math.inf, 40.0, 20.0, 10.0, 0.0)[w % 5]
            sigma = math.sqrt(cb.n / 10 ** (snr_db / 10) / 2)  # the simulator's convention
            r_t, r_prev, a_sq = noisy_window(cb, rng, sigma, 1 + w % 3)
            if w % 50 == 7:
                r_prev = np.zeros_like(r_prev)  # every candidate ties: index 0 wins
            want = decode_exhaustive(cb, r_t, r_prev, a_sq).index
            scale = cb.codeword_at(want).scale_sq
            for decide in (decide_group, decide_exhaustive):
                hats, a = decide(cb, *correlate(cb, r_t[None], r_prev), a_sq)
                assert (tuple(hats), a) == (want, scale)
            if w % 50 == 7:
                assert want == (0, 0, 0, 0)
        factored = isinstance(cb.__dict__["exhaustive_table"][0], FactoredTable)
        assert factored == (limit == 0)

    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_decisions_equal_decode_exhaustive(self, name, monkeypatch):
        # the coordinate table, forced at every size
        self._check(name, math.inf, monkeypatch)

    @pytest.mark.parametrize("name", sorted(CODEBOOKS))
    def test_factored_decisions_equal_decode_exhaustive(self, name, monkeypatch):
        # the factored scan, forced at sizes below TABLE_SCAN_BYTES
        self._check(name, 0, monkeypatch)

    @pytest.mark.parametrize("n_r", [1, 2, 3])
    def test_window_decisions_follow_the_table_size(self, n_r, monkeypatch):
        # decide_exhaustive takes the factored scan above TABLE_SCAN_BYTES, one
        # call of M candidates per frame either way, and decides every frame
        # of a window as decode_exhaustive does
        calls = []

        def scan(*args):
            calls.append((type(args[0]), args[0].shape))
            return metric_scan(*args)

        monkeypatch.setattr(diffcodec, "metric_scan", scan)
        for limit, form in ((0, FactoredTable), (math.inf, np.ndarray)):
            monkeypatch.setattr(codebook, "TABLE_SCAN_BYTES", limit)
            cb = build_codebook(SimConfig(lam=2, m=256))
            for snr_db in (math.inf, 40.0, 20.0, 10.0, 0.0):
                sigma = math.sqrt(cb.n / 10 ** (snr_db / 10) / 2)
                rng = np.random.default_rng([n_r, int(min(snr_db, 99))])
                a_ref = a = 1.0
                for _, (r_prev,), (r,) in window_frames(cb, [rng], 40, n_r, sigma):
                    calls.clear()
                    hats, a = decide_exhaustive(cb, *correlate(cb, r, r_prev), a)
                    assert calls == [(form, (cb.M, 4, 2))] * len(r)
                    for t, r_t in enumerate(r):
                        res = decode_exhaustive(cb, r_t, r_prev, a_ref)
                        assert tuple(hats[4 * t:4 * t + 4]) == res.index
                        a_ref, r_prev = cb.codeword_at(res.index).scale_sq, r_t
                    assert a == a_ref
            # what the scan reads is cached once, in the form the table's size selects
            assert type(cb.__dict__["exhaustive_table"][0]) is form


class TestCorrelate:
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_matches_the_trace_definition(self, lam, n_r):
        cb = build_codebook(SimConfig(lam=lam, m=16))
        assert cb.basis_taps[0].shape == (cb.design.K, cb.n)  # n taps per weight
        rng = np.random.default_rng([lam, n_r])
        frames = rng.standard_normal((6, cb.n, n_r, 2)).view(np.complex128)[..., 0]
        r_prev, r = frames[0], frames[1:]
        g, energy = diffcodec.correlate(cb, r, r_prev)
        for t, r_t in enumerate(r):
            prev = frames[t]
            want = [np.trace(r_t.conj().T @ a @ prev).real for a in cb.basis]
            assert np.allclose(g[t], want, rtol=0, atol=1e-12 * cb.n * n_r)
            assert energy[t] == pytest.approx(np.vdot(prev, prev).real, rel=1e-15)
        # strided views give the same rows, and the window's first frame may
        # follow a zero frame
        g_view, _ = diffcodec.correlate(cb, r[:, ::-1][:, ::-1], np.asfortranarray(r_prev))
        assert np.array_equal(g_view, g)
        g0, energy0 = diffcodec.correlate(cb, r, np.zeros_like(r_prev))
        assert energy0[0] == 0.0 and not g0[0].any()
        assert diffcodec.fold(g0[0], energy0[0], 2.0) is None


class TestBlockBytes:
    @pytest.mark.parametrize("cfg, nf, n_r, blocks", [
        (dict(lam=2, m=16), 300, 3, 1), (dict(lam=1, m=16), 20, 50, 4),
        (dict(lam=4, m=256), 40, 1, 3), (dict(lam=3, m=4096), 600, 2, 1),
        (dict(lam=2, m=16), 5, 1000, 1), (dict(lam=2, m=16), 9, 1, 28),
        (dict(lam=4, m=256), 9, 1, 14), (dict(lam=2, m=256, family="hyperbola"), 4, 2, 64),
        (dict(lam=1, m=16), 1, 1, 256), (dict(lam=6, m=16), 9, 1, 1),
        (dict(lam=5, m=16), 3, 2, 10),
    ])
    def test_bounds_a_window_and_its_decisions(self, cfg, nf, n_r, blocks):
        # what the window pass over window_blocks generators, a window's
        # correlation and both deciders on every block of it hold at once,
        # traced, stays within the count sim.prepare checks against the
        # memory available; sim._run_blocks correlates each window once, holds
        # the result while every decoder runs and compares the decisions
        cb = build_codebook(SimConfig(**cfg))
        assert window_blocks(cb, nf, n_r) == blocks
        assert blocks == 1 or blocks * nf <= window_size(cb, n_r) < (blocks + 1) * nf
        cb.exhaustive_table, cb.basis_taps, cb.chain_tables  # noqa: B018  (built before the sweep)
        np.random.default_rng([0])  # the first one imports numpy.random's pickling helpers
        tracemalloc.start()
        try:
            rngs = [np.random.default_rng([nf, n_r, b]) for b in range(blocks)]
            for sent, r_prev, r in window_frames(cb, rngs, nf, n_r, 0.3):
                g, energy = correlate(cb, r, r_prev)
                for decide in (decide_group, decide_exhaustive):
                    hats = []
                    for g_b, energy_b in zip(g, energy):
                        hats += decide(cb, g_b, energy_b, 1.0)[0]
                    errs = np.reshape(hats, (*sent.shape[1:], 4)).transpose(2, 0, 1) ^ sent
                    np.count_nonzero(errs.any(axis=0)), np.bitwise_count(errs).sum()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block_bytes(cb, nf, n_r)

    def test_bounds_the_index_draw_of_a_whole_burst(self):
        # a whole-burst block draws all its group indices before its first
        # window, and holds each generator's draw and their stacked copy at once
        cb = build_codebook(SimConfig(lam=2, m=16))
        nf = 10**5
        cb.basis_taps, cb.chain_tables  # noqa: B018  (built before the sweep)
        np.random.default_rng([0])  # the first one imports numpy.random's pickling helpers
        tracemalloc.start()
        try:
            next(window_frames(cb, [np.random.default_rng(nf)], nf, 1, 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= block_bytes(cb, nf, 1)

    def test_windows_stay_under_the_byte_cap(self):
        # no per-frame array of a window passes WINDOW_BYTES: the n x n
        # correlation product sets 8 frames at lam 6 and 32 at lam 5, the
        # gather of 4 terms of n x n_r a frame 2 at lam 2 with 1000 antennas
        for lam, n_r, frames in ((6, 1, 8), (5, 1, 32), (4, 1, 128), (3, 1, 256),
                                 (2, 1000, 2), (6, 10**6, 1)):
            cb = build_codebook(SimConfig(lam=lam, m=16))
            assert window_size(cb, n_r) == frames
            assert window_blocks(cb, 9, n_r) == max(1, frames // 9)


class TestIndexDraw:
    """A block's four group-index rows: one scalar bound when the groups'
    sizes are equal, one bound per row otherwise."""

    @pytest.mark.parametrize("size", [2, 3, 10, 16, 1000, 65536, 2**31 + 1, 2**40])
    @pytest.mark.parametrize("nf", [1, 9, 100, 256])
    def test_one_bound_draws_as_four(self, size, nf):
        # same values, same dtype, same generator state after the draw
        one, four = (np.random.default_rng([size, nf]) for _ in range(2))
        got = one.integers(0, size, (4, nf))
        want = four.integers(0, np.full((4, 1), size), (4, nf))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert one.bit_generator.state == four.bit_generator.state

    @pytest.mark.parametrize("sizes", [(4, 4, 4, 4), (2, 4, 6, 3)])
    def test_sent_indices_are_each_groups_draws(self, sizes):
        # after the channel, group k's nf indices in turn, as row k of the
        # window's (4, 1, nf) indices: the per-group draws the oracle replays
        axis = np.array([[1.0, 0.0], [-1.0, 0.0]])
        cb = Codebook(construct_design(2), [axis[np.arange(p) % 2] for p in sizes])
        nf = 12
        (sent, _, _), = window_frames(cb, [np.random.default_rng(51)], nf, 1, 0.0)
        rng = np.random.default_rng(51)
        rng.standard_normal((cb.n, 1, 2))
        idx = [rng.integers(0, p, nf) for p in sizes]
        assert sent.shape == (4, 1, nf)
        assert sent[:, 0].tolist() == [i.tolist() for i in idx]


class TestGroupDecoder:
    def test_noiseless_roundtrip(self, cb16):
        rng = np.random.default_rng(6)
        h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))) / math.sqrt(2)
        st = encoder_init(4)
        r_prev = st.x_prev @ h
        idx = (1, 1, 0, 1)
        st, x_t = encoder_step(st, cb16.codeword_at(idx))
        res = decode_group(cb16, x_t @ h, r_prev, 1.0)
        assert res.index == idx

    def test_evaluation_count(self, cb16):
        z = np.zeros((4, 1), dtype=complex)
        res = decode_group(cb16, z, z, 1.0)
        assert res.evaluations == sum(cb16.sizes) == 8
        assert res.index == (0, 0, 0, 0)

    def test_matches_exhaustive_on_noisy_windows(self, cb16):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            r_t, r_prev, a_sq, _ = random_window(cb16, rng)
            ge = decode_exhaustive(cb16, r_t, r_prev, a_sq)
            gg = decode_group(cb16, r_t, r_prev, a_sq)
            assert ge.index == gg.index
            assert gg.metric == pytest.approx(ge.metric, rel=1e-9)

    def test_matches_exhaustive_lambda3(self):
        cb = Codebook(construct_design(3), construct_signal_set(3, 256))
        rng = np.random.default_rng(8)
        for _ in range(300):
            r_t, r_prev, a_sq, _ = random_window(cb, rng)
            assert decode_exhaustive(cb, r_t, r_prev, a_sq).index == \
                decode_group(cb, r_t, r_prev, a_sq).index

    def test_matches_direct_per_group_scans(self):
        # each group's winner minimises || r_t - inv_a S_k(p) r_prev ||^2 over
        # its partial codewords, as the direct scan of all of them finds it
        cb = Codebook(construct_design(3), construct_signal_set(3, 256))
        rng = np.random.default_rng(11)
        for _ in range(200):
            r_t, r_prev, a_sq, _ = random_window(cb, rng)
            inv_a = 1.0 / math.sqrt(a_sq)
            per_group = tuple(metric_scan(cb.partials(k), r_prev, r_t, inv_a)[0]
                              for k in range(4))
            assert decode_group(cb, r_t, r_prev, a_sq).index == per_group

    def test_is_decide_group_on_one_frame(self, monkeypatch):
        calls = []
        decide = diffcodec.decide_group

        def counted(cb, g, energy, a_prev_sq):
            calls.append((g.shape, len(energy)))
            return decide(cb, g, energy, a_prev_sq)

        monkeypatch.setattr(diffcodec, "decide_group", counted)
        cb = Codebook(construct_design(2), construct_signal_set(2, 256))
        r_t, r_prev, a_sq, _ = random_window(cb, np.random.default_rng(12))
        res = decode_group(cb, r_t, r_prev, a_sq)
        assert calls == [((1, cb.design.K), 1)]
        assert res.index == decode_exhaustive(cb, r_t, r_prev, a_sq).index

    def test_refuses_non_scaled_unitary_codebook(self):
        # x1I*x2I = +1 and x1Q*x2Q = +1: group decodable, not scaled unitary
        same_sign = np.array([[1.0, 1.0], [-1.0, -1.0]])
        cb = Codebook(construct_design(2), (same_sign,) * 4)
        z = np.ones((4, 1), dtype=complex)
        with pytest.raises(ValueError, match="needs scaled-unitary codewords"):
            decode_group(cb, z, z, 1.0)

    def test_refuses_non_decodable_codebook(self):
        cb = Codebook(_swapped_design(), construct_signal_set(2, 16))
        assert cb.group_decodable is False
        z = np.zeros((4, 1), dtype=complex)
        with pytest.raises(NotGroupDecodableError):
            decode_group(cb, z, z, 1.0)
        # the exhaustive decoder does not care about the grouping
        assert decode_exhaustive(cb, z, z, 1.0).index == (0, 0, 0, 0)

    def test_unchecked_codebook_is_checked_on_demand(self):
        cb = Codebook(construct_design(2), construct_signal_set(2, 16),
                      check_decodable=False)
        assert "group_decodable" not in cb.__dict__
        rng = np.random.default_rng(10)
        for _ in range(200):
            r_t, r_prev, a_sq, _ = random_window(cb, rng)
            assert decode_group(cb, r_t, r_prev, a_sq).index == \
                decode_exhaustive(cb, r_t, r_prev, a_sq).index
        assert cb.__dict__["group_decodable"] is True

    def test_unchecked_failing_grouping_refused(self):
        cb = Codebook(_swapped_design(), construct_signal_set(2, 16), check_decodable=False)
        z = np.zeros((4, 1), dtype=complex)
        with pytest.raises(NotGroupDecodableError):
            decode_group(cb, z, z, 1.0)
        assert cb.__dict__["group_decodable"] is False


def _swapped_design():
    """construct_design(2) with weights 2 and 3 swapped: its canonical
    grouping pairs x1I with x2Q and x1Q with x2I, which do not anticommute."""
    return LinearDesign(construct_design(2).weight_stack[[0, 1, 3, 2, 4, 5, 6, 7]])


class TestMetricDecomposition:
    def test_full_metric_equals_group_sum(self, cb16):
        # || R_t - S(X) R_prev / a ||^2 == sum_k groupmetric_k - 3 ||R_t||^2
        rng = np.random.default_rng(9)
        for _ in range(100):
            r_t, r_prev, a_sq, _ = random_window(cb16, rng)
            idx = tuple(int(v) for v in rng.integers(0, 2, 4))
            inv_a = 1.0 / math.sqrt(a_sq)
            u = cb16.codeword_at(idx).matrix
            full = float(np.linalg.norm(r_t - inv_a * (u @ r_prev)) ** 2)
            parts = [float(np.linalg.norm(r_t - inv_a * (cb16.partials(k, i) @ r_prev)) ** 2)
                     for k, i in enumerate(idx)]
            recombined = sum(parts) - 3 * float(np.linalg.norm(r_t) ** 2)
            assert recombined == pytest.approx(full, rel=1e-6)


class TestScaleTracking:
    def test_estimate_scale_passthrough(self):
        assert estimate_scale(_codeword(2 * np.eye(2), 4.0)) == 4.0

    def test_decision_directed_track_matches_encoder(self):
        # correct decisions reproduce the encoder's scale sequence exactly
        cb = Codebook(construct_design(2), construct_signal_set(2, 256))
        rng = np.random.default_rng(10)
        h = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / math.sqrt(2)
        st = encoder_init(4)
        r_prev = st.x_prev @ h
        a_dec = 1.0
        for _ in range(20):
            idx = tuple(int(v) for v in rng.integers(0, 4, 4))
            u = cb.codeword_at(idx)
            st, x_t = encoder_step(st, u)
            r_t = x_t @ h
            res = decode_group(cb, r_t, r_prev, a_dec)
            assert res.index == idx
            a_dec = estimate_scale(cb.codeword_at(res.index))
            assert a_dec == st.a_prev_sq
            r_prev = r_t
