import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gdstbc import codebook, diffcodec, sim
from gdstbc._kernels import FactoredTable, blas_threads, set_blas_threads
from gdstbc.codebook import UNITARITY_TOL, Codebook, NotGroupDecodableError
from gdstbc.design import MAX_LAMBDA, LinearDesign, construct_design
from gdstbc.diffcodec import (
    ChannelConfig,
    channel_step,
    decode_exhaustive,
    draw_channel,
    encoder_init,
    encoder_step,
    estimate_scale,
)
from gdstbc.signalset import construct_signal_set
from gdstbc.sim import (
    CSV_HEADER,
    SimConfig,
    bit_mapping,
    build_codebook,
    noise_var_for_snr,
    run_sim,
)

from oracles import replay_y_chain


def _cfg(**kw):
    base = dict(lam=2, m=16, snr_db=(6.0,), frames=400, coherence=5, seed=11)
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(autouse=True)
def _fresh_codebook_cache():
    """No test sees a codebook, or a residual memoised on one, that another
    test cached (possibly under monkeypatch)."""
    sim._codebook.cache_clear()
    yield
    sim._codebook.cache_clear()


def _peak_kb(code):
    """Peak resident memory (VmHWM, kB) of a fresh interpreter running ``code``
    after ``from gdstbc.sim import SimConfig, run_sim``."""
    code = (
        "from gdstbc.sim import SimConfig, run_sim\n" + code +
        # the peak RSS of this process image: ru_maxrss would also count
        # the test process it was forked from
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    src = Path(sim.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split()[-1])


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


class TestBitMapping:
    def test_two_bit_groups(self):
        assert bit_mapping((1, 0, 1, 0), (2, 2, 2, 2)) == [1, 0, 1, 0]

    def test_sixteen_point_groups(self):
        bits = bit_mapping((0, 0, 0, 0), (16, 16, 16, 16))
        assert bits == [0] * 16  # 16 bits over 8 uses: 2 bits per channel use

    def test_msb_first(self):
        assert bit_mapping((5,), (8,)) == [1, 0, 1]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            bit_mapping((0, 0, 0, 0), (6, 6, 6, 6))

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (16, 16, 16, 16), (2, 4, 8, 16)])
    def test_xor_of_group_indices_counts_bit_errors(self, sizes):
        # the simulator counts bit errors as the sum over the four groups of
        # bitwise_count(tx_k ^ rx_k)
        rng = np.random.default_rng(sum(sizes))
        for _ in range(500):
            tx, rx = (tuple(int(rng.integers(0, s)) for s in sizes) for _ in range(2))
            hamming = sum(a != b for a, b in zip(bit_mapping(tx, sizes), bit_mapping(rx, sizes)))
            assert np.bitwise_count(np.array(tx) ^ np.array(rx)).sum() == hamming


class TestNoiseVar:
    def test_snr_convention(self):
        # snr_db = 10*log10(n / noise_var)
        assert noise_var_for_snr(0.0, 4) == pytest.approx(4.0)
        assert noise_var_for_snr(10.0, 4) == pytest.approx(0.4)
        assert noise_var_for_snr(math.inf, 4) == 0.0


class TestRunSim:
    def test_noiseless_has_zero_errors(self):
        res = run_sim(_cfg(snr_db=(math.inf,), frames=300, decoder="both"))
        for p in res.points:
            assert p.frame_errors == 0 and p.bler == 0.0
            assert p.bit_errors == 0 and p.ber == 0.0
            assert p.frames == 300

    def test_determinism(self):
        a = run_sim(_cfg(decoder="both"))
        b = run_sim(_cfg(decoder="both"))
        assert a.to_csv() == b.to_csv()

    def test_worker_count_does_not_change_results(self):
        a = run_sim(_cfg(frames=600))
        b = run_sim(_cfg(frames=600, workers=2))
        assert a.to_csv() == b.to_csv()

    def test_worker_count_invariant_with_exhaustive_decoder(self):
        cfg = SimConfig(lam=3, m=256, snr_db=(8.0, 14.0), frames=300, coherence=10,
                        decoder="both", seed=5)
        a = run_sim(cfg)
        b = run_sim(SimConfig(**{**cfg.__dict__, "workers": 2}))
        assert a.to_csv() == b.to_csv()

    def test_pool_workers_run_blas_single_threaded(self, monkeypatch):
        if blas_threads() is None:
            pytest.skip("no loaded OpenBLAS with a thread-count entry point")
        chunks = multiprocessing.Value("i", 0)
        single = multiprocessing.Value("i", 0)  # chunks run with one BLAS thread
        run_blocks = sim._run_blocks

        def recorded(*args):
            with chunks.get_lock():
                chunks.value += 1
                single.value += blas_threads() == 1
            return run_blocks(*args)

        monkeypatch.setattr(sim, "_run_blocks", recorded)
        before = blas_threads()
        set_blas_threads(2)  # so that a worker keeping the caller's count shows
        try:
            run_sim(_cfg(frames=600, workers=2))  # forked workers inherit the patch
            assert blas_threads() == 2  # the calling process keeps its threads
        finally:
            set_blas_threads(before)
        assert chunks.value > 0 and single.value == chunks.value

    def test_setting_blas_threads_leaves_no_pool_thread(self):
        # setting the count starts OpenBLAS's pool, whose new threads spin
        # for about 0.1 s of CPU: a worker on a busy core must not pay that
        if blas_threads() is None:
            pytest.skip("no loaded OpenBLAS with a thread-count entry point")
        before = blas_threads()
        try:
            for count in (2, 1):
                set_blas_threads(count)
                assert len(os.listdir("/proc/self/task")) == threading.active_count()
        finally:
            set_blas_threads(before)

    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        sizes = []

        class Started(Exception):
            pass

        def start_none(cb, cfg, bounds, count):
            sizes.append(count)
            raise Started  # forks nothing

        monkeypatch.setattr(sim, "_Workers", start_none)
        # 600 one-frame blocks in chunks of one window, 256 blocks: 3 chunks a
        # point; 256 * 600 of them in chunks of ceil(153600 / 256) = 600: 256
        for frames, chunks in ((600, 3), (256 * 600, 256)):
            with pytest.raises(Started):
                run_sim(_cfg(frames=frames, coherence=2, workers=100_000))
            assert sizes.pop() == chunks
        # a whole-burst run is a single chunk, so it needs no workers at all
        run_sim(_cfg(frames=50, coherence=None, workers=4))
        assert sizes == []

    def test_early_stops_across_points_are_worker_invariant(self):
        # several points, some stopped early and some run in full: workers
        # claim tickets across point boundaries, and the CSV cannot tell
        cfg = _cfg(snr_db=(0.0, 6.0, 12.0, 18.0), frames=3000, target_errors=40,
                   decoder="both")
        serial = run_sim(cfg)
        frames = [p.frames for p in serial.points]
        assert min(frames) < cfg.frames and max(frames) == cfg.frames
        assert run_sim(replace(cfg, workers=3)).to_csv() == serial.to_csv()

    def test_every_chunk_runs_once_under_contention(self, monkeypatch):
        # more workers than cores race for 768 tickets of near-empty chunks:
        # a lost update to the shared counter would run one chunk twice and
        # another never
        cfg = _cfg(snr_db=(0.0, 6.0, 12.0), frames=256 * 256, coherence=2, workers=6)
        runs = multiprocessing.Array("i", 768)  # by ticket: 256 chunks of 256 blocks a point

        def counted(cb, cfg, snr_idx, lo, hi, stopped):
            with runs.get_lock():
                runs[snr_idx * 256 + lo // 256] += 1
            return {"group": Counter(frames=hi - lo)}

        monkeypatch.setattr(sim, "_run_blocks", counted)
        assert [p.frames for p in run_sim(cfg).points] == [256 * 256] * 3
        assert list(runs) == [1] * 768

    def test_early_stopped_pooled_sweep_prints_nothing(self, capfd):
        res = run_sim(_cfg(snr_db=(0.0, 6.0), frames=20000, target_errors=50, workers=2))
        assert res.points[0].frames < 20000
        assert capfd.readouterr().err == ""

    def test_worker_error_reaches_the_caller(self, monkeypatch, capfd):
        chunks = multiprocessing.Value("i", 0)  # chunks started, in every process
        run_blocks = sim._run_blocks

        def failing(cb, cfg, snr_idx, lo, hi, stopped):
            with chunks.get_lock():
                chunks.value += 1
            if (snr_idx, lo) == (0, 128):
                raise ValueError("chunk 128 failed")
            return run_blocks(cb, cfg, snr_idx, lo, hi, stopped)

        monkeypatch.setattr(sim, "_run_blocks", failing)
        # 3 points of 16 000 4-frame blocks in 250 chunks of one window, 64
        # blocks; the error comes in the third chunk
        cfg = _cfg(snr_db=(0.0, 6.0, 12.0), frames=64_000, workers=2)
        with pytest.raises(ValueError, match="^chunk 128 failed$"):
            run_sim(cfg)
        # the sweep of 750 chunks ends soon after the error
        assert chunks.value < 250, f"{chunks.value} chunks started"
        assert capfd.readouterr().err == ""

    def test_failed_start_closes_the_workers_already_forked(self, monkeypatch):
        fork = multiprocessing.get_context("fork").Process
        started = []
        start = fork.start

        def second_fails(proc):
            if started:
                raise OSError("fork failed")
            start(proc)
            started.append(proc)

        monkeypatch.setattr(fork, "start", second_fails)
        with pytest.raises(OSError, match="^fork failed$"):
            run_sim(_cfg(frames=600, workers=3))
        # the first worker saw every point stopped, ended and was joined
        assert len(started) == 1 and started[0].exitcode == 0

    def test_group_decoding_refuses_a_failing_grouping(self, monkeypatch):
        # weights 2 and 3 swapped: the canonical grouping's first two groups
        # pair x1I with x2Q and x1Q with x2I, which do not anticommute
        scrambled = LinearDesign(construct_design(2).weight_stack[[0, 1, 3, 2, 4, 5, 6, 7]])
        monkeypatch.setattr(sim, "build_codebook", lambda cfg: Codebook(
            scrambled, construct_signal_set(2, 16)))
        # the grouping is checked before scaled unitarity, for every decoder
        for decoder in ("group", "exhaustive"):
            with pytest.raises(NotGroupDecodableError):
                run_sim(_cfg(frames=20, decoder=decoder))

    def test_group_only_run_builds_no_codeword_stack(self, monkeypatch):
        run_sim(_cfg(frames=50))
        cb = sim.prepare(_cfg())
        # encoding and group decoding compose codewords and scales per group;
        # the group scans read the (K, n) correlation taps, no M-sized array
        assert not {"matrices", "exhaustive_table"} & cb.__dict__.keys()
        assert cb.basis_taps[0].shape == (cb.design.K, cb.n)
        for decoder in ("exhaustive", "both"):
            run_sim(_cfg(frames=50, decoder=decoder))
            assert sim.prepare(_cfg()) is cb
            # the exhaustive rows scan the codewords' coordinates instead, as
            # one float64 table on a codebook this small
            assert "matrices" not in cb.__dict__
            assert [a.dtype for a in cb.__dict__["exhaustive_table"]] == [np.float64] * 2
        # above TABLE_SCAN_BYTES they sum the four groups' scores, with the
        # decisions of the table scan
        want = run_sim(_cfg(m=256, frames=50, decoder="both")).to_csv()
        sim._codebook.cache_clear()
        monkeypatch.setattr(codebook, "TABLE_SCAN_BYTES", 0)
        assert run_sim(_cfg(m=256, frames=50, decoder="both")).to_csv() == want
        cb = sim.prepare(_cfg(m=256))
        assert "matrices" not in cb.__dict__
        (factored,) = cb.__dict__["exhaustive_table"]
        assert isinstance(factored, FactoredTable) and factored.points == cb.alphabets

    def test_group_only_run_needs_no_memory_budget(self, monkeypatch):
        # lam 2, M 64^4: room for the group radii and points (2 kB), the
        # partial codewords (66 kB, 131 kB while they are joined) and a window
        # of 64 4-frame blocks (0.7 MB), not for the exhaustive rows' 136 MB
        # factored scan
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 1_000_000)
        assert run_sim(_cfg(m=64**4, frames=50)).points[0].frames == 50
        with pytest.raises(ValueError,
                           match=r"decide_exhaustive needs Codebook\.exhaustive_table"):
            run_sim(_cfg(m=64**4, frames=50, decoder="both"))

    def test_refuses_a_block_past_the_memory_budget(self, monkeypatch):
        # the cached codebook; its partials take 4 kB at most
        cb = sim.prepare(_cfg(frames=1))
        # 64 bytes a frame of index draw, and the arrays of a window of at most
        # 256 frames: 250 frames in one block fit, as do two blocks of 100 in
        # one window, and 251 do not
        budget = diffcodec.block_bytes(cb, 250, 1)
        probes = []

        def available():
            probes.append(1)
            return budget

        monkeypatch.setattr(codebook, "_available_bytes", available)
        for frames, coherence in ((250, None), (251, 251), (10**4, 101)):
            probes.clear()
            assert run_sim(_cfg(frames=frames, coherence=coherence)).points[0].frames == frames
            assert len(probes) == 1  # once per sweep, not per chunk
        for frames, coherence, nf in ((251, None, 251), (10**13, 252, 251),
                                      (10**13, None, 10**13)):
            with pytest.raises(ValueError) as err:
                run_sim(_cfg(frames=frames, coherence=coherence))
            mb = diffcodec.block_bytes(cb, nf, 1) / 1e6
            assert str(err.value) == (f"a fading block of {nf} frames needs its group-index "
                                      f"draw and one window's arrays, {mb:.1f} MB, but only "
                                      f"{budget / 1e6:.1f} MB of memory is available")

    def test_window_memory_grows_with_the_receive_antennas(self, monkeypatch):
        # a window's frames take 16 n n_r bytes per array; windows shrink to
        # keep each array under WINDOW_BYTES, but hold one frame at least:
        # 10^4 receive antennas need more than twice the room of one
        cb = sim.prepare(_cfg(frames=1))
        budget = 2 * diffcodec.block_bytes(cb, 20, 1)
        assert diffcodec.window_size(cb, 10**4) == 1
        assert diffcodec.block_bytes(cb, 4, 10**4) > budget
        monkeypatch.setattr(codebook, "_available_bytes", lambda: budget)
        for coherence in (5, None):
            assert run_sim(_cfg(frames=20, coherence=coherence)).points[0].frames == 20
            with pytest.raises(ValueError, match="a fading block of (4|20) frames needs"):
                run_sim(_cfg(frames=20, coherence=coherence, n_r=10**4))

    def test_large_group_only_run_builds_no_m_sized_array(self):
        # lam 2, M 64^4: the exhaustive rows' factored scan would hold 136 MB
        assert _peak_kb(
            "res = run_sim(SimConfig(lam=2, m=64**4, snr_db=(10.0,), frames=200,"
            " coherence=10, seed=1))\n"
            "assert res.points[0].frames == 200\n"
        ) < 100 * 1024

    def test_large_design_runs_both_decoders_without_the_stack(self):
        # lam 5, M 16^4: the (M, n, n) stack alone would take 1.07 GB, the
        # coordinate table 34 MB; the factored scan holds 0.6 MB
        assert _peak_kb(
            "res = run_sim(SimConfig(lam=5, m=16**4, decoder='both', snr_db=(20.0,),"
            " frames=20, seed=1))\n"
            "assert [p.frames for p in res.points] == [20, 20]\n"
            "group, exhaustive = res.points\n"
            "assert group.frame_errors == exhaustive.frame_errors\n"
        ) < 300 * 1024

    def test_cache_holds_the_current_codebook_only(self, monkeypatch):
        builds = []
        build = sim.build_codebook

        def counted(cfg):
            builds.append(cfg.m)
            return build(cfg)

        monkeypatch.setattr(sim, "build_codebook", counted)
        run_sim(_cfg(frames=20, decoder="both"))
        run_sim(_cfg(m=256, frames=20, decoder="both"))
        assert sim._codebook.cache_info().currsize == 1
        assert sim.prepare(_cfg(m=256)).M == 256
        # other SNRs, seeds and decoders reuse the codebook
        run_sim(_cfg(m=256, frames=20, snr_db=(3.0,), seed=4, decoder="group"))
        assert builds == [16, 256]
        assert sim._codebook.cache_info().currsize == 1

    def test_every_decoder_refuses_non_scaled_unitary_codebook(self, monkeypatch):
        # the differential chain itself needs X_t^H X_t = a_t I
        message = "the differential chain needs scaled-unitary codewords"
        monkeypatch.setattr(sim.Codebook, "max_unitarity_residual", lambda self: 1e-3)
        for decoder in ("group", "exhaustive", "both"):
            with pytest.raises(ValueError, match=message):
                run_sim(_cfg(frames=20, decoder=decoder))
        monkeypatch.undo()
        sim._codebook.cache_clear()  # it holds the residual of 1e-3
        # x1I*x2I = +1 and x1Q*x2Q = +1: a real residual bound of 8, group decoding alone
        same_sign = np.array([[1.0, 1.0], [-1.0, -1.0]])
        monkeypatch.setattr(sim, "build_codebook", lambda cfg: Codebook(
            construct_design(2), (same_sign,) * 4))
        with pytest.raises(ValueError, match=message + r", but the codebook's unitarity "
                                                        r"residual is 8 "):
            run_sim(_cfg(frames=20))

    def test_bit_errors_follow_bit_mapping(self, monkeypatch):
        # noiseless, constant-scale codebook: the exhaustive decision is the sent
        # index, so flipping it by a fixed pattern fixes every frame's bit errors
        scan = diffcodec.metric_scan
        flip = 0b1011

        def flipped(stack, *frame, **kwargs):
            best = scan(stack, *frame, **kwargs)
            if len(stack) < 16:  # group scans
                return best
            return best ^ flip

        monkeypatch.setattr(diffcodec, "metric_scan", flipped)
        res = run_sim(_cfg(snr_db=(math.inf,), frames=200, decoder="both"))
        group, exhaustive = res.points
        sizes = (2, 2, 2, 2)
        tx = (1, 0, 1, 1)
        rx = np.unravel_index(np.ravel_multi_index(tx, sizes) ^ flip, sizes)
        per_frame = sum(a != b for a, b in zip(bit_mapping(tx, sizes), bit_mapping(rx, sizes)))
        assert (group.frame_errors, group.bit_errors) == (0, 0)
        assert exhaustive.frame_errors == 200
        assert exhaustive.bit_errors == 200 * per_frame == 600

    def test_unitarity_checked_once_per_cached_codebook(self, monkeypatch):
        calls = []
        residual = sim.Codebook.max_unitarity_residual

        def counted(self):
            calls.append(1)
            return residual(self)

        monkeypatch.setattr(sim.Codebook, "max_unitarity_residual", counted)
        run_sim(_cfg(frames=20))
        assert calls == [1]  # a group-only sweep requires it too
        for _ in range(3):
            run_sim(_cfg(frames=20, decoder="both"))
        assert calls == [1]
        assert sim.prepare(_cfg()).unitarity_residual <= UNITARITY_TOL

    def test_decoders_agree_frame_by_frame(self):
        res = run_sim(_cfg(snr_db=(0.0, 8.0), frames=800, decoder="both"))
        by_snr = {}
        for p in res.points:
            by_snr.setdefault(p.snr_db, []).append(p)
        for pts in by_snr.values():
            assert len(pts) == 2
            assert pts[0].frame_errors == pts[1].frame_errors
            assert pts[0].bit_errors == pts[1].bit_errors

    def test_metric_evaluation_accounting(self):
        res = run_sim(_cfg(frames=123, decoder="both"))
        for p in res.points:
            per_frame = 16 if p.decoder == "exhaustive" else 8
            assert p.metric_evals == p.frames * per_frame

    def test_every_scan_goes_through_the_diffcodec_module_global(self, monkeypatch):
        # perfbench's traced run counts scans by patching this name: four
        # group scans and one exhaustive scan per frame, whose candidate
        # counts add up to the rows' metric_evals
        sizes = []
        scan = diffcodec.metric_scan

        def counted(stack, *args, **kwargs):
            sizes.append(stack.shape[0])
            return scan(stack, *args, **kwargs)

        monkeypatch.setattr(diffcodec, "metric_scan", counted)
        res = run_sim(_cfg(snr_db=(0.0, 8.0), frames=123, decoder="both"))
        frames = sum(p.frames for p in res.points if p.decoder == "group")
        assert frames == 2 * 123
        assert len(sizes) == frames * (4 + 1)
        assert sum(sizes) == sum(p.metric_evals for p in res.points)

    def test_both_decoders_read_one_correlation_per_window(self, monkeypatch):
        # _run_blocks correlates each window once, through the name sim
        # imports, and both decoders decide from it; each counts its time
        windows = []
        corr = sim.correlate

        def counted(cb, r, r_prev):
            windows.append(r.shape[:2])  # (blocks, frames)
            time.sleep(0.002)
            return corr(cb, r, r_prev)

        monkeypatch.setattr(sim, "correlate", counted)
        # 33 blocks of 9 frames and one of 3: chunks of one window, 28
        # blocks, the last block alone
        res = run_sim(_cfg(frames=300, coherence=10, decoder="both"))
        assert windows == [(28, 9), (5, 9), (1, 3)]
        assert [p.frames for p in res.points] == [300, 300]
        assert all(p.decode_time_s >= 3 * 0.002 for p in res.points)
        windows.clear()
        monkeypatch.setattr(diffcodec, "WINDOW", 7)
        res = run_sim(_cfg(frames=50, coherence=None, decoder="both"))
        assert windows == [(1, 7)] * 7 + [(1, 1)]
        assert [p.frames for p in res.points] == [50, 50]

    def test_whole_burst_coherence(self):
        res = run_sim(_cfg(coherence=None, frames=200))
        assert res.points[0].frames == 200

    def test_frame_count_exact_with_partial_block(self):
        # 7 frames with 4-frame blocks: 3 + 3 + 1 information frames
        res = run_sim(_cfg(frames=7, coherence=4))
        assert res.points[0].frames == 7

    def test_target_errors_stops_early_and_stays_deterministic(self):
        cfg = _cfg(snr_db=(0.0,), frames=20000, target_errors=50)
        a = run_sim(cfg)
        b = run_sim(cfg)
        assert a.to_csv() == b.to_csv()
        assert a.points[0].frame_errors >= 50
        assert a.points[0].frames < 20000

    def test_stopped_point_leaves_at_most_one_window_per_worker(self, monkeypatch):
        # 5 000 blocks of 4 information frames in chunks of one window, 64
        # blocks; 50 errors come within the first chunks at both SNRs.  Once
        # the parent has stopped the 0 dB point, each worker finishes at most
        # the window it is in: no queued chunk, nor the rest of a running
        # one, is simulated.
        cfg = _cfg(snr_db=(0.0, 6.0), frames=20000, target_errors=50, workers=2)
        late = multiprocessing.Value("i", 0)  # 0 dB windows ending after the stop
        ran = multiprocessing.Value("i", 0)  # 0 dB blocks simulated by the workers
        flag = [None]  # the stop flag of this process's current chunk
        run_blocks, frames = sim._run_blocks, sim.window_frames

        def flagged(cb, cfg, snr_idx, lo, hi, stopped=None):
            flag[0] = stopped
            return run_blocks(cb, cfg, snr_idx, lo, hi, stopped)

        def recorded(cb, rngs, nf, n_r, sigma):
            yield from frames(cb, rngs, nf, n_r, sigma)
            snr_idx = rngs[0].bit_generator.seed_seq.entropy[1]
            if snr_idx == 0 and flag[0] is not None:
                with late.get_lock():
                    ran.value += len(rngs)
                    late.value += flag[0].value > 0

        monkeypatch.setattr(sim, "_run_blocks", flagged)
        monkeypatch.setattr(sim, "window_frames", recorded)
        serial = run_sim(replace(cfg, workers=1))
        res = run_sim(cfg)  # forked workers inherit the patch and the counter
        assert res.to_csv() == serial.to_csv()
        assert res.points[0].frames < cfg.frames
        seen = f"{late.value} windows of {ran.value} 0 dB blocks in the workers ended " \
               "after the stop"
        assert ran.value > 0, seen  # the workers ran 0 dB blocks through the patch
        assert late.value <= cfg.workers, seen
        assert ran.value < 5000 // 2, seen  # the rest of the 0 dB point never ran

    def test_worker_skips_the_blocks_of_a_stopped_point(self):
        stopped = multiprocessing.RawValue("i", 1)
        cfg = _cfg(snr_db=(0.0, 6.0))
        cb = sim.prepare(cfg)
        assert sim._run_blocks(cb, cfg, 0, 0, 5, stopped)["group"]["frames"] == 0
        assert sim._run_blocks(cb, cfg, 1, 0, 5, stopped)["group"]["frames"] == 20

    def test_claims_skip_the_tickets_of_a_stopped_point(self):
        tickets, stopped = multiprocessing.Value("q", 3), multiprocessing.RawValue("q", 0)
        assert [sim._claim(tickets, stopped, 5) for _ in range(2)] == [3, 4]
        stopped.value = 2  # points 0 and 1 have stopped: tickets 5 to 9 are skipped
        assert [sim._claim(tickets, stopped, 5) for _ in range(2)] == [10, 11]

    def test_bler_only_mode_for_non_power_of_two_groups(self):
        res = run_sim(SimConfig(lam=2, m=6**4, snr_db=(10.0,), frames=50,
                                coherence=5, seed=0))
        p = res.points[0]
        assert p.bits == 0 and p.bit_errors == 0
        assert math.isnan(p.ber)
        assert 0.0 <= p.bler <= 1.0

    def test_hyperbola_family_runs(self):
        res = run_sim(SimConfig(lam=2, m=16, family="hyperbola", snr_db=(12.0,),
                                frames=200, coherence=5, seed=1))
        assert res.points[0].frames == 200

    def test_csv_shape(self):
        res = run_sim(_cfg(snr_db=(0.0, 4.0), decoder="both", frames=100))
        lines = res.to_csv().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "group"
        assert first[-1] == "11"  # seed column

    def test_json_mirrors_csv(self):
        res = run_sim(_cfg(frames=100))
        doc = json.loads(res.to_json())
        assert doc["config"]["lam"] == 2
        assert doc["config"]["seed"] == 11
        assert len(doc["results"]) == 1
        row = doc["results"][0]
        assert row["frames"] == res.points[0].frames
        assert row["metric_evals"] == res.points[0].metric_evals
        assert "snr_convention" in doc
        assert doc["backend"] == "python"

    def test_json_is_strict_for_infinite_snr_and_bler_only_points(self):
        doc = _strict_json(run_sim(_cfg(snr_db=(math.inf, 6.0), frames=20)).to_json())
        assert doc["config"]["snr_db"] == ["inf", 6.0]
        assert [r["snr_db"] for r in doc["results"]] == ["inf", 6.0]
        assert doc["results"][0]["ber"] == 0.0
        res = run_sim(SimConfig(lam=2, m=6**4, snr_db=(math.inf,), frames=20))
        assert math.isnan(res.points[0].ber)
        assert res.to_csv().splitlines()[1].split(",")[7] == "nan"
        row = _strict_json(res.to_json())["results"][0]
        assert (row["snr_db"], row["bits"], row["ber"]) == ("inf", 0, None)

    def test_json_refuses_other_non_finite_values(self):
        res = run_sim(_cfg(frames=20))
        bad = sim.SimResult(config=res.config,
                            points=(replace(res.points[0], wall_time_s=math.nan),))
        with pytest.raises(ValueError):
            bad.to_json()


#: CSVs of small configs, the first six produced by the per-block X chain
#: before the window pass and its Y chain, the last by the window pass while
#: it still counted errors on raveled linear indices.  They pin the RNG
#: layout: one stream per block, drawing the channel, all the group indices,
#: then the noise.  A change of layout must update them.
GOLDEN_CSV = [
    (dict(lam=2, m=256, snr_db=(0.0, 6.0), frames=300, coherence=10, seed=7),
     "0,group,300,290,0.966667,2400,931,0.387917,4800,7\n"
     "6,group,300,204,0.68,2400,450,0.1875,4800,7\n"),
    (dict(lam=3, m=256, snr_db=(10.0,), frames=300, seed=8),
     "10,group,300,56,0.186667,2400,62,0.0258333,4800,8\n"),
    (dict(lam=2, m=16, n_r=2, snr_db=(-2.0, 4.0), frames=200, coherence=5,
          decoder="both", seed=9),
     "-2,group,200,126,0.63,800,187,0.23375,1600,9\n"
     "-2,exhaustive,200,126,0.63,800,187,0.23375,3200,9\n"
     "4,group,200,26,0.13,800,29,0.03625,1600,9\n"
     "4,exhaustive,200,26,0.13,800,29,0.03625,3200,9\n"),
    # 278 blocks of 9 frames, in windows of 28, and a last block of 1 frame alone
    (dict(lam=2, m=16, coherence=10, frames=2503, snr_db=(2.0, 8.0), decoder="both", seed=3),
     "2,group,2503,1248,0.498602,10012,1660,0.165801,20024,3\n"
     "2,exhaustive,2503,1248,0.498602,10012,1660,0.165801,40048,3\n"
     "8,group,2503,208,0.0831003,10012,223,0.0222733,20024,3\n"
     "8,exhaustive,2503,208,0.0831003,10012,223,0.0222733,40048,3\n"),
    (dict(lam=2, m=256, family="hyperbola", n_r=2, coherence=10, frames=600,
          snr_db=(6.0, 12.0), decoder="both", seed=4),
     "6,group,600,529,0.881667,4800,1036,0.215833,9600,4\n"
     "6,exhaustive,600,529,0.881667,4800,1036,0.215833,153600,4\n"
     "12,group,600,238,0.396667,4800,335,0.0697917,9600,4\n"
     "12,exhaustive,600,238,0.396667,4800,335,0.0697917,153600,4\n"),
    (dict(lam=5, m=16, coherence=10, frames=300, snr_db=(4.0, 10.0), decoder="both", seed=5),
     "4,group,300,149,0.496667,1200,190,0.158333,2400,5\n"
     "4,exhaustive,300,149,0.496667,1200,190,0.158333,4800,5\n"
     "10,group,300,15,0.05,1200,16,0.0133333,2400,5\n"
     "10,exhaustive,300,15,0.05,1200,16,0.0133333,4800,5\n"),
    # six-point groups have no bit mapping: frame errors only
    (dict(lam=2, m=1296, coherence=7, frames=600, snr_db=(4.0, 10.0), decoder="both", seed=6),
     "4,group,600,577,0.961667,0,0,nan,14400,6\n"
     "4,exhaustive,600,577,0.961667,0,0,nan,777600,6\n"
     "10,group,600,415,0.691667,0,0,nan,14400,6\n"
     "10,exhaustive,600,415,0.691667,0,0,nan,777600,6\n"),
]


def _per_frame_block(cb, seed, nf, n_r, sigma):
    """The same block through diffcodec's per-frame API, on one shared rng:
    the X chain, X_t H plus noise, and ``decode_exhaustive``'s decisions."""
    rng = np.random.default_rng(seed)
    ch = ChannelConfig(n_r=n_r, noise_var=2.0 * sigma**2)  # sqrt(noise_var / 2) is sigma again
    h = draw_channel(ch, cb.n, rng)
    idx = np.stack([rng.integers(0, size, nf) for size in cb.sizes])
    state = encoder_init(cb.n)
    frames = [channel_step(ch, state.x_prev, h, rng)]
    decided, a_hat = [], 1.0
    for t in range(nf):
        state, x_t = encoder_step(state, cb.codeword_at(idx[:, t]))
        frames.append(channel_step(ch, x_t, h, rng))
        res = decode_exhaustive(cb, frames[-1], frames[-2], a_hat)
        decided.append(res.index)
        a_hat = estimate_scale(cb.codeword_at(res.index))
    return [tuple(idx[:, t].tolist()) for t in range(nf)], frames, decided


def _window_pass(cb, seeds, nf, n_r, sigma):
    """Per block of one ``window_frames`` pass over the blocks seeded by
    ``seeds``: its sent group-index tuples, its received frames, reference
    first, and ``decide_group``'s decisions on each window's correlation."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    sent, frames, decided = ([[] for _ in seeds] for _ in range(3))
    a = [1.0] * len(seeds)
    for idx, r_prev, r in diffcodec.window_frames(cb, rngs, nf, n_r, sigma):
        assert idx.shape == (4, *r.shape[:2]) and r_prev.shape == (len(seeds), cb.n, n_r)
        g, energy = diffcodec.correlate(cb, r, r_prev)
        for b in range(len(seeds)):
            if not frames[b]:
                frames[b].append(r_prev[b])
            assert r_prev[b].tobytes() == frames[b][-1].tobytes()
            sent[b] += zip(*idx[:, b].tolist())
            frames[b] += list(r[b])
            hats, a[b] = diffcodec.decide_group(cb, g[b], energy[b], a[b])
            decided[b] += [tuple(hats[t:t + 4]) for t in range(0, len(hats), 4)]
    return sent, frames, decided


class TestBlockPass:
    # three blocks of 17 frames in one pass, in windows of 7, 7 and 3 frames:
    # each block matches a naive per-frame replay of its own draws
    @pytest.mark.parametrize("replay", [replay_y_chain, _per_frame_block],
                             ids=["oracle", "per-frame-api"])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_windows_replay_the_per_frame_chain(self, monkeypatch, lam, n_r, sigma, replay):
        monkeypatch.setattr(diffcodec, "WINDOW", 7)
        cb = sim.prepare(SimConfig(lam=lam, m=256))
        nf, seeds = 17, [[lam, n_r, b] for b in range(3)]
        sent, frames, decided = _window_pass(cb, seeds, nf, n_r, sigma)
        for b, seed in enumerate(seeds):
            want_sent, want_frames, want_decided = replay(cb, seed, nf, n_r, sigma)
            assert sent[b] == want_sent
            assert decided[b] == want_decided
            assert len(frames[b]) == len(want_frames) == nf + 1
            for r_got, r_want in zip(frames[b], want_frames):
                assert r_got.shape == r_want.shape
                # Y_t = X_t H is rounded differently from X_t, then X_t H
                assert np.abs(r_got - r_want).max() <= 1e-12 * np.abs(r_want).max()

    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    @pytest.mark.parametrize("n_r", [1, 2])
    @pytest.mark.parametrize("cfg", [dict(lam=2, m=16), dict(lam=3, m=256),
                                     dict(lam=2, m=256, family="hyperbola")],
                             ids=["axis", "lam3", "hyperbola"])
    def test_blocks_run_alike_alone_and_together(self, monkeypatch, cfg, n_r, sigma):
        # five blocks of 9 frames in one window, and each alone in windows of
        # 4, 4 and 1 frames, give the same frames bit for bit
        cb = sim.prepare(SimConfig(**cfg))
        seeds = [[n_r, b] for b in range(5)]
        together = _window_pass(cb, seeds, 9, n_r, sigma)
        monkeypatch.setattr(diffcodec, "WINDOW", 4)
        for b, seed in enumerate(seeds):
            sent, frames, decided = (part[0] for part in _window_pass(cb, [seed], 9, n_r, sigma))
            assert sent == together[0][b] and decided == together[2][b]
            assert [r.tobytes() for r in frames] == [r.tobytes() for r in together[1][b]]

    @pytest.mark.parametrize("cfg", [
        dict(coherence=None, frames=40, n_r=2, decoder="both"),
        dict(coherence=20, frames=100, decoder="both"),
        dict(coherence=None, frames=30, snr_db=(math.inf,)),
        # 28 blocks a window by default, a last block of 1 frame alone
        dict(coherence=10, frames=703, decoder="both"),
        dict(family="hyperbola", m=256, n_r=2, coherence=6, frames=403, decoder="both"),
    ])
    def test_results_do_not_depend_on_the_window(self, monkeypatch, cfg):
        want = run_sim(_cfg(**cfg)).to_csv()
        for window in (1, 7, 20):
            monkeypatch.setattr(diffcodec, "WINDOW", window)
            assert run_sim(_cfg(**cfg)).to_csv() == want

    @pytest.mark.parametrize("cfg, rows", GOLDEN_CSV,
                             ids=["coherence", "whole-burst", "both-decoders-nr2",
                                  "partial-last-block", "hyperbola-nr2", "lam5",
                                  "bler-only"])
    def test_golden_csv_pins_the_rng_layout(self, cfg, rows):
        assert run_sim(SimConfig(**cfg)).to_csv() == CSV_HEADER + "\n" + rows

    def test_each_decoder_is_timed_separately(self):
        # M 16^4: an exhaustive frame scores 65 536 codewords, a group frame 64
        res = run_sim(SimConfig(lam=3, m=16**4, preset="paper-8ant-rate2", snr_db=(10.0,),
                                frames=200, coherence=10, decoder="both", seed=2))
        group, exhaustive = res.points
        assert 0.0 < group.decode_time_s < exhaustive.decode_time_s
        assert group.wall_time_s == exhaustive.wall_time_s
        rows = json.loads(res.to_json())["results"]
        assert [r["decode_time_s"] for r in rows] == [p.decode_time_s for p in res.points]
        # the draws, chain and noise are timed once for the point's rows
        assert 0.0 < group.encode_time_s == exhaustive.encode_time_s
        assert [r["encode_time_s"] for r in rows] == [group.encode_time_s] * 2


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            run_sim(_cfg(snr_db=()))
        with pytest.raises(ValueError):
            run_sim(_cfg(frames=0))
        with pytest.raises(ValueError):
            run_sim(_cfg(coherence=1))
        with pytest.raises(ValueError):
            run_sim(_cfg(decoder="magic"))
        with pytest.raises(ValueError):
            run_sim(_cfg(m=15))
        with pytest.raises(ValueError):
            run_sim(_cfg(workers=0))
        with pytest.raises(ValueError):
            run_sim(_cfg(seed=-1))
        with pytest.raises(ValueError):
            run_sim(_cfg(n_r=0))
        with pytest.raises(ValueError):
            run_sim(_cfg(target_errors=0))

    def test_list_inputs_run_as_tuples(self):
        # the Python API may pass lists; the codebook cache key needs tuples
        kw = dict(lam=2, m=256, frames=100, coherence=10, decoder="both", seed=3)
        cfg = SimConfig(radii=[1.0, 3.0], snr_db=[4.0, 8.0], **kw)
        assert cfg.radii == (1.0, 3.0) and cfg.snr_db == (4.0, 8.0)
        got = run_sim(cfg).to_csv()
        sim._codebook.cache_clear()
        assert got == run_sim(SimConfig(radii=(1.0, 3.0), snr_db=(4.0, 8.0), **kw)).to_csv()

    def test_hyperbola_needs_lambda_two(self):
        with pytest.raises(ValueError):
            SimConfig(lam=3, m=16, family="hyperbola", snr_db=(0.0,))

    @pytest.mark.parametrize("change, message", [
        (dict(lam=0), "lam must be >= 1"),
        (dict(lam=MAX_LAMBDA + 1), "exceeds the supported maximum"),
        (dict(lam=2.0), "lam must be an integer"),
        (dict(m=16.0), "m must be an integer"),
        (dict(family="circle"), "unknown signal family"),
        (dict(family="hyperbola", lam=3), "defined for lam = 2 only"),
        (dict(c=0.5), "c applies to the hyperbola family only"),
        (dict(preset="nope"), "unknown preset"),
        (dict(preset="paper-8ant-rate2", lam=3, m=16**4, radii=(1.0,)), "a preset fixes"),
        (dict(preset="paper-8ant-rate2", lam=2, m=16**4),
         "defined for lam=3 and M=65536, got lam=2 and M=65536"),
        (dict(preset="paper-8ant-rate2", lam=3, m=256), "got lam=3 and M=256"),
        (dict(snr_db=()), "need at least one SNR point"),
        (dict(snr_db=(math.nan,)), "finite or \\+inf"),
        (dict(snr_db=(-math.inf,)), "finite or \\+inf"),
        (dict(snr_db=(-4000.0,)), "outside the float range"),
        (dict(n_r=0), "n_r must be >= 1"),
        (dict(n_r=1.5), "n_r must be an integer"),
        (dict(frames=0), "frames must be >= 1"),
        (dict(frames=10.5), "frames must be an integer"),
        (dict(target_errors=0), "target_errors must be >= 1"),
        (dict(target_errors=2.5), "target_errors must be an integer"),
        (dict(coherence=1), "coherence must be >= 2"),
        (dict(coherence=2.5), "coherence must be an integer"),
        (dict(decoder="magic"), "unknown decoder"),
        (dict(seed=-1), "seed must be nonnegative"),
        (dict(seed="3"), "seed must be an integer"),
        (dict(workers=0), "workers must be >= 1"),
        (dict(workers=2.0), "workers must be an integer"),
        (dict(family="hyperbola", c="x"), "c must be a real number, got 'x'"),
        (dict(snr_db=("10",)), "snr_db must be a sequence of real numbers"),
        (dict(snr_db=6.0), "snr_db must be a sequence of real numbers, got 6.0"),
        (dict(preset=["p"]), "preset must be a string, got \\['p'\\]"),
        (dict(radii="ab"), "radii must be a sequence of real numbers, got 'ab'"),
        (dict(radii=1.0), "radii must be a sequence of real numbers"),
    ])
    def test_invalid_config_is_refused_when_constructed(self, change, message):
        # also under dataclasses.replace, which constructs a new config
        valid = dict(lam=2, m=16, snr_db=(6.0,), frames=10)
        with pytest.raises(ValueError, match=message):
            SimConfig(**{**valid, **change})
        with pytest.raises(ValueError, match=message):
            replace(SimConfig(**valid), **change)

    def test_integer_fields_become_python_ints(self):
        cfg = SimConfig(lam=np.int64(2), m=np.uint16(16), snr_db=(6.0,), frames=np.int32(10),
                        coherence=np.int8(5), seed=np.int64(3), workers=np.int64(1))
        assert all(type(getattr(cfg, f)) is int
                   for f in ("lam", "m", "frames", "coherence", "seed", "workers"))
        assert _strict_json(run_sim(cfg).to_json())["config"]["seed"] == 3

    def test_preset_consistency(self):
        with pytest.raises(ValueError):
            build_codebook(SimConfig(lam=2, m=16, preset="paper-8ant-rate2",
                                     snr_db=(0.0,)))
        with pytest.raises(ValueError):
            build_codebook(SimConfig(lam=3, m=256, preset="paper-8ant-rate2",
                                     snr_db=(0.0,)))

    def test_preset_codebook_builds(self):
        cb = build_codebook(SimConfig(lam=3, m=16**4, preset="paper-8ant-rate2",
                                      snr_db=(0.0,)))
        assert cb.M == 16**4 and cb.rate_bits_per_use == pytest.approx(2.0)
