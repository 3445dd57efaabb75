import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gdstbc import codebook, diffcodec, sim
from gdstbc._kernels import blas_threads
from gdstbc.codebook import UNITARITY_TOL, Codebook, NotGroupDecodableError
from gdstbc.design import Grouping, construct_design
from gdstbc.diffcodec import (
    ChannelConfig,
    channel_step,
    draw_channel,
    encoder_init,
    encoder_step,
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

from oracles import replay_block


def _cfg(**kw):
    base = dict(lam=2, m=16, snr_db=(6.0,), frames=400, coherence=5, seed=11)
    base.update(kw)
    return SimConfig(**base)


def _worker_blas_threads(_):
    return blas_threads()


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
    def test_xor_of_linear_indices_counts_bit_errors(self, sizes):
        # the simulator counts bit errors as (lin ^ lin_hat).bit_count()
        rng = np.random.default_rng(sum(sizes))
        for _ in range(500):
            tx, rx = (tuple(int(rng.integers(0, s)) for s in sizes) for _ in range(2))
            lin, lin_hat = (int(np.ravel_multi_index(i, sizes)) for i in (tx, rx))
            hamming = sum(a != b for a, b in zip(bit_mapping(tx, sizes), bit_mapping(rx, sizes)))
            assert (lin ^ lin_hat).bit_count() == hamming


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

    def test_pool_workers_run_blas_single_threaded(self):
        if blas_threads() is None:
            pytest.skip("no loaded OpenBLAS with a thread-count entry point")
        with sim._worker_pool(2, multiprocessing.RawValue("i", 0)) as pool:
            assert list(pool.map(_worker_blas_threads, range(4), timeout=60)) == [1] * 4

    def test_pool_is_no_larger_than_the_task_list(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, workers, stopped):
                sizes.append(workers)

            def map(self, fn, *iterables):
                return (fn(*args) for args in zip(*iterables))

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(sim, "_worker_pool", InProcessPool)
        # 600 one-frame blocks in chunks of ceil(600 / 256) = 3: 200 tasks
        cfg = _cfg(frames=600, coherence=2)
        serial = run_sim(cfg).to_csv()
        assert run_sim(_cfg(frames=600, coherence=2, workers=100_000)).to_csv() == serial
        assert sizes == [200]
        # a whole-burst run is a single task, so it needs no pool at all
        run_sim(_cfg(frames=50, coherence=None, workers=4))
        assert sizes == [200]

    def test_group_decoding_refuses_a_failing_grouping(self, monkeypatch):
        scrambled = Grouping(g=4, groups=((0, 3), (1, 2), (4, 6), (5, 7)))
        monkeypatch.setattr(sim, "build_codebook", lambda cfg: Codebook(
            construct_design(2), construct_signal_set(2, 16), scrambled))
        with pytest.raises(NotGroupDecodableError):
            run_sim(_cfg(frames=20))

    def test_group_only_run_builds_no_codeword_stack(self, monkeypatch):
        run_sim(_cfg(frames=50))
        cb = sim.prepare(_cfg())
        # encoding and group decoding compose codewords and scales per group
        assert not {"matrices", "basis", "exhaustive_table"} & cb.__dict__.keys()
        for decoder in ("exhaustive", "both"):
            run_sim(_cfg(frames=50, decoder=decoder))
            assert sim.prepare(_cfg()) is cb
            # the exhaustive rows scan the codewords' coordinates instead, in
            # float64 on a table this small
            assert "matrices" not in cb.__dict__
            assert [a.dtype for a in cb.__dict__["exhaustive_table"]] == [np.float64] * 2
        # above FLOAT32_SCAN_BYTES they scan the table in float32
        monkeypatch.setattr(codebook, "FLOAT32_SCAN_BYTES", 0)
        run_sim(_cfg(m=256, frames=50, decoder="both"))
        cb = sim.prepare(_cfg(m=256))
        assert "matrices" not in cb.__dict__
        assert [a.dtype for a in cb.__dict__["exhaustive_table"]] == [np.float32] * 2

    def test_group_only_run_needs_no_memory_budget(self, monkeypatch):
        # room for a 4-frame block's index draw (160 bytes), not for the
        # exhaustive rows' 1.2 kB table
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 1000)
        assert run_sim(_cfg(frames=50)).points[0].frames == 50
        with pytest.raises(ValueError,
                           match=r"decide_exhaustive needs Codebook\.exhaustive_table"):
            run_sim(_cfg(frames=50, decoder="both"))

    def test_refuses_a_block_index_draw_past_the_memory_budget(self, monkeypatch):
        probes = []

        def available():
            probes.append(1)
            return 4000

        monkeypatch.setattr(codebook, "_available_bytes", available)
        # 40 bytes a frame: 100 frames fit, 101 in one whole-burst block do not
        for frames, coherence in ((100, None), (101, 101), (10**4, 11)):
            probes.clear()
            assert run_sim(_cfg(frames=frames, coherence=coherence)).points[0].frames == frames
            assert len(probes) == 1  # once per sweep, not per chunk
        for frames, coherence, nf, mb in ((101, None, 101, "0.0"),
                                          (10**13, 102, 101, "0.0"),
                                          (10**13, None, 10**13, "400000000.0")):
            with pytest.raises(ValueError) as err:
                run_sim(_cfg(frames=frames, coherence=coherence))
            assert str(err.value) == (f"a fading block of {nf} frames needs its group-index "
                                      f"draw, {mb} MB, but only 0.0 MB of memory is available")

    def test_large_group_only_run_builds_no_m_sized_array(self):
        # lam 2, M 64^4: the float32 exhaustive_table would take 604 MB
        assert _peak_kb(
            "res = run_sim(SimConfig(lam=2, m=64**4, snr_db=(10.0,), frames=200,"
            " coherence=10, seed=1))\n"
            "assert res.points[0].frames == 200\n"
        ) < 100 * 1024

    def test_large_design_runs_both_decoders_without_the_stack(self):
        # lam 5, M 16^4: the (M, n, n) stack alone would take 1.07 GB, the
        # coordinates take 34 MB
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

    def test_exhaustive_decoder_refuses_non_scaled_unitary_codebook(self, monkeypatch):
        monkeypatch.setattr(sim.Codebook, "max_unitarity_residual", lambda self: 1e-3)
        with pytest.raises(ValueError, match="scaled-unitary"):
            run_sim(_cfg(frames=20, decoder="exhaustive"))
        with pytest.raises(ValueError, match="scaled-unitary"):
            run_sim(_cfg(frames=20, decoder="both"))
        assert run_sim(_cfg(frames=20)).points[0].frames == 20

    def test_bit_errors_follow_bit_mapping(self, monkeypatch):
        # noiseless, constant-scale codebook: the exhaustive decision is the sent
        # index, so flipping it by a fixed pattern fixes every frame's bit errors
        scan = diffcodec.metric_scan
        flip = 0b1011

        def flipped(stack, r_prev, r_t, inv_a, *coordinate_args):
            best, metric = scan(stack, r_prev, r_t, inv_a, *coordinate_args)
            if not coordinate_args:  # group scans
                return best, metric
            return best ^ flip, metric

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
        assert calls == []
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

        def counted(stack, *args):
            sizes.append(stack.shape[0])
            return scan(stack, *args)

        monkeypatch.setattr(diffcodec, "metric_scan", counted)
        res = run_sim(_cfg(snr_db=(0.0, 8.0), frames=123, decoder="both"))
        frames = sum(p.frames for p in res.points if p.decoder == "group")
        assert frames == 2 * 123
        assert len(sizes) == frames * (4 + 1)
        assert sum(sizes) == sum(p.metric_evals for p in res.points)

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

    def test_stopped_point_leaves_at_most_one_block_per_worker(self, monkeypatch):
        # 5 000 blocks of 4 information frames in chunks of 20 blocks; 50 errors
        # come within the first chunks at both SNRs.  Once the parent has
        # stopped the 0 dB point, each worker finishes at most the block it
        # is in: no queued chunk, nor the rest of a running one, is simulated.
        cfg = _cfg(snr_db=(0.0, 6.0), frames=20000, target_errors=50, workers=2)
        late = multiprocessing.Value("i", 0)  # 0 dB blocks ending after the stop
        frames = sim.block_frames

        def recorded(cb, rng, nf, n_r, sigma):
            yield from frames(cb, rng, nf, n_r, sigma)
            snr_idx = rng.bit_generator.seed_seq.entropy[1]
            if snr_idx == 0 and sim._stopped is not None and sim._stopped.value > 0:
                with late.get_lock():
                    late.value += 1

        monkeypatch.setattr(sim, "block_frames", recorded)
        serial = run_sim(replace(cfg, workers=1))
        res = run_sim(cfg)  # forked workers inherit the patch and the counter
        assert res.to_csv() == serial.to_csv()
        assert res.points[0].frames < cfg.frames
        assert late.value <= cfg.workers

    def test_worker_skips_the_blocks_of_a_stopped_point(self, monkeypatch):
        monkeypatch.setattr(sim, "_stopped", multiprocessing.RawValue("i", 1))
        cfg = _cfg(snr_db=(0.0, 6.0))
        assert sim._run_blocks(cfg, 0, 0, 5)["group"]["frames"] == 0
        assert sim._run_blocks(cfg, 1, 0, 5)["group"]["frames"] == 20

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


#: CSVs of three small configs, produced before the block pass was batched.
#: They pin the RNG layout: one stream per block, drawing the channel, all
#: the group indices, then the noise.  A change of layout must update them.
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
]


def _per_frame_block(cb, seed, nf, n_r, sigma):
    """The same block through diffcodec's per-frame API, on one shared rng."""
    rng = np.random.default_rng(seed)
    ch = ChannelConfig(n_r=n_r, noise_var=2.0 * sigma**2)  # sqrt(noise_var / 2) is sigma again
    h = draw_channel(ch, cb.n, rng)
    idx = np.stack([rng.integers(0, size, nf) for size in cb.sizes])
    state = encoder_init(cb.n)
    frames = [channel_step(ch, state.x_prev, h, rng)]
    for t in range(nf):
        state, x_t = encoder_step(state, cb.codeword_at(idx[:, t]))
        frames.append(channel_step(ch, x_t, h, rng))
    return [cb.linear_index(idx[:, t]) for t in range(nf)], frames


class TestBlockPass:
    # the per-frame API is the window pass's B = 1 view: driven with the
    # same rng, it must reproduce the windows bit for bit too
    @pytest.mark.parametrize("replay", [replay_block, _per_frame_block],
                             ids=["oracle", "per-frame-api"])
    @pytest.mark.parametrize("sigma", [0.0, 0.4])
    @pytest.mark.parametrize("n_r", [1, 2, 3])
    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_windows_replay_the_per_frame_chain_bit_for_bit(self, monkeypatch, lam, n_r,
                                                             sigma, replay):
        monkeypatch.setattr(diffcodec, "WINDOW", 7)
        cb = sim.prepare(SimConfig(lam=lam, m=256))
        nf = 17  # windows of 7, 7 and 3 frames
        rng = np.random.default_rng([lam, n_r])
        windows = list(diffcodec.block_frames(cb, rng, nf, n_r, sigma))
        sent, frames = replay(cb, [lam, n_r], nf, n_r, sigma)
        assert [len(w[0]) for w in windows] == [7, 7, 3]
        assert [lin for w in windows for lin in w[0]] == sent
        got = [windows[0][1]] + [r_t for _, _, r in windows for r_t in r]
        assert len(got) == len(frames)
        for r_got, r_want in zip(got, frames):
            assert r_got.shape == r_want.shape
            assert r_got.tobytes() == r_want.tobytes()
        for (_, _, r), (_, r_prev, _) in zip(windows, windows[1:]):
            assert r_prev.tobytes() == r[-1].tobytes()

    @pytest.mark.parametrize("cfg", [
        dict(coherence=None, frames=40, n_r=2, decoder="both"),
        dict(coherence=20, frames=100, decoder="both"),
        dict(coherence=None, frames=30, snr_db=(math.inf,)),
    ])
    def test_results_do_not_depend_on_the_window(self, monkeypatch, cfg):
        want = run_sim(_cfg(**cfg)).to_csv()
        for window in (1, 7):
            monkeypatch.setattr(diffcodec, "WINDOW", window)
            assert run_sim(_cfg(**cfg)).to_csv() == want

    @pytest.mark.parametrize("cfg, rows", GOLDEN_CSV,
                             ids=["coherence", "whole-burst", "both-decoders-nr2"])
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
            SimConfig(lam=3, m=16, family="hyperbola", snr_db=(0.0,)).validate()

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
