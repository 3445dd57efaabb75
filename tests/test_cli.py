import argparse
import contextlib
import errno
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdstbc import cli, codebook, signalset
from gdstbc.codebook import Codebook, NotGroupDecodableError
from gdstbc.diffcodec import block_bytes
from gdstbc.sim import CSV_HEADER, SimConfig, build_codebook


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDesignCommand:
    def test_print_and_verify(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--lambda", "2", "--print",
                               "--verify-groups")
        assert code == 0
        assert "x1" in out and "-x3*" in out
        assert "PASS" in out

    def test_summary_only(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--lambda", "3")
        assert code == 0
        assert "n=8" in out and "K=16" in out

    def test_bad_lambda_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "design", "--lambda", "0")
        assert code == 2
        assert "configuration error" in err


class TestSignalsetCommand:
    def test_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "signalset", "--lambda", "2", "--points", "16")
        assert code == 0
        pts = json.loads(out)
        assert pts == [[1.0, 0.0], [-1.0, 0.0]]

    def test_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "signalset", "--lambda", "3", "--points",
                               str(16**4), "--preset", "paper-8ant-rate2")
        assert code == 0
        pts = np.asarray(json.loads(out))
        assert pts.shape == (16, 4)
        # round-trip keeps full double precision (normalised leading radius)
        assert pts[0][0] == pytest.approx(0.3235345083792541, rel=1e-12)

    def test_hyperbola_family(self, capsys):
        code, out, _ = run_cli(capsys, "signalset", "--lambda", "2", "--points", "16",
                               "--family", "hyperbola", "--c", "0.25")
        assert code == 0
        pts = json.loads(out)
        assert len(pts) == 2
        assert pts[0][0] * pts[0][1] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("points", ["15", "-16", str(10**400), str(10**1600)])
    @pytest.mark.parametrize("command", [["signalset"], ["codebook", "verify"]])
    def test_invalid_points(self, capsys, command, points):
        code, out, err = run_cli(capsys, *command, "--lambda", "2", "--points", points)
        assert code == 2 and out == "" and err.startswith("configuration error:")

    @pytest.mark.parametrize("command", [["signalset"], ["codebook", "verify"]])
    def test_tiny_radii_are_config_errors(self, capsys, command):
        # the square sum 1e-320 is positive, but P/2 over it overflows
        code, out, err = run_cli(capsys, *command, "--lambda", "2", "--points", "16",
                                 "--radii", "1e-160")
        assert code == 2 and out == ""
        assert err == "configuration error: radii are too large or too small to normalise\n"

    @pytest.mark.parametrize("family", ["axis", "hyperbola"])
    @pytest.mark.parametrize("command", [["signalset"], ["codebook", "verify"]])
    def test_group_points_past_the_memory_budget_are_config_error(self, capsys, monkeypatch,
                                                                 command, family):
        # P = 2 * 10^6 points a group: 10^6 radii and a (P, 2) point array, 40 MB
        def allocated(p_half):
            raise AssertionError("radii allocated before the memory check")

        monkeypatch.setattr(codebook, "_available_bytes", lambda: 10**6)
        monkeypatch.setattr(signalset, "default_radii", allocated)
        code, out, err = run_cli(capsys, *command, "--lambda", "2", "--points",
                                 str((2 * 10**6) ** 4), "--family", family)
        assert code == 2 and out == ""
        assert err == ("configuration error: a group of 2000000 points needs its radii and "
                       "points, 40.0 MB, but only 1.0 MB of memory is available\n")

    @pytest.mark.parametrize("args", [
        ("--lambda", "6", "--points", "16"),
        ("--lambda", "3", "--points", "256", "--radii", "1,3"),
        ("--lambda", "3", "--points", str(16**4), "--preset", "paper-8ant-rate2"),
        ("--lambda", "2", "--points", "256", "--family", "hyperbola"),
        ("--lambda", "2", "--points", "256", "--family", "hyperbola", "--c", "0.1"),
    ])
    def test_prints_the_codebook_alphabet_without_building_a_codebook(self, capsys,
                                                                       monkeypatch, args):
        ns = cli.build_parser().parse_args(["signalset", *args])
        points = build_codebook(cli._signal_cfg(ns)).alphabets[0]
        want = json.dumps([list(row) for row in points]) + "\n"

        def refuse(*a, **kw):
            raise AssertionError("signalset must not build a codebook")

        monkeypatch.setattr(Codebook, "__init__", refuse)
        code, out, _ = run_cli(capsys, "signalset", *args)
        assert code == 0
        assert out == want


class TestCodebookCommand:
    def test_verify_report(self, capsys):
        code, out, _ = run_cli(capsys, "codebook", "verify", "--lambda", "2",
                               "--points", "16")
        assert code == 0
        report = json.loads(out)
        for key in ("scaled_unitary", "min_det", "coding_gain", "avg_scale",
                    "rate_bits_per_use"):
            assert key in report
        assert report["scaled_unitary"] is True
        assert report["avg_scale"] == pytest.approx(4.0)
        assert report["rate_bits_per_use"] == pytest.approx(1.0)
        assert report["mode"] == "exhaustive"

    def test_large_codebook_is_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "codebook", "verify", "--lambda", "3",
                               "--points", str(16**4), "--preset", "paper-8ant-rate2",
                               "--seed", "4")
        assert code == 0
        report = json.loads(out)
        assert report["full_diversity"] == "full diversity verified (exhaustive)"
        assert report["mode"] == "exhaustive" and report["seed"] == 4
        assert report["pairs_checked"] == 16**4 * (16**4 - 1) // 2
        assert report["coding_gain"] == pytest.approx(0.17195253132676616, rel=1e-9)

    def test_sixty_four_antennas(self, capsys):
        code, out, _ = run_cli(capsys, "codebook", "verify", "--lambda", "6",
                               "--points", "16")
        assert code == 0
        report = json.loads(out)
        assert report["full_diversity"] == "full diversity verified (exhaustive)"
        assert report["group_decodable"] is True and report["scaled_unitary"] is True

    @pytest.mark.parametrize("lam, m, gain", [(2, 256, 1.2), (3, 256, 1.2), (4, 16, 4.0)])
    def test_benchmark_verifier_calls(self, capsys, lam, m, gain):
        # the three calls, and their checks, of perfbench's traced verifier round
        code, out, _ = run_cli(capsys, "codebook", "verify", "--lambda", str(lam),
                               "--points", str(m))
        assert code == 0
        report = json.loads(out)
        assert report["full_diversity"] == "full diversity verified (exhaustive)"
        assert report["coding_gain"] == pytest.approx(gain, rel=1e-9)
        assert report["max_unitarity_residual"] <= 1e-9

    def test_differences_past_the_memory_budget_are_config_error(self, capsys,
                                                                  monkeypatch):
        # P = 20 000, differences of two coordinates: a row of the pair grid
        # holds 19 999 pairs, each with its difference and the operand it is
        # taken from (2 x 16 B) and seven floats (56 B): 1 759 912 B, 1.8 MB,
        # past a budget that chain_tables' 1.64 MB fit in
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 17 * 10**5)
        code, out, err = run_cli(capsys, "codebook", "verify", "--lambda", "2",
                                 "--points", str(20_000**4))
        assert code == 2 and out == ""
        assert err == ("configuration error: verify_full_diversity needs a row of group 0's "
                       "within-group differences, 1.8 MB, but only 1.7 MB of memory is "
                       "available\n")

    def test_differences_run_in_blocks_within_the_memory_budget(self, capsys, monkeypatch):
        # P = 200: all 19 900 differences of a group at once would take
        # 19 900 * 88 B = 1.8 MB, past a 1 MB budget; a row of the pair grid
        # takes 199 * 88 B = 17.5 kB, and the report is the one without a
        # budget
        reports = []
        for budget in (10**6, 10**9):
            monkeypatch.setattr(codebook, "_available_bytes", lambda: budget)
            code, out, err = run_cli(capsys, "codebook", "verify", "--lambda", "2",
                                     "--points", str(200**4))
            assert code == 0 and err == ""
            reports.append(out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["full_diversity"] == "full diversity verified (exhaustive)"

    def test_chain_tables_past_the_memory_budget_are_config_error(self, capsys, monkeypatch):
        # lam 6, P = 20 000: 80 000 one-coordinate points, each with a weight
        # id and a coordinate (1.3 MB), and one group's 20 000 x 32 zero mask
        # and its sort (5.8 MB), past a budget that the group's 5.2 MB of
        # radii and points fit in
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 6 * 10**6)
        code, out, err = run_cli(capsys, "codebook", "verify", "--lambda", "6",
                                 "--points", str(20_000**4))
        assert code == 2 and out == ""
        assert err == ("configuration error: Codebook.chain_tables needs its monomial "
                       "tables, 7.0 MB, but only 6.0 MB of memory is available\n")

    def test_bad_mode(self, capsys):
        # every verdict is exhaustive, so codebook verify takes no --mode
        with pytest.raises(SystemExit) as exc:
            cli.main(["codebook", "verify", "--lambda", "2", "--points", "16",
                      "--mode", "sampled:200"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--lambda", "2", "--points", "16",
                               "--snr-db", "0:8:4", "--frames", "100",
                               "--coherence", "5", "--decoder", "both", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        snrs = [line.split(",")[0] for line in lines[1:]]
        assert snrs == ["0", "0", "4", "4", "8", "8"]

    def test_out_file_and_json(self, capsys, tmp_path):
        out_file = tmp_path / "run.json"
        code, _, _ = run_cli(capsys, "simulate", "--lambda", "2", "--points", "16",
                             "--snr-db", "inf", "--frames", "50", "--coherence", "5",
                             "--seed", "2", "--json", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["results"][0]["frame_errors"] == 0
        assert doc["config"]["decoder"] == "group"

    def test_unopenable_out_is_config_error_before_the_sweep(self, capsys, monkeypatch,
                                                              tmp_path):
        def boom(cfg):
            raise AssertionError("run_sim must not run")

        monkeypatch.setattr(cli, "run_sim", boom)
        code, out, err = run_cli(capsys, "simulate", "--lambda", "2", "--points", "16",
                                 "--snr-db", "0", "--frames", "10",
                                 "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2 and out == ""
        assert err.startswith("configuration error: cannot open --out")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fails", ["write", "close"])
    def test_failed_out_write_is_config_error(self, capsys, monkeypatch, fails):
        class FullDisk(io.StringIO):
            def write(self, text):
                if fails == "write":
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

            def close(self):
                super().close()
                if fails == "close":
                    raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_open_out", lambda path: FullDisk())
        code, out, err = run_cli(capsys, "simulate", "--lambda", "2", "--points", "16",
                                 "--snr-db", "10", "--frames", "5", "--out", "results.csv")
        assert code == 2 and out == ""
        assert err == ("configuration error: cannot write --out file: [Errno 28] "
                       "No space left on device\n")

    def test_sweep_errors_are_not_write_errors(self, capsys, monkeypatch, tmp_path):
        def fork_fails(cfg):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "run_sim", fork_fails)
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            cli.main(["simulate", "--lambda", "2", "--points", "16", "--snr-db", "10",
                      "--frames", "5", "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("args, message", [
        (("--lambda", "2", "--points", "15"), "point count 15"),
        (("--lambda", "2", "--points", "-16"), "point count -16"),
        # an even fourth power, (10^100)^4, with too many points per group
        (("--lambda", "2", "--points", str(10**400)), ""),
        (("--lambda", "2", "--points", str(16**4), "--preset", "paper-8ant-rate2"),
         "preset 'paper-8ant-rate2' is defined for lam=3"),
        (("--lambda", "2", "--points", "16", "--coherence", "1"), "coherence must be >= 2"),
    ])
    def test_config_error_leaves_out_untouched(self, capsys, tmp_path, args, message):
        kept = tmp_path / "results.csv"
        kept.write_bytes(b"earlier results\n")
        missing = tmp_path / "new.csv"
        for out in (kept, missing):
            code, stdout, err = run_cli(capsys, "simulate", *args, "--snr-db", "0",
                                        "--frames", "10", "--out", str(out))
            assert code == 2 and stdout == ""
            assert err.startswith("configuration error:") and message in err
        assert kept.read_bytes() == b"earlier results\n"
        assert not missing.exists()

    def test_memory_refusal_leaves_out_untouched(self, capsys, monkeypatch, tmp_path):
        # lam 2, M 16^4: the exhaustive rows' factored scan holds its M sums and
        # partial sums, 0.6 MB
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 5 * 10**5)
        kept = tmp_path / "results.csv"
        kept.write_bytes(b"earlier results\n")
        code, stdout, err = run_cli(capsys, "simulate", "--lambda", "2", "--points",
                                    str(16**4), "--snr-db", "0", "--frames", "10",
                                    "--decoder", "exhaustive", "--out", str(kept))
        assert code == 2 and stdout == ""
        assert err == ("configuration error: decide_exhaustive needs "
                       "Codebook.exhaustive_table, 0.6 MB, but only 0.5 MB of memory is "
                       "available\n")
        assert kept.read_bytes() == b"earlier results\n"

    @pytest.mark.parametrize("budget, args, need", [
        (6 * 10**6, ("--lambda", "6", "--points", str(20_000**4)),
         "Codebook.chain_tables needs its monomial tables, 7.0 MB, but only 6.0 MB"),
        (10**5, ("--lambda", "2", "--points", str(50_000**4)),
         "a group of 50000 points needs its radii and points, 1.0 MB, but only 0.1 MB"),
    ])
    def test_group_only_refusal_leaves_out_untouched(self, capsys, monkeypatch, tmp_path,
                                                      budget, args, need):
        monkeypatch.setattr(codebook, "_available_bytes", lambda: budget)
        kept = tmp_path / "results.csv"
        kept.write_bytes(b"earlier results\n")
        code, stdout, err = run_cli(capsys, "simulate", *args, "--snr-db", "0",
                                    "--frames", "10", "--out", str(kept))
        assert code == 2 and stdout == ""
        assert err == f"configuration error: {need} of memory is available\n"
        assert kept.read_bytes() == b"earlier results\n"

    def test_two_to_the_64_codewords_run_on_their_group_indices(self, capsys, tmp_path):
        # lam 2, M = 2^64: four groups of 2^16 points, 64 bits a frame; 300
        # blocks of 2 frames make 3 chunks, so two workers both run
        args = ("simulate", "--lambda", "2", "--points", str(2**64), "--snr-db", "inf",
                "--frames", "600", "--coherence", "3")
        csvs = []
        for workers in ("1", "2"):
            code, stdout, _ = run_cli(capsys, *args, "--workers", workers)
            assert code == 0
            csvs.append(stdout)
        assert csvs[1] == csvs[0]
        assert csvs[0].splitlines()[1].split(",")[:7] == [
            "inf", "group", "600", "0", "0", str(64 * 600), "0"]
        # the exhaustive rows would scan 2^64 codewords
        out = tmp_path / "new.csv"
        for decoder in ("exhaustive", "both"):
            code, stdout, err = run_cli(capsys, *args, "--decoder", decoder, "--out", str(out))
            assert code == 2 and stdout == ""
            assert err.startswith("configuration error: decide_exhaustive needs "
                                  "Codebook.exhaustive_table, ")
            assert not out.exists()

    def test_whole_burst_past_the_memory_budget_leaves_out_untouched(self, capsys,
                                                                      tmp_path):
        # 10^13 frames in one block: a 320 TB group-index draw, held twice
        out = tmp_path / "new.csv"
        code, stdout, err = run_cli(capsys, "simulate", "--lambda", "2", "--points", "16",
                                    "--snr-db", "0", "--frames", str(10**13),
                                    "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith("configuration error: a fading block of 10000000000000 "
                              "frames needs its group-index draw and one window's arrays, "
                              "640000000.6 MB, but only ")
        assert not out.exists()

    def test_receive_antennas_past_the_memory_budget_leave_out_untouched(self, capsys,
                                                                          monkeypatch,
                                                                          tmp_path):
        # 10^8 receive antennas: windows of one frame, whose (2, 10^8) complex
        # arrays take 3.2 GB each: 8 for the block (the channel twice, the
        # frames before the window, a chain step's 4 terms) and 5 for the
        # frame (its chain, its noise, the correlation's copies)
        monkeypatch.setattr(codebook, "_available_bytes", lambda: 10**9)
        kept = tmp_path / "results.csv"
        kept.write_bytes(b"earlier results\n")
        code, stdout, err = run_cli(capsys, "simulate", "--lambda", "1", "--points", "16",
                                    "--snr-db", "0", "--frames", "20", "--nr", "100000000",
                                    "--out", str(kept))
        assert code == 2 and stdout == ""
        assert err == ("configuration error: a fading block of 20 frames needs its "
                       "group-index draw and one window's arrays, 41600.3 MB, but only "
                       "1000.0 MB of memory is available\n")
        assert kept.read_bytes() == b"earlier results\n"

    def test_memory_check_counts_a_window_per_worker(self, capsys, monkeypatch, tmp_path):
        # 223 blocks of at most 9 frames, in chunks of 28 blocks (a window):
        # two workers hold a window each, 2 x block_bytes past a budget of 1.5
        budget = 1.5 * block_bytes(build_codebook(SimConfig(lam=2, m=16)), 9, 1)
        monkeypatch.setattr(codebook, "_available_bytes", lambda: budget)
        kept = tmp_path / "results.csv"
        kept.write_bytes(b"earlier results\n")
        args = ("simulate", "--lambda", "2", "--points", "16", "--snr-db", "10",
                "--coherence", "10", "--frames", "2000", "--out", str(kept))
        code, stdout, err = run_cli(capsys, *args, "--workers", "2")
        assert code == 2 and stdout == ""
        assert err.startswith("configuration error: a fading block of 9 frames needs its "
                              "group-index draw and one window's arrays in each of 2 "
                              "workers, ")
        assert kept.read_bytes() == b"earlier results\n"
        code, stdout, _ = run_cli(capsys, *args, "--workers", "1")
        assert code == 0 and stdout == ""
        assert kept.read_text().startswith(CSV_HEADER + "\n10,group,2000,")

    def test_json_is_strict(self, capsys):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        for m, ber in (("16", 0.0), ("1296", None)):
            code, out, _ = run_cli(capsys, "simulate", "--lambda", "2", "--points", m,
                                   "--snr-db", "inf", "--frames", "10", "--json")
            assert code == 0
            doc = json.loads(out, parse_constant=refuse)
            assert doc["config"]["snr_db"] == ["inf"]
            assert (doc["results"][0]["snr_db"], doc["results"][0]["ber"]) == ("inf", ber)

    @pytest.mark.parametrize("args", [
        ("--radii", "nan"), ("--radii", "inf"), ("--radii", "1,inf"),
        ("--radii", "1e200,1e300"), ("--radii", "1e-160,2e-160"),
    ])
    def test_bad_radii_are_config_errors(self, capsys, args):
        code, out, err = run_cli(capsys, "simulate", "--lambda", "2", "--points", "256",
                                 "--snr-db", "10", "--frames", "5", *args)
        assert code == 2 and out == ""
        assert err.startswith("configuration error: radii")

    @pytest.mark.parametrize("snr", ["4000", "-4000", "1e308"])
    def test_out_of_range_snr_is_config_error(self, capsys, snr):
        # the noise variance n / 10**(snr/10) must be a finite positive float
        code, out, err = run_cli(capsys, "simulate", "--lambda", "1", "--points", "16",
                                 f"--snr-db={snr}", "--frames", "5")
        assert code == 2 and out == ""
        assert err.startswith(f"configuration error: SNR {float(snr):g} dB gives a noise "
                              "variance outside the float range")

    @pytest.mark.parametrize("c", ["nan", "inf"])
    @pytest.mark.parametrize("command", [["simulate", "--snr-db", "10", "--frames", "5"],
                                         ["codebook", "verify"]])
    def test_non_finite_c_is_config_error(self, capsys, command, c):
        code, out, err = run_cli(capsys, *command, "--lambda", "2", "--points", "16",
                                 "--family", "hyperbola", "--c", c)
        assert code == 2 and out == ""
        assert err.startswith("configuration error: c must be finite")

    @pytest.mark.parametrize("command", [["simulate", "--snr-db", "10", "--frames", "5"],
                                         ["codebook", "verify"], ["signalset"]])
    @pytest.mark.parametrize("args, message", [
        (("--lambda", "2", "--points", "16", "--c", "nan"),
         "c applies to the hyperbola family only"),
        (("--lambda", "2", "--points", "16", "--c", "0.25"),
         "c applies to the hyperbola family only"),
        (("--lambda", "3", "--points", str(16**4), "--preset", "paper-8ant-rate2",
          "--radii", "1,2,3,4,5,6,7,8"), "a preset fixes the signal set"),
        (("--lambda", "2", "--points", "16", "--family", "hyperbola",
          "--radii", "0.8,1.16619037896906"), "expected 1 radii for 2 points per group, got 2"),
    ])
    def test_options_that_do_not_apply_are_config_errors(self, capsys, command, args,
                                                         message):
        code, out, err = run_cli(capsys, *command, *args)
        assert code == 2 and out == ""
        assert err.startswith(f"configuration error: {message}")

    def test_snr_list_forms(self):
        assert cli._parse_snr_list("0:20:4") == (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)
        assert cli._parse_snr_list("3") == (3.0,)
        assert cli._parse_snr_list("1,2.5,inf") == (1.0, 2.5, float("inf"))
        with pytest.raises(argparse.ArgumentTypeError, match="A:B:STEP"):
            cli._parse_snr_list("0:10")
        with pytest.raises(argparse.ArgumentTypeError, match="STEP must be positive"):
            cli._parse_snr_list("0:10:0")
        with pytest.raises(argparse.ArgumentTypeError, match="must be finite"):
            cli._parse_snr_list("0:inf:1")
        # (B - A) / STEP overflows to inf, which has no integer count
        with pytest.raises(argparse.ArgumentTypeError, match="SNR points"):
            cli._parse_snr_list("0:1:1e-320")
        with pytest.raises(argparse.ArgumentTypeError, match="SNR points"):
            cli._parse_snr_list("-1e308:1e308:1")
        assert cli._parse_snr_list("1e308:-1e308:1") == ()

    def test_snr_range_point_cap(self):
        assert len(cli._parse_snr_list(f"1:{cli.MAX_SNR_POINTS}:1")) == cli.MAX_SNR_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match="SNR points"):
            cli._parse_snr_list(f"0:{cli.MAX_SNR_POINTS}:1")

    @pytest.mark.parametrize("snr, reason", [
        # 10^12 points, or too many to count: refused before any tuple is built
        ("0:1e6:1e-6", "range gives more than 10000 SNR points"),
        ("0:1:1e-320", "range gives more than 10000 SNR points"),
        ("0:10:0", "STEP must be positive"),
        ("0:10", "range form is A:B:STEP"),
        ("0:inf:1", "range bounds and STEP must be finite"),
    ])
    def test_bad_snr_range_exits_2_with_its_reason(self, capsys, snr, reason):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--lambda", "2", "--points", "16",
                      "--snr-db", snr, "--frames", "10"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument --snr-db: {reason}\n")

    @pytest.mark.parametrize("snr", ["nan", "-inf", "0,nan,10"])
    def test_non_finite_snr_is_config_error(self, capsys, snr):
        code, out, err = run_cli(capsys, "simulate", "--lambda", "2", "--points", "16",
                                 f"--snr-db={snr}", "--frames", "10")
        assert code == 2 and "configuration error" in err and out == ""

    def test_group_decode_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(cfg):
            raise NotGroupDecodableError("nope")

        monkeypatch.setattr(cli, "run_sim", boom)
        code, _, err = run_cli(capsys, "simulate", "--lambda", "2", "--points", "16",
                               "--snr-db", "0", "--frames", "10")
        assert code == 3
        assert "verification failure" in err

    def test_config_error_exit(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--lambda", "2", "--points", "17",
                               "--snr-db", "0", "--frames", "10")
        assert code == 2 and "configuration error" in err


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transmogrify"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


#: Values that no option takes as they stand, or takes only at an edge: zero,
#: negatives, non-finite and extreme floats, and integers past 2^64.
EDGE_VALUES = ("0", "-1", "-16", "nan", "inf", "-inf", "1e308", "1e-320", str(2**64),
               str(2**64 + 1), str(3 * 2**70))


def _value(*usual):
    """One of the ``usual`` values of an option, or, about one time in eight,
    one of ``EDGE_VALUES``."""
    return st.tuples(st.sampled_from([False] * 7 + [True]), st.sampled_from(usual),
                     st.sampled_from(EDGE_VALUES)).map(lambda t: t[2] if t[0] else t[1])


def _option(flag, values):
    """The option with a value from ``values``, or no option at all."""
    return st.none() | values.map(lambda v: [flag, v])


#: The signal options of each kind of signal set, before any edge value: the
#: lambda, the M and the options that pick the set.  81 = 3^4 is a fourth
#: power of an odd integer, and 16^4 is the preset's M.  On the hyperbola
#: family, M 16 has one radius, 1, so c = 0.5 is the tangent r^2/2 and 0.75
#: lies past it; M 256 has radii 0.63 and 1.26, so 0.25 lies past the tangent.
SIGNAL_KINDS = {
    "axis": (("1", "2", "3", "4", "5", "6", "7"), ("16", "256", "1296", "4096", "15", "81"),
             st.just([])),
    "radii": (("1", "2", "3"), ("16", "256", "1296"),
              st.lists(_value("0.5", "1", "2", "3"), min_size=1, max_size=4)
              .map(lambda r: ["--radii", ",".join(r)])),
    "preset": (("3", "2"), ("65536", "16"),
               st.sampled_from([["--preset", "paper-8ant-rate2"],
                                ["--preset", "no-such-preset"]])),
    "hyperbola": (("2",), ("16", "256"),
                  _option("--c", _value("0.1", "0.25", "0.5", "0.75", "1"))
                  .map(lambda c: ["--family", "hyperbola"] + (c or []))),
}


@st.composite
def _argv(draw):
    """An argument vector for one of the four subcommands.  Sizes stay small
    where the value is valid: at most 16 points a group (no large axis-family
    ``codebook verify``), at most 20 frames and at most 2 workers; frames and
    workers get no large integers, which are valid and would run that long or
    fork that many processes."""
    command = draw(st.sampled_from(["design", "signalset", "codebook", "simulate"]))
    argv = [command] + (["verify"] if command == "codebook" else [])
    kind = draw(st.sampled_from(sorted(SIGNAL_KINDS)))
    lams, points, picks = SIGNAL_KINDS[kind]
    options = [_value(*lams).map(lambda v: ["--lambda", v])]
    if command == "design":
        options += [st.sampled_from([None, ["--print"]]),
                    st.sampled_from([None, ["--verify-groups"]])]
    else:
        # a kind's own options come last, so that they win over these
        options += [_value(*points).map(lambda v: ["--points", v]),
                    st.sampled_from([None] * 5 + [["--family", "square"], ["--c", "0.25"]]),
                    picks]
    if command == "codebook":
        options.append(_option("--seed", _value("0", "7")))
    if command == "simulate":
        options += [
            _value("10", "10", "inf", "0,inf", "-5:5:5", "4:10:3", "0:10:0", "5:0:1",
                   "0:1e308:1", "1:2", "x").map(lambda v: ["--snr-db", v]),
            # always given: the default is 10 000 frames
            st.sampled_from(["1", "7", "20", "20", "20", "0", "-1", "nan"]).map(
                lambda v: ["--frames", v]),
            _option("--target-errors", _value("1", "3")),
            _option("--nr", _value("1", "2")),
            _option("--coherence", _value("2", "3", "5")),
            _option("--decoder", st.sampled_from(["group", "exhaustive", "both", "fast"])),
            _option("--seed", _value("0", "7")),
            _option("--workers", st.sampled_from(["1", "2", "2", "2", "0", "-1", "nan"])),
            st.sampled_from([None, ["--json"]]),
        ]
    for option in options:
        argv += draw(option) or []
    return argv


class TestCliContract:
    """Any argument vector exits 0, 2 or 3 without a traceback; an exit 2
    prints argparse's usage error or one "configuration error:" line, and
    leaves ``--out`` untouched."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=_argv())
    def test_every_input_works_or_exits_with_its_code(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            kept = Path(tmp) / "results.csv"
            kept.write_bytes(b"earlier results\n")
            if argv[0] == "simulate":
                argv = [*argv, "--out", str(kept)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            err = err.getvalue()
            assert code in (0, 2, 3), (code, err)
            if code == 2:
                usage = err.startswith("usage: gdstbc") and "error:" in err
                assert usage or (err.startswith("configuration error:")
                                 and err.count("\n") == 1), err
                assert kept.read_bytes() == b"earlier results\n"
