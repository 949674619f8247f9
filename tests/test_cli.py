import argparse
import concurrent.futures
import hashlib
import io
import json
import math
import os
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

import oracles
from dualsync import cli, oscillator
from dualsync.cli import main
from dualsync.config import RETIRED_KEYS, ConfigError, parse_config
from dualsync.nodes import run_scenario


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    return comment, header, rows


BASE = "[run]\nduration_s = 0.4\nseed = 5\n[channel]\nsnr_db = 20\n"


class TestSimulate:
    def test_writes_timeseries(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = str(tmp_path / "out")
        assert run_cli("simulate", "--config", cfg, "--out", out, "--quiet") == 0
        comment, header, rows = read_csv(os.path.join(out, "timeseries.csv"))
        assert comment.startswith("# config_sha256=")
        assert "seed=5" in comment
        assert header == ["tick", "t_s", "theta_bf_minus_theta0_rad", "theta_out_rad",
                          "alpha_rad", "r1_rad", "r2_rad", "r3_rad", "r4_rad"]
        assert len(rows) == int(round(0.4 * 8e6 / 956))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_cli("simulate", "--config", cfg, "--out", out_a, "--quiet")
        run_cli("simulate", "--config", cfg, "--out", out_b, "--quiet")
        a = open(os.path.join(out_a, "timeseries.csv"), "rb").read()
        b = open(os.path.join(out_b, "timeseries.csv"), "rb").read()
        assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_cli("simulate", "--config", cfg, "--out", out_a, "--quiet")
        run_cli("simulate", "--config", cfg, "--out", out_b, "--seed", "6", "--quiet")
        a = open(os.path.join(out_a, "timeseries.csv"), "rb").read()
        b = open(os.path.join(out_b, "timeseries.csv"), "rb").read()
        assert a != b

    def test_emit_psd(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 8\nseed = 2\n[channel]\nsnr_db = 10\n"
            "[output]\nemit_psd = on\npsd_block_len = 4096\npsd_n_blocks = 8\n",
        )
        out = str(tmp_path / "out")
        assert run_cli("simulate", "--config", cfg, "--out", out, "--quiet") == 0
        _, header, rows = read_csv(os.path.join(out, "psd.csv"))
        assert header == ["offset_hz", "level_dbc_hz"]
        assert len(rows) == 4096 // 2


# sha256 of timeseries.csv from `simulate --seed 1`: the emitted bytes are
# the reproducibility contract, whatever builds the rows
SIMULATE_SHA256 = [
    ("[run]\nduration_s = 0.3\n[channel]\nsnr_db = 10\n",
     "2b9187da43d33aa188ac5f9b424d04771b186f67d50241eeb9dd5487d379b920"),
    ("[run]\nduration_s = 0.3\nwrap_compensation = off\n[channel]\n"
     "loop_latency_ticks = 3\ndual_carrier = off\ndoppler_hz = 1.5\ntau_s = 3.3e-7\n",
     "799b1f4b56e88ad97b0d7d921b18418a055f0af0fb60479e37843920077682b9"),
    ("[run]\nduration_s = 0.3\nwrap_compensation = off\n[channel]\nsnr_db = 10\n"
     "loop_latency_ticks = 3\ndual_carrier = off\ndoppler_hz = 1.5\ntau_s = 3.3e-7\n",
     "137916d18dece409216d25a7661a106c8f40ad6a89728ba630023730d25aa536"),
]


@pytest.mark.parametrize("text, digest", SIMULATE_SHA256)
def test_timeseries_bytes_are_pinned(tmp_path, text, digest):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--out", str(out), "--seed", "1",
                   "--quiet") == 0
    assert hashlib.sha256((out / "timeseries.csv").read_bytes()).hexdigest() == digest


# sha256 of the clock PSDs at seed 1 as the one-shot (3, n) synthesis wrote
# them, which the chunked numpy synthesis and then the one-pass C synthesis
# kept: fit-noise's defaults synthesize 65,536 samples, the spectrum config
# 163,840
CLOCK_PSD_SHA256 = [
    ("fit-noise", "", {
        "psd_master.csv": "bbf5549abe652c73f0f631fbe6b1c7a896203dd0c7c793e29eaf69c04fbe6501",
        "psd_follower.csv": "a34244e5d8f6ccaf0c2ba611aaa29feee29253149e318128febbabef6fddc179",
    }),
    ("spectrum", "[output]\npsd_source = follower_clock\npsd_block_len = 4096\n"
                 "psd_n_blocks = 40\n", {
        "psd.csv": "1d59ee967e68daf86fd3bc87022761f9719b1db98c2cc4889ecd014e9fa44773",
    }),
]


@pytest.mark.parametrize("command, text, digests", CLOCK_PSD_SHA256)
def test_clock_psd_bytes_are_pinned(tmp_path, command, text, digests):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out), "--seed", "1",
                   "--quiet") == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


# sha256 of `spectrum`'s psd.csv at seed 1 for each ring series a PSD may
# read, and of a fig22-style jumps file: rings that record no discriminator
# series must give the bytes the full ring gave
RING_PSD_SHA256 = [
    ("[run]\nduration_s = 2\n[channel]\nsnr_db = 10\n[output]\n"
     "psd_source = theta_bf_minus_theta0\npsd_block_len = 2048\npsd_n_blocks = 8\n",
     "b609d93b989b660df46cdcaeacf6124d65eaeafcc26dcec5f180ab89f0cc0f02"),
    ("[run]\nduration_s = 2\nwrap_compensation = off\n[channel]\nsnr_db = 20\n"
     "loop_latency_ticks = 2\ndoppler_hz = 0.5\ntau_s = 3.3e-7\n[output]\n"
     "psd_source = theta_out\npsd_block_len = 2048\npsd_n_blocks = 8\n",
     "84b041910a7ec7d61a18a927e45947e3ec2e926d3360d743928e2179958f8afe"),
    ("[run]\nduration_s = 2\n[channel]\nsnr_db = 5\ndual_carrier = off\n[follower]\n"
     "freq_offset_hz = 3\n[output]\npsd_source = alpha\npsd_block_len = 2048\n"
     "psd_n_blocks = 8\n",
     "6183fcec5f4bda20401593c2995867d363bcd13848c46300495050b6197fd539"),
]
JUMPS_CONFIG = ("[run]\nduration_s = 10\nwrap_compensation = off\nideal_clocks = on\n"
                "[channel]\nsnr_db = 10\ndoppler_hz = 1\ntau_s = 1.875e-8\n")
JUMPS_SHA256 = "643f6e2d1791d2dc911a7882a144c4f055acce48744d7d1da18e17e094aee441"


@pytest.mark.parametrize("text, digest", RING_PSD_SHA256)
def test_ring_psd_bytes_are_pinned(tmp_path, text, digest):
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli("spectrum", "--config", cfg, "--out", str(out), "--seed", "1",
                   "--quiet") == 0
    assert hashlib.sha256((out / "psd.csv").read_bytes()).hexdigest() == digest


def test_jumps_bytes_are_pinned(tmp_path):
    # 38 quarter-turn jumps in 10 s; only fig22 writes a jumps file
    path = tmp_path / "jumps.csv"
    cli._emit(cli.parse_config(JUMPS_CONFIG), jumps=str(path))
    data = path.read_bytes()
    assert data.count(b"\n") == 2 + 38
    assert hashlib.sha256(data).hexdigest() == JUMPS_SHA256


@pytest.mark.parametrize("kinds, discriminators", [
    (("timeseries",), True), (("psd",), False), (("jumps",), False),
    (("timeseries", "psd", "jumps"), True),
])
def test_emit_records_discriminators_only_for_timeseries(tmp_path, monkeypatch, kinds,
                                                         discriminators):
    runs = []

    def run(scn, seed, **kw):
        result = run_scenario(scn, seed, **kw)
        runs.append(result)
        return result

    monkeypatch.setattr(cli, "run_scenario", run)
    cfg = cli.parse_config("[run]\nduration_s = 0.2\n[output]\npsd_block_len = 256\n"
                           "psd_n_blocks = 4\n")
    cli._emit(cfg, **{kind: str(tmp_path / f"{kind}.csv") for kind in kinds})
    (result,) = runs
    assert (result.r1 is not None) is discriminators
    assert all(os.path.exists(tmp_path / f"{kind}.csv") for kind in kinds)


def test_one_window_per_process(tmp_path, monkeypatch):
    # each (length, attenuation) window is built once per process: fit-noise
    # twice builds the 4096-sample 120 dB window once, and fig13's two PSDs
    # and fig14 after them build the 2^17-sample 300 dB window once
    # (the window is what this counts; zero clock series stand in), also
    # when fig13's two runs, on two threads, ask for it at the same time
    monkeypatch.setattr(cli.nodes, "_clock_series", lambda scn, seed, side, n: np.zeros(n))
    cheb_window = cli.spectral.cheb_window
    cheb_window.cache_clear()
    built = []
    for i, argv in enumerate([["fit-noise"], ["fit-noise"],
                              ["reproduce", "fig13", "--workers", "2"],
                              ["reproduce", "fig14"]]):
        assert run_cli(*argv, "--out", str(tmp_path / f"out{i}"), "--quiet") == 0
        built.append(cheb_window.cache_info().misses)
    assert built == [1, 1, 2, 2]
    assert cheb_window(2**17, 300.0) is cheb_window(2**17, 300)
    assert cheb_window.cache_info().misses == 2


# sha256 at seed 1 of artifacts whose code moved between modules: the
# loop transfer function, the delay margin and fig13's clock pipeline
ANALYSIS_SHA256 = [
    (["bode"], {
        "bode.csv": "c6083c6461fd8fb56d3ce87f23cc3b5bdbbce9e306a63b27f23d35c9428ff3c7",
    }),
    (["delay-margin"], {
        "delay_margin.csv": "df4110e5a88e067963e6c5c3983d4f882932420a78b30b72ecc6742d5e63b1ff",
    }),
    (["reproduce", "fig13"], {
        "psd_master.csv": "895d54b7747faa2b7b7c0e041eed3b818d93998a3df348e8cd8550d525551a67",
        "psd_follower.csv": "22cba804c73cff3dd9fb9a0bb1a0d0ea89cbd84f67490248868a3ca80e9173a1",
    }),
]


@pytest.mark.parametrize("argv, digests", ANALYSIS_SHA256)
def test_analysis_bytes_are_pinned(tmp_path, argv, digests):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out), "--seed", "1", "--quiet") == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


# modules that only some commands need, each imported where it runs:
# scipy's solver by mask fits and numpy's polynomial module by bode and
# delay-margin; and modules that no command needs, since sweep runs its
# points on threads: the process pool and multiprocessing
DEFERRED_MODULES = ("multiprocessing", "concurrent.futures.process", "numpy.polynomial", "scipy")


def test_import_loads_only_what_every_command_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys, dualsync.cli\n"
             f"print([m for m in {DEFERRED_MODULES!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


# the scipy modules that mask fits loaded with scipy.optimize before they
# called its compiled solver by file
SCIPY_SOLVER_MODULES = ("scipy.optimize", "scipy.linalg", "scipy.sparse")


def test_clocked_commands_load_no_scipy_solver_module(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    cfg = write_config(tmp_path, "[run]\nduration_s = 2\n"
                                 "[output]\npsd_block_len = 2048\npsd_n_blocks = 4\n")
    out = str(tmp_path / "out")
    probe = ("import sys\nfrom dualsync.cli import main\n"
             "for command in ('simulate', 'fit-noise', 'spectrum'):\n"
             f"    assert main([command, '--config', {cfg!r}, '--out', {out!r} + command,\n"
             "                 '--quiet']) == 0\n"
             f"print([m for m in {SCIPY_SOLVER_MODULES!r} if m in sys.modules],\n"
             f"      {oscillator._NNLS_MODULE!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    assert proc.stdout == "[] True\n"


class TestParser:
    # main builds the argparse parser on the first call of a process and
    # parses every later argv with that one

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        probe = "import dualsync.cli\nprint(dualsync.cli.build_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
        assert proc.stdout == "0\n"

    def test_main_calls_share_one_parser(self, tmp_path, monkeypatch):
        parsers = []
        real = argparse.ArgumentParser.parse_args

        def parse_args(self, *args, **kwargs):
            parsers.append(self)
            return real(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_args)
        for out in ("a", "b"):
            assert run_cli("bode", "--out", str(tmp_path / out), "--quiet") == 0
        assert len(parsers) == 2
        assert parsers[0] is parsers[1] is cli.build_parser()
        assert cli.build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv, message", [
        (["bode", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
        ([], "the following arguments are required: command"),
    ])
    def test_bad_argv_after_a_good_one_exits_2(self, argv, message, tmp_path, capsys):
        assert run_cli("bode", "--out", str(tmp_path / "a"), "--quiet") == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: dualsync") and f"error: {message}" in err
        # and the parser still parses a good argv
        assert run_cli("bode", "--out", str(tmp_path / "b"), "--quiet") == 0


class TestAnalysisCommands:
    def test_bode_csv(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("bode", "--out", out, "--quiet") == 0
        _, header, rows = read_csv(os.path.join(out, "bode.csv"))
        assert header == ["tf_id", "freq_hz", "mag_db", "phase_deg"]
        ids = {r[0] for r in rows}
        assert ids == {"out_from_0", "out_from_x", "bf_from_0", "bf_from_x"}
        assert len(rows) == 4 * 600

    def test_delay_margin_monotone(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("delay-margin", "--out", out, "--quiet") == 0
        _, header, rows = read_csv(os.path.join(out, "delay_margin.csv"))
        assert header == ["omega_n_hz", "margin_s"]
        assert len(rows) == cli.MARGIN_GRID_POINTS == 25
        margins = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(margins, margins[1:]))

    def test_delay_margin_reads_both_dampings(self, tmp_path):
        from dualsync.linear_analysis import delay_margin

        cfg = write_config(tmp_path, "[master]\nzeta_m = 0.8\n[follower]\nzeta_s = 0.5\n")
        out = str(tmp_path / "out")
        assert run_cli("delay-margin", "--config", cfg, "--out", out, "--quiet") == 0
        _, _, rows = read_csv(os.path.join(out, "delay_margin.csv"))
        assert len(rows) == 25
        grid = np.array([float(f) for f, _ in rows])
        assert [float(m) for _, m in rows] == delay_margin(0.8, grid, 0.5, grid).tolist()

    def test_fit_noise_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path, "[output]\npsd_block_len = 8192\npsd_n_blocks = 8\n"
        )
        out = str(tmp_path / "out")
        assert run_cli("fit-noise", "--config", cfg, "--out", out, "--quiet") == 0
        _, header, rows = read_csv(os.path.join(out, "noise_fit.csv"))
        assert header[0] == "node"
        assert {r[0] for r in rows} == {"master", "follower"}
        assert os.path.exists(os.path.join(out, "psd_master.csv"))
        assert os.path.exists(os.path.join(out, "psd_follower.csv"))

    def test_spectrum_of_clock(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[output]\npsd_source = follower_clock\npsd_block_len = 8192\npsd_n_blocks = 8\n",
        )
        out = str(tmp_path / "out")
        assert run_cli("spectrum", "--config", cfg, "--out", out, "--quiet") == 0
        assert os.path.exists(os.path.join(out, "psd.csv"))


@pytest.mark.parametrize("block_len", [33, 64, 1001, 4096])
def test_streamed_clock_psds_are_the_psds_of_the_series(tmp_path, monkeypatch, block_len):
    # spectrum's and fit-noise's clock PSDs read each clock a block at a
    # time; with the whole series drawn first they have the same bytes
    cfg = write_config(tmp_path, f"[output]\npsd_source = master_clock\n"
                                 f"psd_block_len = {block_len}\npsd_n_blocks = 5\n")
    files = {"spectrum": ["psd.csv"], "fit-noise": ["psd_master.csv", "psd_follower.csv"]}

    def written(tag):
        for command in files:
            assert run_cli(command, "--config", cfg, "--out", str(tmp_path / tag / command),
                           "--quiet") == 0
        return {name: (tmp_path / tag / command / name).read_bytes()
                for command, names in files.items() for name in names}

    streamed = written("streamed")
    clock_series, synthesize_phase = cli.nodes._clock_series, cli.synthesize_phase
    monkeypatch.setattr(cli.nodes, "_clock_series",
                        lambda scn, seed, side, n: clock_series(scn, seed, side, n).read(n))
    monkeypatch.setattr(cli, "synthesize_phase",
                        lambda params, n, rng, stream: synthesize_phase(params, n, rng))
    assert written("whole") == streamed


# files a command writes beyond its COMMANDS row: psd.csv beside the time
# series with output.emit_psd on, the verification PSDs beside noise_fit.csv
BESIDE_ROW = {"simulate": ["psd.csv"], "fit-noise": ["psd_master.csv", "psd_follower.csv"]}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_writes_its_row_and_names_every_file(command, tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nduration_s = 0.2\n[output]\nemit_psd = on\n"
                                 "psd_block_len = 32\npsd_n_blocks = 8\n")
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg, "--out", str(out)) == 0
    names = [*cli.COMMANDS[command][1].values(), *BESIDE_ROW.get(command, [])]
    assert sorted(os.listdir(out)) == sorted(names)
    line = capsys.readouterr().out
    assert line.startswith("wrote ") and line.endswith("\n")
    assert sorted(line[len("wrote "):-1].split(", ")) == sorted(str(out / n) for n in names)


# --workers of the sweep tests: one thread, more threads than this host's
# cores, and the default (None), the usable cores
WORKER_COUNTS = (1, 3, None)


def worker_args(workers):
    return () if workers is None else ("--workers", str(workers))


def seed_grid(tmp_path, n_points):
    values = ", ".join(str(seed) for seed in range(1, n_points + 1))
    return write_config(tmp_path, "[run]\nduration_s = 0.01\n"
                        f"[sweep]\nkey = run.seed\nvalues = {values}\n")


def stand_in_pool(monkeypatch):
    """Replace the thread pool with one that records its size and runs each
    task when it is submitted; returns the list of sizes."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    # cmd_sweep imports the pool class from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return sizes


class TestSweep:
    def test_sweep_grid_and_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.2\n[sweep]\nkey = channel.snr_db\nvalues = 0, 10, 20\n",
        )
        out = str(tmp_path / "out")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--quiet") == 0
        _, header, rows = read_csv(os.path.join(out, "manifest.csv"))
        assert header == ["index", "key", "value", "directory", "seed"]
        assert len(rows) == 3
        for row in rows:
            assert os.path.exists(os.path.join(row[3], "timeseries.csv"))

    def test_sweep_fits_each_mask_once(self, tmp_path, monkeypatch):
        # masks no other test fits, so the per-process memo starts without them
        nnls, calls = oscillator._nnls, []

        def counted(*args):
            calls.append(args)
            return nnls(*args)
        monkeypatch.setattr(oscillator, "_nnls", counted)
        cfg = write_config(
            tmp_path,
            "[master]\nmask = [(1, -86.5), (10, -126.5), (10000, -161.5)]\n"
            "[follower]\nmask = [(1, -71.5), (10, -101.5), (10000, -141.5)]\n"
            "[run]\nduration_s = 0.05\n[sweep]\nkey = run.seed\nvalues = 1, 2, 3, 4\n",
        )
        out = str(tmp_path / "out")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--quiet") == 0
        assert len(calls) == 2
        # the ring, the CLI and the library share the one memoised fit
        assert cli.fit_two_state is cli.nodes.fit_two_state is oscillator.fit_two_state

    def test_bool_grid_manifest_writes_1_and_0(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = run.ideal_clocks\nvalues = on, off\n",
        )
        out = str(tmp_path / "out")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--quiet") == 0
        _, _, rows = read_csv(os.path.join(out, "manifest.csv"))
        assert [row[2] for row in rows] == ["1", "0"]

    def test_seed_beyond_int64_is_written_in_full(self, tmp_path):
        # "1e19" parses to an int past int64; the manifest writes all its digits
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = run.seed\n"
            "values = 1, 10000000000000000000\n",
        )
        out = str(tmp_path / "out")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--quiet") == 0
        _, _, rows = read_csv(os.path.join(out, "manifest.csv"))
        assert [(row[2], row[4]) for row in rows] == [("1", "1"),
                                                      ("10000000000000000000",) * 2]

    # a seed in the file, and one from --seed through with_values: float()
    # would have run and written ...992 and ...808
    @pytest.mark.parametrize("in_file, argv, seed", [
        ("seed = 9007199254740993\n", [], 9007199254740993),
        ("", ["--seed", "9223372036854775809"], 9223372036854775809),
    ])
    def test_seed_past_2_53_is_run_and_written_exactly(self, tmp_path, monkeypatch,
                                                       in_file, argv, seed):
        seeds = []

        def run(scn, s, **kw):
            seeds.append(s)
            return run_scenario(scn, s, **kw)

        monkeypatch.setattr(cli, "run_scenario", run)
        cfg = write_config(tmp_path, f"[run]\nduration_s = 0.05\n{in_file}"
                                     "[sweep]\nkey = channel.snr_db\nvalues = 10, 20\n")
        out = str(tmp_path / "out")
        assert run_cli("sweep", "--config", cfg, *argv, "--out", out, "--quiet") == 0
        assert seeds == [seed, seed]
        comment, _, rows = read_csv(os.path.join(out, "manifest.csv"))
        assert comment.endswith(f" seed={seed}\n")
        assert [row[4] for row in rows] == [str(seed)] * 2
        comment, _, _ = read_csv(os.path.join(out, "sweep_001", "timeseries.csv"))
        assert comment.endswith(f" seed={seed}\n")

    def test_sweep_requires_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\nduration_s = 0.2\n")
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    # each point writes to its own sweep_NNN, and psd.csv only with emit_psd:
    # these keys would write the same ring at every point
    @pytest.mark.parametrize("key, values, emit_psd", [
        pytest.param(key, values, emit_psd, id=key) for key, values, emit_psd in [
            ("output.directory", "a, b", "on"),
            ("sweep.key", "run.seed, channel.snr_db", "on"),
            ("sweep.values", "1, 2", "on"),
            ("output.psd_block_len", "32, 64", "off"),
            ("output.psd_n_blocks", "8, 16", "off"),
            ("output.psd_source", "alpha, theta_out", "off"),
            ("output.psd_window_atten_db", "80, 120", "off"),
        ]
    ])
    def test_key_that_changes_no_grid_point_exits_2(self, key, values, emit_psd, tmp_path,
                                                    capsys):
        reason = " while output.emit_psd = off" if emit_psd == "off" else ""
        cfg = write_config(
            tmp_path,
            f"[run]\nduration_s = 0.2\n[output]\nemit_psd = {emit_psd}\npsd_block_len = 32\n"
            f"psd_n_blocks = 8\n[sweep]\nkey = {key}\nvalues = {values}\n",
        )
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config",
                       "detail": [f"sweep.key {key} changes no grid point{reason}"]}
        assert not (out / "sweep_000").exists()

    def test_psd_key_sweeps_with_emit_psd_on(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.2\n[output]\nemit_psd = on\npsd_n_blocks = 8\n"
            "[sweep]\nkey = output.psd_block_len\nvalues = 32, 64\n",
        )
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 0
        for i, block in enumerate((32, 64)):
            _, _, rows = read_csv(out / f"sweep_{i:03d}" / "psd.csv")
            assert len(rows) == block // 2

    def test_sweep_points_are_validated(self, tmp_path, capsys):
        # a grid point must pass the same checks as a config file
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = run.decimation\n"
            "values = 956, 16\n",
        )
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"] == ["sweep value 16: run.decimation must exceed framing.pilot_len"]
        assert not (out / "sweep_000").exists()

    def test_sweep_over_decimation(self, tmp_path):
        # each grid point runs at its own tick rate, baud_hz/run.decimation
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = run.decimation\nvalues = 512, 956\n",
        )
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 0
        _, _, rows = read_csv(out / "manifest.csv")
        assert [row[2] for row in rows] == ["512", "956"]
        for i, decimation in enumerate((512, 956)):
            _, _, series = read_csv(out / f"sweep_{i:03d}" / "timeseries.csv")
            assert len(series) == round(0.05 * 8e6 / decimation)

    def test_sweep_psd_follows_psd_source(self, tmp_path):
        # a grid point writes the same psd.csv as simulate of its config
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 1.2\nseed = 3\n[output]\nemit_psd = on\n"
            "psd_source = alpha\npsd_block_len = 512\npsd_n_blocks = 16\n"
            "[sweep]\nkey = run.seed\nvalues = 3\n",
        )
        sim_out, sweep_out = tmp_path / "sim", tmp_path / "sweep"
        assert run_cli("simulate", "--config", cfg, "--out", str(sim_out), "--quiet") == 0
        assert run_cli("sweep", "--config", cfg, "--out", str(sweep_out), "--quiet") == 0
        sim = (sim_out / "psd.csv").read_text().splitlines()[1:]
        point = (sweep_out / "sweep_000" / "psd.csv").read_text().splitlines()[1:]
        assert len(sim) == 512 // 2 + 1
        assert point == sim

    def test_parallel_sweep_matches_sequential(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nduration_s = 0.1\n[sweep]\n"
                           "key = follower.omega_s_hz\nvalues = 50, 120, 80\n")
        files = {}
        for workers in WORKER_COUNTS:
            out = tmp_path / str(workers)
            assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet",
                           *worker_args(workers)) == 0
            files[workers] = [(out / f"sweep_{i:03d}" / "timeseries.csv").read_bytes()
                              for i in range(3)]
        assert files[3] == files[1] and files[None] == files[1]

    def test_parallel_sweep_from_an_empty_kernel_cache(self, tmp_path):
        # a copy of the package has no compiled library yet: in a default
        # sweep of a fresh process two threads race for the first build, and
        # the library is built once and loaded by every later process
        package = tmp_path / "src" / "dualsync"
        shutil.copytree(os.path.dirname(cli.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cfg = write_config(tmp_path, "[run]\nduration_s = 0.1\n[sweep]\n"
                           "key = follower.omega_s_hz\nvalues = 50, 120, 80\n")
        env = dict(os.environ, PYTHONPATH=str(package.parent))
        for workers in (None, 1):
            subprocess.run([sys.executable, "-m", "dualsync.cli", "sweep", "--config", cfg,
                            "--out", str(tmp_path / str(workers)), "--quiet",
                            *worker_args(workers)], env=env, check=True)
        libraries = [p.name for p in (package / "__pycache__").iterdir()
                     if not p.name.endswith(".pyc")]
        assert [name.split("-")[0] for name in libraries] == ["_native"], libraries
        assert all(name.endswith(".so") for name in libraries), libraries
        for i in range(3):
            point = f"sweep_{i:03d}"
            assert sorted(os.listdir(tmp_path / "None" / point)) == ["timeseries.csv"]
            assert ((tmp_path / "None" / point / "timeseries.csv").read_bytes()
                    == (tmp_path / "1" / point / "timeseries.csv").read_bytes())

    def test_a_threaded_sweep_loads_no_process_pool(self, tmp_path):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        cfg = write_config(tmp_path, "[run]\nduration_s = 0.05\n[sweep]\n"
                           "key = run.seed\nvalues = 1, 2, 3\n")
        probe = ("import sys\nfrom dualsync.cli import main\n"
                 f"assert main(['sweep', '--config', {cfg!r}, '--out', "
                 f"{str(tmp_path / 'out')!r}, '--quiet', '--workers', '3']) == 0\n"
                 f"assert main(['sweep', '--config', {cfg!r}, '--out', "
                 f"{str(tmp_path / 'out')!r}, '--quiet']) == 0\n"
                 "print('concurrent.futures.thread' in sys.modules,\n"
                 "      [m for m in ('multiprocessing', 'concurrent.futures.process')\n"
                 "       if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
        assert proc.stdout == "True []\n"

    @pytest.mark.filterwarnings("ignore:.*:UserWarning")
    def test_parallel_sweep_reports_divergence_as_sequential(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 1\nideal_clocks = on\n[master]\nomega_m_hz = 4000\n"
            "[follower]\nomega_s_hz = 4000\ninitial_phase_deg = 60\n"
            "[sweep]\nkey = run.seed\nvalues = 1, 2, 3\n",
        )
        errors = []
        for workers in WORKER_COUNTS:
            assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / str(workers)),
                           "--quiet", *worker_args(workers)) == 3
            errors.append(capsys.readouterr().err)
        assert errors[1] == errors[0] and errors[2] == errors[0]
        assert json.loads(errors[0]) == {
            "error": "divergence", "tick": 5069,
            "detail": "scenario diverged at tick 5069 (phase beyond 1e+06 rad or NaN)"}

    @pytest.mark.filterwarnings("ignore:.*:UserWarning")
    def test_diverged_sweep_leaves_the_same_files_for_any_worker_count(self, tmp_path,
                                                                       capsys):
        # every point runs, and the first diverged point's error is raised
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 1\nideal_clocks = on\n[follower]\ninitial_phase_deg = 60\n"
            "[sweep]\nkey = master.omega_m_hz\nvalues = 4000, 100, 100\n",
        )
        trees, errors = [], []
        for workers in WORKER_COUNTS:
            out = tmp_path / str(workers)
            assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet",
                           *worker_args(workers)) == 3
            errors.append(json.loads(capsys.readouterr().err))
            trees.append({str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
                          for p in out.rglob("*")})
        assert errors[0] == errors[1] == errors[2]
        assert errors[0]["tick"] == 2571
        assert trees[0] == trees[1] == trees[2]
        assert sorted(trees[0]) == ["sweep_000", "sweep_001", "sweep_001/timeseries.csv",
                                    "sweep_002", "sweep_002/timeseries.csv"]

    def test_pool_has_at_most_one_worker_per_point(self, tmp_path, monkeypatch):
        # the calling thread takes points too, so the pool has one thread
        # fewer than the points
        sizes = stand_in_pool(monkeypatch)
        for n_points, workers, size in [(3, 8, 2), (4, 8, 3), (3, 2, 1), (1, 4, None),
                                        (3, 1, None)]:
            sizes.clear()
            assert run_cli("sweep", "--config", seed_grid(tmp_path, n_points), "--out",
                           str(tmp_path / "o"), "--quiet", "--workers", str(workers)) == 0
            assert sizes == ([] if size is None else [size])

    def test_default_workers_are_the_usable_cores(self, tmp_path, monkeypatch):
        sizes = stand_in_pool(monkeypatch)
        cfg = seed_grid(tmp_path, 5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 0
        # where the affinity call is missing, the cores the system has
        monkeypatch.delattr(os, "sched_getaffinity")
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 0
        # 3 and 8 threads for 5 points: 3 and 5 threads
        assert sizes == [2, 4]

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, workers, tmp_path, capsys):
        cfg = write_config(tmp_path, "[sweep]\nkey = run.seed\nvalues = 1\n")
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet",
                       "--workers", workers) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "detail": f"--workers must be >= 1, got {workers}"}
        assert not out.exists()


# sha256 of configs.txt at seed 1: the recipes' configs are part of the
# reproducibility contract
RECIPE_CONFIGS_SHA256 = {
    "fig13": "909383a6f45561fb0560849e5f58723c020452fe2214c1894eadc539945d7580",
    "fig14": "1299d0b7cbd29ec7225cf9044b21838c7d63d4d4c3a21e7aad50d3a4ec5b70a3",
    "fig15": "893eda015a650cb8e80a12008142ef8f4b5aff98507a7f8b5107c5a582c38bc1",
    "fig16": "958db78ad86bf06bec9ed2dfd8c8314bdaef58c85d62dd19b186921dd411d264",
    "fig17": "8918ef4829ec928e4498ca33e44bf23e65f90c4b748b6d897e4c79116c9f7a27",
    "fig18": "d467751bc99b51731a61fbb67ebff41669c4be7af58d8e95cf717a34a251959a",
    "fig19": "75abe7bdb35268cea5f8303727f95502e6d84503b278e568124137c126565f1b",
    "fig20": "2545ac77203e4c08e71aeb18d59e52142d3f8d6bc0e294f73ca4855d68a6a1a7",
    "fig21": "4efc56ffd4e6f9e3c95caae24fa5894958efa0d216758754e6f0d8167412a167",
    "fig22": "819b24d989532ac0cd5f0a2fc71bfc09435db29c1d2c771b0ebf5b2ba0a0f61e",
}


# sha256 of fig14's window_response.csv at the default seed, and of its
# lines after the stamp, which hashes the config that sets the window
FIG14_SHA256 = "7432ce9dd2cd10c59c95693f94c4fe37c539e9569f124333007af1119090c5fe"
FIG14_BODY_SHA256 = "cb96ab706744d79ae535b73869599e6875191cdb534fa0837151f932916c4268"


class TestReproduce:
    def test_every_recipe_is_pinned(self):
        assert set(cli.RECIPES) == set(RECIPE_CONFIGS_SHA256)

    @pytest.mark.parametrize("fig", sorted(RECIPE_CONFIGS_SHA256))
    def test_recipe_configs(self, fig, tmp_path, monkeypatch):
        # the runs themselves take up to minutes; record what would be written
        requested = []

        def record(cfg, **paths):
            requested.append(paths)

        monkeypatch.setattr(cli, "_emit", record)
        want = [str(tmp_path / "{}" / name)
                for files, _ in cli.RECIPES[fig] for name in files.values()]
        # one worker requests the files in recipe order
        out = tmp_path / "1"
        assert run_cli("reproduce", fig, "--out", str(out), "--seed", "1", "--quiet",
                       "--workers", "1") == 0
        digest = hashlib.sha256((out / "configs.txt").read_bytes()).hexdigest()
        assert digest == RECIPE_CONFIGS_SHA256[fig]
        assert [p for r in requested for p in r.values()] == [p.format(1) for p in want]
        # the default workers start runs in any order, but request the same files
        requested.clear()
        out = tmp_path / "default"
        assert run_cli("reproduce", fig, "--out", str(out), "--seed", "1", "--quiet") == 0
        assert (out / "configs.txt").read_bytes() == (tmp_path / "1" / "configs.txt").read_bytes()
        assert sorted(p for r in requested for p in r.values()) == sorted(
            p.format("default") for p in want)

    def test_runs_write_the_same_bytes_on_any_worker_count(self, tmp_path, monkeypatch,
                                                           capsys):
        # fig13 as it is, and fig17 with 0.5 s rings
        monkeypatch.setitem(cli.RECIPES, "fig17", [
            (files, {**overrides, "run.duration_s": 0.5})
            for files, overrides in cli.RECIPES["fig17"]])
        for fig in ("fig13", "fig17"):
            first_files = [next(iter(files.values())) for files, _ in cli.RECIPES[fig]]
            names = [name for files, _ in cli.RECIPES[fig] for name in files.values()]
            trees = []
            for workers in (1, 2, None):
                out = tmp_path / fig / str(workers)
                assert run_cli("reproduce", fig, "--out", str(out), "--seed", "1",
                               *worker_args(workers)) == 0
                # the files in recipe order, then configs.txt
                assert capsys.readouterr().out == "wrote " + ", ".join(
                    str(out / name) for name in [*names, "configs.txt"]) + "\n"
                configs = (out / "configs.txt").read_text().splitlines()
                assert [line[2:].split(" (sha256")[0] for line in configs
                        if line.startswith("# ")] == first_files
                trees.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert trees[0] == trees[1] == trees[2]
            assert sorted(trees[0]) == sorted([*names, "configs.txt"])

    @pytest.mark.filterwarnings("ignore:.*:UserWarning")
    def test_every_run_runs_and_the_first_error_is_raised(self, tmp_path, monkeypatch,
                                                           capsys):
        # run 0 diverges at tick 2571 (as in the sweep tests), run 1 does not;
        # no configs.txt is written
        ring = {"run.duration_s": 1, "run.ideal_clocks": "on",
                "follower.initial_phase_deg": 60}
        monkeypatch.setitem(cli.RECIPES, "fig99", [
            ({"timeseries": f"timeseries_w{w}.csv"}, {**ring, "master.omega_m_hz": w})
            for w in (4000, 100)])
        trees = []
        for workers in (1, 2, None):
            out = tmp_path / str(workers)
            assert run_cli("reproduce", "fig99", "--out", str(out), "--quiet",
                           *worker_args(workers)) == 3
            assert json.loads(capsys.readouterr().err)["tick"] == 2571
            trees.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert trees[0] == trees[1] == trees[2]
        assert sorted(trees[0]) == ["timeseries_w100.csv"]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, workers, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("reproduce", "fig14", "--out", str(out), "--quiet",
                       "--workers", workers) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "detail": f"--workers must be >= 1, got {workers}"}
        assert not out.exists()

    def test_fig17_emits_both_bandwidths(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("reproduce", "fig17", "--out", out, "--quiet") == 0
        header = (",".join(cli.TIMESERIES_HEADER) + "\n").encode()
        for omega in (10, 100):
            # each file is 1,004,184 rows: count them instead of splitting them
            with open(os.path.join(out, f"timeseries_snr10_w{omega}.csv"), "rb") as fh:
                assert fh.readline().startswith(b"# config_sha256=")
                assert fh.readline() == header
                rows = sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))
            assert rows == int(round(120 * 8e6 / 956))

    def test_fig22_detects_quarter_turn_jumps(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("reproduce", "fig22", "--out", out, "--quiet") == 0
        _, header, rows = read_csv(os.path.join(out, "jumps_snrinf.csv"))
        assert header == ["tick", "t_s", "magnitude_rad"]
        assert len(rows) >= 10
        for row in rows:
            assert abs(float(row[2])) == pytest.approx(math.pi / 2, abs=1e-9)
        assert os.path.exists(os.path.join(out, "configs.txt"))

    def test_fig14_window_response(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("reproduce", "fig14", "--out", out, "--quiet") == 0
        _, _, rows = read_csv(os.path.join(out, "window_response.csv"))
        levels = np.array([float(r[1]) for r in rows])
        assert levels[0] == 0.0
        assert np.min(levels) < -290
        data = (tmp_path / "out" / "window_response.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == FIG14_SHA256
        body = data.split(b"\n", 1)[1]
        assert hashlib.sha256(body).hexdigest() == FIG14_BODY_SHA256
        assert (tmp_path / "out" / "configs.txt").exists()

    def test_files_get_the_mode_the_umask_gives(self, tmp_path, monkeypatch):
        # the 2^17-sample window is not what this checks; a cheaper one stands in
        monkeypatch.setattr(cli.spectral, "cheb_window", lambda n, atten_db: np.hanning(n))
        umask = os.umask(0o027)
        try:
            assert run_cli("reproduce", "fig14", "--out", str(tmp_path), "--quiet") == 0
        finally:
            os.umask(umask)
        for name in ("window_response.csv", "configs.txt"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o666 & ~0o027, name
        assert sorted(os.listdir(tmp_path)) == ["configs.txt", "window_response.csv"]

    def test_config_keys_other_than_seed_and_directory_rejected(self, tmp_path, capsys):
        # the recipes set their own scenario; a key they would ignore is an error
        cfg = write_config(tmp_path, "[master]\nomega_m_hz = 10\n[output]\n"
                                     "psd_block_len = 8192\n[run]\nseed = 3\n")
        out = tmp_path / "out"
        assert run_cli("reproduce", "fig14", "--config", cfg, "--out", str(out),
                       "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        named = " ".join(err["detail"])
        assert len(err["detail"]) == 2
        assert "master.omega_m_hz" in named and "output.psd_block_len" in named
        assert not (out / "window_response.csv").exists()

    def test_config_seed_and_directory_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_emit", lambda cfg, **paths: None)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"[run]\nseed = 1\n[output]\ndirectory = {out}\n")
        assert run_cli("reproduce", "fig13", "--config", cfg, "--quiet") == 0
        digest = hashlib.sha256((out / "configs.txt").read_bytes()).hexdigest()
        assert digest == RECIPE_CONFIGS_SHA256["fig13"]

    def test_unknown_figure_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("reproduce", "fig99", "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert not out.exists()


class TestWriteAtomic:
    def test_stale_temp_files_of_this_pid_are_left_alone(self, tmp_path):
        # killed runs that had this pid left <path>.<pid>.tmp and the next name behind
        path = tmp_path / "out.csv"
        stale = [tmp_path / f"out.csv.{os.getpid()}{n}.tmp" for n in ("", ".1")]
        for p in stale:
            p.write_bytes(b"stale")
        umask = os.umask(0o027)
        try:
            cli._write_csv(str(path), "c", ["a", "b"],
                           [np.array([1, 2], dtype=np.int64), np.array([0.5, 1.5])])
        finally:
            os.umask(umask)
        assert path.read_bytes() == b"# c\na,b\n1,0.5\n2,1.5\n"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~0o027
        assert [p.read_bytes() for p in stale] == [b"stale", b"stale"]
        assert sorted(os.listdir(tmp_path)) == sorted(["out.csv", *(p.name for p in stale)])


class TestTimeseriesColumns:
    def test_a_ring_longer_than_a_batch_has_the_oracle_bytes(self, tmp_path):
        # the arrays go to the C writer as columns; the oracle writes the
        # rows they make as Python values with str()
        cfg = parse_config("[run]\nduration_s = 0.2\n[channel]\nsnr_db = 10\n")
        path = tmp_path / "timeseries.csv"
        cli._emit(cfg, timeseries=str(path))
        r = run_scenario(cfg.to_scenario(), cfg.get("run", "seed"))
        assert r.n_ticks > cli.CSV_BATCH
        fh = io.StringIO()
        fh.write(f"# {cli._stamp(cfg)}\n" + ",".join(cli.TIMESERIES_HEADER) + "\n")
        oracles.write_rows(fh, zip(range(r.n_ticks), r.t_s.tolist(),
                                   *(getattr(r, name).tolist() for name in cli.TIMESERIES_SERIES)))
        assert path.read_bytes() == fh.getvalue().encode()


class TestErrors:
    def test_invalid_config_exits_2_with_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[master]\nomega_m_hz = -1\n")
        assert run_cli("simulate", "--config", cfg, "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert any("omega_m_hz" in d for d in err["detail"])

    # keys with no effect on the ring, retired from the schema: every value,
    # the old default included, is an unknown key wherever a key is named
    @pytest.mark.parametrize("full, value", [
        ("framing.code_index_follower", 2), ("framing.code_index_follower", 0),
        ("framing.code_index_master", 1), ("framing.code_index_master", 3),
        ("framing.inter_pilot", 956), ("framing.inter_pilot", 512),
        ("run.omega_units", "hz_times_2pi"), ("run.omega_units", "hz_as_rad"),
    ])
    def test_retired_key_is_unknown(self, full, value, tmp_path, capsys):
        assert full in RETIRED_KEYS
        section, key = full.split(".")
        with pytest.raises(ConfigError) as info:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert info.value.errors == [f"line 2: unknown key {key!r} in section [{section}]"]
        with pytest.raises(ConfigError) as info:
            parse_config("").with_values({full: value})
        assert info.value.errors == [f"{full!r} is not a known config key"]
        cfg = write_config(tmp_path, f"[sweep]\nkey = {full}\nvalues = {value}\n")
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config",
                       "detail": [f"sweep.key {full!r} is not a known config key"]}
        assert not (out / "sweep_000").exists()

    # an ideal clock has no phase noise: its PSD would ignore the flag
    @pytest.mark.parametrize("command, text, prefix", [
        ("spectrum", "[run]\nideal_clocks = on\n", ""),
        ("sweep", "[sweep]\nkey = run.ideal_clocks\nvalues = on\n", "sweep value on: "),
    ])
    def test_clock_psd_of_ideal_clocks_exits_2(self, command, text, prefix, tmp_path,
                                                capsys):
        cfg = write_config(tmp_path, "[output]\npsd_source = master_clock\n" + text)
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "detail": [
            prefix + "output.psd_source master_clock or follower_clock "
                     "requires run.ideal_clocks = off"]}
        assert not (out / "psd.csv").exists() and not (out / "sweep_000").exists()

    def test_fit_noise_of_ideal_clocks_exits_2(self, tmp_path, capsys):
        # fit-noise's PSDs are of noisy clocks whatever the flag says
        cfg = write_config(tmp_path, "[run]\nideal_clocks = on\n")
        out = tmp_path / "o"
        assert run_cli("fit-noise", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config",
                       "detail": ["fit-noise requires run.ideal_clocks = off"]}
        assert list(out.iterdir()) == []

    # a 0.5 s ring has 4,184 ticks; the default PSD reads 16 blocks of 4096
    @pytest.mark.parametrize("command, text", [
        ("simulate", "[output]\nemit_psd = on\n"),
        ("spectrum", ""),
        ("sweep", "[output]\nemit_psd = on\n[sweep]\nkey = run.seed\nvalues = 1, 2\n"),
    ])
    def test_ring_psd_longer_than_the_ring_exits_2_before_the_ring_runs(
            self, command, text, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: pytest.fail("the ring ran"))
        cfg = write_config(tmp_path, "[run]\nduration_s = 0.5\n" + text)
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "detail": "need at least 65536 samples (16 blocks of 4096), got 4184"}
        assert [p for p in out.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("command", ["simulate", "bode"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(command, "--out", str(out), "--seed", "-1", "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "detail": ["run.seed must be nonnegative"]}
        assert not out.exists()

    def test_duration_below_one_tick_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\nduration_s = 1e-9\n")
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "detail": [
            "run.duration_s must span at least one tick (run.decimation/run.baud_hz) "
            "and finitely many"]}
        assert not out.exists()

    def test_divergent_scenario_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[master]\nomega_m_hz = 4000\n[follower]\nomega_s_hz = 4000\n"
            "initial_phase_deg = 60\n[run]\nduration_s = 1\nideal_clocks = on\n",
        )
        with pytest.warns(UserWarning):
            code = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                           "--quiet")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "divergence"
        assert err["tick"] >= 0
