import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dualsync import cli
from dualsync.cli import main


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
# them: fit-noise's defaults synthesize 65,536 samples (exactly one
# SYNTH_CHUNK), the spectrum config 163,840 (two full chunks and a partial one)
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


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is most of the import time; only mask fits need it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, dualsync.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    assert proc.stdout.strip() == "False"


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
        assert run_cli("delay-margin", "--out", out, "--points", "9", "--quiet") == 0
        _, header, rows = read_csv(os.path.join(out, "delay_margin.csv"))
        assert header == ["omega_n_hz", "margin_s"]
        margins = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(margins, margins[1:]))

    def test_delay_margin_reads_both_dampings(self, tmp_path):
        from dualsync.linear_analysis import delay_margin

        cfg = write_config(tmp_path, "[master]\nzeta_m = 0.8\n[follower]\nzeta_s = 0.5\n")
        out = str(tmp_path / "out")
        assert run_cli("delay-margin", "--config", cfg, "--out", out, "--points", "5",
                       "--quiet") == 0
        _, _, rows = read_csv(os.path.join(out, "delay_margin.csv"))
        assert len(rows) == 5
        for f, margin in rows:
            assert float(margin) == delay_margin(0.8, float(f), 0.5, float(f))

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

    def test_bool_grid_manifest_writes_1_and_0(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = run.ideal_clocks\nvalues = on, off\n",
        )
        out = str(tmp_path / "out")
        assert run_cli("sweep", "--config", cfg, "--out", out, "--quiet") == 0
        _, _, rows = read_csv(os.path.join(out, "manifest.csv"))
        assert [row[2] for row in rows] == ["1", "0"]

    def test_sweep_requires_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\nduration_s = 0.2\n")
        assert run_cli("sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_sweep_points_are_validated(self, tmp_path, capsys):
        # a grid point must pass the same checks as a config file
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = framing.inter_pilot\n"
            "values = 956, 478\n",
        )
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"] == ["sweep value 478: framing.inter_pilot must equal run.decimation"]
        assert not (out / "sweep_000").exists()

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
        text = ("[run]\nduration_s = 0.1\n[sweep]\nkey = follower.omega_s_hz\n"
                "values = 50, 120\n")
        cfg = write_config(tmp_path, text)
        seq_out = str(tmp_path / "seq")
        par_out = str(tmp_path / "par")
        assert run_cli("sweep", "--config", cfg, "--out", seq_out, "--quiet") == 0
        assert run_cli("sweep", "--config", cfg, "--out", par_out, "--quiet",
                       "--workers", "2") == 0
        for i in range(2):
            a = open(os.path.join(seq_out, f"sweep_{i:03d}", "timeseries.csv"), "rb").read()
            b = open(os.path.join(par_out, f"sweep_{i:03d}", "timeseries.csv"), "rb").read()
            assert a == b


# sha256 of configs.txt at seed 1: the recipes' configs are part of the
# reproducibility contract
RECIPE_CONFIGS_SHA256 = {
    "fig13": "909383a6f45561fb0560849e5f58723c020452fe2214c1894eadc539945d7580",
    "fig15": "893eda015a650cb8e80a12008142ef8f4b5aff98507a7f8b5107c5a582c38bc1",
    "fig16": "958db78ad86bf06bec9ed2dfd8c8314bdaef58c85d62dd19b186921dd411d264",
    "fig17": "8918ef4829ec928e4498ca33e44bf23e65f90c4b748b6d897e4c79116c9f7a27",
    "fig18": "d467751bc99b51731a61fbb67ebff41669c4be7af58d8e95cf717a34a251959a",
    "fig19": "75abe7bdb35268cea5f8303727f95502e6d84503b278e568124137c126565f1b",
    "fig20": "2545ac77203e4c08e71aeb18d59e52142d3f8d6bc0e294f73ca4855d68a6a1a7",
    "fig21": "4efc56ffd4e6f9e3c95caae24fa5894958efa0d216758754e6f0d8167412a167",
    "fig22": "819b24d989532ac0cd5f0a2fc71bfc09435db29c1d2c771b0ebf5b2ba0a0f61e",
}


# sha256 of fig14's window_response.csv at the default seed
FIG14_SHA256 = "10e32865fa9baf4b787323e6e7ec094591e1ebe631c1ba9278f49c835039cebb"


class TestReproduce:
    def test_every_recipe_is_pinned(self):
        assert set(cli.RECIPES) == set(RECIPE_CONFIGS_SHA256)

    @pytest.mark.parametrize("fig", sorted(RECIPE_CONFIGS_SHA256))
    def test_recipe_configs(self, fig, tmp_path, monkeypatch):
        # the runs themselves take up to minutes; record what would be written
        requested = []
        monkeypatch.setattr(cli, "_emit", lambda cfg, **paths: requested.append(paths))
        out = tmp_path / "out"
        assert run_cli("reproduce", fig, "--out", str(out), "--seed", "1", "--quiet") == 0
        digest = hashlib.sha256((out / "configs.txt").read_bytes()).hexdigest()
        assert digest == RECIPE_CONFIGS_SHA256[fig]
        assert [p for r in requested for p in r.values()] == [
            str(out / name) for files, _ in cli.RECIPES[fig] for name in files.values()]

    def test_fig17_emits_both_bandwidths(self, tmp_path):
        out = str(tmp_path / "out")
        assert run_cli("reproduce", "fig17", "--out", out, "--quiet") == 0
        for omega in (10, 100):
            path = os.path.join(out, f"timeseries_snr10_w{omega}.csv")
            _, _, rows = read_csv(path)
            assert len(rows) == int(round(120 * 8e6 / 956))

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
        digest = hashlib.sha256((tmp_path / "out" / "window_response.csv").read_bytes())
        assert digest.hexdigest() == FIG14_SHA256

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
        assert run_cli("reproduce", "fig99", "--out", str(tmp_path), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"


class TestErrors:
    def test_invalid_config_exits_2_with_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[master]\nomega_m_hz = -1\n")
        assert run_cli("simulate", "--config", cfg, "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert any("omega_m_hz" in d for d in err["detail"])

    def test_inter_pilot_other_than_decimation_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[framing]\ninter_pilot = 478\n")
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert any("framing.inter_pilot" in d for d in err["detail"])

    # the tick-rate ring has no symbol-level pilots to index; any value
    # but the default would be accepted and have no effect
    @pytest.mark.parametrize("key, value, default", [("code_index_master", 3, 1),
                                                     ("code_index_follower", 0, 2)])
    def test_code_index_other_than_default_exits_2(self, key, value, default,
                                                   tmp_path, capsys):
        cfg = write_config(tmp_path, f"[framing]\n{key} = {value}\n")
        assert run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"] == [f"framing.{key} is reserved and must be {default}"]

    def test_sweep_over_code_index_exits_2_before_any_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = framing.code_index_master\n"
            "values = 1, 3\n",
        )
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["detail"] == [
            "sweep value 3: framing.code_index_master is reserved and must be 1"]
        assert not (out / "sweep_000").exists()

    def test_sweep_over_omega_units_exits_2_before_any_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "[run]\nduration_s = 0.05\n[sweep]\nkey = run.omega_units\n"
            "values = hz_times_2pi, hz_as_rad\n",
        )
        out = tmp_path / "o"
        assert run_cli("sweep", "--config", cfg, "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "detail": [
            "sweep value hz_as_rad: run.omega_units is reserved and must be hz_times_2pi"]}
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

    @pytest.mark.parametrize("command", ["simulate", "bode"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(command, "--out", str(out), "--seed", "-1", "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "detail": ["run.seed must be nonnegative"]}
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
