"""Command-line interface: scenario runs, sweeps, analysis exports and
built-in demonstration recipes.

Every CSV artifact starts with a comment line recording the config hash
and seed, followed by a header row; re-running with the same config and
seed reproduces each file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import linear_analysis as la
from .config import (
    SCHEMA,
    ConfigError,
    ScenarioConfig,
    _semantic_checks,
    parse_config,
    parse_config_file,
)
from .nodes import DivergenceError, detect_ambiguity_jumps, run_scenario
from .oscillator import NoiseMask, fit_two_state, synthesize_phase
from .spectral import cheb_window, psd_estimate


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, comment: str, header: list[str], rows) -> None:
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(tmp_fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {comment}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _stamp(cfg: ScenarioConfig, seed: int) -> str:
    return f"config_sha256={cfg.sha256()} seed={seed}"


def _load_config(args) -> ScenarioConfig:
    cfg = parse_config_file(args.config) if args.config else parse_config("")
    if args.seed is not None:
        values = dict(cfg.values)
        values["run.seed"] = int(args.seed)
        cfg = ScenarioConfig(values=values)
    return cfg


def _outdir(args, cfg: ScenarioConfig) -> str:
    out = args.out or cfg.get("output", "directory")
    os.makedirs(out, exist_ok=True)
    return out


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _emit_timeseries(path: str, cfg: ScenarioConfig, seed: int, result) -> None:
    _write_csv(
        path,
        _stamp(cfg, seed),
        ["tick", "t_s", "theta_bf_minus_theta0_rad", "theta_out_rad", "alpha_rad",
         "r1_rad", "r2_rad", "r3_rad", "r4_rad"],
        result.rows(),
    )


def _psd_series(cfg: ScenarioConfig, seed: int, result=None) -> tuple[np.ndarray, float]:
    """Series selected by output.psd_source plus its sample rate."""
    source = cfg.get("output", "psd_source")
    scn = cfg.to_scenario()
    if source in ("master_clock", "follower_clock"):
        side = "master" if source == "master_clock" else "follower"
        mask = NoiseMask(cfg.get(side, "mask_ref_hz"), cfg.get(side, "mask"))
        params = fit_two_state(mask, scn.baud_hz).rescaled(scn.decimation)
        n = cfg.get("output", "psd_block_len") * cfg.get("output", "psd_n_blocks")
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(6)[0 if side == "master" else 1])
        series = synthesize_phase(params, n, rng) * (scn.plan.fc_hz / mask.reference_freq_hz)
        return series, scn.tick_rate_hz
    if result is None:
        result = run_scenario(scn, seed)
    series = getattr(result, source)
    return np.asarray(series), scn.tick_rate_hz


def _emit_psd(path: str, cfg: ScenarioConfig, seed: int, series, fs_hz: float) -> None:
    est = psd_estimate(
        series,
        fs_hz,
        block_len=cfg.get("output", "psd_block_len"),
        n_blocks=cfg.get("output", "psd_n_blocks"),
        window_atten_db=cfg.get("output", "psd_window_atten_db"),
    )
    _write_csv(
        path,
        _stamp(cfg, seed),
        ["offset_hz", "level_dbc_hz"],
        zip(est.freqs_hz.tolist(), est.levels_dbc_hz.tolist()),
    )


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    seed = cfg.get("run", "seed")
    out = _outdir(args, cfg)
    result = run_scenario(cfg.to_scenario(), seed)
    ts_path = os.path.join(out, "timeseries.csv")
    _emit_timeseries(ts_path, cfg, seed, result)
    _say(args, f"wrote {ts_path} ({result.n_ticks} ticks)")
    if cfg.get("output", "emit_psd"):
        series, fs = _psd_series(cfg, seed, result)
        psd_path = os.path.join(out, "psd.csv")
        _emit_psd(psd_path, cfg, seed, series, fs)
        _say(args, f"wrote {psd_path}")
    return 0


def cmd_bode(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    scn = cfg.to_scenario()
    from .pll import closed_tf

    gm = closed_tf(scn.loop_config_master())
    gs = closed_tf(scn.loop_config_follower())
    tfs = la.dual_loop_tfs(gm, gs, la.RationalDelayTF())
    grid = la.default_bode_grid()
    rows = []
    for tf_id in ("out_from_0", "out_from_x", "bf_from_0", "bf_from_x"):
        for f, mag, ph in la.bode(tfs[tf_id], grid):
            rows.append((tf_id, f, mag, ph))
    path = os.path.join(out, "bode.csv")
    _write_csv(path, _stamp(cfg, cfg.get("run", "seed")),
               ["tf_id", "freq_hz", "mag_db", "phase_deg"], rows)
    _say(args, f"wrote {path}")
    return 0


def cmd_delay_margin(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    scn = cfg.to_scenario()
    grid = np.logspace(1, 6, args.points)
    rows = la.delay_margin_grid(grid, zeta=scn.zeta_m, omega_units=scn.omega_units)
    path = os.path.join(out, "delay_margin.csv")
    _write_csv(path, _stamp(cfg, cfg.get("run", "seed")),
               ["omega_n_hz", "margin_s"], rows)
    _say(args, f"wrote {path}")
    return 0


def cmd_fit_noise(args) -> int:
    cfg = _load_config(args)
    seed = cfg.get("run", "seed")
    out = _outdir(args, cfg)
    scn = cfg.to_scenario()
    rows = []
    for side in ("master", "follower"):
        mask = NoiseMask(cfg.get(side, "mask_ref_hz"), cfg.get(side, "mask"))
        params = fit_two_state(mask, scn.baud_hz)
        rows.append((side, params.sigma0, params.sigma1, params.sigma2,
                     params.tick_rate_hz))
        dec = params.rescaled(scn.decimation)
        n = cfg.get("output", "psd_block_len") * cfg.get("output", "psd_n_blocks")
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[side == "follower"])
        series = synthesize_phase(dec, n, rng)
        _emit_psd(os.path.join(out, f"psd_{side}.csv"), cfg, seed, series,
                  scn.tick_rate_hz)
    path = os.path.join(out, "noise_fit.csv")
    _write_csv(path, _stamp(cfg, seed),
               ["node", "sigma0_rad", "sigma1_rad", "sigma2_rad_per_tick", "tick_rate_hz"],
               rows)
    _say(args, f"wrote {path} and verification PSDs")
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    seed = cfg.get("run", "seed")
    out = _outdir(args, cfg)
    series, fs = _psd_series(cfg, seed)
    path = os.path.join(out, "psd.csv")
    _emit_psd(path, cfg, seed, series, fs)
    _say(args, f"wrote {path}")
    return 0


def _sweep_point(payload):
    values, index, key, value, directory = payload
    values = dict(values)
    section, name = key.split(".", 1)
    values[f"{section}.{name}"] = value
    cfg = ScenarioConfig(values=values)
    seed = cfg.get("run", "seed")
    os.makedirs(directory, exist_ok=True)
    result = run_scenario(cfg.to_scenario(), seed)
    _emit_timeseries(os.path.join(directory, "timeseries.csv"), cfg, seed, result)
    if cfg.get("output", "emit_psd"):
        series = np.asarray(result.theta_bf_minus_theta0)
        _emit_psd(os.path.join(directory, "psd.csv"), cfg, seed, series,
                  cfg.to_scenario().tick_rate_hz)
    return index, key, value, directory, seed


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    key = cfg.get("sweep", "key")
    raw_values = cfg.get("sweep", "values")
    if not key or not raw_values:
        raise ConfigError(["sweep requires [sweep] key and values entries"])
    if key.count(".") != 1:
        raise ConfigError([f"sweep.key must be section.key, got {key!r}"])
    section, name = key.split(".")
    if section not in SCHEMA or name not in SCHEMA[section]:
        raise ConfigError([f"sweep.key {key!r} is not a known config key"])
    parser = SCHEMA[section][name][0]
    try:
        values = [parser(v.strip()) for v in raw_values.split(",")]
    except ValueError as exc:
        raise ConfigError([f"sweep.values: {exc}"]) from None
    # each grid point must pass the checks parse_config applies to a file
    errors = []
    for v in values:
        point_errors = []
        _semantic_checks({**cfg.values, key: v}, point_errors)
        errors += [f"sweep value {v!r}: {e}" for e in point_errors]
    if errors:
        raise ConfigError(errors)
    jobs = [
        (cfg.values, i, key, v, os.path.join(out, f"sweep_{i:03d}"))
        for i, v in enumerate(values)
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            manifest = list(pool.map(_sweep_point, jobs))
    else:
        manifest = [_sweep_point(j) for j in jobs]
    path = os.path.join(out, "manifest.csv")
    _write_csv(path, _stamp(cfg, cfg.get("run", "seed")),
               ["index", "key", "value", "directory", "seed"], manifest)
    _say(args, f"wrote {path} ({len(manifest)} grid points)")
    return 0


def _recipe_config(seed: int, **overrides) -> ScenarioConfig:
    lines = []
    by_section: dict[str, list[str]] = {}
    for full, value in overrides.items():
        section, key = full.split("__")
        by_section.setdefault(section, []).append(f"{key} = {value}")
    for section, entries in by_section.items():
        lines.append(f"[{section}]")
        lines.extend(entries)
    cfg = parse_config("\n".join(lines))
    values = dict(cfg.values)
    values["run.seed"] = seed
    return ScenarioConfig(values=values)


def cmd_reproduce(args) -> int:
    cfg0 = _load_config(args)
    seed = cfg0.get("run", "seed")
    out = _outdir(args, cfg0)
    fig = args.figure.lower()
    written: list[str] = []
    configs: list[tuple[str, ScenarioConfig]] = []

    def emit_run(cfg: ScenarioConfig, name: str):
        configs.append((name, cfg))
        result = run_scenario(cfg.to_scenario(), cfg.get("run", "seed"))
        path = os.path.join(out, name)
        _emit_timeseries(path, cfg, cfg.get("run", "seed"), result)
        written.append(path)
        return result

    if fig == "fig13":
        # RF-scaled oscillator phase-noise estimates for both nodes
        cfg = _recipe_config(seed, output__psd_block_len=2**17, output__psd_n_blocks=32,
                             output__psd_window_atten_db=300)
        for side in ("master", "follower"):
            values = dict(cfg.values)
            values["output.psd_source"] = f"{side}_clock"
            c = ScenarioConfig(values=values)
            configs.append((f"psd_{side}.csv", c))
            series, fs = _psd_series(c, seed)
            path = os.path.join(out, f"psd_{side}.csv")
            _emit_psd(path, c, seed, series, fs)
            written.append(path)
    elif fig == "fig14":
        # power response of the 2^17-sample 300 dB Dolph-Chebyshev window
        w = cheb_window(2**17, 300.0)
        resp = np.fft.rfft(w, n=8 * 2**17)
        with np.errstate(divide="ignore"):
            level = 20.0 * np.log10(np.abs(resp) / np.abs(resp[0]))
        freqs = np.arange(resp.size) / (8.0 * 2**17)
        path = os.path.join(out, "window_response.csv")
        _write_csv(path, _stamp(cfg0, seed), ["freq_cycles_per_sample", "level_db"],
                   zip(freqs.tolist(), level.tolist()))
        written.append(path)
    elif fig == "fig15":
        # beamforming-phase noise floors vs SNR (reduced block length for runtime)
        for snr in (0, 10, 20):
            cfg = _recipe_config(
                seed, channel__snr_db=snr, run__duration_s=70,
                master__omega_m_hz=100, follower__omega_s_hz=100,
                output__psd_block_len=2**15, output__psd_n_blocks=16,
            )
            configs.append((f"psd_snr{snr}.csv", cfg))
            result = run_scenario(cfg.to_scenario(), seed)
            path = os.path.join(out, f"psd_snr{snr}.csv")
            _emit_psd(path, cfg, seed, result.theta_bf_minus_theta0,
                      cfg.to_scenario().tick_rate_hz)
            written.append(path)
    elif fig in ("fig16", "fig17", "fig18"):
        snr = {"fig16": 0, "fig17": 10, "fig18": 20}[fig]
        for omega in (10, 100):
            cfg = _recipe_config(seed, channel__snr_db=snr, run__duration_s=120,
                                 master__omega_m_hz=omega, follower__omega_s_hz=omega)
            emit_run(cfg, f"timeseries_snr{snr}_w{omega}.csv")
    elif fig == "fig19":
        for omega in (10, 100):
            cfg = _recipe_config(seed, run__duration_s=120,
                                 follower__initial_phase_deg=180,
                                 master__omega_m_hz=omega, follower__omega_s_hz=omega,
                                 run__ideal_clocks="on")
            emit_run(cfg, f"timeseries_offset180_w{omega}.csv")
    elif fig == "fig20":
        for omega in (10, 100):
            cfg = _recipe_config(seed, run__duration_s=120,
                                 follower__freq_offset_hz=50,
                                 master__omega_m_hz=omega, follower__omega_s_hz=omega,
                                 run__ideal_clocks="on")
            emit_run(cfg, f"timeseries_foffset50_w{omega}.csv")
    elif fig == "fig21":
        for snr in (10, math.inf):
            cfg = _recipe_config(seed, channel__snr_db=snr, channel__doppler_hz=1,
                                 run__duration_s=120, master__omega_m_hz=100,
                                 follower__omega_s_hz=100)
            label = "inf" if math.isinf(snr) else str(snr)
            emit_run(cfg, f"timeseries_doppler1_snr{label}.csv")
    elif fig == "fig22":
        # unbounded accumulated drift with raw per-tick angle measurements:
        # the divide-by-two stages produce 90-degree ambiguity jumps
        for snr in (10, math.inf):
            cfg = _recipe_config(
                seed, channel__snr_db=snr, channel__doppler_hz=1,
                channel__tau_s=1.875e-8, run__duration_s=60,
                run__wrap_compensation="off", run__ideal_clocks="on",
                master__omega_m_hz=100, follower__omega_s_hz=100,
            )
            label = "inf" if math.isinf(snr) else str(snr)
            result = emit_run(cfg, f"timeseries_unbounded_snr{label}.csv")
            stride = max(1, int(0.05 * result.tick_rate_hz))
            jumps = detect_ambiguity_jumps(result.theta_bf_minus_theta0[::stride])
            path = os.path.join(out, f"jumps_snr{label}.csv")
            _write_csv(path, _stamp(cfg, seed), ["tick", "t_s", "magnitude_rad"],
                       ((i * stride, i * stride / result.tick_rate_hz, m)
                        for i, m in jumps))
            written.append(path)
    else:
        raise ConfigError([f"unsupported figure {args.figure!r}; supported: fig13..fig22"])
    if configs:
        path = os.path.join(out, "configs.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for name, c in configs:
                fh.write(f"# {name} (sha256 {c.sha256()})\n{c.canonical_text()}\n")
        written.append(path)
    _say(args, "wrote " + ", ".join(written))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsync",
        description="Dual-carrier remote carrier-phase synchronization loop: "
                    "simulator and linear analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a sectioned key=value config file")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("simulate", help="run one scenario, emit timeseries.csv")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bode", help="closed-loop frequency responses -> bode.csv")
    common(p)
    p.set_defaults(func=cmd_bode)

    p = sub.add_parser("delay-margin", help="delay margin over a log grid -> delay_margin.csv")
    common(p)
    p.add_argument("--points", type=int, default=25, help="grid points (default 25)")
    p.set_defaults(func=cmd_delay_margin)

    p = sub.add_parser("fit-noise", help="fit oscillator sigmas, emit verification PSDs")
    common(p)
    p.set_defaults(func=cmd_fit_noise)

    p = sub.add_parser("spectrum", help="PSD of a configured series -> psd.csv")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="run a config grid defined by the [sweep] section")
    common(p)
    p.add_argument("--workers", type=int, default=1, help="parallel scenario workers")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a built-in demonstration recipe (fig13..fig22)")
    common(p)
    p.add_argument("figure", help="recipe id, e.g. fig17")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        json.dump({"error": "config", "detail": exc.errors}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except DivergenceError as exc:
        json.dump({"error": "divergence", "detail": str(exc), "tick": exc.tick}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except (OSError, ValueError) as exc:
        json.dump({"error": type(exc).__name__, "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
