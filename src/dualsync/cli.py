"""Command-line interface: scenario runs, sweeps, analysis exports and
built-in demonstration recipes.

Every CSV artifact starts with a comment line recording the config hash
and seed, followed by a header row; re-running with the same config and
seed reproduces each file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import linear_analysis as la
from . import nodes
from .config import CLOCK_SOURCES, ConfigError, ScenarioConfig, parse_config, parse_config_file
from .nodes import DivergenceError, detect_ambiguity_jumps, run_scenario
from .oscillator import fit_two_state, synthesize_phase
from .spectral import cheb_window, psd_estimate


def _write_csv(path: str, comment: str, header: list[str], rows) -> None:
    """Write `rows` of built-in str, int and float values with str(), which
    for a float is its shortest round-trip repr; a bool must come as 1/0."""
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(tmp_fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {comment}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(str, row)) + "\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _stamp(cfg: ScenarioConfig) -> str:
    return f"config_sha256={cfg.sha256()} seed={cfg.get('run', 'seed')}"


def _load_config(args) -> ScenarioConfig:
    cfg = parse_config_file(args.config) if args.config else parse_config("")
    return cfg if args.seed is None else cfg.with_values({"run.seed": args.seed})


def _outdir(args, cfg: ScenarioConfig) -> str:
    out = args.out or cfg.get("output", "directory")
    os.makedirs(out, exist_ok=True)
    return out


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _psd_series(cfg: ScenarioConfig, result) -> tuple[np.ndarray, float]:
    """Series selected by output.psd_source plus its sample rate; the ring
    sources are read from `result`."""
    source = cfg.get("output", "psd_source")
    scn = cfg.to_scenario()
    if source not in CLOCK_SOURCES:
        return np.asarray(getattr(result, source)), scn.tick_rate_hz
    n = cfg.get("output", "psd_block_len") * cfg.get("output", "psd_n_blocks")
    # through the module attribute, which tracing patches
    series = nodes._clock_series(scn, cfg.get("run", "seed"), source.removesuffix("_clock"), n)
    return series, scn.tick_rate_hz


def _write_psd(path: str, cfg: ScenarioConfig, series, fs_hz: float) -> None:
    est = psd_estimate(
        series,
        fs_hz,
        block_len=cfg.get("output", "psd_block_len"),
        n_blocks=cfg.get("output", "psd_n_blocks"),
        window_atten_db=cfg.get("output", "psd_window_atten_db"),
    )
    _write_csv(path, _stamp(cfg), ["offset_hz", "level_dbc_hz"],
               zip(est.freqs_hz.tolist(), est.levels_dbc_hz.tolist()))


def _emit(cfg: ScenarioConfig, timeseries=None, psd=None, jumps=None):
    """Write the artifacts given a path, running the ring at most once (not
    at all for a clock PSD alone); returns the ring result or None."""
    result = None
    if timeseries or jumps or (psd and cfg.get("output", "psd_source") not in CLOCK_SOURCES):
        result = run_scenario(cfg.to_scenario(), cfg.get("run", "seed"))
    if timeseries:
        _write_csv(timeseries, _stamp(cfg),
                   ["tick", "t_s", "theta_bf_minus_theta0_rad", "theta_out_rad", "alpha_rad",
                    "r1_rad", "r2_rad", "r3_rad", "r4_rad"],
                   result.rows())
    if psd:
        _write_psd(psd, cfg, *_psd_series(cfg, result))
    if jumps:
        found = detect_ambiguity_jumps(result.theta_bf_minus_theta0, result.tick_rate_hz)
        _write_csv(jumps, _stamp(cfg), ["tick", "t_s", "magnitude_rad"],
                   ((i, i / result.tick_rate_hz, m) for i, m in found))
    return result


def _simulate(cfg: ScenarioConfig, out: str) -> str:
    """timeseries.csv, plus psd.csv when output.emit_psd is on, in `out`."""
    ts = os.path.join(out, "timeseries.csv")
    psd = os.path.join(out, "psd.csv") if cfg.get("output", "emit_psd") else None
    result = _emit(cfg, timeseries=ts, psd=psd)
    return f"wrote {ts} ({result.n_ticks} ticks)" + (f" and {psd}" if psd else "")


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    _say(args, _simulate(cfg, _outdir(args, cfg)))
    return 0


def cmd_bode(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    scn = cfg.to_scenario()
    gm = la.closed_tf(scn.loop_config_master())
    gs = la.closed_tf(scn.loop_config_follower())
    tfs = la.dual_loop_tfs(gm, gs)
    grid = la.default_bode_grid()
    rows = []
    for tf_id in ("out_from_0", "out_from_x", "bf_from_0", "bf_from_x"):
        for f, mag, ph in la.bode(tfs[tf_id], grid):
            rows.append((tf_id, f, mag, ph))
    path = os.path.join(out, "bode.csv")
    _write_csv(path, _stamp(cfg), ["tf_id", "freq_hz", "mag_db", "phase_deg"], rows)
    _say(args, f"wrote {path}")
    return 0


def cmd_delay_margin(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    scn = cfg.to_scenario()
    grid = np.logspace(1, 6, args.points)
    rows = la.delay_margin_grid(grid, scn.zeta_m, scn.zeta_s)
    path = os.path.join(out, "delay_margin.csv")
    _write_csv(path, _stamp(cfg), ["omega_n_hz", "margin_s"], rows)
    _say(args, f"wrote {path}")
    return 0


def cmd_fit_noise(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    scn = cfg.to_scenario()
    n = cfg.get("output", "psd_block_len") * cfg.get("output", "psd_n_blocks")
    streams = nodes._streams(cfg.get("run", "seed"))
    rows = []
    for side, mask, stream in zip(("master", "follower"),
                                  (scn.master_mask, scn.follower_mask), streams):
        params = fit_two_state(mask, scn.baud_hz)
        rows.append((side, params.sigma0, params.sigma1, params.sigma2,
                     params.tick_rate_hz))
        series = synthesize_phase(params.rescaled(scn.decimation), n,
                                  np.random.default_rng(stream))
        _write_psd(os.path.join(out, f"psd_{side}.csv"), cfg, series, scn.tick_rate_hz)
    path = os.path.join(out, "noise_fit.csv")
    _write_csv(path, _stamp(cfg),
               ["node", "sigma0_rad", "sigma1_rad", "sigma2_rad_per_tick", "tick_rate_hz"],
               rows)
    _say(args, f"wrote {path} and verification PSDs")
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load_config(args)
    path = os.path.join(_outdir(args, cfg), "psd.csv")
    _emit(cfg, psd=path)
    _say(args, f"wrote {path}")
    return 0


def _sweep_point(cfg: ScenarioConfig, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    _simulate(cfg, directory)


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    key = cfg.get("sweep", "key")
    raw_values = cfg.get("sweep", "values")
    if not key or not raw_values:
        raise ConfigError(["sweep requires [sweep] key and values entries"])
    if key not in cfg.values:
        raise ConfigError([f"sweep.key {key!r} is not a known config key"])
    # each grid point must pass the checks parse_config applies to a file
    points, errors = [], []
    for value in [v.strip() for v in raw_values.split(",")]:
        try:
            points.append(cfg.with_values({key: value}))
        except ConfigError as exc:
            errors += [f"sweep value {value}: {e}" for e in exc.errors]
    if errors:
        raise ConfigError(errors)
    dirs = [os.path.join(out, f"sweep_{i:03d}") for i in range(len(points))]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            list(pool.map(_sweep_point, points, dirs))
    else:
        list(map(_sweep_point, points, dirs))
    # a bool grid value is written 1/0, which its config parser reads back
    values = [p.values[key] for p in points]
    values = [int(v) if isinstance(v, bool) else v for v in values]
    path = os.path.join(out, "manifest.csv")
    _write_csv(path, _stamp(cfg), ["index", "key", "value", "directory", "seed"],
               [(i, key, v, d, p.get("run", "seed"))
                for i, (v, p, d) in enumerate(zip(values, points, dirs))])
    _say(args, f"wrote {path} ({len(points)} grid points)")
    return 0


def _loops(omega_hz) -> dict:
    return {"master.omega_m_hz": omega_hz, "follower.omega_s_hz": omega_hz}


# figure -> runs of ({artifact kind: file name}, {section.key: override}); each
# run starts from the defaults plus run.seed, and its first file names it in
# configs.txt.  fig14 has no ring and is written by cmd_reproduce itself.
RECIPES: dict[str, list[tuple[dict, dict]]] = {
    # RF-scaled oscillator phase-noise estimates for both nodes
    "fig13": [({"psd": f"psd_{side}.csv"},
               {"output.psd_block_len": 2**17, "output.psd_n_blocks": 32,
                "output.psd_window_atten_db": 300, "output.psd_source": f"{side}_clock"})
              for side in ("master", "follower")],
    # beamforming-phase noise floors vs SNR (reduced block length for runtime)
    "fig15": [({"psd": f"psd_snr{snr}.csv"},
               {"channel.snr_db": snr, "run.duration_s": 70, **_loops(100),
                "output.psd_block_len": 2**15, "output.psd_n_blocks": 16})
              for snr in (0, 10, 20)],
    # error time series at 0/10/20 dB SNR, 10 and 100 Hz loops
    **{fig: [({"timeseries": f"timeseries_snr{snr}_w{w}.csv"},
              {"channel.snr_db": snr, "run.duration_s": 120, **_loops(w)})
             for w in (10, 100)]
       for fig, snr in (("fig16", 0), ("fig17", 10), ("fig18", 20))},
    # re-lock from a 180-degree follower phase offset
    "fig19": [({"timeseries": f"timeseries_offset180_w{w}.csv"},
               {"run.duration_s": 120, "follower.initial_phase_deg": 180, **_loops(w),
                "run.ideal_clocks": "on"})
              for w in (10, 100)],
    # absorption of a 50 Hz follower frequency offset
    "fig20": [({"timeseries": f"timeseries_foffset50_w{w}.csv"},
               {"run.duration_s": 120, "follower.freq_offset_hz": 50, **_loops(w),
                "run.ideal_clocks": "on"})
              for w in (10, 100)],
    # 1 Hz Doppler: bounded tracking at 10 dB and infinite SNR
    "fig21": [({"timeseries": f"timeseries_doppler1_snr{snr}.csv"},
               {"channel.snr_db": snr, "channel.doppler_hz": 1, "run.duration_s": 120,
                **_loops(100)})
              for snr in (10, "inf")],
    # unbounded accumulated drift with raw per-tick angle measurements:
    # the divide-by-two stages produce 90-degree ambiguity jumps
    "fig22": [({"timeseries": f"timeseries_unbounded_snr{snr}.csv",
                "jumps": f"jumps_snr{snr}.csv"},
               {"channel.snr_db": snr, "channel.doppler_hz": 1, "channel.tau_s": 1.875e-8,
                "run.duration_s": 60, "run.wrap_compensation": "off",
                "run.ideal_clocks": "on", **_loops(100)})
              for snr in (10, "inf")],
}


def cmd_reproduce(args) -> int:
    cfg0 = _load_config(args)
    # recipes take only run.seed and output.directory from --config
    defaults = parse_config("")
    ignored = [k for k, v in cfg0.values.items()
               if k not in ("run.seed", "output.directory") and v != defaults.values[k]]
    if ignored:
        raise ConfigError([f"reproduce ignores {k}; only run.seed and output.directory "
                           f"may differ from the defaults" for k in ignored])
    out = _outdir(args, cfg0)
    fig = args.figure.lower()
    if fig == "fig14":
        # power response of the 2^17-sample 300 dB Dolph-Chebyshev window
        w = cheb_window(2**17, 300.0)
        resp = np.fft.rfft(w, n=8 * 2**17)
        with np.errstate(divide="ignore"):
            level = 20.0 * np.log10(np.abs(resp) / np.abs(resp[0]))
        freqs = np.arange(resp.size) / (8.0 * 2**17)
        path = os.path.join(out, "window_response.csv")
        _write_csv(path, _stamp(cfg0), ["freq_cycles_per_sample", "level_db"],
                   zip(freqs.tolist(), level.tolist()))
        _say(args, f"wrote {path}")
        return 0
    if fig not in RECIPES:
        raise ConfigError([f"unsupported figure {args.figure!r}; supported: fig13..fig22"])
    base = defaults.with_values({"run.seed": cfg0.get("run", "seed")})
    written, configs = [], []
    for files, overrides in RECIPES[fig]:
        cfg = base.with_values(overrides)
        paths = {kind: os.path.join(out, name) for kind, name in files.items()}
        _emit(cfg, **paths)
        written += paths.values()
        configs.append(f"# {next(iter(files.values()))} (sha256 {cfg.sha256()})\n"
                       f"{cfg.canonical_text()}\n")
    path = os.path.join(out, "configs.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(configs))
    _say(args, "wrote " + ", ".join(written + [path]))
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
