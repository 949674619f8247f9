"""Command-line interface: scenario runs, sweeps, analysis exports and
built-in demonstration recipes.

Every CSV artifact starts with a comment line recording the config hash
and seed, followed by a header row; re-running with the same config and
seed reproduces each file byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading

import numpy as np

from . import linear_analysis as la
from . import _native, nodes, spectral
from .config import CLOCK_SOURCES, ConfigError, ScenarioConfig, parse_config, parse_config_file
from .nodes import DivergenceError, detect_ambiguity_jumps, run_scenario
from .oscillator import fit_two_state, synthesize_phase
from .spectral import psd_estimate


def _write_atomic(path: str, write) -> None:
    """Call write(fh) on a new text file beside `path`, then rename it over
    `path`; the file gets open()'s mode, 0666 less the umask (mkstemp's: 0600)."""
    tmp_path, n = f"{path}.{os.getpid()}.tmp", 0
    while True:
        try:
            fh = open(tmp_path, "x", encoding="utf-8", newline="\n")
            break
        except FileExistsError:
            # left by a killed run that had this pid; not this process's to delete
            n += 1
            tmp_path = f"{path}.{os.getpid()}.{n}.tmp"
    try:
        with fh:
            write(fh)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


# rows per call of the C writer, to bound the text held at once
CSV_BATCH = 1024


def _write_csv(path: str, comment: str, header: list[str], columns) -> None:
    """Write equal-length `columns`, one per `header` name, as rows of str()
    of their cells, which for a float is its shortest round-trip repr.

    A number column is a 1-D C-contiguous float64 or int64 array, and any
    other column a list (or tuple) of str.  Columns of unequal length raise
    ValueError naming the column; an array of another type, a bool array
    included, raises TypeError naming its column, and a cell that is not a
    str one naming its row and column; either way `path` is untouched.  The
    C writer ``_csv.c`` gives the bytes of ",".join(map(str, row)) + "\n"
    per row, CSV_BATCH rows a call."""
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for the {len(header)} names {header}")
    n = len(columns[0]) if columns else 0
    for name, column in zip(header, columns):
        if len(column) != n:
            raise ValueError(f"column {name!r} has {len(column)} rows, "
                             f"column {header[0]!r} {n}")
    text, names = _native.library().csv_text, tuple(header)

    def write(fh):
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for first in range(0, n, CSV_BATCH):
            fh.write(text(columns, first, min(CSV_BATCH, n - first), names))
    _write_atomic(path, write)


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


def _psd_series(cfg: ScenarioConfig, result):
    """Series selected by output.psd_source: a ring series of `result`, or
    a clock's PhaseStream, which psd_estimate reads a block at a time."""
    source = cfg.get("output", "psd_source")
    if source not in CLOCK_SOURCES:
        return np.asarray(getattr(result, source))
    n = cfg.get("output", "psd_block_len") * cfg.get("output", "psd_n_blocks")
    # through the module attribute, which tracing patches
    return nodes._clock_series(cfg.to_scenario(), cfg.get("run", "seed"),
                               source.removesuffix("_clock"), n)


def _window(cfg: ScenarioConfig) -> np.ndarray:
    # the output.psd_* window, through the module attribute, which tracing patches
    return spectral.cheb_window(cfg.get("output", "psd_block_len"),
                                cfg.get("output", "psd_window_atten_db"))


def _write_psd(path: str, cfg: ScenarioConfig, series, window: np.ndarray) -> None:
    est = psd_estimate(
        series,
        cfg.to_scenario().tick_rate_hz,
        block_len=cfg.get("output", "psd_block_len"),
        n_blocks=cfg.get("output", "psd_n_blocks"),
        window=window,
    )
    _write_csv(path, _stamp(cfg), ["offset_hz", "level_dbc_hz"],
               (est.freqs_hz, est.levels_dbc_hz))


# timeseries.csv: tick, t_s, then each of these ScenarioResult series in rad
TIMESERIES_SERIES = ("theta_bf_minus_theta0", "theta_out", "alpha", "r1", "r2", "r3", "r4")
TIMESERIES_HEADER = ["tick", "t_s", *(f"{name}_rad" for name in TIMESERIES_SERIES)]
# the verification PSDs that the noise_fit kind writes beside noise_fit.csv, by node
NOISE_FIT_PSDS = {"master": "psd_master.csv", "follower": "psd_follower.csv"}
# natural frequencies of delay_margin.csv, log-spaced over 10 Hz..1 MHz
MARGIN_GRID_POINTS = 25


def _emit(cfg: ScenarioConfig, timeseries=None, psd=None, jumps=None, window_response=None,
          bode=None, delay_margin=None, noise_fit=None):
    """Write the artifacts given a path, running the ring at most once, and
    only for a time series, jumps or a ring PSD.

    Only timeseries.csv reads the ring's discriminator series r1..r4, so
    the ring records them only when it is written.  noise_fit.csv comes with
    its verification PSDs beside it (NOISE_FIT_PSDS).
    """
    scn, result = cfg.to_scenario(), None
    ring_psd = psd and cfg.get("output", "psd_source") not in CLOCK_SOURCES
    # what would fail only after files are written or the ring has run
    if ring_psd:
        spectral.require_samples(scn.n_ticks, cfg.get("output", "psd_block_len"),
                                 cfg.get("output", "psd_n_blocks"))
    if noise_fit and cfg.get("run", "ideal_clocks"):
        raise ConfigError(["fit-noise requires run.ideal_clocks = off"])
    if timeseries or jumps or ring_psd:
        result = run_scenario(scn, cfg.get("run", "seed"), discriminators=bool(timeseries))
    if timeseries:
        _write_csv(timeseries, _stamp(cfg), TIMESERIES_HEADER,
                   (np.arange(result.n_ticks), result.t_s,
                    *(getattr(result, name) for name in TIMESERIES_SERIES)))
    if psd:
        _write_psd(psd, cfg, _psd_series(cfg, result), _window(cfg))
    if jumps:
        found = detect_ambiguity_jumps(result.theta_bf_minus_theta0, result.tick_rate_hz)
        tick = np.array([i for i, _ in found], dtype=np.int64)
        _write_csv(jumps, _stamp(cfg), ["tick", "t_s", "magnitude_rad"],
                   (tick, tick / result.tick_rate_hz, np.array([m for _, m in found], float)))
    if window_response:
        # power response of the psd_block_len-sample Dolph-Chebyshev window,
        # 8x zero-padded, relative to DC
        n = cfg.get("output", "psd_block_len")
        resp = np.fft.rfft(_window(cfg), n=8 * n)
        with np.errstate(divide="ignore"):
            level = 20.0 * np.log10(np.abs(resp) / np.abs(resp[0]))
        _write_csv(window_response, _stamp(cfg), ["freq_cycles_per_sample", "level_db"],
                   (np.arange(resp.size) / (8.0 * n), level))
    if bode:
        gm = la.closed_tf(scn.loop_config_master())
        gs = la.closed_tf(scn.loop_config_follower())
        tfs = la.dual_loop_tfs(gm, gs)
        grid, ids = la.default_bode_grid(), ("out_from_0", "out_from_x", "bf_from_0", "bf_from_x")
        curves = zip(*(la.bode(tfs[tf_id], grid) for tf_id in ids))
        _write_csv(bode, _stamp(cfg), ["tf_id", "freq_hz", "mag_db", "phase_deg"],
                   ([tf_id for tf_id in ids for _ in grid], *map(np.concatenate, curves)))
    if delay_margin:
        grid = np.logspace(1, 6, MARGIN_GRID_POINTS)
        margins = la.delay_margin(scn.zeta_m, grid, scn.zeta_s, grid)
        _write_csv(delay_margin, _stamp(cfg), ["omega_n_hz", "margin_s"], (grid, margins))
    if noise_fit:
        n = cfg.get("output", "psd_block_len") * cfg.get("output", "psd_n_blocks")
        rows, window = [], _window(cfg)
        for side, name in NOISE_FIT_PSDS.items():
            params = fit_two_state(getattr(scn, f"{side}_mask"), scn.baud_hz)
            rows.append((params.sigma0, params.sigma1, params.sigma2, params.tick_rate_hz))
            seeds = nodes._stream(cfg.get("run", "seed"), nodes.CLOCK_STREAM[side])
            series = synthesize_phase(params.rescaled(scn.decimation), n,
                                      np.random.default_rng(seeds), stream=True)
            _write_psd(os.path.join(os.path.dirname(noise_fit), name), cfg, series, window)
        _write_csv(noise_fit, _stamp(cfg),
                   ["node", "sigma0_rad", "sigma1_rad", "sigma2_rad_per_tick", "tick_rate_hz"],
                   (list(NOISE_FIT_PSDS), *map(np.array, zip(*rows))))


def _write_files(cfg: ScenarioConfig, out: str, files: dict) -> list[str]:
    """Write `files`, {artifact kind: file name}, in `out` through _emit, plus
    psd.csv beside a time series when output.emit_psd is on; returns every path."""
    if "timeseries" in files and cfg.get("output", "emit_psd"):
        files = {**files, "psd": "psd.csv"}
    _emit(cfg, **{kind: os.path.join(out, name) for kind, name in files.items()})
    beside = NOISE_FIT_PSDS.values() if "noise_fit" in files else ()
    return [os.path.join(out, name) for name in (*files.values(), *beside)]


# single-run command -> (help, {artifact kind: file name}), run by cmd_write
COMMANDS: dict[str, tuple[str, dict]] = {
    "simulate": ("run one scenario, emit timeseries.csv", {"timeseries": "timeseries.csv"}),
    "bode": ("closed-loop frequency responses -> bode.csv", {"bode": "bode.csv"}),
    "delay-margin": ("delay margin over a log grid -> delay_margin.csv",
                     {"delay_margin": "delay_margin.csv"}),
    "fit-noise": ("fit oscillator sigmas, emit verification PSDs",
                  {"noise_fit": "noise_fit.csv"}),
    "spectrum": ("PSD of a configured series -> psd.csv", {"psd": "psd.csv"}),
}


def cmd_write(args) -> int:
    cfg = _load_config(args)
    written = _write_files(cfg, _outdir(args, cfg), COMMANDS[args.command][1])
    _say(args, "wrote " + ", ".join(written))
    return 0


def _workers(args) -> int:
    """--workers, by default the number of usable cores; ValueError below 1."""
    if args.workers is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no sched_getaffinity on this platform
            return os.cpu_count() or 1
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    return args.workers


def _run_threads(task, items, workers: int) -> list:
    """[task(item) for item in items], in item order, on up to `workers`
    threads, at most one per item.

    The calling thread and workers - 1 pool threads take the items in
    order.  The rings' C layers, the clock synthesis and the CSV formatting
    release the interpreter lock, so the threads run them at once.  The
    calling thread takes items too: each pool thread's first ring grows a
    malloc arena of its own, which an idle caller would add to the peak
    memory.  Every item runs even when one raises, and the first exception
    in item order is raised once all have run."""
    items, lock = list(items), threading.Lock()
    results, errors, order = [None] * len(items), [None] * len(items), iter(range(len(items)))

    def take():
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = task(items[i])
            except Exception as exc:
                errors[i] = exc

    workers = min(workers, len(items))
    if workers <= 1:
        take()
    else:
        # imported here, where a command first runs on more than one thread
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(take) for _ in range(workers - 1)]
            take()
        for future in futures:
            future.result()
    for exc in filter(None, errors):
        raise exc
    return results


def cmd_sweep(args) -> int:
    workers = _workers(args)
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    key = cfg.get("sweep", "key")
    raw_values = cfg.get("sweep", "values")
    if not key or not raw_values:
        raise ConfigError(["sweep requires [sweep] key and values entries"])
    if key not in cfg.values:
        raise ConfigError([f"sweep.key {key!r} is not a known config key"])
    # keys no grid point reads: each point writes to its own sweep_NNN, and
    # the output.psd_* keys shape only psd.csv
    if key in ("output.directory", "sweep.key", "sweep.values"):
        raise ConfigError([f"sweep.key {key} changes no grid point"])
    if key.startswith("output.psd_") and not cfg.get("output", "emit_psd"):
        raise ConfigError([f"sweep.key {key} changes no grid point while output.emit_psd = off"])
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

    def point(i):
        os.makedirs(dirs[i], exist_ok=True)
        _write_files(points[i], dirs[i], COMMANDS["simulate"][1])
    # every point runs, whatever the worker count; the first error is raised after
    _run_threads(point, range(len(points)), workers)
    # a bool grid value is written 1/0, which its config parser reads back;
    # a seed may pass int64 ("1e19" parses), so seeds are written as text too
    values = [p.values[key] for p in points]
    values = [str(int(v) if isinstance(v, bool) else v) for v in values]
    path = os.path.join(out, "manifest.csv")
    _write_csv(path, _stamp(cfg), ["index", "key", "value", "directory", "seed"],
               (np.arange(len(points)), [key] * len(points), values, dirs,
                [str(p.get("run", "seed")) for p in points]))
    _say(args, f"wrote {path} ({len(points)} grid points)")
    return 0


def _loops(omega_hz) -> dict:
    return {"master.omega_m_hz": omega_hz, "follower.omega_s_hz": omega_hz}


# figure -> runs of ({artifact kind: file name}, {section.key: override}); each
# run starts from the defaults plus run.seed, and its first file names it in
# configs.txt.
RECIPES: dict[str, list[tuple[dict, dict]]] = {
    # RF-scaled oscillator phase-noise estimates for both nodes
    "fig13": [({"psd": f"psd_{side}.csv"},
               {"output.psd_block_len": 2**17, "output.psd_n_blocks": 32,
                "output.psd_window_atten_db": 300, "output.psd_source": f"{side}_clock"})
              for side in ("master", "follower")],
    # power response of the 2^17-sample 300 dB Dolph-Chebyshev window
    "fig14": [({"window_response": "window_response.csv"},
               {"output.psd_block_len": 2**17, "output.psd_window_atten_db": 300})],
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
    workers = _workers(args)
    cfg0 = _load_config(args)
    # recipes take only run.seed and output.directory from --config
    defaults = parse_config("")
    ignored = [k for k, v in cfg0.values.items()
               if k not in ("run.seed", "output.directory") and v != defaults.values[k]]
    if ignored:
        raise ConfigError([f"reproduce ignores {k}; only run.seed and output.directory "
                           f"may differ from the defaults" for k in ignored])
    fig = args.figure.lower()
    if fig not in RECIPES:
        raise ConfigError([f"unsupported figure {args.figure!r}; supported: fig13..fig22"])
    out = _outdir(args, cfg0)
    base = defaults.with_values({"run.seed": cfg0.get("run", "seed")})
    runs = [(base.with_values(overrides), files) for files, overrides in RECIPES[fig]]
    # every run runs, whatever the worker count; the first error is raised after
    written = [path for paths in _run_threads(lambda run: _write_files(run[0], out, run[1]),
                                              runs, workers) for path in paths]
    configs = [f"# {next(iter(files.values()))} (sha256 {cfg.sha256()})\n"
               f"{cfg.canonical_text()}\n" for cfg, files in runs]
    path = os.path.join(out, "configs.txt")
    _write_atomic(path, lambda fh: fh.writelines(configs))
    _say(args, "wrote " + ", ".join(written + [path]))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call of the process
    and shared by every later one; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="dualsync",
        description="Dual-carrier remote carrier-phase synchronization loop: "
                    "simulator and linear analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a sectioned key=value config file")
    common.add_argument("--out", help="output directory (default from config)")
    common.add_argument("--seed", type=int, help="override run.seed")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    for name, (text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text, parents=[common])
        p.set_defaults(func=cmd_write)

    threaded = argparse.ArgumentParser(add_help=False, parents=[common])
    threaded.add_argument("--workers", type=int,
                          help="threads running grid points or recipe runs at once "
                               "(default: the usable cores)")

    p = sub.add_parser("sweep", help="run a config grid defined by the [sweep] section",
                       parents=[threaded])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a built-in demonstration recipe (fig13..fig22)",
                       parents=[threaded])
    p.add_argument("figure", help="recipe id, e.g. fig17")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        error, code = {"error": "config", "detail": exc.errors}, 2
    except DivergenceError as exc:
        error, code = {"error": "divergence", "detail": str(exc), "tick": exc.tick}, 3
    except (OSError, ValueError) as exc:
        error, code = {"error": type(exc).__name__, "detail": str(exc)}, 2
    json.dump(error, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
