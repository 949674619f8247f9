"""Record the cold-start wall time and peak RSS of dualsync CLI commands into
BENCH_<label>_cold.json.

    python3 bench/cold.py --label 33 --runs 15
    python3 bench/cold.py --label 33 --runs 15 --baseline ../parent-checkout

perfbench runs the CLI inside one warmed-up process, so it cannot see what
a fresh interpreter pays before its first ring: the imports, the library
load and the mask fits.  This script runs each of ``COMMANDS`` as its own
``python -m dualsync.cli`` process, with ``PYTHONPATH`` at the checkout's
``src`` and its output in a new temporary directory, and takes the child's
wall time from spawn to reap and its own peak RSS (``ru_maxrss`` of the
rusage ``os.wait4`` returns).  Every checkout first runs each command once
untimed, so its C library is built and its bytecode compiled before any
timed run.

With ``--baseline DIR`` the runs come in pairs, as in ``record.py``: per
command a run of the baseline checkout and one of the measured checkout
back to back, the baseline first in even pairs and second in odd ones.
The file keeps every run and, per side and metric, the median and
quartiles, and with a baseline in how many pairs the measured checkout won.
It is written to the root of the checkout this script sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record import ROOT, _git, _side, pairs_won

# each command as the CLI takes it, at its default config; fig14 builds
# only its 2^17-sample 300 dB window, fig13 that window and two clock PSDs,
# and fig17 two 120 s rings
COMMANDS = {"simulate": ["simulate"], "fit-noise": ["fit-noise"],
            "reproduce fig13": ["reproduce", "fig13"], "reproduce fig14": ["reproduce", "fig14"],
            "reproduce fig17": ["reproduce", "fig17"]}
# both metrics are lower-is-better
BETTER = {"wall_s": "lower", "peak_rss_mb": "lower"}


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One fresh process of ``python -m dualsync.cli argv --quiet``: its
    wall time and peak RSS, or why it failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as work, \
            open(os.path.join(work, "stderr"), "w+", encoding="utf-8") as err:
        command = [sys.executable, "-m", "dualsync.cli", *argv,
                   "--out", os.path.join(work, "out"), "--quiet"]
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # reaped here, so Popen must not wait for it again
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            return {"error": {"returncode": code, "stderr": err.read()[-2000:]}}
    return {"result": {"metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
    }}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name is BENCH_<label>_cold.json")
    parser.add_argument("--runs", type=int, default=7, help="runs per command (default 7)")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to measure (default: this one)")
    parser.add_argument("--baseline", type=Path,
                        help="checkout to alternate with the measured one; --runs "
                             "then counts pairs")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = {"change": args.checkout.resolve()}
    if args.baseline:
        sides = {"baseline": args.baseline.resolve(), **sides}

    for checkout in sides.values():
        for command in COMMANDS.values():
            run_once(checkout, command)
    runs = {side: {name: [] for name in COMMANDS} for side in sides}
    for i in range(args.runs):
        for name, command in COMMANDS.items():
            for side in (list(sides) if i % 2 == 0 else list(reversed(sides))):
                run = run_once(sides[side], command)
                runs[side][name].append(run)
                status = "error" if "error" in run else "{:.3f} s, {:.1f} MB".format(
                    *(m["value"] for m in run["result"]["metrics"].values()))
                print(f"{name} {side} run {i + 1}/{args.runs}: {status}", file=sys.stderr)

    def describe(path: Path) -> dict:
        return {"commit": _git(path, "rev-parse", "HEAD"),
                "uncommitted_changes": bool(_git(path, "status", "--porcelain", "--", "src"))}

    record = {"label": args.label, **describe(sides["change"]),
              "python": sys.version.split()[0],
              "command": f"{Path(sys.executable).name} -m dualsync.cli <command> --out <new "
                         f"temporary directory> --quiet"}
    if args.baseline:
        record["baseline"] = describe(sides["baseline"])
        record["commands"] = {
            name: {"baseline": _side(runs["baseline"][name]),
                   "change": _side(runs["change"][name]),
                   "pairs_won": pairs_won(runs["baseline"][name], runs["change"][name], BETTER)}
            for name in COMMANDS
        }
    else:
        record["commands"] = {name: _side(rs) for name, rs in runs["change"].items()}
    path = ROOT / f"BENCH_{args.label}_cold.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    failed = sum("error" in r for by_command in runs.values()
                 for rs in by_command.values() for r in rs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
