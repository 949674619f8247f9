"""Record the dualsync benchmark's metrics into BENCH_<label>.json.

    python3 bench/record.py --label 7 --runs 5
    python3 bench/record.py --label 6 --runs 5 --checkout ../parent-checkout
    python3 bench/record.py --label 9 --runs 10 --baseline ../parent-checkout
    python3 bench/record.py --label 16_trace --runs 1 --trace 1 --baseline ../parent-checkout
    python3 bench/record.py --label 33_seed2 --runs 5 --seed 2 --baseline ../parent-checkout

Runs the benchmark that ``BENCHMARK.json`` of a source checkout (by
default the one this script sits in) declares, at its ``run_seconds``,
seed 1 (or ``--seed``) and ``--trace 0``, ``--runs`` times for each workload, cycling
through the workloads so that slow drift of a shared host spreads over all
of them.  ``--trace 1`` runs perfbench's traced mode instead, whose result
lines add the per-layer metrics; measure end-to-end metrics untraced.  The
JSON file names each checkout's commit and the compiler and flags of its C
library (the tick kernel, the normal draw and the CSV writer), and keeps,
per workload, every run's ``facts`` line, result line and, traced,
``trace`` line (with its list of ``absent`` boundaries) as perfbench
printed them, and per metric the median and quartiles over the runs that
produced a result.
It is written to the root of the checkout this script sits in, so a
baseline measured on another checkout lands beside the others.

With ``--baseline DIR`` the runs come in pairs: for each workload a run of
the baseline checkout and one of the measured checkout back to back, the
baseline first in even pairs and second in odd ones, so neither side
always runs on the warmer or the cooler host.  The file then keeps both
sides' runs and summaries and, for every metric whose better direction
``BENCHMARK.json`` declares, in how many pairs the measured checkout won.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(checkout: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def _kernel_build(checkout: Path) -> dict | None:
    """The compiler (the first line of ``gcc --version``) and, by source
    file, the flags the checkout builds its one C library ``_native`` with;
    None where they cannot be read."""
    code = ("import json\nfrom dualsync import _native\n"
            "print(json.dumps({source.name: ' '.join(_native.flags())\n"
            "                  for source in _native.SOURCES}))")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    try:
        flags = json.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                          capture_output=True, text=True, check=True).stdout)
        version = subprocess.run(["gcc", "--version"], capture_output=True, text=True,
                                 check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"compiler": version.splitlines()[0], "flags": flags}


def run_once(checkout: Path, command: list[str]) -> dict:
    """One benchmark run: its facts, trace and result lines, or why there
    is no result."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    run = {}
    for line in proc.stdout.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "facts" in obj:
            run["facts"] = obj["facts"]
        elif "trace" in obj:
            run["trace"] = obj["trace"]
        elif "metrics" in obj:
            run["result"] = obj
    if proc.returncode != 0 or "result" not in run:
        run["error"] = {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return run


def summarize(results: list[dict]) -> dict:
    """Per metric: unit, run count, median and quartiles."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        q1, q3 = (statistics.quantiles(vals, n=4, method="inclusive")[::2]
                  if len(vals) > 1 else (vals[0], vals[0]))
        summary[name] = {"unit": units[name], "n": len(vals),
                         "median": statistics.median(vals), "q1": q1, "q3": q3}
    return summary


def pairs_won(baseline: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric: pairs in which `change` read better than `baseline`, out
    of the pairs where both sides produced the metric."""
    won: dict[str, dict] = {}
    for base, new in zip(baseline, change):
        if "result" not in base or "result" not in new:
            continue
        for name, metric in new["result"]["metrics"].items():
            if name not in better or name not in base["result"]["metrics"]:
                continue
            a, b = base["result"]["metrics"][name]["value"], metric["value"]
            entry = won.setdefault(name, {"better": better[name], "won": 0, "pairs": 0})
            entry["pairs"] += 1
            entry["won"] += b < a if better[name] == "lower" else b > a
    return won


def _side(runs: list[dict]) -> dict:
    return {"runs": runs, "summary": summarize([r["result"] for r in runs if "result" in r])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name is BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload (default 5)")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to measure (default: this one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="perfbench --trace; 1 adds per-layer metrics (default 0)")
    parser.add_argument("--baseline", type=Path,
                        help="checkout to alternate with the measured one; --runs "
                             "then counts pairs")
    parser.add_argument("--seed", type=int, default=1, help="perfbench --seed (default 1)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkout = args.checkout.resolve()
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    command = [*bench["command"], "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = {"change": checkout}
    if args.baseline:
        sides = {"baseline": args.baseline.resolve(), **sides}

    runs = {side: {w: [] for w in workloads} for side in sides}
    for i in range(args.runs):
        for workload in workloads:
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                run = run_once(sides[side], [*command, "--workload", workload])
                runs[side][workload].append(run)
                status = "error" if "error" in run else f"correct={run['result']['correct']}"
                print(f"{workload} {side} run {i + 1}/{args.runs}: {status}", file=sys.stderr)

    def describe(path: Path) -> dict:
        return {"commit": _git(path, "rev-parse", "HEAD"),
                "uncommitted_changes": bool(_git(path, "status", "--porcelain", "--", "src")),
                "kernel_build": _kernel_build(path)}

    record = {"label": args.label, **describe(checkout), "command": " ".join(command)}
    if args.baseline:
        better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
        record["baseline"] = describe(sides["baseline"])
        record["workloads"] = {
            w: {"baseline": _side(runs["baseline"][w]), "change": _side(runs["change"][w]),
                "pairs_won": pairs_won(runs["baseline"][w], runs["change"][w], better)}
            for w in workloads
        }
    else:
        record["workloads"] = {w: _side(rs) for w, rs in runs["change"].items()}
    path = ROOT / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    failed = sum("error" in r or not r["result"]["correct"]
                 for by_workload in runs.values() for rs in by_workload.values() for r in rs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
