"""Record the dualsync benchmark's end-to-end metrics into BENCH_<label>.json.

    python3 bench/record.py --label 7 --runs 5
    python3 bench/record.py --label 6 --runs 5 --checkout ../parent-checkout

Runs the benchmark that ``BENCHMARK.json`` of a source checkout (by
default the one this script sits in) declares, at its ``run_seconds``,
seed 1 and ``--trace 0``, ``--runs`` times for each workload, cycling
through the workloads so that slow drift of a shared host spreads over all
of them.  The JSON file keeps, per workload, every run's ``facts`` line and
result line as perfbench printed them, and per metric the median and
quartiles over the runs that produced a result.  It is written to the root
of the checkout this script sits in, so a baseline measured on another
checkout lands beside the others.
"""

from __future__ import annotations

import argparse
import json
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


def run_once(checkout: Path, command: list[str]) -> dict:
    """One benchmark run: its facts and result lines, or why there are none."""
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    run = {}
    for line in proc.stdout.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "facts" in obj:
            run["facts"] = obj["facts"]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name is BENCH_<label>.json")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload (default 5)")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="source checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkout = args.checkout.resolve()
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    command = [*bench["command"], "--seed", "1", "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
    workloads = [w["name"] for w in bench["workloads"]]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            run = run_once(checkout, [*command, "--workload", workload])
            runs[workload].append(run)
            status = "error" if "error" in run else f"correct={run['result']['correct']}"
            print(f"{workload} run {i + 1}/{args.runs}: {status}", file=sys.stderr)

    record = {
        "label": args.label,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git(checkout, "status", "--porcelain", "--", "src")),
        "command": " ".join(command),
        "workloads": {
            w: {"runs": rs, "summary": summarize([r["result"] for r in rs if "result" in r])}
            for w, rs in runs.items()
        },
    }
    path = ROOT / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    failed = sum("error" in r or not r["result"]["correct"] for rs in runs.values() for r in rs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
