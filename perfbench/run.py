"""dualsync benchmark: drive the CLI in-process, time it, check its artifacts.

    python3 perfbench/run.py --workload ring_psd --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  Set-up time is
the median over fresh interpreters that import ``dualsync.cli``.  Then
one untimed warm-up repetition runs, and further repetitions run until
``--seconds`` have passed; every repetition invokes the workload's CLI
commands in this one process and writes into its own temporary
directory under ``.bench_build/``.  The reference job of reference.py
runs between every two repetitions; wall and CPU time are reported as
multiples of it, which cancels most of a shared host's speed drift.
With ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics come from the traced ones (see spans.py).

Stdout carries JSON lines: machine facts, the outcome of each output
check, and last the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 5
MIN_TIMED_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBE = ("import time\nt = time.perf_counter()\nimport dualsync.cli\n"
               "print(repr(time.perf_counter() - t))\n")


@dataclass
class Rep:
    """One repetition of a workload: its timings, exit status and output bytes."""

    directory: str
    ok: bool = False
    wall_s: float = 0.0
    cpu_s: float = 0.0
    digests: dict = field(default_factory=dict)
    layers: dict | None = None
    self_sum_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0

    @property
    def wall_rel(self) -> float:
        return self.wall_s / self.ref_wall_s

    @property
    def cpu_rel(self) -> float:
        return self.cpu_s / self.ref_cpu_s


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _digest_tree(directory: str) -> dict[str, str]:
    digests = {}
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            rel = os.path.relpath(path, directory).replace(os.sep, "/")
            with open(path, "rb") as fh:
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _setup_times(env: dict, probes: int) -> list[float]:
    """Import time of dualsync.cli in fresh interpreters; the first is a warm-up."""
    times = []
    for _ in range(probes + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def _run_rep(cli, workload, seed: int, tiny: bool, work_root: str, tracer=None) -> Rep:
    rep = Rep(tempfile.mkdtemp(dir=work_root, prefix=f"{workload.name}-"))
    for name, text in workload.files(seed, tiny).items():
        with open(os.path.join(rep.directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    commands = workload.commands(seed, tiny)
    cwd = os.getcwd()
    gc.collect()
    os.chdir(rep.directory)
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t0, c0 = time.perf_counter(), _cpu_s()
        codes = []
        for argv in commands:
            span = tracer.open(tracer.root) if tracer is not None else None
            try:
                codes.append(cli.main(argv))
            finally:
                if span is not None:
                    tracer.close(span)
            if codes[-1] != 0:
                break
        rep.wall_s, rep.cpu_s = time.perf_counter() - t0, _cpu_s() - c0
        rep.ok = codes == [0] * len(commands)
    except Exception:  # a crashing command is a failed repetition, not a crashed benchmark
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.chdir(cwd)
    rep.digests = _digest_tree(rep.directory)
    if tracer is not None:
        totals = tracer.totals()
        rep.self_sum_s = sum(t["self_s"] for t in totals.values())
        rep.layers = tracer.metrics(totals)
    return rep


def _facts(seed: int, workload: str, threads: str) -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": int(threads),
        "machine": platform.machine(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": has_numba,
    }


def _digest_env(facts: dict) -> dict:
    return {"machine": facts["machine"], "python": facts["python"].rsplit(".", 1)[0],
            "numpy": facts["numpy"]}


def _check_digests(rep0: Rep, name: str, seed: int, tiny: bool, facts: dict,
                   checks: dict) -> None:
    """Compare the artifacts' sha256 with those recorded for the default seed."""
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    expected = recorded["tiny" if tiny else "full"].get(name)
    if seed != recorded["seed"] or expected is None:
        return
    if recorded["env"] != _digest_env(facts):
        print(json.dumps({"note": "digests recorded under another environment; not compared",
                          "recorded_env": recorded["env"]}))
        return
    checks["digests"] = rep0.digests == expected


def _median(values):
    return statistics.median(values) if values else 0.0


def run(args, workload, threads: str) -> int:
    if not (SRC / "dualsync" / "cli.py").is_file():
        print(f"perfbench: no dualsync sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dualsync.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "dualsync":
        print(f"perfbench: imported dualsync from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    from spans import Tracer

    facts = _facts(args.seed, workload.name, threads)
    print(json.dumps({"facts": facts}))

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(dir=build, prefix="perfbench-")
    try:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        setup = _setup_times(env, 1 if args.tiny else SETUP_PROBES)

        tracer = Tracer() if args.trace else None
        min_reps = 1 if args.tiny else MIN_TIMED_REPS
        rep0 = _run_rep(cli, workload, args.seed, args.tiny, work_root)
        # read before the reference job first runs, so only the workload sets it
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain: list[Rep] = []
        traced: list[Rep] = []
        ref_before = reference.measure()
        deadline = time.perf_counter() + args.seconds
        while len(plain) < min_reps or time.perf_counter() < deadline:
            for rep_tracer in ((None, tracer) if tracer else (None,)):
                rep = _run_rep(cli, workload, args.seed, args.tiny, work_root, rep_tracer)
                shutil.rmtree(rep.directory)
                # the reference runs bracket each repetition; neighbours share one
                ref_after = reference.measure()
                rep.ref_wall_s = 0.5 * (ref_before[0] + ref_after[0])
                rep.ref_cpu_s = 0.5 * (ref_before[1] + ref_after[1])
                ref_before = ref_after
                (traced if rep_tracer else plain).append(rep)

        checks = {}
        if rep0.ok:
            try:
                checks.update(workload.check(rep0.directory, args.seed, args.tiny))
            except (OSError, ValueError, IndexError, KeyError):
                traceback.print_exc()
                checks["artifacts_readable"] = False
            _check_digests(rep0, workload.name, args.seed, args.tiny, facts, checks)
        reps = [rep0, *plain, *traced]
        checks["deterministic"] = all(r.digests == rep0.digests for r in reps)
        print(json.dumps({"artifacts": rep0.digests}))
        print(json.dumps({"checks": checks}))
        outputs_ok = rep0.ok and all(checks.values())
        failed = sum(1 for r in reps if not (r.ok and outputs_ok and r.digests == rep0.digests))

        print(json.dumps({"reps": {key: [getattr(r, key) for r in plain] for key in
                                   ("wall_s", "cpu_s", "ref_wall_s", "ref_cpu_s")}}))
        wall_s = _median([r.wall_s for r in plain])
        ref_wall_s = _median([r.ref_wall_s for r in plain])
        if not args.trace:
            metrics = {
                "setup_s": (_median(setup), "s"),
                "wall_rel": (_median([r.wall_rel for r in plain]), "ratio"),
                "cpu_rel": (_median([r.cpu_rel for r in plain]), "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            print(json.dumps({"trace": {"absent": sorted(tracer.absent),
                                        "wall_s": [r.wall_s for r in traced],
                                        "self_sum_s": [r.self_sum_s for r in traced]}}))
            metrics = {
                name: (_median([r.layers[name][0] for r in traced]), unit)
                for name, (_, unit) in traced[0].layers.items()
            }
            metrics["wall_s"] = (wall_s, "s")
            metrics["reference_s"] = (ref_wall_s, "s")
            metrics["ticks_per_s"] = (workload.ticks(args.tiny) / wall_s if wall_s else 0.0,
                                      "ticks/s")
            # compared as multiples of the reference, so machine drift cancels
            metrics["trace.overhead_s"] = (ref_wall_s * (
                _median([r.wall_rel for r in traced]) - _median([r.wall_rel for r in plain])), "s")
            metrics["fail_frac"] = (failed / len(reps), "ratio")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    # pin native thread pools before numpy is first imported
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced repetitions")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up probe, for the self-test")
    args = parser.parse_args(argv)
    return run(args, WORKLOADS[args.workload], threads)


if __name__ == "__main__":
    sys.exit(main())
