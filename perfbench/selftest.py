"""Self-test of the benchmark: every workload at its smallest size.

    python3 perfbench/selftest.py

For each workload, with tracing off and on, it asserts that every metric
named in BENCHMARK.json is emitted with its unit, that every output check
ran and passed, and that the traced self times of a repetition sum to no
more than its wall time.  The file name keeps it out of a repo-root
pytest run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# checks each workload must report; "digests" because the seed is the default
EXPECTED_CHECKS = {
    "ring_psd": {"ring_psd.finite", "ring_psd.rms_bound"},
    "sweep_timeseries": {"sweep.manifest", "sweep.finite", "sweep.tail_rms_bound"},
    "analysis": {"analysis.fit_psd_vs_model", "analysis.fig13_psd_vs_model",
                 "analysis.bode_finite", "analysis.margin_1mhz"},
}
COMMON_CHECKS = {"deterministic", "digests"}


def run_tiny(workload: str, trace: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def check_run(spec: dict, workload: str, trace: int) -> None:
    lines = run_tiny(workload, trace)
    result = lines[-1]
    tag = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, tag
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, tag

    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{tag}: metric {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{tag}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{tag}: {metric['name']} not a number"

    checks = next(line["checks"] for line in lines if "checks" in line)
    expected = EXPECTED_CHECKS[workload] | COMMON_CHECKS
    assert expected <= set(checks), f"{tag}: checks not run: {expected - set(checks)}"
    assert all(checks.values()), f"{tag}: failed checks {checks}"

    if trace:
        spans = next(line["trace"] for line in lines if "trace" in line)
        assert not spans["absent"], f"{tag}: absent boundaries {spans['absent']}"
        assert spans["wall_s"], f"{tag}: no traced repetition"
        for self_sum, wall in zip(spans["self_sum_s"], spans["wall_s"]):
            assert self_sum <= wall, f"{tag}: self times {self_sum} exceed wall {wall}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(EXPECTED_CHECKS)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
            print(f"ok {workload['name']} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
