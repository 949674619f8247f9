"""The benchmark's per-layer spans patch names that must exist in dualsync.

``perfbench/spans.py`` reports a boundary whose module or attribute is
gone as absent and silently drops the metrics built on it, so a rename
or deletion under ``src/`` would blank a per-layer metric without any
failure.  This test fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dualsync.cli import main
from dualsync.config import parse_config_file

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", [(b[0], b[1]) for b in _spans().BOUNDARIES])
def test_patch_point_resolves(module_name, attr):
    module = importlib.import_module(f"dualsync.{module_name}")
    assert callable(getattr(module, attr, None)), f"dualsync.{module_name}.{attr}"


def test_clock_psd_synthesis_is_traced(tmp_path):
    # the tracer patches nodes._clock_series; a caller that bound the name
    # at import would synthesize outside every span
    cfg = tmp_path / "clock.cfg"
    cfg.write_text("[output]\npsd_source = follower_clock\npsd_block_len = 512\n"
                   "psd_n_blocks = 3\n")
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.totals()["oscillator.synth"]["samples"] == 512 * 3


def test_positional_counts_match_the_run(tmp_path):
    # the tracer reads the tick count, the CSV rows and the series lengths
    # from positional arguments; an argument moved out of its position is
    # still a patch point that resolves, but counts the wrong value
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("[run]\nduration_s = 0.1\n[output]\nemit_psd = on\n"
                   "psd_source = master_clock\npsd_block_len = 64\npsd_n_blocks = 8\n")
    n_ticks = parse_config_file(str(cfg)).to_scenario().n_ticks
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["nodes.kernel"]["ticks"] == n_ticks
    # the tracer counts the items of _write_csv's fourth argument, which are
    # columns: timeseries.csv's, then psd.csv's frequency and level
    assert [s.counts["rows"] for s in tracer.spans if s.name == "cli.emit"] == [9, 2]
    assert totals["spectral.psd"]["samples"] == 64 * 8
    # both ring clocks, then the master clock for its PSD
    assert totals["oscillator.synth"]["samples"] == 2 * n_ticks + 64 * 8
