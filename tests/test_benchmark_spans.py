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

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return [(b[0], b[1]) for b in module.BOUNDARIES]


@pytest.mark.parametrize("module_name,attr", _boundaries())
def test_patch_point_resolves(module_name, attr):
    module = importlib.import_module(f"dualsync.{module_name}")
    assert callable(getattr(module, attr, None)), f"dualsync.{module_name}.{attr}"
