"""Outside-in tracing of the dualsync layers.

The benchmark records spans around the calls into each package module by
swapping module-level names that callers look up at call time (for
example ``cli.run_scenario`` or ``nodes._tick_loop_fast``) for wrappers.
Nothing under ``src/`` is edited.  A boundary whose module or name no
longer exists is reported as absent; every metric that needs it is then
left out instead of the run failing.

Spans are kept in memory: (name, start, end, parent index, counts).  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _counting(rows, box):
    for row in rows:
        box[0] += 1
        yield row


def _emit_call(fn, args, kwargs, counts):
    # _write_csv(path, comment, header, rows): count rows as they stream
    # through and read the written size back afterwards
    args = list(args)
    box = [0]
    if "rows" in kwargs:
        kwargs = dict(kwargs, rows=_counting(kwargs["rows"], box))
    else:
        args[3] = _counting(args[3], box)
    result = fn(*args, **kwargs)
    counts["rows"] = box[0]
    counts["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))
    return result


def _plain_call(counter):
    def call(fn, args, kwargs, counts):
        if counter is not None:
            counts.update(counter(args, kwargs))
        return fn(*args, **kwargs)
    return call


# (module, attribute, span name, how to call and count)
BOUNDARIES = (
    ("cli", "parse_config", "config.parse", _plain_call(None)),
    ("cli", "parse_config_file", "config.parse", _plain_call(None)),
    ("cli", "run_scenario", "nodes.run", _plain_call(None)),
    ("nodes", "_clock_series", "oscillator.synth",
     _plain_call(lambda a, k: {"samples": int(_arg(a, k, 3, "n"))})),
    ("nodes", "_tick_loop_fast", "nodes.kernel",
     _plain_call(lambda a, k: {"ticks": int(_arg(a, k, 0, "n"))})),
    ("cli", "fit_two_state", "oscillator.fit", _plain_call(None)),
    ("cli", "synthesize_phase", "oscillator.synth",
     _plain_call(lambda a, k: {"samples": int(_arg(a, k, 1, "n"))})),
    ("cli", "psd_estimate", "spectral.psd",
     _plain_call(lambda a, k: {"samples": len(_arg(a, k, 0, "phase_rad"))})),
    ("spectral", "cheb_window", "spectral.window",
     _plain_call(lambda a, k: {"len": int(_arg(a, k, 0, "n"))})),
    ("linear_analysis", "bode", "linear_analysis.bode", _plain_call(None)),
    ("linear_analysis", "delay_margin", "linear_analysis.margin",
     _plain_call(lambda a, k: {"points": 1})),
    ("cli", "_write_csv", "cli.emit", _emit_call),
)

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    """Span recorder plus the module patches that feed it."""

    root = ROOT

    def __init__(self, package: str = "dualsync"):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name, fn, call):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return call(fn, args, kwargs, span.counts)
            finally:
                tracer.close(span)

        return traced

    def install(self) -> None:
        """Patch every boundary that exists; remember the missing ones."""
        for module_name, attr, name, call in BOUNDARIES:
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn, call))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def metrics(self, totals: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metric values from totals(), minus those of absent boundaries."""
        return {
            name: (float(fn(totals)), unit)
            for name, (unit, needs, fn) in LAYER_METRICS.items()
            if not self.absent.intersection(needs)
        }

    def totals(self) -> dict[str, dict]:
        """Per span name: summed self time, call count and summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = {}
        for span, children in zip(self.spans, child_time):
            agg = out.setdefault(span.name, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += (span.end - span.start) - children
            agg["calls"] += 1
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out


def _ratio(num, den, scale):
    return scale * num / den if den else 0.0


def _get(totals, name, key="self_s"):
    return totals.get(name, {}).get(key, 0)


# per-layer metric -> (unit, span names it needs, value from span totals)
LAYER_METRICS = {
    "nodes.kernel_s": ("s", ("nodes.kernel",), lambda t: _get(t, "nodes.kernel")),
    "nodes.kernel_ticks": ("count", ("nodes.kernel",),
                           lambda t: _get(t, "nodes.kernel", "ticks")),
    "nodes.kernel_us_per_tick": ("us/tick", ("nodes.kernel",), lambda t: _ratio(
        _get(t, "nodes.kernel"), _get(t, "nodes.kernel", "ticks"), 1e6)),
    "nodes.run_self_s": ("s", ("nodes.run", "oscillator.synth", "nodes.kernel"),
                         lambda t: _get(t, "nodes.run")),
    "nodes.scenarios": ("count", ("nodes.run",), lambda t: _get(t, "nodes.run", "calls")),
    "cli.emit_s": ("s", ("cli.emit",), lambda t: _get(t, "cli.emit")),
    "cli.emit_rows": ("count", ("cli.emit",), lambda t: _get(t, "cli.emit", "rows")),
    "cli.emit_bytes": ("bytes", ("cli.emit",), lambda t: _get(t, "cli.emit", "bytes")),
    "cli.emit_us_per_row": ("us/row", ("cli.emit",), lambda t: _ratio(
        _get(t, "cli.emit"), _get(t, "cli.emit", "rows"), 1e6)),
    "cli.self_s": ("s", tuple(b[2] for b in BOUNDARIES), lambda t: _get(t, ROOT)),
    "oscillator.fit_s": ("s", ("oscillator.fit",), lambda t: _get(t, "oscillator.fit")),
    "oscillator.synth_s": ("s", ("oscillator.synth",), lambda t: _get(t, "oscillator.synth")),
    "oscillator.synth_samples": ("count", ("oscillator.synth",),
                                 lambda t: _get(t, "oscillator.synth", "samples")),
    "oscillator.synth_ns_per_sample": ("ns/sample", ("oscillator.synth",), lambda t: _ratio(
        _get(t, "oscillator.synth"), _get(t, "oscillator.synth", "samples"), 1e9)),
    "spectral.window_s": ("s", ("spectral.window",), lambda t: _get(t, "spectral.window")),
    "spectral.window_len": ("count", ("spectral.window",),
                            lambda t: _get(t, "spectral.window", "len")),
    "spectral.psd_s": ("s", ("spectral.psd", "spectral.window"),
                       lambda t: _get(t, "spectral.psd")),
    "spectral.psd_samples": ("count", ("spectral.psd",),
                             lambda t: _get(t, "spectral.psd", "samples")),
    "linear_analysis.bode_s": ("s", ("linear_analysis.bode",),
                               lambda t: _get(t, "linear_analysis.bode")),
    "linear_analysis.margin_s": ("s", ("linear_analysis.margin",),
                                 lambda t: _get(t, "linear_analysis.margin")),
    "linear_analysis.margin_points": ("count", ("linear_analysis.margin",),
                                      lambda t: _get(t, "linear_analysis.margin", "points")),
    "config.parse_s": ("s", ("config.parse",), lambda t: _get(t, "config.parse")),
}
