"""Scenario configuration: a sectioned key=value text format.

Example::

    [master]
    mask = [(1, -85), (10, -125), (10000, -160)]
    mask_ref_hz = 10e6
    zeta_m = 1.0
    omega_m_hz = 100

    [channel]
    snr_db = 10
    doppler_hz = 1

Empty input yields the defaults: 8 MHz baud, decimation 956, 32-symbol
pilots, carriers at 2200 -+ 50 MHz forward and 2200 -+ 40 MHz return.
Parsing validates everything up front and reports every problem at once
(syntax errors with line numbers, duplicate keys with both occurrences,
unknown keys, and per-key semantic violations).
"""

from __future__ import annotations

import ast
import hashlib
import math
from dataclasses import dataclass

from .channel import CarrierPlan
from .nodes import Scenario
from .oscillator import DEFAULT_FOLLOWER_MASK, DEFAULT_MASTER_MASK, NoiseMask

_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}


def _parse_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _parse_snr_db(text: str) -> float:
    v = float(text)
    if math.isnan(v) or v == -math.inf:
        raise ValueError(f"expected a finite number or +inf, got {text!r}")
    return v


def _parse_int(text: str) -> int:
    v = float(text)
    if not v.is_integer():
        raise ValueError(f"expected an integer, got {text!r}")
    return int(v)


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, got {text!r}") from None


def _parse_mask_points(text: str) -> tuple:
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"mask must be a list of (offset_hz, level_dbc) pairs: {exc}") from None
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError("mask must be a non-empty list of (offset_hz, level_dbc) pairs")
    points = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValueError(f"mask entry {item!r} is not an (offset, level) pair")
        points.append((float(item[0]), float(item[1])))
    return tuple(points)


def _parse_str(text: str) -> str:
    return text.strip()


# scenario defaults live on Scenario, CarrierPlan and the default masks
_SCN = Scenario()

# schema: section -> key -> (parser, default)
SCHEMA: dict[str, dict[str, tuple]] = {
    "master": {
        "mask": (_parse_mask_points, DEFAULT_MASTER_MASK.points),
        "mask_ref_hz": (_parse_float, DEFAULT_MASTER_MASK.reference_freq_hz),
        "zeta_m": (_parse_float, _SCN.zeta_m),
        "omega_m_hz": (_parse_float, _SCN.omega_m_hz),
        "theta_offset": (_parse_float, _SCN.theta_offset),
    },
    "follower": {
        "mask": (_parse_mask_points, DEFAULT_FOLLOWER_MASK.points),
        "mask_ref_hz": (_parse_float, DEFAULT_FOLLOWER_MASK.reference_freq_hz),
        "zeta_s": (_parse_float, _SCN.zeta_s),
        "omega_s_hz": (_parse_float, _SCN.omega_s_hz),
        "initial_phase_deg": (_parse_float, 0.0),
        "freq_offset_hz": (_parse_float, _SCN.follower_freq_offset_hz),
    },
    "channel": {
        "snr_db": (_parse_snr_db, _SCN.snr_db),
        "doppler_hz": (_parse_float, _SCN.doppler_hz),
        "tau_s": (_parse_float, _SCN.tau_s),
        "loop_latency_ticks": (_parse_int, _SCN.loop_latency_ticks),
        "fc_hz": (_parse_float, _SCN.plan.fc_hz),
        "fm_hz": (_parse_float, _SCN.plan.fm_hz),
        "fs_hz": (_parse_float, _SCN.plan.fs_hz),
        "dual_carrier": (_parse_bool, _SCN.dual_carrier),
    },
    "run": {
        "duration_s": (_parse_float, _SCN.duration_s),
        "seed": (_parse_int, 1),
        "baud_hz": (_parse_float, _SCN.baud_hz),
        "decimation": (_parse_int, _SCN.decimation),
        "wrap_compensation": (_parse_bool, _SCN.wrap_compensation),
        "ideal_clocks": (_parse_bool, _SCN.ideal_clocks),
        "omega_units": (_parse_str, "hz_times_2pi"),
    },
    "framing": {
        "pilot_len": (_parse_int, _SCN.pilot_len),
        "inter_pilot": (_parse_int, _SCN.decimation),
        "code_index_master": (_parse_int, 1),
        "code_index_follower": (_parse_int, 2),
    },
    "output": {
        "directory": (_parse_str, "out"),
        "emit_psd": (_parse_bool, False),
        # defaults sized so the default 10 s run carries enough samples
        "psd_block_len": (_parse_int, 2**12),
        "psd_n_blocks": (_parse_int, 16),
        "psd_source": (_parse_str, "theta_bf_minus_theta0"),
        "psd_window_atten_db": (_parse_float, 120.0),
    },
    "sweep": {
        "key": (_parse_str, ""),
        "values": (_parse_str, ""),
    },
}

# keys that must keep their SCHEMA default: a symbol-level pilot mode the
# tick-rate ring does not model (code indices), and the one Hz -> rad/s
# reading, omega = 2*pi*f; any other value would be accepted and have no
# effect.  They stay in SCHEMA so that every config hash keeps its bytes.
RESERVED_KEYS = ("framing.code_index_master", "framing.code_index_follower",
                 "run.omega_units")

CLOCK_SOURCES = ("master_clock", "follower_clock")
_PSD_SOURCES = ("theta_bf_minus_theta0", "theta_out", "alpha", *CLOCK_SOURCES)


class ConfigError(ValueError):
    """All problems found in a config, reported together."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved and validated configuration."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[f"{section}.{key}"]

    def canonical_text(self) -> str:
        """Deterministic serialization used for hashing and reproduction."""
        lines = []
        for section in sorted(SCHEMA):
            lines.append(f"[{section}]")
            for key in sorted(SCHEMA[section]):
                lines.append(f"{key} = {self.values[f'{section}.{key}']!r}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def with_values(self, updates: dict) -> ScenarioConfig:
        """Copy with each "section.key" in `updates` replaced.

        Each value is read from str(value) by its SCHEMA parser, so it can
        be given as text or as a parsed value, and the result passes the
        checks parse_config applies to a file; raises ConfigError.
        """
        values = dict(self.values)
        errors: list[str] = []
        for full, value in updates.items():
            if full not in values:
                errors.append(f"{full!r} is not a known config key")
                continue
            section, key = full.split(".")
            try:
                values[full] = SCHEMA[section][key][0](str(value))
            except (ValueError, TypeError) as exc:
                errors.append(f"{full}: {exc}")
        if not errors:
            _semantic_checks(values, errors)
        if errors:
            raise ConfigError(errors)
        return ScenarioConfig(values=values)

    def to_scenario(self) -> Scenario:
        g = self.get
        return Scenario(
            duration_s=g("run", "duration_s"),
            baud_hz=g("run", "baud_hz"),
            decimation=g("run", "decimation"),
            zeta_m=g("master", "zeta_m"),
            omega_m_hz=g("master", "omega_m_hz"),
            zeta_s=g("follower", "zeta_s"),
            omega_s_hz=g("follower", "omega_s_hz"),
            theta_offset=g("master", "theta_offset"),
            master_mask=NoiseMask(g("master", "mask_ref_hz"), g("master", "mask")),
            follower_mask=NoiseMask(g("follower", "mask_ref_hz"), g("follower", "mask")),
            ideal_clocks=g("run", "ideal_clocks"),
            initial_follower_phase_rad=math.radians(g("follower", "initial_phase_deg")),
            follower_freq_offset_hz=g("follower", "freq_offset_hz"),
            plan=CarrierPlan(g("channel", "fc_hz"), g("channel", "fm_hz"),
                             g("channel", "fs_hz")),
            tau_s=g("channel", "tau_s"),
            doppler_hz=g("channel", "doppler_hz"),
            snr_db=g("channel", "snr_db"),
            pilot_len=g("framing", "pilot_len"),
            loop_latency_ticks=g("channel", "loop_latency_ticks"),
            dual_carrier=g("channel", "dual_carrier"),
            wrap_compensation=g("run", "wrap_compensation"),
        )


def _semantic_checks(values: dict, errors: list[str]) -> None:
    def check(cond: bool, message: str):
        if not cond:
            errors.append(message)

    check(values["master.zeta_m"] > 0, "master.zeta_m must be positive")
    check(values["follower.zeta_s"] > 0, "follower.zeta_s must be positive")
    check(values["master.omega_m_hz"] > 0, "master.omega_m_hz must be positive")
    check(values["follower.omega_s_hz"] > 0, "follower.omega_s_hz must be positive")
    for side in ("master", "follower"):
        try:
            NoiseMask(values[f"{side}.mask_ref_hz"], values[f"{side}.mask"])
        except ValueError as exc:
            errors.append(f"{side}.mask: {exc}")
    fc, fm, fs = (values["channel.fc_hz"], values["channel.fm_hz"], values["channel.fs_hz"])
    check(0 < fs < fm < fc, "channel carrier plan requires 0 < fs_hz < fm_hz < fc_hz")
    check(values["channel.tau_s"] >= 0, "channel.tau_s must be nonnegative")
    check(values["channel.loop_latency_ticks"] >= 1,
          "channel.loop_latency_ticks must be >= 1")
    check(values["run.duration_s"] > 0, "run.duration_s must be positive")
    check(values["run.seed"] >= 0, "run.seed must be nonnegative")
    check(values["run.baud_hz"] > 0, "run.baud_hz must be positive")
    check(values["run.decimation"] >= 1, "run.decimation must be >= 1")
    pl = values["framing.pilot_len"]
    check(1 <= pl <= 36 and (pl & (pl - 1)) == 0,
          "framing.pilot_len must be a power of two in 1..36")
    check(values["framing.inter_pilot"] > pl,
          "framing.inter_pilot must exceed the pilot length")
    # one pilot per tick: the simulator's tick rate is baud_hz/run.decimation
    check(values["framing.inter_pilot"] == values["run.decimation"],
          "framing.inter_pilot must equal run.decimation")
    for full in RESERVED_KEYS:
        section, key = full.split(".")
        default = SCHEMA[section][key][1]
        check(values[full] == default, f"{full} is reserved and must be {default}")
    check(values["output.psd_source"] in _PSD_SOURCES,
          f"output.psd_source must be one of {', '.join(_PSD_SOURCES)}")
    # an ideal clock has no phase noise to estimate
    check(not (values["run.ideal_clocks"] and values["output.psd_source"] in CLOCK_SOURCES),
          "output.psd_source master_clock or follower_clock requires run.ideal_clocks = off")
    check(values["output.psd_block_len"] >= 32, "output.psd_block_len must be >= 32")
    check(values["output.psd_n_blocks"] >= 1, "output.psd_n_blocks must be >= 1")
    check(40 <= values["output.psd_window_atten_db"] <= 320,
          "output.psd_window_atten_db must lie in [40, 320]")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a sectioned key=value config.

    Raises ConfigError carrying the complete list of problems; returns a
    fully resolved ScenarioConfig (defaults filled in) otherwise.
    """
    errors: list[str] = []
    seen: dict[str, int] = {}
    values: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any [section]")
            continue
        if key not in SCHEMA[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        full = f"{section}.{key}"
        if full in seen:
            errors.append(
                f"line {lineno}: duplicate key {full} (first set on line {seen[full]})"
            )
            continue
        seen[full] = lineno
        parser = SCHEMA[section][key][0]
        try:
            values[full] = parser(val)
        except (ValueError, TypeError) as exc:
            errors.append(f"line {lineno}: {full}: {exc}")
    for section, keys in SCHEMA.items():
        for key, (_, default) in keys.items():
            values.setdefault(f"{section}.{key}", default)
    if not errors:
        _semantic_checks(values, errors)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(values=values)


def parse_config_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
