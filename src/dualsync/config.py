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
unknown keys, and per-key semantic violations).  The checks of the
scenario are those of ``Scenario.problems``, ``NoiseMask`` and
``CarrierPlan``, reported under the config keys that set each field.
"""

from __future__ import annotations

import ast
import hashlib
import math
import re
from dataclasses import dataclass, field

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


def _parse_int(text: str) -> int:
    try:
        return int(text)  # exact where float() rounds, past 2^53
    except ValueError:
        v = float(text)  # "1e19" or "10.0"
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
        # +inf is a noiseless ring; Scenario refuses NaN and -inf
        "snr_db": (float, _SCN.snr_db),
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
    },
    "framing": {
        "pilot_len": (_parse_int, _SCN.pilot_len),
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

# keys with no effect, retired from SCHEMA (code indices and pilot spacing
# of a symbol-level pilot mode; omega is always 2*pi*f): canonical_text
# still writes each one's fixed value, so every config hash keeps its bytes
RETIRED_KEYS = {
    "framing.code_index_follower": lambda values: 2,
    "framing.code_index_master": lambda values: 1,
    "framing.inter_pilot": lambda values: values["run.decimation"],
    "run.omega_units": lambda values: "hz_times_2pi",
}

# canonical_text's layout, fixed at import: the sections sorted, each with
# the sorted (full key, key) pairs of its SCHEMA and retired keys
_FULL_KEYS = sorted([f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys]
                    + list(RETIRED_KEYS))
_CANONICAL_ORDER = tuple(
    (section, tuple((full, full.split(".")[1]) for full in _FULL_KEYS
                    if full.startswith(f"{section}.")))
    for section in sorted(SCHEMA))

# Scenario field -> the config key that sets it
_KEYS = {
    "zeta_m": "master.zeta_m", "omega_m_hz": "master.omega_m_hz",
    "theta_offset": "master.theta_offset",
    "zeta_s": "follower.zeta_s", "omega_s_hz": "follower.omega_s_hz",
    "follower_freq_offset_hz": "follower.freq_offset_hz",
    # set in degrees, see _scenario_fields
    "initial_follower_phase_rad": "follower.initial_phase_deg",
    "snr_db": "channel.snr_db", "doppler_hz": "channel.doppler_hz", "tau_s": "channel.tau_s",
    "loop_latency_ticks": "channel.loop_latency_ticks", "dual_carrier": "channel.dual_carrier",
    "duration_s": "run.duration_s", "baud_hz": "run.baud_hz", "decimation": "run.decimation",
    "wrap_compensation": "run.wrap_compensation", "ideal_clocks": "run.ideal_clocks",
    "pilot_len": "framing.pilot_len",
}
# Scenario fields built from several keys: the type, its keys in argument
# order and the prefix of the type's ValueError among the config's errors
_BUILT = {
    "master_mask": (NoiseMask, ("master.mask_ref_hz", "master.mask"), "master.mask: "),
    "follower_mask": (NoiseMask, ("follower.mask_ref_hz", "follower.mask"), "follower.mask: "),
    "plan": (CarrierPlan, ("channel.fc_hz", "channel.fm_hz", "channel.fs_hz"), "channel "),
}
_FIELD_NAMES = re.compile(r"\b(" + "|".join(_KEYS) + r")\b")

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
    # the Scenario the values describe, built once by their validation
    _scenario: Scenario = field(repr=False, compare=False)

    def get(self, section: str, key: str):
        return self.values[f"{section}.{key}"]

    def canonical_text(self) -> str:
        """Deterministic serialization used for hashing and reproduction:
        each section of _CANONICAL_ORDER, then `key = repr(value)` per key."""
        values = {**self.values, **{k: fixed(self.values) for k, fixed in RETIRED_KEYS.items()}}
        lines = []
        for section, keys in _CANONICAL_ORDER:
            lines.append(f"[{section}]")
            lines += [f"{key} = {values[full]!r}" for full, key in keys]
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
        return _validated(values, errors)

    def to_scenario(self) -> Scenario:
        return self._scenario


def _validated(values: dict, errors: list[str]) -> ScenarioConfig:
    """The checks parse_config and with_values share: the config of
    `values` with the Scenario they describe, or a ConfigError with
    `errors`, the problems found reading them, and every check's."""
    if not errors:
        _semantic_checks(values, errors)
        fields = _scenario_fields(values, errors)
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(values, Scenario(**fields))


def _scenario_fields(values: dict, errors: list[str]) -> dict:
    """The Scenario's keyword arguments read from config values; appends
    the masks' and the plan's ValueErrors and ``Scenario.problems``, each
    field named by its config key, to ``errors``."""
    fields = {name: values[key] for name, key in _KEYS.items()}
    fields["initial_follower_phase_rad"] = math.radians(fields["initial_follower_phase_rad"])
    for name, (build, keys, prefix) in _BUILT.items():
        try:
            fields[name] = build(*(values[key] for key in keys))
        except ValueError as exc:
            errors.append(f"{prefix}{exc}")
    errors += [_FIELD_NAMES.sub(lambda m: _KEYS[m[0]], problem)
               for problem in Scenario.problems(fields)]
    return fields


def _semantic_checks(values: dict, errors: list[str]) -> None:
    """The checks of what only the config holds: the seed and the outputs."""
    def check(cond: bool, message: str):
        if not cond:
            errors.append(message)

    check(values["run.seed"] >= 0, "run.seed must be nonnegative")
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
    return _validated(values, errors)


def parse_config_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
