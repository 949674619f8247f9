import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dualsync.config import SCHEMA, ConfigError, parse_config
from dualsync.nodes import Scenario

CLOCK_PSD_OF_IDEAL_CLOCKS = ("output.psd_source master_clock or follower_clock "
                             "requires run.ideal_clocks = off")

FLOAT_KEYS = [(section, key) for section, keys in SCHEMA.items()
              for key, (_, default) in keys.items()
              if isinstance(default, float) and (section, key) != ("channel", "snr_db")]


class TestDefaults:
    def test_empty_text_yields_stack_defaults(self):
        cfg = parse_config("")
        assert cfg.get("run", "baud_hz") == 8e6
        assert cfg.get("run", "decimation") == 956
        assert cfg.get("framing", "pilot_len") == 32
        assert cfg.get("channel", "fc_hz") == 2200e6
        assert cfg.get("channel", "fm_hz") == 50e6
        assert cfg.get("channel", "fs_hz") == 40e6
        assert cfg.get("channel", "snr_db") == math.inf
        assert cfg.get("master", "mask") == ((1.0, -85.0), (10.0, -125.0), (10e3, -160.0))

    def test_empty_text_yields_default_scenario(self):
        cfg = parse_config("")
        assert cfg.to_scenario() == Scenario()
        assert cfg.sha256() == (
            "c7a39bf1c893b39363a1a6d6783cc9d1176410878d38660b3cde385d5ac3f091")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\n[run]\n; another\nseed = 7\n")
        assert cfg.get("run", "seed") == 7


class TestParsing:
    def test_mask_literal(self):
        cfg = parse_config("[master]\nmask = [(1, -80), (100, -120)]\n")
        assert cfg.get("master", "mask") == ((1.0, -80.0), (100.0, -120.0))

    def test_booleans(self):
        cfg = parse_config("[channel]\ndual_carrier = off\n[run]\nwrap_compensation = on\n")
        assert cfg.get("channel", "dual_carrier") is False
        assert cfg.get("run", "wrap_compensation") is True

    def test_infinite_snr(self):
        cfg = parse_config("[channel]\nsnr_db = inf\n")
        assert math.isinf(cfg.get("channel", "snr_db"))

    def test_scenario_mapping(self):
        cfg = parse_config(
            "[master]\nomega_m_hz = 10\n[follower]\ninitial_phase_deg = 180\n"
            "[run]\nduration_s = 2\n"
        )
        scn = cfg.to_scenario()
        assert scn.omega_m_hz == 10
        assert scn.initial_follower_phase_rad == pytest.approx(math.pi)
        assert scn.n_ticks == int(round(2 * 8e6 / 956))

    def test_to_scenario_returns_the_scenario_validation_built(self, monkeypatch):
        cfg = parse_config("[run]\nduration_s = 2\n")
        longer = cfg.with_values({"run.duration_s": 3})
        # a call of to_scenario would fail on any check or build it ran again
        monkeypatch.setattr(Scenario, "problems", None)
        assert cfg.to_scenario() is cfg.to_scenario()
        assert (cfg.to_scenario().duration_s, longer.to_scenario().duration_s) == (2, 3)


    # float() would round each of these to its neighbour ...992, ...808 or 10^19
    @pytest.mark.parametrize("seed", [2**53 + 1, 2**63 + 1, 10**19 + 1])
    def test_integer_past_2_53_keeps_its_value(self, seed):
        assert parse_config(f"[run]\nseed = {seed}\n").get("run", "seed") == seed
        cfg = parse_config("")
        assert cfg.with_values({"run.seed": seed}).get("run", "seed") == seed
        assert cfg.with_values({"run.seed": str(seed)}).get("run", "seed") == seed

    @pytest.mark.parametrize("text, value", [("1e19", 10**19), ("10.0", 10), ("+3", 3),
                                             ("1_000", 1000)])
    def test_other_integer_forms_are_read(self, text, value):
        got = parse_config(f"[run]\nseed = {text}\n").get("run", "seed")
        assert (got, type(got)) == (value, int)

    @pytest.mark.parametrize("text", ["1.5", "inf", "nan", "1e400", "abc"])
    def test_non_integers_are_refused(self, text):
        with pytest.raises(ConfigError, match="run.seed|line 2"):
            parse_config(f"[run]\nseed = {text}\n")


class TestValidation:
    def test_negative_omega_names_key(self):
        with pytest.raises(ConfigError, match="omega_m_hz"):
            parse_config("[master]\nomega_m_hz = -5\n")

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[run]\nseed = 1\nseed = 2\n")
        msg = str(info.value)
        assert "duplicate" in msg
        assert "line 3" in msg and "line 2" in msg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[run]\nturbo = yes\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[warp]\nfactor = 9\n")

    def test_all_errors_reported_at_once(self):
        bad = (
            "[master]\nomega_m_hz = -5\nzeta_m = 0\n"
            "[channel]\nfs_hz = 90e6\n"
            "[run]\nduration_s = -1\n"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert len(info.value.errors) >= 4

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[run]\nthis is not a key value pair\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside any"):
            parse_config("seed = 1\n")

    def test_bad_mask_reported_per_side(self):
        with pytest.raises(ConfigError, match="follower.mask"):
            parse_config("[follower]\nmask = [(10, -80), (1, -120)]\n")

    def test_non_finite_mask_offset_rejected(self):
        # 1e999 reads as inf
        with pytest.raises(ConfigError) as info:
            parse_config("[master]\nmask = [(1, -85), (10, -125), (1e999, -160)]\n")
        assert info.value.errors == [
            "master.mask: points' offsets must be positive, finite and strictly increasing"]

    @pytest.mark.parametrize("side", ["master", "follower"])
    def test_mask_level_whose_power_underflows_rejected(self, side):
        with pytest.raises(ConfigError) as info:
            parse_config(f"[{side}]\nmask = [(1, -85), (10, -4000), (10000, -160)]\n")
        assert info.value.errors == [f"{side}.mask: points' level -4000 dBc/Hz at 10 Hz "
                                     f"underflows to a linear power of 0"]

    def test_scenario_problems_are_reported_under_config_keys(self):
        text = ("[channel]\ntau_s = -1e-9\nloop_latency_ticks = 0\n"
                "[framing]\npilot_len = 64\n[run]\nduration_s = 1e-9\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [
            "channel.tau_s must be nonnegative and finite",
            "channel.loop_latency_ticks must be >= 1",
            "framing.pilot_len must be a power of two in 1..32",
        ]
        with pytest.raises(ConfigError) as info:
            parse_config("[run]\nduration_s = 1e-9\n")
        assert info.value.errors == ["run.duration_s must span at least one tick "
                                     "(run.decimation/run.baud_hz) and finitely many"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["-inf", "nan"])
    def test_snr_accepts_only_positive_infinity(self, value):
        with pytest.raises(ConfigError, match="channel.snr_db"):
            parse_config(f"[channel]\nsnr_db = {value}\n")

    @pytest.mark.parametrize("pilot_len, decimation", [(32, 32), (16, 16), (32, 1), (1, 0)])
    def test_pilot_must_fit_in_a_tick(self, pilot_len, decimation):
        # one pilot per tick: the tick rate is baud_hz/run.decimation
        text = f"[framing]\npilot_len = {pilot_len}\n[run]\ndecimation = {decimation}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == ["run.decimation must exceed framing.pilot_len"]

    @pytest.mark.parametrize("pilot_len, decimation", [(32, 33), (32, 512), (1, 2)])
    def test_any_decimation_above_the_pilot_length_parses(self, pilot_len, decimation):
        cfg = parse_config(
            f"[framing]\npilot_len = {pilot_len}\n[run]\ndecimation = {decimation}\n")
        assert cfg.to_scenario().tick_rate_hz == 8e6 / decimation

    @pytest.mark.parametrize("pilot_len", [1, 2])
    def test_short_pilots_parse(self, pilot_len):
        cfg = parse_config(f"[framing]\npilot_len = {pilot_len}\n")
        assert cfg.to_scenario().pilot_len == pilot_len

    def test_carrier_plan_ordering(self):
        with pytest.raises(ConfigError, match="carrier plan"):
            parse_config("[channel]\nfm_hz = 30e6\n")

    @pytest.mark.parametrize("source", ["master_clock", "follower_clock"])
    def test_clock_psd_of_ideal_clocks_rejected(self, source):
        # an ideal clock has no phase noise: the PSD would ignore the flag
        text = f"[run]\nideal_clocks = on\n[output]\npsd_source = {source}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [CLOCK_PSD_OF_IDEAL_CLOCKS]
        cfg = parse_config(f"[output]\npsd_source = {source}\n")
        with pytest.raises(ConfigError) as info:
            cfg.with_values({"run.ideal_clocks": "on"})
        assert info.value.errors == [CLOCK_PSD_OF_IDEAL_CLOCKS]
        assert parse_config("[run]\nideal_clocks = on\n").get("run", "ideal_clocks")


# valid values for keys of every value type: int, float, +inf, bool, str
# and mask tuple; run.decimation also sets a retired key's value
UPDATES = {
    "run.seed": st.integers(0, 2**63),
    "run.decimation": st.integers(33, 5000),
    "run.duration_s": st.floats(0.5, 1e3),
    "run.wrap_compensation": st.booleans(),
    "channel.snr_db": st.just(math.inf) | st.floats(-20.0, 60.0),
    "channel.doppler_hz": st.floats(-1e3, 1e3),
    "channel.loop_latency_ticks": st.integers(1, 10),
    "master.mask": st.sampled_from([((1.0, -85.0), (10.0, -125.0), (1e4, -160.0)),
                                    ((2.5, -90.0), (1e3, -150.0))]),
    "follower.initial_phase_deg": st.floats(-360.0, 360.0),
    "framing.pilot_len": st.sampled_from([1, 2, 4, 8, 16, 32]),
    "output.directory": st.text("abz_-/.0", max_size=8),
    "output.emit_psd": st.booleans(),
    "sweep.values": st.text("0123456789, .", max_size=10),
}


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(updates=st.fixed_dictionaries({}, optional=UPDATES))
    def test_text_matches_the_sort_and_scan_oracle(self, updates):
        cfg = parse_config("").with_values(updates)
        assert cfg.canonical_text() == oracles.canonical_text(cfg)

    def test_hash_stable_under_formatting(self):
        a = parse_config("[run]\nseed = 3\n[master]\nomega_m_hz = 50\n")
        b = parse_config("# order and spacing differ\n[master]\nomega_m_hz=50\n[run]\nseed=3\n")
        assert a.sha256() == b.sha256()

    def test_hash_changes_with_values(self):
        a = parse_config("[run]\nseed = 3\n")
        b = parse_config("[run]\nseed = 4\n")
        assert a.sha256() != b.sha256()

    def test_canonical_text_round_trips(self):
        cfg = parse_config("[channel]\nsnr_db = 10\n")
        assert "snr_db = 10.0" in cfg.canonical_text()

    def test_canonical_text_writes_the_retired_keys_in_their_sorted_places(self):
        # the hash still covers the retired keys' fixed values, so every
        # hash written before their retirement keeps its bytes
        text = parse_config("[run]\ndecimation = 512\n").canonical_text()
        assert ("[framing]\ncode_index_follower = 2\ncode_index_master = 1\n"
                "inter_pilot = 512\npilot_len = 32\n[master]\n") in text
        assert ("[run]\nbaud_hz = 8000000.0\ndecimation = 512\nduration_s = 10.0\n"
                "ideal_clocks = False\nomega_units = 'hz_times_2pi'\nseed = 1\n"
                "wrap_compensation = True\n[sweep]\n") in text


class TestWithValues:
    @pytest.mark.parametrize("full", sorted(parse_config("").values))
    def test_parsed_value_round_trips(self, full):
        # str() of every schema type reads back as the same value
        cfg = parse_config("[master]\nomega_m_hz = 50\n[channel]\nsnr_db = 12.5\n")
        assert cfg.with_values({full: cfg.values[full]}) == cfg

    def test_text_and_value_agree_with_a_parsed_file(self):
        text = parse_config("").with_values(
            {"channel.snr_db": "inf", "run.ideal_clocks": "on", "run.duration_s": "70"})
        value = parse_config("").with_values(
            {"channel.snr_db": math.inf, "run.ideal_clocks": True, "run.duration_s": 70})
        parsed = parse_config("[run]\nideal_clocks = on\nduration_s = 70\n")
        assert text == value == parsed

    def test_leaves_the_original_alone(self):
        cfg = parse_config("")
        cfg.with_values({"run.seed": 9})
        assert cfg.get("run", "seed") == 1

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigError) as info:
            parse_config("").with_values(
                {"run.nope": 1, "run.seed": "x", "master.omega_m_hz": 1})
        assert info.value.errors[0] == "'run.nope' is not a known config key"
        assert info.value.errors[1].startswith("run.seed: ")
        assert len(info.value.errors) == 2

    def test_semantic_checks_apply(self):
        with pytest.raises(ConfigError) as info:
            parse_config("").with_values({"run.seed": -1, "run.decimation": 32})
        assert info.value.errors == ["run.seed must be nonnegative",
                                     "run.decimation must exceed framing.pilot_len"]


# keys that shape what is written, not the ring: the seed picks the
# streams, output.* the artifacts and sweep.* the grid of configs
EMISSION_ONLY = {
    "run.seed",
    "output.directory", "output.emit_psd", "output.psd_block_len", "output.psd_n_blocks",
    "output.psd_source", "output.psd_window_atten_db",
    "sweep.key", "sweep.values",
}

# a value off the default for every other key
OFF_DEFAULT = {
    "master.mask": "[(1, -80), (10, -120), (10000, -150)]",
    "master.mask_ref_hz": "5e6",
    "master.zeta_m": "0.7",
    "master.omega_m_hz": "50",
    "master.theta_offset": "0.1",
    "follower.mask": "[(1, -75), (10, -105), (10000, -145)]",
    "follower.mask_ref_hz": "5e6",
    "follower.zeta_s": "0.5",
    "follower.omega_s_hz": "50",
    "follower.initial_phase_deg": "90",
    "follower.freq_offset_hz": "1",
    "channel.snr_db": "10",
    "channel.doppler_hz": "1",
    "channel.tau_s": "1e-9",
    "channel.loop_latency_ticks": "2",
    "channel.fc_hz": "2300e6",
    "channel.fm_hz": "60e6",
    "channel.fs_hz": "30e6",
    "channel.dual_carrier": "off",
    "run.duration_s": "5",
    "run.baud_hz": "4e6",
    "run.decimation": "512",
    "run.wrap_compensation": "off",
    "run.ideal_clocks": "on",
    "framing.pilot_len": "16",
}


class TestEveryKeyHasAnEffect:
    def test_every_key_is_classified(self):
        # a new key fails here until it is listed in one of the two tables
        keys = {f"{section}.{key}" for section, keys in SCHEMA.items() for key in keys}
        assert not EMISSION_ONLY & set(OFF_DEFAULT)
        assert EMISSION_ONLY | set(OFF_DEFAULT) == keys

    @pytest.mark.parametrize("full", sorted(OFF_DEFAULT))
    def test_off_default_value_is_rejected_or_changes_the_scenario(self, full):
        base = parse_config("")
        try:
            cfg = base.with_values({full: OFF_DEFAULT[full]})
        except ConfigError:
            return
        assert cfg.values[full] != base.values[full]
        assert cfg.to_scenario() != base.to_scenario()
