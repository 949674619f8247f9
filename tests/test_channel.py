import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsync.channel import (
    CarrierPlan,
    compression_gain_db,
    prop_phase,
    sigma_from_snr,
)
from dualsync.nodes import _stream
from dualsync.pll import wrap_phase

TWO_PI = 2.0 * math.pi


class TestCarrierPlan:
    def test_default_plan(self):
        plan = CarrierPlan()
        assert plan.forward_hz == (2150e6, 2250e6)
        assert plan.return_hz == (2160e6, 2240e6)

    def test_midpoints_coincide(self):
        plan = CarrierPlan()
        assert sum(plan.forward_hz) / 2 == sum(plan.return_hz) / 2 == plan.fc_hz

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            CarrierPlan(fc_hz=2200e6, fm_hz=40e6, fs_hz=50e6)

    @pytest.mark.parametrize("name, value", [
        *[(name, value) for name in ("fs_hz", "fm_hz", "fc_hz")
          for value in (0.0, -1.0, math.nan, math.inf, -math.inf)],
        (None, None),
    ])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(freqs=st.lists(st.floats(1e3, 1e10), min_size=3, max_size=3, unique=True).map(sorted))
    def test_refuses_a_bad_field_by_name(self, name, value, freqs):
        fields = dict(zip(("fs_hz", "fm_hz", "fc_hz"), freqs))
        if name is None:
            assert CarrierPlan(**fields).return_hz[0] == fields["fc_hz"] - fields["fs_hz"]
            return
        fields[name] = value
        # an out-of-order plan names all three fields
        with pytest.raises(ValueError, match=f"^carrier plan requires .*{name}"):
            CarrierPlan(**fields)


class TestPropPhase:
    def test_zero_delay(self):
        assert prop_phase(2.2e9, 0.0) == 0.0

    def test_integer_cycles_wrap_away(self):
        f = 1e9
        tau = 7 / f
        assert prop_phase(f, tau) == pytest.approx(0.0, abs=1e-6)

    def test_quarter_cycle(self):
        f = 2.2e9
        tau = 0.25 / f
        assert prop_phase(f, tau) == pytest.approx(-math.pi / 2, abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            prop_phase(-1.0, 0.0)
        with pytest.raises(ValueError):
            prop_phase(1e9, -1e-9)


class TestSigmaFromSnr:
    def test_zero_db_with_gain(self):
        assert sigma_from_snr(0.0, 15.0) == pytest.approx(10**-0.75, rel=1e-12)

    def test_infinite_snr(self):
        assert sigma_from_snr(math.inf, 15.0) == 0.0

    def test_twenty_db(self):
        assert sigma_from_snr(20.0, 15.0) == pytest.approx(10**-1.75, rel=1e-12)

    def test_compression_gain_value(self):
        assert compression_gain_db(32) == pytest.approx(15.051, abs=0.001)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            sigma_from_snr(math.nan, 15.0)


class TestLegSets:
    def test_reciprocity_of_pair_means(self):
        # same tau and shared midpoint: forward and return mean propagation
        # phases agree modulo 2*pi
        tau = 0.83e-6
        phi = [prop_phase(f, tau) for f in CarrierPlan().carriers_hz]
        fwd = phi[0] + phi[1]
        ret = phi[2] + phi[3]
        assert wrap_phase(fwd - ret) == pytest.approx(0.0, abs=1e-6)

    def test_noise_streams_independent(self):
        # the runner draws each leg's noise from its own child stream,
        # nodes._stream; verify the scheme yields uncorrelated streams
        n = 1_000_000
        a = np.random.default_rng(_stream(123, 2)).standard_normal(n)
        b = np.random.default_rng(_stream(123, 3)).standard_normal(n)
        corr = np.dot(a, b) / n
        assert abs(corr) < 3.0 / math.sqrt(n)
