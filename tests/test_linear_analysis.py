import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsync.linear_analysis import (
    RationalDelayTF,
    asym_error,
    bode,
    closed_tf,
    default_bode_grid,
    delay_margin,
    dual_loop_tfs,
    gc_tf,
)
from dualsync.pll import LoopConfig
from oracles import bisect_delay_margin

ONE = RationalDelayTF()


def second_order(zeta, f_hz):
    return closed_tf(LoopConfig(zeta, f_hz, 1e-7))


def direct_gm(s, zeta, f_hz):
    """Independent complex-arithmetic evaluator for the loop response."""
    om = 2 * math.pi * f_hz
    return (2 * zeta * om * s + om * om) / (s * s + 2 * zeta * om * s + om * om)


def random_freqs(n=200, seed=0):
    # the documented analysis range (1 Hz .. 100 kHz); below it the
    # high-pass responses vanish and any relative comparison hits the
    # cancellation floor of the "+1" in the identity itself
    rng = np.random.default_rng(seed)
    return 10 ** rng.uniform(0, 5, n)


class TestRationalDelayTF:
    def test_constant(self):
        assert ONE.evaluate(1j * 5.0) == 1.0 + 0j

    def test_pole_reports_infinity(self):
        tf = RationalDelayTF(num=(1.0,), den=(0.0, 1.0))  # 1/s
        assert np.isinf(np.abs(tf.evaluate(0.0)))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalDelayTF(num=(1.0,), den=(0.0,))

    def test_trailing_zeros_trimmed_to_builtin_floats(self):
        tf = RationalDelayTF(num=(1.0, 2.0, 0.0, -0.0), den=(0.0, 1.0, 0.0))
        assert tf.num == (1.0, 2.0)
        assert tf.den == (0.0, 1.0)
        assert all(type(c) is float for c in tf.num + tf.den)
        with pytest.raises(ValueError):
            RationalDelayTF(den=(0.0, 0.0))


class TestGcTf:
    def test_dc_value(self):
        assert gc_tf(ONE).evaluate(0) == pytest.approx(-1.0)

    def test_vanishes_when_gm_vanishes(self):
        zero = RationalDelayTF(num=(0.0,), den=(1.0,))
        assert gc_tf(zero).evaluate(1j * 100.0) == 0.0

    def test_against_independent_evaluator(self):
        zeta, f_hz = 1.0, 300.0
        tf = gc_tf(second_order(zeta, f_hz))
        s = 1j * 2 * math.pi * random_freqs(seed=5)
        g = direct_gm(s, zeta, f_hz)
        want = -0.5 * g / (1 - 0.5 * g)
        np.testing.assert_allclose(tf.evaluate(s), want, rtol=1e-12)


class TestDualLoopTfs:
    def test_dc_values_ideal_blocks(self):
        tfs = dual_loop_tfs(ONE, ONE)
        assert tfs["out_from_0"].evaluate(0) == pytest.approx(0.5)
        assert tfs["out_from_x"].evaluate(0) == pytest.approx(-1.0)
        assert tfs["bf_from_x"].evaluate(0) == 0.0

    def test_bf_from_0_is_out_from_0(self):
        tfs = dual_loop_tfs(second_order(1.0, 200.0), second_order(1.0, 200.0))
        assert tfs["bf_from_0"] is tfs["out_from_0"]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        zm=st.floats(0.3, 3.0), fm=st.floats(1.0, 1e4),
        zs=st.floats(0.3, 3.0), fs=st.floats(1.0, 1e4),
    )
    def test_bf_from_x_equals_out_from_x_plus_one(self, zm, fm, zs, fs):
        # absolute, not relative: far below the follower bandwidth bf_from_x
        # is high-pass and the "+1" cancels, so a relative bound measures
        # that cancellation rather than the identity
        tfs = dual_loop_tfs(second_order(zm, fm), second_order(zs, fs))
        s = 1j * 2 * math.pi * random_freqs(seed=1)
        lhs = tfs["bf_from_x"].evaluate(s)
        rhs = tfs["out_from_x"].evaluate(s) + 1.0
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_dc_null_for_unit_dc_follower(self):
        tfs = dual_loop_tfs(second_order(1.0, 150.0), second_order(0.8, 60.0))
        assert tfs["bf_from_x"].evaluate(0) == 0.0

    def test_against_independent_evaluator(self):
        zm, fm, zs, fs = 1.0, 200.0, 0.7, 400.0
        tfs = dual_loop_tfs(second_order(zm, fm), second_order(zs, fs))
        s = 1j * 2 * math.pi * random_freqs(seed=9)
        g_m = direct_gm(s, zm, fm)
        g_s = direct_gm(s, zs, fs)
        g_c = -0.5 * g_m / (1 - 0.5 * g_m)
        ring = 1 - g_c * g_s
        # cancellation-free forms: 1 - G = s**2/(s**2 + 2*zeta*omega*s + omega**2)
        # and G_c - 1 = -1/(1 - 0.5*G_m)
        om_s = 2 * math.pi * fs
        one_minus_gs = s * s / (s * s + 2 * zs * om_s * s + om_s * om_s)
        gc_minus_one = -1.0 / (1 - 0.5 * g_m)
        expected = {
            "out_from_0": g_s / ring,
            "out_from_x": gc_minus_one * g_s / ring,
            "bf_from_x": one_minus_gs / ring,
        }
        for key, want in expected.items():
            np.testing.assert_allclose(tfs[key].evaluate(s), want, rtol=1e-10)


class TestBode:
    def test_constant_tf(self):
        freqs, mags, phases = bode(ONE, default_bode_grid())
        assert np.array_equal(freqs, default_bode_grid())
        np.testing.assert_allclose(mags, 0.0, atol=1e-12)
        np.testing.assert_allclose(phases, 0.0, atol=1e-9)

    def test_bf_from_x_is_high_pass(self):
        tfs = dual_loop_tfs(second_order(1.0, 200.0), second_order(1.0, 200.0))
        _, mags, _ = bode(tfs["bf_from_x"], default_bode_grid())
        assert mags[0] < -50.0
        assert abs(mags[-1]) < 0.5

    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(ValueError):
            bode(ONE, [0.0, 1.0])


class TestDelayMargin:
    def test_one_megahertz_anchor(self):
        # 0.23 us round trip at a 1 MHz natural frequency; this anchor pins
        # the omega = 2*pi*f convention
        margin = delay_margin(1.0, 1e6, 1.0, 1e6)
        assert margin == pytest.approx(0.23e-6, rel=0.25)

    def test_monotone_nonincreasing_over_grid(self):
        grid = np.logspace(1, 6, 11)
        margins = delay_margin(1.0, grid, 1.0, grid).tolist()
        assert all(b <= a * (1 + 1e-9) for a, b in zip(margins, margins[1:]))

    def test_symmetric_parameters_consistent(self):
        a = delay_margin(1.0, 5e3, 1.0, 5e3)
        b = delay_margin(1.0, 5e3, 1.0, 5e3)
        assert a == b

    def test_scales_inversely_with_bandwidth(self):
        assert delay_margin(1.0, 1e3, 1.0, 1e3) == pytest.approx(
            1e3 * delay_margin(1.0, 1e6, 1.0, 1e6), rel=1e-3
        )

    def test_slow_follower_has_a_finite_margin(self):
        # |L| crosses unity at 88.8 rad/s, below 1e-2 times the master's
        # omega (628 rad/s): the search band must start from the slower loop
        assert delay_margin(1.0, 1e4, 1.0, 10.0) == pytest.approx(0.027706, rel=1e-4)
        assert delay_margin(1.0, 10.0, 1.0, 1e4) == pytest.approx(0.0352416, rel=1e-5)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        zm=st.floats(0.05, 5.0), zs=st.floats(0.05, 5.0),
        loops=st.lists(st.tuples(st.floats(0.1, 1e7), st.floats(1e-3, 1e3)),
                       min_size=1, max_size=30),
    )
    # the two points of test_slow_follower_has_a_finite_margin, in one call
    @example(zm=1.0, zs=1.0, loops=[(1e4, 1e-3), (10.0, 1e3)])
    def test_keeps_the_bytes_of_the_scalar_bisection(self, zm, zs, loops):
        fm = [f for f, _ in loops]
        fs = [f * ratio for f, ratio in loops]
        want = [repr(bisect_delay_margin(zm, m, zs, s)) for m, s in zip(fm, fs)]
        margins = delay_margin(zm, np.array(fm), zs, np.array(fs))
        assert margins.shape == (len(loops),)
        assert [repr(m) for m in margins.tolist()] == want
        assert [repr(delay_margin(zm, m, zs, s)) for m, s in zip(fm, fs)] == want

    def test_array_call_returns_the_broadcast_shape(self):
        column, row = np.array([[1e3], [1e4]]), np.array([1e3, 2e3])
        margins = delay_margin(1.0, column, 1.0, row)
        assert margins.shape == (2, 2)
        assert margins[1, 0] == delay_margin(1.0, 1e4, 1.0, 1e3)
        assert delay_margin(1.0, np.array([]), 1.0, 1e3).shape == (0,)
        assert type(delay_margin(1.0, np.float64(1e3), 1.0, 1e3)) is float

    def test_refuses_a_nonfinite_natural_frequency(self):
        # without the check a NaN omega reads as an infinite margin, a zero
        # one divides by zero and an infinite one makes a zero tick period
        with pytest.raises(ValueError, match="omega_n_hz"):
            delay_margin(1.0, math.nan, 1.0, math.nan)
        with pytest.raises(ValueError, match="omega_n_hz"):
            delay_margin(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="omega_n_hz"):
            delay_margin(1.0, 1e3, 1.0, math.inf)
        with pytest.raises(ValueError, match="omega_n_hz"):
            delay_margin(1.0, np.array([1e3, 0.0]), 1.0, np.array([1e3, 1e3]))
        with pytest.raises(ValueError, match="omega_n_hz"):
            delay_margin(1.0, np.array([1e3, 1e3]), 1.0, np.array([1e3, math.inf]))
        with pytest.raises(ValueError, match="omega_n_hz"):
            delay_margin(1.0, np.array([1e3, math.nan]), 1.0, np.array([1e3, 1e3]))
        with pytest.raises(ValueError, match="omega_n_hz"):
            delay_margin(1.0, np.array([1e3, 1e3]), 1.0, np.array([1e3, math.nan]))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        zm=st.floats(0.3, 2.0), zs=st.floats(0.3, 2.0),
        fm=st.floats(1.0, 1e5), ratio=st.floats(1e-3, 1e3),
    )
    def test_matches_brute_force_on_unequal_loops(self, zm, zs, fm, ratio):
        fs = fm * ratio
        w_min = 2 * math.pi * min(fm, fs)
        w_max = 2 * math.pi * max(fm, fs)
        w = np.logspace(math.log10(1e-4 * w_min), math.log10(1e4 * w_max), 100_000)

        def open_loop(w):
            g_m = direct_gm(1j * w, zm, fm)
            return -0.5 * g_m / (1 - 0.5 * g_m) * direct_gm(1j * w, zs, fs)

        log_mag = np.log(np.abs(open_loop(w)))
        idx = np.nonzero(np.diff(np.sign(log_mag)))[0]
        # interpolate each unity crossing in (log w, log |L|)
        frac = log_mag[idx] / (log_mag[idx] - log_mag[idx + 1])
        wc = np.exp(np.log(w[idx]) + frac * np.log(w[idx + 1] / w[idx]))
        margins = np.angle(open_loop(wc)) % (2 * math.pi) / wc
        want = float(margins.min()) if len(wc) else math.inf
        # approx(inf) equals only inf
        assert delay_margin(zm, fm, zs, fs) == pytest.approx(want, rel=1e-3)


class TestAsymError:
    def test_symmetric_offsets_cancel(self):
        assert asym_error(1.0, 50e6, 50e6, 2200e6) == 0.0

    def test_reference_evaluation(self):
        val = asym_error(1.0, 60e6, 50e6, 2200e6)
        assert val == pytest.approx(-1 / 440, rel=1e-12)

    def test_odd_in_phase_difference(self):
        a = asym_error(0.7, 60e6, 50e6, 2200e6)
        b = asym_error(-0.7, 60e6, 50e6, 2200e6)
        assert a == pytest.approx(-b)
