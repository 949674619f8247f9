import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.signal

import dualsync
from dualsync.channel import prop_phase
from dualsync.linear_analysis import closed_tf
from dualsync.pll import LoopConfig, wrap_phase
from oracles import LoopUnit, controller_step, discriminate

TWO_PI = 2.0 * math.pi


def make_cfg(zeta=1.0, f_hz=10.0, t=1e-4):
    return LoopConfig(zeta=zeta, omega_n_hz=f_hz, tick_period_s=t)


def test_import_leaves_linear_analysis_unloaded():
    # the loop configuration and phase wrap that the kernel reads depend on
    # no transfer-function code (the stepwise controller the oracle is built
    # from lives in tests/oracles.py); the package module is created
    # unexecuted, because its __init__ imports everything
    src = os.path.dirname(os.path.dirname(os.path.abspath(dualsync.__file__)))
    probe = ("import importlib.util, sys\n"
             "spec = importlib.util.find_spec('dualsync')\n"
             "sys.modules['dualsync'] = importlib.util.module_from_spec(spec)\n"
             "import dualsync.pll\n"
             "print('dualsync.linear_analysis' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    assert proc.stdout.strip() == "False"


class TestWrapPhase:
    def test_zero(self):
        assert wrap_phase(0.0) == 0.0

    def test_three_pi(self):
        assert wrap_phase(3 * math.pi) == pytest.approx(math.pi)

    def test_minus_pi_maps_to_pi(self):
        assert wrap_phase(-math.pi) == pytest.approx(math.pi)

    def test_half_open_interval_and_congruence(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-50, 50, 500):
            w = wrap_phase(x)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.cos(w - x), 1.0, abs_tol=1e-9)

    def test_rounding_can_land_just_above_pi(self):
        # the documented range holds up to the rounding of x + 2*pi*k;
        # the result is not clamped (pinned series depend on these bytes)
        above_pi = math.nextafter(math.pi, 4.0)
        assert wrap_phase(math.nextafter(-math.pi, 0.0)) == above_pi == 3.1415926535897936
        # f*tau = 709.5 cycles: the rounding of x = -2*pi*f*tau, about -4458,
        # carries over into the wrapped value
        assert prop_phase(2150e6, 3.3e-7) == 3.1415926535901235


class TestDiscriminate:
    def test_identical_phasors(self):
        assert discriminate(1 + 0j, 1 + 0j) == 0.0

    def test_quadrature(self):
        assert discriminate(1j, 1 + 0j) == pytest.approx(math.pi / 2)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            discriminate(0j, 1 + 0j)
        with pytest.raises(ValueError):
            discriminate(1 + 0j, 0j)

    def test_noisy_angle_statistics(self):
        # complex noise with total variance 0.01 on a unit phasor: the
        # recovered offset stays within the 3-sigma jitter bound of 0.2
        rng = np.random.default_rng(7)
        n = 4000
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * math.sqrt(0.01 / 2)
        vals = [
            discriminate(cmath.exp(0.3j) + w, cmath.exp(0.1j))
            for w in noise
        ]
        sigma = math.sqrt(0.01 / 2)
        assert abs(np.mean(vals) - 0.2) < 0.15
        assert abs(np.mean(vals) - 0.2) < 3 * sigma / math.sqrt(n) + 1e-3
        assert np.std(vals) == pytest.approx(sigma, rel=0.10)


class TestController:
    def test_zero_error_stays_zero(self):
        cfg = make_cfg()
        unit = LoopUnit()
        for _ in range(100):
            unit, control = controller_step(unit, 0.0, cfg)
            assert control == 0.0
        assert unit.acc_outer == 0.0

    def test_reference_recurrence_exact(self):
        # independent scalar recurrence:
        #   v(n) = v(n-1) + (T/2)*(w2(n) + w2(n-1)),  w2 = omega**2 * e
        #   u(n) = u(n-1) + (T/2)*(w(n) + w(n-1)),    w  = 2*zeta*omega*e + v
        cfg = LoopConfig(zeta=1.0, omega_n_hz=1.0, tick_period_s=1e-3)
        zeta, om, t = cfg.zeta, cfg.omega_rad_s, cfg.tick_period_s
        unit = LoopUnit()
        v = u = w2p = wp = 0.0
        for n in range(500):
            e = 1.0
            unit, _ = controller_step(unit, e, cfg)
            w2 = om * om * e
            v = v + 0.5 * t * (w2 + w2p)
            w = 2 * zeta * om * e + v
            u = u + 0.5 * t * (w + wp)
            w2p, wp = w2, w
            assert unit.acc_outer == pytest.approx(u, rel=0, abs=1e-15)

    def test_nonfinite_error_rejected(self):
        with pytest.raises(ValueError):
            controller_step(LoopUnit(), math.nan, make_cfg())


class TestClosedTf:
    def test_dc_gain_exact(self):
        g = closed_tf(make_cfg())
        assert g.evaluate(0) == 1.0 + 0j

    def test_peak_at_natural_frequency_critical_damping(self):
        cfg = make_cfg(zeta=1.0, f_hz=25.0)
        g = closed_tf(cfg)
        mag = abs(g.evaluate(1j * cfg.omega_rad_s))
        assert mag == pytest.approx(math.sqrt(5) / 2, rel=1e-12)

    def test_high_frequency_rolloff_slope(self):
        cfg = make_cfg(zeta=1.0, f_hz=10.0)
        g = closed_tf(cfg)
        w = cfg.omega_rad_s * np.logspace(2, 3, 50)
        mags = 20 * np.log10(np.abs(g.evaluate(1j * w)))
        slope = np.polyfit(np.log10(w), mags, 1)[0]
        assert slope == pytest.approx(-20.0, abs=1.0)


def run_closed_loop(cfg, input_phase, n):
    """Drive the discriminator/controller loop with a phase series.

    The loop's output phase is a local accumulator of the per-tick
    control, kept wrapped to (-pi, pi].
    """
    unit = LoopUnit()
    phase = 0.0
    errs = np.empty(n)
    out = np.empty(n)
    for i in range(n):
        errs[i] = discriminate(cmath.exp(1j * input_phase(i)), cmath.exp(1j * phase))
        unit, control = controller_step(unit, errs[i], cfg)
        phase = wrap_phase(phase + control)
        out[i] = unit.acc_outer
    return out, errs


class TestClosedLoopBehavior:
    def test_step_response_matches_continuous(self):
        # omega_n * T = 6.3e-3, well inside the bilinear accuracy regime
        cfg = make_cfg(zeta=1.0, f_hz=10.0, t=1e-4)
        n = int(1.0 / cfg.tick_period_s)
        amp = 0.5
        out, _ = run_closed_loop(cfg, lambda i: amp, n)
        om = cfg.omega_rad_s
        sys = scipy.signal.lti([2 * om, om * om], [1, 2 * om, om * om])
        t = (np.arange(n) + 1) * cfg.tick_period_s
        _, cont = sys.step(T=t, N=n)
        assert np.max(np.abs(out - amp * cont)) < 0.02 * amp

    def test_frequency_ramp_absorbed(self):
        # constant frequency offset = phase ramp; type-2 loop nulls it
        cfg = make_cfg(zeta=1.0, f_hz=10.0, t=1e-4)
        df = 3.0
        n = int(20.0 / cfg.omega_n_hz / cfg.tick_period_s)
        _, errs = run_closed_loop(cfg, lambda i: TWO_PI * df * i * cfg.tick_period_s, n)
        assert np.max(np.abs(errs[-200:])) < 1e-4

    def test_lock_from_180_degrees(self):
        cfg = make_cfg(zeta=1.0, f_hz=10.0, t=1e-4)
        n = int(10.0 / cfg.omega_n_hz / cfg.tick_period_s)
        out, errs = run_closed_loop(cfg, lambda i: math.pi, n)
        assert abs(errs[-1]) < math.radians(1.0)

    def test_fifty_hz_offset_zero_steady_error(self):
        cfg = make_cfg(zeta=1.0, f_hz=100.0, t=1.195e-4)
        n = 40000
        _, errs = run_closed_loop(cfg, lambda i: TWO_PI * 50.0 * i * cfg.tick_period_s, n)
        assert np.max(np.abs(errs[-500:])) < 1e-3


class TestLoopConfig:
    def test_bandwidth_vs_tick_rate_warning(self):
        with pytest.warns(UserWarning):
            LoopConfig(zeta=1.0, omega_n_hz=400.0, tick_period_s=1.195e-4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LoopConfig(zeta=0.0, omega_n_hz=10.0, tick_period_s=1e-4)
        with pytest.raises(ValueError):
            LoopConfig(zeta=1.0, omega_n_hz=-1.0, tick_period_s=1e-4)

    def test_omega_unit_conventions(self):
        # the one Hz -> rad/s reading, pinned by the delay-margin anchor
        assert LoopConfig(1.0, 10.0, 1e-4).omega_rad_s == TWO_PI * 10.0
