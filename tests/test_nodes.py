import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsync import nodes
from dualsync.channel import CarrierPlan, prop_phase, sigma_from_snr
from dualsync.nodes import (
    DivergenceError,
    FollowerState,
    MasterState,
    Scenario,
    _tick_loop,
    detect_ambiguity_jumps,
    follower_step,
    master_step,
    run_scenario,
)
from dualsync.pll import LoopConfig, wrap_phase

TWO_PI = 2.0 * math.pi
TICK = 956 / 8e6
SERIES = ("theta_bf_minus_theta0", "theta_out", "alpha", "r1", "r2", "r3", "r4")


def loop_cfg(f_hz=100.0):
    return LoopConfig(1.0, f_hz, TICK)


class TestFollowerStep:
    def test_tracks_common_phase_minus_lo(self):
        theta_x = 0.9
        phi = 0.4
        state = FollowerState(cfg=loop_cfg())
        rx = cmath.exp(1j * phi)
        for _ in range(4000):
            state, theta_out, theta_bf, _ = follower_step(rx, rx, theta_x, state)
        assert theta_out == pytest.approx(phi - theta_x, abs=1e-3)
        assert theta_bf == pytest.approx(phi, abs=1e-3)

    def test_symmetric_split_matches_common_case(self):
        phi, delta = 0.3, 0.25
        state_a = FollowerState(cfg=loop_cfg())
        state_b = FollowerState(cfg=loop_cfg())
        rx = cmath.exp(1j * phi)
        rx_p = cmath.exp(1j * (phi + delta))
        rx_m = cmath.exp(1j * (phi - delta))
        for _ in range(4000):
            state_a, out_a, _, _ = follower_step(rx, rx, 0.0, state_a)
            state_b, out_b, _, _ = follower_step(rx_p, rx_m, 0.0, state_b)
        assert out_b == pytest.approx(out_a, abs=1e-6)

    def test_lo_offset_cancels_in_beamforming_phase(self):
        phi = 0.5
        offset = 0.8
        results = []
        for theta_x in (0.0, offset):
            state = FollowerState(cfg=loop_cfg())
            rx = cmath.exp(1j * phi)
            for _ in range(4000):
                state, _, theta_bf, _ = follower_step(rx, rx, theta_x, state)
            results.append(theta_bf)
        assert results[1] == pytest.approx(results[0], abs=1e-3)

    def test_returns_unit_phasors(self):
        state = FollowerState(cfg=loop_cfg())
        _, _, theta_bf, tx = follower_step(1 + 0j, 1 + 0j, 0.0, state)
        assert abs(tx) == pytest.approx(1.0)
        assert cmath.phase(tx) == pytest.approx(theta_bf, abs=1e-12)

    def test_zero_phasor_rejected(self):
        state = FollowerState(cfg=loop_cfg())
        with pytest.raises(ValueError):
            follower_step(0j, 1 + 0j, 0.0, state)


class TestMasterStep:
    def test_fixed_point_of_compensation(self):
        # theta_r3 + theta_r4 = alpha_prev (= 0) with zero setpoint: the
        # compensation loop sits at its equilibrium and alpha stays put
        state = MasterState(cfg=loop_cfg())
        rx3 = cmath.exp(0.6j)
        rx4 = cmath.exp(-0.6j)
        for _ in range(200):
            state, alpha, _ = master_step(rx3, rx4, 0.0, state)
        assert alpha == pytest.approx(0.0, abs=1e-12)

    def test_static_compensation_converges_to_round_trip(self):
        # the return carriers carry the applied alpha/2 plus the static
        # round-trip phases; equilibrium alpha is minus their mean
        r3, r4 = 0.2, 0.5
        state = MasterState(cfg=loop_cfg())
        for _ in range(6000):
            rx3 = cmath.exp(1j * (r3 + 0.5 * state.alpha))
            rx4 = cmath.exp(1j * (r4 + 0.5 * state.alpha))
            state, alpha, tx1 = master_step(rx3, rx4, 0.0, state)
        assert alpha == pytest.approx(-(r3 + r4) / 2, abs=1e-3)
        assert cmath.phase(tx1) == pytest.approx(wrap_phase(alpha / 2), abs=1e-3)

    def test_pre_distortion_applies_half_alpha(self):
        state = MasterState(cfg=loop_cfg(), alpha=0.0)
        _, alpha, tx1 = master_step(cmath.exp(0.1j), cmath.exp(0.1j), 0.3, state)
        assert abs(tx1) == pytest.approx(1.0)
        assert cmath.phase(tx1) == pytest.approx(0.3 + alpha / 2, abs=1e-12)


def run_kernel(n, phi, zeta=1.0, f_hz=100.0, th0=None, thx=None, doppler_hz=0.0,
               noise=None, theta_offset=0.0, latency=1, dual=True, wrap_comp=True):
    th0 = np.zeros(n) if th0 is None else th0
    thx = np.zeros(n) if thx is None else thx
    if noise is None:
        noise = np.zeros((8, 1))
        has_noise = False
    else:
        has_noise = True
    out = [np.empty(n) for _ in range(7)]
    om = TWO_PI * f_hz
    bad = _tick_loop(n, TICK, th0, thx, phi[0], phi[1], phi[2], phi[3],
                     TWO_PI * doppler_hz * TICK, noise, has_noise,
                     zeta, om, zeta, om, theta_offset, latency, dual, wrap_comp,
                     *out)
    assert bad == -1
    return out


class TestScenarioEquilibria:
    def test_static_channel_zero_error(self):
        phi = Scenario(tau_s=1.7e-10).prop_phases()
        n = int(5.0 / TICK)
        bf0, _, al = run_kernel(n, phi)[:3]
        assert abs(wrap_phase(bf0[-1])) < 1e-3
        # alpha converges to minus the round-trip mean (mod 2*pi)
        target = 0.5 * (phi[0] + phi[1]) + 0.5 * (phi[2] + phi[3])
        assert abs(wrap_phase(al[-1] + target)) < 1e-3

    def test_setpoint_shifts_by_half(self):
        phi = [0.3, 0.5, 0.45, 0.35]
        n = int(4.0 / TICK)
        base = run_kernel(n, phi)[0]
        shifted = run_kernel(n, phi, theta_offset=0.1)[0]
        assert shifted[-1] - base[-1] == pytest.approx(0.05, abs=1e-6)

    def test_constant_added_to_all_legs_is_invisible(self):
        phi = [0.3, 0.5, 0.45, 0.35]
        n = int(4.0 / TICK)
        base = run_kernel(n, phi)[0]
        moved = run_kernel(n, [p + 0.4 for p in phi])[0]
        assert moved[-1] == pytest.approx(base[-1], abs=1e-3)

    def test_single_carrier_residual_is_pair_asymmetry(self):
        phi = Scenario(tau_s=1.7e-10).prop_phases()
        n = int(5.0 / TICK)
        bf0 = run_kernel(n, phi, dual=False)[0]
        expected = wrap_phase(0.5 * (phi[0] - phi[2]))
        assert wrap_phase(bf0[-1]) == pytest.approx(expected, abs=1e-3)


class TestKernelMatchesReference:
    @pytest.mark.parametrize("dual", [True, False])
    @pytest.mark.parametrize("wrap_comp", [True, False])
    def test_engines_agree(self, dual, wrap_comp):
        scn = Scenario(duration_s=0.25, ideal_clocks=True, tau_s=1.7e-10,
                       snr_db=10.0, doppler_hz=0.5, dual_carrier=dual,
                       wrap_compensation=wrap_comp)
        fast = run_scenario(scn, seed=5)
        slow = run_scenario(scn, seed=5, engine="reference")
        for name in ("theta_bf_minus_theta0", "theta_out", "alpha", "r1", "r3"):
            np.testing.assert_allclose(
                getattr(fast, name), getattr(slow, name), atol=1e-10
            )

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        latency=st.integers(1, 3),
        dual=st.booleans(),
        wrap_comp=st.booleans(),
        snr_db=st.one_of(st.just(math.inf), st.floats(0.0, 30.0)),
        tau_s=st.floats(0.0, 1e-6),
        doppler_hz=st.floats(-5.0, 5.0),
        seed=st.integers(0, 2**16),
    )
    def test_engines_agree_on_every_series(self, latency, dual, wrap_comp, snr_db,
                                           tau_s, doppler_hz, seed):
        scn = Scenario(duration_s=0.1, ideal_clocks=True, tau_s=tau_s,
                       doppler_hz=doppler_hz, snr_db=snr_db, dual_carrier=dual,
                       wrap_compensation=wrap_comp, loop_latency_ticks=latency)
        fast = run_scenario(scn, seed=seed)
        slow = run_scenario(scn, seed=seed, engine="reference")
        for name in SERIES:
            np.testing.assert_allclose(
                getattr(fast, name), getattr(slow, name), atol=1e-10, err_msg=name
            )


class TestKernelInputType:
    @pytest.mark.parametrize("kw", [
        dict(snr_db=10.0, tau_s=3.3e-7, doppler_hz=1.5),
        dict(loop_latency_ticks=3, dual_carrier=False, wrap_compensation=False,
             tau_s=1e-7, doppler_hz=-2.0),
        dict(snr_db=5.0, loop_latency_ticks=3, wrap_compensation=False,
             initial_follower_phase_rad=3.0, follower_freq_offset_hz=0.3),
        dict(dual_carrier=False, theta_offset=0.1, doppler_hz=0.5, tau_s=5e-8),
    ])
    def test_memoryview_and_ndarray_inputs_give_identical_series(self, monkeypatch, kw):
        # run_scenario feeds the kernel memoryviews (plain float elements);
        # the same inputs as ndarrays (numpy scalar elements) must give the
        # same bits, since the arithmetic is the same operation for operation
        calls = []

        def capture(*args):
            calls.append(args)
            return _tick_loop(*args)

        monkeypatch.setattr(nodes, "_tick_loop_fast", capture)
        r = run_scenario(Scenario(duration_s=0.5, **kw), seed=11)
        (args,) = calls
        inputs = args[:-7]
        assert all(isinstance(inputs[k], memoryview) for k in (2, 3))  # th0, thx
        assert len(inputs[9]) == 8  # noise: one 1-D memoryview per quadrature
        assert all(isinstance(v, memoryview) and v.ndim == 1 for v in inputs[9])
        inputs = [np.asarray(a) if isinstance(a, memoryview) else a for a in inputs]
        inputs[9] = np.array(inputs[9])
        out = [np.empty(r.n_ticks) for _ in range(7)]
        assert _tick_loop(*inputs, *out) == -1
        for name, series in zip(SERIES, out):
            assert np.array_equal(getattr(r, name), series), name


class TestRows:
    def test_rows_are_builtin_and_match_the_series(self):
        # longer than one ROW_CHUNK, so a chunk boundary is crossed
        r = run_scenario(Scenario(duration_s=1.2, snr_db=10.0), seed=4)
        assert r.n_ticks > nodes.ROW_CHUNK
        rows = list(r.rows())
        assert len(rows) == r.n_ticks
        for row in rows:
            assert type(row[0]) is int
            assert all(type(v) is float for v in row[1:])
        cols = np.array([row[1:] for row in rows]).T
        assert [row[0] for row in rows] == list(range(r.n_ticks))
        assert np.array_equal(cols[0], r.t_s)
        for name, col in zip(SERIES, cols[1:]):
            assert np.array_equal(col, getattr(r, name)), name


@pytest.mark.parametrize("engine", ["kernel", "reference"])
class TestRingChannel:
    def test_pure_rotation(self, engine):
        # ideal clocks and both nodes' initial transmissions at phase zero:
        # the first tick's raw angles are the carriers' propagation phases
        plan = CarrierPlan()
        tau = 0.25 / plan.return_hz[0]
        r = run_scenario(Scenario(duration_s=0.01, ideal_clocks=True, tau_s=tau),
                         seed=1, engine=engine)
        assert r.r3[0] == pytest.approx(-math.pi / 2, abs=1e-9)
        first = (r.r1[0], r.r2[0], r.r3[0], r.r4[0])
        expected = [prop_phase(f, tau) for f in plan.carriers_hz]
        assert first == pytest.approx(expected, abs=1e-12)

    def test_doppler_per_tick_rotation(self, engine):
        # once the loops have pulled in, the master's raw return angle
        # turns by the one-way Doppler phase per tick
        scn = Scenario(duration_s=1.0, ideal_clocks=True, doppler_hz=1.0)
        r = run_scenario(scn, seed=1, engine=engine)
        steps = np.diff(np.unwrap(r.r3))[r.n_ticks // 2:]
        per_tick = TWO_PI * 1.0 * TICK  # 7.5084e-4 rad
        np.testing.assert_allclose(steps, per_tick, rtol=0, atol=1e-12)

    def test_noise_variance_calibration(self, engine):
        # same propagation phase on every carrier: the difference of a
        # pair's raw angles is pure noise, two independent phase noises of
        # variance sigma**2/2 each
        scn = Scenario(duration_s=5.0, ideal_clocks=True, snr_db=10.0)
        r = run_scenario(scn, seed=3, engine=engine)
        sigma = sigma_from_snr(10.0, 10 * math.log10(32))
        for a, b in ((r.r1, r.r2), (r.r3, r.r4)):
            d = np.array([wrap_phase(v) for v in a - b])
            assert np.var(d) == pytest.approx(sigma**2, rel=0.03)


class TestRunScenario:
    def test_noiseless_static_converges(self):
        scn = Scenario(duration_s=3.0, ideal_clocks=True)
        result = run_scenario(scn, seed=1)
        tail = result.theta_bf_minus_theta0[-1000:]
        assert np.max(np.abs(tail)) < 1e-3

    def test_deterministic_bytes(self):
        scn = Scenario(duration_s=0.5, snr_db=10.0)
        a = run_scenario(scn, seed=9)
        b = run_scenario(scn, seed=9)
        assert a.theta_bf_minus_theta0.tobytes() == b.theta_bf_minus_theta0.tobytes()
        assert a.alpha.tobytes() == b.alpha.tobytes()

    def test_seed_changes_noise(self):
        scn = Scenario(duration_s=0.5, snr_db=10.0)
        a = run_scenario(scn, seed=9)
        b = run_scenario(scn, seed=10)
        assert not np.array_equal(a.theta_bf_minus_theta0, b.theta_bf_minus_theta0)

    def test_lock_from_180_degrees_and_settling_ratio(self):
        def settle_time(f_hz, duration):
            scn = Scenario(duration_s=duration, ideal_clocks=True,
                           initial_follower_phase_rad=math.pi,
                           omega_m_hz=f_hz, omega_s_hz=f_hz)
            r = run_scenario(scn, seed=1)
            err = np.abs([wrap_phase(v) for v in r.theta_bf_minus_theta0])
            bad = np.nonzero(err > math.radians(1.0))[0]
            assert err[-1] < math.radians(1.0)
            return (bad[-1] + 1) / r.tick_rate_hz

        t_slow = settle_time(10.0, 6.0)
        t_fast = settle_time(100.0, 1.0)
        assert t_slow / t_fast == pytest.approx(10.0, rel=0.3)

    def test_fifty_hz_follower_offset_absorbed(self):
        scn = Scenario(duration_s=4.0, ideal_clocks=True, follower_freq_offset_hz=50.0)
        r = run_scenario(scn, seed=1)
        assert np.max(np.abs(r.theta_bf_minus_theta0[-1000:])) < 1e-3

    def test_doppler_locked_and_bounded(self):
        scn = Scenario(duration_s=10.0, ideal_clocks=True, doppler_hz=1.0,
                       snr_db=10.0)
        r = run_scenario(scn, seed=1)
        tail = r.theta_bf_minus_theta0[r.n_ticks // 2:]
        assert np.max(np.abs(tail)) < 0.05

    def test_divergent_configuration_raises_with_tick(self):
        # natural frequency near the tick rate: discrete loop unstable
        scn = Scenario(duration_s=1.0, ideal_clocks=True, omega_m_hz=4000.0,
                       omega_s_hz=4000.0, initial_follower_phase_rad=1.0)
        with pytest.warns(UserWarning):
            with pytest.raises(DivergenceError) as info:
                run_scenario(scn, seed=1)
        assert info.value.tick >= 0

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    @pytest.mark.parametrize("loop", [dict(omega_m_hz=1e300),
                                      dict(zeta_s=1e300, omega_s_hz=1e200)])
    def test_nan_loop_state_raises_divergence_on_both_engines(self, engine, loop):
        # omega**2 overflows to inf and inf*0 is NaN at the first tick
        scn = Scenario(duration_s=0.01, ideal_clocks=True, **loop)
        with pytest.warns(UserWarning):
            with pytest.raises(DivergenceError) as info:
                run_scenario(scn, seed=1, engine=engine)
        assert info.value.tick == 0

    def test_result_time_axis(self):
        scn = Scenario(duration_s=0.1, ideal_clocks=True)
        r = run_scenario(scn, seed=1)
        assert r.n_ticks == int(round(0.1 * 8e6 / 956))
        assert r.t_s[1] - r.t_s[0] == pytest.approx(TICK)


class TestNoiseFloorMatchesAnalysis:
    # noise_factor: 0.5 for the L(f) = S_phi/2 convention, halved again in
    # dual mode, where each end averages two independent discriminators
    @pytest.mark.parametrize("dual_carrier, noise_factor",
                             [pytest.param(True, 0.25, id="dual"),
                              pytest.param(False, 0.5, id="single")])
    def test_awgn_floor_follows_ring_transfer_functions(self, dual_carrier, noise_factor):
        # superposition through the ring: the error-series PSD under AWGN
        # equals noise_factor*S_disc*|out_from_0|^2*(1+|G_c|^2); this ties
        # the simulator wiring to the analysis module quantitatively, and
        # shows dual_loop_tfs also describes single-carrier runs
        from dualsync.channel import sigma_from_snr
        from dualsync.linear_analysis import dual_loop_tfs, gc_tf
        from dualsync.pll import closed_tf
        from dualsync.spectral import psd_estimate

        fs = 8e6 / 956
        scn = Scenario(duration_s=40.0, ideal_clocks=True, snr_db=10.0,
                       dual_carrier=dual_carrier)
        r = run_scenario(scn, seed=1)
        est = psd_estimate(r.theta_bf_minus_theta0, fs, block_len=2**13,
                           n_blocks=16, window_atten_db=120.0)
        band = (est.freqs_hz >= 3.0) & (est.freqs_hz <= 30.0)
        gm = closed_tf(scn.loop_config_master())
        tfs = dual_loop_tfs(gm, closed_tf(scn.loop_config_follower()))
        f = est.freqs_hz[band]
        t_f = tfs["out_from_0"].at_freq_hz(f)
        g_c = gc_tf(gm).at_freq_hz(f)
        s_disc = sigma_from_snr(10.0, 10 * math.log10(32)) ** 2 / fs
        predicted = 10 * np.log10(noise_factor * s_disc * np.abs(t_f) ** 2
                                  * (1 + np.abs(g_c) ** 2))
        measured = est.levels_dbc_hz[band]
        assert np.mean(measured) == pytest.approx(np.mean(predicted), abs=1.0)


class TestDelayMarginMatchesRing:
    # the analytic round-trip budget against the simulated ring: lock well
    # inside it, cycle slips well outside it (the ring does not diverge
    # past the margin, so the verdict is read off the error's tail spread)
    @pytest.mark.parametrize("omega_hz", [100.0, 30.0])
    @pytest.mark.parametrize("factor, locks", [(0.8, True), (1.2, False)])
    def test_lock_follows_delay_margin(self, omega_hz, factor, locks):
        from dualsync.linear_analysis import delay_margin

        margin_ticks = delay_margin(1.0, omega_hz, 1.0, omega_hz) / TICK
        # the round trip 2L is even: the largest below 0.8*margin, or the
        # smallest above 1.2*margin
        half = factor * margin_ticks / 2
        latency = math.floor(half) if locks else math.ceil(half)
        scn = Scenario(duration_s=6.0, ideal_clocks=True, omega_m_hz=omega_hz,
                       omega_s_hz=omega_hz, initial_follower_phase_rad=0.3,
                       loop_latency_ticks=latency)
        err = run_scenario(scn, seed=1).theta_bf_minus_theta0
        tail_std = float(np.std(err[err.size // 2:]))
        if locks:
            assert tail_std < 1e-6
        else:
            assert tail_std > 1.0


class TestAmbiguityJumps:
    def test_constant_series_empty(self):
        assert detect_ambiguity_jumps(np.zeros(100)) == []

    def test_single_injected_step(self):
        x = np.zeros(200)
        x[120:] += math.pi / 2
        jumps = detect_ambiguity_jumps(x)
        assert jumps == [(120, pytest.approx(math.pi / 2))]

    def test_non_quantized_step_discarded(self):
        x = np.zeros(50)
        x[20:] += 1.0  # exceeds threshold but is not near k*pi/2
        assert detect_ambiguity_jumps(x) == []

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            detect_ambiguity_jumps([0.0])

    def test_unbounded_drift_produces_quarter_turns(self):
        # anti-phase return legs isolate the wrap events so each ratchet
        # completes before the next; raw per-tick angles (no unwrap
        # tracking) then hop by exactly a quarter turn
        scn = Scenario(duration_s=15.0, ideal_clocks=True, doppler_hz=1.0,
                       tau_s=1.875e-8, wrap_compensation=False)
        r = run_scenario(scn, seed=1)
        stride = max(1, int(0.05 * r.tick_rate_hz))
        jumps = detect_ambiguity_jumps(r.theta_bf_minus_theta0[::stride])
        assert len(jumps) >= 5
        for _, mag in jumps:
            assert abs(mag) == pytest.approx(math.pi / 2, abs=1e-9)
