import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualsync import nodes
from dualsync.channel import CarrierPlan, prop_phase, sigma_from_snr
from dualsync.nodes import (
    DivergenceError,
    Scenario,
    _reference_loop,
    _tick_loop,
    detect_ambiguity_jumps,
    run_scenario,
)
from dualsync.pll import LoopConfig, wrap_phase

TWO_PI = 2.0 * math.pi
TICK = 956 / 8e6
SERIES = ("theta_bf_minus_theta0", "theta_out", "alpha", "r1", "r2", "r3", "r4")


def run_kernel(n, phi, loop=_tick_loop, theta_offset=0.0, dual=True):
    """Noiseless, ideal-clock ring of n ticks at latency 1 with 100 Hz loops,
    run by ``loop`` (the kernel or its phasor-form oracle)."""
    out = [np.empty(n) for _ in range(7)]
    cfg = LoopConfig(1.0, 100.0, TICK)
    bad = loop(n, cfg, cfg, np.zeros(n), np.zeros(n), phi[0], phi[1], phi[2], phi[3],
               0.0, np.zeros((8, 1)), False, theta_offset, 1, dual, True, *out)
    assert bad == -1
    return out


class TestScenarioEquilibria:
    # the ring's fixed points, on the kernel here and on its phasor-form
    # oracle in the subclass below
    loop = staticmethod(_tick_loop)

    def test_static_channel_zero_error(self):
        phi = Scenario(tau_s=1.7e-10).prop_phases()
        n = int(5.0 / TICK)
        bf0, _, al = run_kernel(n, phi, self.loop)[:3]
        assert abs(wrap_phase(bf0[-1])) < 1e-3
        # alpha converges to minus the round-trip mean (mod 2*pi)
        target = 0.5 * (phi[0] + phi[1]) + 0.5 * (phi[2] + phi[3])
        assert abs(wrap_phase(al[-1] + target)) < 1e-3

    def test_setpoint_shifts_by_half(self):
        phi = [0.3, 0.5, 0.45, 0.35]
        n = int(4.0 / TICK)
        base = run_kernel(n, phi, self.loop)[0]
        shifted = run_kernel(n, phi, self.loop, theta_offset=0.1)[0]
        assert shifted[-1] - base[-1] == pytest.approx(0.05, abs=1e-6)

    def test_constant_added_to_all_legs_is_invisible(self):
        phi = [0.3, 0.5, 0.45, 0.35]
        n = int(4.0 / TICK)
        base = run_kernel(n, phi, self.loop)[0]
        moved = run_kernel(n, [p + 0.4 for p in phi], self.loop)[0]
        assert moved[-1] == pytest.approx(base[-1], abs=1e-3)

    def test_single_carrier_residual_is_pair_asymmetry(self):
        phi = Scenario(tau_s=1.7e-10).prop_phases()
        n = int(5.0 / TICK)
        bf0 = run_kernel(n, phi, self.loop, dual=False)[0]
        expected = wrap_phase(0.5 * (phi[0] - phi[2]))
        assert wrap_phase(bf0[-1]) == pytest.approx(expected, abs=1e-3)

    def test_symmetric_split_matches_common_pair(self):
        # each end averages its pair's discriminators, so carriers at
        # phi +- delta act as a pair at phi
        n = int(4.0 / TICK)
        common = run_kernel(n, [0.3, 0.3, 0.45, 0.45], self.loop)
        split = run_kernel(n, [0.55, 0.05, 0.6, 0.3], self.loop)
        for name, a, b in zip(SERIES[:3], common, split):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12, err_msg=name)

    def test_pre_distortion_applies_half_alpha(self):
        # at latency 1 the follower's first-but-one forward carrier left the
        # master at tick 0 pre-distorted by half the compensation
        phi = [0.3, 0.5, 0.45, 0.35]
        _, _, al, r1 = run_kernel(2, phi, self.loop)[:4]
        assert al[0] != 0.0
        assert r1[1] == pytest.approx(wrap_phase(phi[0] + al[0] / 2), abs=1e-15)


class TestScenarioEquilibriaReference(TestScenarioEquilibria):
    loop = staticmethod(_reference_loop)


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
        ideal_clocks=st.booleans(),
        theta_offset=st.floats(-math.pi, math.pi),
        phase_rad=st.floats(-math.pi, math.pi),
        freq_hz=st.floats(-50.0, 50.0),
        seed=st.integers(0, 2**16),
    )
    def test_engines_agree_on_every_series(self, latency, dual, wrap_comp, snr_db,
                                           tau_s, doppler_hz, ideal_clocks, theta_offset,
                                           phase_rad, freq_hz, seed):
        scn = Scenario(duration_s=0.1, ideal_clocks=ideal_clocks, tau_s=tau_s,
                       doppler_hz=doppler_hz, snr_db=snr_db, dual_carrier=dual,
                       wrap_compensation=wrap_comp, loop_latency_ticks=latency,
                       theta_offset=theta_offset, initial_follower_phase_rad=phase_rad,
                       follower_freq_offset_hz=freq_hz)
        fast = run_scenario(scn, seed=seed)
        slow = run_scenario(scn, seed=seed, engine="reference")
        for name in SERIES:
            np.testing.assert_allclose(
                getattr(fast, name), getattr(slow, name), atol=1e-10, err_msg=name
            )


class TestKernelInputType:
    # the loop run_scenario calls for an engine, and the module name it
    # calls it through; the subclass below checks the oracle
    engine, name, loop = "kernel", "_tick_loop_fast", staticmethod(_tick_loop)

    @pytest.mark.parametrize("kw", [
        dict(snr_db=10.0, tau_s=3.3e-7, doppler_hz=1.5),
        dict(loop_latency_ticks=3, dual_carrier=False, wrap_compensation=False,
             tau_s=1e-7, doppler_hz=-2.0),
        dict(snr_db=5.0, loop_latency_ticks=3, wrap_compensation=False,
             initial_follower_phase_rad=3.0, follower_freq_offset_hz=0.3),
        dict(dual_carrier=False, theta_offset=0.1, doppler_hz=0.5, tau_s=5e-8),
    ])
    def test_memoryview_and_ndarray_inputs_give_identical_series(self, monkeypatch, kw):
        # run_scenario feeds the loop memoryviews (plain float elements);
        # the same inputs as ndarrays (numpy scalar elements) must give the
        # same bits, since the arithmetic is the same operation for operation
        calls = []

        def capture(*args):
            calls.append(args)
            return self.loop(*args)

        monkeypatch.setattr(nodes, self.name, capture)
        r = run_scenario(Scenario(duration_s=0.5, **kw), seed=11, engine=self.engine)
        (args,) = calls
        inputs = args[:-7]
        assert all(isinstance(inputs[k], memoryview) for k in (3, 4))  # th0, thx
        assert len(inputs[10]) == 8  # noise: one 1-D memoryview per quadrature
        assert all(isinstance(v, memoryview) and v.ndim == 1 for v in inputs[10])
        inputs = [np.asarray(a) if isinstance(a, memoryview) else a for a in inputs]
        inputs[10] = np.array(inputs[10])
        out = [np.empty(r.n_ticks) for _ in range(7)]
        assert self.loop(*inputs, *out) == -1
        for name, series in zip(SERIES, out):
            assert np.array_equal(getattr(r, name), series), name


class TestReferenceInputType(TestKernelInputType):
    engine, name, loop = "reference", "_reference_loop", staticmethod(_reference_loop)


class TestReferenceBytes:
    # sha256 of the seven reference-engine series: a change to the oracle's
    # arithmetic, not only to its results beyond 1e-10, shows here
    @pytest.mark.parametrize("kw, digest", [
        pytest.param(dict(snr_db=10.0, loop_latency_ticks=2, tau_s=3.3e-7),
                     "ca3455f143c620fc7bf1d51889380407b85e352b71a01a99326fea8394ecf4bf",
                     id="dual-noise-clocks-latency2"),
        pytest.param(dict(ideal_clocks=True, dual_carrier=False, wrap_compensation=False,
                          snr_db=20.0, tau_s=1e-7, doppler_hz=-2.0),
                     "5bd18b6e941223574f8c4ffb62d98a5fc68c5334736db9460f60a801dea65f0e",
                     id="single-wrap-off-doppler"),
        pytest.param(dict(snr_db=15.0, initial_follower_phase_rad=2.5,
                          follower_freq_offset_hz=0.7, theta_offset=0.3),
                     "c5efc312d4976a5d48b71256d51bcf207abba22b4f47e5cf22cc159b2873517c",
                     id="follower-offsets-setpoint"),
    ])
    def test_reference_series_bytes_are_pinned(self, kw, digest):
        r = run_scenario(Scenario(duration_s=0.3, **kw), seed=21, engine="reference")
        data = b"".join(getattr(r, name).tobytes() for name in SERIES)
        assert hashlib.sha256(data).hexdigest() == digest


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
        # natural frequency near the tick rate: discrete loop unstable.  Both
        # engines raise, at different ticks (6105 on the kernel, 3019 on the
        # oracle): they differ by 9e-16 rad at tick 0, and the unstable loop
        # grows that to 1.4e-10 rad at tick 8 and past 1 rad at tick 24.
        # Only the NaN case below, at tick 0, gives both the same tick.
        scn = Scenario(duration_s=1.0, ideal_clocks=True, omega_m_hz=4000.0,
                       omega_s_hz=4000.0, initial_follower_phase_rad=1.0)
        for engine in ("kernel", "reference"):
            with pytest.warns(UserWarning):
                with pytest.raises(DivergenceError) as info:
                    run_scenario(scn, seed=1, engine=engine)
            assert 0 <= info.value.tick < scn.n_ticks, engine

    def test_unknown_engine_rejected_before_any_work(self, monkeypatch):
        def no_clocks(*args):
            raise AssertionError("clock synthesis ran before the engine check")

        monkeypatch.setattr(nodes, "_clock_series", no_clocks)
        with pytest.raises(ValueError, match="unknown engine 'numba'"):
            run_scenario(Scenario(duration_s=0.1), seed=1, engine="numba")

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

    def test_ring_clocks_are_the_clock_series(self, monkeypatch):
        # the ring's clocks come from _clock_series, which the CLI's clock
        # PSDs use too
        seen = {}

        def capture(n, cfg_m, cfg_s, th0, thx, *rest):
            seen["master"], seen["follower"] = np.array(th0), np.array(thx)
            return -1

        monkeypatch.setattr(nodes, "_tick_loop_fast", capture)
        scn = Scenario(duration_s=0.2)
        run_scenario(scn, seed=7)
        for side, series in seen.items():
            assert np.array_equal(series, nodes._clock_series(scn, 7, side, scn.n_ticks))
        assert not np.array_equal(seen["master"], seen["follower"])

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
        from dualsync.linear_analysis import closed_tf, dual_loop_tfs, gc_tf
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


class TestQuarterTurnLock:
    def test_static_ring_locks_to_a_multiple_of_a_quarter_turn(self):
        # characterisation of the wrong-branch lock: each end averages two
        # wrapped carrier phases, a mean defined only modulo pi, and the
        # master's divide-by-two leaves theta_bf - theta_0 defined only
        # modulo pi/2.  Noiseless static rings over tau = 0..20 ns with
        # follower offsets 0..2 rad lock to k*pi/2, and 41 of the 84 to a
        # k other than 0 (mod 4).
        quarter = math.pi / 2
        off_zero = 0
        for tau_ns in range(21):
            for offset in (0.0, 0.5, 1.0, 2.0):
                scn = Scenario(duration_s=1.0, ideal_clocks=True, tau_s=tau_ns * 1e-9,
                               initial_follower_phase_rad=offset)
                locked = run_scenario(scn, seed=1).theta_bf_minus_theta0[-1]
                k = round(locked / quarter)
                assert abs(locked - k * quarter) < 1e-9, (tau_ns, offset)
                off_zero += k % 4 != 0
        assert off_zero == 41


class TestAmbiguityJumps:
    # at 20 Hz the 50 ms sampling reads every sample
    def test_constant_series_empty(self):
        assert detect_ambiguity_jumps(np.zeros(100), 20.0) == []

    def test_single_injected_step(self):
        x = np.zeros(200)
        x[120:] += math.pi / 2
        jumps = detect_ambiguity_jumps(x, 20.0)
        assert jumps == [(120, pytest.approx(math.pi / 2))]

    def test_step_reported_at_its_full_rate_tick(self):
        # 100 Hz: every 5th sample is read; the step lands between samples
        # 120 and 125 and is reported at 125
        x = np.zeros(200)
        x[123:] -= math.pi / 2
        assert detect_ambiguity_jumps(x, 100.0) == [(125, pytest.approx(-math.pi / 2))]

    def test_non_quantized_step_discarded(self):
        x = np.zeros(50)
        x[20:] += 1.0  # exceeds threshold but is not near k*pi/2
        assert detect_ambiguity_jumps(x, 20.0) == []

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            detect_ambiguity_jumps([0.0], 20.0)
        with pytest.raises(ValueError):  # two samples, but within 50 ms
            detect_ambiguity_jumps([0.0, 1.0], 100.0)

    def test_unbounded_drift_produces_quarter_turns(self):
        # anti-phase return legs isolate the wrap events so each ratchet
        # completes before the next; raw per-tick angles (no unwrap
        # tracking) then hop by exactly a quarter turn
        scn = Scenario(duration_s=15.0, ideal_clocks=True, doppler_hz=1.0,
                       tau_s=1.875e-8, wrap_compensation=False)
        r = run_scenario(scn, seed=1)
        jumps = detect_ambiguity_jumps(r.theta_bf_minus_theta0, r.tick_rate_hz)
        assert len(jumps) >= 5
        for _, mag in jumps:
            assert abs(mag) == pytest.approx(math.pi / 2, abs=1e-9)
