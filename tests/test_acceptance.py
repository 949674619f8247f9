"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 5b and 6a check what the ring's algebra promises, with targets
derived in the tests rather than read off a run:

* 5b (dual-carrier floor benefit).  Follower and master each average a
  carrier pair, so the steady error is ``theta_bf - theta_0 =
  (n_fwd - n_ret)/2``.  Each leg carries AWGN of discriminator phase
  variance ``sigma_d**2 = sigma**2/2``.  In dual mode the error is the mean
  of four discriminator noises (variance ``sigma_d**2/4``); single-carrier
  mode keeps one leg each way (variance ``sigma_d**2/2``).  The dual floor
  therefore sits 10*log10(4) = 6.02 dB below the single-discriminator
  reference ``L_d = 10*log10(sigma_d**2/fs)`` (the package's L(f)
  convention, see ``spectral``), and the single-vs-dual mode gap is
  10*log10(2) = 3.01 dB.
* 6a (Doppler residual).  For a delay-free channel the common Doppler
  phase reaches ``theta_bf - theta_0`` through
  ``G_s*(1 + G_c)/(1 - G_s*G_c)``, and ``1 + G_c`` has a double zero at
  s = 0, so a constant Doppler (a phase ramp) leaves zero deterministic
  steady offset.  A noiseless run must show that offset; a 10 dB run must
  stay bounded with a tail mean within four AWGN standard errors of it.
"""

import math
import time
from dataclasses import replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from dualsync.channel import sigma_from_snr
from dualsync.cli import main as cli_main
from dualsync.linear_analysis import (
    closed_tf,
    delay_margin,
    delay_margin_grid,
    dual_loop_tfs,
    gc_tf,
)
from dualsync.nodes import Scenario, detect_ambiguity_jumps, run_scenario
from dualsync.oscillator import (
    DEFAULT_FOLLOWER_MASK,
    DEFAULT_MASTER_MASK,
    TwoStateParams,
    fit_two_state,
    synthesize_phase,
)
from dualsync.pll import LoopConfig
from dualsync.spectral import cheb_window, psd_estimate
from oracles import LoopUnit, controller_step, psd_level_at

BAUD = 8e6
DECIMATION = 956
FS_DEC = BAUD / DECIMATION
RF_DB = 20 * math.log10(220.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


def test_criterion_1_noise_mask_round_trip():
    """Synthesize both clocks from their masks, scale to RF, re-estimate."""
    t0 = time.perf_counter()
    block, n_blocks = 2**17, 32
    window = cheb_window(block, 300.0)
    failures = []
    measured = {}
    for name, mask in (("master", DEFAULT_MASTER_MASK), ("follower", DEFAULT_FOLLOWER_MASK)):
        params = fit_two_state(mask, BAUD)
        # decimated-rate record (the 2**22-sample series) for the low anchors
        rng = np.random.default_rng(1)
        x = synthesize_phase(params.rescaled(DECIMATION), 2**22, rng) * 220.0
        est_lo = psd_estimate(x, FS_DEC, block, n_blocks, window=window)
        # short full-rate record resolves the 10 kHz anchor
        x = synthesize_phase(params, block * n_blocks, rng) * 220.0
        est_hi = psd_estimate(x, BAUD, block, n_blocks, window=window)
        for f_anchor, level in mask.points:
            est = est_lo if f_anchor < FS_DEC / 2 else est_hi
            got = psd_level_at(est, f_anchor)
            want = level + RF_DB
            measured[(name, f_anchor)] = (got, want)
            if abs(got - want) > 3.0:
                failures.append((name, f_anchor, got, want))
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"{n} {f:g} Hz: {g:.1f} dBc/Hz (target {w:.1f})"
        for (n, f), (g, w) in measured.items()
    ) + f"; runtime {elapsed:.1f} s"
    ok = not failures and elapsed <= 120.0
    report("1 (noise-mask round trip)", ok, detail)
    assert not failures, failures
    assert elapsed <= 120.0


def test_criterion_2_delay_margin():
    t0 = time.perf_counter()
    margin = delay_margin(1.0, 1e6, 1.0, 1e6)
    grid = np.logspace(1, 6, 13)
    margins = [m for _, m in delay_margin_grid(grid, 1.0, 1.0)]
    elapsed = time.perf_counter() - t0
    anchor_ok = abs(margin - 0.23e-6) / 0.23e-6 <= 0.25
    monotone_ok = all(b <= a * (1 + 1e-9) for a, b in zip(margins, margins[1:]))
    ok = anchor_ok and monotone_ok and elapsed < 1.0
    report(
        "2 (delay margin)",
        ok,
        f"margin at 1 MHz = {margin * 1e6:.3f} us (target 0.23 +-25%), "
        f"monotone over 10 Hz..1 MHz: {monotone_ok}, runtime {elapsed * 1e3:.0f} ms",
    )
    assert anchor_ok
    assert monotone_ok
    assert elapsed < 1.0


def test_criterion_3_transfer_function_identities():
    gm = closed_tf(LoopConfig(1.0, 200.0, 1e-7))
    gs = closed_tf(LoopConfig(0.7, 120.0, 1e-7))
    tfs = dual_loop_tfs(gm, gs)
    rng = np.random.default_rng(42)
    s = 1j * 2 * math.pi * 10 ** rng.uniform(0, 5, 200)
    same_object = tfs["bf_from_0"] is tfs["out_from_0"]
    eq11 = np.max(np.abs(tfs["bf_from_0"].evaluate(s) - tfs["out_from_0"].evaluate(s)))
    lhs = tfs["bf_from_x"].evaluate(s)
    rhs = tfs["out_from_x"].evaluate(s) + 1.0
    eq12_rel = np.max(np.abs(lhs - rhs) / np.abs(rhs))
    dc = tfs["bf_from_x"].evaluate(0)
    ok = same_object and eq11 == 0.0 and eq12_rel < 1e-10 and dc == 0.0
    report(
        "3 (transfer-function identities)",
        ok,
        f"bf_from_0 identical to out_from_0: {same_object}; "
        f"bf_from_x vs out_from_x + 1 worst rel err {eq12_rel:.2e}; DC value {dc}",
    )
    assert same_object and eq11 == 0.0
    assert eq12_rel < 1e-10
    assert dc == 0.0


def _timed_run(scn: Scenario, seed: int = 1):
    t0 = time.perf_counter()
    result = run_scenario(scn, seed)
    return result, time.perf_counter() - t0


def _settle_time(result, threshold_rad):
    from dualsync.pll import wrap_phase

    err = np.abs([wrap_phase(v) for v in result.theta_bf_minus_theta0])
    assert err[-1] < threshold_rad
    bad = np.nonzero(err > threshold_rad)[0]
    return (bad[-1] + 1) / result.tick_rate_hz if bad.size else 0.0


def test_criterion_4_loop_convergence():
    details = []
    walls = []
    # noiseless static channel
    r, dt = _timed_run(Scenario(duration_s=120.0, ideal_clocks=True, tau_s=1.7e-10))
    walls.append(dt)
    static_tail = np.max(np.abs(r.theta_bf_minus_theta0[-r.n_ticks // 10:]))
    details.append(f"static tail {static_tail:.2e} rad")
    # 180 degree initial offset at 10 and 100 Hz; zero propagation phase
    # puts the quarter-turn lock lattice at zero so the loop re-locks to
    # the reference rather than to a pi-offset ambiguity state
    settle = {}
    for f_hz in (10.0, 100.0):
        r, dt = _timed_run(
            Scenario(duration_s=120.0, ideal_clocks=True,
                     initial_follower_phase_rad=math.pi,
                     omega_m_hz=f_hz, omega_s_hz=f_hz)
        )
        walls.append(dt)
        settle[f_hz] = _settle_time(r, math.radians(1.0))
    ratio = settle[10.0] / settle[100.0]
    details.append(f"settle 10 Hz {settle[10.0]:.3f} s / 100 Hz {settle[100.0]:.3f} s "
                   f"(ratio {ratio:.1f})")
    # 50 Hz follower frequency offset
    r, dt = _timed_run(
        Scenario(duration_s=120.0, ideal_clocks=True, tau_s=1.7e-10,
                 follower_freq_offset_hz=50.0)
    )
    walls.append(dt)
    offset_tail = np.max(np.abs(r.theta_bf_minus_theta0[-r.n_ticks // 10:]))
    details.append(f"50 Hz offset tail {offset_tail:.2e} rad")
    details.append(f"wall per 120 s run max {max(walls):.1f} s")
    ok = (static_tail < 1e-3 and abs(ratio - 10.0) <= 3.0 and offset_tail < 1e-3
          and max(walls) <= 5.0)
    report("4 (loop convergence)", ok, "; ".join(details))
    assert static_tail < 1e-3
    assert abs(ratio - 10.0) <= 3.0
    assert offset_tail < 1e-3
    assert max(walls) <= 5.0


def _error_floor_db(snr_db, dual_carrier=True, seed=1):
    scn = Scenario(duration_s=40.0, ideal_clocks=True, snr_db=snr_db,
                   dual_carrier=dual_carrier)
    r = run_scenario(scn, seed)
    est = psd_estimate(r.theta_bf_minus_theta0, FS_DEC, block_len=2**13,
                       n_blocks=16, window=cheb_window(2**13, 120.0))
    band = (est.freqs_hz >= 3.0) & (est.freqs_hz <= 30.0)
    return float(np.mean(est.levels_dbc_hz[band]))


def test_criterion_5a_awgn_floor_scaling():
    floors = {snr: _error_floor_db(snr) for snr in (0, 10, 20)}
    d1 = floors[0] - floors[10]
    d2 = floors[10] - floors[20]
    ok = abs(d1 - 10.0) <= 1.0 and abs(d2 - 10.0) <= 1.0
    report(
        "5a (AWGN floor scaling)",
        ok,
        f"floors {floors[0]:.1f}/{floors[10]:.1f}/{floors[20]:.1f} dBc/Hz at 0/10/20 dB "
        f"SNR; drops {d1:.2f} and {d2:.2f} dB per 10 dB",
    )
    assert abs(d1 - 10.0) <= 1.0
    assert abs(d2 - 10.0) <= 1.0


def test_criterion_5b_dual_carrier_floor_benefit():
    dual = _error_floor_db(10.0, dual_carrier=True)
    single = _error_floor_db(10.0, dual_carrier=False)
    gap = single - dual
    # the ring error is (n_fwd - n_ret)/2: the mean of four discriminator
    # noises of variance sigma_d^2 in dual mode, of two in single mode
    sigma_d2 = sigma_from_snr(10.0, 10 * math.log10(32)) ** 2 / 2
    ref_d = 10 * math.log10(sigma_d2 / FS_DEC)  # one discriminator, L(f) convention
    target_dual = ref_d - 10 * math.log10(4)
    target_gap = 10 * math.log10(2)
    floor_ok = abs(dual - target_dual) <= 1.0
    gap_ok = abs(gap - target_gap) <= 1.0
    report(
        "5b (dual-carrier floor benefit)",
        floor_ok and gap_ok,
        f"dual floor {dual:.2f} dBc/Hz vs target {target_dual:.2f} (single-"
        f"discriminator reference {ref_d:.2f} - 6.02 dB, required +-1); single "
        f"{single:.2f} dBc/Hz, mode gap {gap:.2f} dB vs target {target_gap:.2f} "
        f"(required +-1). Analysis: the ring output noise is (n_fwd - n_ret)/2; "
        f"pair averaging on both ends quarters the discriminator variance "
        f"(6.02 dB below the reference), dropping it halves that benefit (3.01 dB gap)",
    )
    assert floor_ok, (
        f"dual floor {dual:.2f} dBc/Hz, expected {target_dual:.2f} +-1 "
        f"(single-discriminator reference {ref_d:.2f} - 10*log10(4))"
    )
    assert gap_ok, f"mode gap {gap:.2f} dB, expected 10*log10(2) = {target_gap:.2f} +-1"


def test_criterion_5c_compression_gain():
    import cmath

    from oracles import simulate_pilot_rx, wh_sequence

    seq = wh_sequence(1, 32)
    rng = np.random.default_rng(31)
    phases = np.array([
        cmath.phase(simulate_pilot_rx(0.0, seq, 0.0, rng)) for _ in range(30_000)
    ])
    measured_db = 10 * math.log10(np.var(phases))
    predicted = sigma_from_snr(0.0, 10 * math.log10(32))
    predicted_db = 10 * math.log10(predicted**2 / 2)
    err = measured_db - predicted_db
    ok = abs(err) <= 0.3
    report(
        "5c (pilot compression gain)",
        ok,
        f"symbol-level phase-error variance {measured_db:.2f} dB vs decimated model "
        f"{predicted_db:.2f} dB (10*log10(32) = 15.05 dB gain): error {err:+.2f} dB",
    )
    assert abs(err) <= 0.3


def _doppler_ramp_offset(scn: Scenario) -> float:
    """Steady theta_bf - theta_0 of the delay-free linear ring under scn's Doppler.

    The common Doppler phase 2*pi*f_D*t (2*pi*f_D/s**2) reaches the error
    through T = G_s*(1 + G_c)/(1 - G_s*G_c); by the final-value theorem the
    steady offset is 2*pi*f_D * lim_{s->0} T(s)/s.
    """
    gc = gc_tf(closed_tf(scn.loop_config_master()))
    gs = closed_tf(scn.loop_config_follower())
    num = npoly.polymul(gs.num, npoly.polyadd(gc.den, gc.num))
    den = npoly.polysub(npoly.polymul(gs.den, gc.den), npoly.polymul(gs.num, gc.num))
    assert np.all(npoly.polyroots(den).real < 0), "final-value theorem needs a stable ring"
    if num[0] != 0.0:
        return math.inf  # no zero at s = 0: the ramp leaves a growing error
    return 2 * math.pi * scn.doppler_hz * num[1] / den[0]


def test_criterion_6a_doppler_residual():
    scn = Scenario(duration_s=120.0, ideal_clocks=True, doppler_hz=1.0, snr_db=10.0)
    predicted = _doppler_ramp_offset(scn)
    # deterministic part: the same scenario without noise
    quiet = run_scenario(replace(scn, duration_s=20.0, snr_db=math.inf), seed=1)
    quiet_offset = float(np.mean(quiet.theta_bf_minus_theta0[quiet.n_ticks // 2:]))
    quiet_ok = abs(quiet_offset - predicted) <= 1e-9
    r = run_scenario(scn, seed=1)
    tail = r.theta_bf_minus_theta0[r.n_ticks // 2:]
    residual = float(np.mean(tail))
    bounded = np.max(np.abs(tail)) < 0.05
    # standard error of the tail mean of white error samples of variance
    # sigma_d^2/4 (the dual floor): sqrt(sigma_d^2/(4*fs*T)), fs*T the tail length
    sigma_d2 = sigma_from_snr(10.0, 10 * math.log10(32)) ** 2 / 2
    std_err = math.sqrt(sigma_d2 / (4 * tail.size))
    noisy_ok = abs(residual - predicted) <= 4 * std_err
    ok = bounded and quiet_ok and noisy_ok
    report(
        "6a (Doppler residual)",
        ok,
        f"bounded: {bounded}; linear prediction {predicted:+.1e} rad; noiseless "
        f"steady offset {quiet_offset:+.2e} rad (required within 1e-9); 10 dB "
        f"steady mean {residual:+.2e} rad (required within 4 standard errors = "
        f"{4 * std_err:.2e}). Analysis: 1 + G_c has a double zero at s = 0, so "
        f"the type-2 ring tracks the 1 Hz Doppler ramp with zero deterministic "
        f"steady error; the 10 dB mean is AWGN",
    )
    assert bounded
    assert quiet_ok, f"noiseless steady offset {quiet_offset:+.2e} rad, predicted {predicted:+.1e}"
    assert noisy_ok, (
        f"10 dB steady mean {residual:+.2e} rad is more than 4 standard errors "
        f"({4 * std_err:.2e} rad) from the predicted {predicted:+.1e}"
    )


def test_criterion_6b_ambiguity_jumps():
    # unbounded accumulated drift, raw per-tick angle measurements
    scn = Scenario(duration_s=30.0, ideal_clocks=True, doppler_hz=1.0,
                   tau_s=1.875e-8, wrap_compensation=False)
    r = run_scenario(scn, seed=1)
    jumps = detect_ambiguity_jumps(r.theta_bf_minus_theta0, r.tick_rate_hz)
    only_quarter = bool(jumps) and all(
        abs(abs(m) - math.pi / 2) < math.pi / 16 for _, m in jumps
    )
    ok = len(jumps) >= 10 and only_quarter
    report(
        "6b (90-degree ambiguity jumps)",
        ok,
        f"{len(jumps)} jumps detected, magnitudes all pi/2 within pi/16: {only_quarter}",
    )
    assert len(jumps) >= 10
    assert only_quarter


def test_criterion_7_oracle_equivalences():
    # controller vs independent scalar recurrence
    cfg = LoopConfig(0.8, 3.0, 1e-3)
    zeta, om, t = cfg.zeta, cfg.omega_rad_s, cfg.tick_period_s
    unit = LoopUnit()
    v = u = w2p = wp = 0.0
    worst = 0.0
    rng = np.random.default_rng(3)
    for e in rng.uniform(-1, 1, 1000):
        unit, _ = controller_step(unit, float(e), cfg)
        w2 = om * om * e
        v += 0.5 * t * (w2 + w2p)
        w = 2 * zeta * om * e + v
        u += 0.5 * t * (w + wp)
        w2p, wp = w2, w
        worst = max(worst, abs(unit.acc_outer - u))
    recurrence_ok = worst < 1e-12

    # white-noise PSD level vs analytic
    sigma = 0.02
    x = np.random.default_rng(7).standard_normal(2**13 * 32) * sigma
    est = psd_estimate(x, FS_DEC, block_len=2**13, n_blocks=32,
                       window=cheb_window(2**13, 120.0))
    level_err = abs(float(np.mean(est.levels_dbc_hz[4:])) - 10 * math.log10(sigma**2 / FS_DEC))
    psd_ok = level_err <= 0.5

    # Monte-Carlo variance growth of the two-state model
    def ensemble(params, n, trials, seed):
        g = np.random.default_rng(seed).standard_normal((trials, 3, n))
        freq = np.cumsum(params.sigma2 * g[:, 2, :], axis=1)
        phase = np.cumsum(freq + params.sigma1 * g[:, 1, :], axis=1)
        return phase[:, -1] + params.sigma0 * g[:, 0, -1]

    s1 = 1e-3
    lin = np.var(ensemble(TwoStateParams(0, s1, 0, 1e3), 64, 20000, 2))
    lin_ok = abs(lin / (64 * s1**2) - 1) <= 0.05
    sizes = np.array([16, 64, 256, 1024])
    variances = [np.var(ensemble(TwoStateParams(0, 0, 1e-5, 1e3), n, 4000, n))
                 for n in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(variances), 1)[0])
    cubic_ok = abs(slope - 3.0) <= 0.1
    ok = recurrence_ok and psd_ok and lin_ok and cubic_ok
    report(
        "7 (oracle equivalences)",
        ok,
        f"controller recurrence worst diff {worst:.1e}; white PSD error "
        f"{level_err:.2f} dB; linear-growth ratio err {abs(lin / (64 * s1**2) - 1):.3f}; "
        f"cubic-growth exponent {slope:.3f}",
    )
    assert recurrence_ok and psd_ok and lin_ok and cubic_ok


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(
        "[run]\nduration_s = 2\nseed = 11\n[channel]\nsnr_db = 10\ndoppler_hz = 0.2\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out),
                         "--quiet"]) == 0
        outs.append((out / "timeseries.csv").read_bytes())
    identical = outs[0] == outs[1]
    scn = Scenario(duration_s=1.0, snr_db=10.0)
    arrays_equal = (run_scenario(scn, seed=4).theta_bf_minus_theta0.tobytes()
                    == run_scenario(scn, seed=4).theta_bf_minus_theta0.tobytes())
    ok = identical and arrays_equal
    report(
        "8 (determinism)",
        ok,
        f"CLI reruns byte-identical: {identical}; library arrays byte-identical: "
        f"{arrays_equal}",
    )
    assert identical
    assert arrays_equal
