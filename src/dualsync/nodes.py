"""The ring's clocks, tick loops, scenario runner and jump detector.

Stream layout (``_streams``): child 0 of ``SeedSequence(seed)`` draws the
master clock, child 1 the follower clock, children 2-5 the four legs' noise.

Ring topology per decimated tick (latency >= 1 tick on every leg):

* the master measures the two return carriers against its own LO,
  removes the previously applied compensation from the round-trip
  estimate, tracks the result with its loop and pre-distorts both
  forward carriers by half the compensation phase:
  ``tx1 = tx2 = exp(1j*(theta_0 + alpha/2))``;
* the follower averages the two forward discriminators, tracks the
  average with its loop and returns
  ``tx3 = tx4 = exp(1j*(theta_out + theta_x))``;
* carrier j reaches the far end rotated by its propagation phase
  ``channel.prop_phase(f_j, tau_s)`` plus the Doppler phase common to
  all four carriers, with independent complex AWGN added per carrier.

``_tick_loop`` is the package's only tick kernel; the tests check it
against ``tests/oracles.reference_loop``, which takes the same arguments
and computes the same tick in phasor form.  The kernel records
``theta_bf - theta_0``, ``theta_out`` and ``alpha`` on every tick.  The
four per-carrier discriminator series ``r1..r4`` are recorded only when
their buffers are given: a run called with ``discriminators=False``
passes None for all four, and the kernel then skips the work that only
those series need.  Only ``timeseries.csv`` reads them.

At a static reciprocal channel the loops lock, but each end averages two
*wrapped* carrier phases, a mean defined only modulo pi, so after the
master's divide-by-two ``theta_bf - theta_0`` settles at a multiple of
pi/2 (plus ``theta_offset/2`` for a commanded setpoint): zero only while
neither pair straddles a wrap, e.g. at short delays and small offsets.

Phase bookkeeping: ``alpha`` and ``theta_out`` accumulate unwrapped;
wrapping happens only at the discriminators.  The per-carrier ``angle``
measurements at the master are wrapped per tick; with
``wrap_compensation`` enabled they are unwrapped across ticks, otherwise
sustained drift makes them hop 2*pi and the divide-by-two stages turn
those hops into the 90-degree ambiguity jumps this loop family is known
for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CarrierPlan, compression_gain_db, prop_phase, sigma_from_snr
from .oscillator import (
    DEFAULT_FOLLOWER_MASK,
    DEFAULT_MASTER_MASK,
    NoiseMask,
    fit_two_state,
    synthesize_phase,
)
from .pll import LoopConfig

TWO_PI = 2.0 * math.pi
DIVERGENCE_LIMIT_RAD = 1e6


class DivergenceError(RuntimeError):
    """A loop phase exceeded the divergence guard or became NaN."""

    def __init__(self, tick: int):
        super().__init__(f"scenario diverged at tick {tick} (phase beyond "
                         f"{DIVERGENCE_LIMIT_RAD:g} rad or NaN)")
        self.tick = tick

    def __reduce__(self):
        # RuntimeError's default would call __init__ with the whole message
        return DivergenceError, (self.tick,)


@dataclass(frozen=True)
class Scenario:
    """Physical description of one simulation run (rates, loops, channel)."""

    duration_s: float = 10.0
    baud_hz: float = 8e6
    decimation: int = 956
    zeta_m: float = 1.0
    omega_m_hz: float = 100.0
    zeta_s: float = 1.0
    omega_s_hz: float = 100.0
    theta_offset: float = 0.0
    master_mask: NoiseMask = DEFAULT_MASTER_MASK
    follower_mask: NoiseMask = DEFAULT_FOLLOWER_MASK
    ideal_clocks: bool = False
    initial_follower_phase_rad: float = 0.0
    follower_freq_offset_hz: float = 0.0
    plan: CarrierPlan = field(default_factory=CarrierPlan)
    tau_s: float = 0.0
    doppler_hz: float = 0.0
    snr_db: float = math.inf
    pilot_len: int = 32
    loop_latency_ticks: int = 1
    dual_carrier: bool = True
    wrap_compensation: bool = True

    @property
    def tick_rate_hz(self) -> float:
        return self.baud_hz / self.decimation

    @property
    def tick_period_s(self) -> float:
        return self.decimation / self.baud_hz

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration_s * self.tick_rate_hz))

    @property
    def noise_sigma(self) -> float:
        return sigma_from_snr(self.snr_db, compression_gain_db(self.pilot_len))

    def loop_config_master(self) -> LoopConfig:
        return LoopConfig(self.zeta_m, self.omega_m_hz, self.tick_period_s)

    def loop_config_follower(self) -> LoopConfig:
        return LoopConfig(self.zeta_s, self.omega_s_hz, self.tick_period_s)

    def prop_phases(self) -> tuple[float, float, float, float]:
        """Propagation phase of each carrier (fwd lo, fwd hi, ret lo, ret hi)."""
        return tuple(prop_phase(f, self.tau_s) for f in self.plan.carriers_hz)


@dataclass(frozen=True)
class ScenarioResult:
    """Decimated-rate time series of one run, reproducible from (scenario, seed)."""

    tick_rate_hz: float
    seed: int
    theta_bf_minus_theta0: np.ndarray
    theta_out: np.ndarray
    alpha: np.ndarray
    # None when run without discriminators
    r1: np.ndarray | None
    r2: np.ndarray | None
    r3: np.ndarray | None
    r4: np.ndarray | None

    @property
    def n_ticks(self) -> int:
        return self.theta_bf_minus_theta0.size

    @property
    def t_s(self) -> np.ndarray:
        return np.arange(self.n_ticks) / self.tick_rate_hz


def _streams(seed: int) -> list[np.random.SeedSequence]:
    """The seed's child streams in the module docstring's layout."""
    return np.random.SeedSequence(seed).spawn(6)


def _clock_series(scn: Scenario, seed: int, side: str, n: int) -> np.ndarray:
    """RF-scaled phase series of the ``side`` ("master" or "follower")
    oscillator at the decimated tick rate, drawn from the side's stream.

    Parameters are fitted at the baud rate and rescaled to the decimated
    rate, mirroring full-rate synthesis followed by plain decimation.
    """
    if scn.ideal_clocks:
        return np.zeros(n)
    mask = getattr(scn, f"{side}_mask")
    params = fit_two_state(mask, scn.baud_hz).rescaled(scn.decimation)
    phase = synthesize_phase(params, n, np.random.default_rng(_streams(seed)[side == "follower"]))
    phase *= scn.plan.fc_hz / mask.reference_freq_hz
    return phase


def _tick_loop(n, cfg_m, cfg_s, th0, thx, phi1, phi2, phi3, phi4, dopp_per_tick,
               noise, theta_offset, latency, dual, wrap_comp,
               bf0, out_arr, al, r1a, r2a, r3a, r4a):
    """Sequential tick kernel in pure Python.

    Identical math to ``tests/oracles.reference_loop``; returns the first
    diverged tick or -1.  ``cfg_m`` and ``cfg_s`` are the master's and the
    follower's ``pll.LoopConfig``, read once before the loop.  The series
    arguments may be ndarrays or memoryviews of them, and ``noise`` None
    for a noiseless ring or anything that unpacks to its eight 1-D rows (a
    2-D ndarray or a list of row memoryviews); ``run_scenario`` passes
    memoryviews, whose elements are plain floats, which keeps numpy scalar
    arithmetic out of the loop without changing a bit.

    ``r1a..r4a`` are either all buffers or all None.  With None the loop
    skips the follower's ``r1``/``r2`` (a cosine, a sine and two
    ``atan2`` per tick) and every ``r`` store; ``bf0``, ``out_arr``,
    ``al`` and the diverged tick come out bit for bit the same.
    """
    has_noise = noise is not None
    record = r1a is not None
    n0, n1, n2, n3, n4, n5, n6, n7 = noise if has_noise else (None,) * 8
    cos = math.cos
    sin = math.sin
    atan2 = math.atan2
    floor = math.floor
    pi = math.pi
    two_pi = TWO_PI
    limit = DIVERGENCE_LIMIT_RAD
    # loop-invariant leading products of the trapezoid updates: Python
    # multiplies left to right, so hoisting them keeps every bit
    om_m = cfg_m.omega_rad_s
    half_tm = 0.5 * cfg_m.tick_period_s
    ki_m = half_tm * om_m * om_m
    kp_m = 2.0 * cfg_m.zeta * om_m
    om_s = cfg_s.omega_rad_s
    half_ts = 0.5 * cfg_s.tick_period_s
    ki_s = half_ts * om_s * om_s
    kp_s = 2.0 * cfg_s.zeta * om_s
    txf = [th0[0]] * latency
    txr = [thx[0]] * latency
    alpha = 0.0
    theta_out = 0.0
    vm = 0.0
    em_prev = 0.0
    wm_prev = 0.0
    vs = 0.0
    es_prev = 0.0
    ws_prev = 0.0
    tr3 = 0.0
    tr4 = 0.0
    started = False
    thx_prev = thx[0]
    for i in range(n):
        t0 = th0[i]
        tx = thx[i]
        dop = dopp_per_tick * i
        slot = i % latency
        # master: receive the return pair, update the compensation loop
        p3 = txr[slot] + phi3 + dop
        re3 = cos(p3)
        im3 = sin(p3)
        p4 = txr[slot] + phi4 + dop
        re4 = cos(p4)
        im4 = sin(p4)
        if has_noise:
            re3 += n4[i]
            im3 += n5[i]
            re4 += n6[i]
            im4 += n7[i]
        c0 = cos(t0)
        s0 = sin(t0)
        r3 = atan2(im3 * c0 - re3 * s0, re3 * c0 + im3 * s0)
        r4 = atan2(im4 * c0 - re4 * s0, re4 * c0 + im4 * s0)
        if wrap_comp:
            if not started:
                tr3 = r3
                tr4 = r4
                started = True
            else:
                d3 = r3 - tr3
                tr3 = tr3 + (d3 + two_pi * floor((pi - d3) / two_pi))
                d4 = r4 - tr4
                tr4 = tr4 + (d4 + two_pi * floor((pi - d4) / two_pi))
            m3 = tr3
            m4 = tr4
        else:
            m3 = r3
            m4 = r4
        mean_r = 0.5 * (m3 + m4) if dual else m3
        em = theta_offset - mean_r - 0.5 * alpha
        em = em + two_pi * floor((pi - em) / two_pi)
        vm = vm + ki_m * (em + em_prev)
        wm = kp_m * em + vm
        alpha = alpha + half_tm * (wm + wm_prev)
        em_prev = em
        wm_prev = wm
        txf_new = t0 + 0.5 * alpha
        # follower: receive the forward pair, update the tracking loop
        p1 = txf[slot] + phi1 + dop
        re1 = cos(p1)
        im1 = sin(p1)
        if has_noise:
            re1 += n0[i]
            im1 += n1[i]
        # reference = composite carrier (NCO x LO) from the previous epoch
        ref = theta_out + thx_prev
        cr = cos(ref)
        sr = sin(ref)
        e1 = atan2(im1 * cr - re1 * sr, re1 * cr + im1 * sr)
        if dual:
            p2 = txf[slot] + phi2 + dop
            re2 = cos(p2)
            im2 = sin(p2)
            if has_noise:
                re2 += n2[i]
                im2 += n3[i]
            e2 = atan2(im2 * cr - re2 * sr, re2 * cr + im2 * sr)
            es = 0.5 * (e1 + e2)
            es = es + two_pi * floor((pi - es) / two_pi)
        else:
            es = e1
        vs = vs + ki_s * (es + es_prev)
        ws = kp_s * es + vs
        theta_out = theta_out + half_ts * (ws + ws_prev)
        es_prev = es
        ws_prev = ws
        theta_bf = theta_out + tx
        thx_prev = tx
        txf[slot] = txf_new
        txr[slot] = theta_bf
        bf0[i] = theta_bf - t0
        out_arr[i] = theta_out
        al[i] = alpha
        if record:
            ct = cos(tx)
            st = sin(tx)
            r1a[i] = atan2(im1 * ct - re1 * st, re1 * ct + im1 * st)
            r2a[i] = atan2(im2 * ct - re2 * st, re2 * ct + im2 * st) if dual else 0.0
            r3a[i] = r3
            r4a[i] = r4 if dual else 0.0
        # false for NaN as for a phase beyond the limit
        if not (abs(alpha) <= limit and abs(theta_out) <= limit):
            return i
    return -1


# run_scenario calls the kernel through this name, so that tracing can wrap
# it and the tests can put their oracle in its place
_tick_loop_fast = _tick_loop


def run_scenario(scn: Scenario, seed: int, *, discriminators: bool = True) -> ScenarioResult:
    """Simulate the ring for scn.duration_s and record the decimated series.

    Fully deterministic per (scenario, seed): each clock and each leg's
    noise draws from its own stream of ``_streams(seed)``.  With
    ``discriminators=False`` the per-carrier series are neither computed
    nor allocated and ``r1..r4`` of the result are None; the other series
    keep their bits.
    """
    n = scn.n_ticks
    if n < 1:
        raise ValueError("scenario duration shorter than one tick")
    if scn.loop_latency_ticks < 1:
        raise ValueError("loop_latency_ticks must be >= 1 for causality")
    th0 = _clock_series(scn, seed, "master", n)
    thx = _clock_series(scn, seed, "follower", n)
    if scn.initial_follower_phase_rad:
        thx += scn.initial_follower_phase_rad
    if scn.follower_freq_offset_hz:
        thx += TWO_PI * scn.follower_freq_offset_hz * scn.tick_period_s * np.arange(n)
    sigma = scn.noise_sigma
    noise = None
    if sigma > 0.0:
        # each leg's (2, n) draw lands in its own rows, then one scaling
        draws = np.empty((8, n))
        for leg, stream in enumerate(_streams(seed)[2:]):
            np.random.default_rng(stream).standard_normal(out=draws[2 * leg:2 * leg + 2])
        draws *= sigma / math.sqrt(2.0)
        noise = [memoryview(row) for row in draws]
    phi = scn.prop_phases()
    dopp_per_tick = TWO_PI * scn.doppler_hz * scn.tick_period_s

    # the result's seven series in field order; None for r1..r4 when lean
    recorded = 7 if discriminators else 3
    out = [np.empty(n) for _ in range(recorded)] + [None] * (7 - recorded)
    # memoryviews share the arrays' memory and index to plain floats
    bad = _tick_loop_fast(
        n, scn.loop_config_master(), scn.loop_config_follower(),
        memoryview(th0), memoryview(thx), phi[0], phi[1], phi[2], phi[3],
        dopp_per_tick, noise, scn.theta_offset, scn.loop_latency_ticks, scn.dual_carrier,
        scn.wrap_compensation, *(a if a is None else memoryview(a) for a in out),
    )
    if bad >= 0:
        raise DivergenceError(bad)
    return ScenarioResult(scn.tick_rate_hz, seed, *out)


def detect_ambiguity_jumps(series, tick_rate_hz: float) -> list[tuple[int, float]]:
    """Find divide-by-two ambiguity jumps in a phase-difference series.

    Reads the series, sampled at ``tick_rate_hz``, every 50 ms, coarse
    against the settling of 100 Hz loops (a jump takes ~10/omega_n), and
    flags steps above pi/8, snapped to the nearest nonzero multiple of
    pi/2; steps farther than pi/16 from any such multiple are discarded,
    so every magnitude is ~k*pi/2 within pi/16.  Returns (full-rate tick,
    magnitude) pairs.
    """
    quarter = math.pi / 2
    stride = max(1, int(0.05 * tick_rate_hz))
    x = np.asarray(series, dtype=float)[::stride]
    if x.size < 2:
        raise ValueError("series needs at least two samples 50 ms apart")
    diffs = np.diff(x)
    hits = []
    for idx in np.nonzero(np.abs(diffs) > math.pi / 8)[0]:
        d = diffs[idx]
        k = round(d / quarter)
        if k != 0 and abs(d - k * quarter) <= math.pi / 16:
            hits.append((int(idx + 1) * stride, float(k * quarter)))
    return hits
