"""Oracles that only the tests run: symbol-level pilot reception, the
one-tick clock model, and the ring's tick in pure Python and in phasor
form.

The simulator never runs any of them.  Its AWGN is drawn per decimated
tick at ``channel.sigma_from_snr(snr, compression_gain_db(pilot_len))``,
its clocks come from ``oscillator.synthesize_phase``, and its ticks from
the C kernel behind ``nodes._tick_loop_fast``.  The pilot oracle
(Walsh-Hadamard codes, matched correlation, symbol-level reception)
checks that shortcut in criterion 5c and tests/test_framing.py; the
clock oracle (``TwoStateClock``, ``clock_step``) checks the synthesis
sample for sample in tests/test_oscillator.py, and ``one_shot_synthesis``,
the numpy formula the C synthesis replaced, checks it byte for byte; the
two tick oracles check the kernel in tests/test_nodes.py: ``tick_loop``,
the pure-Python kernel the C source was transcribed from, bit for bit,
and ``reference_loop``, built from ``discriminate`` and
``controller_step``, to 1e-10 rad.  ``run_reference`` runs either in the
kernel's place.  ``write_rows`` is the CSV row writer the C writer
``_csv.c`` replaced, its byte oracle.  ``bisect_delay_margin`` is the
scalar bisection ``linear_analysis.delay_margin`` ran before it bisected
every crossing of every point in lockstep on arrays, its byte oracle.
``canonical_text`` is the config serialization that sorted and scanned
the keys on every call, the byte oracle of the one whose key order is
fixed at import.  ``nnls`` is scipy's public non-negative least-squares
solver, the oracle of ``oscillator._nnls``, which calls its compiled
solver without importing ``scipy.optimize``.  ``psd_level_at`` reads a
mask anchor off a PSD estimate.

Pilot machinery: orthogonal +-1 code sequences and matched correlation
whose coherent gain links the raw per-symbol SNR to the decimated-tick
noise level used by the channel module.  Pilot placement, payload
symbols, FEC and frame headers are out of scope.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

from dualsync import nodes
from dualsync.channel import compression_gain_db, sigma_from_snr
from dualsync.config import RETIRED_KEYS, SCHEMA
from dualsync.linear_analysis import closed_tf, gc_tf
from dualsync.nodes import DIVERGENCE_LIMIT_RAD, TWO_PI, Scenario, ScenarioResult
from dualsync.oscillator import TwoStateParams
from dualsync.pll import LoopConfig, wrap_phase
from dualsync.spectral import PsdEstimate


@dataclass(frozen=True)
class PilotSequence:
    """A +-1 pilot code (one Walsh-Hadamard row)."""

    code_index: int
    chips: tuple

    def __post_init__(self):
        chips = tuple(int(c) for c in self.chips)
        if any(c not in (-1, 1) for c in chips):
            raise ValueError("chips must be +-1")
        object.__setattr__(self, "chips", chips)

    def as_array(self) -> np.ndarray:
        return np.array(self.chips, dtype=float)


def wh_sequence(index: int, length: int = 32) -> PilotSequence:
    """Row ``index`` of the Sylvester-construction Hadamard matrix."""
    if length < 1 or length & (length - 1):
        raise ValueError("length must be a power of two")
    if not 0 <= index < length:
        raise ValueError(f"index must be in 0..{length - 1}")
    chips = tuple(1 - 2 * ((index & col).bit_count() & 1) for col in range(length))
    return PilotSequence(code_index=index, chips=chips)


def pilot_correlate(rx_symbols, seq: PilotSequence) -> complex:
    """Matched correlation (1/N) * sum(rx * chips) over one pilot field.

    For a noiseless rotated pilot exp(1j*phi)*chips the result is exactly
    exp(1j*phi); orthogonal codes correlate to zero.
    """
    rx = np.asarray(rx_symbols, dtype=complex)
    chips = seq.as_array()
    if rx.shape != chips.shape:
        raise ValueError(f"expected {chips.size} symbols, got {rx.size}")
    return complex(np.mean(rx * chips))


def simulate_pilot_rx(tx_phase_rad: float, seq: PilotSequence, symbol_snr_db: float,
                      rng: np.random.Generator) -> complex:
    """Symbol-level pilot transmission, AWGN and matched correlation.

    Synthesizes the pilot field as unit-magnitude symbols carrying
    ``tx_phase_rad`` under the +-1 code, adds per-symbol complex AWGN at
    ``symbol_snr_db``, and correlates.  The phase-estimate statistics
    match the decimated-tick shortcut
    ``sigma_from_snr(symbol_snr_db, compression_gain_db)``.
    """
    chips = seq.as_array()
    n = chips.size
    symbols = chips * np.exp(1j * tx_phase_rad)
    sigma = sigma_from_snr(symbol_snr_db, 0.0)
    if sigma > 0:
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (sigma / math.sqrt(2.0))
        symbols = symbols + noise
    return pilot_correlate(symbols, seq)


def decimated_phase_error_model(symbol_snr_db: float, pilot_len: int,
                                n: int, rng: np.random.Generator) -> np.ndarray:
    """Phase errors of the decimated-tick AWGN shortcut, for cross-checks."""
    sigma = sigma_from_snr(symbol_snr_db, compression_gain_db(pilot_len))
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (sigma / math.sqrt(2.0))
    return np.angle(1.0 + noise)


# the one-tick clock model that oscillator.synthesize_phase vectorises
@dataclass(frozen=True)
class TwoStateClock:
    """Oscillator state: accumulated phase and frequency plus noise params."""

    params: TwoStateParams
    phase: float = 0.0
    freq_state: float = 0.0


def clock_step(clock: TwoStateClock, gaussians) -> tuple[TwoStateClock, float]:
    """Advance the clock one tick using three unit-normal draws."""
    g0, g1, g2 = (float(g) for g in gaussians)
    p = clock.params
    freq_state = clock.freq_state + p.sigma2 * g2
    phase = clock.phase + (freq_state + p.sigma1 * g1)
    if not math.isfinite(phase):
        raise ValueError("clock phase diverged")
    sample = phase + p.sigma0 * g0
    return replace(clock, phase=phase, freq_state=freq_state), sample


# the public solver, the byte oracle of oscillator._nnls
def nnls(A, b):
    """``scipy.optimize.nnls(A, b)``: its ``(x, rnorm)``."""
    from scipy.optimize import nnls as public_nnls

    return public_nnls(A, b)


# the synthesis formula, the byte oracle of oscillator.synthesize_phase
def one_shot_synthesis(params, n, rng):
    """The synthesis formula with all three streams drawn at once."""
    g = rng.standard_normal((3, n))
    freq = np.cumsum(params.sigma2 * g[2])
    phase = np.cumsum(freq + params.sigma1 * g[1])
    return phase + params.sigma0 * g[0]


# the kernel's input guard, which both tick oracles run behind
def _finite_ticks(n, th0, thx, noise) -> int:
    """Number of leading ticks whose clock and noise samples are all finite."""
    rows = [th0, thx] + ([] if noise is None else list(noise))
    finite = np.isfinite([np.asarray(row)[:n] for row in rows]).all(axis=0)
    return n if finite.all() else int(np.argmin(finite))


def _input_guard(loop):
    """``loop`` run only up to the first tick whose clock or noise sample is
    NaN or inf, which then counts as diverged, as in the C kernel.

    A ring with finite inputs runs exactly as ``loop`` alone.  Without the
    guard a NaN would make ``math.floor`` raise ValueError, a follower
    clock NaN would reach the loop states a tick late, and an inf noise
    sample can give a finite ``atan2`` and no divergence at all.
    """
    @functools.wraps(loop)
    def guarded(n, cfg_m, cfg_s, th0, thx, phi1, phi2, phi3, phi4, dopp_per_tick, noise,
                *rest):
        ticks = _finite_ticks(n, th0, thx, noise)
        bad = loop(ticks, cfg_m, cfg_s, th0, thx, phi1, phi2, phi3, phi4, dopp_per_tick,
                   noise, *rest)
        return ticks if bad < 0 and ticks < n else bad

    return guarded


# the package's former kernel, the byte oracle of nodes._tick_loop_fast
@_input_guard
def tick_loop(n, cfg_m, cfg_s, th0, thx, phi1, phi2, phi3, phi4, dopp_per_tick,
              noise, theta_offset, latency, dual, wrap_comp,
              bf0, out_arr, al, r1a, r2a, r3a, r4a):
    """The byte oracle: the package's former pure-Python kernel, verbatim.

    ``nodes._tick_loop_fast`` runs the C transcription of this function and
    must give the same bits.  ``cfg_m`` and ``cfg_s`` are the master's and
    the follower's ``pll.LoopConfig``, read once before the loop.  The
    series arguments may be ndarrays or memoryviews of them, and ``noise``
    None for a noiseless ring or anything that unpacks to its eight 1-D
    rows; ``run_scenario`` passes memoryviews, whose elements are plain
    floats, which keeps numpy scalar arithmetic out of the loop without
    changing a bit.  ``r1a..r4a`` are either all buffers or all None, which
    skips the follower's ``r1``/``r2`` and every ``r`` store.  Unlike the
    C kernel, a single-carrier tick still computes the second return
    carrier, whose results nothing reads.  Returns the first diverged tick
    or -1.
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


# the ring's tick in phasor form, the oracle of the kernel to 1e-10 rad
def discriminate(received: complex, reference: complex) -> float:
    """Phase of ``received`` relative to ``reference``, wrapped by
    ``wrap_phase``.

    Raises ValueError if either phasor has zero magnitude (the angle is
    undefined there).
    """
    if received == 0 or reference == 0:
        raise ValueError("zero-magnitude phasor has no defined angle")
    return wrap_phase(cmath.phase(received * reference.conjugate()))


@dataclass(frozen=True)
class LoopUnit:
    """State of one tracking loop.

    ``acc_inner`` is the trapezoidal accumulator of omega**2 * error and
    ``acc_outer`` the accumulated control output.
    ``prev_inner_in``/``prev_outer_in`` hold the previous integrator
    inputs required by the trapezoidal rule.
    """

    acc_inner: float = 0.0
    acc_outer: float = 0.0
    prev_inner_in: float = 0.0
    prev_outer_in: float = 0.0


def controller_step(unit: LoopUnit, error: float, cfg: LoopConfig) -> tuple[LoopUnit, float]:
    """Advance the loop controller by one tick.

    Returns the new unit and the control output (phase increment per tick).
    The inner path integrates omega**2 * error; the outer path integrates
    2*zeta*omega*error plus the inner accumulator.  ``acc_outer`` carries
    the accumulated control, which equals the output phase unwrapped.
    """
    if not math.isfinite(error):
        raise ValueError("loop error must be finite")
    om = cfg.omega_rad_s
    half_t = 0.5 * cfg.tick_period_s
    inner_in = om * om * error
    acc_inner = unit.acc_inner + half_t * (inner_in + unit.prev_inner_in)
    outer_in = 2.0 * cfg.zeta * om * error + acc_inner
    control = half_t * (outer_in + unit.prev_outer_in)
    new = replace(
        unit,
        acc_inner=acc_inner,
        acc_outer=unit.acc_outer + control,
        prev_inner_in=inner_in,
        prev_outer_in=outer_in,
    )
    return new, control


@_input_guard
def reference_loop(n, cfg_m, cfg_s, th0, thx, phi1, phi2, phi3, phi4, dopp_per_tick,
                   noise, theta_offset, latency, dual, wrap_comp,
                   bf0, out_arr, al, r1a, r2a, r3a, r4a):
    """The kernel's tick in phasor form: its oracle, with its arguments.

    Each end sends a unit phasor; carrier j arrives rotated by its
    propagation and Doppler phases, plus its noise sample, and is measured
    with ``discriminate`` and tracked with ``controller_step``.
    A loop's accumulated control is ``alpha`` at the master and
    ``theta_out`` at the follower.  Returns the first diverged tick or -1;
    ``r1a..r4a`` all None skips the ``r`` series, as in the kernel.
    """
    record = r1a is not None
    master = follower = LoopUnit()
    phis = (phi1, phi2, phi3, phi4)
    txf = [cmath.exp(1j * th0[0])] * latency
    txr = [cmath.exp(1j * thx[0])] * latency
    tr3 = tr4 = 0.0
    thx_prev = thx[0]

    def receive(tx, j, i):
        rx = tx * cmath.exp(1j * (phis[j] + dopp_per_tick * i))
        if noise is not None:
            rx += complex(noise[2 * j][i], noise[2 * j + 1][i])
        return rx

    for i in range(n):
        slot = i % latency
        # master: measure the return pair, track the round trip, pre-distort
        lo = cmath.exp(1j * th0[i])
        r3 = discriminate(receive(txr[slot], 2, i), lo)
        r4 = discriminate(receive(txr[slot], 3, i), lo) if dual else 0.0
        if wrap_comp and i:
            tr3 += wrap_phase(r3 - tr3)
            tr4 += wrap_phase(r4 - tr4)
        else:
            tr3, tr4 = r3, r4
        mean_r = 0.5 * (tr3 + tr4) if dual else tr3
        err = wrap_phase(theta_offset - mean_r - 0.5 * master.acc_outer)
        master = controller_step(master, err, cfg_m)[0]
        alpha = master.acc_outer
        # follower: the reference is the composite carrier (loop output plus
        # LO) of the previous tick, so that a follower LO frequency offset is
        # absorbed with zero steady-state error; average, track, retransmit
        ref = cmath.exp(1j * (follower.acc_outer + thx_prev))
        rx1 = receive(txf[slot], 0, i)
        err = discriminate(rx1, ref)
        if dual:
            rx2 = receive(txf[slot], 1, i)
            err = wrap_phase(0.5 * (err + discriminate(rx2, ref)))
        follower = controller_step(follower, err, cfg_s)[0]
        theta_out = follower.acc_outer
        theta_bf = theta_out + thx[i]
        thx_prev = thx[i]
        txf[slot] = cmath.exp(1j * (th0[i] + 0.5 * alpha))
        txr[slot] = cmath.exp(1j * theta_bf)
        bf0[i] = theta_bf - th0[i]
        out_arr[i] = theta_out
        al[i] = alpha
        if record:
            r1a[i] = wrap_phase(cmath.phase(rx1) - thx[i])
            r2a[i] = wrap_phase(cmath.phase(rx2) - thx[i]) if dual else 0.0
            r3a[i] = r3
            r4a[i] = r4
        if not (abs(alpha) <= DIVERGENCE_LIMIT_RAD and abs(theta_out) <= DIVERGENCE_LIMIT_RAD):
            return i
    return -1


def run_reference(scn: Scenario, seed: int, *, discriminators: bool = True,
                  loop=None) -> ScenarioResult:
    """``nodes.run_scenario`` with the oracle ``loop``, ``reference_loop``
    unless given, in the kernel's place.

    The oracle gets the kernel's clock series, noise memoryviews, phases
    and DivergenceError handling.  Raises AssertionError unless
    run_scenario called the oracle exactly once, so that a run of the
    kernel can never stand in for the oracle's.
    """
    calls = []

    def oracle(*args):
        calls.append(None)
        return (loop or reference_loop)(*args)

    try:
        with mock.patch.object(nodes, "_tick_loop_fast", oracle):
            return nodes.run_scenario(scn, seed, discriminators=discriminators)
    finally:
        if len(calls) != 1:
            raise AssertionError(f"run_scenario ran the oracle {len(calls)} times")


def psd_level_at(est: PsdEstimate, f_hz: float) -> float:
    """Mean level (dB) over the bins within +-10% of f_hz.

    Averaging a narrow band tames single-bin periodogram scatter when a
    mask anchor is read off the estimate.
    """
    f = est.freqs_hz
    band = (f >= 0.9 * f_hz) & (f <= 1.1 * f_hz) & (f > 0)
    if not np.any(band):
        idx = int(np.argmin(np.abs(f - f_hz)))
        if idx == 0:
            raise ValueError(f"offset {f_hz} Hz not resolvable on this grid")
        return float(est.levels_dbc_hz[idx])
    return float(np.mean(est.levels_dbc_hz[band]))


def write_rows(fh, rows) -> None:
    """Write each row as its cells' str() joined by commas: the loop
    ``cli._write_csv`` ran before the C writer, verbatim."""
    for row in rows:
        fh.write(",".join(map(str, row)) + "\n")


def bisect_delay_margin(zeta_m: float, omega_m_hz: float, zeta_s: float,
                        omega_s_hz: float) -> float:
    """One point's delay margin by scalar bisection, each crossing refined
    with 60 calls of ``L`` on 0-d arrays: ``linear_analysis.delay_margin``
    as it was before it bisected all crossings in lockstep, verbatim."""
    # tick period is irrelevant for the continuous TF; pick one small
    # enough to stay clear of the discretization warning
    t = 1e-3 / max(omega_m_hz, omega_s_hz)
    cfg_m = LoopConfig(zeta_m, omega_m_hz, t)
    cfg_s = LoopConfig(zeta_s, omega_s_hz, t)
    gc = gc_tf(closed_tf(cfg_m))
    gs = closed_tf(cfg_s)

    def L(w):
        s = 1j * np.asarray(w, dtype=float)
        return gc.evaluate(s) * gs.evaluate(s)

    w_lo = 1e-2 * min(cfg_m.omega_rad_s, cfg_s.omega_rad_s)
    w_hi = 1e4 * max(omega_m_hz, omega_s_hz)
    grid = np.logspace(math.log10(w_lo), math.log10(w_hi), 4000)
    mag = np.abs(L(grid))
    sign = np.sign(mag - 1.0)
    crossings = np.nonzero(np.diff(sign))[0]
    if len(crossings) == 0:
        return math.inf
    best = math.inf
    for i in crossings:
        lo, hi = grid[i], grid[i + 1]
        flo = abs(L(lo)) - 1.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            fm = abs(L(mid)) - 1.0
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        wc = math.sqrt(lo * hi)
        ang = math.atan2(L(wc).imag, L(wc).real)
        dist = ang % (2.0 * math.pi)  # phase distance down to 0 deg, mod 360
        best = min(best, dist / wc)
    return best


def canonical_text(cfg) -> str:
    """``cfg.canonical_text()`` as it was before the key order was fixed at
    import: the sections sorted, then the keys of each section found by a
    scan of the values and sorted, on every call; verbatim."""
    values = {**cfg.values, **{k: fixed(cfg.values) for k, fixed in RETIRED_KEYS.items()}}
    lines = []
    for section in sorted(SCHEMA):
        lines.append(f"[{section}]")
        for full in sorted(k for k in values if k.startswith(f"{section}.")):
            lines.append(f"{full.split('.')[1]} = {values[full]!r}")
    return "\n".join(lines) + "\n"
