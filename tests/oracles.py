"""Oracles that only the tests run: symbol-level pilot reception, the
one-tick clock model and the ring's tick in phasor form.

The simulator never runs any of them.  Its AWGN is drawn per decimated
tick at ``channel.sigma_from_snr(snr, compression_gain_db(pilot_len))``,
its clocks come from ``oscillator.synthesize_phase``, and its ticks from
the kernel ``nodes._tick_loop``.  The pilot oracle (Walsh-Hadamard codes,
matched correlation, symbol-level reception) checks that shortcut in
criterion 5c and tests/test_framing.py; the clock oracle
(``TwoStateClock``, ``clock_step``) checks the vectorised synthesis in
tests/test_oscillator.py; the tick oracle (``reference_loop``, built from
``discriminate`` and ``controller_step``, and run by ``run_reference``)
checks the kernel in tests/test_nodes.py.  ``psd_level_at`` reads a mask
anchor off a PSD estimate.

Pilot machinery: orthogonal +-1 code sequences and matched correlation
whose coherent gain links the raw per-symbol SNR to the decimated-tick
noise level used by the channel module.  Pilot placement, payload
symbols, FEC and frame headers are out of scope.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

from dualsync import nodes
from dualsync.channel import compression_gain_db, sigma_from_snr
from dualsync.nodes import DIVERGENCE_LIMIT_RAD, Scenario, ScenarioResult
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


# the ring's tick in phasor form, the oracle of the kernel nodes._tick_loop
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


def run_reference(scn: Scenario, seed: int, *, discriminators: bool = True) -> ScenarioResult:
    """``nodes.run_scenario`` with ``reference_loop`` in the kernel's place.

    The oracle gets the kernel's clock series, noise memoryviews, phases
    and DivergenceError handling.  Raises AssertionError unless
    run_scenario called the oracle exactly once, so that a run of the
    kernel can never stand in for the oracle's.
    """
    calls = []

    def oracle(*args):
        calls.append(None)
        return reference_loop(*args)

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
