"""Oracles that only the tests run: symbol-level pilot reception and the
one-tick clock model.

The simulator never runs either.  Its AWGN is drawn per decimated tick at
``channel.sigma_from_snr(snr, compression_gain_db(pilot_len))``, and its
clocks come from ``oscillator.synthesize_phase``.  The pilot oracle
(Walsh-Hadamard codes, matched correlation, symbol-level reception)
checks that shortcut in criterion 5c and tests/test_framing.py; the clock
oracle (``TwoStateClock``, ``clock_step``) checks the vectorised synthesis
in tests/test_oscillator.py.

Pilot machinery: orthogonal +-1 code sequences and matched correlation
whose coherent gain links the raw per-symbol SNR to the decimated-tick
noise level used by the channel module.  Pilot placement, payload
symbols, FEC and frame headers are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from dualsync.channel import compression_gain_db, sigma_from_snr
from dualsync.oscillator import TwoStateParams


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
