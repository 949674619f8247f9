"""Carrier plan, propagation phase and SNR-to-noise calibration.

Each of the four directed carriers sees a static propagation phase (the
transport delay wrapped at its carrier frequency) and complex white
noise whose std follows from the raw per-symbol SNR plus the pilot
compression gain; all four share that std (equal transmit power per
carrier).  The ring in ``nodes`` applies both, together with a Doppler
rotation common to all four carriers (carrier offsets are a few percent
of f_c, so differential Doppler is negligible at the scales simulated
here).  Transport delay beyond the static rotation is modeled as an
integer number of whole ticks of loop latency; at the decimated tick
rate one tick is ~120 us, far above any delay of interest, so
fractional-tick delay dynamics are left to the linear-analysis module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pll import wrap_phase

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CarrierPlan:
    """Symmetric frequency plan around the application central frequency.

    Forward carriers sit at f_c -+ f_m, return carriers at f_c -+ f_s;
    both pairs share the midpoint f_c, which is what makes round-trip
    reciprocity usable for one-way compensation.
    """

    fc_hz: float = 2200e6
    fm_hz: float = 50e6
    fs_hz: float = 40e6

    def __post_init__(self):
        if not (0 < self.fs_hz < self.fm_hz < self.fc_hz):
            raise ValueError("carrier plan requires 0 < fs < fm < fc")

    @property
    def forward_hz(self) -> tuple[float, float]:
        return (self.fc_hz - self.fm_hz, self.fc_hz + self.fm_hz)

    @property
    def return_hz(self) -> tuple[float, float]:
        return (self.fc_hz - self.fs_hz, self.fc_hz + self.fs_hz)

    @property
    def carriers_hz(self) -> tuple[float, float, float, float]:
        return self.forward_hz + self.return_hz


def prop_phase(f_hz: float, tau_s: float) -> float:
    """Propagation phase -2*pi*f*tau, wrapped by ``pll.wrap_phase``."""
    if f_hz <= 0:
        raise ValueError("carrier frequency must be positive")
    if tau_s < 0:
        raise ValueError("delay must be nonnegative")
    return wrap_phase(-TWO_PI * f_hz * tau_s)


def sigma_from_snr(snr_db: float, compression_gain_db: float) -> float:
    """Complex noise std per decimated tick relative to a unit carrier.

    10**(-(snr + gain)/20); an infinite SNR gives exactly zero.
    """
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    if math.isinf(snr_db):
        if snr_db > 0:
            return 0.0
        raise ValueError("snr_db must be finite or +inf")
    return 10.0 ** (-(snr_db + compression_gain_db) / 20.0)


def compression_gain_db(pilot_len: int) -> float:
    """Coherent gain of correlating over one pilot field: 10*log10(len)."""
    if pilot_len < 1:
        raise ValueError("pilot_len must be positive")
    return 10.0 * math.log10(pilot_len)
