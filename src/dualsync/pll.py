"""Second-order tracking loop: phase wrap and loop configuration.

The loop controller, which the tick kernel ``_tick.c`` runs inline, is
``Y(s) = (2*zeta*omega + omega**2/s)/s``; both integrators are
discretized with the trapezoidal rule ``1/s -> (T/2)*(z+1)/(z-1)``.  The
controller emits the per-tick phase increment; the output-phase
accumulator (``alpha`` at the master, ``theta_out`` at the follower, see
``nodes``) realizes the outer integrator, and the closed loop is the
classic unity-feedback second-order response (``linear_analysis.closed_tf``)

    G(s) = (2*zeta*omega*s + omega**2) / (s**2 + 2*zeta*omega*s + omega**2)

with omega = 2*pi*f for a natural frequency f configured in Hz, the one
convention of the package (``LoopConfig.omega_rad_s``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def wrap_phase(x: float) -> float:
    """Wrap a phase to (-pi, pi], up to rounding.

    The result is x + 2*pi*k with k = floor((pi - x)/(2*pi)), so it is
    congruent to x and lies in (-pi, pi] up to the rounding of that sum,
    which is about one ulp of x: pi + 1 ulp for the input one ulp above
    -pi, pi + 3.3e-13 for ``channel.prop_phase(2150e6, 3.3e-7)`` (x near
    -1419*pi).  It is not clamped, so every pinned series keeps its bytes.
    """
    return x + TWO_PI * math.floor((math.pi - x) / TWO_PI)


@dataclass(frozen=True)
class LoopConfig:
    """Damping factor, natural frequency and update interval of one loop.

    ``omega_n_hz`` is the natural frequency as configured, in Hz, and
    ``omega_rad_s`` the one place it becomes rad/s: omega = 2*pi*omega_n_hz,
    the reading pinned by the round-trip delay-margin anchor (0.23 us at
    1 MHz, see ``linear_analysis.delay_margin``).
    """

    zeta: float
    omega_n_hz: float
    tick_period_s: float

    def __post_init__(self):
        for name in ("zeta", "omega_n_hz", "tick_period_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")
        if self.omega_rad_s * self.tick_period_s > 0.1:
            warnings.warn(
                "omega_n * tick_period > 0.1; the discrete loop will deviate "
                "from the continuous-domain response",
                stacklevel=2,
            )

    @property
    def omega_rad_s(self) -> float:
        return TWO_PI * self.omega_n_hz
