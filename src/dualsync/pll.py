"""Second-order tracking loop: discriminator and loop controller.

The loop controller is ``Y(s) = (2*zeta*omega + omega**2/s)/s``; both
integrators are discretized with the trapezoidal rule
``1/s -> (T/2)*(z+1)/(z-1)``.  The controller emits the per-tick phase
increment; the caller's output-phase accumulator (``alpha`` at the
master, ``theta_out`` at the follower, see ``nodes``) realizes the outer
integrator, and the closed loop is the classic unity-feedback
second-order response (``linear_analysis.closed_tf``)

    G(s) = (2*zeta*omega*s + omega**2) / (s**2 + 2*zeta*omega*s + omega**2)

with omega = 2*pi*f for a natural frequency f configured in Hz, the one
convention of the package (``LoopConfig.omega_rad_s``).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

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
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.omega_n_hz <= 0:
            raise ValueError("omega_n_hz must be positive")
        if self.tick_period_s <= 0:
            raise ValueError("tick_period_s must be positive")
        if self.omega_rad_s * self.tick_period_s > 0.1:
            warnings.warn(
                "omega_n * tick_period > 0.1; the discrete loop will deviate "
                "from the continuous-domain response",
                stacklevel=2,
            )

    @property
    def omega_rad_s(self) -> float:
        return TWO_PI * self.omega_n_hz


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

