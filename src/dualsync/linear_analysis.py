"""Continuous-domain transfer functions, Bode responses and delay margins.

All composite transfer functions of the synchronization ring are built
from the master compensation block

    G_c(s) = -0.5*G_m(s) / (1 - 0.5*G_m(s))

and the follower tracking loop G_s(s).  The ring denominator is
``1 - G_c*G_s*H**2``, so the critical point of the open loop
``L = G_c*G_s`` is +1 (equivalently, -1 for the negative-feedback form
``-G_c*G_s``).  The delay margin computed here reproduces the 0.23 us
round-trip budget at a 1 MHz natural frequency, which also pins the
Hz -> rad/s convention used across the package (omega = 2*pi*f).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

SPEED_OF_LIGHT = 299_792_458.0

__all__ = [
    "RationalDelayTF",
    "single_loop_tfs",
    "gc_tf",
    "dual_loop_tfs",
    "bode",
    "default_bode_grid",
    "delay_margin",
    "delay_margin_grid",
    "margin_to_one_way_distance_m",
    "doppler_offset",
    "asym_error",
]


@dataclass(frozen=True)
class RationalDelayTF:
    """Rational transfer function in s with an optional pure delay.

    ``num`` and ``den`` are polynomial coefficients in ascending powers of
    s; the response is ``num(s)/den(s) * exp(-s*delay_s)``.
    """

    num: tuple = (1.0,)
    den: tuple = (1.0,)
    delay_s: float = 0.0

    def __post_init__(self):
        num = tuple(float(c) for c in np.atleast_1d(self.num))
        den = _trim(tuple(float(c) for c in np.atleast_1d(self.den)))
        if not any(c != 0.0 for c in den):
            raise ValueError("denominator is identically zero")
        object.__setattr__(self, "num", _trim(num))
        object.__setattr__(self, "den", den)

    def evaluate(self, s):
        """Evaluate at complex s (scalar or array). Poles map to inf."""
        s = np.asarray(s, dtype=complex)
        n = npoly.polyval(s, self.num)
        d = npoly.polyval(s, self.den)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = n / d
        out = np.where(d == 0, np.inf + 0j, out)
        if self.delay_s:
            out = out * np.exp(-s * self.delay_s)
        return out if out.shape else complex(out)

    def at_freq_hz(self, f_hz):
        """Evaluate at s = j*2*pi*f."""
        return self.evaluate(1j * 2.0 * np.pi * np.asarray(f_hz, dtype=float))


def _trim(coeffs) -> tuple:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


def _mul(a: tuple, b: tuple) -> tuple:
    return tuple(npoly.polymul(a, b))


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(npoly.polyadd(a, b))


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(npoly.polysub(a, b))


def _scale(a: tuple, c: float) -> tuple:
    return tuple(c * x for x in a)


def _require_delay_free(*tfs: RationalDelayTF) -> None:
    # Composite ring TFs with a delayed channel are not expressible as a
    # rational function times a single delay; delays are handled by
    # delay_margin instead (the Bode-plot formulas assume negligible delay).
    for tf in tfs:
        if tf.delay_s != 0.0:
            raise ValueError(
                "composite transfer functions require delay-free blocks; "
                "use delay_margin for transport-delay analysis"
            )


def single_loop_tfs(gm: RationalDelayTF, gs: RationalDelayTF, h: RationalDelayTF) -> dict:
    """Six transfer functions of the single-frequency full-duplex loop.

    Returns {"F01", "Fx1", "Fm1", "F02", "Fx2", "Fm2"} sharing the common
    denominator ``G_m*(1 - 2*H**2*G_s) - 2``.
    """
    _require_delay_free(gm, gs, h)
    nm, dm = gm.num, gm.den
    ns, ds = gs.num, gs.den
    nh, dh = h.num, h.den
    dh2 = _mul(dh, dh)
    nh2 = _mul(nh, nh)
    dsdh2 = _mul(ds, dh2)
    # common denominator over dm*ds*dh2:
    #   nm*(ds*dh2 - 2*nh2*ns) - 2*dm*ds*dh2
    den_core = _sub(
        _mul(nm, _sub(dsdh2, _scale(_mul(nh2, ns), 2.0))),
        _scale(_mul(dm, dsdh2), 2.0),
    )
    if not any(c != 0.0 for c in den_core):
        raise ValueError("singular model: common denominator is identically zero")

    def build(num_core: tuple, extra_den: tuple = (1.0,)) -> RationalDelayTF:
        return RationalDelayTF(num=num_core, den=_mul(den_core, extra_den))

    one_plus_gs = _add(ds, ns)          # (1 + G_s) numerator over ds
    two_plus_gm = _add(_scale(dm, 2.0), nm)  # (2 + G_m) numerator over dm
    nhdh = _mul(nh, dh)
    return {
        "F01": build(_mul(nm, dsdh2)),
        "Fx1": build(_scale(_mul(_mul(nm, nhdh), one_plus_gs), 2.0)),
        "Fm1": build(_mul(_mul(nm, two_plus_gm), dsdh2), extra_den=dm),
        "F02": build(_mul(_sub(_scale(nm, 3.0), _scale(dm, 2.0)), _mul(nhdh, ns))),
        "Fx2": build(_mul(_sub(nm, _scale(dm, 2.0)), _mul(one_plus_gs, dh2))),
        "Fm2": build(_mul(_mul(nm, nhdh), _mul(ns, two_plus_gm)), extra_den=dm),
    }


def gc_tf(gm: RationalDelayTF) -> RationalDelayTF:
    """Compensation-block transfer function -0.5*G_m / (1 - 0.5*G_m)."""
    _require_delay_free(gm)
    num = _scale(gm.num, -0.5)
    den = _sub(gm.den, _scale(gm.num, 0.5))
    return RationalDelayTF(num=num, den=den)


def dual_loop_tfs(gm: RationalDelayTF, gs: RationalDelayTF, h: RationalDelayTF) -> dict:
    """Closed-loop transfer functions of the dual-carrier ring.

    Returns a dict with keys ``out_from_0``, ``out_from_x``, ``bf_from_0``
    and ``bf_from_x``.  ``bf_from_0`` is the identical object as
    ``out_from_0``; ``bf_from_x`` equals ``out_from_x + 1`` and reduces to
    ``(1 - G_s)/(1 - G_c*G_s*H**2)``.
    """
    _require_delay_free(gm, gs, h)
    gc = gc_tf(gm)
    nc, dc = gc.num, gc.den
    ns, ds = gs.num, gs.den
    nh, dh = h.num, h.den
    nh2, dh2 = _mul(nh, nh), _mul(dh, dh)
    # ring denominator over dc*ds*dh2: dc*ds*dh2 - nc*ns*nh2
    ring = _sub(_mul(dc, _mul(ds, dh2)), _mul(nc, _mul(ns, nh2)))
    if not any(c != 0.0 for c in ring):
        raise ValueError("singular model: ring denominator is identically zero")
    out_from_0 = RationalDelayTF(
        num=_mul(_mul(nh, dh), _mul(ns, dc)),
        den=ring,
    )
    out_from_x = RationalDelayTF(
        num=_mul(_sub(_mul(nh2, nc), _mul(dh2, dc)), ns),
        den=ring,
    )
    bf_from_x = RationalDelayTF(
        num=_mul(_sub(ds, ns), _mul(dc, dh2)),
        den=ring,
    )
    return {
        "out_from_0": out_from_0,
        "out_from_x": out_from_x,
        "bf_from_0": out_from_0,
        "bf_from_x": bf_from_x,
    }


def default_bode_grid(f_lo_hz: float = 1.0, f_hi_hz: float = 1e5, points: int = 600) -> np.ndarray:
    return np.logspace(math.log10(f_lo_hz), math.log10(f_hi_hz), points)


def bode(tf: RationalDelayTF, freqs_hz) -> list[tuple[float, float, float]]:
    """Magnitude (dB) and unwrapped phase (deg) on a frequency grid."""
    f = np.asarray(freqs_hz, dtype=float)
    if np.any(f <= 0) or not np.all(np.isfinite(f)):
        raise ValueError("frequencies must be positive and finite")
    resp = tf.at_freq_hz(f)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(resp))
    phase = np.unwrap(np.angle(resp))
    return list(zip(f.tolist(), mag_db.tolist(), np.degrees(phase).tolist()))


def _open_loop(zeta_m, omega_m_hz, zeta_s, omega_s_hz, omega_units):
    from .pll import LoopConfig, closed_tf  # deferred: pll imports this module

    # tick period is irrelevant for the continuous TF; pick one small
    # enough to stay clear of the discretization warning
    t = 1e-3 / max(omega_m_hz, omega_s_hz)
    gm = closed_tf(LoopConfig(zeta_m, omega_m_hz, t, omega_units))
    gs = closed_tf(LoopConfig(zeta_s, omega_s_hz, t, omega_units))
    gc = gc_tf(gm)

    def L(w):
        s = 1j * np.asarray(w, dtype=float)
        return gc.evaluate(s) * gs.evaluate(s)

    return L


def delay_margin(
    zeta_m: float,
    omega_m_hz: float,
    zeta_s: float,
    omega_s_hz: float,
    omega_units: str = "hz_times_2pi",
) -> float:
    """Round-trip transport-delay budget of the ring, in seconds.

    The open loop is ``L = G_c*G_s`` and the ring denominator
    ``1 - L*H**2``; instability occurs when the delayed open loop reaches
    +1.  At every unity-gain crossing of ``|L|`` the margin is the phase
    distance from ``angle(L)`` down to 0 degrees (mod 360), divided by the
    crossing frequency.  The returned value is the minimum over crossings
    and budgets the full round trip (the delay lives in H**2).

    Returns ``math.inf`` when ``|L|`` never reaches unity.
    """
    L = _open_loop(zeta_m, omega_m_hz, zeta_s, omega_s_hz, omega_units)
    w_n = omega_m_hz * (2.0 * math.pi if omega_units == "hz_times_2pi" else 1.0)
    grid = np.logspace(math.log10(w_n * 1e-2), math.log10(max(w_n, omega_s_hz * 10) * 1e3), 4000)
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


def delay_margin_grid(
    omega_hz_values,
    zeta: float = 1.0,
    omega_units: str = "hz_times_2pi",
) -> list[tuple[float, float]]:
    """Delay margin over a grid of natural frequencies (omega_m = omega_s)."""
    return [
        (float(f), delay_margin(zeta, float(f), zeta, float(f), omega_units))
        for f in omega_hz_values
    ]


def margin_to_one_way_distance_m(margin_s: float) -> float:
    """One-way node separation corresponding to a round-trip delay budget."""
    return 0.5 * margin_s * SPEED_OF_LIGHT


def doppler_offset(delta_f_hz: float, zeta_m: float, zeta_s: float,
                   omega_m: float, omega_s: float) -> float:
    """Rough Doppler figure ``4*delta_f*zeta_m*zeta_s/(omega_m*omega_s)``.

    Evaluated on the values as given, with the natural frequencies passed
    as configured (Hz), the same way the loop bandwidths are quoted; the
    result is therefore in seconds, not radians.  It is not the ring's
    steady response: for a constant Doppler that response is zero, since
    ``1 + G_c`` has a double zero at s = 0 (acceptance criterion 6a).
    """
    if zeta_m <= 0 or zeta_s <= 0 or omega_m <= 0 or omega_s <= 0:
        raise ValueError("loop parameters must be positive")
    return 4.0 * delta_f_hz * zeta_m * zeta_s / (omega_m * omega_s)


def asym_error(theta_x_minus_theta_0: float, f_mo_hz: float, f_m_hz: float,
               f_c_hz: float) -> float:
    """Residual error of an asymmetric single-carrier-per-direction scheme.

    ``-(theta_x - theta_0)*(f_mo - f_m)/(2*f_c)``; zero when the return
    offset equals the forward offset, which is the rationale for the
    symmetric dual-carrier plan.
    """
    if f_c_hz <= 0:
        raise ValueError("f_c_hz must be positive")
    return -theta_x_minus_theta_0 * (f_mo_hz - f_m_hz) / (2.0 * f_c_hz)
