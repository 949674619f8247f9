"""Continuous-domain transfer functions, Bode responses and delay margins.

All composite transfer functions of the synchronization ring are built
from the master compensation block

    G_c(s) = -0.5*G_m(s) / (1 - 0.5*G_m(s))

and the follower tracking loop G_s(s).  With a channel H (a pure
transport delay) the ring denominator is ``1 - G_c*G_s*H**2``, so the
critical point of the open loop ``L = G_c*G_s`` is +1 (equivalently, -1
for the negative-feedback form ``-G_c*G_s``).  The delay margin computed
here reproduces the 0.23 us round-trip budget at a 1 MHz natural
frequency, which also pins the Hz -> rad/s convention used across the
package (omega = 2*pi*f).

Each function reaches numpy's polynomial module as np.polynomial.polynomial
when it runs: numpy loads that subpackage on first attribute access, so
importing this module (and with it the CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pll import LoopConfig

__all__ = [
    "RationalDelayTF",
    "closed_tf",
    "gc_tf",
    "dual_loop_tfs",
    "bode",
    "default_bode_grid",
    "delay_margin",
    "asym_error",
]


def _ratio(num, den, s, tensor=True):
    """``polyval(s, num) / polyval(s, den)`` with poles mapped to inf; with
    ``tensor=False``, column j of the coefficient arrays is evaluated at s[j]."""
    npoly = np.polynomial.polynomial
    n = npoly.polyval(s, num, tensor=tensor)
    d = npoly.polyval(s, den, tensor=tensor)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = n / d
    return np.where(d == 0, np.inf + 0j, out)


@dataclass(frozen=True)
class RationalDelayTF:
    """Rational transfer function ``num(s)/den(s)``.

    ``num`` and ``den`` are polynomial coefficients in ascending powers of
    s.  Transport delay is not part of the model; ``delay_margin`` budgets
    it.
    """

    num: tuple = (1.0,)
    den: tuple = (1.0,)

    def __post_init__(self):
        npoly = np.polynomial.polynomial
        num = tuple(npoly.polytrim(np.atleast_1d(self.num)).tolist())
        den = tuple(npoly.polytrim(np.atleast_1d(self.den)).tolist())
        if not any(den):
            raise ValueError("denominator is identically zero")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def evaluate(self, s):
        """Evaluate at complex s (scalar or array). Poles map to inf."""
        out = _ratio(self.num, self.den, np.asarray(s, dtype=complex))
        return out if out.shape else complex(out)

    def at_freq_hz(self, f_hz):
        """Evaluate at s = j*2*pi*f."""
        return self.evaluate(1j * 2.0 * np.pi * np.asarray(f_hz, dtype=float))


def closed_tf(cfg: LoopConfig) -> RationalDelayTF:
    """Continuous-domain closed-loop transfer function of one tracking loop."""
    om = cfg.omega_rad_s
    return RationalDelayTF(
        num=(om * om, 2.0 * cfg.zeta * om),
        den=(om * om, 2.0 * cfg.zeta * om, 1.0),
    )


def gc_tf(gm: RationalDelayTF) -> RationalDelayTF:
    """Compensation-block transfer function -0.5*G_m / (1 - 0.5*G_m)."""
    npoly = np.polynomial.polynomial
    half = npoly.polymul(gm.num, 0.5)
    return RationalDelayTF(num=-half, den=npoly.polysub(gm.den, half))


def dual_loop_tfs(gm: RationalDelayTF, gs: RationalDelayTF) -> dict:
    """Closed-loop transfer functions of the dual-carrier ring.

    The channel is taken as H = 1; ``delay_margin`` budgets its transport
    delay.  Returns a dict with keys ``out_from_0``, ``out_from_x``,
    ``bf_from_0`` and ``bf_from_x``.  ``bf_from_0`` is the identical
    object as ``out_from_0``; ``bf_from_x`` equals ``out_from_x + 1`` and
    reduces to ``(1 - G_s)/(1 - G_c*G_s)``.
    """
    npoly = np.polynomial.polynomial
    gc = gc_tf(gm)
    nc, dc = gc.num, gc.den
    ns, ds = gs.num, gs.den
    # ring denominator over dc*ds: dc*ds - nc*ns
    ring = npoly.polysub(npoly.polymul(dc, ds), npoly.polymul(nc, ns))
    if not ring.any():
        raise ValueError("singular model: ring denominator is identically zero")
    out_from_0 = RationalDelayTF(num=npoly.polymul(ns, dc), den=ring)
    out_from_x = RationalDelayTF(num=npoly.polymul(npoly.polysub(nc, dc), ns), den=ring)
    bf_from_x = RationalDelayTF(num=npoly.polymul(npoly.polysub(ds, ns), dc), den=ring)
    return {
        "out_from_0": out_from_0,
        "out_from_x": out_from_x,
        "bf_from_0": out_from_0,
        "bf_from_x": bf_from_x,
    }


def default_bode_grid() -> np.ndarray:
    """600 log-spaced frequencies from 1 Hz to 100 kHz."""
    return np.logspace(0.0, 5.0, 600)


def bode(tf: RationalDelayTF, freqs_hz) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Magnitude (dB) and unwrapped phase (deg) on a frequency grid, as the
    float64 arrays ``(freq_hz, mag_db, phase_deg)``."""
    f = np.asarray(freqs_hz, dtype=float)
    if np.any(f <= 0) or not np.all(np.isfinite(f)):
        raise ValueError("frequencies must be positive and finite")
    resp = tf.at_freq_hz(f)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(resp))
    phase = np.unwrap(np.angle(resp))
    return f, mag_db, np.degrees(phase)


def delay_margin(zeta_m, omega_m_hz, zeta_s, omega_s_hz):
    """Round-trip transport-delay budget of the ring, in seconds.

    The open loop is ``L = G_c*G_s`` and the ring denominator
    ``1 - L*H**2``; instability occurs when the delayed open loop reaches
    +1.  At every unity-gain crossing of ``|L|`` the margin is the phase
    distance from ``angle(L)`` down to 0 degrees (mod 360), divided by the
    crossing frequency.  The returned value is the minimum over crossings
    and budgets the full round trip (the delay lives in H**2).

    The arguments are scalars or arrays that broadcast together, one point
    per element; a scalar call returns a float, an array call an array of
    the broadcast shape.  Crossings are searched on 4000 log-spaced points
    over ``[1e-2*min(omega_m, omega_s), 1e4*max(omega_m_hz, omega_s_hz)]``
    rad/s, a band that holds both loops' crossings (its upper end, about
    1.6e3 times the faster omega, is the grid ``delay_margin.csv`` is
    pinned on), every point's grid in one (points, 4000) evaluation.  Each
    bracket is then refined by 60 bisection steps, all crossings of all
    points in lockstep on arrays.  In the bisection ``L`` is written out
    as Python's complex product, ``(ar*br - ai*bi) + (ar*bi + ai*br)j``,
    and ``|L|`` as ``hypot``: the scalar bisection this replaced multiplied
    two Python complex numbers, which numpy's complex ``a*b`` often rounds
    differently, and the margins keep its bytes.

    A point's margin is ``math.inf`` when its ``|L|`` never reaches unity.
    A natural frequency that is not positive and finite raises ValueError
    naming ``omega_n_hz``.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                 for a in (zeta_m, omega_m_hz, zeta_s, omega_s_hz)))
    points = list(zip(*(a.ravel().tolist() for a in args)))
    if not points:
        return np.empty(args[0].shape)
    grid = np.empty((len(points), 4000))
    loops = []
    for row, (zm, fm, zs, fs) in enumerate(points):
        # checked here, before the tick period below divides by them
        if not (0 < fm < math.inf and 0 < fs < math.inf):
            raise ValueError("omega_n_hz must be positive and finite")
        # tick period is irrelevant for the continuous TF; pick one small
        # enough to stay clear of the discretization warning
        t = 1e-3 / max(fm, fs)
        cfg_m = LoopConfig(zm, fm, t)
        cfg_s = LoopConfig(zs, fs, t)
        loops.append((gc_tf(closed_tf(cfg_m)), closed_tf(cfg_s)))
        w_lo = 1e-2 * min(cfg_m.omega_rad_s, cfg_s.omega_rad_s)
        w_hi = 1e4 * max(fm, fs)
        grid[row] = np.logspace(math.log10(w_lo), math.log10(w_hi), 4000)
    # each polynomial's coefficients as the columns of one (deg+1, points)
    # array, a shorter one padded with zeros
    coefs = []
    for tfs in zip(*loops):
        for polys in ([tf.num for tf in tfs], [tf.den for tf in tfs]):
            k = max(map(len, polys))
            coefs.append(np.array([p + (0.0,) * (k - len(p)) for p in polys]).T)

    def factors(w, cn, cd, sn, sd):
        """G_c and G_s at s = j*w, each element of w on its column's loops."""
        s = 1j * w
        return _ratio(cn, cd, s, tensor=False), _ratio(sn, sd, s, tensor=False)

    gc, gs = factors(grid, *(c[:, :, None] for c in coefs))
    sign = np.sign(np.abs(gc * gs) - 1.0)
    rows, cols = np.nonzero(np.diff(sign, axis=1))
    at_crossings = [c[:, rows] for c in coefs]

    def open_loop(w):
        """Real and imaginary parts of L, one element per crossing."""
        a, b = factors(w, *at_crossings)
        return a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real

    lo, hi = grid[rows, cols], grid[rows, cols + 1]
    flo = np.hypot(*open_loop(lo)) - 1.0
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        fmid = np.hypot(*open_loop(mid)) - 1.0
        keep = (fmid > 0) == (flo > 0)
        lo, flo, hi = np.where(keep, mid, lo), np.where(keep, fmid, flo), np.where(keep, hi, mid)
    wc = np.sqrt(lo * hi)
    re, im = open_loop(wc)
    best = [math.inf] * len(points)
    for row, w, x, y in zip(rows.tolist(), wc.tolist(), re.tolist(), im.tolist()):
        dist = math.atan2(y, x) % (2.0 * math.pi)  # phase distance down to 0 deg, mod 360
        best[row] = min(best[row], dist / w)
    return best[0] if args[0].ndim == 0 else np.array(best).reshape(args[0].shape)


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
