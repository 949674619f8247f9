"""Phase-noise PSD estimation: Dolph-Chebyshev windowing and the averaged
periodogram.

Reported levels are L(f) = S_phi(f)/2 in dBc/Hz, where S_phi is the
one-sided phase PSD of the input series (radians).  White phase samples
of variance sigma**2 at rate fs therefore estimate to a flat
10*log10(sigma**2/fs).  No overlap, mean removal or detrending is
applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native

__all__ = ["PsdEstimate", "cheb_window", "psd_estimate"]

# (length, attenuation) windows that cheb_window keeps per process
WINDOW_MEMO_SIZE = 8


def cheb_window(n: int, atten_db: float) -> np.ndarray:
    """Dolph-Chebyshev window with equiripple sidelobes at -atten_db.

    Built from the closed-form Chebyshev frequency response followed by an
    inverse transform, normalized to unit peak.  The frequency samples
    span ~atten_db of dynamic range, so the main-lobe samples (magnitude
    above the ripple) are inverse-transformed by a direct cosine sum with
    integer-exact phase reduction while the ripple samples go through the
    FFT; this keeps coefficient roundoff below the design sidelobe level
    for attenuations far beyond 120 dB; numpy sums the cosines over a
    table of cos(pi*r/n).  A process keeps its WINDOW_MEMO_SIZE latest
    windows, shared and read-only, and builds each once even when threads
    ask for it at once.  A length that is no Python or numpy integer is a
    TypeError, raised before the memo, where 4096.0 would find 4096's window.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"window length must be an integer, not {n!r}")
    return _window(n, atten_db)


@_native.cache_once(maxsize=WINDOW_MEMO_SIZE)
def _window(n: int, atten_db: float) -> np.ndarray:
    if n < 16:
        raise ValueError("window length must be >= 16")
    if not 40.0 <= atten_db <= 320.0:
        raise ValueError("attenuation must lie in [40, 320] dB for double precision")
    order = n - 1
    big_a = np.arccosh(10.0 ** (atten_db / 20.0)) / order
    beta_m1 = 2.0 * np.sinh(0.5 * big_a) ** 2          # beta - 1, full relative precision
    k = np.arange(n)
    k_pole = np.minimum(k, n - k)                      # distance from nearest spectral peak
    one_m_cos = 2.0 * np.sin(np.pi * k_pole / (2.0 * n)) ** 2
    v = beta_m1 - one_m_cos - beta_m1 * one_m_cos      # beta*cos(pi*k/n) -+ 1
    neg_side = 2 * k > n
    p = np.empty(n)
    main = v > 0
    vm = v[main]
    p[main] = np.cosh(order * np.log1p(vm + np.sqrt(vm * (2.0 + vm))))
    theta = 2.0 * np.arcsin(np.sqrt(0.5 * np.maximum(-v[~main], 0.0)))
    p[~main] = np.cos(order * theta)
    # negative-frequency-side signs: cos(order*(pi - theta)) for ripple,
    # the standard parity factor for main-lobe samples
    if order % 2 == 1:
        flip = neg_side & ~main
        p[flip] = -p[flip]
    p[main & neg_side] *= float(2 * (n % 2) - 1)

    if n % 2:
        w = np.fft.fft(np.where(main, 0.0, p)).real.copy()
        half, first = (n + 1) // 2, 0
    else:
        phase = np.exp(1j * np.pi * k / n)
        w = np.fft.fft(np.where(main, 0.0 + 0.0j, p * phase)).real.copy()
        half, first = n // 2 + 1, 1
    # w[m] += p[i] * cos(pi*r/n) per main-lobe sample i (at most 24), in order,
    # and m < half; r = i*mm mod 2n is the exact phase index, mm = 2m for odd
    # n and 2m - 1 for even n
    cos_table = np.cos(np.pi * np.arange(2 * n) / n)
    mm = 2 * np.arange(half, dtype=np.int64) - (1 - n % 2)
    r, term = np.empty(half, dtype=np.int64), np.empty(half)
    for i in np.flatnonzero(main):
        np.multiply(mm, i, out=r)
        np.remainder(r, 2 * n, out=r)
        np.take(cos_table, r, out=term)
        term *= p[i]
        w[:half] += term
    w = np.concatenate((w[half - 1:0:-1], w[first:half]))
    w /= np.max(w)
    w.flags.writeable = False
    return w


cheb_window.cache_clear, cheb_window.cache_info = _window.cache_clear, _window.cache_info


@dataclass(frozen=True)
class PsdEstimate:
    """Averaged-periodogram estimate in dBc/Hz (L(f) convention)."""

    freqs_hz: np.ndarray
    levels_dbc_hz: np.ndarray


def require_samples(n: int, block_len: int, n_blocks: int) -> None:
    """Raise ValueError unless n samples fill n_blocks blocks of block_len."""
    if n < block_len * n_blocks:
        raise ValueError(f"need at least {block_len * n_blocks} samples "
                         f"({n_blocks} blocks of {block_len}), got {n}")


def psd_estimate(phase_rad, fs_hz: float, block_len: int, n_blocks: int,
                 window: np.ndarray) -> PsdEstimate:
    """Averaged periodogram over non-overlapped windowed blocks.

    ``phase_rad`` is an array, or a stream such as
    ``oscillator.PhaseStream`` whose ``read(m)`` returns its next m
    samples and whose ``len()`` counts them; a stream is read one block at
    a time, so only one block of it is held.  Needs at least
    block_len*n_blocks samples and a block_len-sample window such as
    ``cheb_window``.  The estimate is one-sided (DC bin not doubled),
    scaled by the window power and bin width, and reported as
    L(f) = S_phi/2 in dBc/Hz.
    """
    read = getattr(phase_rad, "read", None)
    x = None if read else np.asarray(phase_rad, dtype=float)
    require_samples(len(phase_rad) if read else x.size, block_len, n_blocks)
    if len(window) != block_len:
        raise ValueError("window length must equal block_len")
    u = np.sum(np.asarray(window) ** 2)
    half = block_len // 2
    acc = np.zeros(half)
    for b in range(n_blocks):
        block = read(block_len) if read else x[b * block_len:(b + 1) * block_len]
        spec = np.fft.rfft(block * window)[:half]
        acc += np.abs(spec) ** 2
    s_phi = acc / (n_blocks * u * fs_hz)
    s_phi[1:] *= 2.0
    with np.errstate(divide="ignore"):
        levels = 10.0 * np.log10(0.5 * s_phi)
    freqs = np.arange(half) * (fs_hz / block_len)
    return PsdEstimate(freqs_hz=freqs, levels_dbc_hz=levels)
