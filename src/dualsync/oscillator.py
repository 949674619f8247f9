"""Two-state oscillator phase-noise synthesis from dBc/Hz masks.

The clock model is white phase noise plus a single-integrated (phase
walk) and a double-integrated (frequency walk) white noise.  Per tick:

    freq_state += sigma2 * g2
    phase      += freq_state + sigma1 * g1
    sample      = phase + sigma0 * g0        (white term not accumulated)

Mask levels are interpreted as L(f) in dBc/Hz, i.e. half the one-sided
phase PSD; the spectral module reports the same convention.  For a
synthesis rate fs the low-frequency accumulator responses give

    L(f) = a0 + a2/f**2 + a4/f**4        (linear power units)
    sigma0**2 = a0 * fs
    sigma1**2 = 4*pi**2 * a2 / fs
    sigma2**2 = 16*pi**4 * a4 / fs**3

The (a0, a2, a4) coefficients are fitted to the mask points by
nonnegative least squares in linear power units, each point weighted by
its own power so the fit works in relative (dB) error across the many
decades a mask spans.  The mapping is validated against the averaged
periodogram of the spectral module (see the test suite).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import _native

# largest miss, in dB, that fit_two_state allows at any mask point
MASK_FIT_TOL_DB = 3.0
# (mask, tick rate) fits that fit_two_state keeps per process
FIT_MEMO_SIZE = 64


class MaskFitError(ValueError):
    """Raised when no nonnegative power-law combination fits the mask."""

    def __init__(self, message: str, worst_offset_hz: float, worst_error_db: float):
        super().__init__(message)
        self.worst_offset_hz = worst_offset_hz
        self.worst_error_db = worst_error_db


@dataclass(frozen=True)
class NoiseMask:
    """Phase-noise mask: (offset_hz, level_dbc_hz) points at a reference carrier."""

    reference_freq_hz: float
    points: tuple

    def __post_init__(self):
        pts = tuple((float(f), float(lv)) for f, lv in self.points)
        if not pts:
            raise ValueError("points must hold at least one (offset_hz, level_dbc) pair")
        offs = [p[0] for p in pts]
        if not (all(math.isfinite(f) and f > 0 for f in offs)
                and all(b > a for a, b in zip(offs, offs[1:]))):
            raise ValueError("points' offsets must be positive, finite and strictly increasing")
        if not all(math.isfinite(p[1]) for p in pts):
            raise ValueError("points' levels must be finite")
        # the fit's linear powers, computed as _fit computes them
        power = 10.0 ** (np.array([p[1] for p in pts], dtype=float) / 10.0)
        if not power.all():
            f, level = pts[int(np.argmin(power))]
            raise ValueError(f"points' level {level:g} dBc/Hz at {f:g} Hz underflows to a "
                             f"linear power of 0")
        if not (math.isfinite(self.reference_freq_hz) and self.reference_freq_hz > 0):
            raise ValueError("reference_freq_hz must be positive and finite")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class TwoStateParams:
    """Per-tick noise intensities of the two-state clock model."""

    sigma0: float   # white phase noise std per tick, rad
    sigma1: float   # phase-walk driving noise std per tick, rad
    sigma2: float   # frequency-walk driving noise std per tick, rad/tick
    tick_rate_hz: float

    def __post_init__(self):
        for name in ("sigma0", "sigma1", "sigma2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be nonnegative and finite")
        if not (math.isfinite(self.tick_rate_hz) and self.tick_rate_hz > 0):
            raise ValueError("tick_rate_hz must be positive and finite")

    def rescaled(self, decimation: int) -> "TwoStateParams":
        """Equivalent parameters at the rate tick_rate/decimation.

        Accumulator intensities scale so the low-frequency PSD is
        unchanged; sigma0 is kept as-is, which reproduces the noise-floor
        fold-up that plain decimation of the full-rate process produces.
        """
        if decimation < 1:
            raise ValueError("decimation must be >= 1")
        d = float(decimation)
        return TwoStateParams(
            sigma0=self.sigma0,
            sigma1=self.sigma1 * math.sqrt(d),
            sigma2=self.sigma2 * d**1.5,
            tick_rate_hz=self.tick_rate_hz / d,
        )


def fit_two_state(mask: NoiseMask, tick_rate_hz: float) -> TwoStateParams:
    """Fit per-tick sigmas so the synthesized PSD passes through the mask.

    Nonnegative least squares on the mask points in linear power units,
    row-weighted by each point's power; coefficients whose contribution is
    below 1e-6 of the model everywhere are snapped to zero.  Raises
    MaskFitError when the best fit misses any point by more than
    MASK_FIT_TOL_DB, and ValueError for a tick rate that is not positive
    and finite.  The fit is memoised per process on (mask, tick rate), up
    to FIT_MEMO_SIZE of them, so a sweep fits each mask once; the result is
    frozen, and a MaskFitError is raised again on every call.
    """
    if not (math.isfinite(tick_rate_hz) and tick_rate_hz > 0):
        raise ValueError("tick_rate_hz must be positive and finite")
    return _fit(mask, float(tick_rate_hz))


# the lines of scipy.optimize.nnls (scipy/optimize/_nnls.py, as of scipy
# 1.17) whose preprocessing, call and error _nnls repeats around the compiled
# solver; a scipy whose wrapper lacks any of them is solved through the wrapper
_NNLS_WRAPPER_LINES = (
    "from ._slsqplib import nnls as _nnls",
    "A = np.asarray_chkfinite(A, dtype=np.float64, order='C')",
    "b = np.asarray_chkfinite(b, dtype=np.float64)",
    "maxiter = 3*n",
    "x, rnorm, info = _nnls(A, b, maxiter)",
    "if info == 3:",
)
_NNLS_MODULE = "scipy.optimize._slsqplib"


def _load_nnls(scipy_dir: str):
    """Return the compiled ``nnls(A, b, maxiter) -> (x, rnorm, info)`` of the
    scipy package in ``scipy_dir``, loaded from ``optimize/_slsqplib*.so``
    without importing ``scipy.optimize``, or None when that wrapper does
    not call it as ``_NNLS_WRAPPER_LINES`` say or it cannot be loaded.

    The module is loaded under its own name, so a later ``import
    scipy.optimize`` finds it in ``sys.modules`` and uses it as it is.
    """
    optimize = os.path.join(scipy_dir, "optimize")
    try:
        with open(os.path.join(optimize, "_nnls.py"), encoding="utf-8") as fh:
            wrapper = {line.strip() for line in fh}
    except OSError:
        return None
    paths = [os.path.join(optimize, "_slsqplib" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((path for path in paths if os.path.isfile(path)), None)
    if path is None or not wrapper.issuperset(_NNLS_WRAPPER_LINES):
        return None
    module = sys.modules.get(_NNLS_MODULE)
    if module is None:
        loader = importlib.machinery.ExtensionFileLoader(_NNLS_MODULE, path)
        try:
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_NNLS_MODULE, path, loader=loader))
            loader.exec_module(module)
        except ImportError:
            return None
    return getattr(module, "nnls", None)


@_native.cache_once
def _nnls_extension():
    """``_load_nnls`` of the installed scipy, once per process, threads
    calling at once included; None without a scipy that it can load."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return _load_nnls(spec.submodule_search_locations[0])


def _nnls(A, b):
    """``scipy.optimize.nnls(A, b)``: its ``(x, rnorm)``, bits and errors.

    Where ``_nnls_extension`` loads the compiled solver, the wrapper's own
    preprocessing, iteration limit and error are repeated around it here, so
    ``scipy.optimize`` (about 40 MB and 0.3 s of a cold process) is never
    imported; elsewhere the public function is imported and called.  A
    non-finite entry raises ValueError before the solver sees it.
    """
    solve = _nnls_extension()
    if solve is None:
        from scipy.optimize import nnls
        return nnls(A, b)
    A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64)
    x, rnorm, info = solve(A, b, 3 * A.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


@functools.lru_cache(maxsize=FIT_MEMO_SIZE)
def _fit(mask: NoiseMask, fs: float) -> TwoStateParams:
    # _nnls loads scipy's compiled solver on the first fit; bode,
    # delay-margin and ideal-clock runs never fit a mask, so never load it
    f = np.array([p[0] for p in mask.points], dtype=float)
    power = 10.0 ** (np.array([p[1] for p in mask.points], dtype=float) / 10.0)
    basis = np.column_stack([np.ones_like(f), f**-2.0, f**-4.0])
    a, _ = _nnls(basis / power[:, None], np.ones_like(power))
    model = basis @ a
    contrib = basis * a
    for j in range(3):
        if np.all(contrib[:, j] <= 1e-6 * model):
            a[j] = 0.0
    model = basis @ a
    err_db = 10.0 * np.log10(model / power)
    worst = int(np.argmax(np.abs(err_db)))
    if abs(err_db[worst]) > MASK_FIT_TOL_DB:
        raise MaskFitError(
            f"mask not representable by a0 + a2/f^2 + a4/f^4: worst point "
            f"{f[worst]:g} Hz off by {err_db[worst]:+.2f} dB",
            worst_offset_hz=float(f[worst]),
            worst_error_db=float(err_db[worst]),
        )
    return TwoStateParams(
        sigma0=math.sqrt(a[0] * fs),
        sigma1=math.sqrt(4.0 * math.pi**2 * a[1] / fs),
        sigma2=math.sqrt(16.0 * math.pi**4 * a[2] / fs**3),
        tick_rate_hz=fs,
    )


def model_psd_dbc_hz(params: TwoStateParams, freqs_hz) -> np.ndarray:
    """Analytic L(f) of the fitted model, for verification output."""
    f = np.asarray(freqs_hz, dtype=float)
    fs = params.tick_rate_hz
    a0 = params.sigma0**2 / fs
    a2 = params.sigma1**2 * fs / (4.0 * math.pi**2)
    a4 = params.sigma2**2 * fs**3 / (16.0 * math.pi**4)
    return 10.0 * np.log10(a0 + a2 / f**2 + a4 / f**4)


def _advance(rng: np.random.Generator, caller: str, function: str, *args) -> None:
    """Call the C function ``function`` of ``_native`` on the PCG64 state of
    ``rng`` and ``args``, and write the state it advanced back into ``rng``.

    The state goes in as four 64-bit words, {state_hi, state_lo, inc_hi,
    inc_lo}, and comes back through the bit generator's public ``state``
    dict, under its lock.  Raises TypeError, naming ``caller``, if ``rng``
    is not a Generator on a PCG64 bit generator (there is no fallback to
    numpy); ``rng`` is then left as it was.
    """
    import ctypes

    bits = rng.bit_generator if isinstance(rng, np.random.Generator) else None
    if type(bits) is not np.random.PCG64:
        raise TypeError(f"{caller} draws from a Generator on a PCG64 bit "
                        f"generator, got {rng!r}")
    call = getattr(_native.library(), function)
    mask = (1 << 64) - 1
    with bits.lock:
        state = bits.state
        pcg = state["state"]
        words = (ctypes.c_uint64 * 4)(pcg["state"] >> 64, pcg["state"] & mask,
                                      pcg["inc"] >> 64, pcg["inc"] & mask)
        call(words, *args)
        pcg["state"] = words[0] << 64 | words[1]
        bits.state = state


def standard_normal(rng: np.random.Generator, out: np.ndarray,
                    scale: float = 1.0) -> np.ndarray:
    """Fill ``out`` with the draws of ``rng.standard_normal(out=out)``, each
    times ``scale``, and advance ``rng`` past them, as that call does;
    return ``out``.

    The draws are made by the C transcription ``_normal.c`` of numpy's
    ziggurat for a PCG64 bit generator, byte for byte numpy's, about three
    times as fast, and each is multiplied by ``scale`` as it is written:
    the IEEE multiply of numpy's ``out *= scale``, without a second pass.
    Raises ValueError unless ``out`` is a writeable C-contiguous float64
    array and TypeError if ``rng`` is not a Generator on a PCG64 bit
    generator (see ``_advance``).
    """
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be a writeable C-contiguous float64 array")
    _advance(rng, "standard_normal", "normal_fill", out.size, scale, out.ctypes.data)
    return out


def synthesize_phase(params: TwoStateParams, n: int, rng: np.random.Generator,
                     scale: float = 1.0) -> np.ndarray:
    """Synthesis of n emitted phase samples from a zeroed clock, times scale.

    Identical sample-for-sample to running the per-tick recursion of the
    module docstring on the columns of rng.standard_normal((3, n)), and
    byte for byte to the one-shot formula

        g = rng.standard_normal((3, n))
        freq = np.cumsum(sigma2 * g[2])
        phase = np.cumsum(freq + sigma1 * g[1])
        return (phase + sigma0 * g[0]) * scale

    while holding 2n floats instead of six full-length arrays.  One C pass,
    ``synth_phase`` in ``_normal.c``, draws g0 into the output and g1 into
    a scratch buffer, as the (3, n) draw fills them from the stream, then
    draws g2 one value at a time and runs both sums with it, each IEEE
    operation the formula's in its order.  ``rng`` must be a Generator on a
    PCG64 bit generator (TypeError otherwise, see ``_advance``); a negative
    n raises ValueError.
    """
    if n < 0:
        raise ValueError(f"cannot synthesize {n} samples")
    out, phase = np.empty(n), np.empty(n)
    _advance(rng, "synthesize_phase", "synth_phase", out.size, params.sigma0,
             params.sigma1, params.sigma2, scale, out.ctypes.data, phase.ctypes.data)
    return out


# default masks: a low-noise chip-scale atomic clock class reference for
# the master and a commercial-grade OCXO class reference for the follower,
# both specified at a 10 MHz carrier
DEFAULT_MASTER_MASK = NoiseMask(10e6, ((1.0, -85.0), (10.0, -125.0), (10e3, -160.0)))
DEFAULT_FOLLOWER_MASK = NoiseMask(10e6, ((1.0, -70.0), (10.0, -100.0), (10e3, -140.0)))
