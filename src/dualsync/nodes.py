"""The ring's clocks, tick kernel, scenario runner and jump detector.

Stream layout: child 0 of ``SeedSequence(seed)`` draws the master clock,
child 1 the follower clock (``CLOCK_STREAM``, which ``cli``'s fit-noise
reads too), children 2-5 the four legs' noise.  A ring
derives each child it draws from directly, ``_stream(seed, child)``, as
``SeedSequence(seed, spawn_key=(child,))``: the entropy and spawn key of
``SeedSequence(seed).spawn(6)[child]``, so the same bits, at the cost of
one child instead of a parent and all six.  Each child seeds a PCG64
``np.random.default_rng``, whose normal draws
``oscillator.standard_normal`` makes in C (``_normal.c``), byte for byte
those of the Generator's own ``standard_normal``.  The clocks' mask fits
are memoised per process (``oscillator.fit_two_state``), so what a ring
pays for its clocks is its seeds and its draws.

Ring topology per decimated tick (latency >= 1 tick on every leg):

* the master measures the two return carriers against its own LO,
  removes the previously applied compensation from the round-trip
  estimate, tracks the result with its loop and pre-distorts both
  forward carriers by half the compensation phase:
  ``tx1 = tx2 = exp(1j*(theta_0 + alpha/2))``;
* the follower averages the two forward discriminators, tracks the
  average with its loop and returns
  ``tx3 = tx4 = exp(1j*(theta_out + theta_x))``;
* carrier j reaches the far end rotated by its propagation phase
  ``channel.prop_phase(f_j, tau_s)`` plus the Doppler phase common to
  all four carriers, with independent complex AWGN added per carrier.

The tick kernel is C: ``_tick.c`` is the package's one tick path.  It is
part of the package's one C library, which ``_native.library`` builds or
loads on the first ring, draw or CSV write of a process, and
``_tick_loop_fast`` calls it through ctypes.  Importing the package builds
and loads nothing.  The tests check the kernel bit for bit against
``tests/oracles.tick_loop``, the pure-Python kernel it was transcribed
from, and to 1e-10 rad against
``tests/oracles.reference_loop``, which computes the same tick in phasor
form; both take the kernel's arguments.  The kernel records
``theta_bf - theta_0``, ``theta_out`` and ``alpha`` on every tick.  The
four per-carrier discriminator series ``r1..r4`` are recorded only when
their buffers are given: a run called with ``discriminators=False``
passes None for all four, and the kernel then skips the work that only
those series need.  Only ``timeseries.csv`` reads them.  Where a pair's
two propagation phases have the same bits, as all four carriers' do at
the default ``tau_s = 0``, the kernel computes the pair's phasor once per
tick, and in a noiseless ring its discriminators too: the values the
oracle computes twice, with the same bits.

At a static reciprocal channel the loops lock, but each end averages two
*wrapped* carrier phases, a mean defined only modulo pi, so after the
master's divide-by-two ``theta_bf - theta_0`` settles at a multiple of
pi/2 (plus ``theta_offset/2`` for a commanded setpoint): zero only while
neither pair straddles a wrap, e.g. at short delays and small offsets.

Phase bookkeeping: ``alpha`` and ``theta_out`` accumulate unwrapped;
wrapping happens only at the discriminators.  The per-carrier ``angle``
measurements at the master are wrapped per tick; with
``wrap_compensation`` enabled they are unwrapped across ticks, otherwise
sustained drift makes them hop 2*pi and the divide-by-two stages turn
those hops into the 90-degree ambiguity jumps this loop family is known
for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .channel import CarrierPlan, compression_gain_db, prop_phase, sigma_from_snr
from .oscillator import (
    DEFAULT_FOLLOWER_MASK,
    DEFAULT_MASTER_MASK,
    NoiseMask,
    fit_two_state,
    standard_normal,
    synthesize_phase,
)
from .pll import LoopConfig

TWO_PI = 2.0 * math.pi
DIVERGENCE_LIMIT_RAD = 1e6
# the child stream of each side's clock, in the module docstring's layout
CLOCK_STREAM = {"master": 0, "follower": 1}


class DivergenceError(RuntimeError):
    """A loop phase exceeded the divergence guard or became NaN."""

    def __init__(self, tick: int):
        super().__init__(f"scenario diverged at tick {tick} (phase beyond "
                         f"{DIVERGENCE_LIMIT_RAD:g} rad or NaN)")
        self.tick = tick

    def __reduce__(self):
        # RuntimeError's default would call __init__ with the whole message
        return DivergenceError, (self.tick,)


@dataclass(frozen=True)
class Scenario:
    """Physical description of one simulation run (rates, loops, channel).

    Construction refuses a scenario that no run can use: a ValueError
    joins every message of ``problems``.
    """

    duration_s: float = 10.0
    baud_hz: float = 8e6
    decimation: int = 956
    zeta_m: float = 1.0
    omega_m_hz: float = 100.0
    zeta_s: float = 1.0
    omega_s_hz: float = 100.0
    theta_offset: float = 0.0
    master_mask: NoiseMask = DEFAULT_MASTER_MASK
    follower_mask: NoiseMask = DEFAULT_FOLLOWER_MASK
    ideal_clocks: bool = False
    initial_follower_phase_rad: float = 0.0
    follower_freq_offset_hz: float = 0.0
    plan: CarrierPlan = field(default_factory=CarrierPlan)
    tau_s: float = 0.0
    doppler_hz: float = 0.0
    snr_db: float = math.inf
    pilot_len: int = 32
    loop_latency_ticks: int = 1
    dual_carrier: bool = True
    wrap_compensation: bool = True

    def __post_init__(self):
        problems = Scenario.problems(vars(self))
        if problems:
            raise ValueError("; ".join(problems))

    @staticmethod
    def problems(fields) -> list[str]:
        """Every problem of a scenario with these field values (a mapping
        such as ``vars(scenario)``), each message starting with its field;
        empty for a runnable scenario.  The masks and the carrier plan check
        themselves, and ``config`` reports these messages under its keys.
        """
        out: list[str] = []

        def check(ok: bool, name: str, message: str):
            if not ok:
                out.append(f"{name} {message}")

        for name in ("zeta_m", "zeta_s", "omega_m_hz", "omega_s_hz", "duration_s", "baud_hz"):
            check(math.isfinite(fields[name]) and fields[name] > 0, name,
                  "must be positive and finite")
        for name in ("theta_offset", "initial_follower_phase_rad",
                     "follower_freq_offset_hz", "doppler_hz"):
            check(math.isfinite(fields[name]), name, "must be finite")
        tau, snr = fields["tau_s"], fields["snr_db"]
        check(math.isfinite(tau) and tau >= 0, "tau_s", "must be nonnegative and finite")
        check(math.isfinite(snr) or snr == math.inf, "snr_db", "must be finite or +inf")

        def integer(name: str) -> bool:
            # Python or numpy integers; a bool is no count
            value = fields[name]
            ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            check(ok, name, f"must be an integer, not {value!r}")
            return ok

        if integer("loop_latency_ticks"):
            check(fields["loop_latency_ticks"] >= 1, "loop_latency_ticks", "must be >= 1")
        pilots = integer("pilot_len")
        if pilots:
            check(fields["pilot_len"] in (1, 2, 4, 8, 16, 32), "pilot_len",
                  "must be a power of two in 1..32")
        # one pilot per tick, and it must fit in the tick
        if integer("decimation") and pilots:
            check(fields["decimation"] > fields["pilot_len"], "decimation",
                  "must exceed pilot_len")
        if not {"duration_s", "baud_hz", "pilot_len", "decimation"} & {p.split()[0] for p in out}:
            ticks = fields["duration_s"] * (fields["baud_hz"] / fields["decimation"])
            check(math.isfinite(ticks) and round(ticks) >= 1, "duration_s",
                  "must span at least one tick (decimation/baud_hz) and finitely many")
        return out

    @property
    def tick_rate_hz(self) -> float:
        return self.baud_hz / self.decimation

    @property
    def tick_period_s(self) -> float:
        return self.decimation / self.baud_hz

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration_s * self.tick_rate_hz))

    @property
    def noise_sigma(self) -> float:
        return sigma_from_snr(self.snr_db, compression_gain_db(self.pilot_len))

    def loop_config_master(self) -> LoopConfig:
        return LoopConfig(self.zeta_m, self.omega_m_hz, self.tick_period_s)

    def loop_config_follower(self) -> LoopConfig:
        return LoopConfig(self.zeta_s, self.omega_s_hz, self.tick_period_s)

    def prop_phases(self) -> tuple[float, float, float, float]:
        """Propagation phase of each carrier (fwd lo, fwd hi, ret lo, ret hi)."""
        return tuple(prop_phase(f, self.tau_s) for f in self.plan.carriers_hz)


@dataclass(frozen=True)
class ScenarioResult:
    """Decimated-rate time series of one run, reproducible from (scenario, seed)."""

    tick_rate_hz: float
    seed: int
    theta_bf_minus_theta0: np.ndarray
    theta_out: np.ndarray
    alpha: np.ndarray
    # None when run without discriminators
    r1: np.ndarray | None
    r2: np.ndarray | None
    r3: np.ndarray | None
    r4: np.ndarray | None

    @property
    def n_ticks(self) -> int:
        return self.theta_bf_minus_theta0.size

    @property
    def t_s(self) -> np.ndarray:
        return np.arange(self.n_ticks) / self.tick_rate_hz


def _stream(seed: int, child: int) -> np.random.SeedSequence:
    """Child ``child`` of the seed in the module docstring's layout: the
    entropy and spawn key of ``SeedSequence(seed).spawn(6)[child]``, so the
    same bits, without building the parent or the other five children."""
    return np.random.SeedSequence(seed, spawn_key=(child,))


def _clock_series(scn: Scenario, seed: int, side: str, n: int) -> np.ndarray:
    """RF-scaled phase series of the ``side`` ("master" or "follower")
    oscillator at the decimated tick rate, drawn from the side's stream.

    Parameters are fitted at the baud rate and rescaled to the decimated
    rate, mirroring full-rate synthesis followed by plain decimation.
    """
    if scn.ideal_clocks:
        return np.zeros(n)
    mask = getattr(scn, f"{side}_mask")
    params = fit_two_state(mask, scn.baud_hz).rescaled(scn.decimation)
    return synthesize_phase(params, n, np.random.default_rng(_stream(seed, CLOCK_STREAM[side])),
                            scn.plan.fc_hz / mask.reference_freq_hz)


def _address(buf, n: int) -> int:
    """Address of the first of at least ``n`` contiguous float64 elements."""
    import ctypes

    view = memoryview(buf)
    if view.format != "d" or view.ndim != 1 or not view.c_contiguous or len(view) < n:
        raise ValueError(f"expected a contiguous 1-D float64 buffer of at least {n} "
                         f"elements, got format {view.format!r}, shape {view.shape}")
    return ctypes.addressof(ctypes.c_double.from_buffer(view))


def _gains(cfg: LoopConfig) -> tuple[float, float, float]:
    """Integral gain, proportional gain and half tick of one loop's
    trapezoid updates, multiplied left to right as in the byte oracle
    ``tests/oracles.tick_loop``, so the kernel gets the same bits."""
    om = cfg.omega_rad_s
    half_t = 0.5 * cfg.tick_period_s
    return half_t * om * om, 2.0 * cfg.zeta * om, half_t


def _tick_loop_fast(n, cfg_m, cfg_s, th0, thx, phi1, phi2, phi3, phi4, dopp_per_tick,
                    noise, theta_offset, latency, dual, wrap_comp,
                    bf0, out_arr, al, r1a, r2a, r3a, r4a):
    """Run ``n`` ticks of the ring in the C kernel ``_tick.c``; return the
    first diverged tick or -1.

    ``run_scenario`` calls the kernel through this name, so that tracing can
    wrap it and the tests can put an oracle in its place; the oracles take
    the same arguments.  ``cfg_m`` and ``cfg_s`` are the master's and the
    follower's ``pll.LoopConfig``.  The series are 1-D float64 buffers of at
    least ``n`` elements (ndarrays or memoryviews of them), ``noise`` is None
    for a noiseless ring or eight such rows, and ``r1a..r4a`` are either
    all buffers or all None, which skips the work only those series need.
    A tick whose clock or noise sample is NaN or inf diverges there.
    """
    import ctypes

    if n < 1 or latency < 1:
        raise ValueError(f"need n >= 1 and latency >= 1, got {n} and {latency}")
    record = r1a is not None
    rows = None
    if noise is not None:
        rows = [_address(row, n) for row in noise]
        if len(rows) != 8:
            raise ValueError(f"expected eight noise rows, got {len(rows)}")
        rows = (ctypes.c_void_p * 8)(*rows)
    lines = (ctypes.c_double * (2 * latency))()
    return _native.library().tick_loop(
        n, *_gains(cfg_m), *_gains(cfg_s), _address(th0, n), _address(thx, n),
        phi1, phi2, phi3, phi4, dopp_per_tick, rows, theta_offset, latency, dual,
        wrap_comp, DIVERGENCE_LIMIT_RAD, lines,
        _address(bf0, n), _address(out_arr, n), _address(al, n),
        *[_address(a, n) if record else None for a in (r1a, r2a, r3a, r4a)],
    )


def run_scenario(scn: Scenario, seed: int, *, discriminators: bool = True) -> ScenarioResult:
    """Simulate the ring for scn.duration_s and record the decimated series.

    Fully deterministic per (scenario, seed): each clock and each leg's
    noise draws from its own child stream of the seed (``_stream``).  With
    ``discriminators=False`` the per-carrier series are neither computed
    nor allocated and ``r1..r4`` of the result are None; the other series
    keep their bits.
    """
    n = scn.n_ticks
    th0 = _clock_series(scn, seed, "master", n)
    thx = _clock_series(scn, seed, "follower", n)
    if scn.initial_follower_phase_rad:
        thx += scn.initial_follower_phase_rad
    if scn.follower_freq_offset_hz:
        thx += TWO_PI * scn.follower_freq_offset_hz * scn.tick_period_s * np.arange(n)
    sigma = scn.noise_sigma
    noise = None
    if sigma > 0.0:
        # each leg's (2, n) draw lands in its own rows, scaled as it is drawn
        draws = np.empty((8, n))
        for leg in range(4):
            standard_normal(np.random.default_rng(_stream(seed, 2 + leg)),
                            draws[2 * leg:2 * leg + 2], sigma / math.sqrt(2.0))
        noise = [memoryview(row) for row in draws]
    phi = scn.prop_phases()
    dopp_per_tick = TWO_PI * scn.doppler_hz * scn.tick_period_s

    # the result's seven series in field order; None for r1..r4 when lean
    recorded = 7 if discriminators else 3
    out = [np.empty(n) for _ in range(recorded)] + [None] * (7 - recorded)
    # memoryviews share the arrays' memory; an oracle in the kernel's place
    # indexes them to plain floats
    bad = _tick_loop_fast(
        n, scn.loop_config_master(), scn.loop_config_follower(),
        memoryview(th0), memoryview(thx), phi[0], phi[1], phi[2], phi[3],
        dopp_per_tick, noise, scn.theta_offset, scn.loop_latency_ticks, scn.dual_carrier,
        scn.wrap_compensation, *(a if a is None else memoryview(a) for a in out),
    )
    if bad >= 0:
        raise DivergenceError(bad)
    return ScenarioResult(scn.tick_rate_hz, seed, *out)


def detect_ambiguity_jumps(series, tick_rate_hz: float) -> list[tuple[int, float]]:
    """Find divide-by-two ambiguity jumps in a phase-difference series.

    Reads the series, sampled at ``tick_rate_hz``, every 50 ms, coarse
    against the settling of 100 Hz loops (a jump takes ~10/omega_n), and
    flags steps above pi/8, snapped to the nearest nonzero multiple of
    pi/2; steps farther than pi/16 from any such multiple are discarded,
    so every magnitude is ~k*pi/2 within pi/16.  Returns (full-rate tick,
    magnitude) pairs.
    """
    quarter = math.pi / 2
    stride = max(1, int(0.05 * tick_rate_hz))
    x = np.asarray(series, dtype=float)[::stride]
    if x.size < 2:
        raise ValueError("series needs at least two samples 50 ms apart")
    diffs = np.diff(x)
    hits = []
    for idx in np.nonzero(np.abs(diffs) > math.pi / 8)[0]:
        d = diffs[idx]
        k = round(d / quarter)
        if k != 0 and abs(d - k * quarter) <= math.pi / 16:
            hits.append((int(idx + 1) * stride, float(k * quarter)))
    return hits
