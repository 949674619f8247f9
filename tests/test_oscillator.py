import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsync import oscillator
from dualsync.oscillator import (
    DEFAULT_FOLLOWER_MASK,
    DEFAULT_MASTER_MASK,
    MaskFitError,
    NoiseMask,
    TwoStateParams,
    fit_two_state,
    model_psd_dbc_hz,
    synthesize_phase,
)
from dualsync.spectral import cheb_window, psd_estimate
import oracles
from oracles import TwoStateClock, clock_step, one_shot_synthesis, psd_level_at


def mask_of(points, ref=10e6):
    return NoiseMask(ref, tuple(points))


class TestNoiseMask:
    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            mask_of([(0.0, -100.0)])
        with pytest.raises(ValueError):
            mask_of([(10.0, -100.0), (1.0, -120.0)])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            mask_of([])
        with pytest.raises(ValueError):
            mask_of([(1.0, math.inf)])

    @pytest.mark.parametrize("bad, value", [
        *[("reference_freq_hz", v) for v in (0.0, -1.0, math.nan, math.inf, -math.inf)],
        *[("offset", v) for v in (0.0, -1.0, math.nan, math.inf, -math.inf)],
        *[("level", v) for v in (math.nan, math.inf, -math.inf, -4000.0)],
        ("points", "empty"), ("points", "repeated"), (None, None),
    ])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        ref=st.floats(1.0, 1e10),
        offsets=st.lists(st.floats(1e-3, 1e7), min_size=1, max_size=5, unique=True).map(sorted),
        level=st.floats(-200.0, 0.0),
    )
    def test_refuses_a_bad_field_by_name(self, bad, value, ref, offsets, level):
        points = [(f, level) for f in offsets]
        if bad == "reference_freq_hz":
            ref = value
        elif bad == "offset":
            points[-1] = (value, level)
        elif bad == "level":
            points[0] = (offsets[0], value)
        elif value == "empty":
            points = []
        elif value == "repeated":
            points.append(points[-1])
        if bad is None:
            assert NoiseMask(ref, points).points == tuple(points)
            return
        field = "reference_freq_hz" if bad == "reference_freq_hz" else "points"
        with pytest.raises(ValueError, match=f"^{field}"):
            NoiseMask(ref, points)

    @pytest.mark.parametrize("level", [-4000.0, -3237.0, -1e300])
    def test_refuses_a_level_whose_power_underflows_naming_the_point(self, level):
        # 10**(L/10) is 0 below about -3236 dBc/Hz, which the fit cannot weight
        with pytest.raises(ValueError) as info:
            mask_of([(1.0, -85.0), (10.0, level), (100.0, -5000.0)])
        assert str(info.value) == (f"points' level {level:g} dBc/Hz at 10 Hz underflows "
                                   f"to a linear power of 0")
        assert mask_of([(1.0, -3236.0)]).points == ((1.0, -3236.0),)


class TestTwoStateParams:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sigmas=st.tuples(*[st.one_of(st.floats(0.0, 1.0),
                                     st.sampled_from([-1.0, math.nan, math.inf, -math.inf]))] * 3),
        rate=st.one_of(st.floats(1.0, 1e9),
                       st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])),
    )
    def test_refuses_the_first_negative_or_nonfinite_field(self, sigmas, rate):
        names = ("sigma0", "sigma1", "sigma2")
        bad = [f"{name} must be nonnegative" for name, s in zip(names, sigmas)
               if not (math.isfinite(s) and s >= 0)]
        if not (math.isfinite(rate) and rate > 0):
            bad.append("tick_rate_hz must be positive")
        if not bad:
            assert TwoStateParams(*sigmas, rate).sigma0 == sigmas[0]
            return
        with pytest.raises(ValueError, match=f"^{bad[0]} and finite$"):
            TwoStateParams(*sigmas, rate)


class TestFit:
    def test_flat_mask_is_pure_white(self):
        params = fit_two_state(mask_of([(1, -160), (10, -160), (10e3, -160)]), 8e6)
        assert params.sigma1 == 0.0
        assert params.sigma2 == 0.0
        # white floor: L = sigma0**2/fs = 1e-16
        assert 10 * math.log10(params.sigma0**2 / 8e6) == pytest.approx(-160.0, abs=0.01)

    @pytest.mark.parametrize("mask", [DEFAULT_MASTER_MASK, DEFAULT_FOLLOWER_MASK])
    def test_reference_masks_fit_within_tolerance(self, mask):
        params = fit_two_state(mask, 8e6)
        freqs = [p[0] for p in mask.points]
        levels = [p[1] for p in mask.points]
        model = model_psd_dbc_hz(params, freqs)
        assert np.max(np.abs(model - levels)) < 0.1

    def test_rising_mask_rejected_with_worst_point(self):
        with pytest.raises(MaskFitError) as info:
            fit_two_state(mask_of([(1, -160), (10, -85)]), 8e6)
        assert info.value.worst_offset_hz in (1.0, 10.0)
        assert abs(info.value.worst_error_db) > 3.0

    def test_mask_fit_error_is_raised_again(self, monkeypatch):
        # a failed fit is not memoised: the second call fits and fails again
        nnls, calls = oscillator._nnls, []

        def counted(*args):
            calls.append(args)
            return nnls(*args)
        monkeypatch.setattr(oscillator, "_nnls", counted)
        mask = mask_of([(1, -161), (10, -84)])
        for tries in (1, 2):
            with pytest.raises(MaskFitError, match="worst point"):
                fit_two_state(mask, 8e6)
            assert len(calls) == tries

    def test_memoises_each_mask_and_rate(self):
        mask = mask_of([(1, -87.25), (10, -127.25), (10e3, -162.25)])
        first = fit_two_state(mask, 8e6)
        assert fit_two_state(mask_of(mask.points), 8e6) is first
        # the same rate as an int and as a numpy float is the same key
        assert fit_two_state(mask, 8_000_000) is first
        assert fit_two_state(mask, np.float64(8e6)) is first
        other = fit_two_state(mask, 4e6)
        assert other is not first and other.tick_rate_hz == 4e6

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_refuses_a_bad_tick_rate_by_name(self, rate):
        lookups = oscillator._fit.cache_info()[:2]
        with pytest.raises(ValueError, match="^tick_rate_hz must be positive and finite$"):
            fit_two_state(DEFAULT_MASTER_MASK, rate)
        # checked before the memo, which is not even looked up
        assert oscillator._fit.cache_info()[:2] == lookups

    def test_rescaled_preserves_accumulator_psd(self):
        params = fit_two_state(DEFAULT_FOLLOWER_MASK, 8e6)
        dec = params.rescaled(956)
        assert dec.tick_rate_hz == pytest.approx(8e6 / 956)
        f = np.array([1.0, 10.0])
        # walk terms keep their PSD; compare with the white floor removed
        full_walks = TwoStateParams(0.0, params.sigma1, params.sigma2, params.tick_rate_hz)
        dec_walks = TwoStateParams(0.0, dec.sigma1, dec.sigma2, dec.tick_rate_hz)
        assert model_psd_dbc_hz(dec_walks, f) == pytest.approx(
            model_psd_dbc_hz(full_walks, f), abs=0.01
        )

    def test_rescaled_floor_folds_up_by_decimation(self):
        # plain decimation aliases the white floor up by the factor; the
        # rescaled parameters reproduce that on purpose
        params = fit_two_state(DEFAULT_FOLLOWER_MASK, 8e6)
        dec = params.rescaled(956)
        floor_full = 10 * math.log10(params.sigma0**2 / params.tick_rate_hz)
        floor_dec = 10 * math.log10(dec.sigma0**2 / dec.tick_rate_hz)
        assert floor_dec - floor_full == pytest.approx(10 * math.log10(956), abs=1e-9)


# masks of 1-12 points between 0.1 Hz and 1 MHz, at -180 to -40 dBc/Hz
MASKS = st.lists(st.tuples(st.floats(0.1, 1e6), st.floats(-180.0, -40.0)),
                 min_size=1, max_size=12, unique_by=lambda p: p[0]).map(
                     lambda points: mask_of(sorted(points)))


def weighted_system(mask):
    """The (A, b) that the fit of ``mask`` solves."""
    f = np.array([p[0] for p in mask.points])
    power = 10.0 ** (np.array([p[1] for p in mask.points]) / 10.0)
    basis = np.column_stack([np.ones_like(f), f**-2.0, f**-4.0])
    return basis / power[:, None], np.ones_like(power)


def fit_outcome(mask):
    """fit_two_state(mask, 8 MHz) from an empty memo, or what its
    MaskFitError says."""
    oscillator._fit.cache_clear()
    try:
        return fit_two_state(mask, 8e6)
    except MaskFitError as exc:
        return str(exc), exc.worst_offset_hz, exc.worst_error_db


class TestNnls:
    # the fit calls scipy's compiled solver, loaded by file, inside the
    # public wrapper's preprocessing; the public scipy.optimize.nnls is the
    # oracle of both

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mask=MASKS)
    def test_direct_solver_gives_the_public_bits(self, mask):
        assert oscillator._nnls_extension() is not None
        A, b = weighted_system(mask)
        x, rnorm = oscillator._nnls(A, b)
        want_x, want_rnorm = oracles.nnls(A, b)
        assert x.dtype == want_x.dtype and x.tobytes() == want_x.tobytes()
        assert np.float64(rnorm).tobytes() == np.float64(want_rnorm).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mask=MASKS)
    def test_fit_equals_the_fit_through_the_public_solver(self, mask):
        direct = fit_outcome(mask)
        with mock.patch.object(oscillator, "_nnls", oracles.nnls):
            assert fit_outcome(mask) == direct

    def test_a_later_scipy_optimize_import_uses_the_loaded_solver(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(oscillator.__file__)))
        probe = (
            "import sys\nimport numpy as np\nfrom dualsync import oscillator\n"
            "A = np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 4.0], [2.0, 0.1, 1.0], [1.0, 1.0, 1.0]])\n"
            "x, rnorm = oscillator._nnls(A, np.ones(4))\n"
            "print('scipy.optimize' in sys.modules, oscillator._NNLS_MODULE in sys.modules)\n"
            "import scipy.optimize\n"
            "want_x, want_rnorm = scipy.optimize.nnls(A, np.ones(4))\n"
            "print(scipy.optimize._nnls._nnls is oscillator._nnls_extension(),\n"
            "      x.tobytes() == want_x.tobytes() and rnorm == want_rnorm)\n")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
        assert proc.stdout == "False True\nTrue True\n"

    @pytest.mark.parametrize("broken", ["missing extension", "other wrapper form"])
    def test_falls_back_to_the_public_solver(self, broken, tmp_path, monkeypatch):
        import scipy.optimize

        installed = Path(scipy.optimize.__file__).parent
        extension = Path(sys.modules[oscillator._NNLS_MODULE].__file__)
        optimize = tmp_path / "optimize"
        optimize.mkdir()
        wrapper = (installed / "_nnls.py").read_text()
        (optimize / "_nnls.py").write_text(wrapper)
        (optimize / extension.name).symlink_to(extension)
        # a copy of the installed scipy loads, so what fails below is the break
        assert oscillator._load_nnls(str(tmp_path)) is oscillator._nnls_extension()
        if broken == "missing extension":
            (optimize / extension.name).unlink()
        else:
            (optimize / "_nnls.py").write_text(
                wrapper.replace("_nnls(A, b, maxiter)", "_nnls(A, b, maxiter, atol)"))
        assert oscillator._load_nnls(str(tmp_path)) is None

        masks = (DEFAULT_MASTER_MASK, DEFAULT_FOLLOWER_MASK, mask_of([(1, -161), (10, -84)]))
        direct = [fit_outcome(mask) for mask in masks]
        public, calls = scipy.optimize.nnls, []

        def counted(*args):
            calls.append(args)
            return public(*args)
        monkeypatch.setattr(scipy.optimize, "nnls", counted)
        monkeypatch.setattr(oscillator, "_nnls_extension",
                            lambda: oscillator._load_nnls(str(tmp_path)))
        assert [fit_outcome(mask) for mask in masks] == direct
        assert len(calls) == 3
        oscillator._fit.cache_clear()

    @pytest.mark.parametrize("solver", ["direct", "public"])
    def test_an_infinite_row_is_refused_before_the_solver(self, solver, monkeypatch):
        # the wrapper's finiteness check, repeated around the compiled solver
        compiled, calls = oscillator._nnls_extension(), []

        def solve(*args):
            calls.append(args)
            return compiled(*args)
        monkeypatch.setattr(oscillator, "_nnls_extension",
                            lambda: solve if solver == "direct" else None)
        A = np.array([[1.0, 1.0, 1.0], [math.inf, math.inf, math.inf]])
        with pytest.raises(ValueError) as info:
            oscillator._nnls(A, np.ones(2))
        assert type(info.value) is ValueError
        assert str(info.value) == "array must not contain infs or NaNs"
        assert calls == []

    def test_repeats_the_wrappers_conversion_limit_and_error(self, monkeypatch):
        seen = []

        def solve(A, b, maxiter):
            seen.append((A.dtype, A.flags.c_contiguous, b.dtype, maxiter))
            return np.zeros(A.shape[1]), 0.0, 3
        monkeypatch.setattr(oscillator, "_nnls_extension", lambda: solve)
        # an int, Fortran-ordered A and a list b
        A = np.ones((3, 4), dtype=np.int64).T
        with pytest.raises(RuntimeError, match=r"^Maximum number of iterations reached\.$"):
            oscillator._nnls(A, [1, 1, 1, 1])
        assert seen == [(np.float64, True, np.float64, 9)]


class TestClockStep:
    def test_all_zero_sigmas_constant_output(self):
        clock = TwoStateClock(TwoStateParams(0, 0, 0, 1e3), phase=0.7)
        for _ in range(50):
            clock, sample = clock_step(clock, (0.3, -1.1, 2.0))
            assert sample == 0.7

    def test_deterministic_given_seed(self):
        params = TwoStateParams(1e-3, 1e-4, 1e-6, 1e3)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            clock = TwoStateClock(params)
            series = []
            for _ in range(100):
                clock, s = clock_step(clock, rng.standard_normal(3))
                series.append(s)
            outs.append(series)
        assert outs[0] == outs[1]

    def test_matches_vectorized_synthesis(self):
        params = TwoStateParams(2e-3, 5e-4, 1e-6, 1e3)
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 64))
        clock = TwoStateClock(params)
        stepped = []
        for i in range(64):
            clock, s = clock_step(clock, g[:, i])
            stepped.append(s)
        vec = synthesize_phase(params, 64, np.random.default_rng(5))
        assert np.array_equal(stepped, vec)

    def test_linearity_in_gaussian_streams(self):
        params = TwoStateParams(1e-3, 1e-4, 1e-6, 1e3)
        rng = np.random.default_rng(11)
        g = rng.standard_normal((3, 40))
        c = 2.5

        def run(gm):
            clock = TwoStateClock(params)
            out = []
            for i in range(40):
                clock, s = clock_step(clock, gm[:, i])
                out.append(s)
            return np.array(out)

        assert np.allclose(run(g * c), c * run(g), rtol=1e-12)


# the frequency-walk chunk of the former synthesis, whose edges the examples keep
CHUNK = 2**16
AFTER = 7


class TestSynthesisBytes:
    PARAMS = TwoStateParams(2e-3, 5e-4, 1e-6, 1e3)
    # each sigma its PARAMS value or 0.0, as fit_two_state snaps a small one
    SIGMAS = st.tuples(*(st.sampled_from([s, 0.0]) for s in (2e-3, 5e-4, 1e-6)))
    ZERO = (0.0, 0.0, 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(0, 3 * CHUNK + 1), seed=st.integers(0, 2**32 - 1), sigmas=SIGMAS)
    @example(n=0, seed=0, sigmas=ZERO)
    @example(n=1, seed=0, sigmas=(2e-3, 5e-4, 1e-6))
    @example(n=CHUNK - 1, seed=1, sigmas=(2e-3, 5e-4, 1e-6))
    @example(n=CHUNK, seed=2, sigmas=(2e-3, 5e-4, 1e-6))
    @example(n=CHUNK + 1, seed=3, sigmas=(2e-3, 5e-4, 1e-6))
    # the first g0, g1 and g2 of each are negative, so every sum of the
    # zero clock begins at -0.0: copied, it stays -0.0, where 0.0 + -0.0
    # would be +0.0
    @example(n=2, seed=8, sigmas=ZERO)
    @example(n=3 * CHUNK + 1, seed=5, sigmas=ZERO)
    def test_synthesis_matches_one_shot_formula(self, n, seed, sigmas):
        params = TwoStateParams(*sigmas, 1e3)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthesize_phase(params, n, ours)
        want = one_shot_synthesis(params, n, numpys)
        assert got.tobytes() == want.tobytes()
        assert ours.standard_normal(AFTER).tobytes() == numpys.standard_normal(AFTER).tobytes()

    # the scale fused into the pass: negative, signed zeros, one, subnormal,
    # large enough to overflow, and any other finite float
    SCALES = st.one_of(st.sampled_from([-220.0, -1.0, -0.0, 0.0, 1.0, 5e-324, 2.2e-308,
                                        1e300, 220.0]),
                       st.floats(allow_nan=False, allow_infinity=False))
    ANY_SIGMA = st.one_of(st.just(0.0), st.floats(1e-12, 1e2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(0, 2 * CHUNK + 1), seed=st.integers(0, 2**32 - 1),
           sigmas=st.tuples(ANY_SIGMA, ANY_SIGMA, ANY_SIGMA), scale=SCALES)
    @example(n=0, seed=0, sigmas=(2e-3, 5e-4, 1e-6), scale=220.0)
    @example(n=1, seed=0, sigmas=(2e-3, 5e-4, 1e-6), scale=-1.0)
    @example(n=4097, seed=1, sigmas=(2e-3, 5e-4, 1e-6), scale=5e-324)
    @example(n=CHUNK + 1, seed=3, sigmas=(2e-3, 5e-4, 1e-6), scale=1e300)
    @example(n=2, seed=8, sigmas=ZERO, scale=0.0)
    @example(n=2, seed=8, sigmas=ZERO, scale=-0.0)
    def test_scale_is_applied_as_a_multiply_after_synthesis(self, n, seed, sigmas, scale):
        params = TwoStateParams(*sigmas, 1e3)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        with np.errstate(over="ignore", under="ignore"):
            want = one_shot_synthesis(params, n, numpys) * scale
        got = synthesize_phase(params, n, ours, scale)
        assert got.tobytes() == want.tobytes()
        assert ours.standard_normal(AFTER).tobytes() == numpys.standard_normal(AFTER).tobytes()

    def test_peak_memory_is_two_series(self):
        n = 2**20
        synthesize_phase(self.PARAMS, 1, np.random.default_rng(1))  # loads the library
        tracemalloc.start()
        try:
            synthesize_phase(self.PARAMS, n, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and the g1 scratch, 2n floats; drawing all three
        # streams at once held 6 x 8n
        assert peak <= 2.02 * 8 * n

    def test_negative_length_is_refused_before_any_draw(self, monkeypatch):
        def library():
            raise AssertionError("called the C library")

        monkeypatch.setattr(oscillator._native, "library", library)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="-1 samples"):
            synthesize_phase(self.PARAMS, -1, rng)
        assert rng.bit_generator.state == before

    def test_other_generators_are_refused(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="synthesize_phase draws from a Generator on a "
                                            "PCG64 bit generator"):
            synthesize_phase(self.PARAMS, 8, rng)
        untouched = np.random.Generator(np.random.MT19937(0))
        assert rng.random(AFTER).tobytes() == untouched.random(AFTER).tobytes()


def ensemble_phases(params, n, trials, seed):
    """Monte-Carlo ensemble of final emitted phases (vectorized clock_step)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((trials, 3, n))
    freq = np.cumsum(params.sigma2 * g[:, 2, :], axis=1)
    phase = np.cumsum(freq + params.sigma1 * g[:, 1, :], axis=1)
    return phase[:, -1] + params.sigma0 * g[:, 0, -1]


class TestVarianceGrowth:
    def test_single_integrator_linear_growth(self):
        s1 = 1e-3
        params = TwoStateParams(0.0, s1, 0.0, 1e3)
        n = 64
        final = ensemble_phases(params, n, 20000, seed=2)
        assert np.var(final) == pytest.approx(n * s1**2, rel=0.05)

    def test_double_integrator_cubic_growth(self):
        s2 = 1e-5
        params = TwoStateParams(0.0, 0.0, s2, 1e3)
        sizes = np.array([16, 64, 256, 1024])
        variances = [np.var(ensemble_phases(params, n, 4000, seed=n)) for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.1)


class TestPsdSlopes:
    @pytest.mark.parametrize(
        "sigmas,expected,tol",
        [
            ((1e-3, 0.0, 0.0), 0.0, 1.0),
            ((0.0, 1e-4, 0.0), -20.0, 3.0),
            ((0.0, 0.0, 1e-7), -40.0, 3.0),
        ],
    )
    def test_slope_segmentation(self, sigmas, expected, tol):
        # the walk processes span >100 dB down from their near-DC content,
        # so the high-attenuation window is required to see the slope
        fs = 8368.2
        params = TwoStateParams(*sigmas, tick_rate_hz=fs)
        x = synthesize_phase(params, 2**18, np.random.default_rng(9))
        est = psd_estimate(x, fs, block_len=2**14, n_blocks=16, window=cheb_window(2**14, 300))
        band = (est.freqs_hz >= 10.0) & (est.freqs_hz <= 300.0)
        slope = np.polyfit(np.log10(est.freqs_hz[band]), est.levels_dbc_hz[band], 1)[0]
        assert slope == pytest.approx(expected, abs=tol)


class TestScaleToRf:
    def test_ratio_220_is_46_85_db(self):
        assert 20 * math.log10(220.0) == pytest.approx(46.848, abs=0.01)

    def test_psd_shift_by_ratio(self):
        fs = 8368.2
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2**16) * 1e-4
        lo = psd_estimate(x, fs, block_len=2**12, n_blocks=16, window=cheb_window(2**12, 100))
        hi = psd_estimate(x * 220.0, fs, block_len=2**12, n_blocks=16,
                          window=cheb_window(2**12, 100))
        shift = hi.levels_dbc_hz[5:] - lo.levels_dbc_hz[5:]
        assert np.allclose(shift, 46.848, atol=1e-9)

    def test_mask_example_at_rf(self):
        # -125 dBc/Hz at 10 MHz reference scales to -78.15 dBc/Hz at 2.2 GHz
        assert -125.0 + 20 * math.log10(220.0) == pytest.approx(-78.15, abs=0.01)


class TestMaskRoundTrip:
    def test_fit_synthesize_reestimate_recovers_anchors(self):
        # representable anchors inside the measurable band at the decimated
        # rate, clear of the window main lobe (first anchor ~2x beyond it)
        fs = 8368.2
        mask = mask_of([(4.0, -70.0), (40.0, -100.0), (800.0, -126.4)])
        params = fit_two_state(mask, fs)
        x = synthesize_phase(params, 2**15 * 16, np.random.default_rng(21))
        est = psd_estimate(x, fs, block_len=2**15, n_blocks=16, window=cheb_window(2**15, 200))
        for f0, level in mask.points:
            assert psd_level_at(est, f0) == pytest.approx(level, abs=3.0)
