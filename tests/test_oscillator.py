import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsync.oscillator import (
    DEFAULT_FOLLOWER_MASK,
    DEFAULT_MASTER_MASK,
    SYNTH_CHUNK,
    MaskFitError,
    NoiseMask,
    TwoStateParams,
    fit_two_state,
    model_psd_dbc_hz,
    synthesize_phase,
)
from dualsync.spectral import cheb_window, psd_estimate
from oracles import TwoStateClock, clock_step, psd_level_at


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


def one_shot_synthesis(params, n, rng):
    """The synthesis formula with all three streams drawn at once."""
    g = rng.standard_normal((3, n))
    freq = np.cumsum(params.sigma2 * g[2])
    phase = np.cumsum(freq + params.sigma1 * g[1])
    return phase + params.sigma0 * g[0]


class TestSynthesisBytes:
    PARAMS = TwoStateParams(2e-3, 5e-4, 1e-6, 1e3)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3 * SYNTH_CHUNK + 1), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=SYNTH_CHUNK - 1, seed=1)
    @example(n=SYNTH_CHUNK, seed=2)
    @example(n=SYNTH_CHUNK + 1, seed=3)
    def test_chunked_synthesis_matches_one_shot_formula(self, n, seed):
        got = synthesize_phase(self.PARAMS, n, np.random.default_rng(seed))
        want = one_shot_synthesis(self.PARAMS, n, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_two_series_plus_a_chunk(self):
        n = 2**20
        tracemalloc.start()
        try:
            synthesize_phase(self.PARAMS, n, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2n output and phase floats plus one chunk read 2.06 x 8n bytes;
        # drawing all three streams at once held 6 x 8n
        assert peak <= 2.25 * 8 * n


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
