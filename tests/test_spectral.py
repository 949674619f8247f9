import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualsync.spectral import cheb_window, psd_estimate
from oracles import psd_level_at


class TestChebWindow:
    def test_symmetry(self):
        for n in (64, 65, 257):
            w = cheb_window(n, 100.0)
            assert np.allclose(w, w[::-1], atol=1e-14)
            assert w.max() == pytest.approx(1.0)

    def test_equiripple_sidelobes_at_100_db(self):
        import scipy.signal as ss

        n = 64
        w = cheb_window(n, 100.0)
        spec = np.fft.rfft(w, n=8 * n)
        with np.errstate(divide="ignore"):
            mag = 20 * np.log10(np.abs(spec) / np.abs(spec[0]))
        peaks, _ = ss.find_peaks(mag)
        sidelobes = mag[peaks]
        assert sidelobes.size >= 10
        assert np.max(np.abs(sidelobes + 100.0)) < 1.0

    def test_large_window_reaches_design_attenuation(self):
        n = 2**17
        w = cheb_window(n, 300.0)
        spec = np.fft.rfft(w, n=8 * n)
        with np.errstate(divide="ignore"):
            mag = 20 * np.log10(np.abs(spec) / np.abs(spec[0]))
        # main lobe edge: beta*cos(omega/2) = 1
        big_a = np.arccosh(10.0 ** (300.0 / 20.0)) / (n - 1)
        beta = math.cosh(big_a)
        edge = int(np.ceil(8 * n * 2 * math.acos(1 / beta) / (2 * math.pi))) + 8
        assert np.max(mag[edge:]) <= -280.0

    def test_memoised_window_is_shared_and_read_only(self):
        w = cheb_window(64, 100.0)
        assert cheb_window(64, 100.0) is w
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert w.tobytes() == per_sample_cos_window(64, 100.0).tobytes()

    def test_threads_asking_at_once_build_each_window_once(self):
        # six threads released together ask for two windows, with the
        # interpreter switching threads every microsecond
        cheb_window.cache_clear()
        barrier, got = threading.Barrier(6, timeout=60), []

        def ask(i):
            barrier.wait()
            got.append((i % 2, cheb_window(4096 + i % 2, 120.0)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                for future in [pool.submit(ask, i) for i in range(6)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert cheb_window.cache_info().misses == 2
        assert len(got) == 6
        assert all(w is cheb_window(4096 + key, 120.0) for key, w in got)

    def test_attenuation_range_enforced(self):
        with pytest.raises(ValueError):
            cheb_window(64, 330.0)
        with pytest.raises(ValueError):
            cheb_window(64, 20.0)
        with pytest.raises(ValueError):
            cheb_window(8, 100.0)


def per_sample_cos_window(n, atten_db):
    """cheb_window as written before its cosine table: each main-lobe
    sample evaluates np.cos over all n phase indices."""
    order = n - 1
    big_a = np.arccosh(10.0 ** (atten_db / 20.0)) / order
    beta_m1 = 2.0 * np.sinh(0.5 * big_a) ** 2
    k = np.arange(n)
    one_m_cos = 2.0 * np.sin(np.pi * np.minimum(k, n - k) / (2.0 * n)) ** 2
    v = beta_m1 - one_m_cos - beta_m1 * one_m_cos
    neg_side = 2 * k > n
    p = np.empty(n)
    main = v > 0
    vm = v[main]
    p[main] = np.cosh(order * np.log1p(vm + np.sqrt(vm * (2.0 + vm))))
    theta = 2.0 * np.arcsin(np.sqrt(0.5 * np.maximum(-v[~main], 0.0)))
    p[~main] = np.cos(order * theta)
    if order % 2 == 1:
        p[neg_side & ~main] = -p[neg_side & ~main]
    p[main & neg_side] *= float(2 * (n % 2) - 1)
    m = np.arange(n, dtype=np.int64)
    if n % 2:
        w = np.real(np.fft.fft(np.where(main, 0.0, p)))
        for i in np.nonzero(main)[0]:
            w += p[i] * np.cos(np.pi * ((2 * int(i) * m) % (2 * n)) / n)
        half = (n + 1) // 2
        w = np.concatenate((w[half - 1:0:-1], w[:half]))
    else:
        w = np.real(np.fft.fft(np.where(main, 0.0 + 0.0j, p * np.exp(1j * np.pi * k / n))))
        for i in np.nonzero(main)[0]:
            w += p[i] * np.cos(np.pi * ((int(i) * (2 * m - 1)) % (2 * n)) / n)
        half = n // 2 + 1
        w = np.concatenate((w[half - 1:0:-1], w[1:half]))
    return w / np.max(w)


@pytest.mark.parametrize("n", [4097, 4096])
def test_cosine_table_keeps_window_bytes(n):
    assert cheb_window(n, 300.0).tobytes() == per_sample_cos_window(n, 300.0).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(16, 2**17 + 1), atten_db=st.floats(40.0, 320.0))
@example(n=16, atten_db=40.0)
@example(n=17, atten_db=320.0)
@example(n=2**17, atten_db=300.0)
@example(n=2**17 + 1, atten_db=300.0)
def test_main_lobe_sum_keeps_window_bytes(n, atten_db):
    # the C main-lobe sum against numpy's per-sample cosines, odd and even n
    assert cheb_window(n, atten_db).tobytes() == per_sample_cos_window(n, atten_db).tobytes()


class TestPsdEstimate:
    def test_white_noise_level(self):
        fs = 8368.2
        sigma = 0.01
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2**13 * 32) * sigma
        est = psd_estimate(x, fs, block_len=2**13, n_blocks=32, window=cheb_window(2**13, 120))
        expected = 10 * math.log10(sigma**2 / fs)
        assert np.mean(est.levels_dbc_hz[4:]) == pytest.approx(expected, abs=0.5)

    def test_sine_integrated_power(self):
        fs = 4096.0
        amp = 0.02
        f0 = 200.0
        n = 2**12 * 8
        t = np.arange(n) / fs
        x = amp * np.sin(2 * math.pi * f0 * t)
        est = psd_estimate(x, fs, block_len=2**12, n_blocks=8, window=cheb_window(2**12, 100))
        # integrate L(f) around the tone: expect amp**2/4
        band = np.abs(est.freqs_hz - f0) < 40.0
        df = fs / 2**12
        power = np.sum(10 ** (est.levels_dbc_hz[band] / 10.0)) * df
        assert power == pytest.approx(amp**2 / 4, rel=0.05)

    def test_zero_input_floor(self):
        est = psd_estimate(np.zeros(2**10 * 4), 1e3, block_len=2**10, n_blocks=4,
                           window=cheb_window(2**10, 100))
        assert np.all(est.levels_dbc_hz < -250)

    def test_insufficient_samples_error_names_requirement(self):
        with pytest.raises(ValueError, match=str(2**13 * 32)):
            psd_estimate(np.zeros(100), 1e3, block_len=2**13, n_blocks=32,
                         window=cheb_window(2**13, 120))

    def test_parseval_consistency(self):
        fs = 1e4
        rng = np.random.default_rng(8)
        x = rng.standard_normal(2**12 * 16) * 0.3
        est = psd_estimate(x, fs, block_len=2**12, n_blocks=16, window=cheb_window(2**12, 80))
        s_phi = 2.0 * 10 ** (est.levels_dbc_hz / 10.0)
        total = np.sum(s_phi) * (fs / 2**12)
        assert total == pytest.approx(np.mean(x**2), rel=0.01)

    def test_averaging_reduces_scatter(self):
        fs = 1e4
        rng = np.random.default_rng(12)
        x = rng.standard_normal(2**10 * 96)
        few = psd_estimate(x[: 2**10 * 16], fs, block_len=2**10, n_blocks=16,
                           window=cheb_window(2**10, 80))
        many = psd_estimate(x[: 2**10 * 32], fs, block_len=2**10, n_blocks=32,
                            window=cheb_window(2**10, 80))
        ratio = np.std(few.levels_dbc_hz[4:]) / np.std(many.levels_dbc_hz[4:])
        assert ratio == pytest.approx(math.sqrt(2), rel=0.20)

    def test_level_readout_band_average(self):
        fs = 1e3
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2**10 * 8) * 0.1
        est = psd_estimate(x, fs, block_len=2**10, n_blocks=8, window=cheb_window(2**10, 80))
        level = psd_level_at(est, 100.0)
        assert level == pytest.approx(10 * math.log10(0.01 / fs), abs=1.0)
