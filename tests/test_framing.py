import cmath
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from dualsync.channel import sigma_from_snr
from oracles import (
    PilotSequence,
    decimated_phase_error_model,
    pilot_correlate,
    simulate_pilot_rx,
    wh_sequence,
)


class TestWalshHadamard:
    def test_index_zero_all_ones(self):
        assert wh_sequence(0, 32).chips == (1,) * 32

    def test_index_one_length_four(self):
        assert wh_sequence(1, 4).chips == (1, -1, 1, -1)

    def test_orthogonality(self):
        rows = [wh_sequence(i, 32).as_array() for i in range(32)]
        gram = np.array([[np.dot(a, b) for b in rows] for a in rows])
        assert np.array_equal(gram, 32 * np.eye(32))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            wh_sequence(32, 32)
        with pytest.raises(ValueError):
            wh_sequence(0, 24)

    def test_chips_are_plus_minus_one(self):
        with pytest.raises(ValueError):
            PilotSequence(0, (1, 0, -1))


class TestCorrelation:
    def test_matched_noiseless(self):
        seq = wh_sequence(5, 32)
        rx = seq.as_array() * cmath.exp(0.77j)
        out = pilot_correlate(rx, seq)
        assert abs(out) == pytest.approx(1.0, abs=1e-12)
        assert cmath.phase(out) == pytest.approx(0.77, abs=1e-12)

    def test_orthogonal_code_rejected(self):
        tx = wh_sequence(3, 32).as_array() * cmath.exp(0.4j)
        assert abs(pilot_correlate(tx, wh_sequence(7, 32))) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pilot_correlate(np.ones(16), wh_sequence(0, 32))


class TestCompressionGain:
    def test_infinite_snr_exact(self):
        seq = wh_sequence(2, 32)
        out = simulate_pilot_rx(1.234, seq, math.inf, np.random.default_rng(0))
        assert cmath.phase(out) == pytest.approx(1.234, abs=1e-12)
        assert abs(out) == pytest.approx(1.0, abs=1e-12)

    def test_error_variance_scales_with_snr(self):
        seq = wh_sequence(4, 32)
        rng = np.random.default_rng(8)
        trials = 20_000

        def phase_var(snr):
            vals = np.array([
                cmath.phase(simulate_pilot_rx(0.0, seq, snr, rng)) for _ in range(trials)
            ])
            return np.var(vals)

        ratio = phase_var(0.0) / phase_var(20.0)
        assert ratio == pytest.approx(100.0, rel=0.10)

    def test_symbol_level_matches_decimated_model(self):
        # cross-module consistency: two-sample KS between the symbol-level
        # pilot simulation and the decimated-tick AWGN shortcut
        seq = wh_sequence(1, 32)
        rng1 = np.random.default_rng(100)
        rng2 = np.random.default_rng(200)
        n = 10_000
        symbol_level = np.array([
            cmath.phase(simulate_pilot_rx(0.0, seq, 10.0, rng1)) for _ in range(n)
        ])
        shortcut = decimated_phase_error_model(10.0, 32, n, rng2)
        assert ks_2samp(symbol_level, shortcut).pvalue > 0.01

    def test_angular_error_std_within_prediction(self):
        seq = wh_sequence(6, 32)
        rng = np.random.default_rng(55)
        n = 20_000
        vals = np.array([
            cmath.phase(simulate_pilot_rx(0.5, seq, 10.0, rng)) - 0.5 for _ in range(n)
        ])
        predicted = sigma_from_snr(10.0, 10 * math.log10(32)) / math.sqrt(2)
        assert np.std(vals) == pytest.approx(predicted, rel=0.05)
