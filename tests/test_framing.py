import numpy as np
import pytest

import oracles
from reseval import Signal, istft, make_grid, stft
from reseval.framing import (
    FFT_LEN,
    FRAME_LEN,
    HOP,
    FrameGrid,
    Spectrogram,
    analysis_window,
    spectral_energy,
)


class TestGrid:
    @pytest.mark.parametrize("length,frames", [(320, 1), (480, 2), (160000, 999), (319, 0), (0, 0)])
    def test_counts(self, length, frames):
        assert make_grid(length).n_frames == frames

    def test_counts_match_enumeration(self):
        rng = np.random.default_rng(0)
        for length in rng.integers(0, 50000, size=1000):
            assert make_grid(int(length)).n_frames == oracles.frame_count(int(length))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_grid(-1)

    def test_slices(self):
        grid = make_grid(800)
        assert grid.frame_slice(0) == slice(0, 320)
        assert grid.frame_slice(2) == slice(320, 640)
        with pytest.raises(IndexError):
            grid.frame_slice(grid.n_frames)

    def test_inconsistent_grid_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            FrameGrid(signal_len=800, n_frames=7)

    def test_frame_matrix(self):
        x = np.arange(800, dtype=float)
        frames = make_grid(800).frame_matrix(x)
        assert frames.shape == (4, 320)
        assert frames[1][0] == 160.0


class TestStft:
    def test_sine_peak_bin(self):
        t = np.arange(16000) / 16000.0
        spec = stft(Signal(np.sin(2 * np.pi * 1000 * t)))
        peaks = np.argmax(spec.magnitudes, axis=1)
        assert np.all(peaks == round(1000 * FFT_LEN / 16000))
        assert round(1000 * FFT_LEN / 16000) == 32

    def test_zeros(self):
        spec = stft(Signal(np.zeros(1600)))
        assert np.all(spec.magnitudes == 0)

    def test_impulse_frame_matches_brute_force_dft(self):
        x = np.zeros(320)
        x[0] = 1.0
        spec = stft(Signal(x))
        expected = oracles.dft_magnitudes(list(analysis_window() * x), FFT_LEN)
        np.testing.assert_allclose(spec.magnitudes[0], expected, atol=1e-10)

    def test_constant_signal_gives_window_spectrum(self):
        spec = stft(Signal(np.ones(960)))
        expected = np.array(oracles.dft_magnitudes(list(analysis_window()), FFT_LEN))
        for frame in spec.magnitudes:
            np.testing.assert_allclose(frame, expected, atol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            stft(Signal(np.zeros(FRAME_LEN - 1)))

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3200)
        y = rng.standard_normal(3200)
        a, b = 0.7, -1.3
        lhs = stft(Signal(a * x + b * y)).complex_values()
        rhs = a * stft(Signal(x)).complex_values() + b * stft(Signal(y)).complex_values()
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


class TestSpectralEnergy:
    @staticmethod
    def signals():
        rng = np.random.default_rng(21)
        for n in (320, 321, 479, 480, 481, 16001):
            yield rng.standard_normal(n) * 0.3
        yield np.zeros(1000)
        yield rng.standard_normal(4000) * 1e-9

    def test_matches_stft_bin_sum(self):
        for x in self.signals():
            expected = np.sum(stft(Signal(x)).magnitudes ** 2, axis=1)
            np.testing.assert_allclose(spectral_energy(x), expected, rtol=1e-12, atol=0.0)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            spectral_energy(np.zeros(FRAME_LEN - 1))


class TestIstft:
    def interior(self, grid):
        return slice(HOP, grid.n_frames * HOP)

    def test_roundtrip_noise(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(16000)
        spec = stft(Signal(x))
        back = istft(spec)
        sl = self.interior(spec.grid)
        err = np.max(np.abs(back.samples[sl] - x[sl])) / np.max(np.abs(x))
        assert err < 1e-10

    def test_zero_magnitudes(self):
        spec = stft(Signal(np.random.default_rng(2).standard_normal(1600)))
        silent = spec.with_magnitudes(np.zeros_like(spec.magnitudes))
        assert np.all(istft(silent).samples == 0)

    def test_halved_magnitudes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4800)
        spec = stft(Signal(x))
        half = istft(spec.with_magnitudes(0.5 * spec.magnitudes))
        sl = self.interior(spec.grid)
        np.testing.assert_allclose(half.samples[sl], 0.5 * x[sl], atol=1e-10 * np.max(np.abs(x)))

    def test_output_length_matches_grid(self):
        x = np.random.default_rng(6).standard_normal(1000)
        out = istft(stft(Signal(x)))
        assert len(out) == 1000
        # tail samples past the last full frame are zeroed
        assert np.all(out.samples[960:] == 0)

    def test_negative_magnitudes_rejected(self):
        spec = stft(Signal(np.ones(640)))
        with pytest.raises(ValueError, match="nonnegative"):
            Spectrogram(magnitudes=spec.magnitudes - 1.0, phases=spec.phases, grid=spec.grid)
