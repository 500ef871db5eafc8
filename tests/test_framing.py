import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from reseval import Signal, classify, gain_tracks, istft, scene_rows, stft
from reseval.audio import SceneComponents
from reseval.framing import (
    FFT_LEN,
    FRAME_LEN,
    HOP,
    _WINDOW,
    FrameGrid,
    Spectrogram,
    gain_envelope,
    spectral_energy,
    wola,
)


def shorter_than_one_frame(length):
    """pytest.raises for the error every layer gives a signal of length samples."""
    return pytest.raises(ValueError, match=rf"^signal length {length} shorter than one frame \(320\)$")


class TestGrid:
    @pytest.mark.parametrize("length,frames", [(320, 1), (480, 2), (160000, 999)])
    def test_counts(self, length, frames):
        assert FrameGrid(length).n_frames == frames

    @pytest.mark.parametrize("length", [319, 0])
    def test_shorter_than_one_frame_refused(self, length):
        with shorter_than_one_frame(length):
            FrameGrid(length)

    def test_counts_match_enumeration(self):
        # a grid exists exactly when enumeration finds a frame
        rng = np.random.default_rng(0)
        lengths = [int(length) for length in rng.integers(0, 50000, size=1000)]
        assert min(lengths) < FRAME_LEN
        for length in lengths:
            if length < FRAME_LEN:
                assert oracles.frame_count(length) == 0
                with shorter_than_one_frame(length):
                    FrameGrid(length)
            else:
                assert FrameGrid(length).n_frames == oracles.frame_count(length)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FrameGrid(-1)

    def test_slices(self):
        # frame i covers [i*HOP, i*HOP + FRAME_LEN), and no frame runs past the signal
        x = np.arange(800, dtype=float)
        frames = FrameGrid(800).frame_matrix(x)
        for i in (0, 2, frames.shape[0] - 1):
            np.testing.assert_array_equal(frames[i], x[i * HOP : i * HOP + FRAME_LEN])
        n = frames.shape[0]
        assert (n - 1) * HOP + FRAME_LEN <= 800 < n * HOP + FRAME_LEN

    def test_frame_matrix(self):
        x = np.arange(800, dtype=float)
        frames = FrameGrid(800).frame_matrix(x)
        assert frames.shape == (4, 320)
        assert frames[1][0] == 160.0


# each takes the samples of a signal, used as every component of its scene;
# scene_rows needs a mask, whose grid is where a short scene is refused
LAYERS = {
    "FrameGrid": lambda x: FrameGrid(len(x)),
    "classify": lambda x: classify(Signal(x), Signal(x)),
    "scene_rows": lambda x: scene_rows(SceneComponents(s=Signal(x), e=Signal(x)), classify(Signal(x), Signal(x))),
    "gain_tracks": lambda x: gain_tracks(Signal(x), Signal(x)),
    "stft": lambda x: stft(Signal(x)),
    "spectral_energy": spectral_energy,
}


@pytest.mark.parametrize("length", [1, 319])
@pytest.mark.parametrize("layer", list(LAYERS))
def test_every_layer_refuses_a_signal_shorter_than_one_frame(layer, length):
    x = np.random.default_rng(length).standard_normal(length)
    with shorter_than_one_frame(length):
        LAYERS[layer](x)


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
        expected = oracles.dft_magnitudes(list(_WINDOW * x), FFT_LEN)
        np.testing.assert_allclose(spec.magnitudes[0], expected, atol=1e-10)

    def test_constant_signal_gives_window_spectrum(self):
        spec = stft(Signal(np.ones(960)))
        expected = np.array(oracles.dft_magnitudes(list(_WINDOW), FFT_LEN))
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
        spectra = [stft(Signal(v)) for v in (a * x + b * y, x, y)]
        lhs, sx, sy = (spec.magnitudes * np.exp(1j * spec.phases) for spec in spectra)
        rhs = a * sx + b * sy
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
        silent = Spectrogram(magnitudes=np.zeros_like(spec.magnitudes), phases=spec.phases, grid=spec.grid)
        assert np.all(istft(silent).samples == 0)

    def test_halved_magnitudes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4800)
        spec = stft(Signal(x))
        half = istft(Spectrogram(magnitudes=0.5 * spec.magnitudes, phases=spec.phases, grid=spec.grid))
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


class TestGainEnvelope:
    GAINS = {
        "random": lambda rng, n: rng.uniform(0.0, 1.0, n),
        "zeros": lambda rng, n: np.zeros(n),
        "ones": lambda rng, n: np.ones(n),
        "floor": lambda rng, n: np.full(n, 0.02),
    }

    @pytest.mark.parametrize("gains", sorted(GAINS))
    @pytest.mark.parametrize("tail", [0, 1, 100, 159])
    @pytest.mark.parametrize("n_frames", [1, 2, 3, 10, 999])
    def test_matches_wola_bit_for_bit(self, n_frames, tail, gains):
        signal_len = (n_frames - 1) * HOP + FRAME_LEN + tail
        assert FrameGrid(signal_len).n_frames == n_frames
        g = self.GAINS[gains](np.random.default_rng(n_frames * 1000 + tail), n_frames)
        got = gain_envelope(g, signal_len)
        assert np.array_equal(got, wola(g[:, None] * _WINDOW, signal_len))
        # the Hann window is 0 at sample 0, and nothing lies past the last full frame
        assert got[0] == 0.0
        assert np.all(got[(n_frames + 1) * HOP :] == 0.0)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_wola_for_any_gains_and_length(self, data):
        """Any length from one frame up, a multiple of HOP or not, and gains in [0, 1]
        with exact 0s and 1s: the edge rows' masked divide and the zero tail included."""
        signal_len = data.draw(st.one_of(st.integers(FRAME_LEN, 4000),
                                         st.integers(1, 24).map(lambda k: FRAME_LEN + k * HOP)))
        n_frames = FrameGrid(signal_len).n_frames
        elements = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        g = data.draw(arrays(np.float64, n_frames, elements=elements))
        assert np.array_equal(gain_envelope(g, signal_len), wola(g[:, None] * _WINDOW, signal_len))
