"""20 ms / 50%-overlap frame lattice and STFT analysis/synthesis.

Frames are 320 samples (20 ms at 16 kHz) with a 160-sample hop.  The
STFT uses a periodic Hann window zero-padded to a 512-point FFT, which
gives exact weighted overlap-add reconstruction on the interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import SAMPLE_RATE, Signal

FRAME_LEN = 320
HOP = 160
FFT_LEN = 512
N_BINS = FFT_LEN // 2 + 1

# periodic Hann, length FRAME_LEN
_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
_WINDOW.setflags(write=False)
# columns: all ones (DC bin) and (-1)^n (Nyquist bin of the FFT_LEN-point DFT)
_DC_NYQUIST = np.stack([np.ones(FRAME_LEN), (-1.0) ** np.arange(FRAME_LEN)], axis=1)


def analysis_window() -> np.ndarray:
    return _WINDOW


@dataclass(frozen=True)
class FrameGrid:
    """Frame lattice over a signal: frame i covers [i*hop, i*hop + frame_len)."""

    signal_len: int
    n_frames: int
    frame_len: int = FRAME_LEN
    hop: int = HOP

    def __post_init__(self):
        if self.hop * 2 != self.frame_len:
            raise ValueError("hop must be half the frame length (50% overlap)")
        if self.signal_len < 0:
            raise ValueError("signal_len must be >= 0")
        expected = _frame_count(self.signal_len, self.frame_len, self.hop)
        if self.n_frames != expected:
            raise ValueError(
                f"n_frames {self.n_frames} inconsistent with signal_len "
                f"{self.signal_len} (expected {expected})"
            )

    def frame_slice(self, i: int) -> slice:
        if not 0 <= i < self.n_frames:
            raise IndexError(f"frame {i} out of range [0, {self.n_frames})")
        start = i * self.hop
        return slice(start, start + self.frame_len)

    def frame_matrix(self, samples: np.ndarray) -> np.ndarray:
        """View of shape (n_frames, frame_len) over the sample array."""
        arr = np.asarray(samples)
        if arr.shape[0] != self.signal_len:
            raise ValueError("sample array does not match grid signal_len")
        if self.n_frames == 0:
            return np.empty((0, self.frame_len), dtype=arr.dtype)
        view = np.lib.stride_tricks.sliding_window_view(arr, self.frame_len)
        return view[:: self.hop][: self.n_frames]


def _frame_count(signal_len: int, frame_len: int, hop: int) -> int:
    if signal_len < frame_len:
        return 0
    return (signal_len - frame_len) // hop + 1


def make_grid(signal_len: int) -> FrameGrid:
    """Build the 20 ms / 50%-overlap grid for a signal length in samples."""
    if signal_len < 0:
        raise ValueError("signal_len must be >= 0")
    return FrameGrid(signal_len=int(signal_len), n_frames=_frame_count(int(signal_len), FRAME_LEN, HOP))


def _grid_of_full_frames(signal_len: int) -> FrameGrid:
    grid = make_grid(signal_len)
    if grid.n_frames == 0:
        raise ValueError(f"signal length {signal_len} shorter than one frame ({FRAME_LEN})")
    return grid


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude/phase representation on the shared frame grid."""

    magnitudes: np.ndarray
    phases: np.ndarray
    grid: FrameGrid
    fft_len: int = FFT_LEN
    window: np.ndarray = field(default_factory=analysis_window)

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        phs = np.asarray(self.phases, dtype=np.float64)
        bins = self.fft_len // 2 + 1
        if mags.shape != (self.grid.n_frames, bins) or phs.shape != mags.shape:
            raise ValueError(
                f"spectrogram shape {mags.shape} does not match grid "
                f"({self.grid.n_frames} frames x {bins} bins)"
            )
        if mags.size and mags.min() < 0:
            raise ValueError("magnitudes must be nonnegative")
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phases", phs)

    @property
    def n_bins(self) -> int:
        return self.fft_len // 2 + 1

    def complex_values(self) -> np.ndarray:
        return self.magnitudes * np.exp(1j * self.phases)

    def with_magnitudes(self, magnitudes: np.ndarray) -> "Spectrogram":
        """Same grid and phases, new (e.g. gain-scaled) magnitudes."""
        return Spectrogram(magnitudes=magnitudes, phases=self.phases, grid=self.grid,
                           fft_len=self.fft_len, window=self.window)


def stft(signal: Signal) -> Spectrogram:
    """Windowed DFT per frame; deterministic, zero-padded to 512 points."""
    grid = _grid_of_full_frames(len(signal))
    frames = grid.frame_matrix(signal.samples) * _WINDOW
    spec = np.fft.rfft(frames, n=FFT_LEN, axis=1)
    return Spectrogram(magnitudes=np.abs(spec), phases=np.angle(spec), grid=grid)


def spectral_energy(samples: np.ndarray) -> np.ndarray:
    """Per-frame sum of |rfft|^2 over the N_BINS bins of the windowed frame.

    Equals np.sum(stft(signal).magnitudes**2, axis=1) without an FFT:
    Parseval gives FFT_LEN * sum(x_w^2) over all FFT_LEN bins, and the
    one-sided sum counts every bin but DC and Nyquist once, so it is
    (FFT_LEN * sum(x_w^2) + (sum x_w)^2 + (sum (-1)^n x_w)^2) / 2.
    """
    grid = _grid_of_full_frames(len(samples))
    frames = grid.frame_matrix(samples) * _WINDOW
    dc, nyquist = (frames @ _DC_NYQUIST).T
    return (FFT_LEN * np.einsum("ij,ij->i", frames, frames) + dc * dc + nyquist * nyquist) / 2.0


def overlap_add(frames: np.ndarray, signal_len: int) -> np.ndarray:
    """Sum (n_frames, FRAME_LEN) frames at HOP spacing onto signal_len samples.

    Each frame's two HOP-sample halves land in consecutive rows of an
    (n_frames + 1, HOP) buffer.  Samples past the last full frame are zero.
    """
    n_frames = frames.shape[0]
    halves = np.reshape(frames, (n_frames, 2, HOP))
    buf = np.zeros((n_frames + 1, HOP))
    buf[:-1] = halves[:, 0]
    buf[1:] += halves[:, 1]
    out = np.zeros(signal_len)
    out[: buf.size] = buf.ravel()
    return out


def wola(frames: np.ndarray, signal_len: int) -> np.ndarray:
    """Weighted overlap-add: OLA(frames * w) / OLA(w^2) for the Hann window w.

    Samples where the window envelope is at most 1e-12, and samples past
    the last full frame, are zero.
    """
    envelope = overlap_add(np.broadcast_to(_WINDOW * _WINDOW, frames.shape), signal_len)
    out = overlap_add(frames * _WINDOW, signal_len)
    nz = envelope > 1e-12
    out[nz] /= envelope[nz]
    out[~nz] = 0.0
    return out


def istft(spec: Spectrogram) -> Signal:
    """Weighted overlap-add synthesis back to grid.signal_len samples.

    Samples past the last full frame are zero; interior samples of an
    unmodified round trip match the input to ~1e-15 relative error.
    """
    grid = spec.grid
    if grid.n_frames == 0:
        raise ValueError("empty spectrogram")
    frames_td = np.fft.irfft(spec.complex_values(), n=spec.fft_len, axis=1)[:, : grid.frame_len]
    return Signal(wola(frames_td, grid.signal_len), SAMPLE_RATE)
