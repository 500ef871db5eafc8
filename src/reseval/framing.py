"""20 ms / 50%-overlap frame lattice and STFT analysis/synthesis.

Frames are 320 samples (20 ms at 16 kHz) with a 160-sample hop.  The
STFT uses a periodic Hann window zero-padded to a 512-point FFT, which
gives exact weighted overlap-add reconstruction on the interior.

A signal shorter than one frame has nothing to score: FrameGrid refuses
it, and so every layer built on the grid refuses it with the same error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Signal

FRAME_LEN = 320
HOP = 160
FFT_LEN = 512
N_BINS = FFT_LEN // 2 + 1
# rows of gain_envelope's tail buffer: 256 x HOP float64 is 320 KiB
ENVELOPE_BLOCK_ROWS = 256

# periodic Hann, length FRAME_LEN
_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
_WINDOW.setflags(write=False)
_WINDOW_SQ = _WINDOW * _WINDOW
# OLA(w^2) of every interior HOP-sample row: sin^4 + cos^4, so at least 0.5
_OLA_INTERIOR = _WINDOW_SQ[:HOP] + _WINDOW_SQ[HOP:]
# OLA(w^2) of the first and the last hop row; the first is 0 at sample 0
_OLA_EDGES = ((slice(0, 1), _WINDOW_SQ[:HOP]), (slice(-1, None), _WINDOW_SQ[HOP:]))
# columns: all ones (DC bin) and (-1)^n (Nyquist bin of the FFT_LEN-point DFT)
_DC_NYQUIST = np.stack([np.ones(FRAME_LEN), (-1.0) ** np.arange(FRAME_LEN)], axis=1)


@dataclass(frozen=True)
class FrameGrid:
    """Frame lattice over a signal: frame i covers [i*HOP, i*HOP + FRAME_LEN)."""

    signal_len: int

    def __post_init__(self):
        if self.signal_len < FRAME_LEN:
            raise ValueError(f"signal length {self.signal_len} shorter than one frame ({FRAME_LEN})")

    @property
    def n_frames(self) -> int:
        return (self.signal_len - FRAME_LEN) // HOP + 1

    def frame_matrix(self, samples: np.ndarray) -> np.ndarray:
        """View of shape (n_frames, FRAME_LEN) over the sample array."""
        arr = np.asarray(samples)
        if arr.shape[0] != self.signal_len:
            raise ValueError("sample array does not match grid signal_len")
        view = np.lib.stride_tricks.sliding_window_view(arr, FRAME_LEN)
        return view[::HOP]


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude/phase representation on the shared frame grid."""

    magnitudes: np.ndarray
    phases: np.ndarray
    grid: FrameGrid

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        phs = np.asarray(self.phases, dtype=np.float64)
        if mags.shape != (self.grid.n_frames, N_BINS) or phs.shape != mags.shape:
            raise ValueError(
                f"spectrogram shape {mags.shape} does not match grid "
                f"({self.grid.n_frames} frames x {N_BINS} bins)"
            )
        if mags.min() < 0:
            raise ValueError("magnitudes must be nonnegative")
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phases", phs)


def stft(signal: Signal) -> Spectrogram:
    """Windowed DFT per frame; deterministic, zero-padded to 512 points."""
    grid = FrameGrid(len(signal))
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
    grid = FrameGrid(len(samples))
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
    envelope = overlap_add(np.broadcast_to(_WINDOW_SQ, frames.shape), signal_len)
    out = overlap_add(frames * _WINDOW, signal_len)
    nz = envelope > 1e-12
    out[nz] /= envelope[nz]
    out[~nz] = 0.0
    return out


def gain_envelope(gains: np.ndarray, signal_len: int) -> np.ndarray:
    """wola(gains[:, None] * w, signal_len) for one flat gain per frame.

    Hop row j is (g_j w_head) w_head + (g_{j-1} w_tail) w_tail over the
    constant OLA(w^2) of its row, computed in the output's own
    (n_frames + 1, HOP) rows in wola's order of operations, so the two
    agree bit for bit.
    """
    n_frames = gains.shape[0]
    g = gains[:, None]
    head, tail = _WINDOW[:HOP], _WINDOW[HOP:]
    out = np.zeros(signal_len)
    rows = out[: (n_frames + 1) * HOP].reshape(n_frames + 1, HOP)
    np.multiply(g, head, out=rows[:-1])
    rows[:-1] *= head
    # the tail products are added a block of rows at a time through one
    # small buffer, so the only full-length array is the output
    block = np.empty((min(n_frames, ENVELOPE_BLOCK_ROWS), HOP))
    for start in range(0, n_frames, ENVELOPE_BLOCK_ROWS):
        part = block[: min(ENVELOPE_BLOCK_ROWS, n_frames - start)]
        np.multiply(g[start : start + len(part)], tail, out=part)
        part *= tail
        rows[start + 1 : start + 1 + len(part)] += part
    rows[1:-1] /= _OLA_INTERIOR
    for hops, ola in _OLA_EDGES:
        nz = ola > 1e-12
        np.divide(rows[hops], ola, out=rows[hops], where=nz)
        rows[hops, ~nz] = 0.0
    return out


def istft(spec: Spectrogram) -> Signal:
    """Weighted overlap-add synthesis back to grid.signal_len samples.

    Samples past the last full frame are zero; interior samples of an
    unmodified round trip match the input to ~1e-15 relative error.
    """
    spectra = spec.magnitudes * np.exp(1j * spec.phases)
    frames_td = np.fft.irfft(spectra, n=FFT_LEN, axis=1)[:, :FRAME_LEN]
    return Signal(wola(frames_td, spec.grid.signal_len))
