"""Synthetic double-talk scene generation.

A scene is built from speech-shaped noise bursts (near end and far
end), a decaying synthetic room impulse response, a memoryless
saturation standing in for the loudspeaker nonlinearity, exact SER/SNR
scaling, and an NLMS linear echo canceller whose residual the
suppressor then has to deal with.  Everything is driven by one seed.
"""

from __future__ import annotations

import math
import os
import shutil
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from typing import get_args, get_type_hints

import numpy as np

# the FFT gufuncs behind np.fft, which write into an out buffer
from numpy.fft import _pocketfft_umath as _pocketfft

from .audio import SAMPLE_RATE, SceneComponents, Signal, frozen, load_wav, save_wav
from .common import _WAV_NAMES, write_json

# talk pattern: within each 2.5 s cycle the far end speaks during
# [0, 1.5) s and the near end during [1.0, 2.5) s, so the canceller
# converges on far-end-only audio before the first double-talk stretch
TALK_CYCLE_S = 2.5
NEAR_SPAN = (1.0, 2.5)
FAR_SPAN = (0.0, 1.5)
RAMP_S = 0.005

N_BANDS = 8
BAND_RANGE_HZ = (100.0, 7000.0)
GATE_SEGMENT_S = 0.125
GATE_OFF_LEVEL = 0.15
SOURCE_RMS = 0.1

_STREAM_NEAR = 0
_STREAM_FAR = 1
_STREAM_NOISE = 2
_STREAM_RIR = 3

# the echo path's overlap-add FFT length
OLA_FFT_LEN = 8192
# the canceller's block length, which is also its filter length, and its NLMS step size
AEC_TAPS = 512
AEC_STEP = 0.5


@dataclass(frozen=True)
class SceneSpec:
    """Generative parameters of one synthetic scene."""

    duration: float = 10.0
    seed: int = 0
    ser_db: float = 0.0
    snr_db: float = 30.0
    clip_hardness: float = 2.0
    t60: float = 0.2
    rir_len: int = 1600
    echo_path_change_at: float | None = None
    # the sources are read from these WAVs when both are set, else synthesised
    near_wav: str | None = None
    far_wav: str | None = None

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0 <= self.seed < 2**32:  # the RNG takes the seed as one 32-bit word
            raise ValueError(f"seed must be in [0, 2**32), got {self.seed}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not self.clip_hardness > 0:
            raise ValueError(f"clip_hardness must be > 0, got {self.clip_hardness}")
        if not self.t60 > 0:
            raise ValueError(f"t60 must be > 0, got {self.t60}")
        if self.rir_len < 1:
            raise ValueError(f"rir_len must be >= 1, got {self.rir_len}")
        if (self.near_wav is None) != (self.far_wav is None):
            raise ValueError("near_wav and far_wav must be set together")
        if self.echo_path_change_at is not None and not 0 < self.echo_path_change_at < self.duration:
            raise ValueError(
                f"echo_path_change_at must lie inside (0, duration), got {self.echo_path_change_at}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "SceneSpec":
        """The spec of a JSON object whose values each fit their field's declared type.

        A number is never a bool, lies in float range and, for an int field,
        is integral (1600.0 reads as 1600); None is taken only where declared.
        """
        if not isinstance(raw, dict):
            raise ValueError("invalid scene spec: must be a JSON object")
        hints = get_type_hints(cls)
        kwargs = {}
        for key, value in raw.items():
            if key not in hints:
                raise ValueError(f"invalid scene spec: unknown field {key!r}")
            kinds = get_args(hints[key]) or (hints[key],)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            try:  # float() of an int beyond float range overflows
                if number and int in kinds and float(value).is_integer():
                    value = int(value)
                elif number and float in kinds:
                    value = float(value)
                elif type(value) not in kinds:
                    raise ValueError
            except (ValueError, OverflowError):
                raise ValueError(f"invalid scene spec: field {key!r} has invalid value {value!r}") from None
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"invalid scene spec: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * SAMPLE_RATE))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def nonlinear_distort(x: Signal, hardness: float) -> Signal:
    """Memoryless loudspeaker saturation tanh(hardness*x)/hardness."""
    if not hardness > 0:
        raise ValueError(f"hardness must be > 0, got {hardness}")
    return Signal(frozen(np.tanh(hardness * x.samples) / hardness))


def synth_rir(spec: SceneSpec, variant: int = 0) -> np.ndarray:
    """Unit-energy exponentially decaying noise impulse response.

    The envelope exp(-3*ln(10)*t/t60) puts the tail 60 dB down at t60.
    Deterministic per (seed, variant).
    """
    rng = _rng(spec.seed, _STREAM_RIR + variant)
    t = np.arange(spec.rir_len) / SAMPLE_RATE
    envelope = np.exp(-3.0 * math.log(10.0) * t / spec.t60)
    rir = rng.standard_normal(spec.rir_len) * envelope
    energy = float(np.dot(rir, rir))
    if energy <= 0:
        raise ValueError("degenerate impulse response")
    return rir / math.sqrt(energy)


def _talk_envelope(n: int, span: tuple[float, float]) -> np.ndarray:
    """Periodic on/off envelope with raised-cosine ramps, one cycle repeated."""
    phase = np.arange(int(round(TALK_CYCLE_S * SAMPLE_RATE))) / SAMPLE_RATE
    start, stop = span
    ramp = RAMP_S
    env = np.zeros(phase.size)
    inside = (phase >= start) & (phase < stop)
    env[inside] = 1.0
    rise = (phase >= start) & (phase < start + ramp)
    env[rise] = 0.5 - 0.5 * np.cos(np.pi * (phase[rise] - start) / ramp)
    fall = (phase >= stop - ramp) & (phase < stop)
    env[fall] = 0.5 + 0.5 * np.cos(np.pi * (phase[fall] - (stop - ramp)) / ramp)
    return np.resize(env, n)


def _fft_length(n: int) -> int:
    """The least of 2^k, 3*2^k and 5*2^k that is >= n, a fast FFT length."""
    return min(m << (-(-n // m) - 1).bit_length() for m in (1, 3, 5))


def _rfft(x: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """np.fft.rfft(x, n), written into out (n // 2 + 1 bins).

    Calls numpy's FFT gufunc directly: for the canceller's short
    transforms the np.fft wrapper costs more than the transform.  The
    result is the same bit for bit.
    """
    return (_pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd)(x, 1.0, out=out)


def _irfft(spectrum: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """np.fft.irfft(spectrum, n), written into out (n samples); see _rfft."""
    return _pocketfft.irfft(spectrum, 1.0 / n, out=out)


def _fft_convolve(signal: np.ndarray, kernels: list[np.ndarray], stops: list[int]) -> np.ndarray:
    """Linear convolution of a 1-D signal with a response that switches
    over time: output samples stops[j - 1]:stops[j] (from 0 for j = 0) are
    those of the full convolution with kernels[j].

    By overlap-add in blocks of OLA_FFT_LEN points (more for a kernel
    longer than half of that), so no transform is signal-long.  A block's
    leading and trailing zeros are skipped and it adds only the output
    samples its nonzero input reaches, so the output is exactly 0 wherever
    the signal has been silent for a kernel's length.
    """
    out = np.zeros(stops[-1])
    lo = 0
    for kernel, hi in zip(kernels, stops, strict=True):
        taps = kernel.size
        n_fft = max(OLA_FFT_LEN, _fft_length(2 * taps - 1))
        kernel_spec = _rfft(kernel, n_fft, np.empty(n_fft // 2 + 1, dtype=np.complex128))
        spectrum = np.empty_like(kernel_spec)
        block = np.empty(n_fft)
        # a block of step inputs convolves into n_fft outputs
        step = n_fft - taps + 1
        for start in range(max(lo - taps + 1, 0), hi, step):
            nonzero = np.flatnonzero(signal[start : min(start + step, hi)])
            if nonzero.size == 0:
                continue
            first = start + nonzero[0]
            segment = signal[first : start + nonzero[-1] + 1]
            _rfft(segment, n_fft, spectrum)
            np.multiply(spectrum, kernel_spec, out=spectrum)
            _irfft(spectrum, n_fft, block)
            out_lo, out_hi = max(first, lo), min(first + segment.size + taps - 1, hi)
            out[out_lo:out_hi] += block[out_lo - first : out_hi - first]
        lo = hi
    return out


def _band_gates(n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The n_bands smooth gating patterns between GATE_OFF_LEVEL and 1, as
    an iterator of fresh (n,) rows built one at a time.

    Everything is drawn from rng in this call, before any row is built.
    """
    seg_len = int(GATE_SEGMENT_S * SAMPLE_RATE)
    n_segs = n // seg_len + 2
    states = rng.random((N_BANDS, n_segs)) < 0.5
    starts = range(0, n, seg_len)
    levels = np.where(states, 1.0, GATE_OFF_LEVEL)[:, : len(starts)]
    # 20 ms smoothing kernel removes gating clicks
    k = int(0.02 * SAMPLE_RATE)
    kernel = np.hanning(k)
    kernel /= kernel.sum()
    # a step gate convolved with the kernel is the level held since the
    # last step plus, over the k samples from each step on, the step's
    # jump times (cumsum(kernel) - 1); the steps are the rise at 0, every
    # segment boundary, and the fall to zero at n
    ramp = np.cumsum(kernel) - 1.0
    jumps = np.diff(levels, prepend=0.0, append=0.0)
    # output sample i is step-signal sample i + start (the "same" slice)
    start = (k - 1) // 2
    steps = [*starts, n]
    held_from = np.clip(np.array(steps) - start, 0, n)
    held_len = [*np.diff(held_from), n - held_from[-1]]

    def gate(b: int) -> np.ndarray:
        row = np.repeat(np.append(levels[b], 0.0), held_len)
        for pos, jump in zip(steps, jumps[b], strict=True):
            offset = pos - start
            lo, hi = max(offset, 0), min(offset + k, n)
            if lo < hi:
                row[lo:hi] += jump * ramp[lo - offset : hi - offset]
        return row

    return map(gate, range(N_BANDS))


def _speech_shaped_bursts(n: int, rng: np.random.Generator, span: tuple[float, float]) -> np.ndarray:
    """Pink-weighted band noise with per-band syllabic gating, gated by
    the talk-cycle envelope, normalized to SOURCE_RMS overall."""
    spectrum = _rfft(rng.standard_normal(n), n, np.empty(n // 2 + 1, dtype=np.complex128))
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    edges = np.geomspace(BAND_RANGE_HZ[0], BAND_RANGE_HZ[1], N_BANDS + 1)
    gates = _band_gates(n, rng)
    # freqs ascend, so the bins in [edges[b], edges[b + 1]) are one slice
    bounds = np.searchsorted(freqs, edges)
    del freqs

    # band b's spectrum is spectrum[:hi] with the bins below lo zeroed:
    # the transform zero-pads the bins past hi, and the bands run in
    # ascending order, zeroing their own bins once they are synthesised
    spectrum[: bounds[0]] = 0.0
    out = np.zeros(n)
    carrier = np.empty(n)
    for b, gate in enumerate(gates):
        lo, hi = bounds[b], bounds[b + 1]
        _irfft(spectrum[:hi], n, carrier)
        spectrum[lo:hi] = 0.0
        # out += (weight * gate) * carrier, in the gate's own memory
        gate *= 1.0 / math.sqrt(edges[b])
        gate *= carrier
        out += gate
    del spectrum, carrier, gate

    out *= _talk_envelope(n, span)
    rms = math.sqrt(float(np.dot(out, out)) / n)
    if rms <= 0:
        raise ValueError("generated source is silent")
    out *= SOURCE_RMS / rms
    return out


def _level_scale(es: float, energy: float, level_db: float, field: str) -> float:
    """The factor that puts this energy level_db dB below es; a factor of 0 or inf
    fails, naming field, and any other leaves the scaled signal finite and not all zero."""
    try:
        scale = math.sqrt(es * 10.0 ** (-level_db / 10.0) / energy)
    except OverflowError:  # 10 ** x beyond float range
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"{field} {level_db:g} dB is out of reach (scale factor {scale:g})")
    return scale


def mix_at_ser_snr(
    s: Signal, y_raw: Signal, w_raw: Signal, ser_db: float, snr_db: float
) -> SceneComponents:
    """Scale echo and noise so whole-signal SER and SNR hit the targets
    exactly, and form the microphone mix m = s + y + w."""
    if len(s) != len(y_raw) or len(s) != len(w_raw):
        raise ValueError("mix_at_ser_snr requires aligned signals")
    es = float(np.dot(s.samples, s.samples))
    ey = float(np.dot(y_raw.samples, y_raw.samples))
    ew = float(np.dot(w_raw.samples, w_raw.samples))
    if es <= 0:
        raise ValueError("cannot mix: s is silent")
    if ey <= 0:
        raise ValueError("cannot scale silent echo to an SER target")
    if ew <= 0:
        raise ValueError("cannot scale silent noise to an SNR target")
    y = y_raw.samples * _level_scale(es, ey, ser_db, "ser_db")
    w = w_raw.samples * _level_scale(es, ew, snr_db, "snr_db")
    y_sig = Signal(frozen(y))
    w_sig = Signal(frozen(w))
    m = np.add(s.samples, y)
    m += w
    return SceneComponents(s=s, y=y_sig, w=w_sig, m=Signal(frozen(m)))


def simulate_aec(m: Signal, x: Signal) -> tuple[Signal, Signal]:
    """Normalized LMS linear echo canceller driven by x predicting m.

    Implemented in the standard overlap-save frequency-domain block form
    (block length = AEC_TAPS, FFT length = 2*AEC_TAPS) with per-bin power
    normalization.  A background filter adapts every block; a frozen
    foreground filter produces the output and only takes the background
    weights when they demonstrably reduce the block error (double-talk
    robustness, as in two-path cancellers).  Returns (y_hat, e) with
    e = m - y_hat exactly.  A silent x leaves the filter at zero, so
    e = m.
    """
    if len(m) != len(x):
        raise ValueError("simulate_aec requires aligned m and x")
    taps = AEC_TAPS
    n = len(x)
    if n < taps:
        raise ValueError(f"signal of {n} samples is shorter than the canceller's {taps} taps")
    delta = 1e-8
    fft_len = 2 * taps
    bins = taps + 1
    n_blocks = (n + taps - 1) // taps
    x_in, m_in = x.samples, m.samples

    h_bg = np.zeros(bins, dtype=np.complex128)
    h_fg = np.zeros_like(h_bg)
    psd = np.zeros(bins)
    y_hat = np.empty(n)
    smooth = 0.5
    # per-block buffers: the input spectrum, a product of spectra, the
    # error spectrum, and one time-domain frame that holds the
    # predictions, the zero-padded error and the gradient in turn
    spec_x = np.empty_like(h_bg)
    prod = np.empty_like(h_bg)
    spec_err = np.empty_like(h_bg)
    frame = np.empty(fft_len)
    # block k reads x[start - taps : start + taps] and m[start : start + taps];
    # the first block starts before x and a last block may end past n, so
    # those two read zero-padded copies of interior blocks' lengths
    for k in range(n_blocks):
        start = k * taps
        blk_x = x_in[max(start - taps, 0) : start + taps]
        if blk_x.size < fft_len:
            lead = taps if k == 0 else 0
            blk_x = np.pad(blk_x, (lead, fft_len - lead - blk_x.size))
        blk_m = m_in[start : start + taps]
        if blk_m.size < taps:
            blk_m = np.pad(blk_m, (0, taps - blk_m.size))
        _rfft(blk_x, fft_len, spec_x)

        np.multiply(spec_x, h_fg, out=prod)
        pred_fg = _irfft(prod, fft_len, frame)[taps:]
        err_fg = blk_m - pred_fg
        y_hat[start : start + taps] = pred_fg[: n - start]

        np.multiply(spec_x, h_bg, out=prod)
        # the error replaces the prediction in the frame's second half
        err_bg = np.subtract(blk_m, _irfft(prod, fft_len, frame)[taps:], out=frame[taps:])
        e_fg = float(err_fg @ err_fg)
        e_bg = float(err_bg @ err_bg)
        e_m = float(blk_m @ blk_m)

        # NLMS update of the background, gradient constrained to a
        # causal taps-long impulse response
        psd = smooth * psd + (1.0 - smooth) * np.abs(spec_x) ** 2
        frame[:taps] = 0.0
        _rfft(frame, fft_len, spec_err)
        h_bg = h_bg + AEC_STEP * np.conj(spec_x) * spec_err / (psd + delta)
        grad = _irfft(h_bg, fft_len, frame)
        grad[taps:] = 0.0
        _rfft(grad, fft_len, h_bg)

        # take the background weights only on real echo reduction;
        # during double talk its error cannot drop far below the
        # microphone energy, which blocks poisoned copies
        if e_bg < 0.7 * e_fg and e_bg < 0.25 * e_m:
            h_fg = h_bg.copy()
        elif e_bg > 4.0 * e_fg:
            h_bg = h_fg.copy()
    return Signal(frozen(y_hat)), Signal(frozen(m_in - y_hat))


def generate_scene(spec: SceneSpec) -> SceneComponents:
    """Build a full labeled scene from one seed.

    Sources are synthetic bursts (or external WAVs of the spec's
    duration), the echo is the distorted far end through the synthetic
    room response, levels are scaled to the SER/SNR targets, and the
    NLMS canceller produces y_hat and e.
    """
    n = spec.n_samples
    if spec.near_wav is not None:
        s_raw = load_wav(spec.near_wav).samples
        x_raw = load_wav(spec.far_wav).samples
        for name, raw in (("near_wav", s_raw), ("far_wav", x_raw)):
            if len(raw) != n:
                raise ValueError(f"{name} has {len(raw)} samples, not the {n} of duration {spec.duration} s")
    else:
        # the talk pattern repeats every cycle, so its first cycle shows whether the near end talks
        if not _talk_envelope(min(n, round(TALK_CYCLE_S * SAMPLE_RATE)), NEAR_SPAN).any():
            raise ValueError(f"duration {spec.duration} s has no near-end talk: "
                             f"the near end starts talking at {NEAR_SPAN[0]} s")
        s_raw = _speech_shaped_bursts(n, _rng(spec.seed, _STREAM_NEAR), NEAR_SPAN)
        x_raw = _speech_shaped_bursts(n, _rng(spec.seed, _STREAM_FAR), FAR_SPAN)

    x_sig = Signal(frozen(x_raw))

    # the echo path switches to a second response at the change, if any
    rirs = [synth_rir(spec, variant=0)]
    stops = [n]
    if spec.echo_path_change_at is not None:
        rirs.append(synth_rir(spec, variant=1))
        stops.insert(0, int(round(spec.echo_path_change_at * SAMPLE_RATE)))
    y_raw = _fft_convolve(nonlinear_distort(x_sig, spec.clip_hardness).samples, rirs, stops)

    w_raw = _rng(spec.seed, _STREAM_NOISE).standard_normal(n)
    mixed = mix_at_ser_snr(Signal(frozen(s_raw)), Signal(frozen(y_raw)), Signal(frozen(w_raw)),
                           spec.ser_db, spec.snr_db)
    # the scaled copies are in mixed; free the raw ones before the canceller
    del y_raw, w_raw
    y_hat, e = simulate_aec(mixed.m, x_sig)
    return SceneComponents(
        s=mixed.s, x=x_sig, y=mixed.y, w=mixed.w, m=mixed.m, y_hat=y_hat, e=e
    )


def achieved_levels(components: SceneComponents) -> dict:
    """Whole-signal SER/SNR of a scene's components, for each of y and w that is set (and not silent)."""
    es = float(np.dot(components.s.samples, components.s.samples))
    out = {}
    for key, sig in (("ser_db", components.y), ("snr_db", components.w)):
        if sig is not None:
            out[key] = 10.0 * math.log10(es / float(np.dot(sig.samples, sig.samples)))
    return out


def save_scene(components: SceneComponents, spec: SceneSpec, out_dir) -> dict:
    """Persist a scene as a new directory of WAVs plus a JSON sidecar, all
    or nothing: an out_dir that exists raises FileExistsError, and a write
    that fails removes the directory.

    Returns the sidecar dict (spec fields and achieved SER/SNR).
    """
    os.makedirs(out_dir)
    try:
        for name, sig in components.present().items():
            save_wav(sig, os.path.join(out_dir, _WAV_NAMES[name]))
        sidecar = {"spec": spec.to_dict(), "achieved": achieved_levels(components)}
        write_json(os.path.join(out_dir, "scene.json"), sidecar)
    except BaseException:
        shutil.rmtree(out_dir)
        raise
    return sidecar
