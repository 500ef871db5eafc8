"""Synthetic double-talk scene generation.

A scene is built from speech-shaped noise bursts (near end and far
end), a decaying synthetic room impulse response, a memoryless
saturation standing in for the loudspeaker nonlinearity, exact SER/SNR
scaling, and an NLMS linear echo canceller whose residual the
suppressor then has to deal with.  Everything is driven by one seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .audio import (
    SAMPLE_RATE,
    SceneComponents,
    Signal,
    atomic_write_bytes,
    load_wav,
    save_wav,
)

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
    aec_taps: int = 512
    aec_step: float = 0.5
    aec_passes: int = 1
    source_mode: str = "synthetic"
    near_wav: str | None = None
    far_wav: str | None = None

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not np.isfinite(self.ser_db) or not np.isfinite(self.snr_db):
            raise ValueError("ser_db and snr_db must be finite")
        if not self.clip_hardness > 0:
            raise ValueError(f"clip_hardness must be > 0, got {self.clip_hardness}")
        if not self.t60 > 0:
            raise ValueError(f"t60 must be > 0, got {self.t60}")
        if self.rir_len < 1:
            raise ValueError(f"rir_len must be >= 1, got {self.rir_len}")
        if self.aec_taps < 1:
            raise ValueError(f"aec_taps must be >= 1, got {self.aec_taps}")
        if not 0.0 < self.aec_step <= 1.0:
            raise ValueError(f"aec_step must be in (0, 1], got {self.aec_step}")
        if self.aec_passes < 1:
            raise ValueError(f"aec_passes must be >= 1, got {self.aec_passes}")
        if self.source_mode not in ("synthetic", "wav"):
            raise ValueError(f"source_mode must be 'synthetic' or 'wav', got {self.source_mode!r}")
        if self.source_mode == "wav" and (self.near_wav is None or self.far_wav is None):
            raise ValueError("source_mode 'wav' requires near_wav and far_wav")
        if self.echo_path_change_at is not None and not 0 < self.echo_path_change_at < self.duration:
            raise ValueError(
                f"echo_path_change_at must lie inside (0, duration), got {self.echo_path_change_at}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "SceneSpec":
        if not isinstance(raw, dict):
            raise ValueError("scene spec must be a JSON object")
        data = dict(raw)
        aec = data.pop("aec", None)
        if aec is not None:
            if not isinstance(aec, dict):
                raise ValueError("field 'aec' must be an object")
            for key, target in (("taps", "aec_taps"), ("step", "aec_step"), ("passes", "aec_passes")):
                if key in aec:
                    data[target] = aec.pop(key)
            if aec:
                raise ValueError(f"unknown field 'aec.{sorted(aec)[0]}'")
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"unknown field {key!r}")
            try:
                if key in ("seed", "rir_len", "aec_taps", "aec_passes"):
                    value = int(value) if value is not None else None
                elif key in ("source_mode", "near_wav", "far_wav"):
                    value = None if value is None else str(value)
                elif key == "echo_path_change_at":
                    value = None if value is None else float(value)
                else:
                    value = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"field {key!r} has invalid value {value!r}") from None
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"invalid scene spec: {exc}") from None

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * SAMPLE_RATE))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, stream])


def nonlinear_distort(x: Signal, hardness: float) -> Signal:
    """Memoryless loudspeaker saturation tanh(hardness*x)/hardness."""
    if not hardness > 0:
        raise ValueError(f"hardness must be > 0, got {hardness}")
    return Signal(np.tanh(hardness * x.samples) / hardness)


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
    """Periodic on/off envelope with raised-cosine ramps."""
    t = np.arange(n) / SAMPLE_RATE
    phase = np.mod(t, TALK_CYCLE_S)
    start, stop = span
    ramp = RAMP_S
    env = np.zeros(n)
    inside = (phase >= start) & (phase < stop)
    env[inside] = 1.0
    rise = (phase >= start) & (phase < start + ramp)
    env[rise] = 0.5 - 0.5 * np.cos(np.pi * (phase[rise] - start) / ramp)
    fall = (phase >= stop - ramp) & (phase < stop)
    env[fall] = 0.5 + 0.5 * np.cos(np.pi * (phase[fall] - (stop - ramp)) / ramp)
    return env


def _fft_convolve(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full linear convolution of a 1-D signal with kernel."""
    n = signal.size + kernel.size - 1
    n_fft = 1 << (n - 1).bit_length()
    spectrum = np.fft.rfft(signal, n_fft) * np.fft.rfft(kernel, n_fft)
    return np.fft.irfft(spectrum, n_fft)[:n]


def _band_gates(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n_bands, n) smooth gating patterns between GATE_OFF_LEVEL and 1."""
    seg_len = int(GATE_SEGMENT_S * SAMPLE_RATE)
    n_segs = n // seg_len + 2
    states = rng.random((N_BANDS, n_segs)) < 0.5
    starts = range(0, n, seg_len)
    levels = np.where(states, 1.0, GATE_OFF_LEVEL)[:, : len(starts)]
    # 20 ms smoothing kernel removes gating clicks
    k = int(0.02 * SAMPLE_RATE)
    kernel = np.hanning(k)
    kernel /= kernel.sum()
    # a step gate convolved with the kernel is the running sum of one
    # kernel copy per step, scaled by its jump: the rise at 0, every
    # segment boundary, and the fall to zero at n
    jumps = np.diff(levels, prepend=0.0, append=0.0)
    steps = np.zeros((N_BANDS, n + k))
    for pos, jump in zip([*starts, n], jumps.T, strict=True):
        steps[:, pos : pos + k] += jump[:, None] * kernel
    start = (k - 1) // 2
    return np.cumsum(steps, axis=1)[:, start : start + n]


def _speech_shaped_bursts(n: int, rng: np.random.Generator, span: tuple[float, float]) -> np.ndarray:
    """Pink-weighted band noise with per-band syllabic gating, gated by
    the talk-cycle envelope, normalized to SOURCE_RMS overall."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    edges = np.geomspace(BAND_RANGE_HZ[0], BAND_RANGE_HZ[1], N_BANDS + 1)
    gates = _band_gates(n, rng)

    out = np.zeros(n)
    for b in range(N_BANDS):
        mask = (freqs >= edges[b]) & (freqs < edges[b + 1])
        carrier = np.fft.irfft(spectrum * mask, n=n)
        weight = 1.0 / math.sqrt(edges[b])
        out += weight * gates[b] * carrier

    out *= _talk_envelope(n, span)
    rms = math.sqrt(float(np.dot(out, out)) / n)
    if rms <= 0:
        raise ValueError("generated source is silent")
    return out * (SOURCE_RMS / rms)


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
    y = y_raw.samples * math.sqrt(es * 10.0 ** (-ser_db / 10.0) / ey)
    w = w_raw.samples * math.sqrt(es * 10.0 ** (-snr_db / 10.0) / ew)
    y_sig = Signal(y)
    w_sig = Signal(w)
    m = Signal(s.samples + y + w)
    return SceneComponents(s=s, y=y_sig, w=w_sig, m=m)


def simulate_aec(m: Signal, x: Signal, spec: SceneSpec) -> tuple[Signal, Signal]:
    """Normalized LMS linear echo canceller driven by x predicting m.

    Implemented in the standard overlap-save frequency-domain block form
    (block length = taps, FFT length = 2*taps) with per-bin power
    normalization.  A background filter adapts every block; a frozen
    foreground filter produces the output and only takes the background
    weights when they demonstrably reduce the block error (double-talk
    robustness, as in two-path cancellers).  Returns (y_hat, e) with
    e = m - y_hat exactly.  A silent x leaves the filter at zero, so
    e = m.
    """
    if len(m) != len(x):
        raise ValueError("simulate_aec requires aligned m and x")
    taps = spec.aec_taps
    if taps > len(x):
        raise ValueError(f"aec_taps {taps} exceeds signal length {len(x)}")
    n = len(x)
    mu = spec.aec_step
    delta = 1e-8
    fft_len = 2 * taps
    n_blocks = (n + taps - 1) // taps
    padded = n_blocks * taps
    xs = np.concatenate([np.zeros(taps), x.samples, np.zeros(padded - n)])
    ms = np.concatenate([m.samples, np.zeros(padded - n)])

    # the block spectra do not depend on the filter state
    spectra = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(xs, fft_len)[::taps])
    powers = np.abs(spectra) ** 2

    h_bg = np.zeros(fft_len // 2 + 1, dtype=np.complex128)
    h_fg = np.zeros_like(h_bg)
    psd = np.zeros(fft_len // 2 + 1)
    y_hat = np.empty(padded)
    smooth = 0.5
    for _ in range(spec.aec_passes):
        for k in range(n_blocks):
            start = k * taps
            spec_x = spectra[k]
            blk_m = ms[start : start + taps]

            pred_fg = np.fft.irfft(spec_x * h_fg)[taps:]
            err_fg = blk_m - pred_fg
            y_hat[start : start + taps] = pred_fg

            pred_bg = np.fft.irfft(spec_x * h_bg)[taps:]
            err_bg = blk_m - pred_bg

            # NLMS update of the background, gradient constrained to a
            # causal taps-long impulse response
            psd = smooth * psd + (1.0 - smooth) * powers[k]
            spec_err = np.fft.rfft(np.concatenate([np.zeros(taps), err_bg]))
            h_bg = h_bg + mu * np.conj(spec_x) * spec_err / (psd + delta)
            grad = np.fft.irfft(h_bg)
            grad[taps:] = 0.0
            h_bg = np.fft.rfft(grad)

            # take the background weights only on real echo reduction;
            # during double talk its error cannot drop far below the
            # microphone energy, which blocks poisoned copies
            e_fg = float(err_fg @ err_fg)
            e_bg = float(err_bg @ err_bg)
            e_m = float(blk_m @ blk_m)
            if e_bg < 0.7 * e_fg and e_bg < 0.25 * e_m:
                h_fg = h_bg.copy()
            elif e_bg > 4.0 * e_fg:
                h_bg = h_fg.copy()
    y_hat = y_hat[:n]
    return Signal(y_hat), Signal(m.samples - y_hat)


def generate_scene(spec: SceneSpec) -> SceneComponents:
    """Build a full labeled scene from one seed.

    Sources are synthetic bursts (or external WAVs), the echo is the
    distorted far end through the synthetic room response, levels are
    scaled to the SER/SNR targets, and the NLMS canceller produces
    y_hat and e.
    """
    if spec.source_mode == "wav":
        s_raw = load_wav(spec.near_wav).samples
        x_raw = load_wav(spec.far_wav).samples
        if len(s_raw) != len(x_raw):
            raise ValueError("near_wav and far_wav must have equal length")
        n = len(s_raw)
    else:
        n = spec.n_samples
        s_raw = _speech_shaped_bursts(n, _rng(spec.seed, _STREAM_NEAR), NEAR_SPAN)
        x_raw = _speech_shaped_bursts(n, _rng(spec.seed, _STREAM_FAR), FAR_SPAN)

    x_sig = Signal(x_raw)
    x_nl = nonlinear_distort(x_sig, spec.clip_hardness)

    rir = synth_rir(spec, variant=0)
    y_raw = _fft_convolve(x_nl.samples, rir)[:n]
    if spec.echo_path_change_at is not None:
        rir2 = synth_rir(spec, variant=1)
        y_alt = _fft_convolve(x_nl.samples, rir2)[:n]
        switch = int(round(spec.echo_path_change_at * SAMPLE_RATE))
        y_raw = np.concatenate([y_raw[:switch], y_alt[switch:]])

    w_raw = _rng(spec.seed, _STREAM_NOISE).standard_normal(n)
    mixed = mix_at_ser_snr(Signal(s_raw), Signal(y_raw), Signal(w_raw), spec.ser_db, spec.snr_db)
    y_hat, e = simulate_aec(mixed.m, x_sig, spec)
    return SceneComponents(
        s=mixed.s, x=x_sig, y=mixed.y, w=mixed.w, m=mixed.m, y_hat=y_hat, e=e
    )


def achieved_levels(components: SceneComponents) -> dict:
    """Whole-signal SER/SNR of a scene's components."""
    out = {}
    es = float(np.dot(components.s.samples, components.s.samples))
    if components.y is not None:
        ey = float(np.dot(components.y.samples, components.y.samples))
        out["ser_db"] = 10.0 * math.log10(es / ey) if ey > 0 else float("inf")
    if components.w is not None:
        ew = float(np.dot(components.w.samples, components.w.samples))
        out["snr_db"] = 10.0 * math.log10(es / ew) if ew > 0 else float("inf")
    return out


_WAV_NAMES = {
    "s": "s.wav",
    "x": "x.wav",
    "y": "y.wav",
    "w": "w.wav",
    "m": "m.wav",
    "y_hat": "yhat.wav",
    "e": "e.wav",
    "s_hat": "shat.wav",
}


def save_scene(components: SceneComponents, spec: SceneSpec, out_dir) -> dict:
    """Persist a scene as a directory of WAVs plus a JSON sidecar.

    Returns the sidecar dict (spec fields and achieved SER/SNR).
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, sig in components.present().items():
        save_wav(sig, os.path.join(out_dir, _WAV_NAMES[name]))
    sidecar = {"spec": spec.to_dict(), "achieved": achieved_levels(components)}
    blob = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(os.path.join(out_dir, "scene.json"), blob.encode())
    return sidecar


def load_scene(scene_dir) -> tuple[SceneComponents, dict]:
    """Load a persisted scene directory back into components + sidecar."""
    sidecar_path = os.path.join(scene_dir, "scene.json")
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    loaded = {}
    for name, fname in _WAV_NAMES.items():
        path = os.path.join(scene_dir, fname)
        if os.path.exists(path):
            loaded[name] = load_wav(path)
    if "s" not in loaded:
        raise FileNotFoundError(f"{scene_dir}: missing s.wav")
    return SceneComponents(**loaded), sidecar
