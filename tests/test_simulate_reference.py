"""The scene generator against a verbatim copy of its earlier, whole-array form.

The generator builds one band gate and one canceller block spectrum at a
time, synthesises each band from the noise spectrum's own buffer, reads
the canceller's interior blocks as views, and calls numpy's FFT gufuncs
directly.  None of that may change a sample: the sources, x, w and the
canceller alone are compared with np.array_equal against the
reference implementations below, which materialise the (n_bands, n) gate
matrix, copy each band's bins into a spectrum of their own, pad the
canceller's inputs and batch its block spectra through np.fft.

The echo path is the one stage whose numbers change.  The reference
convolves with one signal-length FFT; the generator convolves by
overlap-add in short blocks, so its rounding differs.  y, and the m,
y_hat and e formed from it, must stay within SCENE_TOL of the reference
signal's peak (12 ten-second scenes read at most 3.3e-15).  The echo path
itself is checked against np.convolve to within ECHO_TOL of its peak.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from reseval import SceneSpec, Signal, generate_scene, mix_at_ser_snr
from reseval import simulate
from reseval.audio import SAMPLE_RATE, load_wav, save_wav
from reseval.simulate import (
    AEC_STEP,
    AEC_TAPS,
    BAND_RANGE_HZ,
    FAR_SPAN,
    GATE_OFF_LEVEL,
    GATE_SEGMENT_S,
    N_BANDS,
    NEAR_SPAN,
    OLA_FFT_LEN,
    SOURCE_RMS,
    _fft_convolve,
    _fft_length,
    _rng,
    _speech_shaped_bursts,
    _STREAM_FAR,
    _STREAM_NEAR,
    _STREAM_NOISE,
    _talk_envelope,
    nonlinear_distort,
    simulate_aec,
    synth_rir,
)

# largest |deviation| allowed, as a fraction of the reference's peak
SCENE_TOL = 1e-14
ECHO_TOL = 2e-15
EXACT = ("s", "x", "w")


def band_gates_reference(n, rng):
    seg_len = int(GATE_SEGMENT_S * SAMPLE_RATE)
    n_segs = n // seg_len + 2
    states = rng.random((N_BANDS, n_segs)) < 0.5
    starts = range(0, n, seg_len)
    levels = np.where(states, 1.0, GATE_OFF_LEVEL)[:, : len(starts)]
    k = int(0.02 * SAMPLE_RATE)
    kernel = np.hanning(k)
    kernel /= kernel.sum()
    ramp = np.cumsum(kernel) - 1.0
    jumps = np.diff(levels, prepend=0.0, append=0.0)
    start = (k - 1) // 2
    steps = [*starts, n]
    held_from = np.clip(np.array(steps) - start, 0, n)
    gates = np.repeat(np.hstack([levels, np.zeros((N_BANDS, 1))]),
                      [*np.diff(held_from), n - held_from[-1]], axis=1)
    for pos, jump in zip(steps, jumps.T, strict=True):
        offset = pos - start
        lo, hi = max(offset, 0), min(offset + k, n)
        if lo < hi:
            gates[:, lo:hi] += jump[:, None] * ramp[lo - offset : hi - offset]
    return gates


def speech_shaped_bursts_reference(n, rng, span):
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    edges = np.geomspace(BAND_RANGE_HZ[0], BAND_RANGE_HZ[1], N_BANDS + 1)
    gates = band_gates_reference(n, rng)
    bounds = np.searchsorted(freqs, edges)
    out = np.zeros(n)
    band = np.zeros_like(spectrum)
    for b in range(N_BANDS):
        lo, hi = bounds[b], bounds[b + 1]
        band[lo:hi] = spectrum[lo:hi]
        carrier = np.fft.irfft(band, n=n)
        band[lo:hi] = 0.0
        weight = 1.0 / math.sqrt(edges[b])
        out += weight * gates[b] * carrier
    out *= _talk_envelope(n, span)
    rms = math.sqrt(float(np.dot(out, out)) / n)
    return out * (SOURCE_RMS / rms)


def echo_reference(x_nl, spec):
    n = x_nl.size
    rirs = [synth_rir(spec, variant=0)]
    switch = n
    if spec.echo_path_change_at is not None:
        rirs.append(synth_rir(spec, variant=1))
        switch = int(round(spec.echo_path_change_at * SAMPLE_RATE))
    kernels = np.stack(rirs)
    full = x_nl.size + kernels.shape[-1] - 1
    n_fft = _fft_length(full)
    spectrum = np.fft.rfft(x_nl, n_fft) * np.fft.rfft(kernels, n_fft)
    echoes = np.fft.irfft(spectrum, n_fft)[..., :full][:, :n]
    return np.concatenate([echoes[0, :switch], echoes[-1, switch:]])


def simulate_aec_reference(m, x):
    taps = AEC_TAPS
    n = len(x)
    mu = AEC_STEP
    delta = 1e-8
    fft_len = 2 * taps
    n_blocks = (n + taps - 1) // taps
    padded = n_blocks * taps
    xs = np.concatenate([np.zeros(taps), x.samples, np.zeros(padded - n)])
    ms = np.concatenate([m.samples, np.zeros(padded - n)])
    spectra = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(xs, fft_len)[::taps])
    powers = np.abs(spectra) ** 2
    h_bg = np.zeros(fft_len // 2 + 1, dtype=np.complex128)
    h_fg = np.zeros_like(h_bg)
    psd = np.zeros(fft_len // 2 + 1)
    y_hat = np.empty(padded)
    smooth = 0.5
    for k in range(n_blocks):
        start = k * taps
        spec_x = spectra[k]
        blk_m = ms[start : start + taps]
        pred_fg = np.fft.irfft(spec_x * h_fg)[taps:]
        err_fg = blk_m - pred_fg
        y_hat[start : start + taps] = pred_fg
        pred_bg = np.fft.irfft(spec_x * h_bg)[taps:]
        err_bg = blk_m - pred_bg
        psd = smooth * psd + (1.0 - smooth) * powers[k]
        spec_err = np.fft.rfft(np.concatenate([np.zeros(taps), err_bg]))
        h_bg = h_bg + mu * np.conj(spec_x) * spec_err / (psd + delta)
        grad = np.fft.irfft(h_bg)
        grad[taps:] = 0.0
        h_bg = np.fft.rfft(grad)
        e_fg = float(err_fg @ err_fg)
        e_bg = float(err_bg @ err_bg)
        e_m = float(blk_m @ blk_m)
        if e_bg < 0.7 * e_fg and e_bg < 0.25 * e_m:
            h_fg = h_bg.copy()
        elif e_bg > 4.0 * e_fg:
            h_bg = h_fg.copy()
    y_hat = y_hat[:n]
    return y_hat, m.samples - y_hat


def generate_scene_reference(spec):
    if spec.near_wav is not None:
        s_raw = load_wav(spec.near_wav).samples
        x_raw = load_wav(spec.far_wav).samples
        n = len(s_raw)
    else:
        n = spec.n_samples
        s_raw = speech_shaped_bursts_reference(n, _rng(spec.seed, _STREAM_NEAR), NEAR_SPAN)
        x_raw = speech_shaped_bursts_reference(n, _rng(spec.seed, _STREAM_FAR), FAR_SPAN)
    x_sig = Signal(x_raw)
    y_raw = echo_reference(nonlinear_distort(x_sig, spec.clip_hardness).samples, spec)
    w_raw = _rng(spec.seed, _STREAM_NOISE).standard_normal(n)
    mixed = mix_at_ser_snr(Signal(s_raw), Signal(y_raw), Signal(w_raw), spec.ser_db, spec.snr_db)
    y_hat, e = simulate_aec_reference(mixed.m, x_sig)
    return {"s": mixed.s, "x": x_sig, "y": mixed.y, "w": mixed.w, "m": mixed.m, "y_hat": y_hat, "e": e}


def within(got, want, tol):
    """|got - want| <= tol * max|want| everywhere (so equal where want is all zero)."""
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def assert_same_scene(got, want):
    """s, x and w bit for bit; y and what is formed from it within SCENE_TOL."""
    assert set(got.present()) == set(want)
    for name, value in want.items():
        samples = value.samples if isinstance(value, Signal) else value
        if name in EXACT:
            assert np.array_equal(getattr(got, name).samples, samples), name
        else:
            assert within(getattr(got, name).samples, samples, SCENE_TOL), name


@pytest.mark.parametrize("n", [1, 7, 640, 1024, 1025])
def test_fft_helpers_match_np_fft(n):
    # inputs shorter and longer than n, so both zero-padding and cropping run
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(m) for m in (1, 700, 1100)):
        assert np.array_equal(simulate._rfft(x, n, np.empty(n // 2 + 1, dtype=complex)), np.fft.rfft(x, n))
    for z in (rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (1, 300, 600)):
        assert np.array_equal(simulate._irfft(z, n, np.empty(n)), np.fft.irfft(z, n))


class TestBursts:
    @pytest.mark.parametrize("span", [NEAR_SPAN, FAR_SPAN], ids=["near", "far"])
    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_matches_reference(self, seed, span):
        for n in (160000, 40001):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _speech_shaped_bursts(n, got_rng, span)
            assert np.array_equal(got, speech_shaped_bursts_reference(n, want_rng, span)), n
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSimulateAec:
    @pytest.mark.parametrize("n", [16000, 16000 + 300, 31 * 512, 512],
                             ids=["blocks", "partial-block", "exact-multiple", "n-equals-taps"])
    def test_matches_reference(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) * 0.1
        spec = SceneSpec(duration=n / SAMPLE_RATE, rir_len=400, t60=0.05)
        m = np.convolve(np.tanh(x), synth_rir(spec))[:n] + rng.standard_normal(n) * 0.01
        y_hat, e = simulate_aec(Signal(m), Signal(x))
        want_y_hat, want_e = simulate_aec_reference(Signal(m), Signal(x))
        assert np.array_equal(y_hat.samples, want_y_hat)
        assert np.array_equal(e.samples, want_e)


class TestGenerateScene:
    @pytest.mark.parametrize("spec", [
        SceneSpec(duration=10.0, seed=3, echo_path_change_at=6.0),
        SceneSpec(duration=10.0, seed=7, ser_db=-10.0),
        SceneSpec(duration=2.5, seed=1, ser_db=10.0, echo_path_change_at=1.25),
        SceneSpec(duration=1.03, seed=5, rir_len=700, t60=0.3),
    ], ids=["change", "no-change", "partial-last-block", "odd-length"])
    def test_matches_reference(self, spec):
        assert_same_scene(generate_scene(spec), generate_scene_reference(spec))

    def test_wav_source_mode(self, tmp_path):
        rng = np.random.default_rng(26)
        for name in ("near", "far"):
            save_wav(Signal(rng.standard_normal(24000) * 0.1), tmp_path / f"{name}.wav")
        spec = SceneSpec(duration=1.5, seed=2, echo_path_change_at=0.7,
                         near_wav=str(tmp_path / "near.wav"), far_wav=str(tmp_path / "far.wav"))
        assert_same_scene(generate_scene(spec), generate_scene_reference(spec))


class TestEchoPath:
    """_fft_convolve against np.convolve, one kernel per output span."""

    @staticmethod
    def reference(signal, kernels, stops):
        out = np.empty(stops[-1])
        lo = 0
        for kernel, hi in zip(kernels, stops, strict=True):
            out[lo:hi] = np.convolve(signal[:hi], kernel)[lo:hi]
            lo = hi
        return out

    @pytest.mark.parametrize("n,taps,changes", [
        (160000, 1600, []),
        (160000, 1600, [96000]),
        (160000, 1600, [700]),
        (160000, 1600, [2 * (OLA_FFT_LEN - 1600 + 1)]),
        (40000, 1, [17000]),
        (48000, 9000, [20000]),
        (5000, 1600, [2600]),
    ], ids=["no-change", "change-at-6s", "change-within-first-kernel", "change-on-block-boundary",
            "rir-len-1", "rir-len-9000", "shorter-than-a-block"])
    def test_matches_np_convolve(self, n, taps, changes):
        spec = SceneSpec(duration=n / SAMPLE_RATE, seed=n + taps, rir_len=taps)
        signal = np.tanh(2.0 * _speech_shaped_bursts(n, _rng(spec.seed, _STREAM_FAR), FAR_SPAN)) / 2.0
        # silent stretches longer than any kernel, so exact zeros must show
        signal[n // 2 : n // 2 + n // 5] = 0.0
        signal[-n // 10 :] = 0.0
        kernels = [synth_rir(spec, variant) for variant in range(len(changes) + 1)]
        stops = [*changes, n]
        got = _fft_convolve(signal, kernels, stops)
        want = self.reference(signal, kernels, stops)
        assert within(got, want, ECHO_TOL)
        # zero wherever the last taps inputs were all zero
        active = np.concatenate([[0], np.cumsum(signal != 0)])
        silent = active[1:] == active[np.maximum(np.arange(1, n + 1) - taps, 0)]
        assert np.all(got[silent] == 0.0)
        if n >= 40000:
            assert silent.any()

    def test_ten_second_path_peaks_at_its_output_plus_half_a_mib(self):
        spec = SceneSpec(duration=10.0, seed=3)
        signal = _speech_shaped_bursts(spec.n_samples, _rng(spec.seed, _STREAM_FAR), FAR_SPAN)
        kernels = [synth_rir(spec, 0), synth_rir(spec, 1)]
        gc.collect()
        tracemalloc.start()
        try:
            out = _fft_convolve(signal, kernels, [96000, spec.n_samples])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2**19, f"{(peak - out.nbytes) / 2**20:.2f} MiB above the output"


def test_second_scene_fits_in_11_mib():
    """One 10 s scene's outputs are 9 MB; the transient working set on top of them stays small."""
    spec = SceneSpec(duration=10.0, seed=3, echo_path_change_at=6.0)
    generate_scene(spec)
    gc.collect()
    tracemalloc.start()
    try:
        generate_scene(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20, f"{peak / 2**20:.1f} MiB"
