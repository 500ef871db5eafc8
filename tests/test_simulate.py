import errno
import json
import math

import numpy as np
import pytest

import reseval as rv
from reseval import (
    FrameLabel,
    SceneSpec,
    Signal,
    generate_scene,
    mix_at_ser_snr,
    nonlinear_distort,
    save_scene,
    simulate_aec,
    synth_rir,
)
from reseval.audio import SAMPLE_RATE
from reseval.batch import manifest_from_scenes
from reseval.simulate import (
    FAR_SPAN,
    GATE_OFF_LEVEL,
    GATE_SEGMENT_S,
    N_BANDS,
    NEAR_SPAN,
    RAMP_S,
    TALK_CYCLE_S,
    _WAV_NAMES,
    _band_gates,
    _fft_convolve,
    _fft_length,
    _talk_envelope,
    achieved_levels,
)


def band_gates_oracle(n, rng):
    """Step gates smoothed by direct np.convolve, with the mode="same" slice."""
    seg_len = int(GATE_SEGMENT_S * SAMPLE_RATE)
    states = rng.random((N_BANDS, n // seg_len + 2)) < 0.5
    steps = np.repeat(np.where(states, 1.0, GATE_OFF_LEVEL), seg_len, axis=1)[:, :n]
    k = int(0.02 * SAMPLE_RATE)
    kernel = np.hanning(k)
    kernel /= kernel.sum()
    start = (k - 1) // 2
    return np.stack([np.convolve(row, kernel)[start : start + n] for row in steps])


class TestSceneSpec:
    def test_defaults_valid(self):
        spec = SceneSpec()
        assert spec.n_samples == 160000

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("duration", 0.0, "duration"),
            ("clip_hardness", 0.0, "clip_hardness"),
            ("t60", -1.0, "t60"),
            ("rir_len", 0, "rir_len"),
            ("aec_taps", 0, "aec_taps"),
            ("aec_step", 1.5, "aec_step"),
            ("aec_passes", 0, "aec_passes"),
            ("source_mode", "tape", "source_mode"),
            ("echo_path_change_at", 99.0, "echo_path_change_at"),
        ],
    )
    def test_field_validation(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SceneSpec(**{field: value})

    def test_from_dict_unknown_field(self):
        with pytest.raises(ValueError, match="unknown field 'rir_length'"):
            SceneSpec.from_dict({"rir_length": 100})

    def test_from_dict_bad_value_names_field(self):
        with pytest.raises(ValueError, match="'ser_db'"):
            SceneSpec.from_dict({"ser_db": "loud"})

    def test_from_dict_nested_aec(self):
        spec = SceneSpec.from_dict({"aec": {"taps": 256, "step": 0.25}})
        assert spec.aec_taps == 256 and spec.aec_step == 0.25

    def test_roundtrip(self):
        spec = SceneSpec(duration=3.0, seed=5, ser_db=-5.0)
        assert SceneSpec.from_dict(spec.to_dict()) == spec


class TestNonlinearDistort:
    def test_small_hardness_is_identity(self):
        rng = np.random.default_rng(0)
        x = Signal(rng.uniform(-1, 1, 1000))
        out = nonlinear_distort(x, 1e-3)
        assert np.max(np.abs(out.samples - x.samples)) < 1e-4

    def test_zero_maps_to_zero(self):
        x = Signal(np.concatenate([[0.0], np.ones(9)]))
        assert nonlinear_distort(x, 2.0).samples[0] == 0.0

    def test_closed_form(self):
        out = nonlinear_distort(Signal(np.ones(4)), 2.0)
        np.testing.assert_allclose(out.samples, math.tanh(2.0) / 2.0)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 100)
        pos = nonlinear_distort(Signal(x), 3.0).samples
        neg = nonlinear_distort(Signal(-x), 3.0).samples
        np.testing.assert_allclose(pos, -neg)

    def test_hardness_validated(self):
        with pytest.raises(ValueError, match="hardness"):
            nonlinear_distort(Signal(np.ones(4)), 0.0)


class TestSynthRir:
    def test_unit_energy(self):
        rir = synth_rir(SceneSpec(seed=3))
        assert float(rir @ rir) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_per_seed(self):
        spec = SceneSpec(seed=4)
        assert np.array_equal(synth_rir(spec), synth_rir(spec))
        assert not np.array_equal(synth_rir(spec), synth_rir(SceneSpec(seed=5)))

    def test_variants_differ(self):
        spec = SceneSpec(seed=4)
        assert not np.array_equal(synth_rir(spec, variant=0), synth_rir(spec, variant=1))

    def test_decay_law(self):
        # ensemble-average energy envelope must drop 60 dB at t60
        spec = SceneSpec(t60=0.05, rir_len=1200)
        acc = np.zeros(spec.rir_len)
        for seed in range(100):
            rir = synth_rir(SceneSpec(t60=0.05, rir_len=1200, seed=seed))
            acc += rir * rir
        t60_idx = int(0.05 * 16000)
        head = acc[:40].mean()
        tail = acc[t60_idx : t60_idx + 40].mean()
        drop_db = 10 * math.log10(head / tail)
        assert drop_db == pytest.approx(60.0, abs=3.0)


class TestBandGates:
    # shorter than the kernel, shorter than one segment, one past a
    # segment, and an exact multiple of the segment with its neighbours
    LENGTHS = (100, 1000, 2001, 159999, 160000, 160001)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_direct_convolution(self, n):
        got = np.stack(list(_band_gates(n, np.random.default_rng(n))))
        want = band_gates_oracle(n, np.random.default_rng(n))
        assert got.shape == (N_BANDS, n)
        assert np.max(np.abs(got - want)) <= 1e-12

    # 100 samples have no interior: the kernel's half-width reaches
    # both ends
    @pytest.mark.parametrize("n", LENGTHS[1:])
    def test_interior_between_off_level_and_one(self, n):
        half = int(0.02 * SAMPLE_RATE) // 2
        for gate in _band_gates(n, np.random.default_rng(n + 1)):
            interior = gate[half : n - half]
            assert np.all(interior >= GATE_OFF_LEVEL - 1e-12)
            assert np.all(interior <= 1.0 + 1e-12)

    def test_same_rng_state_same_gates(self):
        a_rng, b_rng = np.random.default_rng(4), np.random.default_rng(4)
        a_gates = _band_gates(40000, a_rng)
        # it draws exactly what the oracle draws, and all of it before the
        # first row is built, so later draws from the same generator do
        # not shift
        oracle_rng = np.random.default_rng(4)
        band_gates_oracle(40000, oracle_rng)
        assert a_rng.bit_generator.state == oracle_rng.bit_generator.state
        assert np.array_equal(np.stack(list(a_gates)), np.stack(list(_band_gates(40000, b_rng))))


def talk_envelope_oracle(n, span):
    """The talk envelope sample by sample, from each sample's own time in the cycle."""
    start, stop = span
    env = np.zeros(n)
    for i in range(n):
        phase = math.fmod(i / SAMPLE_RATE, TALK_CYCLE_S)
        if start <= phase < start + RAMP_S:
            env[i] = 0.5 - 0.5 * math.cos(math.pi * (phase - start) / RAMP_S)
        elif stop - RAMP_S <= phase < stop:
            env[i] = 0.5 + 0.5 * math.cos(math.pi * (phase - (stop - RAMP_S)) / RAMP_S)
        elif start <= phase < stop:
            env[i] = 1.0
    return env


class TestTalkEnvelope:
    # inside the first cycle, one cycle and its neighbours, four cycles
    # and one past them
    @pytest.mark.parametrize("n", [100, 39999, 40000, 40001, 160000, 160001])
    @pytest.mark.parametrize("span", [NEAR_SPAN, FAR_SPAN])
    def test_matches_per_sample_formula(self, n, span):
        got = _talk_envelope(n, span)
        want = talk_envelope_oracle(n, span)
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestFftConvolve:
    @pytest.mark.parametrize("rir_len", [1, 1600])
    @pytest.mark.parametrize("n_kernels", [1, 2])
    @pytest.mark.parametrize("n", [1, 1000, 160000])
    def test_matches_direct_convolution(self, n, rir_len, n_kernels):
        rng = np.random.default_rng(n + rir_len)
        signal = rng.standard_normal(n)
        kernels = rng.standard_normal((n_kernels, rir_len))
        full = n + rir_len - 1
        # the response switches to the next kernel at evenly spaced samples
        stops = [full * (j + 1) // n_kernels for j in range(n_kernels)]
        got = _fft_convolve(signal, list(kernels), stops)
        want = np.concatenate([np.convolve(signal, k)[lo:hi] for k, lo, hi in zip(kernels, [0, *stops], stops)])
        assert got.shape == (full,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_length_is_least_fast_length(self):
        fast = sorted(m << k for m in (1, 3, 5) for k in range(20))
        for n in [*range(1, 2000), 262144, 262145]:
            assert _fft_length(n) == min(f for f in fast if f >= n), n
        # a 10 s scene convolved with a 1600-tap response
        assert _fft_length(160000 + 1600 - 1) == 163840


class TestMixer:
    def make_inputs(self, seed=0, n=8000):
        rng = np.random.default_rng(seed)
        return (
            Signal(rng.standard_normal(n) * 0.1),
            Signal(rng.standard_normal(n)),
            Signal(rng.standard_normal(n)),
        )

    def test_targets_hit_exactly(self):
        s, y_raw, w_raw = self.make_inputs()
        comps = mix_at_ser_snr(s, y_raw, w_raw, ser_db=-7.0, snr_db=23.0)
        achieved = achieved_levels(comps)
        assert achieved["ser_db"] == pytest.approx(-7.0, abs=1e-9)
        assert achieved["snr_db"] == pytest.approx(23.0, abs=1e-9)

    def test_equal_targets_equal_energy(self):
        s, y_raw, w_raw = self.make_inputs(1)
        comps = mix_at_ser_snr(s, y_raw, w_raw, 0.0, 0.0)
        es = float(s.samples @ s.samples)
        assert float(comps.y.samples @ comps.y.samples) == pytest.approx(es, rel=1e-9)
        assert float(comps.w.samples @ comps.w.samples) == pytest.approx(es, rel=1e-9)

    def test_minus_20_means_100x(self):
        s, y_raw, w_raw = self.make_inputs(2)
        comps = mix_at_ser_snr(s, y_raw, w_raw, -20.0, 0.0)
        es = float(s.samples @ s.samples)
        assert float(comps.y.samples @ comps.y.samples) == pytest.approx(100 * es, rel=1e-9)

    def test_mix_identity(self):
        s, y_raw, w_raw = self.make_inputs(3)
        comps = mix_at_ser_snr(s, y_raw, w_raw, 5.0, 15.0)
        np.testing.assert_array_equal(
            comps.m.samples, s.samples + comps.y.samples + comps.w.samples
        )

    def test_silent_echo_rejected(self):
        s, _, w_raw = self.make_inputs(4)
        with pytest.raises(ValueError, match="silent echo"):
            mix_at_ser_snr(s, Signal(np.zeros(len(s))), w_raw, 0.0, 0.0)

    def test_silent_noise_rejected(self):
        s, y_raw, _ = self.make_inputs(5)
        with pytest.raises(ValueError, match="silent noise"):
            mix_at_ser_snr(s, y_raw, Signal(np.zeros(len(s))), 0.0, 0.0)


class TestSimulateAec:
    def test_linear_convergence(self):
        n = 3 * 16000
        rng = np.random.default_rng(7)
        x = rng.standard_normal(n) * 0.1
        spec = SceneSpec(duration=3.0, seed=7, rir_len=400, t60=0.05)
        y = np.convolve(x, synth_rir(spec))[:n]
        _, e = simulate_aec(Signal(y), Signal(x), spec)
        q = slice(3 * n // 4, n)
        erle_db = 10 * math.log10(float(y[q] @ y[q]) / float(e.samples[q] @ e.samples[q]))
        assert erle_db >= 20.0

    def test_silent_reference(self):
        rng = np.random.default_rng(8)
        m = Signal(rng.standard_normal(16000) * 0.1)
        y_hat, e = simulate_aec(m, Signal(np.zeros(16000)), SceneSpec())
        assert np.all(y_hat.samples == 0.0)
        np.testing.assert_array_equal(e.samples, m.samples)

    def test_residual_identity_exact(self):
        rng = np.random.default_rng(9)
        n = 16000
        m = Signal(rng.standard_normal(n) * 0.2)
        x = Signal(rng.standard_normal(n) * 0.2)
        y_hat, e = simulate_aec(m, x, SceneSpec())
        np.testing.assert_array_equal(e.samples, m.samples - y_hat.samples)

    def test_taps_longer_than_signal_rejected(self):
        with pytest.raises(ValueError, match="aec_taps"):
            simulate_aec(Signal(np.zeros(100)), Signal(np.zeros(100)), SceneSpec())

    def test_echo_path_change_jump_then_decay(self):
        n = 5 * 16000
        rng = np.random.default_rng(10)
        x = rng.standard_normal(n) * 0.1
        spec = SceneSpec(duration=5.0, seed=10, rir_len=400, t60=0.05)
        y1 = np.convolve(x, synth_rir(spec, variant=0))[:n]
        y2 = np.convolve(x, synth_rir(spec, variant=1))[:n]
        switch = int(2.5 * 16000)
        y = np.concatenate([y1[:switch], y2[switch:]])
        _, e = simulate_aec(Signal(y), Signal(x), spec)

        def seg_energy(a, b):
            chunk = e.samples[int(a * 16000) : int(b * 16000)]
            return float(chunk @ chunk)

        before = seg_energy(2.0, 2.5)
        just_after = seg_energy(2.5, 3.0)
        settled = seg_energy(4.5, 5.0)
        assert just_after > 4.0 * before
        assert settled < 0.25 * just_after


class TestGenerateScene:
    def test_deterministic(self):
        spec = SceneSpec(duration=2.5, seed=21)
        a = generate_scene(spec)
        b = generate_scene(spec)
        for name, sig in a.present().items():
            assert np.array_equal(sig.samples, getattr(b, name).samples), name

    def test_pinned_scene(self):
        # energies and samples recorded from the scene generator before
        # the gate smoothing left the FFT; later refactors must not drift
        spec = SceneSpec(duration=2.5, seed=31, ser_db=-5.0, echo_path_change_at=1.25)
        comps = generate_scene(spec)
        energies = {
            "s": 400.0000000000001,
            "x": 400.0000000000001,
            "y": 1264.911064067352,
            "m": 1649.3757429353327,
            "e": 1133.7583085500926,
        }
        samples = {
            "s": {18000: -0.04809912334854924, 30000: 0.04307994201979514},
            "x": {5000: -0.04649246377328351, 12000: 0.06044097635474586},
            "y": {5000: -0.6990558214204236, 21000: 0.002583512385724788},
            "m": {8000: -0.08178899538251425, 21000: -0.029208684227006513, 30000: 0.04063200209952618},
            "e": {8000: -0.09868049258764891, 21000: -0.11859755157282502, 30000: 0.04063200209952618},
        }
        for name, energy in energies.items():
            got = getattr(comps, name).samples
            assert float(got @ got) == pytest.approx(energy, rel=1e-12, abs=0), name
            for idx, value in samples[name].items():
                assert got[idx] == pytest.approx(value, rel=1e-12, abs=0), (name, idx)

    def test_mix_identities_exact(self):
        comps = generate_scene(SceneSpec(duration=2.5, seed=22))
        mix_err = np.max(np.abs(comps.s.samples + comps.y.samples + comps.w.samples - comps.m.samples))
        res_err = np.max(np.abs(comps.m.samples - comps.y_hat.samples - comps.e.samples))
        assert mix_err <= 1e-6
        assert res_err <= 1e-6

    def test_levels_hit_targets(self):
        spec = SceneSpec(duration=2.5, seed=23, ser_db=4.0, snr_db=18.0)
        achieved = achieved_levels(generate_scene(spec))
        assert achieved["ser_db"] == pytest.approx(4.0, abs=1e-9)
        assert achieved["snr_db"] == pytest.approx(18.0, abs=1e-9)

    def test_all_conditions_present(self):
        comps = generate_scene(SceneSpec(duration=10.0, seed=24))
        grid = rv.make_grid(len(comps.s))
        mask = rv.classify(comps.s, rv.echo_reference(comps), grid)
        for label in (FrameLabel.DOUBLE_TALK, FrameLabel.NEAR_END, FrameLabel.FAR_END):
            assert mask.labels.count(label) >= 0.1 * grid.n_frames, label

    def test_nonlinearity_leaves_residual(self):
        # hardness >= 1: far-end-only residual well above -40 dB vs echo
        comps = generate_scene(SceneSpec(duration=2.5, seed=25, clip_hardness=1.0))
        r = comps.e.samples - comps.s.samples
        ratio = 10 * math.log10(float(r @ r) / float(comps.y.samples @ comps.y.samples))
        assert ratio > -40.0

    def test_wav_source_mode(self, tmp_path):
        rng = np.random.default_rng(26)
        near = tmp_path / "near.wav"
        far = tmp_path / "far.wav"
        rv.save_wav(Signal(rng.standard_normal(16000) * 0.1), near)
        rv.save_wav(Signal(rng.standard_normal(16000) * 0.1), far)
        spec = SceneSpec(duration=1.0, source_mode="wav", near_wav=str(near), far_wav=str(far))
        comps = generate_scene(spec)
        assert len(comps.s) == 16000
        np.testing.assert_array_equal(comps.x.samples, rv.load_wav(far).samples)

    def test_wav_mode_requires_paths(self):
        with pytest.raises(ValueError, match="near_wav"):
            SceneSpec(source_mode="wav")


class TestScenePersistence:
    def test_roundtrip(self, tmp_path):
        spec = SceneSpec(duration=2.5, seed=27)
        comps = generate_scene(spec)
        sidecar = save_scene(comps, spec, tmp_path / "scene")
        assert json.loads((tmp_path / "scene" / "scene.json").read_text()) == sidecar
        assert sidecar["achieved"]["ser_db"] == pytest.approx(spec.ser_db, abs=1e-9)
        wavs = sorted(p.name for p in (tmp_path / "scene").glob("*.wav"))
        assert wavs == sorted(_WAV_NAMES[name] for name in comps.present())
        for name, sig in comps.present().items():
            got = rv.load_wav(tmp_path / "scene" / _WAV_NAMES[name])
            assert np.max(np.abs(got.samples - sig.samples)) < 1e-6, name

    def test_sidecar_spec_roundtrips(self, tmp_path):
        spec = SceneSpec(duration=2.5, seed=28, ser_db=-3.0)
        save_scene(generate_scene(spec), spec, tmp_path / "scene")
        sidecar = json.loads((tmp_path / "scene" / "scene.json").read_text())
        assert SceneSpec.from_dict(sidecar["spec"]) == spec

    def test_failed_overwrite_leaves_no_sidecar(self, tmp_path, monkeypatch):
        spec = SceneSpec(duration=2.5, seed=29)
        comps = generate_scene(spec)
        for name in ("a", "b"):
            save_scene(comps, spec, tmp_path / name)
        written = []

        def third_write_fails(sig, path):
            written.append(path)
            if len(written) == 3:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            rv.audio.save_wav(sig, path)

        monkeypatch.setattr(rv.simulate, "save_wav", third_write_fails)
        with pytest.raises(OSError):
            save_scene(comps, spec, tmp_path / "a")
        assert not (tmp_path / "a" / "scene.json").exists()
        assert [entry.id for entry in manifest_from_scenes(tmp_path).entries] == ["b"]

    def test_missing_scene_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            manifest_from_scenes(tmp_path / "nope")
