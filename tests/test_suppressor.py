import dataclasses
import math

import numpy as np
import pytest

import oracles
import reseval as rv
from conftest import batch_metric_means, make_scene_batch
from reseval import LossInputs, SuppressorConfig, beta_schedule, loss_j, oracle_suppress
from reseval.suppressor import MIN_GAIN, _percentile_20, _smooth_frames, frame_gains, gain_tracks


class TestConfig:
    def test_defaults(self):
        cfg = SuppressorConfig()
        assert cfg.beta == 1.0 and MIN_GAIN == 0.02

    @pytest.mark.parametrize("beta", [0.5, 0.0, -1.0, float("nan")])
    def test_beta_validated(self, beta):
        with pytest.raises(ValueError, match="beta"):
            SuppressorConfig(beta=beta)


class TestLoss:
    def test_zero_error_zero_alpha(self):
        s = np.abs(np.random.default_rng(0).standard_normal((5, 7)))
        assert loss_j(LossInputs(predicted=s, target=s, alpha=0.0)) == 0.0

    def test_ones_alpha_one(self):
        shape = (6, 9)
        ones = np.ones(shape)
        value = loss_j(LossInputs(predicted=ones, target=ones, alpha=1.0))
        assert value == pytest.approx(ones.size, abs=1e-12)

    def test_zero_prediction(self):
        rng = np.random.default_rng(1)
        target = np.abs(rng.standard_normal((4, 8)))
        value = loss_j(LossInputs(predicted=np.zeros_like(target), target=target, alpha=0.5))
        assert value == pytest.approx(float(np.sum(target**2)), rel=1e-12)

    def test_alpha_one_general(self):
        rng = np.random.default_rng(2)
        s = np.abs(rng.standard_normal((10, 16)))
        value = loss_j(LossInputs(predicted=s, target=s, alpha=1.0))
        expected = float(np.sum(s**2)) + 0.1 * float(np.var(s))
        assert value == pytest.approx(expected, abs=1e-9)

    def test_discontinuity_at_zero(self):
        rng = np.random.default_rng(3)
        pred = np.abs(rng.standard_normal((8, 8)))
        targ = np.abs(rng.standard_normal((8, 8)))
        at_zero = loss_j(LossInputs(predicted=pred, target=targ, alpha=0.0))
        tiny = loss_j(LossInputs(predicted=pred, target=targ, alpha=1e-300))
        jump = tiny - at_zero - 1e-300 * float(np.sum(pred**2))
        assert jump == pytest.approx(0.1 * float(np.var(pred)), rel=1e-12)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(4)
        pred = np.abs(rng.standard_normal((8, 8)))
        targ = np.abs(rng.standard_normal((8, 8)))
        values = [loss_j(LossInputs(predicted=pred, target=targ, alpha=a)) for a in np.linspace(0, 2, 10)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pred = np.abs(rng.standard_normal((4, 6)))
            targ = np.abs(rng.standard_normal((4, 6)))
            alpha = float(rng.uniform(0, 3))
            assert loss_j(LossInputs(predicted=pred, target=targ, alpha=alpha)) >= 0.0

    def test_validation(self):
        ones = np.ones((2, 3))
        with pytest.raises(ValueError, match="shape mismatch"):
            LossInputs(predicted=ones, target=np.ones((3, 2)), alpha=0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            LossInputs(predicted=-ones, target=ones, alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            LossInputs(predicted=ones, target=ones, alpha=-0.5)


class TestBetaSchedule:
    def test_zero_alpha(self):
        assert beta_schedule([0.0]) == [1.0]

    def test_affine_map(self):
        assert beta_schedule([0, 0.25, 0.5, 0.75, 1]) == [1.0, 4.75, 8.5, 12.25, 16.0]

    def test_non_ascending_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            beta_schedule([0.5, 0.25])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            beta_schedule([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            beta_schedule([-0.1, 0.5])


class TestOracleSuppress:
    def test_clean_input_passes_through(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16000) * 0.2
        sig = rv.Signal(x)
        out = oracle_suppress(gain_tracks(sig, sig), SuppressorConfig(beta=1.0))
        sl = slice(160, 99 * 160)
        err_db = 10 * math.log10(
            float(np.sum((out.samples[sl] - x[sl]) ** 2)) / float(np.sum(x[sl] ** 2))
        )
        assert err_db < -40.0

    def test_far_end_only_hits_floor(self):
        rng = np.random.default_rng(6)
        e = rv.Signal(rng.standard_normal(16000) * 0.2)
        tracks = gain_tracks(e, rv.Signal(np.zeros(16000)))
        out = oracle_suppress(tracks, SuppressorConfig(beta=1.0))
        erle_db = 10 * math.log10(float(e.samples @ e.samples) / float(out.samples @ out.samples))
        assert erle_db == pytest.approx(-20 * math.log10(MIN_GAIN), abs=0.5)

    def test_output_length_preserved(self):
        rng = np.random.default_rng(7)
        e = rv.Signal(rng.standard_normal(1000))
        s = rv.Signal(rng.standard_normal(1000) * 0.1)
        out = oracle_suppress(gain_tracks(e, s), SuppressorConfig())
        assert len(out) == 1000

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            gain_tracks(rv.Signal(np.ones(640)), rv.Signal(np.ones(320)))

    def test_shorter_than_one_frame_rejected(self):
        x = rv.Signal(np.ones(319))
        with pytest.raises(ValueError, match="shorter than one frame"):
            gain_tracks(x, x)

    def test_gain_bounds(self):
        batch = make_scene_batch(1, 600)
        comps, _ = batch[0]
        for beta in (1.0, 8.0, 16.0):
            gains = frame_gains(gain_tracks(comps.e, comps.s), SuppressorConfig(beta=beta))
            assert gains.min() >= MIN_GAIN
            assert gains.max() <= 1.0

    @staticmethod
    def random_pair(n, seed, e_scale=0.2):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(n) * 0.1
        return rv.Signal(s + rng.standard_normal(n) * e_scale), rv.Signal(s)

    def pairs(self):
        for comps, _ in make_scene_batch(2, 601):
            yield comps.e, comps.s
        for i, n in enumerate((320, 321, 479, 480, 481, 16001)):
            yield self.random_pair(n, 610 + i)
        yield rv.Signal(np.zeros(1000)), rv.Signal(np.zeros(1000))
        rng = np.random.default_rng(620)
        yield rv.Signal(rng.standard_normal(4000) * 1e-9), rv.Signal(np.zeros(4000))

    @pytest.mark.parametrize("beta", [1.0, 8.0, 16.0])
    def test_matches_stft_reference(self, beta):
        cfg = SuppressorConfig(beta=beta)
        for e, s in self.pairs():
            tracks = gain_tracks(e, s)
            out = oracle_suppress(tracks, cfg).samples
            ref = oracles.stft_gain_reference(e, frame_gains(tracks, cfg)).samples
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(e.samples))
            np.testing.assert_array_equal(out == 0.0, ref == 0.0)

    def test_beta_tradeoff_monotone_on_scene_mean(self):
        batch = make_scene_batch(3, 700)
        betas = beta_schedule([0.0, 0.25, 0.5, 0.75, 1.0])
        resl_means = []
        dsml_means = []
        for beta in betas:
            rows = batch_metric_means(batch, beta)
            resl_means.append(np.mean([r["resl"] for r in rows]))
            dsml_means.append(np.mean([r["dsml"] for r in rows]))
        assert all(b > a for a, b in zip(resl_means, resl_means[1:]))
        assert all(b < a for a, b in zip(dsml_means, dsml_means[1:]))

    def test_deterministic(self):
        batch = make_scene_batch(1, 800)
        comps, _ = batch[0]
        out1 = oracle_suppress(gain_tracks(comps.e, comps.s), SuppressorConfig(beta=4.0))
        out2 = oracle_suppress(gain_tracks(comps.e, comps.s), SuppressorConfig(beta=4.0))
        assert np.array_equal(out1.samples, out2.samples)


class TestGainTrackCache:
    def test_tracks_read_only_and_hold_their_e(self):
        """The tracks are the suppressor's only source of the scene, and nothing can change them."""
        (comps, _), = make_scene_batch(1, 900)
        tracks = gain_tracks(comps.e, comps.s)
        assert tracks.e is comps.e
        arrays = (tracks.ps, tracks.pr, tracks.collapse, tracks.jitter)
        assert all(not track.flags.writeable for track in arrays)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tracks.e = comps.s

    def test_signals_compare_and_hash_by_identity(self):
        a, b = rv.Signal(np.ones(4)), rv.Signal(np.ones(4))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestSmoothFrames:
    @pytest.mark.parametrize("size", range(1, 9))
    def test_edge_padded_hann_average(self, size):
        track = np.random.default_rng(size).uniform(0.0, 2.0, size)
        kernel = np.array([0.25, 0.75, 1.0, 0.75, 0.25]) / 3.0
        expected = [
            sum(w * track[min(max(i + j - 2, 0), size - 1)] for j, w in enumerate(kernel))
            for i in range(size)
        ]
        np.testing.assert_allclose(_smooth_frames(track), expected, rtol=1e-12, atol=0.0)


class TestPercentile20:
    @staticmethod
    def assert_same_bits(values):
        got, want = _percentile_20(values), float(np.percentile(values, 20))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (values.size, got, want)

    def test_matches_numpy_bit_for_bit(self):
        for size in [*range(1, 301), 999, 1000]:
            rng = np.random.default_rng(size)
            self.assert_same_bits(rng.uniform(0.0, 1.0, size))
            self.assert_same_bits(np.exp(rng.normal(0.0, 10.0, size)))  # energies spanning decades
            self.assert_same_bits(rng.integers(0, 4, size).astype(np.float64))  # ties
            self.assert_same_bits(np.full(size, rng.uniform()))  # constant
            self.assert_same_bits(np.zeros(size))

    def test_leaves_its_input_unsorted(self):
        values = np.random.default_rng(0).uniform(size=50)
        before = values.copy()
        _percentile_20(values)
        assert np.array_equal(values, before)


def test_oracle_suppress_holds_no_second_full_length_array():
    """Beyond its output, oracle_suppress allocates one block of gain_envelope's tail
    products, numpy's two ufunc buffers and a few frame-length gain tracks, whatever the
    signal's length: no second full-length temporary (tracemalloc)."""
    import tracemalloc

    from reseval.framing import ENVELOPE_BLOCK_ROWS, HOP, FrameGrid

    rng = np.random.default_rng(8)
    s = rng.standard_normal(30 * 16000) * 0.1
    tracks = gain_tracks(rv.Signal(s + rng.standard_normal(s.size) * 0.05), rv.Signal(s))
    config = SuppressorConfig(beta=8.0)
    oracle_suppress(tracks, config)
    tracemalloc.start()
    try:
        out = oracle_suppress(tracks, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_frames = FrameGrid(s.size).n_frames
    block = ENVELOPE_BLOCK_ROWS * HOP * 8
    ufunc_buffers = 2 * np.getbufsize() * 8
    assert peak <= out.samples.nbytes + block + ufunc_buffers + 8 * n_frames * 8, (peak, out.samples.nbytes)
