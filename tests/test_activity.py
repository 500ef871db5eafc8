import math

import numpy as np
import pytest

import oracles
from reseval import FrameLabel, Signal, classify, echo_reference
from reseval.activity import ActivityMask, frame_active
from reseval.audio import SceneComponents
from reseval.framing import FRAME_LEN, HOP, FrameGrid


def sine(n, freq=440.0, amp=1.0):
    t = np.arange(n) / 16000.0
    return amp * np.sin(2 * np.pi * freq * t)


class TestFrameActive:
    def test_all_zeros_inactive(self):
        sig = Signal(np.zeros(1600))
        assert not frame_active(sig).any()

    def test_full_scale_sine_active(self):
        sig = Signal(sine(1600))
        assert frame_active(sig, -50.0).all()

    def test_transition_matches_energy_rule(self):
        x = np.concatenate([np.zeros(800), sine(800)])
        active = frame_active(Signal(x), -50.0)
        assert active.shape == (FrameGrid(len(x)).n_frames,)
        for i in range(active.size):
            frame = x[i * HOP : i * HOP + FRAME_LEN]
            expected = 10 * math.log10(oracles.energy(frame) + 1e-12) > -50.0
            assert active[i] == expected


class TestClassify:
    def test_near_only(self):
        mask = classify(Signal(sine(1600)), Signal(np.zeros(1600)))
        assert all(lab is FrameLabel.NEAR_END for lab in mask.labels)

    def test_far_only(self):
        mask = classify(Signal(np.zeros(1600)), Signal(sine(1600)))
        assert all(lab is FrameLabel.FAR_END for lab in mask.labels)

    def test_double_talk(self):
        mask = classify(Signal(sine(1600)), Signal(sine(1600, 997.0)))
        assert all(lab is FrameLabel.DOUBLE_TALK for lab in mask.labels)

    def test_silence(self):
        mask = classify(Signal(np.zeros(1600)), Signal(np.zeros(1600)))
        assert all(lab is FrameLabel.SILENCE for lab in mask.labels)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            classify(Signal(np.zeros(1600)), Signal(np.zeros(800)))

    def test_partition(self):
        rng = np.random.default_rng(0)
        s = Signal(rng.standard_normal(8000) * (rng.random(8000) > 0.5))
        ref = Signal(rng.standard_normal(8000) * (rng.random(8000) > 0.5))
        mask = classify(s, ref)
        assert sum(mask.labels.count(label) for label in FrameLabel) == mask.grid.n_frames

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(1)
        s = Signal(rng.standard_normal(8000) * 0.01)
        ref = Signal(rng.standard_normal(8000) * 0.01)
        silent_prev = set()
        for threshold in (-80.0, -60.0, -40.0, -20.0, 0.0):
            mask = classify(s, ref, threshold)
            silent_now = {i for i, lab in enumerate(mask.labels) if lab is FrameLabel.SILENCE}
            assert silent_prev <= silent_now
            silent_prev = silent_now

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        s = Signal(rng.standard_normal(4800) * (rng.random(4800) > 0.3))
        ref = Signal(rng.standard_normal(4800) * (rng.random(4800) > 0.7))
        fwd = classify(s, ref)
        rev = classify(ref, s)
        swap = {
            FrameLabel.NEAR_END: FrameLabel.FAR_END,
            FrameLabel.FAR_END: FrameLabel.NEAR_END,
            FrameLabel.DOUBLE_TALK: FrameLabel.DOUBLE_TALK,
            FrameLabel.SILENCE: FrameLabel.SILENCE,
        }
        assert tuple(swap[lab] for lab in fwd.labels) == rev.labels


class TestMaskExtras:
    def test_indices(self):
        mask = classify(Signal(sine(960)), Signal(np.zeros(960)))
        assert mask.grid == FrameGrid(960)
        assert list(mask.indices(FrameLabel.NEAR_END)) == list(range(mask.grid.n_frames))
        assert mask.indices(FrameLabel.SILENCE).size == 0

    @pytest.mark.parametrize("label", ["double_talk", None, 3], ids=["label-value", "none", "code"])
    def test_rejects_label_that_is_no_frame_label(self, label):
        with pytest.raises(ValueError, match=f"^label {label!r} is not a FrameLabel$"):
            ActivityMask(labels=(FrameLabel.SILENCE, label), grid=FrameGrid(FRAME_LEN + HOP))

    def test_rejects_label_count_off_the_grid(self):
        with pytest.raises(ValueError, match="^1 labels for 2 frames$"):
            ActivityMask(labels=(FrameLabel.SILENCE,), grid=FrameGrid(FRAME_LEN + HOP))

    def test_echo_reference_prefers_y(self):
        n = 640
        s = Signal(np.ones(n) * 0.1)
        y = Signal(np.ones(n) * 0.2)
        e = Signal(np.ones(n) * 0.4)
        comps = SceneComponents(s=s, y=y, e=e)
        assert echo_reference(comps) is y

    def test_echo_reference_falls_back_to_residual(self):
        n = 640
        s = Signal(np.ones(n) * 0.1)
        e = Signal(np.ones(n) * 0.4)
        ref = echo_reference(SceneComponents(s=s, e=e))
        np.testing.assert_allclose(ref.samples, 0.3)

    def test_echo_reference_requires_e_or_y(self):
        with pytest.raises(ValueError, match="echo reference"):
            echo_reference(SceneComponents(s=Signal(np.ones(4))))
