import numpy as np
import pytest

import oracles
from reseval import FrameLabel, Signal, classify, echo_reference
from reseval.activity import ActivityMask
from reseval.audio import SceneComponents
from reseval.framing import FRAME_LEN, HOP, FrameGrid


def sine(n, freq=440.0, amp=1.0):
    t = np.arange(n) / 16000.0
    return amp * np.sin(2 * np.pi * freq * t)


# whether (s, echo_ref) is active in a frame of each label
_ACTIVE = {FrameLabel.SILENCE: (False, False), FrameLabel.NEAR_END: (True, False),
           FrameLabel.FAR_END: (False, True), FrameLabel.DOUBLE_TALK: (True, True)}


def active(s, ref):
    """Per frame, whether s and ref are active, as classify labels them."""
    return [_ACTIVE[label] for label in classify(Signal(s), Signal(ref)).labels]


class TestFrameActive:
    def test_all_zeros_inactive(self):
        # beside a full-scale sine, whose level sets the reference
        assert active(np.zeros(1600), sine(1600)) == [(False, True)] * 9

    def test_full_scale_sine_active(self):
        # a sine 60 dB below the other is within the 61 dB range, one 62 dB below is not
        assert active(sine(1600), sine(1600, 997.0, 10 ** (-60 / 20))) == [(True, True)] * 9
        assert active(sine(1600), sine(1600, 997.0, 10 ** (-62 / 20))) == [(True, False)] * 9

    def test_transition_matches_energy_rule(self):
        rng = np.random.default_rng(3)
        # 9 frames, fewer than the reference rank, and 29 frames
        for n in (1600, 4800):
            s = np.concatenate([np.zeros(n // 2), sine(n - n // 2)])
            # decays by 100 dB, so it crosses the threshold
            ref = rng.standard_normal(n) * 10 ** np.linspace(0, -5, n)
            assert len(active(s, ref)) == FrameGrid(n).n_frames
            assert active(s, ref) == oracles.activity(s, ref)


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
