"""Activity labels follow the scene's own level.

classify labels each frame against a reference level taken from the
scene itself, so scaling every component of a scene by one gain leaves
its labels as they are, from -40 to +20 dB, with y or with e - s as the
echo reference.  The metrics are energy ratios, so they move only by
rounding, as long as the metrics' absolute floors (1e-12 energy, 1e-8
gain denominator) stay out of reach.  The reference level is the 10th
loudest frame, so one loud click does not set it.
"""

import numpy as np
import pytest

import reseval as rv
from reseval.audio import SceneComponents
from reseval.framing import FRAME_LEN, HOP

SPECS = [rv.SceneSpec(duration=5.0, seed=seed, ser_db=ser_db, echo_path_change_at=change)
         for seed, ser_db, change in ((11, -10.0, None), (12, 0.0, 2.5), (13, 10.0, None))]
# per-frame metrics of a scaled scene against the scene, dB; measured within 2e-11 dB
METRIC_TOL_DB = 1e-6
# the lowest gain at which the metrics hold, by echo reference.  With e - s, frames
# whose residual is tiny beside s count as double talk, with a DSML near 90 dB; at
# -40 dB its denominator falls below the 1e-12 energy floor, which reports the 120 dB
# clamp, so DSML moved by up to 32 dB there
METRICS_HOLD_FROM_DB = {"y": -40.0, "e-minus-s": -20.0}


@pytest.fixture(scope="module")
def scenes():
    """Each scene's s, y, w and e, with an s_hat of the reference suppressor."""
    out = []
    for spec in SPECS:
        c = rv.generate_scene(spec)
        s_hat = rv.oracle_suppress(rv.gain_tracks(c.e, c.s), rv.SuppressorConfig(beta=8.5))
        out.append(SceneComponents(s=c.s, y=c.y, w=c.w, e=c.e, s_hat=s_hat))
    return out


def scaled(components, gain_db, drop_y=False):
    gain = 10.0 ** (gain_db / 20.0)
    return SceneComponents(**{name: rv.Signal(sig.samples * gain) for name, sig in components.present().items()
                              if not (drop_y and name == "y")})


def scores(components):
    mask = rv.classify(components.s, rv.echo_reference(components))
    return mask.labels, rv.evaluate_scene(rv.scene_rows(components, mask), components.s_hat).values


@pytest.mark.parametrize("reference", ["y", "e-minus-s"])
@pytest.mark.parametrize("gain_db", [-40.0, -20.0, 20.0])
def test_labels_and_metrics_do_not_depend_on_level(scenes, gain_db, reference):
    drop_y = reference == "e-minus-s"
    for components in scenes:
        labels, values = scores(scaled(components, 0.0, drop_y))
        assert rv.FrameLabel.DOUBLE_TALK in labels
        scaled_labels, scaled_values = scores(scaled(components, gain_db, drop_y))
        assert scaled_labels == labels
        if gain_db < METRICS_HOLD_FROM_DB[reference]:
            continue
        for name, metric in values.items():
            np.testing.assert_allclose(scaled_values[name], metric, rtol=0, atol=METRIC_TOL_DB, err_msg=name)


@pytest.mark.parametrize("amplitude", [1.0, 10.0, 100.0])
def test_one_loud_click_does_not_silence_a_scene(scenes, amplitude):
    """A 20 ms burst in the echo changes the labels of the frames it overlaps, and no others."""
    start = 2 * 16000
    burst = amplitude * np.sin(2 * np.pi * 1000.0 * np.arange(FRAME_LEN) / 16000.0)
    for components in scenes:
        y = components.y.samples.copy()
        y[start : start + FRAME_LEN] += burst
        before = rv.classify(components.s, components.y).labels
        after = rv.classify(components.s, rv.Signal(y)).labels
        overlapped = range((start - FRAME_LEN) // HOP + 1, (start + FRAME_LEN - 1) // HOP + 1)
        assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b and i not in overlapped] == []
        assert all(after[i] in (rv.FrameLabel.FAR_END, rv.FrameLabel.DOUBLE_TALK) for i in overlapped)
