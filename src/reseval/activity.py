"""Per-frame condition labels: double-talk, single-talk, silence.

Labels are a pure function of the ground-truth components, one per frame
of the signals' FrameGrid, relative to the scene's own level as ITU-T
P.56's active speech level is, so a scaled scene gets the same labels.
Noise is ignored for labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio import ENERGY_FLOOR, Signal, frozen
from .framing import FrameGrid

# a frame is active when its energy is above the scene's reference level less this many dB
ACTIVITY_RANGE_DB = 61.0
# the reference level is the REFERENCE_RANK-th largest frame energy, so a few loud clicks do not set it
REFERENCE_RANK = 10


class FrameLabel(str, Enum):
    DOUBLE_TALK = "double_talk"
    NEAR_END = "near_end_single_talk"
    FAR_END = "far_end_single_talk"
    SILENCE = "silence"


# the label of code near + 2*far, where near/far say whether s/echo_ref are active
_LABEL_OF_CODE = (FrameLabel.SILENCE, FrameLabel.NEAR_END, FrameLabel.FAR_END, FrameLabel.DOUBLE_TALK)


@dataclass(frozen=True)
class ActivityMask:
    """One FrameLabel per frame of the grid."""

    labels: tuple[FrameLabel, ...]
    grid: FrameGrid

    def __post_init__(self):
        if len(self.labels) != self.grid.n_frames:
            raise ValueError(f"{len(self.labels)} labels for {self.grid.n_frames} frames")
        for label in self.labels:
            if not isinstance(label, FrameLabel):
                raise ValueError(f"label {label!r} is not a FrameLabel")

    def indices(self, label: FrameLabel) -> np.ndarray:
        return np.flatnonzero([lab == label for lab in self.labels])


def classify(s: Signal, echo_ref: Signal) -> ActivityMask:
    """Label each frame of FrameGrid(len(s)) from near-end speech and an echo-side reference.

    A frame of s or echo_ref is active when its energy (summed squared
    amplitude) is above ENERGY_FLOOR and within ACTIVITY_RANGE_DB of the
    scene's level: the REFERENCE_RANK-th largest, over frames, of the
    larger of the two energies (the smallest on a shorter grid).
    DoubleTalk iff both are active, NearEndST iff only s, FarEndST iff
    only echo_ref, Silence otherwise.
    """
    if len(s) != len(echo_ref):
        raise ValueError(
            f"length mismatch: s has {len(s)} samples, echo_ref {len(echo_ref)}"
        )
    grid = FrameGrid(len(s))
    energies = [np.einsum("ij,ij->i", frames, frames)
                for frames in (grid.frame_matrix(s.samples), grid.frame_matrix(echo_ref.samples))]
    louder = np.maximum(*energies)
    level = np.sort(louder)[-min(REFERENCE_RANK, louder.size)]
    threshold = max(ENERGY_FLOOR, level * 10.0 ** (-ACTIVITY_RANGE_DB / 10.0))
    near, far = (e > threshold for e in energies)
    labels = tuple(_LABEL_OF_CODE[code] for code in (near + 2 * far).tolist())
    return ActivityMask(labels=labels, grid=grid)


def echo_reference(components) -> Signal:
    """Echo-side reference for labeling: true echo y when present,
    otherwise the noisy residual e - s."""
    if components.y is not None:
        return components.y
    if components.e is None:
        raise ValueError("need either y or e to derive an echo reference")
    return Signal(frozen(components.e.samples - components.s.samples))
