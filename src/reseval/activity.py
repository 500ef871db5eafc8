"""Per-frame condition labels: double-talk, single-talk, silence.

Labels are a pure function of the ground-truth components and an
energy threshold, one per frame of the signals' FrameGrid.
Noise is ignored for labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio import ENERGY_FLOOR, Signal, frozen
from .common import DEFAULT_THRESHOLD_DB
from .framing import FrameGrid


class FrameLabel(str, Enum):
    DOUBLE_TALK = "double_talk"
    NEAR_END = "near_end_single_talk"
    FAR_END = "far_end_single_talk"
    SILENCE = "silence"


def frame_active(signal: Signal, threshold_db: float = DEFAULT_THRESHOLD_DB) -> np.ndarray:
    """Boolean per frame of FrameGrid(len(signal)): frame energy above threshold_db.

    Energy is the summed squared amplitude of the frame in dB, floored
    at 1e-12.
    """
    frames = FrameGrid(len(signal)).frame_matrix(signal.samples)
    energies = np.einsum("ij,ij->i", frames, frames)
    energies_db = 10.0 * np.log10(energies + ENERGY_FLOOR)
    return energies_db > threshold_db


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


def classify(s: Signal, echo_ref: Signal, threshold_db: float = DEFAULT_THRESHOLD_DB) -> ActivityMask:
    """Label each frame of FrameGrid(len(s)) from near-end speech and an echo-side reference.

    DoubleTalk iff both are active, NearEndST iff only s, FarEndST iff
    only echo_ref, Silence otherwise.
    """
    if len(s) != len(echo_ref):
        raise ValueError(
            f"length mismatch: s has {len(s)} samples, echo_ref {len(echo_ref)}"
        )
    near = frame_active(s, threshold_db)
    far = frame_active(echo_ref, threshold_db)
    labels = tuple(_LABEL_OF_CODE[code] for code in (near + 2 * far).tolist())
    return ActivityMask(labels=labels, grid=FrameGrid(len(s)))


def echo_reference(components) -> Signal:
    """Echo-side reference for labeling: true echo y when present,
    otherwise the noisy residual e - s."""
    if components.y is not None:
        return components.y
    if components.e is None:
        raise ValueError("need either y or e to derive an echo reference")
    return Signal(frozen(components.e.samples - components.s.samples))
