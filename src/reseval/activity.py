"""Per-frame condition labels: double-talk, single-talk, silence.

Labels are a pure function of the ground-truth components, a frame
grid, and an energy threshold.  Noise is ignored for labeling.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .audio import ENERGY_FLOOR, Signal, atomic_write_bytes
from .framing import FrameGrid

DEFAULT_THRESHOLD_DB = -50.0


class FrameLabel(str, Enum):
    DOUBLE_TALK = "double_talk"
    NEAR_END = "near_end_single_talk"
    FAR_END = "far_end_single_talk"
    SILENCE = "silence"


def frame_active(signal: Signal, grid: FrameGrid, threshold_db: float = DEFAULT_THRESHOLD_DB) -> np.ndarray:
    """Boolean per frame: frame energy above threshold_db.

    Energy is the summed squared amplitude of the frame in dB, floored
    at 1e-12, matching energy_db.
    """
    frames = grid.frame_matrix(signal.samples)
    energies = np.einsum("ij,ij->i", frames, frames) if frames.size else np.zeros(grid.n_frames)
    energies_db = 10.0 * np.log10(energies + ENERGY_FLOOR)
    return energies_db > threshold_db


@dataclass(frozen=True)
class ActivityMask:
    """One label per frame plus the grid and threshold that produced it."""

    labels: tuple[FrameLabel, ...]
    grid: FrameGrid
    threshold_db: float = DEFAULT_THRESHOLD_DB

    def __post_init__(self):
        if len(self.labels) != self.grid.n_frames:
            raise ValueError(
                f"{len(self.labels)} labels for {self.grid.n_frames} frames"
            )

    def counts(self) -> dict[FrameLabel, int]:
        out = {label: 0 for label in FrameLabel}
        for lab in self.labels:
            out[lab] += 1
        return out

    def indices(self, label: FrameLabel) -> np.ndarray:
        return np.array([i for i, lab in enumerate(self.labels) if lab is label], dtype=np.intp)

    def write_csv(self, path) -> None:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["frame_index", "label"])
        for i, lab in enumerate(self.labels):
            writer.writerow([i, lab.value])
        atomic_write_bytes(path, buf.getvalue().encode())


# indexed by near + 2*far, where near/far say whether s/echo_ref are active
_LABEL_OF_ACTIVITY = (FrameLabel.SILENCE, FrameLabel.NEAR_END, FrameLabel.FAR_END, FrameLabel.DOUBLE_TALK)


def classify(
    s: Signal,
    echo_ref: Signal,
    grid: FrameGrid,
    threshold_db: float = DEFAULT_THRESHOLD_DB,
) -> ActivityMask:
    """Label each frame from near-end speech and an echo-side reference.

    DoubleTalk iff both are active, NearEndST iff only s, FarEndST iff
    only echo_ref, Silence otherwise.
    """
    if len(s) != len(echo_ref):
        raise ValueError(
            f"length mismatch: s has {len(s)} samples, echo_ref {len(echo_ref)}"
        )
    near = frame_active(s, grid, threshold_db)
    far = frame_active(echo_ref, grid, threshold_db)
    labels = tuple(_LABEL_OF_ACTIVITY[code] for code in (near + 2 * far).tolist())
    return ActivityMask(labels=labels, grid=grid, threshold_db=threshold_db)


def echo_reference(components) -> Signal:
    """Echo-side reference for labeling: true echo y when present,
    otherwise the noisy residual e - s."""
    if components.y is not None:
        return components.y
    if components.e is None:
        raise ValueError("need either y or e to derive an echo reference")
    return Signal(components.e.samples - components.s.samples)
