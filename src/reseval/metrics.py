"""Frame-level suppression metrics and per-condition aggregation.

All ratio metrics share one convention: a destroyed numerator (energy
at or below the 1e-12 floor) reports the clamp minimum, a vanishing
denominator reports the clamp maximum, and everything else is the plain
dB ratio clamped to +-clamp_db.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .audio import ENERGY_FLOOR, SceneComponents, atomic_write_bytes
from .activity import ActivityMask, FrameLabel

CLAMP_DB = 120.0
GAIN_DENOM_FLOOR = 1e-8
COMP_DEGENERATE = 1e-12

METRIC_NAMES = ("dsml", "resl", "sdr", "sar", "erle", "ser", "snr")

# condition each metric is defined on; None means every frame
METRIC_CONDITIONS: dict[str, FrameLabel | None] = {
    "dsml": FrameLabel.DOUBLE_TALK,
    "resl": FrameLabel.DOUBLE_TALK,
    "sdr": FrameLabel.DOUBLE_TALK,
    "sar": FrameLabel.NEAR_END,
    "erle": FrameLabel.FAR_END,
    "ser": None,
    "snr": None,
}


def ratio_db(num: float, den: float, clamp_db: float = CLAMP_DB) -> float:
    """Clamped 10*log10(num/den) with the shared floor convention."""
    if num <= ENERGY_FLOOR:
        return -clamp_db
    if den <= ENERGY_FLOOR:
        return clamp_db
    value = 10.0 * math.log10(num / den)
    return min(clamp_db, max(-clamp_db, value))


def _energy(frame: np.ndarray) -> float:
    return float(np.dot(frame, frame))


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"frames must be equal-length 1-D, got {a.shape} vs {b.shape}")
    return a, b


def compute_gain(s_hat_frame, e_frame) -> np.ndarray:
    """Per-sample suppressor gain s_hat/e with the denominator floored.

    |e| below 1e-8 is replaced by sign(e)*1e-8 (sign of zero taken
    positive) so the gain stays finite.
    """
    s_hat_frame, e_frame = _pair(s_hat_frame, e_frame)
    den = np.where(
        np.abs(e_frame) < GAIN_DENOM_FLOOR,
        np.where(e_frame < 0.0, -GAIN_DENOM_FLOOR, GAIN_DENOM_FLOOR),
        e_frame,
    )
    return s_hat_frame / den


def compensation_scalar(gain, s_frame) -> float:
    """Projection <gain*s, s> / ||s||^2; 1 when s is (near) silent."""
    gain, s_frame = _pair(gain, s_frame)
    den = _energy(s_frame)
    if den <= COMP_DEGENERATE:
        return 1.0
    return float(np.dot(gain * s_frame, s_frame)) / den


def dsml(s_frame, gain, clamp_db: float = CLAMP_DB) -> float:
    """Desired-speech maintained level in dB for one double-talk frame.

    The gain is applied to the clean speech only; a constant attenuation
    is projected out first so it does not register as distortion.
    """
    s_frame, gain = _pair(s_frame, gain)
    g_hat = compensation_scalar(gain, s_frame)
    s_tilde = g_hat * s_frame
    return ratio_db(_energy(s_tilde), _energy(s_tilde - gain * s_frame), clamp_db)


def resl(s_frame, e_frame, gain, clamp_db: float = CLAMP_DB) -> float:
    """Residual-echo suppression level in dB for one double-talk frame.

    The noisy residual is estimated as e - s; the metric is the energy
    ratio of the residual before and after the gain.
    """
    s_frame, e_frame = _pair(s_frame, e_frame)
    _, gain = _pair(s_frame, gain)
    r = e_frame - s_frame
    return ratio_db(_energy(r), _energy(gain * r), clamp_db)


def _projected_ratio(s_frame, s_hat_frame, clamp_db: float) -> float:
    # rescale s_hat so a constant attenuation cancels; degenerate
    # projections (silent s or zero s_hat) leave s_hat unscaled
    s_frame, s_hat_frame = _pair(s_frame, s_hat_frame)
    den = _energy(s_frame)
    if den > COMP_DEGENERATE:
        proj = float(np.dot(s_hat_frame, s_frame)) / den
        if abs(proj) > COMP_DEGENERATE:
            s_hat_frame = s_hat_frame / proj
    return ratio_db(den, _energy(s_frame - s_hat_frame), clamp_db)


def sdr(s_frame, s_hat_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-distortion ratio in dB (double-talk), attenuation-compensated."""
    return _projected_ratio(s_frame, s_hat_frame, clamp_db)


def sar(s_frame, s_hat_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-artifacts ratio in dB (near-end single-talk), same form as sdr."""
    return _projected_ratio(s_frame, s_hat_frame, clamp_db)


def erle(e_frame, s_hat_frame, clamp_db: float = CLAMP_DB) -> float:
    """Echo-return-loss enhancement in dB (far-end single-talk), uncompensated."""
    e_frame, s_hat_frame = _pair(e_frame, s_hat_frame)
    return ratio_db(_energy(e_frame), _energy(s_hat_frame), clamp_db)


def ser(s_frame, y_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-echo ratio in dB."""
    s_frame, y_frame = _pair(s_frame, y_frame)
    return ratio_db(_energy(s_frame), _energy(y_frame), clamp_db)


def snr(s_frame, w_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-noise ratio in dB."""
    s_frame, w_frame = _pair(s_frame, w_frame)
    return ratio_db(_energy(s_frame), _energy(w_frame), clamp_db)


@dataclass(frozen=True)
class MetricAggregate:
    condition: str
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class MetricReport:
    """Per-frame metric values plus per-condition aggregates.

    values holds one array per metric with NaN where the metric is not
    defined for that frame; aggregates holds mean/std/count per metric,
    omitting metrics with no qualifying frames.
    """

    labels: tuple[str, ...]
    values: dict[str, np.ndarray]
    aggregates: dict[str, MetricAggregate]
    clamp_db: float = CLAMP_DB

    def frame_counts(self) -> dict[str, int]:
        out = {label.value: 0 for label in FrameLabel}
        for lab in self.labels:
            out[lab] += 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "clamp_db": self.clamp_db,
            "frame_counts": self.frame_counts(),
            "aggregates": {name: asdict(agg) for name, agg in sorted(self.aggregates.items())},
        }

    def write_json(self, path) -> None:
        blob = json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(path, blob.encode())

    def write_csv(self, path) -> None:
        atomic_write_bytes(path, self.to_csv_text().encode())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["frame_index", "label", *METRIC_NAMES])
        for i, lab in enumerate(self.labels):
            row = [i, lab]
            for name in METRIC_NAMES:
                v = self.values[name][i]
                row.append("" if math.isnan(v) else repr(float(v)))
            writer.writerow(row)
        return buf.getvalue()


def aggregate(values: np.ndarray, condition: str) -> MetricAggregate | None:
    """Two-pass mean/std (population) over the non-NaN entries."""
    present = values[~np.isnan(values)]
    if present.size == 0:
        return None
    mean = float(np.mean(present))
    std = float(math.sqrt(float(np.mean((present - mean) ** 2))))
    return MetricAggregate(condition=condition, mean=mean, std=std, count=int(present.size))


def evaluate_scene(
    components: SceneComponents,
    mask: ActivityMask,
    clamp_db: float = CLAMP_DB,
) -> MetricReport:
    """Compute every applicable metric per frame and aggregate per condition.

    Needs s, e and s_hat; ser/snr additionally need y/w.  Metrics whose
    condition never occurs are omitted from the aggregates rather than
    reported as zero.
    """
    if components.e is None or components.s_hat is None:
        missing = [n for n in ("e", "s_hat") if getattr(components, n) is None]
        raise ValueError(f"evaluate_scene needs s, e and s_hat (missing: {', '.join(missing)})")
    grid = mask.grid
    if grid.signal_len != len(components.s):
        raise ValueError("mask grid does not match component length")

    s_frames = grid.frame_matrix(components.s.samples)
    e_frames = grid.frame_matrix(components.e.samples)
    sh_frames = grid.frame_matrix(components.s_hat.samples)
    y_frames = grid.frame_matrix(components.y.samples) if components.y is not None else None
    w_frames = grid.frame_matrix(components.w.samples) if components.w is not None else None

    values = {name: np.full(grid.n_frames, np.nan) for name in METRIC_NAMES}
    for i, lab in enumerate(mask.labels):
        if lab is FrameLabel.DOUBLE_TALK:
            g = compute_gain(sh_frames[i], e_frames[i])
            values["dsml"][i] = dsml(s_frames[i], g, clamp_db)
            values["resl"][i] = resl(s_frames[i], e_frames[i], g, clamp_db)
            values["sdr"][i] = sdr(s_frames[i], sh_frames[i], clamp_db)
        elif lab is FrameLabel.NEAR_END:
            values["sar"][i] = sar(s_frames[i], sh_frames[i], clamp_db)
        elif lab is FrameLabel.FAR_END:
            values["erle"][i] = erle(e_frames[i], sh_frames[i], clamp_db)
        if y_frames is not None:
            values["ser"][i] = ser(s_frames[i], y_frames[i], clamp_db)
        if w_frames is not None:
            values["snr"][i] = snr(s_frames[i], w_frames[i], clamp_db)

    aggregates = {}
    for name in METRIC_NAMES:
        condition = METRIC_CONDITIONS[name]
        agg = aggregate(values[name], condition.value if condition else "all")
        if agg is not None:
            aggregates[name] = agg

    labels = tuple(lab.value for lab in mask.labels)
    return MetricReport(labels=labels, values=values, aggregates=aggregates, clamp_db=clamp_db)
