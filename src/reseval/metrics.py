"""Frame-level suppression metrics and per-condition aggregation.

All ratio metrics share one convention: a destroyed numerator (energy
at or below the 1e-12 floor) reports the clamp minimum, a vanishing
denominator reports the clamp maximum, and everything else is the plain
dB ratio clamped to +-clamp_db.

Each metric is defined once, as a row-wise kernel over (frames, samples)
matrices; evaluate_scene runs it on the rows of the metric's condition
and the scalar functions run it on a single row.  Difference vectors are
formed explicitly before their energy is taken, so near-cancelling
frames keep their precision.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .audio import ENERGY_FLOOR, SceneComponents
from .activity import _LABEL_OF_CODE, ActivityMask, FrameLabel
from .common import CLAMP_DB, atomic_write_bytes

GAIN_DENOM_FLOOR = 1e-8
COMP_DEGENERATE = 1e-12

METRIC_NAMES = ("dsml", "resl", "sdr", "sar", "erle", "ser", "snr")

# name of the condition each metric is defined on; "all" means every frame
METRIC_CONDITIONS: dict[str, str] = {
    "dsml": FrameLabel.DOUBLE_TALK.value,
    "resl": FrameLabel.DOUBLE_TALK.value,
    "sdr": FrameLabel.DOUBLE_TALK.value,
    "sar": FrameLabel.NEAR_END.value,
    "erle": FrameLabel.FAR_END.value,
    "ser": "all",
    "snr": "all",
}

# the label string of each activity code, for the report's label column
_VALUE_OF_CODE = np.array([label.value for label in _LABEL_OF_CODE], dtype=object)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _row_energy(frames: np.ndarray) -> np.ndarray:
    return _row_dot(frames, frames)


def _ratio_rows(num: np.ndarray, den: np.ndarray, clamp_db: float) -> np.ndarray:
    """Clamped 10*log10(num/den) per row with the shared floor convention."""
    with np.errstate(all="ignore"):
        value = np.clip(10.0 * np.log10(num / den), -clamp_db, clamp_db)
    return np.where(num <= ENERGY_FLOOR, -clamp_db, np.where(den <= ENERGY_FLOOR, clamp_db, value))


def _gain_rows(s_hat: np.ndarray, e: np.ndarray) -> np.ndarray:
    den = np.where(
        np.abs(e) < GAIN_DENOM_FLOOR,
        np.where(e < 0.0, -GAIN_DENOM_FLOOR, GAIN_DENOM_FLOOR),
        e,
    )
    return s_hat / den


def _compensation_rows(gain: np.ndarray, s: np.ndarray) -> np.ndarray:
    den = _row_energy(s)
    degenerate = den <= COMP_DEGENERATE
    return np.where(degenerate, 1.0, _row_dot(gain * s, s) / np.where(degenerate, 1.0, den))


def _dsml_rows(s: np.ndarray, gain: np.ndarray, clamp_db: float) -> np.ndarray:
    s_tilde = _compensation_rows(gain, s)[:, None] * s
    return _ratio_rows(_row_energy(s_tilde), _row_energy(s_tilde - gain * s), clamp_db)


def _resl_rows(s: np.ndarray, e: np.ndarray, gain: np.ndarray, clamp_db: float) -> np.ndarray:
    r = e - s
    return _ratio_rows(_row_energy(r), _row_energy(gain * r), clamp_db)


def _projected_rows(s: np.ndarray, s_hat: np.ndarray, clamp_db: float) -> np.ndarray:
    # rescale s_hat so a constant attenuation cancels; degenerate
    # projections (silent s or zero s_hat) leave s_hat unscaled
    den = _row_energy(s)
    proj = _row_dot(s_hat, s) / np.where(den > COMP_DEGENERATE, den, 1.0)
    scale = np.where((den > COMP_DEGENERATE) & (np.abs(proj) > COMP_DEGENERATE), proj, 1.0)
    return _ratio_rows(den, _row_energy(s - s_hat / scale[:, None]), clamp_db)


def _energy_ratio_rows(num_frames: np.ndarray, den_frames: np.ndarray, clamp_db: float) -> np.ndarray:
    return _ratio_rows(_row_energy(num_frames), _row_energy(den_frames), clamp_db)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"frames must be equal-length 1-D, got {a.shape} vs {b.shape}")
    return a, b


def _one_row(kernel, *frames, **kwargs) -> float:
    """Apply a row kernel to 1-D frames as a single-row matrix."""
    return float(kernel(*(f[None, :] for f in frames), **kwargs)[0])


def ratio_db(num: float, den: float, clamp_db: float = CLAMP_DB) -> float:
    """Clamped 10*log10(num/den) with the shared floor convention."""
    return float(_ratio_rows(np.array([num], dtype=float), np.array([den], dtype=float), clamp_db)[0])


def compute_gain(s_hat_frame, e_frame) -> np.ndarray:
    """Per-sample suppressor gain s_hat/e with the denominator floored.

    |e| below 1e-8 is replaced by sign(e)*1e-8 (sign of zero taken
    positive) so the gain stays finite.
    """
    return _gain_rows(*_pair(s_hat_frame, e_frame))


def compensation_scalar(gain, s_frame) -> float:
    """Projection <gain*s, s> / ||s||^2; 1 when s is (near) silent."""
    return _one_row(_compensation_rows, *_pair(gain, s_frame))


def dsml(s_frame, gain, clamp_db: float = CLAMP_DB) -> float:
    """Desired-speech maintained level in dB for one double-talk frame.

    The gain is applied to the clean speech only; a constant attenuation
    is projected out first so it does not register as distortion.
    """
    return _one_row(_dsml_rows, *_pair(s_frame, gain), clamp_db=clamp_db)


def resl(s_frame, e_frame, gain, clamp_db: float = CLAMP_DB) -> float:
    """Residual-echo suppression level in dB for one double-talk frame.

    The noisy residual is estimated as e - s; the metric is the energy
    ratio of the residual before and after the gain.
    """
    s_frame, e_frame = _pair(s_frame, e_frame)
    _, gain = _pair(s_frame, gain)
    return _one_row(_resl_rows, s_frame, e_frame, gain, clamp_db=clamp_db)


def sdr(s_frame, s_hat_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-distortion ratio in dB (double-talk), attenuation-compensated."""
    return _one_row(_projected_rows, *_pair(s_frame, s_hat_frame), clamp_db=clamp_db)


def sar(s_frame, s_hat_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-artifacts ratio in dB (near-end single-talk), same form as sdr."""
    return _one_row(_projected_rows, *_pair(s_frame, s_hat_frame), clamp_db=clamp_db)


def erle(e_frame, s_hat_frame, clamp_db: float = CLAMP_DB) -> float:
    """Echo-return-loss enhancement in dB (far-end single-talk), uncompensated."""
    return _one_row(_energy_ratio_rows, *_pair(e_frame, s_hat_frame), clamp_db=clamp_db)


def ser(s_frame, y_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-echo ratio in dB."""
    return _one_row(_energy_ratio_rows, *_pair(s_frame, y_frame), clamp_db=clamp_db)


def snr(s_frame, w_frame, clamp_db: float = CLAMP_DB) -> float:
    """Signal-to-noise ratio in dB."""
    return _one_row(_energy_ratio_rows, *_pair(s_frame, w_frame), clamp_db=clamp_db)


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

    def write_csv(self, path) -> None:
        atomic_write_bytes(path, self.to_csv_text().encode())

    def to_csv_text(self) -> str:
        columns = [
            ["" if math.isnan(v) else repr(v) for v in self.values[name].tolist()]
            for name in METRIC_NAMES
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["frame_index", "label", *METRIC_NAMES])
        writer.writerows(zip(range(len(self.labels)), self.labels, *columns, strict=True))
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

    values = {name: np.full(grid.n_frames, np.nan) for name in METRIC_NAMES}
    dt = mask.indices(FrameLabel.DOUBLE_TALK)
    s_dt, e_dt, sh_dt = s_frames[dt], e_frames[dt], sh_frames[dt]
    gain = _gain_rows(sh_dt, e_dt)
    values["dsml"][dt] = _dsml_rows(s_dt, gain, clamp_db)
    values["resl"][dt] = _resl_rows(s_dt, e_dt, gain, clamp_db)
    values["sdr"][dt] = _projected_rows(s_dt, sh_dt, clamp_db)
    ne = mask.indices(FrameLabel.NEAR_END)
    values["sar"][ne] = _projected_rows(s_frames[ne], sh_frames[ne], clamp_db)
    fe = mask.indices(FrameLabel.FAR_END)
    values["erle"][fe] = _energy_ratio_rows(e_frames[fe], sh_frames[fe], clamp_db)
    if components.y is not None:
        values["ser"] = _energy_ratio_rows(s_frames, grid.frame_matrix(components.y.samples), clamp_db)
    if components.w is not None:
        values["snr"] = _energy_ratio_rows(s_frames, grid.frame_matrix(components.w.samples), clamp_db)

    aggregates = {}
    for name in METRIC_NAMES:
        agg = aggregate(values[name], METRIC_CONDITIONS[name])
        if agg is not None:
            aggregates[name] = agg

    labels = tuple(_VALUE_OF_CODE[mask.codes].tolist())
    return MetricReport(labels=labels, values=values, aggregates=aggregates)
