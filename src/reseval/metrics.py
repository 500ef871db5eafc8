"""Frame-level suppression metrics and per-condition aggregation.

All ratio metrics share one convention: a destroyed numerator (energy
at or below the 1e-12 floor) reports the clamp minimum, a vanishing
denominator reports the clamp maximum, and everything else is the plain
dB ratio clamped to +-CLAMP_DB (120 dB).

Each metric is defined once, as a row-wise kernel over (frames, samples)
matrices; evaluate_scene runs it on the rows of the metric's condition
and the scalar functions run it on a single row.  Difference vectors are
formed explicitly before their energy is taken, so near-cancelling
frames keep their precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import ENERGY_FLOOR, SceneComponents, Signal
from .activity import ActivityMask, FrameLabel
from . import common
from .common import CLAMP_DB
from .framing import FrameGrid

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


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _row_energy(frames: np.ndarray) -> np.ndarray:
    return _row_dot(frames, frames)


def _ratio_rows(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Clamped 10*log10(num/den) per row with the shared floor convention."""
    with np.errstate(all="ignore"):
        value = np.clip(10.0 * np.log10(num / den), -CLAMP_DB, CLAMP_DB)
    return np.where(num <= ENERGY_FLOOR, -CLAMP_DB, np.where(den <= ENERGY_FLOOR, CLAMP_DB, value))


def _gain_denominator(e: np.ndarray) -> np.ndarray:
    """The denominator of the gain s_hat / e: e with |e| < 1e-8 replaced by
    sign(e)*1e-8, the sign of zero taken positive."""
    return np.where(
        np.abs(e) < GAIN_DENOM_FLOOR,
        np.where(e < 0.0, -GAIN_DENOM_FLOOR, GAIN_DENOM_FLOOR),
        e,
    )


# The kernels below take the energy of their s rows (s_energy = _row_energy(s))
# or the noisy residual r = e - s with its energy, which do not depend on
# s_hat: evaluate_scene takes them from the scene's rows (scene_rows), built
# once for several s_hats of one scene, the scalar functions for their row.


def _compensation_rows(gs: np.ndarray, s: np.ndarray, s_energy: np.ndarray) -> np.ndarray:
    """<gain*s, s> / ||s||^2 per row, given gs = gain * s; 1 where s is (near) silent."""
    degenerate = s_energy <= COMP_DEGENERATE
    return np.where(degenerate, 1.0, _row_dot(gs, s) / np.where(degenerate, 1.0, s_energy))


def _dsml_rows(s: np.ndarray, s_energy: np.ndarray, gain: np.ndarray) -> np.ndarray:
    gs = gain * s
    s_tilde = _compensation_rows(gs, s, s_energy)[:, None] * s
    s_tilde_energy = _row_energy(s_tilde)
    distortion = np.subtract(s_tilde, gs, out=gs)
    return _ratio_rows(s_tilde_energy, _row_energy(distortion))


def _resl_rows(r: np.ndarray, r_energy: np.ndarray, gain: np.ndarray) -> np.ndarray:
    return _ratio_rows(r_energy, _row_energy(gain * r))


def _projected_rows(s: np.ndarray, s_energy: np.ndarray, s_hat: np.ndarray) -> np.ndarray:
    # rescale s_hat so a constant attenuation cancels; degenerate
    # projections (silent s or zero s_hat) leave s_hat unscaled
    proj = _row_dot(s_hat, s) / np.where(s_energy > COMP_DEGENERATE, s_energy, 1.0)
    scale = np.where((s_energy > COMP_DEGENERATE) & (np.abs(proj) > COMP_DEGENERATE), proj, 1.0)
    return _ratio_rows(s_energy, _row_energy(s - s_hat / scale[:, None]))


def _rows(*frames) -> list[np.ndarray]:
    """Equal-length 1-D frames as float64 single-row matrices."""
    arrays = [np.asarray(f, dtype=np.float64) for f in frames]
    if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
        shapes = " vs ".join(str(a.shape) for a in arrays)
        raise ValueError(f"frames must be equal-length 1-D, got {shapes}")
    return [a[None, :] for a in arrays]


def _energy_ratio(num_frame, den_frame) -> float:
    num, den = _rows(num_frame, den_frame)
    return float(_ratio_rows(_row_energy(num), _row_energy(den))[0])


def compute_gain(s_hat_frame, e_frame) -> np.ndarray:
    """Per-sample suppressor gain s_hat/e with the denominator floored.

    |e| below 1e-8 is replaced by sign(e)*1e-8 (sign of zero taken
    positive) so the gain stays finite.
    """
    s_hat, e = _rows(s_hat_frame, e_frame)
    return (s_hat / _gain_denominator(e))[0]


def dsml(s_frame, gain) -> float:
    """Desired-speech maintained level in dB for one double-talk frame.

    The gain is applied to the clean speech only; a constant attenuation
    is projected out first so it does not register as distortion.
    """
    s, gain = _rows(s_frame, gain)
    return float(_dsml_rows(s, _row_energy(s), gain)[0])


def resl(s_frame, e_frame, gain) -> float:
    """Residual-echo suppression level in dB for one double-talk frame.

    The noisy residual is estimated as e - s; the metric is the energy
    ratio of the residual before and after the gain.
    """
    s, e, gain = _rows(s_frame, e_frame, gain)
    r = e - s
    return float(_resl_rows(r, _row_energy(r), gain)[0])


def sdr(s_frame, s_hat_frame) -> float:
    """Signal-to-distortion ratio in dB (double-talk), attenuation-compensated."""
    s, s_hat = _rows(s_frame, s_hat_frame)
    return float(_projected_rows(s, _row_energy(s), s_hat)[0])


def sar(s_frame, s_hat_frame) -> float:
    """Signal-to-artifacts ratio in dB (near-end single-talk), same form as sdr."""
    return sdr(s_frame, s_hat_frame)


def erle(e_frame, s_hat_frame) -> float:
    """Echo-return-loss enhancement in dB (far-end single-talk), uncompensated."""
    return _energy_ratio(e_frame, s_hat_frame)


def ser(s_frame, y_frame) -> float:
    """Signal-to-echo ratio in dB."""
    return _energy_ratio(s_frame, y_frame)


def snr(s_frame, w_frame) -> float:
    """Signal-to-noise ratio in dB."""
    return _energy_ratio(s_frame, w_frame)


@dataclass(frozen=True)
class MetricAggregate:
    condition: str
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class MetricReport:
    """Per-frame labels and metric values: one array per metric, NaN where
    the metric is not defined for that frame."""

    labels: tuple[str, ...]
    values: dict[str, np.ndarray]

    @property
    def aggregates(self) -> dict[str, MetricAggregate]:
        """Mean/std/count per metric, omitting metrics with no qualifying frames."""
        return aggregate_metrics(self.values)

    def write_csv(self, path) -> None:
        """One row per frame: its index, its label and each metric's value."""
        columns = [range(len(self.labels)), self.labels, *(self.values[name].tolist() for name in METRIC_NAMES)]
        common.write_csv(path, ["frame_index", "label", *METRIC_NAMES], columns)


@dataclass(frozen=True, slots=True)
class Moments:
    """The count, mean and M2 (sum of squared deviations from the mean) of
    one metric's values over some frames: what pooling needs of them."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> Moments:
        """The moments of the non-NaN values, the frames of the metric's
        condition, by two passes: the mean, then the squared deviations."""
        present = values[~np.isnan(values)]
        if not present.size:
            return cls()
        mean = float(np.mean(present))
        return cls(int(present.size), mean, float(np.sum((present - mean) ** 2)))

    def __add__(self, other: Moments) -> Moments:
        """The moments of both sets of frames, by Chan, Golub and LeVeque's
        pairwise update; an empty side gives the other unchanged."""
        if not other.count:
            return self
        if not self.count:
            return other
        count = self.count + other.count
        delta = other.mean - self.mean
        return Moments(count, self.mean + delta * other.count / count,
                       self.m2 + other.m2 + delta * delta * self.count * other.count / count)

    def aggregate(self, name: str) -> MetricAggregate:
        """Mean and population std of metric name over these frames."""
        return MetricAggregate(condition=METRIC_CONDITIONS[name], mean=self.mean,
                               std=math.sqrt(self.m2 / self.count), count=self.count)


def aggregates_of(moments: dict[str, Moments]) -> dict[str, MetricAggregate]:
    """The aggregate of each metric in moments that has a frame; one with none is omitted."""
    return {name: m.aggregate(name) for name, m in moments.items() if m.count}


def aggregate_metrics(values: dict[str, np.ndarray]) -> dict[str, MetricAggregate]:
    """Two-pass mean/std (population) of each metric's non-NaN values, which are
    the frames of its condition; a metric with none is omitted."""
    return aggregates_of({name: Moments.of(metric_values) for name, metric_values in values.items()})


@dataclass(frozen=True)
class _SceneRows:
    """What evaluate_scene needs of a scene besides s_hat; every array is read-only.

    dt, ne and fe index the double-talk, near-end and far-end frames;
    the rows after each are the frames of that condition.
    """

    grid: FrameGrid
    labels: tuple[FrameLabel, ...]
    dt: np.ndarray
    s_dt: np.ndarray
    s_dt_energy: np.ndarray
    r_dt: np.ndarray  # noisy residual e - s
    r_dt_energy: np.ndarray
    e_dt_den: np.ndarray  # _gain_denominator(e)
    ne: np.ndarray
    s_ne: np.ndarray
    s_ne_energy: np.ndarray
    fe: np.ndarray
    e_fe_energy: np.ndarray
    values: dict[str, np.ndarray]  # ser and snr, which need no s_hat


def scene_rows(components: SceneComponents, mask: ActivityMask) -> _SceneRows:
    """Everything evaluate_scene reads of a scene besides s_hat (s and e required).

    To score one scene under several suppressors, build these once and
    pass them to every evaluate_scene call.
    """
    if components.e is None:
        raise ValueError("scene_rows needs s and e (missing: e)")
    s, e, y, w = components.s, components.e, components.y, components.w
    grid = mask.grid
    s_frames = grid.frame_matrix(s.samples)
    e_frames = grid.frame_matrix(e.samples)
    dt = mask.indices(FrameLabel.DOUBLE_TALK)
    s_dt, e_dt = s_frames[dt], e_frames[dt]
    r_dt = e_dt - s_dt
    ne = mask.indices(FrameLabel.NEAR_END)
    s_ne = s_frames[ne]
    fe = mask.indices(FrameLabel.FAR_END)
    s_energy = _row_energy(s_frames)
    values = {name: np.full(grid.n_frames, np.nan) if other is None
              else _ratio_rows(s_energy, _row_energy(grid.frame_matrix(other.samples)))
              for name, other in (("ser", y), ("snr", w))}
    rows = _SceneRows(
        grid=grid, labels=mask.labels,
        dt=dt, s_dt=s_dt, s_dt_energy=_row_energy(s_dt),
        r_dt=r_dt, r_dt_energy=_row_energy(r_dt), e_dt_den=_gain_denominator(e_dt),
        ne=ne, s_ne=s_ne, s_ne_energy=_row_energy(s_ne),
        fe=fe, e_fe_energy=_row_energy(e_frames[fe]),
        values=values,
    )
    for array in (*vars(rows).values(), *values.values()):
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return rows


def evaluate_scene(rows: _SceneRows, s_hat: Signal) -> MetricReport:
    """Compute every applicable metric per frame of s_hat.

    rows = scene_rows(components, mask) is the rest of the scene;
    ser/snr additionally need its y/w.  A metric whose condition
    never occurs is NaN on every frame, so aggregates omit it rather than
    report zero.  An s_hat whose length is not the scene's raises ValueError.
    """
    sh_frames = rows.grid.frame_matrix(s_hat.samples)
    values = {name: np.full(rows.grid.n_frames, np.nan) for name in METRIC_NAMES if name not in rows.values}
    sh_dt = sh_frames[rows.dt]
    gain = sh_dt / rows.e_dt_den
    values["dsml"][rows.dt] = _dsml_rows(rows.s_dt, rows.s_dt_energy, gain)
    values["resl"][rows.dt] = _resl_rows(rows.r_dt, rows.r_dt_energy, gain)
    values["sdr"][rows.dt] = _projected_rows(rows.s_dt, rows.s_dt_energy, sh_dt)
    # the other conditions' kernels run without the double-talk temporaries
    del sh_dt, gain
    values["sar"][rows.ne] = _projected_rows(rows.s_ne, rows.s_ne_energy, sh_frames[rows.ne])
    values["erle"][rows.fe] = _ratio_rows(rows.e_fe_energy, _row_energy(sh_frames[rows.fe]))
    return MetricReport(labels=rows.labels, values={**values, **rows.values})
