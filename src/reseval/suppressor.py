"""Reference parametric suppressor and the tunable training-style loss.

The suppressor applies a Wiener-style broadband gain per 20 ms frame
with an over-suppression factor beta: beta = 1 is the plain
speech-preserving gain, larger beta trades speech fidelity for deeper
echo suppression.  Gains are frequency-flat within a frame, so after
overlap-add the output is the input shaped by a smooth time-varying
gain, which is the regime the evaluation metrics assume.  Estimator
accuracy intentionally degrades in hard conditions, the way learned
suppressors do: when the residual buries the speech the gain collapses
toward passthrough (echo leaks), and where speech and residual are
confusable or steady noise blurs the estimate, the gain wobbles and
distorts the speech.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Signal, frozen
from .framing import gain_envelope, spectral_energy

GAIN_EPS = 1e-12
# lower bound of the per-frame gain: at most ~34 dB of attenuation
MIN_GAIN = 0.02
BETA_SLOPE = 15.0
# estimator imperfection knobs.  Once the residual clearly dominates a
# frame that still carries speech, the estimator can no longer separate
# the two and collapses toward passthrough (sigmoid in the residual
# fraction); gain jitter grows where speech and echo are confusable and
# where steady noise blurs the estimate.
COLLAPSE_MIDPOINT = 0.25
COLLAPSE_STEEPNESS = 14.0
PRESENCE_KNEE = 0.01
CONFUSION_JITTER = 0.6
NOISE_JITTER = 0.5
# frames of temporal smoothing applied to the energy tracks, mimicking
# the recursive averaging of a real residual estimator
ENERGY_SMOOTH_FRAMES = 5
_JITTER_SEED = 0x5EED


@dataclass(frozen=True)
class SuppressorConfig:
    """beta >= 1 is the over-suppression factor."""

    beta: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")


@dataclass(frozen=True)
class LossInputs:
    """Magnitude spectra and tradeoff weight for the suppression loss.

    predicted and target are nonnegative (frame, bin) magnitude arrays;
    alpha >= 0 weights the over-suppression penalty.
    """

    predicted: np.ndarray
    target: np.ndarray
    alpha: float

    def __post_init__(self):
        pred = np.asarray(self.predicted, dtype=np.float64)
        targ = np.asarray(self.target, dtype=np.float64)
        if pred.shape != targ.shape:
            raise ValueError(f"shape mismatch: predicted {pred.shape} vs target {targ.shape}")
        if pred.size == 0:
            raise ValueError("empty spectra")
        if pred.min() < 0 or targ.min() < 0:
            raise ValueError("magnitudes must be nonnegative")
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "target", targ)


def loss_j(inputs: LossInputs) -> float:
    """Squared spectral error plus alpha-weighted prediction energy plus,
    for alpha > 0, 0.1x the population variance of the prediction."""
    pred = inputs.predicted
    diff = pred - inputs.target
    value = float(np.sum(diff * diff))
    if inputs.alpha > 0:
        value += inputs.alpha * float(np.sum(pred * pred))
        value += 0.1 * float(np.var(pred))
    return value


@dataclass(frozen=True)
class _GainTracks:
    """What frame_gains and oracle_suppress read of a scene; every array is read-only.

    e is the residual to suppress; ps and pr are the smoothed per-frame
    energies of s and of e - s, and collapse and jitter the estimator's
    passthrough blend and gain wobble.  None of them depends on beta.
    """

    e: Signal
    ps: np.ndarray
    pr: np.ndarray
    collapse: np.ndarray
    jitter: np.ndarray


def frame_gains(tracks: _GainTracks, config: SuppressorConfig) -> np.ndarray:
    """Per-frame broadband gain in [MIN_GAIN, 1] from tracks = gain_tracks(e, s).

    The base gain is ||S||^2 / (||S||^2 + beta * ||R||^2) per frame,
    with R the noisy residual e - s, on temporally smoothed energy
    tracks.  A presence-gated sigmoid in the residual fraction blends
    the gain toward passthrough once the residual dominates, and a
    deterministic log-normal jitter wobbles it where speech and residual
    are confusable or the noise floor is high.  Frames without speech
    stay confidently floored.
    """
    base = tracks.ps / (tracks.ps + config.beta * tracks.pr + GAIN_EPS)
    gains = tracks.jitter * (tracks.collapse + (1.0 - tracks.collapse) * base)
    # reflect at unity so the wobble survives in barely-suppressed frames
    gains = np.where(gains > 1.0, np.maximum(2.0 - gains, MIN_GAIN), gains)
    return np.clip(gains, MIN_GAIN, 1.0)


def gain_tracks(e: Signal, s: Signal) -> _GainTracks:
    """The scene as the suppressor reads it, computed once for any number of configs."""
    if len(e) != len(s):
        raise ValueError(f"length mismatch: e has {len(e)} samples, s {len(s)}")
    ps = _smooth_frames(spectral_energy(s.samples))
    pr = _smooth_frames(spectral_energy(e.samples - s.samples))
    total = ps + pr + GAIN_EPS
    confusion = np.sqrt(ps * pr) / total
    difficulty = pr / total
    # stationary part of the residual (noise floor), min-statistics style
    noise_floor = _percentile_20(pr)
    noisiness = np.sqrt(noise_floor / total)

    # skill collapse: speech buried in residual cannot be separated, so
    # the frame passes through; frames without speech stay suppressed.
    # Difficulty blends the frame with its whole-utterance context, as an
    # estimator that struggles on a segment struggles everywhere in it.
    global_difficulty = float(np.sum(pr) / (np.sum(ps) + np.sum(pr) + GAIN_EPS))
    blended = 0.5 * difficulty + 0.5 * global_difficulty
    presence = ps / (ps + PRESENCE_KNEE * pr + GAIN_EPS)
    collapse = presence / (1.0 + np.exp(-COLLAPSE_STEEPNESS * (blended - COLLAPSE_MIDPOINT)))

    wobble = np.random.default_rng(_JITTER_SEED).standard_normal(ps.size)
    spread = confusion * (
        CONFUSION_JITTER * np.sqrt(difficulty) * (1.0 - difficulty)
        + NOISE_JITTER * noisiness
    )
    jitter = np.exp(spread * wobble)
    for track in (ps, pr, collapse, jitter):
        track.setflags(write=False)
    return _GainTracks(e=e, ps=ps, pr=pr, collapse=collapse, jitter=jitter)


def _percentile_20(values: np.ndarray) -> float:
    """float(np.percentile(values, 20)) of finite 1-D values, bit for bit.

    numpy's default (linear) method on the two order statistics around
    index (n - 1) * 0.2, found by np.partition: np.percentile itself runs
    np.unique, which imports numpy.ma.
    """
    n = values.size
    if n == 1:
        return float(values[0])
    index = (n - 1) * 0.2
    lo = int(index)
    a, b = np.partition(values, (lo, lo + 1))[lo : lo + 2].tolist()
    g = index - lo
    d = b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def _smooth_frames(track: np.ndarray) -> np.ndarray:
    """Hann-weighted moving average along the frame axis, edges held."""
    width = ENERGY_SMOOTH_FRAMES
    kernel = np.hanning(width + 2)[1:-1]
    kernel /= kernel.sum()
    return np.convolve(np.pad(track, width // 2, mode="edge"), kernel, mode="valid")


def oracle_suppress(tracks: _GainTracks, config: SuppressorConfig) -> Signal:
    """Suppress the residual in e given tracks = gain_tracks(e, s).

    The frame gains are flat across frequency, so scaling e's STFT
    magnitudes and resynthesising by weighted overlap-add equals e times
    the overlap-added gain envelope; that envelope is applied directly,
    hop by hop.
    The output has the same length as the input (tail zero-padded).
    """
    envelope = gain_envelope(frame_gains(tracks, config), len(tracks.e))
    return Signal(frozen(np.multiply(tracks.e.samples, envelope, out=envelope)))


def beta_schedule(alphas) -> list[float]:
    """Map an ascending nonnegative alpha sweep to betas via 1 + 15*alpha."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("empty alpha list")
    for a in alphas:
        if not np.isfinite(a) or a < 0:
            raise ValueError(f"alphas must be nonnegative, got {a}")
    for prev, cur in zip(alphas, alphas[1:]):
        if cur <= prev:
            raise ValueError(f"alphas must be strictly ascending, got {prev} then {cur}")
    return [1.0 + BETA_SLOPE * a for a in alphas]
