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

from .audio import Signal
from .framing import analysis_window, spectral_energy, wola

GAIN_EPS = 1e-12
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
    """beta >= 1 is the over-suppression factor; floor bounds the gain below."""

    beta: float = 1.0
    floor: float = 0.02

    def __post_init__(self):
        if not np.isfinite(self.beta) or self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError(f"floor must be in [0, 1), got {self.floor}")


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


def frame_gains(e: Signal, s: Signal, config: SuppressorConfig) -> np.ndarray:
    """Per-frame broadband gain in [floor, 1].

    The base gain is ||S||^2 / (||S||^2 + beta * ||R||^2) per frame,
    with R the noisy residual e - s, on temporally smoothed energy
    tracks.  A presence-gated sigmoid in the residual fraction blends
    the gain toward passthrough once the residual dominates, and a
    deterministic log-normal jitter wobbles it where speech and residual
    are confusable or the noise floor is high.  Frames without speech
    stay confidently floored.
    """
    if len(e) != len(s):
        raise ValueError(f"length mismatch: e has {len(e)} samples, s {len(s)}")
    ps = _smooth_frames(spectral_energy(s.samples))
    pr = _smooth_frames(spectral_energy(e.samples - s.samples))
    total = ps + pr + GAIN_EPS
    confusion = np.sqrt(ps * pr) / total
    difficulty = pr / total
    # stationary part of the residual (noise floor), min-statistics style
    noise_floor = float(np.percentile(pr, 20))
    noisiness = np.sqrt(noise_floor / total)

    base = ps / (ps + config.beta * pr + GAIN_EPS)
    # skill collapse: speech buried in residual cannot be separated, so
    # the frame passes through; frames without speech stay suppressed.
    # Difficulty blends the frame with its whole-utterance context, as an
    # estimator that struggles on a segment struggles everywhere in it.
    global_difficulty = float(np.sum(pr) / (np.sum(ps) + np.sum(pr) + GAIN_EPS))
    blended = 0.5 * difficulty + 0.5 * global_difficulty
    presence = ps / (ps + PRESENCE_KNEE * pr + GAIN_EPS)
    collapse = presence / (1.0 + np.exp(-COLLAPSE_STEEPNESS * (blended - COLLAPSE_MIDPOINT)))
    gains = collapse + (1.0 - collapse) * base

    wobble = np.random.default_rng(_JITTER_SEED).standard_normal(ps.size)
    spread = confusion * (
        CONFUSION_JITTER * np.sqrt(difficulty) * (1.0 - difficulty)
        + NOISE_JITTER * noisiness
    )
    gains = np.exp(spread * wobble) * gains
    # reflect at unity so the wobble survives in barely-suppressed frames
    gains = np.where(gains > 1.0, np.maximum(2.0 - gains, config.floor), gains)
    return np.clip(gains, config.floor, 1.0)


def _smooth_frames(track: np.ndarray) -> np.ndarray:
    """Hann-weighted moving average along the frame axis, edges held."""
    width = ENERGY_SMOOTH_FRAMES
    kernel = np.hanning(width + 2)[1:-1]
    kernel /= kernel.sum()
    return np.convolve(np.pad(track, width // 2, mode="edge"), kernel, mode="valid")


def oracle_suppress(e: Signal, s: Signal, config: SuppressorConfig) -> Signal:
    """Suppress the residual in e given the clean speech s.

    The frame gains are flat across frequency, so scaling e's STFT
    magnitudes and resynthesising by weighted overlap-add equals e times
    the overlap-added gain envelope; that envelope is applied directly.
    The output has the same length as the input (tail zero-padded).
    """
    gains = frame_gains(e, s, config)
    return Signal(e.samples * wola(gains[:, None] * analysis_window(), len(e)))


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
