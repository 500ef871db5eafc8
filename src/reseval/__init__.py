"""Residual-echo suppression evaluation toolkit."""

from .audio import (
    SAMPLE_RATE,
    SceneComponents,
    Signal,
    TruncatedWavError,
    WavFormatError,
    load_wav,
    save_wav,
)
from .activity import ActivityMask, FrameLabel, classify, echo_reference, frame_active
from .framing import FrameGrid, Spectrogram, istft, make_grid, stft
from .metrics import (
    MetricAggregate,
    MetricReport,
    compensation_scalar,
    compute_gain,
    dsml,
    erle,
    evaluate_scene,
    resl,
    sar,
    sdr,
    ser,
    snr,
)
from .simulate import (
    SceneSpec,
    generate_scene,
    mix_at_ser_snr,
    nonlinear_distort,
    save_scene,
    simulate_aec,
    synth_rir,
)
from .stats import CorrelationResult, ScoreTable, correlate_table, pcc, srcc
from .suppressor import (
    LossInputs,
    SuppressorConfig,
    beta_schedule,
    loss_j,
    oracle_suppress,
)

__version__ = "0.1.0"
