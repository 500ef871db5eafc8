"""Residual-echo suppression evaluation toolkit.

The package exports what the acceptance tests and the README's library
example use; every other name is imported from its module
(``from reseval.audio import load_wav``).  The names below are imported
from their submodules on first use (PEP 562), so ``import reseval.cli``
loads neither numpy nor the compute modules until a command needs them.
"""

import importlib

_EXPORTS = {
    "audio": ("Signal",),
    "activity": ("FrameLabel", "classify", "echo_reference"),
    "framing": ("istft", "stft"),
    "metrics": ("compute_gain", "dsml", "erle", "evaluate_scene", "resl", "sar", "scene_rows", "sdr", "ser",
                "snr"),
    "simulate": ("SceneSpec", "generate_scene", "mix_at_ser_snr"),
    "stats": ("pcc", "srcc"),
    "suppressor": ("LossInputs", "SuppressorConfig", "beta_schedule", "gain_tracks", "loss_j",
                   "oracle_suppress"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        # not cached: a patched submodule attribute (tracer, tests) shows through
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
