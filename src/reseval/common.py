"""Defaults, scene file names and atomic file writes, on the standard library alone.

The command-line front end reads these before it knows which command
runs, so they live apart from the numpy modules that use them.
"""

from __future__ import annotations

import os

# activity threshold on frame energy, dB
DEFAULT_THRESHOLD_DB = -50.0
# metric clamp bound, dB
CLAMP_DB = 120.0
# the base seed of simulate and sweep --spec when --seed is not given
SEED_ENV_VAR = "RES_EVAL_SEED"

# the WAV file of each scene component in a scene directory
_WAV_NAMES = {
    "s": "s.wav",
    "x": "x.wav",
    "y": "y.wav",
    "w": "w.wav",
    "m": "m.wav",
    "y_hat": "yhat.wav",
    "e": "e.wav",
    "s_hat": "shat.wav",
}


def atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like chunks, in order, to a file atomically (temp
    file in the same directory + rename).

    An OSError names path, not the temporary file.
    """
    import tempfile  # only commands that write files pay for it

    path = os.fspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
