"""The metric clamp, scene file names, output-path checks and atomic writes, on the standard library alone.

The command-line front end reads these before it knows which command
runs, so they live apart from the numpy modules that use them.
"""

from __future__ import annotations

import math
import os

# bound of every metric value, dB: fixed, not a setting
CLAMP_DB = 120.0

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
    file in the same directory + rename), with the mode open() would give
    a new file under the process umask.

    An OSError names path, not the temporary file.
    """
    import tempfile  # only commands that write files pay for it

    path = os.fspath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file 0600: give it open()'s 0o666 & ~umask.
            # Reading the umask sets it; 0o077 meanwhile errs on the closed side.
            umask = os.umask(0o077)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def check_out_file(path, inputs=()) -> None:
    """Refuse an output file path that is a directory, whose directory does not
    exist, or that is the same file as one of inputs, the files the command reads."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path}: is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(f"{path}: no such directory to write it in")
    if os.path.exists(path) and any(os.path.exists(name) and os.path.samefile(path, name) for name in inputs):
        raise ValueError(f"{path}: is an input of this command; write the output elsewhere")


def write_json(path, payload) -> None:
    """Write payload atomically as strict JSON, keys sorted and indented by 2,
    plus a newline; a NaN or infinite float raises ValueError and writes nothing."""
    import json  # only commands that write JSON pay for it

    atomic_write_bytes(path, (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())


def write_csv(path, header, columns) -> None:
    """Write the header and the columns, one sequence of cells per header
    name, atomically as CSV with "\n" line ends.

    A float cell is written as its repr and a NaN or None cell as an empty
    cell, the form of a value that is absent; any other cell goes to the
    csv module unchanged, so a str enum member is written as its value.
    Cells are formatted a column at a time: a row at a time takes about a
    fifth longer on a frame table.
    """
    import csv  # only commands that write CSV pay for these
    import io

    cells = [[("" if math.isnan(v) else repr(v)) if isinstance(v, float) else v for v in column]
             for column in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*cells, strict=True))
    atomic_write_bytes(path, buf.getvalue().encode())
