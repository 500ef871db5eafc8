"""Waveform container, 16 kHz mono WAV I/O, and the shared energy floor."""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .common import atomic_write_bytes

SAMPLE_RATE = 16000
ENERGY_FLOOR = 1e-12
INT16_SCALE = 32768.0
MIX_TOL = 1e-6

WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# an extensible header names its encoding by a SubFormat GUID: the plain
# format tag in the first two bytes, then this fixed KSDATAFORMAT tail
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


class WavFormatError(ValueError):
    """WAV file with an unsupported or malformed format."""


class TruncatedWavError(OSError):
    """WAV file ends before its declared payload."""


@dataclass(frozen=True, eq=False)
class Signal:
    """Mono waveform at 16 kHz, samples stored as read-only float64.

    Samples are dimensionless amplitudes, nominal full scale +-1.0.
    Instances are immutable and safe to share across threads; equality
    and hashing go by identity, as an array has no value equality.  The
    samples are copied unless they are a read-only float64 array that
    owns its memory (see frozen()).
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"signal must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise ValueError("signal must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal contains non-finite samples")
        if arr is self.samples and (arr.flags.writeable or arr.base is not None):
            arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


def frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only in place, so that a Signal keeps it without a copy.

    For arrays just computed and not written again.
    """
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SceneComponents:
    """Aligned signal set for one scene.

    s: near-end desired speech; x: far-end reference; y: reverberant
    nonlinear echo; w: additive noise; m: microphone; y_hat: AEC echo
    estimate; e: AEC output; s_hat: suppressor output.  Only s is
    mandatory; metric evaluation additionally needs e and s_hat.
    """

    s: Signal
    x: Signal | None = None
    y: Signal | None = None
    w: Signal | None = None
    m: Signal | None = None
    y_hat: Signal | None = None
    e: Signal | None = None
    s_hat: Signal | None = None

    def __post_init__(self):
        ref = len(self.s)
        for name, sig in self.present().items():
            if len(sig) != ref:
                raise ValueError(
                    f"component '{name}' has length {len(sig)}, expected {ref}"
                )
        check_mix = self.y is not None and self.w is not None and self.m is not None
        check_residual = self.m is not None and self.y_hat is not None and self.e is not None
        if not (check_mix or check_residual):
            return
        # both identities are evaluated in one scratch buffer, in the order
        # of the plain expressions ((s + y) + w - m and (m - y_hat) - e)
        buf = np.empty(ref)
        if check_mix:
            np.add(self.s.samples, self.y.samples, out=buf)
            buf += self.w.samples
            buf -= self.m.samples
            _check_identity(buf, "m != s + y + w")
        if check_residual:
            np.subtract(self.m.samples, self.y_hat.samples, out=buf)
            buf -= self.e.samples
            _check_identity(buf, "e != m - y_hat")

    def present(self) -> dict[str, Signal]:
        """The components that are set, by name, in field order."""
        return {f.name: sig for f in fields(self) if (sig := getattr(self, f.name)) is not None}


def _check_identity(deviation: np.ndarray, identity: str) -> None:
    """Raise unless every |deviation| is within MIX_TOL; deviation is overwritten."""
    err = np.abs(deviation, out=deviation).max()
    if err > MIX_TOL:
        raise ValueError(f"{identity} (max deviation {err:.3e} > {MIX_TOL})")


def load_wav(path) -> Signal:
    """Read a mono 16 kHz WAV file (16-bit PCM or 32-bit float, with a
    plain or a WAVE_FORMAT_EXTENSIBLE header).

    16-bit samples are scaled by 1/32768 into the +-1.0 range; float
    samples pass through unchanged.  Anything else is rejected with an
    error naming the offending property.
    """
    with open(path, "rb") as fh:
        # chunks are views of the file's bytes, so the data chunk is not copied
        data = memoryview(fh.read())
    if len(data) < 12:
        raise TruncatedWavError(f"{path}: file too short for a RIFF header")
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt_chunk = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        pos += 8
        chunk = data[pos : pos + size]
        if len(chunk) < size:
            raise TruncatedWavError(
                f"{path}: chunk {cid!r} declares {size} bytes, {len(chunk)} available"
            )
        if cid == b"fmt ":
            fmt_chunk = chunk
        elif cid == b"data":
            payload = chunk
        pos += size + (size & 1)

    if fmt_chunk is None or len(fmt_chunk) < 16:
        raise WavFormatError(f"{path}: missing or short fmt chunk")
    if payload is None:
        raise TruncatedWavError(f"{path}: missing data chunk")

    tag, channels, rate, _byterate, _align, bits = struct.unpack_from(
        "<HHIIHH", fmt_chunk, 0
    )
    if channels != 1:
        raise WavFormatError(f"{path}: channel count {channels} unsupported (mono required)")
    if rate != SAMPLE_RATE:
        raise WavFormatError(
            f"{path}: sample rate {rate} unsupported ({SAMPLE_RATE} Hz required)"
        )
    encoding = f"format tag {tag}"
    if tag == WAVE_FORMAT_EXTENSIBLE:
        tag = _extensible_subformat(fmt_chunk, path)
        encoding = f"extensible subformat {tag}"
    if tag == 1 and bits == 16:
        if len(payload) % 2:
            raise TruncatedWavError(f"{path}: data chunk not a whole number of samples")
        arr = np.frombuffer(payload, dtype="<i2").astype(np.float64) / INT16_SCALE
    elif tag == 3 and bits == 32:
        if len(payload) % 4:
            raise TruncatedWavError(f"{path}: data chunk not a whole number of samples")
        arr = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    else:
        raise WavFormatError(
            f"{path}: encoding unsupported ({encoding}, {bits}-bit; "
            f"need 16-bit PCM or 32-bit float)"
        )
    try:
        return Signal(frozen(arr))
    except ValueError as exc:  # no samples, or a non-finite one
        raise ValueError(f"{path}: {exc}") from None


def _extensible_subformat(fmt_chunk: memoryview, path) -> int:
    """Plain format tag behind a WAVE_FORMAT_EXTENSIBLE SubFormat GUID."""
    if len(fmt_chunk) < 40 or struct.unpack_from("<H", fmt_chunk, 16)[0] < 22:
        raise WavFormatError(f"{path}: extensible fmt chunk too short for its SubFormat")
    guid = fmt_chunk[24:40]
    if guid[2:] != _SUBFORMAT_TAIL:
        raise WavFormatError(
            f"{path}: encoding unsupported (extensible SubFormat GUID {guid.hex()})"
        )
    return struct.unpack_from("<H", guid, 0)[0]


def save_wav(signal: Signal, path) -> None:
    """Write a Signal as mono 32-bit float WAV, atomically, or raise ValueError
    and write nothing if 32-bit float cannot hold it (inf, or all zeros)."""
    if not isinstance(signal, Signal):
        raise TypeError("save_wav expects a Signal")
    with np.errstate(over="ignore"):
        payload = signal.samples.astype("<f4")
    if not np.isfinite(payload).all() or (not payload.any() and signal.samples.any()):
        raise ValueError(f"{path}: samples beyond the range of 32-bit float")
    fmt = struct.pack("<HHIIHH", 3, 1, SAMPLE_RATE, SAMPLE_RATE * 4, 4, 32)
    head = b"".join(
        [
            b"WAVE",
            b"fmt ", struct.pack("<I", len(fmt)), fmt,
            b"fact", struct.pack("<II", 4, len(signal)),
            b"data", struct.pack("<I", payload.nbytes),
        ]
    )
    # the payload is written from the array itself, not from a bytes copy
    atomic_write_bytes(path, b"RIFF" + struct.pack("<I", len(head) + payload.nbytes) + head, payload)
