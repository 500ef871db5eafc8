import errno
import os
import struct

import numpy as np
import pytest

from reseval import (
    SceneComponents,
    Signal,
    TruncatedWavError,
    WavFormatError,
    load_wav,
    save_wav,
)
from reseval.audio import frozen
from reseval.common import atomic_write_bytes


def write_pcm16(path, samples, rate=16000, channels=1):
    payload = struct.pack(f"<{len(samples)}h", *samples)
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * 2 * channels, 2 * channels, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def write_extensible(path, payload, bits, subformat_tag=1, guid_tail=None, cb_size=22):
    """Mono 16 kHz WAV with a WAVE_FORMAT_EXTENSIBLE (0xFFFE) fmt chunk."""
    if guid_tail is None:
        guid_tail = bytes.fromhex("000000001000800000aa00389b71")
    align = bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 16000, 16000 * align, align, bits)
    fmt += struct.pack("<HHI", cb_size, bits, 0x4)
    fmt += struct.pack("<H", subformat_tag) + guid_tail
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


class TestSignal:
    def test_basic(self):
        sig = Signal(np.zeros(10))
        assert len(sig) == 10
        assert sig.duration == pytest.approx(10 / 16000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            Signal(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Signal(np.array([0.0, np.nan]))

    def test_samples_read_only(self):
        sig = Signal(np.zeros(4))
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0

    @pytest.mark.parametrize("source", ["writable array", "read-only view of a writable array", "list"])
    def test_unchanged_when_its_source_is_written(self, source):
        data = np.arange(1.0, 7.0)
        if source == "writable array":
            given = data
        elif source == "read-only view of a writable array":
            given = data[1:]
            given.setflags(write=False)
        else:
            data = data.tolist()
            given = data
        sig = Signal(given)
        before = sig.samples.copy()
        data[2] = 99.0
        np.testing.assert_array_equal(sig.samples, before)

    def test_frozen_array_kept_without_copy(self):
        owned = frozen(np.arange(4.0))
        assert Signal(owned).samples is owned


class TestWavIO:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "one.wav"
        write_pcm16(path, [16384])
        sig = load_wav(path)
        assert sig.samples[0] == 16384 / 32768.0 == 0.5

    def test_length_preserved(self, tmp_path):
        path = tmp_path / "long.wav"
        write_pcm16(path, [0] * 160000)
        assert len(load_wav(path)) == 160000

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        write_pcm16(path, [0, 0, 0, 0], channels=2)
        with pytest.raises(WavFormatError, match="channel count 2 unsupported"):
            load_wav(path)

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "rate.wav"
        write_pcm16(path, [0, 0], rate=8000)
        with pytest.raises(WavFormatError, match="sample rate 8000 unsupported"):
            load_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "alaw.wav"
        fmt = struct.pack("<HHIIHH", 6, 1, 16000, 16000, 1, 8)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 2) + b"\x00\x00"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="encoding unsupported"):
            load_wav(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.wav"
        write_pcm16(path, [0] * 100)
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(TruncatedWavError):
            load_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"NOTRIFF" + b"\x00" * 64)
        with pytest.raises(WavFormatError, match="not a RIFF/WAVE file"):
            load_wav(path)

    @pytest.mark.parametrize("n", [1, 7, 160001])
    def test_save_bytes_match_joined_construction(self, tmp_path, n):
        """The header and the payload array are written as two chunks; the
        file is the one a single joined bytes object made."""
        sig = Signal(np.random.default_rng(n).uniform(-1, 1, n))
        payload = sig.samples.astype("<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 16000 * 4, 4, 32)
        body = b"".join([b"WAVE", b"fmt ", struct.pack("<I", len(fmt)), fmt,
                         b"fact", struct.pack("<II", 4, n), b"data", struct.pack("<I", len(payload)), payload])
        save_wav(sig, tmp_path / "s.wav")
        assert (tmp_path / "s.wav").read_bytes() == b"RIFF" + struct.pack("<I", len(body)) + body

    def test_chunked_write_error_names_path_and_removes_temp(self, tmp_path, monkeypatch):
        real_fdopen = os.fdopen
        written = []

        class SecondWriteFails:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                written.append(bytes(chunk))
                if len(written) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(chunk)

        monkeypatch.setattr(os, "fdopen", lambda fd, mode: SecondWriteFails(real_fdopen(fd, mode)))
        target = tmp_path / "out.wav"
        with pytest.raises(OSError) as info:
            save_wav(Signal(np.zeros(100)), target)
        assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(target))
        assert len(written) == 2 and len(written[1]) == 400
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_joins_chunks_in_order(self, tmp_path):
        atomic_write_bytes(tmp_path / "f", b"ab", np.arange(3, dtype="<i2"), memoryview(b"z"))
        assert (tmp_path / "f").read_bytes() == b"ab\x00\x00\x01\x00\x02\x00z"

    def test_roundtrip_sine(self, tmp_path):
        t = np.arange(16000) / 16000.0
        sig = Signal(0.9 * np.sin(2 * np.pi * 1000 * t))
        path = tmp_path / "sine.wav"
        save_wav(sig, path)
        back = load_wav(path)
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-7

    def test_roundtrip_uniform_noise(self, tmp_path):
        rng = np.random.default_rng(3)
        sig = Signal(rng.uniform(-1, 1, 8000))
        path = tmp_path / "noise.wav"
        save_wav(sig, path)
        back = load_wav(path)
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-7

    def test_save_float_readback_passthrough(self, tmp_path):
        sig = Signal(np.array([0.25, -0.75, 1.5]))
        path = tmp_path / "f32.wav"
        save_wav(sig, path)
        back = load_wav(path)
        assert back.samples[2] == np.float32(1.5)


class TestExtensibleWav:
    def test_pcm16_subformat_accepted(self, tmp_path):
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        samples = [16384, -32768, 0, 32767, -1]
        write_pcm16(plain, samples)
        write_extensible(ext, struct.pack("<5h", *samples), bits=16)
        got = load_wav(ext).samples
        np.testing.assert_array_equal(got, load_wav(plain).samples)
        assert got[0] == 0.5 and got[1] == -1.0

    def test_float32_subformat_accepted(self, tmp_path):
        path = tmp_path / "ext.wav"
        values = np.array([0.25, -0.75, 1.5], dtype="<f4")
        write_extensible(path, values.tobytes(), bits=32, subformat_tag=3)
        np.testing.assert_array_equal(load_wav(path).samples, values.astype(np.float64))

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"bits": 8, "subformat_tag": 6}, "extensible subformat 6, 8-bit"),
            ({"bits": 32, "subformat_tag": 1}, "extensible subformat 1, 32-bit"),
            ({"bits": 16, "subformat_tag": 3}, "extensible subformat 3, 16-bit"),
            ({"bits": 16, "guid_tail": bytes(14)}, "SubFormat GUID 0100"),
            ({"bits": 16, "cb_size": 0}, "too short for its SubFormat"),
        ],
        ids=["alaw-8bit", "pcm-32bit", "float-16bit", "foreign-guid", "no-cbsize"],
    )
    def test_other_subformats_rejected(self, tmp_path, kwargs, match):
        path = tmp_path / "ext.wav"
        write_extensible(path, b"\x00" * 8, **kwargs)
        with pytest.raises(WavFormatError, match=match) as info:
            load_wav(path)
        assert "\n" not in str(info.value)

    def test_fmt_chunk_without_subformat_rejected(self, tmp_path):
        path = tmp_path / "short.wav"
        fmt = struct.pack("<HHIIHH", 0xFFFE, 1, 16000, 32000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", 2) + b"\x00\x00"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError, match="too short for its SubFormat"):
            load_wav(path)


class TestSceneComponents:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            SceneComponents(s=Signal(np.zeros(8)), e=Signal(np.zeros(9)))

    def test_mix_identity_enforced(self):
        n = 400
        rng = np.random.default_rng(0)
        s, y, w = (Signal(rng.standard_normal(n) * 0.1) for _ in range(3))
        good = Signal(s.samples + y.samples + w.samples)
        SceneComponents(s=s, y=y, w=w, m=good)
        bad = Signal(good.samples + 1e-3)
        with pytest.raises(ValueError) as info:
            SceneComponents(s=s, y=y, w=w, m=bad)
        assert str(info.value) == "m != s + y + w (max deviation 1.000e-03 > 1e-06)"

    def test_residual_identity_enforced(self):
        n = 400
        rng = np.random.default_rng(1)
        m, y_hat = (Signal(rng.standard_normal(n) * 0.1) for _ in range(2))
        e = Signal(m.samples - y_hat.samples)
        SceneComponents(s=Signal(np.ones(n)), m=m, y_hat=y_hat, e=e)
        with pytest.raises(ValueError) as info:
            SceneComponents(s=Signal(np.ones(n)), m=m, y_hat=y_hat, e=Signal(e.samples * 1.01))
        assert str(info.value) == "e != m - y_hat (max deviation 4.562e-03 > 1e-06)"
        # the same deviation once the mix identity has passed in the shared buffer
        mix = dict(s=Signal(np.ones(n)), y=Signal(m.samples - 1.0), w=Signal(np.zeros(n)), m=m)
        SceneComponents(**mix, y_hat=y_hat, e=e)
        with pytest.raises(ValueError) as info:
            SceneComponents(**mix, y_hat=y_hat, e=Signal(e.samples * 1.01))
        assert str(info.value) == "e != m - y_hat (max deviation 4.562e-03 > 1e-06)"

    def test_present(self):
        comps = SceneComponents(s=Signal(np.ones(4)), e=Signal(np.ones(4)))
        assert set(comps.present()) == {"s", "e"}
