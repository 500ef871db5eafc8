"""Malformed outside input, run through every command that reads it.

Each case fails with a nonzero exit and exactly one stderr line, never a
traceback.  A malformed WAV fails its own entry (exit 1); a malformed
score table, JSON file, scene directory or grouping stops the command
before any entry runs (exit 2).  Manifests and scene specs that are
valid JSON but malformed are covered by tests/test_cli.py.
"""

import json
import math
import os
import struct

import numpy as np
import pytest

import reseval as rv
from reseval.audio import save_wav
from reseval.cli import main

PCM16_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 16000 * 2, 2, 16)
FLOAT32_FMT = struct.pack("<HHIIHH", 3, 1, 16000, 16000 * 4, 4, 32)


def run(*argv):
    return main([str(a) for a in argv])


def riff(*chunks):
    """A RIFF/WAVE file of the (chunk id, payload) pairs, with no pad bytes."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(payload)) + payload for cid, payload in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


# case: (file bytes, error type, error after the path)
MALFORMED_WAVS = {
    "shorter-than-riff-header": (b"RIFF\x04\x00\x00\x00WAV", "TruncatedWavError",
                                 "file too short for a RIFF header"),
    "no-fmt-chunk": (riff((b"data", bytes(4))), "WavFormatError", "missing or short fmt chunk"),
    "short-fmt-chunk": (riff((b"fmt ", PCM16_FMT[:14]), (b"data", bytes(4))), "WavFormatError",
                        "missing or short fmt chunk"),
    "no-data-chunk": (riff((b"fmt ", PCM16_FMT)), "TruncatedWavError", "missing data chunk"),
    "pcm16-odd-byte": (riff((b"fmt ", PCM16_FMT), (b"data", bytes(3))), "TruncatedWavError",
                       "data chunk not a whole number of samples"),
    "float32-partial-sample": (riff((b"fmt ", FLOAT32_FMT), (b"data", bytes(6))), "TruncatedWavError",
                               "data chunk not a whole number of samples"),
    "float32-nan": (riff((b"fmt ", FLOAT32_FMT), (b"data", struct.pack("<2f", 0.1, math.nan))), "ValueError",
                    "signal contains non-finite samples"),
    "empty-data-chunk": (riff((b"fmt ", PCM16_FMT), (b"data", b"")), "ValueError",
                         "signal must contain at least one sample"),
}

# every command that reads a manifest's WAVs, with the flags it needs besides --manifest
WAV_COMMANDS = {
    "suppress": ["--out", "out"],
    "evaluate": ["--out", "out"],
    "sweep": ["--alphas", "0,1", "--out", "table.csv"],
}


@pytest.mark.parametrize("command", sorted(WAV_COMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED_WAVS))
def test_malformed_wav_fails_its_entry_on_one_line(tmp_path, monkeypatch, capsys, command, case):
    blob, error, message = MALFORMED_WAVS[case]
    (tmp_path / "bad.wav").write_bytes(blob)
    save_wav(rv.Signal(np.full(1600, 0.1)), tmp_path / "e.wav")
    (tmp_path / "m.json").write_text(json.dumps(
        {"entries": [{"id": "u0", "s": "bad.wav", "e": "e.wav", "s_hat": "e.wav"}]}))
    monkeypatch.chdir(tmp_path)
    assert run(command, "--manifest", "m.json", *WAV_COMMANDS[command]) == 1
    bad = tmp_path / "bad.wav"
    assert capsys.readouterr().err == f"{command}: u0: {error}: {bad}: {message}\n"


@pytest.mark.parametrize("blob,message", [
    (b"", "{path}: empty CSV"),
    (b"utt,a,b\nu0,1,2\nu1,inf,3\nu2,3,5\n", "{path}:3: cell 'inf' in column 'a' is not finite"),
    (b"utt,a,b\nu0,1,2\nu1,2,nan\nu2,3,5\n", "{path}:3: cell 'nan' in column 'b' is not finite"),
    (b"utt,a,b\nu0,1,2\nu0,2,3\nu2,3,5\n", "{path}: duplicate utterance id 'u0'"),
    ("utt,a,b\nu0,1,2\nu1,2,3\n".encode("utf-16"),
     "{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"utt,a,b\nu0," + b"1" * 200_000 + b",2\n", "{path}: field larger than field limit (131072)"),
    (b"\n\r\n\n", "{path}: empty CSV"),
    (b"\nutt,a,b\n\nu0,1,2\n\nu1,2\n", "{path}:6: expected 3 cells, got 2"),
], ids=["empty", "inf-cell", "nan-cell", "duplicate-id", "utf-16", "oversized-cell", "blank-only",
        "ragged-after-blank-lines"])
def test_malformed_score_table_one_line(tmp_path, capsys, blob, message):
    path = tmp_path / "scores.csv"
    path.write_bytes(blob)
    assert run("correlate", "--table", path, "--metric-col", "a", "--score-col", "b",
               "--out", tmp_path / "r.json") == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not os.path.exists(tmp_path / "r.json")


# case: (JSON file, command line that reads it, prefix of its errors), relative to the working directory
NESTED_JSON = {
    "manifest": ("m.json", ["evaluate", "--manifest", "m.json", "--out", "out"], ""),
    "spec": ("spec.json", ["simulate", "--spec", "spec.json", "--out", "out"], "invalid scene spec: "),
    "sidecar": (os.path.join("scenes", "scene_0000", "scene.json"),
                ["evaluate", "--scenes", "scenes", "--out", "out"], ""),
}


@pytest.mark.parametrize("case", sorted(NESTED_JSON))
def test_deeply_nested_json_one_line(tmp_path, monkeypatch, capsys, case):
    """JSON nested deeper than the parser's recursion limit allows is invalid JSON, not a traceback."""
    path, argv, prefix = NESTED_JSON[case]
    monkeypatch.chdir(tmp_path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("[" * 2000 + "]" * 2000)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {prefix}{path}: not valid JSON (nested too deeply)\n"
    assert not os.path.exists("out")


def test_truncated_scene_spec_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text('{"duration": 1')
    assert run("simulate", "--spec", "spec.json", "--out", "out") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: invalid scene spec: spec.json: not valid JSON (Expecting ',' delimiter: line 1 column 15 (char 14))\n")
    assert not os.path.exists("out")


@pytest.mark.parametrize("argv", [
    ["suppress"],
    ["evaluate", "--out", "out"],
    ["sweep", "--alphas", "0", "--out", "table.csv"],
], ids=["suppress", "evaluate", "sweep"])
def test_scenes_dir_without_sidecars_one_line(tmp_path, monkeypatch, capsys, argv):
    """A scene directory whose scene.json is missing is no scene, so the batch is empty."""
    scene = tmp_path / "scenes" / "scene_0000"
    scene.mkdir(parents=True)
    for name in ("s.wav", "e.wav"):
        save_wav(rv.Signal(np.full(1600, 0.1)), scene / name)
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--scenes", "scenes") == 2
    assert capsys.readouterr().err == "error: scenes: no scene directories (missing scene.json sidecars)\n"
    assert sorted(os.listdir(tmp_path)) == ["scenes"]
    assert sorted(os.listdir(scene)) == ["e.wav", "s.wav"]


@pytest.mark.parametrize("argv", [
    ["suppress"],
    ["evaluate", "--out", "out"],
    ["sweep", "--alphas", "0", "--out", "table.csv"],
], ids=["suppress", "evaluate", "sweep"])
@pytest.mark.parametrize("sidecar", [[1, 2], "str", {"spec": [1, 2]}, {"achieved": 5}, None],
                         ids=["list", "string", "spec-list", "achieved-number", "null"])
def test_scene_sidecar_not_an_object_one_line(tmp_path, monkeypatch, capsys, argv, sidecar):
    """A scene.json that is valid JSON but not the simulator's object stops the batch before any entry runs."""
    scenes = tmp_path / "scenes"
    for name in ("scene_0000", "scene_0001"):
        (scenes / name).mkdir(parents=True)
        for wav in ("s.wav", "e.wav"):
            save_wav(rv.Signal(np.full(1600, 0.1)), scenes / name / wav)
        (scenes / name / "scene.json").write_text(json.dumps({"spec": {"ser_db": 0.0}, "achieved": {}}))
    (scenes / "scene_0001" / "scene.json").write_text(json.dumps(sidecar))
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(rv.suppressor, "gain_tracks", lambda *a: calls.append(a))
    assert run(*argv, "--scenes", "scenes") == 2
    path = os.path.join("scenes", "scene_0001", "scene.json")
    assert capsys.readouterr().err == (
        f"error: {path}: scene sidecar must be an object whose 'spec' and 'achieved' are objects\n")
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["scenes"]
    assert sorted(os.listdir(scenes / "scene_0000")) == ["e.wav", "s.wav", "scene.json"]


def sweep_by_ser_db(tmp_path, monkeypatch, u1_tags):
    """Exit code of a sweep grouped by ser_db over u0, tagged 0.0, and u1 with u1_tags;
    checks that no entry was suppressed and no table written."""
    for name in ("s.wav", "e.wav"):
        save_wav(rv.Signal(np.full(1600, 0.1)), tmp_path / name)
    entry = {"s": "s.wav", "e": "e.wav"}
    (tmp_path / "m.json").write_text(json.dumps(
        {"entries": [{"id": "u0", "tags": {"ser_db": 0.0}, **entry}, {"id": "u1", "tags": u1_tags, **entry}]}))
    calls = []
    monkeypatch.setattr(rv.suppressor, "oracle_suppress", lambda *a: calls.append(a))
    code = run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0", "--group-by", "ser_db",
               "--out", tmp_path / "table.csv")
    assert calls == []
    assert not os.path.exists(tmp_path / "table.csv")
    return code


def test_sweep_group_by_tag_an_entry_lacks(tmp_path, monkeypatch, capsys):
    assert sweep_by_ser_db(tmp_path, monkeypatch, {}) == 2
    assert capsys.readouterr().err == "error: entry 'u1' has no tag 'ser_db'\n"


def test_sweep_group_by_null_tag(tmp_path, monkeypatch, capsys):
    """A tag that is present but null is not a missing tag: it fails as a value of the wrong type."""
    assert sweep_by_ser_db(tmp_path, monkeypatch, {"ser_db": None}) == 2
    assert capsys.readouterr().err == "error: entry 'u1': tag 'ser_db' must be a string or a number, got NoneType\n"


def test_sweep_group_by_nan_tag(tmp_path, monkeypatch, capsys):
    """json.dumps writes a NaN tag as NaN, which strict JSON refuses before any entry runs."""
    assert sweep_by_ser_db(tmp_path, monkeypatch, {"ser_db": math.nan}) == 2
    assert (capsys.readouterr().err
            == f"error: {tmp_path / 'm.json'}: not valid JSON (NaN is not a finite float)\n")


def test_sweep_group_by_bool_tag(tmp_path, monkeypatch, capsys):
    """true equals 1 and 1.0 in Python, so a bool tag would pool with numbers; it is refused."""
    assert sweep_by_ser_db(tmp_path, monkeypatch, {"ser_db": True}) == 2
    assert capsys.readouterr().err == "error: entry 'u1': tag 'ser_db' must be a string or a number, got bool\n"


@pytest.mark.parametrize("tag", ["NaN", "1e400", "-Infinity"], ids=["nan", "beyond-float", "minus-infinity"])
def test_manifest_tag_json_cannot_write_refused(tmp_path, monkeypatch, capsys, tag):
    """A tag that manifest.json could not hold as strict JSON fails on reading, before any entry runs."""
    for name in ("s.wav", "e.wav"):
        save_wav(rv.Signal(np.full(1600, 0.1)), tmp_path / name)
    entry = '{"id": "u1", "s": "s.wav", "e": "e.wav", "tags": {"g": %s}}' % tag
    (tmp_path / "m.json").write_text('{"entries": [%s]}' % entry)
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(rv.suppressor, "oracle_suppress", lambda *a: calls.append(a))
    assert run("suppress", "--manifest", "m.json", "--out", "so") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: m.json: not valid JSON ({tag} is not a finite float)\n"
    assert calls == []
    assert not os.path.exists("so")
