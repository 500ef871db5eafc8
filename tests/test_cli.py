import argparse
import ast
import csv
import gc
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import reseval as rv
from reseval import batch, cli
from reseval.audio import SceneComponents, load_wav, save_wav
from reseval.batch import ManifestEntry, manifest_from_scenes, read_manifest, write_manifest
from reseval.cli import build_parser, main
from reseval.metrics import Moments
from reseval.stats import ScoreTable

README = Path(__file__).resolve().parent.parent / "README.md"
SPEC = {"duration": 2.5, "ser_db": 0.0, "snr_db": 30.0}
# the middle scene ends before the near end first talks
BAD_SCENE_SPEC = {"duration": [3.0, 1.0, 3.0]}
# what simulate and evaluate say of an --out that an earlier run wrote, after its path
EARLIER_SCENES = "holds scenes of an earlier run; simulate into a new directory"
EARLIER_REPORT = "holds a report of an earlier run; evaluate into a new directory"


def run(*argv):
    return main([str(a) for a in argv])


def not_finite(literal):
    """What simulate says of a spec whose JSON holds the literal NaN, Infinity or -Infinity at {spec}."""
    return "invalid scene spec: {spec}: not valid JSON (" + literal + " is not a finite float)"


def write_spec(tmp_path, spec=None, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec if spec is not None else SPEC))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def dir_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
    return out


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scenes")
    spec = write_spec(tmp)
    assert run("simulate", "--spec", spec, "--out", tmp / "scenes", "--count", 3, "--seed", 42) == 0
    return tmp / "scenes"


class TestSimulate:
    def test_writes_scene_dirs(self, scene_dir):
        names = sorted(os.listdir(scene_dir))
        assert names == ["scene_0000", "scene_0001", "scene_0002"]
        files = set(os.listdir(scene_dir / "scene_0000"))
        assert {"s.wav", "x.wav", "y.wav", "w.wav", "m.wav", "yhat.wav", "e.wav", "scene.json"} <= files

    def test_rerun_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path)
        for out in ("a", "b"):
            assert run("simulate", "--spec", spec, "--out", tmp_path / out, "--count", 2, "--seed", 7) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_parallel_simulate_matches_serial(self, tmp_path):
        spec = write_spec(tmp_path)
        assert run("simulate", "--spec", spec, "--out", tmp_path / "ser", "--count", 2, "--seed", 9) == 0
        assert run("simulate", "--spec", spec, "--out", tmp_path / "par", "--count", 2, "--seed", 9,
                   "--jobs", 2) == 0
        assert dir_bytes(tmp_path / "ser") == dir_bytes(tmp_path / "par")

    def test_sidecar_levels_match_targets(self, tmp_path):
        spec = write_spec(tmp_path, {**SPEC, "ser_db": [-10.0, 0.0, 10.0]})
        assert run("simulate", "--spec", spec, "--out", tmp_path / "out", "--count", 3, "--seed", 1) == 0
        for i, target in enumerate([-10.0, 0.0, 10.0]):
            sidecar = json.loads((tmp_path / "out" / f"scene_{i:04d}" / "scene.json").read_text())
            assert abs(sidecar["achieved"]["ser_db"] - target) < 1e-9
            assert sidecar["spec"]["ser_db"] == target

    # the one command that reads a scene spec
    @pytest.mark.parametrize("command", ["simulate"])
    @pytest.mark.parametrize("field,value,match", [
        ("duration", "long", "invalid scene spec: field 'duration' has invalid value 'long'"),
        # json.dumps writes these as Infinity and NaN, which strict JSON has no place for
        ("duration", math.inf, not_finite("Infinity")),
        ("clip_hardness", math.inf, not_finite("Infinity")),
        ("t60", math.inf, not_finite("Infinity")),
        ("snr_db", -math.inf, not_finite("-Infinity")),
        ("ser_db", math.nan, not_finite("NaN")),
        ("rir_len", math.inf, not_finite("Infinity")),
        ("rir_length", 100, "invalid scene spec: unknown field 'rir_length'"),
        # the canceller has no settings: its taps, step and passes are fixed
        ("aec", {"taps": 256}, "invalid scene spec: unknown field 'aec'"),
        ("aec_taps", 512, "invalid scene spec: unknown field 'aec_taps'"),
        # the sources are WAVs exactly when near_wav and far_wav are both set
        ("source_mode", "wav", "invalid scene spec: unknown field 'source_mode'"),
        ("near_wav", "near.wav", "invalid scene spec: near_wav and far_wav must be set together"),
        ("far_wav", "far.wav", "invalid scene spec: near_wav and far_wav must be set together"),
        ("ser_db", [], "invalid scene spec: field 'ser_db' is an empty list"),
        ("seed", 42, "invalid scene spec: field 'seed' is set by --seed"),
        ("seed", [1, 2], "invalid scene spec: field 'seed' is set by --seed"),
        # each value must be of its field's declared type: no bool, numeric string,
        # fractional count, numeric path, or number beyond float range
        ("duration", True, "invalid scene spec: field 'duration' has invalid value True"),
        ("ser_db", "10", "invalid scene spec: field 'ser_db' has invalid value '10'"),
        ("rir_len", 256.9, "invalid scene spec: field 'rir_len' has invalid value 256.9"),
        ("rir_len", [False, 1], "invalid scene spec: field 'rir_len' has invalid value False"),
        ("near_wav", 5, "invalid scene spec: field 'near_wav' has invalid value 5"),
        ("snr_db", 10**400, f"invalid scene spec: field 'snr_db' has invalid value {10**400}"),
        ("rir_len", 10**400, f"invalid scene spec: field 'rir_len' has invalid value {10**400}"),
        ("echo_path_change_at", "1.5", "invalid scene spec: field 'echo_path_change_at' has invalid value '1.5'"),
    ], ids=["duration-text", "duration-inf", "clip_hardness-inf", "t60-inf", "snr_db-minus-inf", "ser_db-nan",
            "rir_len-inf", "unknown-field", "nested-aec", "aec_taps", "source-mode", "near-wav-alone",
            "far-wav-alone", "empty-list", "seed", "seed-list", "duration-bool", "ser_db-numeric-string",
            "rir_len-fraction", "rir_len-bool-in-list", "near_wav-number", "snr_db-beyond-float",
            "rir_len-beyond-float", "echo_path_change_at-numeric-string"])
    def test_invalid_spec_field_reported(self, tmp_path, capsys, command, field, value, match):
        spec = write_spec(tmp_path, {**SPEC, field: value})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(command, "--spec", spec, "--count", 1, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"error: {match.format(spec=spec)}\n"
        assert caught == []
        assert not os.path.exists(tmp_path / "x")

    def test_non_object_spec_reported(self, tmp_path, capsys):
        path = write_spec(tmp_path, [SPEC])
        assert run("simulate", "--spec", path, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"error: invalid scene spec: {path}: must be a JSON object\n"
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("seed,count,bad", [(-1, 1, -1), (2**33 - 1, 1, 2**33 - 1), (2**32 - 2, 3, 2**32)],
                             ids=["minus-one", "beyond-32-bits", "count-wraps"])
    def test_seed_outside_32_bits_refused(self, tmp_path, monkeypatch, capsys, seed, count, bad):
        """The RNG takes a seed as one 32-bit word, so a scene seed outside [0, 2**32) would
        repeat an in-range scene under another recorded seed; it is refused before any scene."""
        spec = write_spec(tmp_path)
        calls = []
        monkeypatch.setattr(rv.simulate, "generate_scene", lambda spec: calls.append(spec))
        assert run("simulate", "--spec", spec, "--out", tmp_path / "x", "--count", count, "--seed", seed) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid scene spec: seed must be in [0, 2**32), got {bad}\n"
        assert calls == []
        assert not os.path.exists(tmp_path / "x")

    def test_largest_seed_accepted(self, tmp_path):
        spec = write_spec(tmp_path, {"duration": 1.5})
        for seed, out in ((2**32 - 1, "last"), (0, "first")):
            assert run("simulate", "--spec", spec, "--out", tmp_path / out, "--seed", seed) == 0
        sidecar = json.loads((tmp_path / "last" / "scene_0000" / "scene.json").read_text())
        assert sidecar["spec"]["seed"] == 2**32 - 1
        s_wav = os.path.join("scene_0000", "s.wav")
        assert dir_bytes(tmp_path / "last")[s_wav] != dir_bytes(tmp_path / "first")[s_wav]

    @pytest.mark.parametrize("seed_argv", [[], ["--seed", 7]], ids=["default-seed", "seed-7"])
    def test_seed_env_ignored(self, tmp_path, monkeypatch, seed_argv):
        """The seed comes only from --seed (default 0): $RES_EVAL_SEED changes no output."""
        spec = write_spec(tmp_path)
        assert run("simulate", "--spec", spec, "--out", tmp_path / "plain", "--count", 1, *seed_argv) == 0
        monkeypatch.setenv("RES_EVAL_SEED", "42")
        assert run("simulate", "--spec", spec, "--out", tmp_path / "env", "--count", 1, *seed_argv) == 0
        assert dir_bytes(tmp_path / "env") == dir_bytes(tmp_path / "plain")
        sidecar = json.loads((tmp_path / "env" / "scene_0000" / "scene.json").read_text())
        assert sidecar["spec"]["seed"] == (seed_argv[1] if seed_argv else 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_scene_isolated(self, tmp_path, capsys, jobs):
        """A scene with no near-end talk fails alone: the others are written as a healthy run writes them."""
        good = write_spec(tmp_path, {"duration": 3.0}, name="good.json")
        bad = write_spec(tmp_path, BAD_SCENE_SPEC, name="bad.json")
        assert run("simulate", "--spec", good, "--out", tmp_path / "good", "--count", 3, "--seed", 4) == 0
        capsys.readouterr()
        assert run("simulate", "--spec", bad, "--out", tmp_path / "bad", "--count", 3, "--seed", 4,
                   "--jobs", jobs) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line == ("simulate: scene_0001: ValueError: duration 1.0 s has no near-end talk: "
                        "the near end starts talking at 1.0 s")
        assert captured.out == f"simulate: 2 ok, 1 failed -> {tmp_path / 'bad'}\n"
        for name in ("scene_0000", "scene_0002"):
            assert dir_bytes(tmp_path / "bad" / name) == dir_bytes(tmp_path / "good" / name)
        assert not (tmp_path / "bad" / "scene_0001").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scene_failed_part_way_leaves_no_directory(self, tmp_path, capsys, jobs):
        """A scene whose y.wav 32-bit float cannot hold fails after its s.wav and x.wav
        are written; its directory goes with it, and its neighbours are a healthy run's."""
        good = write_spec(tmp_path, {"duration": 3.0}, name="good.json")
        bad = write_spec(tmp_path, {"duration": 3.0, "ser_db": [0.0, -800, 0.0]}, name="bad.json")
        assert run("simulate", "--spec", good, "--out", tmp_path / "good", "--count", 3, "--seed", 4) == 0
        capsys.readouterr()
        assert run("simulate", "--spec", bad, "--out", tmp_path / "bad", "--count", 3, "--seed", 4,
                   "--jobs", jobs) == 1
        y = tmp_path / "bad" / "scene_0001" / "y.wav"
        assert capsys.readouterr().err == (f"simulate: scene_0001: ValueError: {y}: "
                                           f"samples beyond the range of 32-bit float\n")
        assert sorted(os.listdir(tmp_path / "bad")) == ["scene_0000", "scene_0002"]
        for name in ("scene_0000", "scene_0002"):
            assert dir_bytes(tmp_path / "bad" / name) == dir_bytes(tmp_path / "good" / name)

    @pytest.mark.parametrize("field", ["ser_db", "snr_db"])
    @pytest.mark.parametrize("level,scale", [(4000, "0"), (-4000, "inf")], ids=["zero-scale", "inf-scale"])
    def test_unreachable_level_fails_its_scene(self, tmp_path, capsys, field, level, scale):
        """A level whose echo or noise would scale to zero or overflow fails the scene, and no
        sidecar claims it was reached."""
        spec = write_spec(tmp_path, {"duration": 2.5, field: level})
        assert run("simulate", "--spec", spec, "--count", 1, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == (f"simulate: scene_0000: ValueError: {field} {level} dB "
                                           f"is out of reach (scale factor {scale})\n")
        assert not (tmp_path / "x" / "scene_0000").exists()

    @pytest.mark.parametrize("level", [-800, 1000], ids=["overflows-float32", "underflows-float32"])
    def test_level_beyond_float32_fails_its_scene(self, tmp_path, capsys, level):
        """A level that float64 reaches but the 32-bit float WAV cannot hold (inf, or an
        all-zero echo) fails the scene, and no sidecar claims it was reached."""
        spec = write_spec(tmp_path, {"duration": 2.5, "ser_db": level})
        assert run("simulate", "--spec", spec, "--count", 1, "--out", tmp_path / "x") == 1
        y = tmp_path / "x" / "scene_0000" / "y.wav"
        assert capsys.readouterr().err == (f"simulate: scene_0000: ValueError: {y}: "
                                           f"samples beyond the range of 32-bit float\n")
        assert not (tmp_path / "x" / "scene_0000").exists()

    @pytest.mark.parametrize("fields", [{"duration": 0.5}, {"duration": 10.0, "echo_path_change_at": 6.0}])
    def test_wav_sources_must_last_the_duration(self, tmp_path, capsys, fields):
        paths = {}
        for name in ("near_wav", "far_wav"):
            paths[name] = str(tmp_path / f"{name}.wav")
            save_wav(rv.Signal(np.full(16000, 0.1)), paths[name])
        spec = write_spec(tmp_path, {**fields, **paths})
        assert run("simulate", "--spec", spec, "--count", 1, "--out", tmp_path / "x") == 1
        n = round(fields["duration"] * 16000)
        assert capsys.readouterr().err == (f"simulate: scene_0000: ValueError: near_wav has 16000 samples, "
                                           f"not the {n} of duration {fields['duration']} s\n")
        assert not (tmp_path / "x" / "scene_0000").exists()

    def test_failed_scene_leaves_no_older_scene_in_its_place(self, tmp_path, monkeypatch, capsys):
        """A second run into an --out that holds scenes is refused before any scene is made,
        so no scene of the first run stands in for one that fails in the second."""
        good = write_spec(tmp_path, {"duration": 3.0}, name="good.json")
        bad = write_spec(tmp_path, BAD_SCENE_SPEC, name="bad.json")
        out = tmp_path / "out"
        assert run("simulate", "--spec", good, "--out", out, "--count", 3, "--seed", 4) == 0
        before = dir_bytes(out)
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(rv.simulate, "generate_scene", lambda spec: calls.append(spec))
        assert run("simulate", "--spec", bad, "--out", out, "--count", 3, "--seed", 4) == 2
        assert capsys.readouterr().err == f"error: {out}: {EARLIER_SCENES}\n"
        assert (calls, dir_bytes(out)) == ([], before)

    @pytest.mark.parametrize("suppressed", [False, True], ids=["scenes", "scenes-with-shat"])
    def test_out_with_scenes_of_an_earlier_run_refused(self, tmp_path, capsys, suppressed):
        """Neither a scene of the earlier run that the new one would not reach (scene_0002)
        nor an earlier shat.wav beside new s.wav and e.wav can be left to be scored."""
        spec, out = write_spec(tmp_path), tmp_path / "scenes"
        assert run("simulate", "--spec", spec, "--out", out, "--count", 3, "--seed", 1) == 0
        if suppressed:
            assert run("suppress", "--scenes", out, "--beta", 8) == 0
        before = dir_bytes(out)
        capsys.readouterr()
        assert run("simulate", "--spec", spec, "--out", out, "--count", 2, "--seed", 50) == 2
        assert capsys.readouterr().err == f"error: {out}: {EARLIER_SCENES}\n"
        assert dir_bytes(out) == before

    @pytest.mark.parametrize("entry,refused", [
        ("scene_0007/", True), ("scene_notes.txt", True), ("notes.txt", False), ("scenes/", False),
    ], ids=["scene-dir", "scene-file", "other-file", "other-dir"])
    def test_any_scene_entry_refuses_an_out(self, tmp_path, capsys, entry, refused):
        out = tmp_path / "out"
        out.mkdir()
        if entry.endswith("/"):
            (out / entry).mkdir()
        else:
            (out / entry).write_text("x")
        code = run("simulate", "--spec", write_spec(tmp_path), "--out", out, "--count", 1)
        if refused:
            assert (code, capsys.readouterr().err) == (2, f"error: {out}: {EARLIER_SCENES}\n")
            assert os.listdir(out) == [entry.rstrip("/")]
        else:
            assert code == 0
            assert sorted(os.listdir(out)) == sorted([entry.rstrip("/"), "scene_0000"])

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_rejected(self, tmp_path, monkeypatch, capsys, count):
        calls = []
        monkeypatch.setattr(rv.simulate, "generate_scene", lambda spec: calls.append(spec))
        assert run("simulate", "--spec", write_spec(tmp_path), "--count", count, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"error: invalid scene spec: --count must be >= 1, got {count}\n"
        assert calls == []
        assert not os.path.exists(tmp_path / "x")


class TestSuppress:
    def test_writes_shat_into_scene_dirs(self, scene_dir):
        assert run("suppress", "--scenes", scene_dir, "--beta", 8) == 0
        for name in os.listdir(scene_dir):
            assert (scene_dir / name / "shat.wav").exists()

    def test_alpha_maps_to_beta(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "sup"
        assert run("suppress", "--scenes", scene_dir, "--alpha", 0.5, "--out", out) == 0
        assert "beta=8.5" in capsys.readouterr().out
        assert all("s_hat" in entry.paths for entry in read_manifest(out / "manifest.json"))

    def test_manifest_mode_requires_paths(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": [{"id": "u0", "s": "missing.wav"}]}))
        assert run("suppress", "--manifest", manifest, "--out", tmp_path / "o") == 1
        assert "missing paths" in capsys.readouterr().err

    def test_manifest_without_out_rejected_before_any_entry(self, scene_dir, tmp_path, monkeypatch, capsys):
        """A manifest names no scene directory for shat.wav, and its entries may share one."""
        shutil.copytree(scene_dir, tmp_path / "scenes")
        write_manifest(tmp_path / "m.json", manifest_from_scenes(tmp_path / "scenes"))
        calls = []
        monkeypatch.setattr(rv.suppressor, "oracle_suppress", lambda *a: calls.append(a))
        before = dir_bytes(tmp_path)
        assert run("suppress", "--manifest", tmp_path / "m.json", "--alpha", 0.5) == 2
        assert capsys.readouterr().err == "error: suppress --manifest needs --out\n"
        assert calls == []
        assert dir_bytes(tmp_path) == before

    def test_out_manifest_reads_back_with_relative_paths(self, scene_dir, tmp_path, monkeypatch):
        shutil.copytree(scene_dir, tmp_path / "scenes")
        monkeypatch.chdir(tmp_path)
        assert run("suppress", "--scenes", "scenes", "--beta", 8, "--out", "sup") == 0
        raw = json.loads((tmp_path / "sup" / "manifest.json").read_text())
        assert list(raw) == ["entries"]
        assert raw["entries"][0]["s"] == os.path.join("..", "scenes", "scene_0000", "s.wav")
        assert raw["entries"][0]["s_hat"] == "scene_0000.shat.wav"
        assert run("evaluate", "--manifest", os.path.join("sup", "manifest.json"), "--out", "rep") == 0
        assert json.loads((tmp_path / "rep" / "report.json").read_text())["n_failed"] == 0

    def test_out_manifest_keeps_no_s_hat_of_a_failed_entry(self, scene_dir, tmp_path, monkeypatch, capsys):
        """An entry gets the s_hat this run wrote for it; one that failed keeps none,
        not the s_hat it came in with."""
        (ok, stale, *_) = manifest_from_scenes(scene_dir)
        del stale.paths["e"]
        stale.paths["s_hat"] = str(tmp_path / "old.shat.wav")
        write_manifest(tmp_path / "m.json", [ok, stale])
        monkeypatch.chdir(tmp_path)
        assert run("suppress", "--manifest", "m.json", "--alpha", 0, "--out", "sup") == 1
        assert capsys.readouterr().err == f"suppress: {stale.id}: ValueError: entry {stale.id!r} is missing paths: e\n"
        raw = json.loads((tmp_path / "sup" / "manifest.json").read_text())
        assert [item["id"] for item in raw["entries"]] == [ok.id, stale.id]
        assert raw["entries"][0]["s_hat"] == f"{ok.id}.shat.wav"
        assert "s_hat" not in raw["entries"][1]
        assert read_manifest(tmp_path / "m.json")[1].paths["s_hat"] == str(tmp_path / "old.shat.wav")

    def test_invalid_beta_one_line_before_batch(self, scene_dir, capsys):
        assert run("suppress", "--scenes", scene_dir, "--beta", 0.5) == 2
        assert capsys.readouterr().err == "error: beta must be >= 1, got 0.5\n"

    def test_jobs_parallel_matches_serial(self, scene_dir, tmp_path):
        assert run("suppress", "--scenes", scene_dir, "--alpha", 0.5, "--out", tmp_path / "serial") == 0
        assert run("suppress", "--scenes", scene_dir, "--alpha", 0.5, "--out", tmp_path / "parallel",
                   "--jobs", 2) == 0
        assert dir_bytes(tmp_path / "serial") == dir_bytes(tmp_path / "parallel")


class TestEvaluate:
    def build_identity_manifest(self, tmp_path, n_entries=2):
        """Entries whose s_hat is literally the e file: the identity RES."""
        rng = np.random.default_rng(0)
        entries = []
        for i in range(n_entries):
            s = rng.standard_normal(4800) * 0.2
            e = s + rng.standard_normal(4800) * 0.1
            s_path = tmp_path / f"s{i}.wav"
            e_path = tmp_path / f"e{i}.wav"
            save_wav(rv.Signal(s), s_path)
            save_wav(rv.Signal(e), e_path)
            entries.append({"id": f"u{i}", "s": s_path.name, "e": e_path.name, "s_hat": e_path.name})
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"entries": entries}))
        return path

    def test_identity_res_zero_resl(self, tmp_path):
        manifest = self.build_identity_manifest(tmp_path)
        out = tmp_path / "report"
        assert run("evaluate", "--manifest", manifest, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["metrics"]["resl"]["mean"] == pytest.approx(0.0, abs=1e-12)
        assert payload["n_failed"] == 0
        # no y/w files in these entries: ser/snr reported as absent
        assert "ser" not in payload["metrics"]
        assert "snr" not in payload["metrics"]

    def test_scene_pipeline_report(self, scene_dir, tmp_path):
        run("suppress", "--scenes", scene_dir, "--beta", 8)
        out = tmp_path / "rep"
        assert run("evaluate", "--scenes", scene_dir, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text())
        for name in ("dsml", "resl", "sdr", "sar", "erle", "ser", "snr"):
            assert name in payload["metrics"]
        assert set(payload["per_utterance"]) == {"scene_0000", "scene_0001", "scene_0002"}

    def test_aggregates_match_frame_csvs(self, scene_dir, tmp_path):
        out = tmp_path / "rep2"
        run("suppress", "--scenes", scene_dir, "--beta", 4)
        assert run("evaluate", "--scenes", scene_dir, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text())
        pooled = {}
        for name in os.listdir(out):
            if not name.startswith("frames_"):
                continue
            with open(out / name, newline="") as fh:
                for row in csv.DictReader(fh):
                    for metric in ("dsml", "resl", "sdr", "sar", "erle", "ser", "snr"):
                        if row[metric] != "":
                            pooled.setdefault(metric, []).append(float(row[metric]))
        for metric, values in pooled.items():
            mean = math.fsum(values) / len(values)
            agg = payload["metrics"][metric]
            assert agg["count"] == len(values)
            assert agg["mean"] == pytest.approx(mean, abs=1e-9)

    def test_one_entry_pools_to_its_own_aggregates(self, tmp_path):
        """Pooling merges each entry's moments into empty ones, so a batch of one entry
        reports its per-utterance aggregates as the pooled ones, bit for bit."""
        manifest = self.build_identity_manifest(tmp_path, n_entries=1)
        assert run("evaluate", "--manifest", manifest, "--out", tmp_path / "rep") == 0
        payload = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert payload["metrics"] == payload["per_utterance"]["u0"] and payload["metrics"]

    def test_empty_manifest_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": []}))
        assert run("evaluate", "--manifest", manifest, "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err == f"error: {manifest}: no entries\n"

    def test_missing_file_isolated(self, tmp_path, capsys):
        manifest = self.build_identity_manifest(tmp_path)
        data = json.loads(manifest.read_text())
        data["entries"].append({"id": "broken", "s": "nope.wav", "e": "nope.wav", "s_hat": "nope.wav"})
        manifest.write_text(json.dumps(data))
        out = tmp_path / "rep"
        assert run("evaluate", "--manifest", manifest, "--out", out) == 1
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_failed"] == 1
        assert "broken" in payload["errors"]
        # partial results for the healthy entries still written
        assert (out / "frames_u0.csv").exists()

    def test_entry_shorter_than_one_frame_fails_its_line(self, tmp_path, capsys):
        """An entry with no full frame fails in evaluate as in suppress and sweep, and the other is scored."""
        manifest = self.build_identity_manifest(tmp_path, n_entries=1)
        save_wav(rv.Signal(np.random.default_rng(7).standard_normal(100) * 0.1), tmp_path / "short.wav")
        data = json.loads(manifest.read_text())
        data["entries"].append({"id": "short", "s": "short.wav", "e": "short.wav", "s_hat": "short.wav"})
        manifest.write_text(json.dumps(data))
        error = "ValueError: signal length 100 shorter than one frame (320)"
        out = tmp_path / "rep"
        assert run("evaluate", "--manifest", manifest, "--out", out) == 1
        assert capsys.readouterr().err == f"evaluate: short: {error}\n"
        payload = json.loads((out / "report.json").read_text())
        assert (payload["n_failed"], payload["errors"]) == (1, {"short": error})
        assert sorted(os.listdir(out)) == ["frames_u0.csv", "report.json"]
        assert list(payload["per_utterance"]) == ["u0"]
        assert payload["metrics"]["resl"]["count"] > 0
        for argv in (("suppress", "--out", tmp_path / "sup"), ("sweep", "--alphas", "0", "--out", tmp_path / "t.csv")):
            assert run(argv[0], "--manifest", manifest, *argv[1:]) == 1
            assert capsys.readouterr().err == f"{argv[0]}: short: {error}\n"

    @pytest.mark.parametrize("keep", [None, "report.json", "frames_u0.csv"],
                             ids=["whole-report", "report-json", "frame-csv"])
    def test_out_with_a_report_of_an_earlier_run_refused(self, tmp_path, monkeypatch, capsys, keep):
        """Re-run with u1 now failing, the out would keep the first run's frames_u1.csv
        beside a report.json that lists u1 under errors; so the re-run writes nothing."""
        manifest = self.build_identity_manifest(tmp_path)
        out = tmp_path / "rep"
        assert run("evaluate", "--manifest", manifest, "--out", out) == 0
        for name in os.listdir(out):
            if keep not in (None, name):
                os.unlink(out / name)
        before = dir_bytes(out)
        (tmp_path / "e1.wav").unlink()
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(batch, "_run_batch", lambda *args, **kwargs: calls.append(args))
        assert run("evaluate", "--manifest", manifest, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {out}: {EARLIER_REPORT}\n"
        assert (calls, dir_bytes(out)) == ([], before)

    def test_out_with_other_files_accepted(self, tmp_path):
        """Only report.json and frames_* belong to a report, so scenes and notes may share its --out."""
        manifest = self.build_identity_manifest(tmp_path)
        out = tmp_path / "rep"
        (out / "scene_0000").mkdir(parents=True)
        (out / "notes.txt").write_text("x")
        assert run("evaluate", "--manifest", manifest, "--out", out) == 0
        assert sorted(os.listdir(out)) == ["frames_u0.csv", "frames_u1.csv", "notes.txt", "report.json",
                                           "scene_0000"]

    def test_jobs_parallel_matches_serial(self, tmp_path):
        manifest = self.build_identity_manifest(tmp_path, n_entries=3)
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert run("evaluate", "--manifest", manifest, "--out", out1) == 0
        assert run("evaluate", "--manifest", manifest, "--out", out2, "--jobs", 2) == 0
        assert dir_bytes(out1) == dir_bytes(out2)

    def test_duplicate_ids_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": [{"id": "a"}, {"id": "a"}]}))
        assert run("evaluate", "--manifest", manifest, "--out", tmp_path / "r") == 2
        assert capsys.readouterr().err == f"error: {manifest}: duplicate entry id 'a'\n"


class TestSweep:
    def test_single_alpha(self, scene_dir, tmp_path):
        out = tmp_path / "table.csv"
        assert run("sweep", "--scenes", scene_dir, "--alphas", "0", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["beta"]) == 1.0
        assert abs(float(rows[0]["resl_mean"])) < 2.0

    def test_full_sweep_monotone(self, scene_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--scenes", scene_dir, "--alphas", "0,0.25,0.5,0.75,1", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["alpha"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        resl = [float(r["resl_mean"]) for r in rows]
        dsml = [float(r["dsml_mean"]) for r in rows]
        assert all(b > a for a, b in zip(resl, resl[1:]))
        assert all(b < a for a, b in zip(dsml, dsml[1:]))

    def test_group_by_ser(self, tmp_path):
        spec = write_spec(tmp_path, {**SPEC, "ser_db": [-10.0, 10.0]})
        scenes = tmp_path / "grouped"
        assert run("simulate", "--spec", spec, "--out", scenes, "--count", 4, "--seed", 11) == 0
        out = tmp_path / "grouped.csv"
        assert run("sweep", "--scenes", scenes, "--alphas", "0,1", "--out", out, "--group-by", "ser_db") == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        groups = {float(r["ser_db"]) for r in rows}
        assert groups == {-10.0, 10.0}
        for group in groups:
            vals = [float(r["resl_mean"]) for r in rows if float(r["ser_db"]) == group]
            assert vals[1] > vals[0]

    def test_grouped_table_correlates_by_alpha(self, tmp_path, capsys):
        """A grouped sweep table starts with unique <group>/<alpha> ids, so correlate can read it."""
        spec = write_spec(tmp_path, {**SPEC, "ser_db": [-10.0, 0.0, 10.0]})
        scenes = tmp_path / "ser"
        assert run("simulate", "--spec", spec, "--out", scenes, "--count", 3, "--seed", 1) == 0
        out = tmp_path / "sweep_ser.csv"
        assert run("sweep", "--scenes", scenes, "--alphas", "0,0.5,1", "--group-by", "ser_db", "--out", out) == 0
        rows = read_rows(out)
        assert list(rows[0])[:3] == ["id", "ser_db", "alpha"]
        assert [r["id"] for r in rows] == [f"{g}/{a}" for g in ("-10.0", "0.0", "10.0") for a in ("0.0", "0.5", "1.0")]
        capsys.readouterr()
        assert run("correlate", "--table", out, "--metric-col", "dsml_mean", "--score-col", "resl_mean",
                   "--group-by", "alpha") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[0] for line in lines] == ["alpha=0.0", "alpha=0.5", "alpha=1.0"]
        assert all(line.endswith(" n=3") for line in lines)

    def test_table_grouped_by_text_tag_correlates(self, scene_dir, tmp_path, capsys):
        """The room column keeps its text: correlate groups by alpha or by room, and a room is a group."""
        entries = manifest_from_scenes(scene_dir)
        entries.append(ManifestEntry("again", entries[0].paths))
        for entry, room in zip(entries, "abab"):
            entry.tags["room"] = room
        write_manifest(tmp_path / "m.json", entries)
        out = tmp_path / "gs.csv"
        assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0,0.5,1", "--group-by", "room",
                   "--out", out) == 0
        rows = read_rows(out)
        capsys.readouterr()
        for group_by, groups in (("alpha", ("0.0", "0.5", "1.0")), ("room", ("a", "b"))):
            assert run("correlate", "--table", out, "--metric-col", "dsml_mean", "--score-col", "resl_mean",
                       "--group-by", group_by) == 0
            expected = []
            for group in groups:
                x, y = zip(*[(float(r["dsml_mean"]), float(r["resl_mean"])) for r in rows if r[group_by] == group])
                expected.append(f"{group_by}={group} pcc={rv.pcc(x, y):.6f} srcc={rv.srcc(x, y):.6f} n={len(x)}\n")
            assert capsys.readouterr() == ("".join(expected), "")

    @pytest.mark.parametrize("group_by", [None, "g"])
    def test_table_reads_back_as_written(self, scene_dir, tmp_path, monkeypatch, group_by):
        """Every number cell of a sweep table reads back equal to the value the sweep wrote."""
        entries = manifest_from_scenes(scene_dir)
        for entry, g in zip(entries, (-10.5, 0.1, -10.5)):
            entry.tags["g"] = g
        write_manifest(tmp_path / "m.json", entries)
        written = {}

        def write_csv(path, header, columns):
            written.update(zip(header, columns, strict=True))
            return real_write_csv(path, header, columns)

        real_write_csv = batch.write_csv
        monkeypatch.setattr(batch, "write_csv", write_csv)
        out = tmp_path / "t.csv"
        grouping = ["--group-by", group_by] if group_by else []
        assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0,0.3,1", *grouping, "--out", out) == 0
        table = ScoreTable.from_csv(out)
        assert list(table.columns) == list(written) and table.refused == {}
        id_column, *numbers = written
        assert table.columns[id_column] == [v if isinstance(v, str) else repr(v) for v in written[id_column]]
        for name in numbers:
            assert table.columns[name] == [None if v is None or math.isnan(v) else v for v in written[name]], name
        assert any(isinstance(v, float) for name in numbers for v in table.columns[name])

    def test_ungrouped_table_has_no_id_column(self, scene_dir, tmp_path):
        out = tmp_path / "t.csv"
        assert run("sweep", "--scenes", scene_dir, "--alphas", "0,1", "--out", out) == 0
        assert out.read_text().startswith("alpha,beta,n_scenes,dsml_mean,")

    @pytest.mark.parametrize("column", ["id", "alpha", "n_scenes", "dsml_mean"])
    def test_group_by_a_table_column_rejected_before_any_entry(self, scene_dir, tmp_path, monkeypatch,
                                                               capsys, column):
        entries = manifest_from_scenes(scene_dir)
        for entry in entries:
            entry.tags[column] = 1.0
        write_manifest(tmp_path / "m.json", entries)
        calls = []
        monkeypatch.setattr(rv.activity, "classify", lambda *a: calls.append(a))
        assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0", "--group-by", column,
                   "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"error: --group-by {column!r} names a column of the sweep table\n"
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_group_values_that_read_the_same_rejected_before_any_entry(self, scene_dir, tmp_path,
                                                                        monkeypatch, capsys):
        """Group cells read back stripped, and as numbers where every cell is one, so a
        string '1' and a number 1, or 'a' and ' a', would write one group and the same ids;
        a cell that reads back empty would leave its rows in no group."""
        calls = []
        monkeypatch.setattr(rv.activity, "classify", lambda *a: calls.append(a))
        for values, error in [
            ((1, "1", 1), "values 1 and '1' read the same in a table"),
            (("a", " a", "b"), "values 'a' and ' a' read the same in a table"),
            (("a", "b", "a "), "values 'a' and 'a ' read the same in a table"),
            (("1", "1.0", "2"), "values '1' and '1.0' read the same in a table"),
            (("a", "", "b"), "value '' reads as an empty cell in a table"),
            (("a", "b", " "), "value ' ' reads as an empty cell in a table"),
        ]:
            entries = manifest_from_scenes(scene_dir)
            for entry, value in zip(entries, values):
                entry.tags["g"] = value
            write_manifest(tmp_path / "m.json", entries)
            assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0", "--group-by", "g",
                       "--out", tmp_path / "x.csv") == 2
            assert capsys.readouterr().err == f"error: tag 'g': {error}\n"
            assert calls == []
            assert not (tmp_path / "x.csv").exists()

    def test_sweep_with_every_entry_failed_writes_header_only(self, tmp_path, scene_dir, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": [{"id": f"u{i}", "s": "nope.wav", "e": "nope.wav"}
                                                    for i in range(2)]}))
        out = tmp_path / "t.csv"
        assert run("sweep", "--manifest", manifest, "--alphas", "0,1", "--out", out) == 1
        captured = capsys.readouterr()
        assert [line.split(": ")[:2] for line in captured.err.splitlines()] == [["sweep", "u0"], ["sweep", "u1"]]
        assert captured.out == f"sweep: 0 rows, 0 ok, 2 failed -> {out}\n"
        # the same header as a sweep whose scenes are healthy
        assert run("sweep", "--scenes", scene_dir, "--alphas", "0", "--out", tmp_path / "ok.csv") == 0
        assert out.read_text() == (tmp_path / "ok.csv").read_text().splitlines(keepends=True)[0]

    def test_manifest_driven_sweep(self, scene_dir, tmp_path):
        manifest_path = tmp_path / "m.json"
        write_manifest(manifest_path, manifest_from_scenes(scene_dir))
        out = tmp_path / "from_manifest.csv"
        assert run("sweep", "--manifest", manifest_path, "--alphas", "0,1", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and rows[0]["n_scenes"] == "3"

    def test_empty_alphas_rejected(self, scene_dir, tmp_path, capsys):
        assert run("sweep", "--scenes", scene_dir, "--alphas", "", "--out", tmp_path / "x.csv") == 2
        assert "empty alpha list" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["0,,1", "abc", "0,1,", ",0.5", "0;1"])
    def test_malformed_alphas_rejected_before_any_entry(self, scene_dir, tmp_path, monkeypatch, capsys, alphas):
        calls = []
        monkeypatch.setattr(rv.activity, "classify", lambda *a: calls.append(a))
        assert run("sweep", "--scenes", scene_dir, "--alphas", alphas, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"error: --alphas must be comma-separated numbers, got {alphas!r}\n"
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_non_scalar_group_tag_rejected_before_suppression(self, scene_dir, tmp_path, monkeypatch, capsys):
        entries = manifest_from_scenes(scene_dir)
        entries[-1].tags["ser_db"] = [0.0, 10.0]
        write_manifest(tmp_path / "m.json", entries)
        calls = []
        monkeypatch.setattr(rv.suppressor, "oracle_suppress", lambda *a: calls.append(a))
        assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0", "--group-by", "ser_db",
                   "--out", tmp_path / "x.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: entry 'scene_0002': tag 'ser_db'")
        assert err.count("\n") == 1
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_failed_entry_isolated(self, scene_dir, tmp_path, capsys):
        entries = manifest_from_scenes(scene_dir)
        entries.insert(1, ManifestEntry("broken", {"s": str(tmp_path / "nope.wav"),
                                                   "e": str(tmp_path / "nope.wav")}))
        # shorter than one frame
        short = rv.Signal(np.random.default_rng(5).standard_normal(200) * 0.1)
        save_wav(short, tmp_path / "short.wav")
        entries.append(ManifestEntry("short", {"s": str(tmp_path / "short.wav"),
                                               "e": str(tmp_path / "short.wav")}))
        write_manifest(tmp_path / "m.json", entries)
        out = tmp_path / "partial.csv"
        assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0,1", "--out", out) == 1
        broken, short_line = capsys.readouterr().err.splitlines(keepends=True)
        assert broken.startswith("sweep: broken: FileNotFoundError: ")
        assert short_line == "sweep: short: ValueError: signal length 200 shorter than one frame (320)\n"
        rows = read_rows(out)
        assert [r["n_scenes"] for r in rows] == ["3", "3"]

    @pytest.mark.parametrize("group_by", [None, "room"], ids=["ungrouped", "grouped"])
    def test_jobs_parallel_matches_serial(self, scene_dir, tmp_path, group_by):
        entries = manifest_from_scenes(scene_dir)
        for i, entry in enumerate(entries):
            entry.tags["room"] = "ab"[i % 2]
        write_manifest(tmp_path / "m.json", entries)
        grouping = ["--group-by", group_by] if group_by else []
        for jobs in (1, 2):
            assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0,0.5,1", *grouping,
                       "--out", tmp_path / f"j{jobs}.csv", "--jobs", jobs) == 0
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j2.csv").read_bytes()

    def test_failed_entry_reported_alike_under_jobs(self, scene_dir, tmp_path, capsys):
        entries = manifest_from_scenes(scene_dir)
        entries.insert(1, ManifestEntry("broken", {"s": str(tmp_path / "nope.wav"),
                                                   "e": str(tmp_path / "nope.wav")}))
        write_manifest(tmp_path / "m.json", entries)
        got = {}
        for jobs in (1, 2):
            code = run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0,1",
                       "--out", tmp_path / f"j{jobs}.csv", "--jobs", jobs)
            got[jobs] = code, capsys.readouterr().err
        assert got[1] == got[2]
        code, err = got[1]
        assert code == 1
        assert err.startswith("sweep: broken: FileNotFoundError: ") and err.count("\n") == 1
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j2.csv").read_bytes()

    def test_row_matches_suppress_then_evaluate(self, scene_dir, tmp_path, monkeypatch):
        shutil.copytree(scene_dir, tmp_path / "scenes")
        monkeypatch.chdir(tmp_path)
        assert run("sweep", "--scenes", "scenes", "--alphas", "0.5", "--out", "sweep.csv") == 0
        assert run("suppress", "--scenes", "scenes", "--alpha", 0.5, "--out", "sup") == 0
        assert run("evaluate", "--manifest", os.path.join("sup", "manifest.json"), "--out", "rep") == 0
        (row,) = read_rows(tmp_path / "sweep.csv")
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert int(row["n_scenes"]) == report["n_entries"] - report["n_failed"] == 3
        for name in rv.metrics.METRIC_NAMES:
            agg = report["metrics"].get(name)
            if agg is None:
                assert row[f"{name}_mean"] == row[f"{name}_std"] == ""
                continue
            # sweep rounds s_hat through float32 as the WAV that evaluate reads holds it
            assert float(row[f"{name}_mean"]) == agg["mean"], name
            assert float(row[f"{name}_std"]) == agg["std"], name

    def test_entry_matches_independent_calls_exactly(self, scene_dir):
        """The moments of one sweep entry equal those of fresh per-alpha suppress + evaluate calls,
        bit for bit."""
        configs = [rv.SuppressorConfig(beta=b) for b in rv.beta_schedule([0, 0.25, 0.5, 0.75, 1])]
        for entry in manifest_from_scenes(scene_dir):
            per_config = batch._sweep_entry(entry, configs)
            assert len(per_config) == len(configs)
            for config, moments in zip(configs, per_config):
                c = SceneComponents(**{k: load_wav(entry.paths[k]) for k in ("s", "y", "w", "e")})
                mask = rv.classify(c.s, c.y)
                s_hat = rv.oracle_suppress(rv.gain_tracks(c.e, c.s), config)
                # as suppress writes it to shat.wav
                s_hat = rv.Signal(s_hat.samples.astype(np.float32))
                fresh = rv.evaluate_scene(rv.scene_rows(c, mask), s_hat)
                assert moments == {name: Moments.of(fresh.values[name]) for name in rv.metrics.METRIC_NAMES}

    def test_peak_memory_does_not_grow_with_the_batch(self, tmp_path):
        """Each entry's result is pooled and let go as it arrives, so an in-process sweep of
        12 scenes peaks where one of 4 does; keeping each entry's 5 reports would add
        8 x 5 x 7 x 249 x 8 bytes, about 560 kB."""
        spec = write_spec(tmp_path, {**SPEC, "ser_db": [-10.0, 0.0, 10.0]})
        assert run("simulate", "--spec", spec, "--out", tmp_path / "scenes", "--count", 12, "--seed", 5,
                   "--jobs", 2) == 0
        entries = manifest_from_scenes(tmp_path / "scenes")
        write_manifest(tmp_path / "m4.json", entries[:4])
        write_manifest(tmp_path / "m12.json", entries)
        peaks = {}
        for n in (4, 4, 12):  # the first run only warms up
            tracemalloc.start()
            try:
                assert run("sweep", "--manifest", tmp_path / f"m{n}.json", "--alphas", "0,0.25,0.5,0.75,1",
                           "--group-by", "ser_db", "--out", tmp_path / "t.csv") == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[12] - peaks[4] < 100_000, peaks


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_manifest_options_rejected_before_any_entry(scene_dir, tmp_path, monkeypatch, capsys, command):
    """The activity rule and the metric clamp are constants, so a manifest may not set them."""
    manifest = tmp_path / "m.json"
    write_manifest(manifest, manifest_from_scenes(scene_dir))
    options = {"threshold_db": -40.0, "clamp_db": 60.0}
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "options": options}))
    out = {"evaluate": tmp_path / "r", "sweep": tmp_path / "x.csv"}[command]
    calls = []
    monkeypatch.setattr(rv.activity, "classify", lambda *a: calls.append(a))
    assert run(command, "--manifest", manifest, "--out", out,
               *(["--alphas", "0"] if command == "sweep" else [])) == 2
    assert capsys.readouterr().err == f"error: {manifest}: unknown key 'options'\n"
    assert calls == []
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("flags", [["--threshold-db", "nan"], ["--threshold-db=-inf"]],
                         ids=["threshold-nan", "threshold-minus-inf"])
def test_meaningless_clamp_or_threshold_rejected_before_any_entry(scene_dir, tmp_path, monkeypatch, capsys,
                                                                  command, flags):
    """No activity threshold can be set, so a non-finite one is refused by the parser
    before any entry is labelled or an output written."""
    manifest = tmp_path / "m.json"
    write_manifest(manifest, manifest_from_scenes(scene_dir))
    out = {"evaluate": tmp_path / "r", "sweep": tmp_path / "x.csv"}[command]
    calls = []
    monkeypatch.setattr(rv.activity, "classify", lambda *a: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        main([command, "--manifest", str(manifest), "--out", str(out), *flags,
              *(["--alphas", "0"] if command == "sweep" else [])])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"reseval: error: unrecognized arguments: {' '.join(flags)}"
    assert calls == []
    assert not os.path.exists(out)


@pytest.mark.parametrize("inputs,out", [
    *[(inputs, out) for inputs in ("manifest", "scenes") for out in ("scenes/scene_0001/e.wav", "link.wav")],
    ("manifest", "m.json"), ("scenes", "scenes/scene_0000/scene.json"),
])
def test_sweep_out_that_is_an_input_refused(scene_dir, tmp_path, monkeypatch, capsys, inputs, out):
    """A sweep --out that is the manifest, an entry's WAV or, with --scenes, a scene's
    sidecar, under any path, stops the sweep before an entry is read or a file written."""
    shutil.copytree(scene_dir, tmp_path / "scenes")
    write_manifest(tmp_path / "m.json", manifest_from_scenes(tmp_path / "scenes"))
    # another path to scene_0002's s.wav
    os.link(tmp_path / "scenes" / "scene_0002" / "s.wav", tmp_path / "link.wav")
    monkeypatch.chdir(tmp_path)
    before = dir_bytes(tmp_path)
    calls = []
    monkeypatch.setattr(rv.activity, "classify", lambda *a: calls.append(a))
    source = ["--manifest", "m.json"] if inputs == "manifest" else ["--scenes", "scenes"]
    assert run("sweep", *source, "--alphas", "0", "--out", out) == 2
    assert capsys.readouterr().err == f"error: {out}: is an input of this command; write the output elsewhere\n"
    assert calls == []
    assert dir_bytes(tmp_path) == before


class TestCorrelate:
    def write_table(self, tmp_path, rows, header="utt,metric,score"):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "hard-link"])
    def test_out_that_is_the_table_refused(self, tmp_path, capsys, link):
        table = self.write_table(tmp_path, [f"u{i},{i},{2*i}" for i in range(4)])
        out = table
        if link:
            out = tmp_path / "link.csv"
            os.link(table, out)
        before = dir_bytes(tmp_path)
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score",
                   "--out", out) == 2
        assert capsys.readouterr() == ("", f"error: {out}: is an input of this command; write the output elsewhere\n")
        assert dir_bytes(tmp_path) == before

    def test_self_correlation(self, tmp_path, capsys):
        table = self.write_table(tmp_path, [f"u{i},{i},{2*i}" for i in range(8)])
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score") == 0
        out = capsys.readouterr().out
        assert "pcc=1.000000" in out and "srcc=1.000000" in out and "n=8" in out

    def test_missing_column_lists_available(self, tmp_path, capsys):
        table = self.write_table(tmp_path, ["u0,1,2", "u1,2,3"])
        assert run("correlate", "--table", table, "--metric-col", "dsml", "--score-col", "score") == 2
        assert "available: utt, metric, score" in capsys.readouterr().err

    @pytest.mark.parametrize("metric,score", [("utt", "score"), ("metric", "utt")])
    def test_id_column_reported(self, tmp_path, capsys, metric, score):
        """The id column holds names, not numbers: naming it as either column is one line."""
        table = self.write_table(tmp_path, [f"u{i},{i},{2*i}" for i in range(4)])
        assert run("correlate", "--table", table, "--metric-col", metric, "--score-col", score,
                   "--out", tmp_path / "r.json") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: column 'utt' is the id column, not a numeric column\n"
        assert not (tmp_path / "r.json").exists()

    def test_monotone_nonlinear(self, tmp_path, capsys):
        rows = [f"u{i},{i},{math.exp(i)}" for i in range(9)]
        table = self.write_table(tmp_path, rows)
        out_json = tmp_path / "corr.json"
        assert run("correlate", "--table", table, "--metric-col", "metric",
                   "--score-col", "score", "--out", out_json) == 0
        payload = json.loads(out_json.read_text())
        group = payload["groups"][0]
        assert group["srcc"] == 1.0
        assert group["pcc"] < 1.0

    def test_group_by(self, tmp_path, capsys):
        rows = []
        for alpha in (0.0, 1.0):
            for i in range(6):
                rows.append(f"u{alpha}_{i},{alpha},{i},{i + alpha}")
        table = self.write_table(tmp_path, rows, header="utt,alpha,metric,score")
        assert run("correlate", "--table", table, "--metric-col", "metric",
                   "--score-col", "score", "--group-by", "alpha") == 0
        out = capsys.readouterr().out
        assert out.count("pcc=") == 2
        assert "alpha=0.0" in out and "alpha=1.0" in out

    def test_duplicate_column_reported(self, tmp_path, capsys):
        """A repeated header name is an error, not a silent pick of its last column."""
        table = self.write_table(tmp_path, ["u0,1,-1,0", "u1,2,-2,1", "u2,3,-3,3"], header="id,a,a,b")
        assert run("correlate", "--table", table, "--metric-col", "a", "--score-col", "b",
                   "--out", tmp_path / "r.json") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {table}: duplicate column 'a'\n"
        assert not (tmp_path / "r.json").exists()

    def test_group_by_column_with_no_values_reported(self, tmp_path, capsys):
        table = self.write_table(tmp_path, [f"u{i},{i},{i * i}," for i in range(5)], header="utt,metric,score,g")
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score",
                   "--group-by", "g", "--out", tmp_path / "r.json") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: column 'g' has no values to group by\n"
        assert not (tmp_path / "r.json").exists()

    def test_failing_group_named(self, tmp_path, capsys):
        """Two groups, the second one constant: the error says which group failed."""
        rows = [f"u0_{i},0.5,{i},{i * i}" for i in range(4)] + [f"u1_{i},1.0,{i},3.0" for i in range(4)]
        table = self.write_table(tmp_path, rows, header="utt,alpha,metric,score")
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score",
                   "--group-by", "alpha", "--out", tmp_path / "r.json") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha=1.0: correlation undefined for a constant sequence\n"
        assert not (tmp_path / "r.json").exists()

    def test_blank_lines_skipped(self, tmp_path, capsys):
        table = tmp_path / "scores.csv"
        table.write_text("\nutt,metric,score\n\n" + "".join(f"u{i},{i},{2 * i}\n\n" for i in range(5)))
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score") == 0
        assert capsys.readouterr().out == "pcc=1.000000 srcc=1.000000 n=5\n"

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e308])
    def test_any_finite_scale(self, tmp_path, capsys, scale):
        x, y = [1.0, 1.25, 1.75], [1.0, 1.5, 1.25]
        table = self.write_table(tmp_path, [f"u{i},{a * scale!r},{b * scale!r}"
                                            for i, (a, b) in enumerate(zip(x, y, strict=True))])
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score",
                   "--out", tmp_path / "r.json") == 0
        assert capsys.readouterr().err == ""
        (group,) = json.loads((tmp_path / "r.json").read_text())["groups"]
        assert group["pcc"] == pytest.approx(rv.pcc(x, y), rel=1e-12)
        assert group["srcc"] == 0.5

    def test_text_column_stops_only_a_metric_or_score_column(self, tmp_path, capsys):
        table = self.write_table(tmp_path, ["u0,1,2,a", "u1,2,4,b", "u2,3,5,c"], header="utt,metric,score,room")
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score") == 0
        assert capsys.readouterr() == ("pcc=0.981981 srcc=1.000000 n=3\n", "")
        assert run("correlate", "--table", table, "--metric-col", "room", "--score-col", "score",
                   "--out", tmp_path / "r.json") == 2
        assert capsys.readouterr() == ("", f"error: {table}:2: cell 'a' in column 'room' is not numeric\n")
        assert not (tmp_path / "r.json").exists()

    def test_byte_order_mark_dropped(self, tmp_path, capsys):
        """A spreadsheet export may start with a byte-order mark; the id column keeps its name."""
        table = tmp_path / "scores.csv"
        table.write_text("utt,dsml,mos\n" + "".join(f"u{i},{i},{2 * i}\n" for i in range(5)), encoding="utf-8-sig")
        assert table.read_bytes().startswith(b"\xef\xbb\xbfutt,")
        assert run("correlate", "--table", table, "--metric-col", "utt", "--score-col", "mos") == 2
        assert capsys.readouterr() == ("", "error: column 'utt' is the id column, not a numeric column\n")
        assert run("correlate", "--table", table, "--metric-col", "dsml", "--score-col", "mos") == 0
        assert capsys.readouterr() == ("pcc=1.000000 srcc=1.000000 n=5\n", "")

    def test_constant_column_reported(self, tmp_path, capsys):
        table = self.write_table(tmp_path, [f"u{i},1.0,{i}" for i in range(5)])
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score") == 2
        assert "constant" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [0, -1])
@pytest.mark.parametrize("command", ["simulate", "suppress", "evaluate", "sweep"])
def test_jobs_below_one_rejected_before_any_item(scene_dir, tmp_path, monkeypatch, capsys, command, jobs):
    calls = []
    for module, name in (("simulate", "generate_scene"), ("suppressor", "oracle_suppress"),
                         ("activity", "classify")):
        monkeypatch.setattr(getattr(rv, module), name, lambda *a, **k: calls.append(a))
    inputs = {"simulate": ["--spec", write_spec(tmp_path)], "suppress": ["--scenes", scene_dir],
              "evaluate": ["--scenes", scene_dir], "sweep": ["--scenes", scene_dir, "--alphas", "0"]}[command]
    before = sorted(os.listdir(tmp_path))
    assert run(command, *inputs, "--out", tmp_path / "out", "--jobs", jobs) == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert calls == []
    # nothing is written, not even an empty --out directory
    assert sorted(os.listdir(tmp_path)) == before


class TestManifestHelpers:
    def test_manifest_from_scenes_tags(self, scene_dir):
        entries = manifest_from_scenes(scene_dir)
        assert len(entries) == 3
        entry = entries[0]
        assert entry.tags["ser_db"] == 0.0
        assert os.path.isabs(entry.paths["s"])

    def test_relative_paths_resolved(self, tmp_path):
        save_wav(rv.Signal(np.ones(400) * 0.1), tmp_path / "sig.wav")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": [{"id": "x", "s": "sig.wav"}]}))
        assert read_manifest(manifest)[0].paths["s"] == str(tmp_path / "sig.wav")

    def test_write_then_read_gives_the_same_entries(self, tmp_path):
        """Paths are written relative to the manifest and read back as they were."""
        entries = [
            ManifestEntry("u0", {"s": str(tmp_path / "a" / "s.wav"), "e": str(tmp_path / "e.wav")},
                          {"ser_db": -10.0, "room": "small", "echo_path_change_at": None}),
            ManifestEntry("u1", {"s": str(tmp_path / "s1.wav"), "s_hat": str(tmp_path / "b" / "c" / "x.wav")}),
        ]
        write_manifest(tmp_path / "m.json", entries)
        assert read_manifest(tmp_path / "m.json") == entries
        raw = json.loads((tmp_path / "m.json").read_text())
        assert raw["entries"][0]["s"] == os.path.join("a", "s.wav")

    def test_load_names_every_missing_path_and_skips_absent_optional_ones(self, tmp_path):
        save_wav(rv.Signal(np.full(400, 0.1)), tmp_path / "s.wav")
        entry = ManifestEntry("u0", {"s": str(tmp_path / "s.wav")})
        with pytest.raises(ValueError, match="^entry 'u0' is missing paths: e, s_hat$"):
            entry.load(("s", "e", "s_hat"))
        components = entry.load(("s",), ("y", "w"))
        assert list(components.present()) == ["s"]


class TestManifestSchema:
    VALID = {"id": "ok", "s": "s.wav", "e": "e.wav", "s_hat": "e.wav"}

    @pytest.mark.parametrize(
        "raw,match",
        [
            ({"entries": {"id": "a"}}, "'entries' list"),
            ({"entries": ["a"]}, "entry 0: must be an object"),
            ({"entries": [VALID, ["s.wav"]]}, "entry 1: must be an object"),
            ({"entries": [{"id": "a", "s": 123}]}, "entry 0: path 's' must be a non-empty string"),
            ({"entries": [VALID, {"id": "b", "e": ""}]}, "entry 1: path 'e' must be a non-empty string"),
            ({"entries": [{"id": "a", "s_hat": None}]}, "entry 0: path 's_hat'"),
            ({"entries": [{"id": "a", "s": "s.wav", "tags": [1]}]}, "entry 0: 'tags' must be an object"),
            ({"entries": [{"s": "s.wav"}]}, "entry 0: has no 'id'"),
            ({"options": {"clamp_db": 60.0}, "entries": [VALID]}, "unknown key 'options'"),
            ({"entries": [VALID, {**VALID, "id": "b", "Y": "y.wav"}]}, "entry 1: unknown key 'Y'"),
            ({"entries": [{**VALID, "id": None}]}, "entry 0: 'id' must be a string or a number, got NoneType"),
            ({"entries": [{**VALID, "id": True}]}, "entry 0: 'id' must be a string or a number, got bool"),
            ({"entries": [{**VALID, "id": {"a": 1}}]}, "entry 0: 'id' must be a string or a number, got dict"),
            ({"entries": [VALID, {**VALID, "id": ["a"]}]}, "entry 1: 'id' must be a string or a number, got list"),
            ({"entries": [{**VALID, "id": ""}]}, "entry 0: 'id' must be a file name, got ''"),
            ({"entries": [{**VALID, "id": "."}]}, "entry 0: 'id' must be a file name, got '.'"),
            ({"entries": [{**VALID, "id": ".."}]}, "entry 0: 'id' must be a file name, got '..'"),
            ({"entries": [VALID, {**VALID, "id": "../evil"}]}, "entry 1: 'id' must be a file name, got '../evil'"),
            ({"entries": [{**VALID, "id": "spk1/utt2"}]}, "entry 0: 'id' must be a file name, got 'spk1/utt2'"),
            ({"entries": [{**VALID, "id": "a\0b"}]}, "entry 0: 'id' must be a file name, got 'a\\x00b'"),
        ],
    )
    def test_malformed_manifest_one_line_error(self, tmp_path, capsys, raw, match):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(raw))
        assert run("evaluate", "--manifest", manifest, "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ")
        assert match in err
        assert err.count("\n") == 1
        assert not os.path.exists(tmp_path / "r")


@pytest.mark.parametrize("command,entry_id", [("suppress", "../evil"), ("evaluate", "spk1/utt2")])
def test_path_like_id_writes_nothing(scene_dir, tmp_path, monkeypatch, capsys, command, entry_id):
    """An id names output files, so one that is not a file name stops the command before any entry."""
    work = tmp_path / "work"
    entries = manifest_from_scenes(scene_dir)
    entries[-1].id = entry_id
    work.mkdir()
    write_manifest(work / "m.json", entries)
    monkeypatch.chdir(work)
    before = dir_bytes(tmp_path)
    assert run(command, "--manifest", "m.json", "--out", "out") == 2
    assert capsys.readouterr().err == f"error: m.json: entry 2: 'id' must be a file name, got {entry_id!r}\n"
    assert dir_bytes(tmp_path) == before
    assert sorted(os.listdir(tmp_path)) == ["work"] and os.listdir(work) == ["m.json"]


def _missing_manifest(tmp_path, scene_dir):
    path = tmp_path / "missing.json"
    return ["evaluate", "--manifest", path, "--out", tmp_path / "r"], path


def _missing_spec(tmp_path, scene_dir):
    path = tmp_path / "missing.json"
    return ["simulate", "--spec", path, "--out", tmp_path / "s"], path


def _missing_table(tmp_path, scene_dir):
    path = tmp_path / "missing.csv"
    return ["correlate", "--table", path, "--metric-col", "a", "--score-col", "b"], path


def _sweep_out_is_dir(tmp_path, scene_dir):
    path = tmp_path / "table"
    path.mkdir()
    return ["sweep", "--scenes", scene_dir, "--alphas", "0", "--out", path], path


def _sweep_out_dir_missing(tmp_path, scene_dir):
    path = tmp_path / "missing" / "t.csv"
    return ["sweep", "--scenes", scene_dir, "--alphas", "0", "--out", path], path


def _correlate_out_dir_missing(tmp_path, scene_dir):
    table = tmp_path / "scores.csv"
    table.write_text("utt,a,b\nu0,1,2\nu1,2,3\nu2,3,5\n")
    path = tmp_path / "missing" / "r.json"
    return ["correlate", "--table", table, "--metric-col", "a", "--score-col", "b", "--out", path], path


def _correlate_out_is_dir(tmp_path, scene_dir):
    table = tmp_path / "scores.csv"
    table.write_text("utt,a,b\nu0,1,2\nu1,2,3\nu2,3,5\n")
    path = tmp_path / "adir"
    path.mkdir()
    return ["correlate", "--table", table, "--metric-col", "a", "--score-col", "b", "--out", path], path


def _malformed_manifest(tmp_path, scene_dir):
    path = tmp_path / "m.json"
    path.write_text('{"entries": [{id: 1}]}')
    return ["evaluate", "--manifest", path, "--out", tmp_path / "r"], path


def _malformed_sidecar(tmp_path, scene_dir):
    path = tmp_path / "scenes" / "scene_0000" / "scene.json"
    path.parent.mkdir(parents=True)
    path.write_text("{spec")
    return ["evaluate", "--scenes", tmp_path / "scenes", "--out", tmp_path / "r"], path


@pytest.mark.parametrize("make", [_missing_manifest, _missing_spec, _missing_table, _sweep_out_is_dir,
                                  _sweep_out_dir_missing, _correlate_out_dir_missing, _correlate_out_is_dir,
                                  _malformed_manifest, _malformed_sidecar])
def test_file_errors_name_the_file(scene_dir, tmp_path, monkeypatch, capsys, make):
    argv, path = make(tmp_path, scene_dir)
    calls = []
    monkeypatch.setattr(rv.suppressor, "oracle_suppress", lambda *a: calls.append(a))
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing is printed before the bad file is found
    err = captured.err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert str(path) in err
    assert ".tmp-" not in err
    assert calls == []  # the bad file is found before any entry runs


def test_batch_commands_load_only_what_they_read(scene_dir, tmp_path, monkeypatch):
    """sweep loads s, y, w, m, y_hat and e once per scene; evaluate adds s_hat; neither loads x."""
    shutil.copytree(scene_dir, tmp_path / "scenes")
    assert run("suppress", "--scenes", tmp_path / "scenes", "--alpha", 0.5) == 0
    loaded = []
    load_wav = rv.audio.load_wav
    monkeypatch.setattr(rv.audio, "load_wav", lambda path: loaded.append(path) or load_wav(path))
    scene_wavs = ["e.wav", "m.wav", "s.wav", "w.wav", "y.wav", "yhat.wav"]
    for argv, wavs in ((["sweep", "--alphas", "0", "--out", tmp_path / "x.csv"], scene_wavs),
                       (["evaluate", "--out", tmp_path / "r"], sorted(scene_wavs + ["shat.wav"]))):
        loaded.clear()
        assert run(*argv, "--scenes", tmp_path / "scenes") == 0
        per_scene = {}
        for path in loaded:
            per_scene.setdefault(os.path.basename(os.path.dirname(path)), []).append(os.path.basename(path))
        assert {scene: sorted(names) for scene, names in per_scene.items()} == {
            f"scene_{i:04d}": wavs for i in range(3)}, argv[0]


def readme_library_example():
    (code,) = re.findall(r"^## Library\n\n.*?^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    return code


def test_readme_library_example_runs(capsys):
    exec(compile(readme_library_example(), "README.md", "exec"), {})
    means = ast.literal_eval(capsys.readouterr().out)
    assert {"dsml", "resl"} <= means.keys()
    assert all(math.isfinite(means[name]) for name in ("dsml", "resl"))


def test_readme_shell_examples_parse():
    """Every `reseval ...` line of a README sh block parses, so no example keeps a deleted or renamed flag,
    and no two `simulate` or `evaluate` lines share an --out, which the second would refuse."""
    readme = README.read_text()
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
             for line in block.splitlines() if line.startswith("reseval ")]
    assert len(lines) >= 6
    parser = build_parser()
    outs = []
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.func is getattr(cli, f"cmd_{args.command}"), line
        if args.command in ("simulate", "evaluate"):
            outs.append(args.out)
    assert len(outs) == len(set(outs)) >= 2


def test_readme_flag_table_matches_parser():
    """Each row lists exactly its command's options, and its "a or b" items are
    exactly the command's mutually exclusive flags."""
    readme = README.read_text()
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE))
    table = {name: set(re.findall(r"`(--[a-z-]+)`", row)) for name, row in rows.items()}
    # an item is a comma-separated part of the row, a parenthesis left out
    exclusive = {name: {frozenset(re.findall(r"`(--[a-z-]+)`", item))
                        for item in re.sub(r" \(.*?\)", "", row).split(", ") if " or " in item}
                 for name, row in rows.items()}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
               for name, sub in commands.choices.items()}
    groups = {name: {frozenset(opt for action in group._group_actions for opt in action.option_strings)
                     for group in sub._mutually_exclusive_groups}
              for name, sub in commands.choices.items()}
    assert table == options
    assert exclusive == groups


def test_nothing_keeps_a_scene_alive(scene_dir, tmp_path, monkeypatch):
    """Once a library call or a batch entry returns or raises, nothing holds its scene's
    signals or mask: no call keeps the last scene it saw.  Within an entry, the loaded
    m and y_hat are gone once checked, a sweep's s, y and w once its gain tracks and rows
    are built, and its s_hat once scored."""
    (entry, *_) = manifest_from_scenes(scene_dir)
    config = rv.SuppressorConfig(beta=8.0)
    refs = []

    def watch(*objects):
        refs.extend(weakref.ref(obj) for obj in objects)

    def assert_released():
        gc.collect()
        assert refs and [ref() for ref in refs] == [None] * len(refs)
        refs.clear()

    entry.paths["s_hat"] = batch._suppress_entry(entry, config, str(tmp_path))
    components, mask = batch._load_labeled(entry, ("s_hat",))
    tracks = rv.gain_tracks(components.e, components.s)
    watch(components.s, components.e, tracks, rv.oracle_suppress(tracks, config))
    del components, mask, tracks
    assert_released()
    components, mask = batch._load_labeled(entry, ("s_hat",))
    rows = rv.scene_rows(components, mask)
    rv.evaluate_scene(rows, components.s_hat)
    watch(components.s, components.e, components.s_hat, mask, rows)
    del components, mask, rows
    assert_released()

    gain_tracks, oracle_suppress = rv.suppressor.gain_tracks, rv.suppressor.oracle_suppress
    scene_rows, evaluate_scene = rv.metrics.scene_rows, rv.metrics.evaluate_scene

    def watched_tracks(e, s):
        watch(e, s)
        return gain_tracks(e, s)

    def watched_suppress(tracks, config):
        watch(tracks, tracks.e)
        return oracle_suppress(tracks, config)

    def watched_rows(components, mask):
        watch(components.s, components.e, mask)
        return scene_rows(components, mask)

    def watched_evaluate(rows, s_hat):
        watch(rows, s_hat)
        return evaluate_scene(rows, s_hat)

    monkeypatch.setattr(rv.suppressor, "gain_tracks", watched_tracks)
    monkeypatch.setattr(rv.suppressor, "oracle_suppress", watched_suppress)
    monkeypatch.setattr(rv.metrics, "scene_rows", watched_rows)
    monkeypatch.setattr(rv.metrics, "evaluate_scene", watched_evaluate)
    batch._suppress_entry(entry, config, str(tmp_path))
    assert_released()
    batch._evaluate_entry(entry, str(tmp_path))
    assert_released()
    batch._sweep_entry(entry, [config, config])
    assert_released()

    def fails_after_evaluating(*args, **kwargs):
        watched_evaluate(*args, **kwargs)
        raise RuntimeError("evaluation failed")

    monkeypatch.setattr(rv.metrics, "evaluate_scene", fails_after_evaluating)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        batch._evaluate_entry(entry, str(tmp_path))
    assert_released()
    with pytest.raises(RuntimeError, match="evaluation failed"):
        batch._sweep_entry(entry, [config, config])
    assert_released()

    # m and y_hat go once the load has checked them, s, y and w before a
    # sweep's first s_hat is built, and each alpha's s_hat before the next one
    load_wav, loaded, shats = rv.audio.load_wav, {}, []

    def watched_load(path):
        signal = load_wav(path)
        loaded[os.path.basename(path)] = weakref.ref(signal)
        return signal

    def assert_checked_components_gone():
        assert [loaded[name]() for name in ("m.wav", "yhat.wav")] == [None, None]

    def checked_suppress(tracks, config):
        assert_checked_components_gone()
        assert [loaded[name]() for name in ("s.wav", "y.wav", "w.wav")] == [None, None, None]
        assert [ref() for ref in shats] == [None] * len(shats)
        s_hat = watched_suppress(tracks, config)
        shats.append(weakref.ref(s_hat))
        return s_hat

    def checked_evaluate(*args, **kwargs):
        assert_checked_components_gone()
        return watched_evaluate(*args, **kwargs)

    monkeypatch.setattr(rv.audio, "load_wav", watched_load)
    monkeypatch.setattr(rv.suppressor, "oracle_suppress", checked_suppress)
    monkeypatch.setattr(rv.metrics, "evaluate_scene", checked_evaluate)
    batch._evaluate_entry(entry, str(tmp_path))
    assert_released()
    loaded.clear()
    batch._sweep_entry(entry, [config, config, config])
    assert len(shats) == 3
    assert_released()


def test_no_module_holds_a_cache():
    """A module-level functools cache is hidden state that outlives its caller's data."""
    names = [m.name for m in pkgutil.iter_modules(rv.__path__)]
    assert {"metrics", "suppressor", "cli"} <= set(names)
    cached = [f"{name}.{attr}" for name in names
              for attr, value in vars(importlib.import_module(f"reseval.{name}")).items()
              if callable(getattr(value, "cache_info", None))]
    assert cached == []


def test_every_exported_name_resolves():
    """__all__ is built from the _EXPORTS map, so a name deleted from its module must leave the map too."""
    assert rv.__all__
    for name in rv.__all__:
        assert getattr(rv, name) is getattr(importlib.import_module(f"reseval.{rv._MODULE_OF[name]}"), name)


def package_names_used(code):
    """The names that code imports from reseval or reaches as <alias of reseval>.<name>,
    less the submodules it reaches that way."""
    nodes = list(ast.walk(ast.parse(code)))
    aliases = {a.asname or a.name for node in nodes if isinstance(node, ast.Import)
               for a in node.names if a.name == "reseval"}
    names = {a.name for node in nodes if isinstance(node, ast.ImportFrom) and node.module == "reseval"
             for a in node.names}
    names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return names - {m.name for m in pkgutil.iter_modules(rv.__path__)}


def test_exports_are_what_the_acceptance_tests_and_readme_use():
    """The package exports exactly the names the acceptance tests and the README's
    library example take from it, so a name is exported only while one of them uses it."""
    acceptance = (Path(__file__).resolve().parent / "test_acceptance.py").read_text()
    used = package_names_used(acceptance) | package_names_used(readme_library_example())
    assert set(rv.__all__) == used


def test_package_metadata_matches_the_package():
    """pyproject.toml's `reseval` console script, which the README runs, is cli.run,
    and its version is the package's."""
    import tomllib

    project = tomllib.loads((README.parent / "pyproject.toml").read_text())["project"]
    module, function = project["scripts"]["reseval"].split(":")
    assert getattr(importlib.import_module(module), function) is cli.run
    assert project["version"] == rv.__version__


@pytest.mark.parametrize("metric_col,code", [("a", 0), ("nope", 2)], ids=["succeeds", "exits-2"])
def test_main_leaves_the_heap_unfrozen(tmp_path, metric_col, code):
    """main() has no collector side effect: tests and the benchmark call it in process."""
    table = tmp_path / "t.csv"
    table.write_text("id,a,b\nu0,1.0,2.0\nu1,2.0,1.5\nu2,3.0,4.0\n")
    before = gc.get_freeze_count()
    assert run("correlate", "--table", table, "--metric-col", metric_col, "--score-col", "b") == code
    assert gc.get_freeze_count() == before
    with pytest.raises(SystemExit):
        main(["correlate"])
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("outcome", ["returns", "exits", "raises"])
def test_run_freezes_the_heap_after_main_however_it_ends(monkeypatch, outcome):
    """run() calls main(), then gc.freeze(), then exits with main's code; --help (SystemExit)
    and a traceback still freeze first."""
    calls = []

    def fake_main(*, default_jobs):
        calls.append("main")
        if outcome == "exits":
            raise SystemExit(0)
        if outcome == "raises":
            raise RuntimeError("boom")
        return 3

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(RuntimeError if outcome == "raises" else SystemExit) as exc:
        cli.run()
    assert calls == ["main", "freeze"]
    if outcome != "raises":
        assert exc.value.code == {"returns": 3, "exits": 0}[outcome]


def _python_m_cli(args, cwd):
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "reseval.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["sweep", "--scenes", "scenes", "--alphas", "0"], 2),
    (["suppress", "--manifest", "m.json", "--out", "{out}"], 1),
], ids=["help", "usage-error", "one-entry-failed"])
def test_python_m_cli_exits_with_mains_status_and_stderr(scene_dir, tmp_path, monkeypatch, capsys, argv, code):
    entries = manifest_from_scenes(scene_dir)
    entries.insert(1, ManifestEntry("broken", {"s": str(tmp_path / "nope.wav"),
                                               "e": str(tmp_path / "nope.wav")}))
    write_manifest(tmp_path / "m.json", entries)
    monkeypatch.chdir(tmp_path)
    try:
        got = main([a.format(out="in-process") for a in argv])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    proc = _python_m_cli([a.format(out="subprocess") for a in argv], tmp_path)
    assert (got, proc.returncode) == (code, code)
    assert proc.stderr == captured.err
    if code == 0:
        assert proc.stdout.startswith("usage: reseval ")
    elif code == 1:
        assert proc.stderr.startswith("suppress: broken: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr.splitlines()[-1] == "reseval sweep: error: the following arguments are required: --out"


def test_python_m_cli_exits_frozen_after_atexit_and_flush(tmp_path):
    """The module's __main__ block goes through run(): an atexit handler still runs, sees the
    heap frozen, and what the command printed reaches the pipe."""
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "\n".join([
        "import atexit, gc, runpy, sys",
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))",
        "sys.argv = ['reseval', '--help']",
        "runpy.run_module('reseval.cli', run_name='__main__')",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "frozen True\n")
    assert proc.stdout.startswith("usage: reseval ") and proc.stdout.endswith("\n")


def test_cli_imports_only_what_the_command_runs(tmp_path):
    """A fresh interpreter: importing the CLI loads no numpy, dataclasses, ctypes, json, csv,
    process pool, batch or compute module, and correlate runs without numpy, dataclasses,
    ctypes or the batch module."""
    table = tmp_path / "t.csv"
    table.write_text("id,a,b\nu0,1.0,2.0\nu1,2.0,1.5\nu2,3.0,4.0\n")
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "\n".join([
        "import sys, reseval.cli",
        "heavy = ['numpy', 'dataclasses', 'ctypes', 'json', 'csv', 'concurrent.futures.process'] + [",
        "    'reseval.' + m for m in",
        "    ('audio', 'activity', 'batch', 'framing', 'metrics', 'simulate', 'stats', 'suppressor')]",
        "loaded = [m for m in heavy if m in sys.modules]",
        "code = reseval.cli.main(['correlate', '--table', sys.argv[1], '--metric-col', 'a',",
        "                         '--score-col', 'b', '--out', sys.argv[2]])",
        "after = [m for m in ('numpy', 'dataclasses', 'ctypes', 'reseval.batch') if m in sys.modules]",
        "import json",
        "print(json.dumps([loaded, code, after]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code, str(table), str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, []]
    assert json.loads((tmp_path / "r.json").read_text())["groups"][0]["n"] == 3


def _fresh_cli(record, *argv, as_module=False):
    """A fresh interpreter that sees this checkout runs main(argv), or with as_module the
    module as `python -m reseval.cli` does, through a ProcessPoolExecutor that records
    eval(record) of each pool it builds; record reads the pool's keyword arguments as
    kwargs.  Returns [exit code, records]."""
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "\n".join([
        "import concurrent.futures, json, runpy, sys, reseval.cli",
        "seen = []",
        "class Pool(concurrent.futures.ProcessPoolExecutor):",
        "    def __init__(self, *args, **kwargs):",
        f"        seen.append({record})",
        "        super().__init__(*args, **kwargs)",
        "concurrent.futures.ProcessPoolExecutor = Pool",
        "try:",
        "    sys.argv[0] = 'reseval'",
        "    runpy.run_module('reseval.cli', run_name='__main__')" if as_module else
        "    code = reseval.cli.main(sys.argv[1:])",
        "except SystemExit as exc:",
        "    code = exc.code",
        "print(json.dumps([code, seen]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_evaluate_workers_start_with_compute_modules_imported(scene_dir, tmp_path):
    """Fresh interpreters: evaluate --jobs 2 and sweep --jobs 2 import their compute modules
    before they build the process pool, so no forked worker imports them itself."""
    assert run("suppress", "--scenes", scene_dir, "--out", tmp_path / "sup") == 0
    manifest = tmp_path / "sup" / "manifest.json"
    for command, out, modules in (("evaluate", ["--out", tmp_path / "rep"], ("activity", "metrics")),
                                  ("sweep", ["--alphas", "0,1", "--out", tmp_path / "t.csv"],
                                   ("activity", "metrics", "suppressor"))):
        record = f"[m in sys.modules for m in {['reseval.' + m for m in modules]!r}]"
        got = _fresh_cli(record, command, "--manifest", manifest, *out, "--jobs", 2)
        assert got == [0, [[True] * len(modules)]], command


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_dead_worker_fails_the_command_on_one_line(scene_dir, tmp_path, monkeypatch, capsys, command):
    """A worker that dies (here by os._exit, which a forked worker inherits through the
    patched method) breaks the pool: one error line naming the command, exit status 2,
    and no report.json or sweep table."""
    load = ManifestEntry.load

    def dying_load(entry, *args):
        if entry.id == "scene_0001":
            os._exit(3)
        return load(entry, *args)

    assert run("suppress", "--scenes", scene_dir, "--out", tmp_path / "sup") == 0
    monkeypatch.setattr(ManifestEntry, "load", dying_load)
    out = {"evaluate": ["--out", tmp_path / "rep"], "sweep": ["--alphas", "0,1", "--out", tmp_path / "t.csv"]}
    assert run(command, "--manifest", tmp_path / "sup" / "manifest.json", *out[command], "--jobs", 2) == 2
    assert capsys.readouterr().err == (f"error: {command}: a worker process ended abruptly; "
                                       "--jobs 1 runs the batch in one process\n")
    assert not (tmp_path / "rep" / "report.json").exists()
    assert not (tmp_path / "t.csv").exists()


def test_main_runs_every_batch_command_in_process_by_default(scene_dir, tmp_path, monkeypatch):
    """main() called by a program defaults to --jobs 1: no batch command builds a pool."""
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    shutil.copytree(scene_dir, tmp_path / "scenes")
    monkeypatch.chdir(tmp_path)
    assert run("simulate", "--spec", write_spec(tmp_path), "--out", "sim", "--count", 2) == 0
    assert run("suppress", "--scenes", "scenes", "--alpha", 0.5) == 0
    assert run("evaluate", "--scenes", "scenes", "--out", "rep") == 0
    assert run("sweep", "--scenes", "scenes", "--alphas", "0,1", "--out", "t.csv") == 0


def test_python_m_cli_uses_every_cpu_it_may(scene_dir, tmp_path):
    """A fresh `python -m reseval.cli sweep` runs with --jobs at the CPUs the process may
    use, capped at the entry count; on one CPU it builds no pool."""
    code, seen = _fresh_cli("kwargs['max_workers']", "sweep", "--scenes", scene_dir, "--alphas", "0,1",
                            "--out", tmp_path / "t.csv", as_module=True)
    workers = min(cli.usable_cpus(), len(manifest_from_scenes(scene_dir)))
    assert (code, seen) == (0, [workers] if workers > 1 else [])


@pytest.mark.parametrize("cpu_count,expected", [(6, 6), (None, 1)])
def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch, cpu_count, expected):
    """Where os.sched_getaffinity does not exist, os.cpu_count(), or 1 when that is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(cli, "cgroup_cpu_quota", lambda: None)
    assert cli.usable_cpus() == expected


@pytest.mark.parametrize("quota,expected", [(None, 64), (1.5, 2), (2.0, 2), (0.5, 1), (128.0, 64)])
def test_usable_cpus_is_capped_by_the_cgroup_quota(monkeypatch, quota, expected):
    """A quota of q CPUs' worth of time caps the CPU count at ceil(q), and at least 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(cli, "cgroup_cpu_quota", lambda: quota)
    assert cli.usable_cpus() == expected


def _cgroup_files(root, files: dict) -> tuple[str, str]:
    """A /proc/self/cgroup stand-in and a cgroup mount under root, from {path: text}."""
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return str(root / "cgroup"), str(root / "fs")


@pytest.mark.parametrize("files,expected", [
    ({"cgroup": "0::/a/b\n", "fs/a/b/cpu.max": "max 100000\n", "fs/a/cpu.max": "150000 100000\n",
      "fs/cpu.max": "400000 100000\n"}, 1.5),
    ({"cgroup": "0::/\n", "fs/cpu.max": "max 100000\n"}, None),
    ({"cgroup": "0::/a\n"}, None),
    ({"cgroup": "5:memory:/m\n4:cpu,cpuacct:/x\n0::/\n", "fs/cpu/x/cpu.cfs_quota_us": "200000\n",
      "fs/cpu/x/cpu.cfs_period_us": "100000\n"}, 2.0),
    ({"cgroup": "4:cpu,cpuacct:/x\n", "fs/cpu/x/cpu.cfs_quota_us": "-1\n",
      "fs/cpu/x/cpu.cfs_period_us": "100000\n", "fs/cpu/cpu.cfs_quota_us": "50000\n",
      "fs/cpu/cpu.cfs_period_us": "100000\n"}, 0.5),
], ids=["v2-least-of-ancestors", "v2-max", "v2-no-file", "v1", "v1-parent"])
def test_cgroup_cpu_quota_reads_v1_and_v2(tmp_path, files, expected):
    assert cli.cgroup_cpu_quota(*_cgroup_files(tmp_path, files)) == expected


def test_cgroup_cpu_quota_is_none_without_proc(tmp_path):
    assert cli.cgroup_cpu_quota(str(tmp_path / "missing"), str(tmp_path)) is None


def test_suppress_and_sweep_leave_numpy_ma_unimported(scene_dir, tmp_path):
    """A fresh interpreter: a suppress run and a sweep run never import numpy.ma, which
    np.percentile (through np.unique) would import for the suppressor's noise floor."""
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "\n".join([
        "import json, sys, reseval.cli",
        "scenes, out = sys.argv[1:]",
        "codes = [reseval.cli.main(['suppress', '--scenes', scenes, '--alpha', '0.5', '--out', out]),",
        "         reseval.cli.main(['sweep', '--scenes', scenes, '--alphas', '0,1',",
        "                           '--out', out + '/sweep.csv'])]",
        "print(json.dumps([codes, 'numpy' in sys.modules, 'numpy.ma' in sys.modules]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code, str(scene_dir), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], True, False]
    assert len(read_rows(tmp_path / "sweep.csv")) == 2


@pytest.mark.parametrize("argv,error", [
    (["sweep", "--manifest", "m.json", "--scenes", "scenes", "--alphas", "0", "--out", "t.csv"],
     "reseval sweep: error: argument --scenes: not allowed with argument --manifest"),
    (["evaluate", "--manifest", "m.json", "--scenes", "scenes", "--out", "r"],
     "reseval evaluate: error: argument --scenes: not allowed with argument --manifest"),
    (["suppress", "--scenes", "scenes", "--alpha", "0.5", "--beta", "3"],
     "reseval suppress: error: argument --beta: not allowed with argument --alpha"),
    # sweep scores scenes; simulate makes them
    *[(["sweep", "--scenes", "scenes", "--alphas", "0", "--out", "t.csv", flag, value],
       f"reseval: error: unrecognized arguments: {flag} {value}")
      for flag, value in (("--count", "5"), ("--seed", "3"), ("--scenes-dir", "kept"), ("--spec", "spec.json"))],
    # the suppressor's gain floor is a constant, not a setting
    (["suppress", "--scenes", "scenes", "--alpha", "0.5", "--floor", "0.1"],
     "reseval: error: unrecognized arguments: --floor 0.1"),
    (["sweep", "--scenes", "scenes", "--alphas", "0", "--out", "t.csv", "--floor", "0.1"],
     "reseval: error: unrecognized arguments: --floor 0.1"),
    # nor is the metrics' clamp
    (["evaluate", "--scenes", "scenes", "--out", "r", "--clamp-db", "60"],
     "reseval: error: unrecognized arguments: --clamp-db 60"),
    (["sweep", "--scenes", "scenes", "--alphas", "0", "--out", "t.csv", "--clamp-db", "60"],
     "reseval: error: unrecognized arguments: --clamp-db 60"),
    # nor is the activity rule, which follows each scene's own level
    (["evaluate", "--scenes", "scenes", "--out", "r", "--threshold-db", "-50"],
     "reseval: error: unrecognized arguments: --threshold-db -50"),
    (["sweep", "--scenes", "scenes", "--alphas", "0", "--out", "t.csv", "--threshold-db", "-50"],
     "reseval: error: unrecognized arguments: --threshold-db -50"),
], ids=["sweep-manifest-and-scenes", "evaluate-manifest-and-scenes", "suppress-alpha-and-beta",
        "sweep-scenes-and-count", "sweep-scenes-and-seed", "sweep-scenes-and-scenes-dir", "sweep-scenes-and-spec",
        "suppress-floor", "sweep-floor", "evaluate-clamp", "sweep-clamp", "evaluate-threshold", "sweep-threshold"])
def test_exclusive_flags_rejected_before_any_entry(scene_dir, tmp_path, monkeypatch, capsys, argv, error):
    shutil.copytree(scene_dir, tmp_path / "scenes")
    write_spec(tmp_path)
    write_manifest(tmp_path / "m.json", manifest_from_scenes(tmp_path / "scenes"))
    monkeypatch.chdir(tmp_path)
    before = dir_bytes(tmp_path)
    calls = []
    for module, name in (("simulate", "generate_scene"), ("suppressor", "oracle_suppress"),
                         ("activity", "classify")):
        monkeypatch.setattr(getattr(rv, module), name, lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == error
    assert calls == []
    assert dir_bytes(tmp_path) == before


def test_main_reaches_each_command_through_its_cli_function(tmp_path, monkeypatch):
    """Every subcommand runs reseval.cli.cmd_<name>, looked up when the parser is built,
    so a wrapper set on that attribute (as bench/tracer.py sets one) sees the call."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        fn = getattr(cli, f"cmd_{name}")
        assert callable(fn) and fn.__module__ == "reseval.cli", name
        assert sub.get_default("func") is fn, name
    calls = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: calls.append(args) or 7)
    assert main(["sweep", "--scenes", "x", "--alphas", "0", "--out", str(tmp_path / "t.csv")]) == 7
    assert [(args.command, args.alphas) for args in calls] == [("sweep", "0")]
    assert not (tmp_path / "t.csv").exists()


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, reseval.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _has_glibc_mallopt() -> bool:
    import ctypes
    import platform

    return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="needs glibc's mallopt")
def test_kept_memory_serves_the_next_array_without_page_faults():
    """A fresh interpreter: once the batch runner keeps freed memory, a second
    scene-length array reuses the first one's pages (the default allocator
    faults in about 300 new ones)."""
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "\n".join([
        "import resource, numpy as np, reseval.batch",
        "reseval.batch._keep_freed_memory()",
        "a = np.ones(160000); del a",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "a = np.ones(160000)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 50


@pytest.fixture
def in_process_pool(monkeypatch):
    """Each pool _run_batch makes runs in this process; returns the keyword arguments of each."""
    import concurrent.futures

    pools = []

    class Pool:
        def __init__(self, **kwargs):
            pools.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return pools


def test_run_batch_keeps_freed_memory_in_every_process(monkeypatch, in_process_pool):
    kept = []
    monkeypatch.setattr(batch, "_keep_freed_memory", lambda: kept.append(True))
    items = [("a", -1), ("b", -2)]
    got = []
    assert batch._run_batch("abs", abs, items, lambda *result: got.append(result), jobs=1) == {}
    assert (len(kept), in_process_pool) == (1, [])
    assert batch._run_batch("abs", abs, items, lambda *result: got.append(result), jobs=2) == {}
    assert (len(kept), in_process_pool) == (2, [{"max_workers": 2, "initializer": batch._keep_freed_memory}])
    assert got == [("a", 1), ("b", 2)] * 2


def test_run_batch_starts_no_more_workers_than_items(monkeypatch, in_process_pool):
    """A pool forks all its workers at the first task, so a --jobs beyond the batch
    would fork processes that get no item."""
    monkeypatch.setattr(batch, "_keep_freed_memory", lambda: None)
    items = [("a", -1), ("b", -2), ("c", -3)]
    got = {}
    assert batch._run_batch("abs", abs, items, got.__setitem__, jobs=10**6) == {}
    assert got == {"a": 1, "b": 2, "c": 3}
    assert [pool["max_workers"] for pool in in_process_pool] == [3]


def _raise_os_error(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _raise_os_error], ids=["no-mallopt", "no-libc"])
def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch, cdll):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert batch._keep_freed_memory() is None


@pytest.mark.parametrize("taken, expected", [(1, [(-3, 32 << 20), (-1, 256 << 20)]), (0, [(-3, 32 << 20)])],
                         ids=["both", "neither"])
def test_keep_freed_memory_sets_both_thresholds_or_neither(monkeypatch, taken, expected):
    """Either threshold alone turns off glibc's dynamic one, so the trim threshold
    follows only an mmap threshold that took."""
    import ctypes
    import types

    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return taken

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    batch._keep_freed_memory()
    assert calls == expected


def test_batch_module_does_not_import_the_cli():
    """`python -m reseval.cli` runs cli.py as __main__, so a batch module that imported
    reseval.cli would make every batch command compile the front end a second time."""
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, reseval.batch; print('reseval.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
