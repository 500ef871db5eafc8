import argparse
import csv
import gc
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

import reseval as rv
from reseval import cli
from reseval.cli import Manifest, ManifestEntry, build_parser, main, manifest_from_scenes

SPEC = {"duration": 2.5, "ser_db": 0.0, "snr_db": 30.0}


def run(*argv):
    return main([str(a) for a in argv])


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
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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

    def test_invalid_spec_field_reported(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"duration": "long"})
        assert run("simulate", "--spec", spec, "--out", tmp_path / "x", "--count", 1) == 2
        assert "'duration'" in capsys.readouterr().err

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path)
        monkeypatch.setenv("RES_EVAL_SEED", "42")
        assert run("simulate", "--spec", spec, "--out", tmp_path / "env", "--count", 1) == 0
        sidecar = json.loads((tmp_path / "env" / "scene_0000" / "scene.json").read_text())
        assert sidecar["spec"]["seed"] == 42


class TestSuppress:
    def test_writes_shat_into_scene_dirs(self, scene_dir):
        assert run("suppress", "--scenes", scene_dir, "--beta", 8) == 0
        for name in os.listdir(scene_dir):
            assert (scene_dir / name / "shat.wav").exists()

    def test_alpha_maps_to_beta(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "sup"
        assert run("suppress", "--scenes", scene_dir, "--alpha", 0.5, "--out", out) == 0
        assert "beta=8.5" in capsys.readouterr().out
        manifest = Manifest.from_json(out / "manifest.json")
        assert all("s_hat" in entry.paths for entry in manifest.entries)

    def test_manifest_mode_requires_paths(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": [{"id": "u0", "s": "missing.wav"}]}))
        assert run("suppress", "--manifest", manifest, "--out", tmp_path / "o") == 1
        assert "missing paths" in capsys.readouterr().err

    def test_out_manifest_reads_back_with_relative_paths(self, scene_dir, tmp_path, monkeypatch):
        shutil.copytree(scene_dir, tmp_path / "scenes")
        monkeypatch.chdir(tmp_path)
        assert run("suppress", "--scenes", "scenes", "--beta", 8, "--out", "sup") == 0
        raw = json.loads((tmp_path / "sup" / "manifest.json").read_text())
        assert raw["entries"][0]["s"] == os.path.join("..", "scenes", "scene_0000", "s.wav")
        assert raw["entries"][0]["s_hat"] == "scene_0000.shat.wav"
        assert run("evaluate", "--manifest", os.path.join("sup", "manifest.json"), "--out", "rep") == 0
        assert json.loads((tmp_path / "rep" / "report.json").read_text())["n_failed"] == 0

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
            rv.save_wav(rv.Signal(s), s_path)
            rv.save_wav(rv.Signal(e), e_path)
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

    def test_empty_manifest_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": []}))
        assert run("evaluate", "--manifest", manifest, "--out", tmp_path / "r") == 2
        assert "no entries" in capsys.readouterr().err

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
        assert "duplicate" in capsys.readouterr().err

    def test_threshold_flag_applies(self, tmp_path):
        manifest = self.build_identity_manifest(tmp_path)
        out = tmp_path / "strict"
        # an impossible threshold marks every frame silent: no metric qualifies
        assert run("evaluate", "--manifest", manifest, "--out", out, "--threshold-db", 200) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["threshold_db"] == 200.0
        assert payload["metrics"] == {}


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

    def test_spec_driven_sweep(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "from_spec.csv"
        assert run("sweep", "--spec", spec, "--count", 2, "--seed", 3, "--alphas", "0,1", "--out", out) == 0
        with open(out, newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_manifest_driven_sweep(self, scene_dir, tmp_path):
        manifest_path = tmp_path / "m.json"
        manifest_from_scenes(scene_dir).write_json(manifest_path)
        out = tmp_path / "from_manifest.csv"
        assert run("sweep", "--manifest", manifest_path, "--alphas", "0,1", "--out", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and rows[0]["n_scenes"] == "3"

    def test_failed_spec_sweep_removes_temp_scenes(self, tmp_path, monkeypatch, capsys):
        spec = write_spec(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("sweep", "--spec", spec, "--count", 1, "--alphas", "0", "--group-by", "no_such_tag",
                     "--out", tmp_path / "x.csv")
            gc.collect()
        assert rc == 2
        assert "has no tag 'no_such_tag'" in capsys.readouterr().err
        assert not list(tmp_path.glob("reseval-sweep-*"))
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_empty_alphas_rejected(self, scene_dir, tmp_path, capsys):
        assert run("sweep", "--scenes", scene_dir, "--alphas", "", "--out", tmp_path / "x.csv") == 2
        assert "empty alpha list" in capsys.readouterr().err

    def test_non_scalar_group_tag_rejected_before_suppression(self, scene_dir, tmp_path, monkeypatch, capsys):
        manifest = manifest_from_scenes(scene_dir)
        manifest.entries[-1].tags["ser_db"] = [0.0, 10.0]
        manifest.write_json(tmp_path / "m.json")
        calls = []
        monkeypatch.setattr(cli, "oracle_suppress", lambda *a: calls.append(a))
        assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0", "--group-by", "ser_db",
                   "--out", tmp_path / "x.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: entry 'scene_0002': tag 'ser_db'")
        assert err.count("\n") == 1
        assert calls == []
        assert not (tmp_path / "x.csv").exists()

    def test_failed_entry_isolated(self, scene_dir, tmp_path, capsys):
        manifest = manifest_from_scenes(scene_dir)
        manifest.entries.insert(1, ManifestEntry("broken", {"s": str(tmp_path / "nope.wav"),
                                                            "e": str(tmp_path / "nope.wav")}))
        manifest.write_json(tmp_path / "m.json")
        out = tmp_path / "partial.csv"
        assert run("sweep", "--manifest", tmp_path / "m.json", "--alphas", "0,1", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("sweep: broken: FileNotFoundError: ")
        assert err.count("\n") == 1
        rows = read_rows(out)
        assert [r["n_scenes"] for r in rows] == ["3", "3"]

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
            # s_hat reaches evaluate through a float32 WAV, sweep keeps it in float64
            assert float(row[f"{name}_mean"]) == pytest.approx(agg["mean"], abs=1e-4)
            assert float(row[f"{name}_std"]) == pytest.approx(agg["std"], abs=1e-4)


class TestCorrelate:
    def write_table(self, tmp_path, rows, header="utt,metric,score"):
        path = tmp_path / "scores.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_self_correlation(self, tmp_path, capsys):
        table = self.write_table(tmp_path, [f"u{i},{i},{2*i}" for i in range(8)])
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score") == 0
        out = capsys.readouterr().out
        assert "pcc=1.000000" in out and "srcc=1.000000" in out and "n=8" in out

    def test_missing_column_lists_available(self, tmp_path, capsys):
        table = self.write_table(tmp_path, ["u0,1,2", "u1,2,3"])
        assert run("correlate", "--table", table, "--metric-col", "dsml", "--score-col", "score") == 2
        assert "available: utt, metric, score" in capsys.readouterr().err

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

    def test_constant_column_reported(self, tmp_path, capsys):
        table = self.write_table(tmp_path, [f"u{i},1.0,{i}" for i in range(5)])
        assert run("correlate", "--table", table, "--metric-col", "metric", "--score-col", "score") == 2
        assert "constant" in capsys.readouterr().err


class TestManifestHelpers:
    def test_manifest_from_scenes_tags(self, scene_dir):
        manifest = manifest_from_scenes(scene_dir)
        assert len(manifest.entries) == 3
        entry = manifest.entries[0]
        assert entry.tags["ser_db"] == 0.0
        assert os.path.isabs(entry.paths["s"])

    def test_relative_paths_resolved(self, tmp_path):
        rv.save_wav(rv.Signal(np.ones(400) * 0.1), tmp_path / "sig.wav")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": [{"id": "x", "s": "sig.wav"}]}))
        loaded = Manifest.from_json(manifest)
        assert loaded.entries[0].paths["s"] == str(tmp_path / "sig.wav")


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
            ({"options": [], "entries": [VALID]}, "'options' must be an object"),
            ({"options": {"clamp_db": [1]}, "entries": [VALID]}, "must be numbers"),
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
                                  _malformed_manifest, _malformed_sidecar])
def test_file_errors_name_the_file(scene_dir, tmp_path, capsys, make):
    argv, path = make(tmp_path, scene_dir)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert str(path) in err


def test_readme_flag_table_matches_parser():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    table = {m.group(1): set(re.findall(r"`(--[a-z-]+)`", m.group(2)))
             for m in re.finditer(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE)}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
               for name, sub in commands.choices.items()}
    assert table == options


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(rv.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, reseval.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
