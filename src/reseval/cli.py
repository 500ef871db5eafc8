"""Manifest-driven batch front end.

Subcommands: simulate, suppress, evaluate, sweep, correlate.  Every
command is deterministic given its inputs and seed; per-entry failures
are recorded and reported without aborting the batch, and the exit
status is nonzero when any entry failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .activity import DEFAULT_THRESHOLD_DB, classify, echo_reference
from .audio import SceneComponents, atomic_write_bytes, load_wav, save_wav
from .framing import make_grid
from .metrics import (
    CLAMP_DB,
    METRIC_CONDITIONS,
    METRIC_NAMES,
    MetricReport,
    aggregate,
    evaluate_scene,
)
from .simulate import _WAV_NAMES, SceneSpec, generate_scene, save_scene
from .stats import ScoreTable, correlate_table
from .suppressor import SuppressorConfig, beta_schedule, oracle_suppress

SEED_ENV_VAR = "RES_EVAL_SEED"

_COMPONENT_KEYS = ("s", "x", "y", "w", "m", "y_hat", "e", "s_hat")


@dataclass
class ManifestEntry:
    id: str
    paths: dict[str, str]
    tags: dict = field(default_factory=dict)

    def require(self, keys) -> None:
        missing = [k for k in keys if k not in self.paths]
        if missing:
            raise ValueError(f"entry {self.id!r} is missing paths: {', '.join(missing)}")

    def load_components(self, keys=None) -> SceneComponents:
        wanted = self.paths if keys is None else {k: self.paths[k] for k in keys if k in self.paths}
        loaded = {name: load_wav(path) for name, path in wanted.items()}
        return SceneComponents(**loaded)


@dataclass
class Manifest:
    entries: list[ManifestEntry]
    threshold_db: float = DEFAULT_THRESHOLD_DB
    clamp_db: float = CLAMP_DB

    def __post_init__(self):
        seen = set()
        for entry in self.entries:
            if entry.id in seen:
                raise ValueError(f"duplicate entry id {entry.id!r}")
            seen.add(entry.id)

    @classmethod
    def from_json(cls, path) -> "Manifest":
        base = os.path.dirname(os.path.abspath(path))
        raw = _read_json(path)
        if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
            raise ValueError(f"{path}: manifest must be an object with an 'entries' list")
        options = raw.get("options", {})
        if not isinstance(options, dict):
            raise ValueError(f"{path}: 'options' must be an object")
        entries = []
        for idx, item in enumerate(raw["entries"]):
            try:
                entries.append(_parse_entry(item, base))
            except ValueError as exc:
                raise ValueError(f"{path}: entry {idx}: {exc}") from None
        try:
            threshold_db = float(options.get("threshold_db", DEFAULT_THRESHOLD_DB))
            clamp_db = float(options.get("clamp_db", CLAMP_DB))
        except (TypeError, ValueError):
            raise ValueError(f"{path}: options 'threshold_db' and 'clamp_db' must be numbers") from None
        return cls(entries=entries, threshold_db=threshold_db, clamp_db=clamp_db)

    def write_json(self, path) -> None:
        """Write the manifest with paths relative to its own directory."""
        base = os.path.dirname(os.path.abspath(path))
        items = []
        for entry in self.entries:
            item = {"id": entry.id, **{k: os.path.relpath(p, base) for k, p in entry.paths.items()}}
            if entry.tags:
                item["tags"] = entry.tags
            items.append(item)
        blob = json.dumps(
            {"options": {"threshold_db": self.threshold_db, "clamp_db": self.clamp_db},
             "entries": items},
            indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(path, blob.encode())


def _parse_entry(item, base: str) -> ManifestEntry:
    """One manifest entry; relative component paths resolve against base."""
    if not isinstance(item, dict):
        raise ValueError(f"must be an object, got {type(item).__name__}")
    if "id" not in item:
        raise ValueError("has no 'id'")
    paths = {}
    for key in _COMPONENT_KEYS:
        if key in item:
            p = item[key]
            if not isinstance(p, str) or not p:
                raise ValueError(f"path {key!r} must be a non-empty string, got {p!r}")
            paths[key] = os.path.join(base, p)
    tags = item.get("tags", {})
    if not isinstance(tags, dict):
        raise ValueError(f"'tags' must be an object, got {type(tags).__name__}")
    return ManifestEntry(id=str(item["id"]), paths=paths, tags=tags)


def manifest_from_scenes(scenes_dir) -> Manifest:
    """Build a manifest from a directory of scene subdirectories."""
    names = sorted(
        d for d in os.listdir(scenes_dir)
        if os.path.isfile(os.path.join(scenes_dir, d, "scene.json"))
    )
    if not names:
        raise ValueError(f"{scenes_dir}: no scene directories (missing scene.json sidecars)")
    entries = []
    for name in names:
        scene_dir = os.path.join(scenes_dir, name)
        sidecar = _read_json(os.path.join(scene_dir, "scene.json"))
        paths = {}
        for key, fname in _WAV_NAMES.items():
            p = os.path.join(scene_dir, fname)
            if os.path.exists(p):
                paths[key] = p
        tags = dict(sidecar.get("spec", {}))
        for key, value in sidecar.get("achieved", {}).items():
            tags[f"achieved_{key}"] = value
        entries.append(ManifestEntry(id=name, paths=paths, tags=tags))
    return Manifest(entries=entries)


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _resolve_manifest(args, scenes_dir=None) -> Manifest:
    """The batch of --manifest or --scenes, or of scenes_dir when given."""
    if scenes_dir is None and args.manifest:
        manifest = Manifest.from_json(args.manifest)
    elif scenes_dir or args.scenes:
        manifest = manifest_from_scenes(scenes_dir or args.scenes)
    else:
        raise ValueError("need --manifest or --scenes")
    if not manifest.entries:
        raise ValueError("no entries")
    if getattr(args, "threshold_db", None) is not None:
        manifest.threshold_db = args.threshold_db
    if getattr(args, "clamp_db", None) is not None:
        manifest.clamp_db = args.clamp_db
    return manifest


def _default_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    return 0


def _map_entries(fn, items, jobs: int):
    """Apply fn over items with bounded parallelism, preserving order."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _isolated(task):
    """step(entry, *extra) -> (id, result, None), or (id, None, error line)."""
    step, entry, *extra = task
    try:
        return entry.id, step(entry, *extra), None
    except Exception as exc:  # per-entry isolation
        return entry.id, None, f"{type(exc).__name__}: {exc}"


def _run_batch(command: str, step, entries, *extra, jobs: int = 1):
    """Run step over the entries in order; failures are reported, not raised.

    Returns ({id: result}, {id: error}) and prints one
    "<command>: <id>: <error>" line per failed entry to stderr.
    """
    results, errors = {}, {}
    for eid, result, err in _map_entries(_isolated, [(step, entry, *extra) for entry in entries], jobs):
        if err is None:
            results[eid] = result
        else:
            errors[eid] = err
            print(f"{command}: {eid}: {err}", file=sys.stderr)
    return results, errors


def _load_scene_specs(path, count: int, seed: int) -> list[SceneSpec]:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scene spec must be a JSON object")
    list_fields = {}
    scalar = {}
    for key, value in raw.items():
        if isinstance(value, list):
            if not value:
                raise ValueError(f"field {key!r} is an empty list")
            list_fields[key] = value
        else:
            scalar[key] = value
    specs = []
    for i in range(count):
        data = dict(scalar)
        for key, values in list_fields.items():
            data[key] = values[i % len(values)]
        data["seed"] = seed + i
        specs.append(SceneSpec.from_dict(data))
    return specs


def _simulate_one(task):
    spec, scene_dir = task
    save_scene(generate_scene(spec), spec, scene_dir)


def _simulate_scenes(args, out_dir, jobs: int = 1) -> int:
    """Write the --spec/--count/--seed scenes as out_dir/scene_NNNN."""
    specs = _load_scene_specs(args.spec, args.count, _default_seed(args))
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(spec, os.path.join(out_dir, f"scene_{i:04d}")) for i, spec in enumerate(specs)]
    _map_entries(_simulate_one, tasks, jobs)
    return len(specs)


def cmd_simulate(args) -> int:
    count = _simulate_scenes(args, args.out, args.jobs)
    print(f"simulate: wrote {count} scenes to {args.out}")
    return 0


def _suppress_entry(entry, config, out_dir):
    entry.require(("s", "e"))
    components = entry.load_components(("s", "e"))
    if out_dir:
        out_path = os.path.join(out_dir, f"{entry.id}.shat.wav")
    else:
        out_path = os.path.join(os.path.dirname(entry.paths["e"]), "shat.wav")
    save_wav(oracle_suppress(components.e, components.s, config), out_path)
    return out_path


def cmd_suppress(args) -> int:
    manifest = _resolve_manifest(args)
    beta = args.beta if args.alpha is None else beta_schedule([args.alpha])[0]
    config = SuppressorConfig(beta=beta, floor=args.floor)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    written, errors = _run_batch("suppress", _suppress_entry, manifest.entries, config, args.out,
                                 jobs=args.jobs)
    for entry in manifest.entries:
        if entry.id in written:
            entry.paths["s_hat"] = written[entry.id]
    if args.out:
        manifest.write_json(os.path.join(args.out, "manifest.json"))
    print(f"suppress: beta={beta:g}, {len(written)} ok, {len(errors)} failed")
    return 1 if errors else 0


def _load_labeled(entry, required, threshold_db):
    """All components of an entry plus its activity mask."""
    entry.require(required)
    components = entry.load_components()
    grid = make_grid(len(components.s))
    return components, classify(components.s, echo_reference(components), grid, threshold_db)


def _evaluate_entry(entry, threshold_db, clamp_db) -> MetricReport:
    components, mask = _load_labeled(entry, ("s", "e", "s_hat"), threshold_db)
    return evaluate_scene(components, mask, clamp_db)


def _pooled_aggregates(reports) -> dict:
    """Aggregates of each metric over the frames of all reports, in order."""
    reports = list(reports)
    if not reports:
        return {}
    pooled = {}
    for name in METRIC_NAMES:
        agg = aggregate(np.concatenate([rep.values[name] for rep in reports]), METRIC_CONDITIONS[name])
        if agg is not None:
            pooled[name] = asdict(agg)
    return pooled


def cmd_evaluate(args) -> int:
    manifest = _resolve_manifest(args)
    os.makedirs(args.out, exist_ok=True)
    reports, errors = _run_batch("evaluate", _evaluate_entry, manifest.entries,
                                 manifest.threshold_db, manifest.clamp_db, jobs=args.jobs)
    for eid, report in reports.items():
        report.write_csv(os.path.join(args.out, f"frames_{eid}.csv"))

    payload = {
        "threshold_db": manifest.threshold_db,
        "clamp_db": manifest.clamp_db,
        "n_entries": len(manifest.entries),
        "n_failed": len(errors),
        "metrics": _pooled_aggregates(reports.values()),
        "per_utterance": {
            eid: rep.to_json_dict()["aggregates"] for eid, rep in sorted(reports.items())
        },
        "errors": errors,
    }
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(os.path.join(args.out, "report.json"), blob.encode())
    print(f"evaluate: {len(reports)} ok, {len(errors)} failed -> {args.out}")
    return 1 if errors else 0


def _sweep_entry(entry, configs, threshold_db, clamp_db) -> list[MetricReport]:
    """One report per suppressor config for one scene."""
    components, mask = _load_labeled(entry, ("s", "e"), threshold_db)
    reports = []
    for config in configs:
        s_hat = oracle_suppress(components.e, components.s, config)
        # only what evaluate_scene reads: the m and e identities were
        # checked once when the scene was loaded
        scene = SceneComponents(s=components.s, y=components.y, w=components.w,
                                e=components.e, s_hat=s_hat)
        reports.append(evaluate_scene(scene, mask, clamp_db))
    return reports


def _group_of(entry, tag):
    value = entry.tags.get(tag)
    if value is None:
        raise ValueError(f"entry {entry.id!r} has no tag {tag!r}")
    if not isinstance(value, (str, int, float)):
        raise ValueError(f"entry {entry.id!r}: tag {tag!r} must be a string or a number, "
                         f"got {type(value).__name__}")
    return value


def cmd_sweep(args) -> int:
    alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    if not alphas:
        raise ValueError("empty alpha list")
    configs = [SuppressorConfig(beta=beta, floor=args.floor) for beta in beta_schedule(alphas)]
    with contextlib.ExitStack() as stack:
        scenes_dir = None
        if args.spec:
            scenes_dir = args.scenes_dir or stack.enter_context(
                tempfile.TemporaryDirectory(prefix="reseval-sweep-"))
            _simulate_scenes(args, scenes_dir)
        manifest = _resolve_manifest(args, scenes_dir)
        groups = {e.id: _group_of(e, args.group_by) for e in manifest.entries} if args.group_by else {}
        reports, errors = _run_batch("sweep", _sweep_entry, manifest.entries, configs,
                                     manifest.threshold_db, manifest.clamp_db)

    rows = []
    for group in sorted({groups.get(eid) for eid in reports}, key=lambda v: (str(type(v)), v)):
        members = [rep for eid, rep in reports.items() if groups.get(eid) == group]
        for i, (alpha, config) in enumerate(zip(alphas, configs)):
            row = {"alpha": alpha, "beta": config.beta, "n_scenes": len(members)}
            if args.group_by:
                row[args.group_by] = group
            # a metric no frame qualified for stays an empty cell
            for name, agg in _pooled_aggregates(rep[i] for rep in members).items():
                row[f"{name}_mean"], row[f"{name}_std"] = agg["mean"], agg["std"]
            rows.append(row)

    columns = ([args.group_by] if args.group_by else []) + ["alpha", "beta", "n_scenes"]
    for name in METRIC_NAMES:
        columns += [f"{name}_mean", f"{name}_std"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(c, "")) for c in columns])
    atomic_write_bytes(args.out, buf.getvalue().encode())
    print(f"sweep: {len(rows)} rows, {len(reports)} ok, {len(errors)} failed -> {args.out}")
    return 1 if errors else 0


def _csv_cell(value) -> str:
    if value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_correlate(args) -> int:
    table = ScoreTable.from_csv(args.table)
    results = []
    if args.group_by:
        column = table.column(args.group_by)
        groups = sorted({v for v in column if v is not None})
        for group in groups:
            rows = tuple(r for r, v in zip(table.rows, column) if v == group)
            sub = ScoreTable(columns=table.columns, rows=rows, id_column=table.id_column)
            res = correlate_table(sub, args.metric_col, args.score_col)
            results.append((group, res))
    else:
        results.append((None, correlate_table(table, args.metric_col, args.score_col)))

    for group, res in results:
        prefix = f"{args.group_by}={group} " if group is not None else ""
        print(f"{prefix}pcc={res.pcc:.6f} srcc={res.srcc:.6f} n={res.n}")
    if args.out:
        payload = {
            "metric_col": args.metric_col,
            "score_col": args.score_col,
            "groups": [
                {"group": group, "pcc": res.pcc, "srcc": res.srcc, "n": res.n}
                for group, res in results
            ],
        }
        blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(args.out, blob.encode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reseval",
        description="Residual-echo suppression evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate synthetic scenes from a spec file")
    p.add_argument("--spec", required=True, help="JSON scene spec (fields may be lists, cycled per scene)")
    p.add_argument("--out", required=True, help="output directory for scene subdirectories")
    p.add_argument("--count", type=int, default=1, help="number of scenes")
    p.add_argument("--seed", type=int, default=None, help=f"base seed (default ${SEED_ENV_VAR} or 0)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("suppress", help="run the reference suppressor over a batch")
    p.add_argument("--manifest", help="manifest JSON")
    p.add_argument("--scenes", help="directory of scene subdirectories")
    p.add_argument("--beta", type=float, default=1.0, help="over-suppression factor (>= 1)")
    p.add_argument("--alpha", type=float, default=None, help="tradeoff weight mapped to beta")
    p.add_argument("--floor", type=float, default=0.02, help="spectral gain floor")
    p.add_argument("--out", help="output directory (default: shat.wav beside each scene's e.wav)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_suppress)

    p = sub.add_parser("evaluate", help="compute metric reports over a batch")
    p.add_argument("--manifest", help="manifest JSON")
    p.add_argument("--scenes", help="directory of scene subdirectories")
    p.add_argument("--out", required=True, help="output directory for frame CSVs and report.json")
    p.add_argument("--threshold-db", type=float, default=None, dest="threshold_db",
                   help=f"activity threshold (default {DEFAULT_THRESHOLD_DB})")
    p.add_argument("--clamp-db", type=float, default=None, dest="clamp_db",
                   help=f"metric clamp bound (default {CLAMP_DB})")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="tradeoff table over an alpha sweep")
    p.add_argument("--spec", help="JSON scene spec to simulate scenes from")
    p.add_argument("--count", type=int, default=20, help="scenes to simulate with --spec")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scenes-dir", dest="scenes_dir", help="keep simulated scenes here")
    p.add_argument("--manifest", help="manifest JSON (alternative to --spec)")
    p.add_argument("--scenes", help="scene directory (alternative to --spec)")
    p.add_argument("--alphas", required=True, help="comma-separated ascending alphas")
    p.add_argument("--out", required=True, help="output CSV table")
    p.add_argument("--floor", type=float, default=0.02)
    p.add_argument("--group-by", dest="group_by", help="tag/sidecar field to group rows by")
    p.add_argument("--threshold-db", type=float, default=None, dest="threshold_db")
    p.add_argument("--clamp-db", type=float, default=None, dest="clamp_db")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("correlate", help="PCC/SRCC between two score-table columns")
    p.add_argument("--table", required=True, help="CSV score table")
    p.add_argument("--metric-col", required=True, dest="metric_col")
    p.add_argument("--score-col", required=True, dest="score_col")
    p.add_argument("--group-by", dest="group_by", help="column to group by")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of an OSError names the file; str() of a KeyError adds quotes
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
