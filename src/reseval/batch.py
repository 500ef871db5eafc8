"""The batch commands behind the CLI: manifests, per-entry isolation and
the simulate, suppress, evaluate and sweep runs.

A batch is a list of ManifestEntry, read from a manifest file by
read_manifest, which checks every entry and that no id repeats, or from
a directory of scenes by manifest_from_scenes; write_manifest writes
one.  reseval.cli imports this module only when one of these commands
runs, so --help and correlate never compile it.  Every batch command
runs its scenes or manifest entries through _run_batch, each in
isolation: a failing item is reported on one stderr line and the batch
goes on, and the exit status is nonzero when any item failed.  Each
item's result goes to the command's consumer as it arrives, in input
order, and is let go: evaluate and sweep pool the moments of each
metric (metrics.Moments) that an entry returns, so no per-frame array
outlives its entry.

Each function imports the compute modules it calls when it runs and
looks each compute function up on its module at call time, where a
tracer or a test may have replaced it.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

from .common import _WAV_NAMES, CLAMP_DB, check_out_file, write_csv, write_json

if TYPE_CHECKING:
    from .audio import SceneComponents
    from .metrics import Moments
    from .simulate import SceneSpec


@dataclass
class ManifestEntry:
    """One batch item: an id that names its output files, the WAV path of
    each component it has, and its tags."""

    id: str
    paths: dict[str, str]
    tags: dict = field(default_factory=dict)

    def load(self, required, optional=()) -> SceneComponents:
        """The components of required, which the entry must name, and those of
        optional that it names, each loaded in the order of its paths."""
        from .audio import SceneComponents, load_wav

        missing = [k for k in required if k not in self.paths]
        if missing:
            raise ValueError(f"entry {self.id!r} is missing paths: {', '.join(missing)}")
        wanted = {*required, *optional}
        return SceneComponents(**{k: load_wav(p) for k, p in self.paths.items() if k in wanted})


def read_manifest(path) -> list[ManifestEntry]:
    """The entries of a manifest file; relative paths resolve against its directory."""
    base = os.path.dirname(os.path.abspath(path))
    raw = _read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise ValueError(f"{path}: manifest must be an object with an 'entries' list")
    unknown = sorted(set(raw) - {"entries"})
    if unknown:
        raise ValueError(f"{path}: unknown key {unknown[0]!r}")
    if not raw["entries"]:
        raise ValueError(f"{path}: no entries")
    entries, seen = [], set()
    for idx, item in enumerate(raw["entries"]):
        try:
            entry = _parse_entry(item, base)
        except ValueError as exc:
            raise ValueError(f"{path}: entry {idx}: {exc}") from None
        if entry.id in seen:
            raise ValueError(f"{path}: duplicate entry id {entry.id!r}")
        seen.add(entry.id)
        entries.append(entry)
    return entries


def write_manifest(path, entries) -> None:
    """Write entries as a manifest whose paths are relative to its own directory."""
    base = os.path.dirname(os.path.abspath(path))
    items = []
    for entry in entries:
        item = {"id": entry.id, **{k: os.path.relpath(p, base) for k, p in entry.paths.items()}}
        if entry.tags:
            item["tags"] = entry.tags
        items.append(item)
    write_json(path, {"entries": items})


def _parse_entry(item, base: str) -> ManifestEntry:
    """One manifest entry; relative component paths resolve against base."""
    if not isinstance(item, dict):
        raise ValueError(f"must be an object, got {type(item).__name__}")
    unknown = sorted(set(item) - {"id", "tags", *_WAV_NAMES})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    if "id" not in item:
        raise ValueError("has no 'id'")
    # the id names the entry's output files, so it must be one file name
    entry_id = item["id"]
    if not isinstance(entry_id, (str, int, float)) or isinstance(entry_id, bool):
        raise ValueError(f"'id' must be a string or a number, got {type(entry_id).__name__}")
    entry_id = str(entry_id)
    if entry_id in ("", ".", "..") or any(c in entry_id for c in ("/", os.sep, "\0")):
        raise ValueError(f"'id' must be a file name, got {entry_id!r}")
    paths = {}
    for key in _WAV_NAMES:
        if key in item:
            p = item[key]
            if not isinstance(p, str) or not p:
                raise ValueError(f"path {key!r} must be a non-empty string, got {p!r}")
            paths[key] = os.path.join(base, p)
    tags = item.get("tags", {})
    if not isinstance(tags, dict):
        raise ValueError(f"'tags' must be an object, got {type(tags).__name__}")
    return ManifestEntry(id=entry_id, paths=paths, tags=tags)


def manifest_from_scenes(scenes_dir) -> list[ManifestEntry]:
    """The entries of a directory of scene subdirectories, one per directory
    name: each holds the scene's WAVs, tagged with its sidecar's spec and
    achieved_* levels."""
    names = sorted(
        d for d in os.listdir(scenes_dir)
        if os.path.isfile(os.path.join(scenes_dir, d, "scene.json"))
    )
    if not names:
        raise ValueError(f"{scenes_dir}: no scene directories (missing scene.json sidecars)")
    entries = []
    for name in names:
        scene_dir = os.path.join(scenes_dir, name)
        sidecar_path = os.path.join(scene_dir, "scene.json")
        sidecar = _read_json(sidecar_path)
        if not isinstance(sidecar, dict) or not all(
                isinstance(sidecar.get(key, {}), dict) for key in ("spec", "achieved")):
            raise ValueError(f"{sidecar_path}: scene sidecar must be an object whose 'spec' and 'achieved' "
                             "are objects")
        paths = {}
        for key, fname in _WAV_NAMES.items():
            p = os.path.join(scene_dir, fname)
            if os.path.exists(p):
                paths[key] = p
        tags = dict(sidecar.get("spec", {}))
        for key, value in sidecar.get("achieved", {}).items():
            tags[f"achieved_{key}"] = value
        entries.append(ManifestEntry(id=name, paths=paths, tags=tags))
    return entries


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite float")
    return value


def _read_json(path):
    """The JSON of path, as strict as write_json: NaN, Infinity and numbers beyond float range fail."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=_finite_float, parse_constant=_finite_float)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: not valid JSON (nested too deeply)") from None


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep the heap memory this process frees for its next arrays (glibc only).

    By default glibc maps every array above its dynamic mmap threshold on
    its own and hands it back to the kernel when it is freed, so each
    fresh scene-length array of a batch is faulted in again page by page.
    A fixed 32 MiB mmap threshold serves these arrays from the heap, and a
    256 MiB trim threshold keeps the freed heap top.  Either one alone
    turns off the dynamic threshold and faults more than neither, so the
    trim threshold is set only once the mmap threshold has taken.  Where
    the C library has no mallopt this does nothing.  Only the batch
    commands call it; importing reseval leaves the allocator as it is.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no C library handle, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _isolated(task):
    """step(item, *extra) -> (result, None), or (None, error line)."""
    step, item, *extra = task
    try:
        return step(item, *extra), None
    except Exception as exc:  # per-item isolation
        return None, f"{type(exc).__name__}: {exc}"


def _run_batch(command: str, step, items, consume, *extra, jobs: int = 1) -> dict[str, str]:
    """Run step(item, *extra) over the (id, item) pairs, in up to jobs
    processes, and call consume(id, result) for each item that succeeds, in
    input order as the results arrive; no result is kept, and failures are
    reported, not raised.

    Prints one "<command>: <id>: <error>" line per failed item to stderr and
    returns {id: error}.  A worker process that dies stops the batch with a
    ChildProcessError (an OSError) that names the command.
    """
    _keep_freed_memory()
    tasks = [(step, item, *extra) for _, item in items]
    if jobs <= 1 or len(tasks) <= 1:
        return _consume(command, items, map(_isolated, tasks), consume)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=_keep_freed_memory) as pool:
            # map yields each result in input order once it is done
            return _consume(command, items, pool.map(_isolated, tasks), consume)
    except BrokenProcessPool:
        # a worker died (os._exit, a signal, the OOM killer) and the pool runs no item left
        raise ChildProcessError(f"{command}: a worker process ended abruptly; "
                                "--jobs 1 runs the batch in one process") from None


def _consume(command: str, items, outcomes, consume) -> dict[str, str]:
    """Hand the (result, error) outcomes of items to consume, in order."""
    errors = {}
    for (item_id, _), (result, err) in zip(items, outcomes):
        if err is None:
            consume(item_id, result)
        else:
            errors[item_id] = err
            print(f"{command}: {item_id}: {err}", file=sys.stderr)
    return errors


def _load_scene_specs(path, count: int, seed: int) -> list[SceneSpec]:
    from .simulate import SceneSpec

    if count < 1:
        raise ValueError(f"invalid scene spec: --count must be >= 1, got {count}")
    try:
        raw = _read_json(path)
    except ValueError as exc:
        raise ValueError(f"invalid scene spec: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"invalid scene spec: {path}: must be a JSON object")
    if "seed" in raw:
        raise ValueError("invalid scene spec: field 'seed' is set by --seed")
    for key, value in raw.items():
        if value == []:
            raise ValueError(f"invalid scene spec: field {key!r} is an empty list")
    specs = []
    for i in range(count):
        # scene i takes item i, cycled, of each list field
        data = {k: v[i % len(v)] if isinstance(v, list) else v for k, v in raw.items()}
        specs.append(SceneSpec.from_dict({**data, "seed": seed + i}))
    return specs


def _simulate_one(task) -> None:
    from .simulate import generate_scene, save_scene

    spec, scene_dir = task
    save_scene(generate_scene(spec), spec, scene_dir)


def run_simulate(args) -> int:
    """Write the --spec/--count/--seed scenes as <out>/scene_NNNN."""
    _check_jobs(args)
    specs = _load_scene_specs(args.spec, args.count, args.seed)
    if os.path.isdir(args.out) and any(name.startswith("scene_") for name in os.listdir(args.out)):
        raise FileExistsError(f"{args.out}: holds scenes of an earlier run; simulate into a new directory")
    os.makedirs(args.out, exist_ok=True)
    ids = [f"scene_{i:04d}" for i in range(len(specs))]
    items = [(sid, (spec, os.path.join(args.out, sid))) for sid, spec in zip(ids, specs)]
    errors = _run_batch("simulate", _simulate_one, items, lambda sid, result: None, jobs=args.jobs)
    print(f"simulate: {len(items) - len(errors)} ok, {len(errors)} failed -> {args.out}")
    return 1 if errors else 0


def _suppress_entry(entry, config, out_dir):
    from .audio import save_wav
    from .suppressor import gain_tracks, oracle_suppress

    components = entry.load(("s", "e"))
    if out_dir:
        out_path = os.path.join(out_dir, f"{entry.id}.shat.wav")
    else:
        out_path = os.path.join(os.path.dirname(entry.paths["e"]), _WAV_NAMES["s_hat"])
    tracks = gain_tracks(components.e, components.s)
    save_wav(oracle_suppress(tracks, config), out_path)
    return out_path


def run_suppress(args) -> int:
    from .suppressor import SuppressorConfig, beta_schedule

    _check_jobs(args)
    if args.manifest and not args.out:
        # only a scene directory has a place for shat.wav; manifest entries may share a directory
        raise ValueError("suppress --manifest needs --out")
    entries = read_manifest(args.manifest) if args.manifest else manifest_from_scenes(args.scenes)
    beta = args.beta if args.alpha is None else beta_schedule([args.alpha])[0]
    config = SuppressorConfig(beta=beta)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    written = {}  # the s_hat path of each entry that succeeded
    errors = _run_batch("suppress", _suppress_entry, [(e.id, e) for e in entries], written.__setitem__,
                        config, args.out, jobs=args.jobs)
    if args.out:
        # each entry with the s_hat this run wrote for it, or with none
        out_entries = []
        for entry in entries:
            paths = {k: p for k, p in entry.paths.items() if k != "s_hat"}
            if entry.id in written:
                paths["s_hat"] = written[entry.id]
            out_entries.append(replace(entry, paths=paths))
        write_manifest(os.path.join(args.out, "manifest.json"), out_entries)
    print(f"suppress: beta={beta:g}, {len(written)} ok, {len(errors)} failed")
    return 1 if errors else 0


def _load_labeled(entry, extra):
    """An entry's s, y, w and e (s and e required) plus extra, and its activity mask.

    y and w are read by scene_rows and echo_reference, against which
    classify labels s by the scene's own level; m and y_hat are loaded
    for the identity checks alone and are let go once those have passed.
    """
    from .activity import classify, echo_reference

    components = replace(entry.load(("s", "e", *extra), ("y", "w", "m", "y_hat")), m=None, y_hat=None)
    return components, classify(components.s, echo_reference(components))


def _evaluate_entry(entry, out_dir) -> dict[str, Moments]:
    """Write the entry's frames_<id>.csv into out_dir; returns the moments of each metric."""
    from .metrics import Moments, evaluate_scene, scene_rows

    components, mask = _load_labeled(entry, ("s_hat",))
    report = evaluate_scene(scene_rows(components, mask), components.s_hat)
    report.write_csv(os.path.join(out_dir, f"frames_{entry.id}.csv"))
    return {name: Moments.of(values) for name, values in report.values.items()}


def _aggregate_dicts(moments) -> dict:
    """{metric: aggregate as a dict} of each metric of moments that has a frame."""
    from .metrics import aggregates_of

    return {name: asdict(agg) for name, agg in aggregates_of(moments).items()}


def run_evaluate(args) -> int:
    _check_jobs(args)
    entries = read_manifest(args.manifest) if args.manifest else manifest_from_scenes(args.scenes)
    if os.path.isdir(args.out) and any(name == "report.json" or name.startswith("frames_")
                                       for name in os.listdir(args.out)):
        raise FileExistsError(f"{args.out}: holds a report of an earlier run; evaluate into a new directory")
    os.makedirs(args.out, exist_ok=True)
    # imported before the pool forks, so that each --jobs worker starts with them
    from . import activity, metrics

    pooled = dict.fromkeys(metrics.METRIC_NAMES, metrics.Moments())
    per_utterance = {}  # the moments of each entry that succeeded

    def consume(eid, moments):
        per_utterance[eid] = moments
        for name, m in moments.items():
            pooled[name] += m

    errors = _run_batch("evaluate", _evaluate_entry, [(e.id, e) for e in entries], consume,
                        args.out, jobs=args.jobs)
    payload = {
        "activity_range_db": activity.ACTIVITY_RANGE_DB,
        "clamp_db": CLAMP_DB,
        "n_entries": len(entries),
        "n_failed": len(errors),
        "metrics": _aggregate_dicts(pooled),
        "per_utterance": {eid: _aggregate_dicts(moments) for eid, moments in per_utterance.items()},
        "errors": errors,
    }
    write_json(os.path.join(args.out, "report.json"), payload)
    print(f"evaluate: {len(per_utterance)} ok, {len(errors)} failed -> {args.out}")
    return 1 if errors else 0


def _sweep_entry(entry, configs) -> list[dict[str, Moments]]:
    """The moments of each metric under each suppressor config for one scene,
    whose gain tracks, rows and SER/SNR moments are computed once."""
    from .audio import Signal
    from .metrics import METRIC_NAMES, Moments, evaluate_scene, scene_rows
    from .suppressor import gain_tracks, oracle_suppress

    components, mask = _load_labeled(entry, ())
    tracks = gain_tracks(components.e, components.s)
    rows = scene_rows(components, mask)
    # tracks keep e and rows their own frame copies: s, y and w are not
    # kept alive while each alpha's s_hat is scored
    del components, mask
    shared = {name: Moments.of(values) for name, values in rows.values.items()}
    per_config = []
    for config in configs:
        # rounded through float32 as save_wav writes it, so that a row scores
        # the s_hat that suppress -> evaluate would score
        s_hat = Signal(oracle_suppress(tracks, config).samples.astype("float32"))
        values = evaluate_scene(rows, s_hat).values
        per_config.append({name: shared[name] if name in shared else Moments.of(values[name])
                           for name in METRIC_NAMES})
        # the next alpha's s_hat is built without this one alive
        del s_hat, values
    return per_config


def _groups(entries, tag) -> dict:
    """{entry id: its tag value}; a value that is no string or number is refused,
    and so are values whose group cells correlate reads back empty or the same:
    stripped, and as floats where every cell is a finite number."""
    from .stats import _number

    groups = {}
    for entry in entries:
        if tag not in entry.tags:
            raise ValueError(f"entry {entry.id!r} has no tag {tag!r}")
        value = groups[entry.id] = entry.tags[tag]
        # a bool equals 1 or 0, so true would be pooled with 1 and 1.0
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            raise ValueError(f"entry {entry.id!r}: tag {tag!r} must be a string or a number, "
                             f"got {type(value).__name__}")
    texts = {value: str(value).strip() for value in groups.values()}
    try:
        cells = {value: _number(text, "", 0, tag) for value, text in texts.items()}
    except ValueError:  # a column of text
        cells = texts
    seen = {}
    for value, cell in cells.items():
        if not texts[value]:
            raise ValueError(f"tag {tag!r}: value {value!r} reads as an empty cell in a table")
        if seen.setdefault(cell, value) != value:
            raise ValueError(f"tag {tag!r}: values {seen[cell]!r} and {value!r} read the same in a table")
    return groups


def run_sweep(args) -> int:
    # imported before the pool forks, so that each --jobs worker starts with them
    # (metrics imports activity and audio, suppressor framing)
    from .metrics import METRIC_NAMES, Moments
    from .suppressor import SuppressorConfig, beta_schedule

    _check_jobs(args)
    try:
        alphas = [float(a) for a in args.alphas.split(",")] if args.alphas else []
    except ValueError:
        raise ValueError(f"--alphas must be comma-separated numbers, got {args.alphas!r}") from None
    configs = [SuppressorConfig(beta=beta) for beta in beta_schedule(alphas)]
    columns = ["alpha", "beta", "n_scenes"]
    for name in METRIC_NAMES:
        columns += [f"{name}_mean", f"{name}_std"]
    if args.group_by:
        if args.group_by in ["id", *columns]:
            raise ValueError(f"--group-by {args.group_by!r} names a column of the sweep table")
        # correlate reads the first column as the row ids: <group>/<alpha>
        columns = ["id", args.group_by, *columns]
    check_out_file(args.out, [args.manifest] if args.manifest else [])
    entries = read_manifest(args.manifest) if args.manifest else manifest_from_scenes(args.scenes)
    # the inputs: each entry's WAV paths, and with --scenes its sidecar
    inputs = [path for e in entries for path in e.paths.values()]
    if args.scenes:
        inputs += [os.path.join(args.scenes, e.id, "scene.json") for e in entries]
    check_out_file(args.out, inputs)
    groups = _groups(entries, args.group_by) if args.group_by else {}
    # per group: its scene count, and per config the pooled moments of each metric
    n_scenes, pooled = {}, {}

    def consume(eid, per_config):
        group = groups.get(eid)
        n_scenes[group] = n_scenes.get(group, 0) + 1
        sums = pooled.setdefault(group, [dict.fromkeys(METRIC_NAMES, Moments()) for _ in configs])
        for acc, moments in zip(sums, per_config):
            for name, m in moments.items():
                acc[name] += m

    errors = _run_batch("sweep", _sweep_entry, [(e.id, e) for e in entries], consume, configs, jobs=args.jobs)
    rows = []
    for group in sorted(pooled, key=lambda v: (str(type(v)), v)):
        for alpha, config, moments in zip(alphas, configs, pooled[group]):
            row = {"alpha": alpha, "beta": config.beta, "n_scenes": n_scenes[group]}
            if args.group_by:
                row["id"], row[args.group_by] = f"{group}/{alpha!r}", group
            # a metric no frame qualified for stays an empty cell
            for name, agg in _aggregate_dicts(moments).items():
                row[f"{name}_mean"], row[f"{name}_std"] = agg["mean"], agg["std"]
            rows.append(row)

    write_csv(args.out, columns, [[row.get(c) for row in rows] for c in columns])
    print(f"sweep: {len(rows)} rows, {sum(n_scenes.values())} ok, {len(errors)} failed -> {args.out}")
    return 1 if errors else 0
