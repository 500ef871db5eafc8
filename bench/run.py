#!/usr/bin/env python3
"""Benchmark of the reseval CLI: cold command times on two workloads,
plus a traced in-process run that gives per-module layer times.

Run from the root of a reseval checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 44 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` runs the real CLI (``python -m reseval.cli ...``) in fresh
child processes, one at a time, with ``--jobs 1`` and BLAS/OpenMP thread
counts set to 1, for ``--seconds`` seconds, and reports the
``end_to_end`` metrics of BENCHMARK.json.  Their times are the run's
medians scaled by the host's speed during the run, measured by a fixed
kernel timed between operations (``HostSpeed``); the raw medians are
printed beside them.  ``--trace 1`` instead runs
the command chain once cold, then calls ``reseval.cli.main(argv)`` in
this process with the library's public functions wrapped from outside
(bench/tracer.py), and reports the ``per_layer`` metrics.  Both modes
check the outputs (see ``check_rep`` and ``run_gate``) and print, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.  Spans of the traced runs are written to
``.bench_work/traces/`` as JSONL.

The inputs are made from ``--seed``; the program only sees the generated
spec files, score tables and scenes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

ALPHAS = "0,0.25,0.5,0.75,1"
N_ALPHAS = len(ALPHAS.split(","))
SCORE_ROWS = 200
SETUP_REPS = 3
MIN_REPS = 2
MIN_PROBES = 6
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SCENE_FILES = ("scene.json", "s.wav", "x.wav", "y.wav", "w.wav", "m.wav", "yhat.wav", "e.wav")
# Gate reference values are pooled metric means in dB and correlation
# coefficients; a value passes when |got - ref| <= GATE_TOL * max(1, |ref|).
GATE_TOL = 1e-6
GATE_SEED = 20210715
# Pooled means in report.json against the same means recomputed from the
# frame CSVs of the same run (repr-exact cells, different summation order).
POOLED_TOL = 1e-9
# HostSpeed kernel.  KERNEL_REF_S is close to its median time on the host
# that recorded bench/baseline.json, which lists the medians of those runs.
KERNEL_SOURCE = """
import marshal
import numpy as np
signal = np.random.default_rng(0).standard_normal(4 * 160000)
window = np.hanning(512)
for _ in range(5):
    frames = np.lib.stride_tricks.sliding_window_view(signal, 512)[::256] * window
    spec = np.fft.rfft(frames, axis=1)
    power = spec.real ** 2 + spec.imag ** 2
    np.fft.irfft(spec * np.maximum(1.0 - power / (power.mean() + 1.0), 0.1), axis=1)
source = "".join(f"def f{i}(a, b):\\n    c = [a, b, {i}]\\n    return sum(c) * {i}\\n" for i in range(3000))
code = marshal.dumps(compile(source, "<kernel>", "exec"))
for _ in range(6):
    exec(marshal.loads(code), {})
"""
KERNEL_REF_S = 0.45


@dataclass(frozen=True)
class Workload:
    spec: dict
    scenes: int
    commands: tuple[str, ...]
    presimulated: bool = False

    @property
    def audio_seconds(self) -> float:
        """Scene audio pushed through one chain; a sweep counts it once per alpha."""
        passes = N_ALPHAS if "sweep" in self.commands else 1
        return self.scenes * self.spec["duration"] * passes


CORPUS_SPEC = {"duration": 10.0, "ser_db": [-10.0, 0.0, 10.0], "snr_db": 30.0,
               "echo_path_change_at": [None, None, None, 6.0]}
WORKLOADS = {
    "corpus": Workload(CORPUS_SPEC, 8, ("simulate", "suppress", "evaluate", "correlate")),
    "sweep": Workload(CORPUS_SPEC, 8, ("sweep",), presimulated=True),
}
GATE = Workload({"duration": 2.5, "ser_db": [-10.0, 0.0, 10.0], "snr_db": 30.0,
                 "echo_path_change_at": [None, 1.5]}, 3,
                ("simulate", "suppress", "evaluate", "sweep", "correlate"))

# Spans each command must record at least once in a traced run.
EXPECTED_SPANS = {
    "simulate": {"cli.simulate", "simulate.generate_scene", "simulate.save_scene", "audio.save_wav"},
    "suppress": {"cli.suppress", "suppressor.oracle_suppress", "audio.load_wav", "audio.save_wav"},
    "evaluate": {"cli.evaluate", "metrics.evaluate_scene", "activity.classify",
                 "metrics.MetricReport.write_csv", "audio.load_wav"},
    "sweep": {"cli.sweep", "suppressor.oracle_suppress", "metrics.evaluate_scene",
              "activity.classify", "audio.load_wav"},
    "correlate": {"cli.correlate", "stats.ScoreTable.from_csv", "stats.correlate_table"},
}


class Tally:
    """Operations attempted and failed; an operation is one CLI call or one check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, problems, what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"bench: FAIL {what}: {problem}", file=sys.stderr)
            if len(problems) > 5:
                print(f"bench: FAIL {what}: ... and {len(problems) - 5} more", file=sys.stderr)
        return not problems


@dataclass
class Child:
    returncode: int
    seconds: float
    peak_rss_mb: float
    stderr: str

    def problems(self) -> list[str]:
        if self.returncode == 0:
            return []
        tail = self.stderr.strip().splitlines()[-3:]
        return [f"exit code {self.returncode}: {' | '.join(tail)}"]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("RES_EVAL_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_child(args: list[str], env: dict, log: Path) -> Child:
    """Run the interpreter with args; wall time and peak RSS from os.wait4."""
    with open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0, text)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def command_argv(cmd: str, w: Workload, inputs: Path, scenes: Path, out: Path, seed: int) -> list[str]:
    return {
        "simulate": ["simulate", "--spec", str(inputs / "spec.json"), "--out", str(scenes),
                     "--count", str(w.scenes), "--seed", str(seed), "--jobs", "1"],
        "suppress": ["suppress", "--scenes", str(scenes), "--alpha", "0.5", "--jobs", "1"],
        "evaluate": ["evaluate", "--scenes", str(scenes), "--out", str(out / "report"), "--jobs", "1"],
        # sweep has no --jobs flag; it always runs in one process
        "sweep": ["sweep", "--scenes", str(scenes), "--alphas", ALPHAS, "--group-by", "ser_db",
                  "--out", str(out / "sweep.csv")],
        "correlate": ["correlate", "--table", str(inputs / "scores.csv"), "--metric-col", "dsml",
                      "--score-col", "mos", "--group-by", "alpha", "--out", str(out / "corr.json")],
    }[cmd]


def scenes_dir(w: Workload, inputs: Path, out: Path) -> Path:
    return inputs / "scenes" if w.presimulated else out / "scenes"


def write_inputs(w: Workload, inputs: Path, seed: int) -> None:
    """Spec file and, for correlate, a seeded score table."""
    fresh(inputs)
    (inputs / "spec.json").write_text(json.dumps(w.spec, sort_keys=True) + "\n")
    if "correlate" in w.commands:
        rng = random.Random(seed)
        alphas = [float(a) for a in ALPHAS.split(",")]
        lines = ["id,alpha,dsml,mos"]
        for i in range(SCORE_ROWS):
            dsml = rng.gauss(-3.0, 2.0)
            mos = 3.0 + 0.3 * dsml + rng.gauss(0.0, 0.5)
            lines.append(f"utt{i:04d},{alphas[i % len(alphas)]!r},{dsml!r},{mos!r}")
        (inputs / "scores.csv").write_text("\n".join(lines) + "\n")


def setup(w: Workload, ws: Path, seed: int, env: dict, tally: Tally) -> float:
    """Build the workload's inputs; returns the wall time it took.

    Every setup ends with one CLI child: the pre-simulation for a
    presimulated workload, otherwise a bare ``import reseval.cli``.  It
    fills the page and bytecode caches, so the first timed command does
    not pay a one-time cost that users pay once per install.
    """
    inputs = ws / "inputs"
    start = time.perf_counter()
    write_inputs(w, inputs, seed)
    if w.presimulated:
        args = ["-m", "reseval.cli", *command_argv("simulate", w, inputs, inputs / "scenes", ws, seed)]
    else:
        args = ["-c", "import reseval.cli"]
    child = run_child(args, env, ws / "setup.log")
    elapsed = time.perf_counter() - start
    tally.op(child.problems(), "setup")
    return elapsed


def digest_tree(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def check_pooled_means(report_dir: Path, report: dict) -> list[str]:
    columns: dict[str, list[float]] = {}
    for path in sorted(report_dir.glob("frames_*.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                for name, cell in row.items():
                    if name not in ("frame_index", "label") and cell != "":
                        columns.setdefault(name, []).append(float(cell))
    problems = []
    for name, agg in sorted(report["metrics"].items()):
        values = columns.get(name, [])
        mean = math.fsum(values) / len(values) if values else math.nan
        if len(values) != agg["count"] or not close(mean, agg["mean"], POOLED_TOL):
            problems.append(f"report.json {name} mean {agg['mean']!r} over {agg['count']} frames, "
                            f"frame CSVs give {mean!r} over {len(values)}")
    return problems


def check_rep(w: Workload, scenes: Path, out: Path) -> list[str]:
    """Structural checks on the outputs of one command chain."""
    problems = []
    if "simulate" in w.commands or "suppress" in w.commands:
        dirs = sorted(scenes.glob("scene_*"))
        if len(dirs) != w.scenes:
            problems.append(f"{len(dirs)} scene directories, expected {w.scenes}")
        wanted = SCENE_FILES + (("shat.wav",) if "suppress" in w.commands else ())
        for d in dirs:
            missing = [f for f in wanted if not (d / f).is_file()]
            if missing:
                problems.append(f"{d.name} lacks {', '.join(missing)}")
    if "evaluate" in w.commands:
        report = json.loads((out / "report" / "report.json").read_text())
        if report["n_entries"] != w.scenes or report["n_failed"] != 0:
            problems.append(f"report.json n_entries={report['n_entries']} n_failed={report['n_failed']}")
        problems += check_pooled_means(out / "report", report)
    if "sweep" in w.commands:
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        groups = {row["ser_db"] for row in rows}
        if len(rows) != len(groups) * N_ALPHAS or sum(int(r["n_scenes"]) for r in rows) != w.scenes * N_ALPHAS:
            problems.append(f"sweep.csv has {len(rows)} rows over {len(groups)} groups")
    if "correlate" in w.commands:
        groups = json.loads((out / "corr.json").read_text())["groups"]
        if len(groups) != N_ALPHAS or any(
                g["n"] != SCORE_ROWS // N_ALPHAS or not (-1.0 <= g["pcc"] <= 1.0 and -1.0 <= g["srcc"] <= 1.0) for g in groups):
            problems.append(f"corr.json groups {groups!r}")
    return problems


class HostSpeed:
    """The host's speed during a run, from a fixed kernel timed between operations.

    The host shares its cores with other tenants, and its speed drifts by
    a quarter within a minute, for the program and for any other code
    alike.  The kernel (KERNEL_SOURCE) does not use reseval.  Like a cold
    command, it is a fresh interpreter that imports numpy, runs FFTs over
    a few 10 s signals, executes a module's worth of code and exits.  A
    run's times are scaled by ``KERNEL_REF_S / median kernel time``,
    which gives them as they would read on this host when the kernel
    takes KERNEL_REF_S.
    """

    def __init__(self, env: dict, ws: Path):
        self.env, self.log = env, ws / "kernel.log"
        self.kernels: list[float] = []

    def sample(self) -> None:
        child = run_child(["-c", KERNEL_SOURCE], self.env, self.log)
        if child.returncode != 0:
            raise RuntimeError(f"host speed kernel failed: {child.problems()}")
        self.kernels.append(child.seconds)

    def factor(self) -> float:
        return KERNEL_REF_S / statistics.median(self.kernels)


def help_probe(ws: Path, env: dict, tally: Tally) -> Child:
    """``python -m reseval.cli --help`` in a fresh interpreter."""
    probe = run_child(["-m", "reseval.cli", "--help"], env, ws / "help.log")
    tally.op(probe.problems(), "reseval --help")
    return probe


def timed_rep(w: Workload, ws: Path, seed: int, env: dict, tally: Tally,
              first: dict | None, after_child=None) -> tuple[dict, dict[str, Child], dict]:
    """One cold run of the workload's command chain.

    Returns (per-rep metrics, child per command, output digests); the
    metrics are empty when a command failed.  Outputs must be
    byte-identical to those of the first rep of the run.  ``after_child``
    is called after each command, outside its timing.
    """
    inputs, out = ws / "inputs", fresh(ws / "rep")
    scenes = scenes_dir(w, inputs, out)
    logs = fresh(ws / "logs")
    children = {}
    for cmd in w.commands:
        child = run_child(["-m", "reseval.cli", *command_argv(cmd, w, inputs, scenes, out, seed)],
                          env, logs / f"{cmd}.log")
        children[cmd] = child
        if after_child:
            after_child()
        if not tally.op(child.problems(), f"reseval {cmd}"):
            return {}, children, {}
    digests = digest_tree(out)
    try:
        problems = check_rep(w, scenes, out)
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if first is not None and digests != first:
        changed = sorted(k for k in digests.keys() | first.keys() if digests.get(k) != first.get(k))
        problems.append(f"outputs differ from the first rep: {', '.join(changed[:5])}")
    tally.op(problems, "output check")
    metrics = {
        "pipeline_s": sum(c.seconds for c in children.values()),
        "peak_rss_mb": max(c.peak_rss_mb for c in children.values()),
    }
    return metrics, children, digests


def load_cli():
    """Import reseval.cli from this checkout into the benchmark process."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import reseval.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"reseval imported from {cli.__file__}, not from {SRC}")
    return cli


def call_main(cli, argv: list[str]) -> tuple[int, float, str]:
    """reseval.cli.main(argv) in this process: (exit code, seconds, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash of the program is a failed operation
            traceback.print_exc(file=err)
            code = 1
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue()


def gate_values(cli, ws: Path) -> dict[str, float]:
    """Pooled means and correlations of a fixed-seed chain run in process."""
    inputs, out = ws / "gate-inputs", fresh(ws / "gate")
    write_inputs(GATE, inputs, GATE_SEED)
    for cmd in GATE.commands:
        code, _, err = call_main(cli, command_argv(cmd, GATE, inputs, out / "scenes", out, GATE_SEED))
        if code != 0:
            raise RuntimeError(f"gate {cmd} exited {code}: {err.strip()}")
    values = {}
    report = json.loads((out / "report" / "report.json").read_text())
    for name, agg in report["metrics"].items():
        values[f"report.{name}.mean"] = agg["mean"]
    with open(out / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for key, cell in row.items():
                if key.endswith("_mean") and cell != "":
                    values[f"sweep.ser_db={row['ser_db']}.alpha={row['alpha']}.{key}"] = float(cell)
    for group in json.loads((out / "corr.json").read_text())["groups"]:
        values[f"correlate.alpha={group['group']}.pcc"] = group["pcc"]
        values[f"correlate.alpha={group['group']}.srcc"] = group["srcc"]
    return values


def run_gate(ws: Path, tally: Tally) -> None:
    """Correctness gate: fixed-seed outputs against the recorded reference."""
    try:
        got = gate_values(load_cli(), ws)
    except Exception as exc:  # a program that cannot run the gate fails it
        tally.op([repr(exc)], "reference gate")
        return
    ref = json.loads(REFERENCE.read_text())["values"]
    problems = [f"{key} missing" for key in sorted(ref.keys() - got.keys())]
    problems += [f"{key} not in the reference" for key in sorted(got.keys() - ref.keys())]
    problems += [f"{key} = {got[key]!r}, reference {ref[key]!r}"
                 for key in sorted(ref.keys() & got.keys()) if not close(got[key], ref[key], GATE_TOL)]
    tally.op(problems, "reference gate")


def import_probe(env: dict, log: Path) -> dict[str, float]:
    """Import times from ``python -X importtime -c 'import reseval.cli'``.

    total_s sums the self time of every module imported by the fresh
    interpreter, start-up modules included; the others sum the modules
    of one top-level package.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import reseval.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    log.write_text(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe exited {proc.returncode}")
    sums = {"total_s": 0.0, "scipy_s": 0.0, "numpy_s": 0.0, "reseval_s": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        seconds = int(self_us) / 1e6
        sums["total_s"] += seconds
        key = name.strip().split(".")[0] + "_s"
        if key in sums:
            sums[key] += seconds
    return sums


def traced_metrics(w: Workload, ws: Path, seed: int, env: dict, tally: Tally,
                   label: str) -> dict[str, float]:
    """Per-layer metrics: import probe, one cold chain, then in-process runs.

    The in-process runs alternate untraced and traced: a warm-up run that
    is discarded, then traced, untraced, traced, untraced.  Traced runs
    must repeat their exact counts and pass the tracer's self-check.
    """
    values: dict[str, float] = {}
    probes = []
    for i in range(3):
        try:
            probes.append(import_probe(env, ws / f"importtime{i}.log"))
            tally.op([], "import probe")
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            tally.op([str(exc)], "import probe")
    for key in ("total_s", "scipy_s", "numpy_s", "reseval_s"):
        values[f"import.{key}"] = statistics.median(p[key] for p in probes) if probes else math.nan

    _, cold, reference = timed_rep(w, ws, seed, env, tally, None)
    for cmd, child in cold.items():
        values[f"cli.{cmd}.cold_s"] = child.seconds

    cli = load_cli()
    inputs = ws / "inputs"
    spans = tracer.Tracer()
    expected = set().union(*(EXPECTED_SPANS[cmd] for cmd in w.commands))
    untraced, traced, busy = [], [], {cmd: [] for cmd in w.commands}
    for i, run in enumerate((0, 1, 0, 2, 0)):
        out = fresh(ws / "rep")
        if run:
            spans.install(run)
        try:
            times = {}
            for cmd in w.commands:
                argv = command_argv(cmd, w, inputs, scenes_dir(w, inputs, out), out, seed)
                code, times[cmd], err = call_main(cli, argv)
                tally.op([f"exit code {code}: {err.strip()}"] if code else [], f"in-process {cmd}")
        finally:
            spans.uninstall()
        digests = digest_tree(out)
        tally.op([] if digests == reference else ["outputs differ from the cold run"],
                 "in-process output check")
        if run:
            traced.append(sum(times.values()))
        elif i:  # the first untraced run only warms up
            untraced.append(sum(times.values()))
            for cmd, seconds in times.items():
                busy[cmd].append(seconds)

    summaries = [tracer.summarize(spans.run_spans(run)) for run in (1, 2)]
    for run in (1, 2):
        tally.op(tracer.self_check(spans.run_spans(run), expected), f"trace self-check run {run}")
    counts = [tracer.exact_counts(s) for s in summaries]
    tally.op([] if counts[0] == counts[1] else ["exact counts differ between traced runs"],
             "trace repeatability")
    tracer.write_jsonl(WORK / "traces" / f"{label}-seed{seed}.jsonl", spans.spans)
    run_gate(ws, tally)

    for name, agg in summaries[0].items():
        for stat, value in agg.items():
            if stat.endswith("_s"):
                value = statistics.median(s.get(name, {}).get(stat, 0.0) for s in summaries)
            values[f"{name}.{stat}"] = value
    for cmd, seconds in busy.items():
        values[f"cli.{cmd}.busy_s"] = statistics.median(seconds)
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    if spans.missing:
        print(f"bench: not found, so not traced: {', '.join(spans.missing)}")
    oracle = values.get("suppressor.oracle_suppress.calls", 0)
    if oracle:
        print(f"bench: framing.stft.calls / suppressor.oracle_suppress.calls = "
              f"{values.get('framing.stft.calls', 0) / oracle:g}; oracle_suppress.calls = {oracle:g}")
    return values


def end_to_end_metrics(w: Workload, ws: Path, seed: int, seconds: float, env: dict,
                       tally: Tally) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics and, per metric, how its samples were reduced.

    Each time is the median of its samples scaled by the host's speed
    during the run (HostSpeed), sampled after every child process; the
    raw medians are printed beside them.
    """
    host = HostSpeed(env, ws)
    raw = {"setup_s": [], "cold_start_s": [], "pipeline_s": []}

    def probe() -> None:
        raw["cold_start_s"].append(help_probe(ws, env, tally).seconds)
        host.sample()

    for _ in range(SETUP_REPS):
        raw["setup_s"].append(setup(w, ws, seed, env, tally))
        host.sample()
    walls, rss, first = [], [], None
    per_command = {cmd: [] for cmd in w.commands}
    start = time.perf_counter()

    def fits(durations) -> bool:
        return time.perf_counter() - start + statistics.median(durations) <= seconds

    # Chains and --help probes alternate, so slow drift of the machine's
    # speed reaches both; time too short for another chain goes to probes.
    while len(walls) < MIN_REPS or fits(walls):
        rep_start = time.perf_counter()
        probe()
        metrics, children, digests = timed_rep(w, ws, seed, env, tally, first, host.sample)
        if not metrics:
            break
        first = first or digests
        raw["pipeline_s"].append(metrics["pipeline_s"])
        rss.append(metrics["peak_rss_mb"])
        walls.append(time.perf_counter() - rep_start)
        for cmd, child in children.items():
            per_command[cmd].append(child.seconds)
    while walls and (len(raw["cold_start_s"]) < MIN_PROBES or fits(raw["cold_start_s"])):
        probe()
    run_gate(ws, tally)

    factor = host.factor()
    print(f"  host kernel: median {statistics.median(host.kernels):.4f} s of {len(host.kernels)}, "
          f"reference {KERNEL_REF_S} s, so times are scaled by {factor:.4f}")
    values, samples = {}, {}
    for key, times in raw.items():
        if times:
            values[key] = statistics.median(times) * factor
            samples[key] = f"scaled median of {len(times)}; raw median {statistics.median(times):.4f} s"
            print(f"  {key} raw samples: {' '.join(f'{t:.3f}' for t in times)}")
    if walls:
        values["audio_s_per_s"] = w.audio_seconds / values["pipeline_s"]
        samples["audio_s_per_s"] = f"from pipeline_s; raw {w.audio_seconds / statistics.median(raw['pipeline_s']):.4f} s/s"
        values["peak_rss_mb"] = max(rss)
        samples["peak_rss_mb"] = f"max of {len(rss) * len(w.commands)} commands"
    for cmd, times in per_command.items():
        if times:
            print(f"  {cmd + '_s':<28} {statistics.median(times):12.4f} s      "
                  f"raw median of {len(times)} (cold command, not in the JSON line)")
    return values, samples


def machine_record() -> str:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = []
    for dist in ("numpy", "scipy"):
        try:
            versions.append(f"{dist}={metadata.version(dist)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{dist}=absent")
    return (f"nproc={len(os.sched_getaffinity(0))} cpu={model!r} "
            f"python={sys.version.split()[0]} {' '.join(versions)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace else "end_to_end"]
    w, env, tally = WORKLOADS[name], child_env(), Tally()
    print(f"bench: workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"bench: machine {machine_record()}")
    ws = fresh(WORK / f"{name}-seed{seed}-pid{os.getpid()}")
    try:
        if trace:
            setup(w, ws, seed, env, tally)
            values, samples = traced_metrics(w, ws, seed, env, tally, name), {}
        else:
            values, samples = end_to_end_metrics(w, ws, seed, seconds, env, tally)
    finally:
        shutil.rmtree(ws, ignore_errors=True)

    # a layer the workload does not exercise reads 0; every end-to-end
    # metric must have been measured
    metrics, missing = {}, []
    for m in wanted:
        value = values.get(m["name"], 0.0 if trace else math.nan)
        if not math.isfinite(value):
            missing.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:12.4f} {m['unit']:<6} {samples.get(m['name'], '')}")
    tally.op([f"no value for {', '.join(missing)}"] if missing else [], "metric completeness")
    print(f"  {'error_rate':<40} {tally.failed / tally.attempted:12.4f} ratio  "
          f"{tally.failed} of {tally.attempted} operations failed")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_reference() -> int:
    ws = fresh(WORK / f"reference-pid{os.getpid()}")
    try:
        values = gate_values(load_cli(), ws)
    finally:
        shutil.rmtree(ws, ignore_errors=True)
    blob = {"seed": GATE_SEED, "tolerance": GATE_TOL, "values": values}
    REFERENCE.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    print(f"bench: wrote {len(values)} reference values to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=44.0,
                        help="time budget of the timed phase of --trace 0; at least "
                             f"{MIN_REPS} chains and {MIN_PROBES} --help probes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"record the gate's reference values in {REFERENCE.name} and exit")
    args = parser.parse_args(argv)
    if not (SRC / "reseval" / "cli.py").is_file():
        print(f"bench: {SRC / 'reseval' / 'cli.py'} not found; run from a reseval checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    sys.exit(main())
