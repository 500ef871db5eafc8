"""Outside-in tracer for the reseval library.

The tracer wraps public functions of reseval's modules from outside the
program and records one span per call: name, start, end, parent span and
run id.  ``from .x import f`` copies the name ``f`` into every importing
module, so each function is replaced at every reseval module attribute
that refers to it (``reseval.cli.oracle_suppress`` as well as
``reseval.suppressor.oracle_suppress``).  Spans stay in memory until the
caller writes them out with :func:`write_jsonl`.

Only the standard library is used here: importing this module does not
import reseval, and :meth:`Tracer.install` patches whichever reseval
modules are already imported.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _path_bytes(position: int, keyword: str):
    """Counter: size in bytes of the file named by a path argument."""

    def count(args, kwargs, result) -> dict:
        path = args[position] if len(args) > position else kwargs[keyword]
        return {"bytes": os.path.getsize(path)}

    return count


def _report_frames(args, kwargs, result) -> dict:
    return {"frames": len(result.labels)}


PACKAGE = "reseval"

# (span name, module under reseval, attribute path, extra counter)
TARGETS = (
    ("cli.simulate", "cli", "cmd_simulate", None),
    ("cli.suppress", "cli", "cmd_suppress", None),
    ("cli.evaluate", "cli", "cmd_evaluate", None),
    ("cli.sweep", "cli", "cmd_sweep", None),
    ("cli.correlate", "cli", "cmd_correlate", None),
    ("simulate.generate_scene", "simulate", "generate_scene", None),
    ("simulate.synth_rir", "simulate", "synth_rir", None),
    ("simulate.mix_at_ser_snr", "simulate", "mix_at_ser_snr", None),
    ("simulate.simulate_aec", "simulate", "simulate_aec", None),
    ("simulate.save_scene", "simulate", "save_scene", None),
    ("suppressor.oracle_suppress", "suppressor", "oracle_suppress", None),
    ("suppressor.suppression_gains", "suppressor", "suppression_gains", None),
    ("suppressor.frame_gains", "suppressor", "frame_gains", None),
    ("framing.stft", "framing", "stft", None),
    ("framing.istft", "framing", "istft", None),
    ("activity.classify", "activity", "classify", None),
    ("metrics.evaluate_scene", "metrics", "evaluate_scene", _report_frames),
    ("metrics.MetricReport.write_csv", "metrics", "MetricReport.write_csv", _path_bytes(1, "path")),
    ("audio.load_wav", "audio", "load_wav", _path_bytes(0, "path")),
    ("audio.save_wav", "audio", "save_wav", _path_bytes(1, "path")),
    ("stats.ScoreTable.from_csv", "stats", "ScoreTable.from_csv", None),
    ("stats.correlate_table", "stats", "correlate_table", None),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def busy(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers while a traced run is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._run = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        self._run, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, run: int) -> None:
        """Wrap every target; spans recorded until uninstall() carry this run id."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._run = run
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self.missing = []
        for name, module_name, path, counter in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
            elif isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
            elif outer:
                self._patch(owner, attr, self._wrap(raw, name, counter))
            else:
                wrapper = self._wrap(raw, name, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run_spans(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]


def _child_busy(spans: list[Span]) -> dict[int, float]:
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.busy
    return covered


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s and summed extra counts.

    Self time is busy time minus the time covered by direct child spans;
    spans nest strictly because the program is single-threaded.
    """
    covered = _child_busy(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        agg = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += span.busy
        agg["self_s"] += span.busy - covered[span.id]
        for key, value in span.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


def exact_counts(summary: dict[str, dict[str, float]]) -> dict[str, dict[str, int]]:
    """The parts of a summary that must repeat exactly between runs."""
    return {name: {k: v for k, v in agg.items() if not k.endswith("_s")}
            for name, agg in sorted(summary.items())}


def self_check(spans: list[Span], expected: set[str]) -> list[str]:
    """Problems with one traced run: unexercised layers, overfull parents."""
    problems = []
    seen = {s.name for s in spans}
    for name in sorted(expected - seen):
        problems.append(f"span {name} recorded zero calls")
    by_id = {s.id: s for s in spans}
    for span_id, child_total in _child_busy(spans).items():
        parent = by_id[span_id]
        if child_total > parent.busy + 1e-9:
            problems.append(
                f"children of {parent.name} (span {span_id}) cover {child_total:.6f} s "
                f"of its {parent.busy:.6f} s"
            )
    return problems


def write_jsonl(path, spans: list[Span]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"run": s.run, "id": s.id, "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end, **s.counts}) + "\n")
