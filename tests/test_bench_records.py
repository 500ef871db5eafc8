"""The committed benchmark records (BENCH_<n>.json) agree with their own runs.

Each record holds, per workload, alternated parent/change pairs of
`bench/run.py --trace 0` results and a summary of them; a summary that
does not follow from its pairs would misstate the claim it backs.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(re.search(r"\d+", p.name).group()))
WORKLOADS = ("corpus", "sweep")
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_records_exist():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=[p.name for p in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_both_workloads_present(record):
    assert set(WORKLOADS) <= set(record["workloads"])


def test_every_run_is_correct(record):
    for name in WORKLOADS:
        for pair in record["workloads"][name]["pairs"]:
            for side in ("parent", "change"):
                assert pair[side]["correct"] is True, (name, pair["seed"], side)
                assert pair[side]["failed"] == 0, (name, pair["seed"], side)


def test_summaries_recount_from_pairs(record):
    for name in WORKLOADS:
        pairs = record["workloads"][name]["pairs"]
        for metric, summary in record["workloads"][name]["summary"].items():
            parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
            change = [p["change"]["metrics"][metric]["value"] for p in pairs]
            sign = 1 if BETTER[metric] == "higher" else -1
            better = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            assert summary["pairs"] == len(pairs), (name, metric)
            assert summary["parent_median"] == statistics.median(parent), (name, metric)
            assert summary["change_median"] == statistics.median(change), (name, metric)
            assert summary["change_better_pairs"] == better, (name, metric)
