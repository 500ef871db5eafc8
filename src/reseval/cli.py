"""Command-line front end: the parser and one cmd_<name> per subcommand.

Subcommands: simulate, suppress, evaluate, sweep, correlate.  Every
command is deterministic given its inputs and seed.  The batch commands
live in reseval.batch, which each cmd_<name> imports when it runs, so
--help and correlate compile only this module and start without numpy.
build_parser looks each cmd_<name> up on this module when it is called,
where a tracer or a test may have replaced it.  A process enters through
run(), which calls main() with --jobs defaulting to the CPUs the process
may use, and exits; a program that calls main() itself gets a default
of 1, so no command forks it.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .common import check_out_file, write_json


def cmd_simulate(args) -> int:
    from .batch import run_simulate

    return run_simulate(args)


def cmd_suppress(args) -> int:
    from .batch import run_suppress

    return run_suppress(args)


def cmd_evaluate(args) -> int:
    from .batch import run_evaluate

    return run_evaluate(args)


def cmd_sweep(args) -> int:
    from .batch import run_sweep

    return run_sweep(args)


def cmd_correlate(args) -> int:
    if args.out:
        check_out_file(args.out, [args.table])
    from .stats import ScoreTable, correlate_table

    table = ScoreTable.from_csv(args.table)
    results = correlate_table(table, args.metric_col, args.score_col, args.group_by)
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
        write_json(args.out, payload)
    return 0


def usable_cpus() -> int:
    """The number of CPUs this process may run on, and no more than a cgroup CPU quota grants."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    return cpus if quota is None else max(1, min(cpus, math.ceil(quota)))


def cgroup_cpu_quota(proc_cgroup: str = "/proc/self/cgroup", mount: str = "/sys/fs/cgroup") -> float | None:
    """The CPUs' worth of time a cgroup quota grants this process, or None where none is set.

    A container limited to 2 CPUs on a 64-CPU host may still run on all 64;
    its quota is cgroup v2's cpu.max ("<quota> <period>", or "max ...") or
    v1's cpu.cfs_quota_us over cpu.cfs_period_us (-1 for none).  The
    process's cgroup and each cgroup above it are read; the least quota wins.
    """
    try:
        with open(proc_cgroup) as f:
            lines = f.read().splitlines()
    except OSError:
        return None
    quotas = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            base, files = mount, ("cpu.max",)
        elif "cpu" in controllers.split(","):
            base, files = os.path.join(mount, "cpu"), ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):
            try:
                fields = []
                for name in files:
                    with open(os.path.join(base, *parts[:depth], name)) as f:
                        fields += f.read().split()
                quota, period = fields[0], fields[1]
                if quota not in ("max", "-1"):
                    quotas.append(int(quota) / int(period))
            except (OSError, ValueError, IndexError):
                continue
    return min(quotas, default=None)


def build_parser(default_jobs: int = 1) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reseval",
        description="Residual-echo suppression evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags that several commands take, each stated once
    inputs = argparse.ArgumentParser(add_help=False)
    g = inputs.add_mutually_exclusive_group(required=True)
    g.add_argument("--manifest", help="manifest JSON")
    g.add_argument("--scenes", help="directory of scene subdirectories")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=default_jobs,
                      help="parallel workers (default %(default)s; the CPUs the process may use when "
                           "reseval runs as a command, 1 when a program calls reseval.cli.main)")

    p = sub.add_parser("simulate", parents=[jobs], help="generate synthetic scenes from a spec file")
    p.add_argument("--spec", required=True, help="JSON scene spec (fields may be lists, cycled per scene)")
    p.add_argument("--out", required=True, help="output directory for scene subdirectories")
    p.add_argument("--count", type=int, default=1, help="number of scenes")
    p.add_argument("--seed", type=int, default=0, help="base seed; scene i gets seed + i (default 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("suppress", parents=[inputs, jobs],
                       help="run the reference suppressor over a batch")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--beta", type=float, default=1.0, help="over-suppression factor (>= 1)")
    g.add_argument("--alpha", type=float, default=None, help="tradeoff weight mapped to beta")
    p.add_argument("--out", help="output directory (required with --manifest; "
                                 "default with --scenes: shat.wav in each scene directory)")
    p.set_defaults(func=cmd_suppress)

    p = sub.add_parser("evaluate", parents=[inputs, jobs],
                       help="compute metric reports over a batch")
    p.add_argument("--out", required=True, help="output directory for frame CSVs and report.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[inputs, jobs], help="tradeoff table over an alpha sweep")
    p.add_argument("--alphas", required=True, help="comma-separated ascending alphas")
    p.add_argument("--out", required=True, help="output CSV table")
    p.add_argument("--group-by", dest="group_by", help="tag/sidecar field to group rows by")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("correlate", help="PCC/SRCC between two score-table columns")
    p.add_argument("--table", required=True, help="CSV score table")
    p.add_argument("--metric-col", required=True, dest="metric_col")
    p.add_argument("--score-col", required=True, dest="score_col")
    p.add_argument("--group-by", dest="group_by", help="column to group by")
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None, *, default_jobs: int = 1) -> int:
    """Run the command of argv (default sys.argv[1:]) and return its exit status.

    default_jobs is the default of --jobs.  It is 1, so a command run by
    a program that calls main() stays in that program's process, which may
    hold threads, and forks no worker.
    """
    parser = build_parser(default_jobs)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # str() of an OSError names the file
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point of `reseval` and `python -m reseval.cli`: main(), then exit.

    --jobs defaults to the CPUs this process may use (usable_cpus()); the
    batch runner starts no more workers than the batch has items.

    Everything alive at exit is frozen first, so the collections at
    interpreter shutdown skip it: with numpy loaded, exit took 6 ms
    instead of 25 ms (Python 3.11, 2-vCPU Xeon).  Atexit handlers and the
    stream flushes still run; finalizers of objects left in cycles do not,
    and every file a command writes is closed before main() returns.  The
    freeze is in a finally, so --help, a usage error and a traceback exit
    the same way.  main() leaves the collector as it is, since tests and
    the benchmark call it in process.
    """
    try:
        code = main(default_jobs=usable_cpus())
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
