"""``python -m repro.campaign`` — run a randomized verification sweep.

Builds the default campaign (every family, every oracle), runs it over
the requested number of shards with the on-disk result cache, prints the
per-oracle/per-family summary table, writes the ``BENCH_campaign.json``
artifact and exits 1 on any oracle disagreement or task error (2 on an
invalid argument, before any work).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import render_campaign_table, write_campaign_json
from repro.campaign.runner import build_default_campaign, run_campaign
from repro.jobs import DEFAULT_CACHE_DIR


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="sharded randomized differential-verification sweep",
    )
    parser.add_argument("--instances", type=int, default=120,
                        help="minimum number of (spec, oracle) tasks "
                             "(default: %(default)s)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes; <=1 runs inline "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of the sweep (default: %(default)s)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="stall timeout in seconds: if no task "
                             "completes for this long, unfinished tasks "
                             "are recorded as errors and workers killed "
                             "(default: %(default)s)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="result cache directory (default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely")
    parser.add_argument("--json", default="BENCH_campaign.json",
                        help="path of the JSON artifact "
                             "(default: %(default)s)")
    parser.add_argument("--profile", nargs="?", metavar="PATH",
                        const="BENCH_campaign.profile.txt", default=None,
                        help="run the sweep inline under cProfile and dump "
                             "the top-25 cumulative table to PATH "
                             "(default: %(const)s); forces --shards 1 so "
                             "worker CPU is actually captured")
    args = parser.parse_args(argv)

    try:
        tasks = build_default_campaign(instances=args.instances,
                                       base_seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    def sweep():
        return run_campaign(
            tasks,
            shards=1 if args.profile else args.shards,
            task_timeout=args.timeout,
            cache_dir=None if args.no_cache else args.cache_dir,
        )

    if args.profile:
        from repro.analysis.profiling import run_profiled

        if args.shards > 1:
            print("profiling runs inline: --shards collapsed to 1 so the "
                  "profiler sees the task CPU", file=sys.stderr)
        report = run_profiled(sweep, args.profile)
        print(f"profile: {args.profile}")
    else:
        report = sweep()
    print(render_campaign_table(
        report.results,
        title=(f"campaign sweep: {report.total} tasks, "
               f"{report.shards} shard(s), "
               f"{report.cache_hits} cache hit(s), "
               f"{report.wall_seconds:.2f}s wall"),
    ))
    write_campaign_json(report.results, args.json,
                        wall_seconds=report.wall_seconds,
                        shards=report.shards)
    print(f"artifact: {args.json}")
    for bad in report.disagreements:
        print(f"DISAGREEMENT: {bad.family}#{bad.seed} / {bad.oracle}: "
              f"{bad.detail}", file=sys.stderr)
    for err in report.errors:
        print(f"ERROR: {err.family}#{err.seed} / {err.oracle}: {err.error}",
              file=sys.stderr)
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
