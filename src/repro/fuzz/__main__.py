"""``python -m repro.fuzz`` — run a coverage-guided differential fuzz sweep.

Generates seeded random problems for every kind, checks each through the
applicable differential oracles (sharded over a process pool, cached),
shrinks any failure into a minimal reproducer, prints the per-oracle
summary table, writes the ``BENCH_fuzz.json`` artifact and exits 1 on
any disagreement or error (2 on an invalid argument, before any work).
``--replay DIR`` re-checks a corpus directory instead of generating new
inputs.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import render_fuzz_table, write_fuzz_json
from repro.fuzz.generators import KINDS, MAX_SIZE
from repro.fuzz.runner import (
    DEFAULT_ARTIFACTS_DIR,
    _check_sweep,
    _corpus_entries,
    replay_corpus,
    run_fuzz,
)
from repro.jobs import DEFAULT_CACHE_DIR


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="coverage-guided differential fuzzing with shrinking",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of the sweep (default: %(default)s)")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of oracle checks to spend "
                             "(default: %(default)s)")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker processes; <=1 runs inline "
                             "(default: %(default)s)")
    parser.add_argument("--max-size", type=int, default=4,
                        choices=range(1, MAX_SIZE + 1),
                        help="largest input size knob (default: %(default)s)")
    parser.add_argument("--kinds", default=",".join(KINDS),
                        help="comma-separated problem kinds "
                             "(default: %(default)s)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="stall timeout in seconds on the sharded path "
                             "(default: %(default)s)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="result cache directory (default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache entirely")
    parser.add_argument("--artifacts", default=DEFAULT_ARTIFACTS_DIR,
                        help="directory for repro scripts and shrunk corpus "
                             "entries (default: %(default)s)")
    parser.add_argument("--json", default="BENCH_fuzz.json",
                        help="path of the JSON artifact "
                             "(default: %(default)s)")
    parser.add_argument("--inject", metavar="FAULT",
                        help="test-only: arm a registered fault so matching "
                             "inputs disagree (see repro.fuzz.faults)")
    parser.add_argument("--replay", metavar="DIR",
                        help="re-check a corpus directory instead of "
                             "generating new inputs")
    parser.add_argument("--profile", nargs="?", metavar="PATH",
                        const="BENCH_fuzz.profile.txt", default=None,
                        help="run the sweep inline under cProfile and dump "
                             "the top-25 cumulative table to PATH "
                             "(default: %(const)s); forces --shards 1 so "
                             "worker CPU is actually captured")
    args = parser.parse_args(argv)
    kinds = tuple(k for k in args.kinds.split(",") if k)
    try:
        if args.replay:
            _corpus_entries(args.replay, args.inject)
        else:
            _check_sweep(args.budget, kinds, args.inject)
    except ValueError as exc:
        parser.error(str(exc))

    profiled = None
    if args.profile:
        from repro.analysis.profiling import run_profiled

        if args.shards > 1 and not args.replay:
            print("profiling runs inline: --shards collapsed to 1 so the "
                  "profiler sees the task CPU", file=sys.stderr)

        def profiled(fn):
            result = run_profiled(fn, args.profile)
            print(f"profile: {args.profile}")
            return result

    if args.replay:
        replay = lambda: replay_corpus(args.replay, inject=args.inject)
        report = profiled(replay) if profiled else replay()
        title = (f"corpus replay: {report.total} checks over "
                 f"{report.corpus_size} entries, "
                 f"{report.wall_seconds:.2f}s wall")
    else:
        def sweep():
            return run_fuzz(
                seed=args.seed,
                budget=args.budget,
                kinds=kinds,
                max_size=args.max_size,
                shards=1 if args.profile else args.shards,
                task_timeout=args.timeout,
                cache_dir=None if args.no_cache else args.cache_dir,
                artifacts_dir=args.artifacts,
                inject=args.inject,
            )

        report = profiled(sweep) if profiled else sweep()
        title = (f"fuzz sweep: {report.total} checks, "
                 f"{report.generations} generation(s), "
                 f"{report.coverage_points} coverage point(s), "
                 f"{report.corpus_size} corpus entries, "
                 f"{report.cache_hits} cache hit(s), "
                 f"{report.wall_seconds:.2f}s wall")

    print(render_fuzz_table(report.checks, title=title))
    write_fuzz_json(report, args.json)
    print(f"artifact: {args.json}")
    for entry in report.disagreements:
        what = "CRASH" if entry.error is not None else "DISAGREEMENT"
        where = f" repro: {entry.repro_path}" if entry.repro_path else ""
        print(
            f"{what}: {entry.label} / {entry.oracle}: shrunk "
            f"{entry.size_before} -> {entry.size_after}{where}",
            file=sys.stderr,
        )
    for err in report.errors:
        head = (err.error or "").strip().splitlines()
        print(f"ERROR: {err.label} / {err.oracle}: "
              f"{head[-1] if head else 'unknown'}", file=sys.stderr)
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
