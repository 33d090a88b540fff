"""``solve_many``: the façade's batch path.

Fans a list of problems out over the shared process pool
(:func:`repro.jobs.map_jobs`) and caches results in the shared
content-addressed :class:`repro.jobs.ResultCache`: each (problem
fingerprint, result-affecting options) pair is computed once, and warm
re-runs — from any process, with any worker count — are pure cache
reads.  Error results (crash, stalled worker) are returned as
``Verdict.ERROR`` rows; the cache never stores them, so they are retried
on the next run.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from pathlib import Path
from typing import Callable, Sequence

from repro.api.codec import problem_fingerprint
from repro.api.facade import solve
from repro.api.options import Options, resolve_options
from repro.api.problems import Problem
from repro.api.result import Result, result_from_json, result_to_json
from repro.jobs import ResultCache, map_jobs

BATCH_SCHEMA = 1
"""Bump to invalidate every cached batch result (semantic change)."""

DEFAULT_TASK_TIMEOUT = 120.0
"""Default pool *stall* bound for the sharded path (seconds without any
task completing before the pool is declared wedged).  Independent of
``Options.timeout``, which budgets a single solve."""


def batch_cache_key(fingerprint: str, options: Options) -> str:
    """Content hash identifying one solve: the problem's
    :func:`~repro.api.problem_fingerprint` and the options that change
    its answer (:meth:`Options.cache_signature`)."""
    payload = json.dumps(
        {
            "schema": BATCH_SCHEMA,
            "op": "solve",
            "problem": fingerprint,
            "options": options.cache_signature(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cache_key_or_none(problem: Problem, options: Options) -> str | None:
    """The problem's cache key, or None when it has no fingerprint.

    A problem the codec cannot encode (an ``OrderedModule``, say) runs
    uncached, exactly as on the no-cache path.
    """
    try:
        return batch_cache_key(problem_fingerprint(problem), options)
    except Exception:
        return None


def _solve_worker(problem: Problem, options: Options) -> dict:
    """Process-pool worker: solve one problem, always return a JSON dict.

    Module-level (picklable); exceptions become ``error`` payloads so one
    crashing problem cannot abort the batch.
    """
    started = time.perf_counter()
    try:
        result = solve(problem, options=options)
    except Exception:
        return {
            "verdict": "error",
            "seconds": time.perf_counter() - started,
            "error": traceback.format_exc(limit=8),
        }
    return result_to_json(result)


def solve_many(
    problems: Sequence[Problem],
    options: Options | None = None,
    *,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    task_timeout: float | None = None,
    progress: Callable[[int, Result], None] | None = None,
    **overrides,
) -> list[Result]:
    """Solve every problem; return results in input order.

    ``workers`` is the process count (1 runs inline, in-process).  With
    a ``cache_dir``, results are content-addressed by
    :func:`batch_cache_key` (problem fingerprint plus the options that
    change an answer), so a warm re-run with any worker count is pure
    cache reads — cache hits carry ``detail["cached"] = True``.  A
    problem without a fingerprint runs uncached.

    Timeouts are two separate knobs:

    * ``task_timeout`` — the sharded path's *pool stall* bound: when no
      task completes for that long, every worker is considered wedged and
      the remaining tasks are recorded as ``Verdict.ERROR``.  Defaults to
      :data:`DEFAULT_TASK_TIMEOUT` — deliberately **not** to
      ``Options.timeout``, which is a per-solve budget: a tight 5 s
      per-problem budget must not kill an otherwise-healthy batch whose
      individual solves simply take 6 s each.
    * ``Options.timeout`` — the per-invocation budget each backend
      enforces where it can (the external ``dimacs:`` backends kill the
      solver process at the deadline).  In-process backends cannot
      preempt a running solve; neither can the inline (``workers=1``)
      path.

    ``progress`` contract: the callback fires exactly once per problem
    with ``(input index, result)`` — first for every cache hit during the
    upfront scan (in input order), then for each miss as its worker
    completes (in completion order, which is *not* input order).  The
    returned list is always in input order regardless.
    """
    opts = resolve_options(options, overrides)
    if (isinstance(workers, bool) or not isinstance(workers, int)
            or workers < 1):
        raise ValueError(
            f"workers must be an integer >= 1 (1 runs inline, N > 1 fans "
            f"out over a process pool), got {workers!r}"
        )
    if task_timeout is None:
        # Never fall back to opts.timeout: that is a *per-solve* budget,
        # and using it as the pool's stall bound would kill a healthy
        # batch whose solves are individually slower than it.
        task_timeout = DEFAULT_TASK_TIMEOUT

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: list[Result] = [None] * len(problems)  # type: ignore[list-item]
    keys = [_cache_key_or_none(problem, opts) if cache is not None else None
            for problem in problems]
    misses: list[int] = []
    for index, problem in enumerate(problems):
        hit = cache.get(keys[index]) if keys[index] is not None else None
        if hit is not None:
            result = result_from_json(hit)
            result.detail["cached"] = True
            results[index] = result
            if progress:
                progress(index, result)
        else:
            misses.append(index)

    def record(index: int, payload: dict) -> None:
        result = result_from_json(payload)
        results[index] = result
        if keys[index] is not None:
            cache.put(keys[index], payload)
        if progress:
            progress(index, result)

    def failure(index: int, error: str, seconds: float) -> dict:
        return {"verdict": "error", "seconds": seconds, "error": error}

    map_jobs(
        [(index, (problems[index], opts)) for index in misses],
        _solve_worker,
        record,
        failure,
        shards=workers,
        task_timeout=task_timeout,
    )
    return results
