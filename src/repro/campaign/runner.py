"""Sharded campaign runner: specs × oracles over a process pool, cached.

The runner takes a task list of ``(ScenarioSpec, oracle name)`` pairs,
resolves what it can from the on-disk result cache, fans the misses out
over :func:`repro.jobs.map_jobs` (``shards`` worker processes) with a
per-task stall timeout, and aggregates everything into structured
:class:`CampaignResult` records.

A task's :class:`~repro.jobs.ResultCache` key is a sha256 over the
canonical JSON of ``{schema, spec, oracle}``:

* ``schema`` — :data:`CACHE_SCHEMA` bumps whenever result semantics
  change, invalidating every older entry at once;
* ``spec`` — the spec's canonical dict (family, seed, sorted params), the
  full identity of the generated instance (generators are deterministic
  functions of the spec; see ``scenario_fingerprint``);
* ``oracle`` — the oracle name (oracle tuning parameters travel inside
  the spec's params, so they are part of the key automatically).
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.campaign.oracles import ORACLES
from repro.campaign.specs import (
    ScenarioSpec,
    grid_sweep,
    materialize,
    random_sweep,
)
from repro.jobs import DEFAULT_CACHE_DIR, ResultCache, map_jobs

CACHE_SCHEMA = 1
"""Bump to invalidate every cached result (semantic change in any oracle)."""

CampaignTask = tuple[ScenarioSpec, str]


@dataclass
class CampaignResult:
    """One (spec, oracle) verdict, as recorded in the JSON artifact."""

    family: str
    seed: int
    params: dict
    spec_hash: str
    oracle: str
    agree: bool
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0
    cached: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the oracle ran to completion and both paths agreed."""
        return self.agree and self.error is None

    def to_json(self) -> dict:
        """JSON-able form (cache entry and artifact row)."""
        return {
            "family": self.family,
            "seed": self.seed,
            "params": self.params,
            "spec_hash": self.spec_hash,
            "oracle": self.oracle,
            "agree": self.agree,
            "detail": self.detail,
            "seconds": self.seconds,
            "cached": self.cached,
            "error": self.error,
        }

    @staticmethod
    def from_json(data: Mapping) -> "CampaignResult":
        """Inverse of :meth:`to_json`."""
        return CampaignResult(
            family=data["family"],
            seed=data["seed"],
            params=dict(data["params"]),
            spec_hash=data["spec_hash"],
            oracle=data["oracle"],
            agree=data["agree"],
            detail=dict(data.get("detail", {})),
            seconds=data.get("seconds", 0.0),
            cached=data.get("cached", False),
            error=data.get("error"),
        )


@dataclass
class CampaignReport:
    """Aggregate outcome of one campaign run."""

    results: list[CampaignResult]
    wall_seconds: float
    cache_hits: int
    executed: int
    shards: int

    @property
    def total(self) -> int:
        """Number of (spec, oracle) tasks covered."""
        return len(self.results)

    @property
    def disagreements(self) -> list[CampaignResult]:
        """Results whose fast and reference paths diverged."""
        return [r for r in self.results if not r.agree and r.error is None]

    @property
    def errors(self) -> list[CampaignResult]:
        """Results that crashed or timed out instead of completing."""
        return [r for r in self.results if r.error is not None]

    @property
    def clean(self) -> bool:
        """True when every task completed and every oracle agreed."""
        return not self.disagreements and not self.errors


def cache_key(spec: ScenarioSpec, oracle_name: str) -> str:
    """Content hash identifying one (spec, oracle) computation."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA, "spec": spec.as_dict(), "oracle": oracle_name},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _result_payload(spec: ScenarioSpec, oracle_name: str, *,
                    agree: bool, detail: dict, seconds: float,
                    error: str | None) -> dict:
    """The one place the result-record schema is spelled out.

    Every producer (worker success/failure, coordinator timeout and
    pool-death branches) goes through here, so the dict always matches
    what :meth:`CampaignResult.from_json` expects.
    """
    return {
        "family": spec.family,
        "seed": spec.seed,
        "params": dict(spec.params),
        "spec_hash": spec.content_hash(),
        "oracle": oracle_name,
        "agree": agree,
        "detail": detail,
        "seconds": seconds,
        "cached": False,
        "error": error,
    }


def execute_task(spec_dict: dict, oracle_name: str) -> dict:
    """Run one oracle on one spec; always returns a JSON-able result dict.

    Module-level (picklable) so it can serve as the process-pool worker.
    Exceptions are captured into the ``error`` field rather than raised:
    one crashing scenario must not abort a ten-thousand-task sweep.
    """
    spec = ScenarioSpec.from_dict(spec_dict)
    started = time.perf_counter()
    try:
        oracle = ORACLES[oracle_name]
        problem = materialize(spec)
        if not oracle.applicable(problem):
            raise ValueError(
                f"oracle {oracle_name!r} does not apply to family "
                f"{spec.family!r} (a {type(problem).__name__})"
            )
        outcome = oracle.run(problem, spec.seed, dict(spec.params))
    except Exception:
        return _result_payload(
            spec, oracle_name, agree=False, detail={},
            seconds=time.perf_counter() - started,
            error=traceback.format_exc(limit=8),
        )
    return _result_payload(
        spec, oracle_name, agree=outcome.agree, detail=outcome.detail,
        seconds=time.perf_counter() - started, error=None,
    )


def run_campaign(
    tasks: Sequence[CampaignTask],
    shards: int = 1,
    task_timeout: float = 120.0,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    progress: Callable[[CampaignResult], None] | None = None,
) -> CampaignReport:
    """Run every (spec, oracle) task; return the aggregated report.

    ``shards`` is the worker-process count (``<= 1`` runs inline, which is
    also the fallback for environments without working multiprocessing).
    ``cache_dir=None`` disables the result cache; errors are never
    cached, so they are retried on the next run.  ``task_timeout`` is a
    *stall* bound on the sharded path: whenever no task completes for that
    long, every worker must be stuck, so all unfinished tasks are recorded
    as error results and the workers are killed — a few hung scenarios
    cost one timeout window in total, not one window each.  The inline
    path cannot preempt a running oracle and ignores the timeout.
    """
    started = time.perf_counter()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: list[CampaignResult] = [None] * len(tasks)  # type: ignore[list-item]
    misses: list[tuple[int, CampaignTask]] = []
    cache_hits = 0
    for index, (spec, oracle_name) in enumerate(tasks):
        hit = (cache.get(cache_key(spec, oracle_name))
               if cache is not None else None)
        if hit is not None:
            result = CampaignResult.from_json(hit)
            result.cached = True
            results[index] = result
            cache_hits += 1
            if progress:
                progress(result)
        else:
            misses.append((index, (spec, oracle_name)))

    def record(index: int, payload: dict) -> None:
        result = CampaignResult.from_json(payload)
        results[index] = result
        if cache is not None:
            spec, oracle_name = tasks[index]
            cache.put(cache_key(spec, oracle_name), payload)
        if progress:
            progress(result)

    def failure(index: int, error: str, seconds: float) -> dict:
        spec, oracle_name = tasks[index]
        return _result_payload(spec, oracle_name, agree=False, detail={},
                               seconds=seconds, error=error)

    map_jobs(
        [(index, (spec.as_dict(), oracle_name))
         for index, (spec, oracle_name) in misses],
        execute_task,
        record,
        failure,
        shards=shards,
        task_timeout=task_timeout,
    )
    return CampaignReport(
        results=list(results),
        wall_seconds=time.perf_counter() - started,
        cache_hits=cache_hits,
        executed=len(misses),
        shards=max(1, shards),
    )


# ----------------------------------------------------------------------
# Default campaign construction
# ----------------------------------------------------------------------


def build_default_campaign(instances: int = 120,
                           base_seed: int = 0) -> list[CampaignTask]:
    """A balanced randomized sweep across all families and oracles.

    Produces at least ``instances`` (spec, oracle) tasks: relational specs
    feed the three kodkod-level oracles, auction specs feed the engine
    oracle, and deliberately small auction specs feed the (factorially
    exploding) explorer oracle.  Deterministic in ``base_seed``.
    """
    if instances < 1:
        raise ValueError("instances must be positive")
    tasks: list[CampaignTask] = []
    # Weights chosen so each oracle gets meaningful coverage per 12 tasks.
    relational = random_sweep(
        "relational", max(1, instances // 4), base_seed=base_seed,
        num_atoms=(3, 4), depth=(1, 2), max_edges=(0, 4),
    )
    relational_oracles = ["symmetry", "evaluator", "delta"]
    if "external" in ORACLES:
        # Registered only when REPRO_EXTERNAL_SOLVER names a real binary
        # (see repro.campaign.oracles); ride the same spec sweep.
        relational_oracles.append("external")
    for spec in relational:
        for oracle_name in relational_oracles:
            tasks.append((spec, oracle_name))
    # Enumeration rebuilds a fresh solver per model, so it gets its own
    # sweep over 3-atom universes (<= 2^10 models) to keep shards brisk.
    for spec in random_sweep(
            "relational", max(1, instances // 4), base_seed=base_seed + 8,
            num_atoms=(3, 3), depth=(1, 2), max_edges=(0, 3)):
        tasks.append((spec, "enumeration"))
    per_family = max(1, instances // 12)
    engine_specs = (
        random_sweep("mca", per_family, base_seed=base_seed + 1,
                     num_agents=(3, 6), num_items=(3, 7), target=(1, 3))
        + random_sweep("dispatch", per_family, base_seed=base_seed + 2,
                       num_units=(3, 6), num_blocks=(4, 8),
                       capacity_blocks=(1, 3))
        + random_sweep("uav", per_family, base_seed=base_seed + 3,
                       num_uavs=(3, 6), num_tasks=(3, 7), capacity=(1, 3))
        + random_sweep("vnet", per_family, base_seed=base_seed + 4,
                       grid_width=(2, 3), grid_height=(2, 3),
                       request_size=(2, 4))
    )
    for spec in engine_specs:
        tasks.append((spec, "engines"))
    explorer_specs = (
        random_sweep("mca", per_family, base_seed=base_seed + 5,
                     num_agents=(2, 3), num_items=(1, 2), target=(1, 2))
        + random_sweep("dispatch", per_family, base_seed=base_seed + 6,
                       num_units=(2, 3), num_blocks=(1, 2),
                       capacity_blocks=(1, 1))
        + random_sweep("uav", per_family, base_seed=base_seed + 7,
                       num_uavs=(2, 3), num_tasks=(1, 2), capacity=(1, 1))
    )
    for spec in explorer_specs:
        tasks.append((spec, "explorer"))
    # Delta verification over protocols re-runs the explorer twice per
    # task, so its auction specs stay as small as the explorer's; vnet
    # additionally caps the round budget through spec params (read via
    # ``spec.param`` by the oracle; ``explore_paths`` bounds only the
    # ``explorer`` oracle's plain reference).
    delta_specs = (
        random_sweep("mca", per_family, base_seed=base_seed + 9,
                     num_agents=(2, 3), num_items=(1, 2), target=(1, 2))
        + random_sweep("dispatch", per_family, base_seed=base_seed + 10,
                       num_units=(2, 3), num_blocks=(1, 2),
                       capacity_blocks=(1, 1))
        + random_sweep("uav", per_family, base_seed=base_seed + 11,
                       num_uavs=(2, 3), num_tasks=(1, 2), capacity=(1, 1))
        + random_sweep("vnet", per_family, base_seed=base_seed + 12,
                       grid_width=(2, 2), grid_height=(2, 2),
                       request_size=(2, 2), explore_rounds=(6, 6),
                       explore_paths=(400, 400))
    )
    for spec in delta_specs:
        tasks.append((spec, "delta"))
    # Top up with extra relational specs until the requested size is hit.
    extra_seed = base_seed + 1000
    while len(tasks) < instances:
        spec = random_sweep("relational", 1, base_seed=extra_seed,
                            num_atoms=(3, 4), depth=(1, 2),
                            max_edges=(0, 4))[0]
        tasks.append((spec, "symmetry"))
        extra_seed += 1
    return tasks


__all__ = [
    "CACHE_SCHEMA",
    "CampaignReport",
    "CampaignResult",
    "CampaignTask",
    "build_default_campaign",
    "cache_key",
    "execute_task",
    "grid_sweep",
    "random_sweep",
    "run_campaign",
]
