"""Scenario campaigns: sharded randomized verification sweeps.

The campaign subsystem turns the verification stack into its own oracle:

* :mod:`repro.campaign.specs` — seeded :class:`ScenarioSpec` generators
  that materialize façade problems for every workload family plus random
  relational problems, with grid/random sweep expansion;
* :mod:`repro.campaign.oracles` — the one registry of differential
  oracles, pairing each fast path (symmetry breaking, incremental
  sessions, the reduced memoized explorer, the engines) with a slow
  reference path; the fuzz loop runs the same oracles;
* :mod:`repro.campaign.runner` — a sharded runner with per-task
  timeouts over the shared :mod:`repro.jobs` pool and result cache.

``python -m repro.campaign`` runs a default randomized sweep and writes a
``BENCH_campaign.json`` artifact; see the README's campaign section.
"""

from repro.campaign.oracles import ORACLES, Oracle, OracleOutcome
from repro.campaign.runner import (
    CACHE_SCHEMA,
    CampaignReport,
    CampaignResult,
    CampaignTask,
    build_default_campaign,
    cache_key,
    execute_task,
    run_campaign,
)
from repro.campaign.specs import (
    FAMILIES,
    ScenarioSpec,
    expand,
    grid_sweep,
    materialize,
    random_sweep,
    register_family,
    scenario_fingerprint,
)

__all__ = [
    "CACHE_SCHEMA",
    "FAMILIES",
    "ORACLES",
    "CampaignReport",
    "CampaignResult",
    "CampaignTask",
    "Oracle",
    "OracleOutcome",
    "ScenarioSpec",
    "build_default_campaign",
    "cache_key",
    "execute_task",
    "expand",
    "grid_sweep",
    "materialize",
    "random_sweep",
    "register_family",
    "run_campaign",
    "scenario_fingerprint",
]
