"""Differential-oracle tests: every registered oracle agrees on seeded
random scenarios, and the registry/applicability plumbing works."""

import dataclasses

import pytest

from repro.api import Verdict, solve
from repro.campaign import (
    ORACLES,
    OracleOutcome,
    ScenarioSpec,
    execute_task,
    materialize,
)
from repro.campaign.specs import random_sweep
from repro.fuzz import run_oracle

EXPECTED_ORACLES = {"encodings", "symmetry", "enumeration", "evaluator",
                    "explorer", "engines", "delta"}


def _applicable(spec):
    problem = materialize(spec)
    return {name for name, oracle in ORACLES.items()
            if oracle.applicable(problem)}


def _run(name, spec):
    """Run a registry oracle the way the campaign's execute_task does."""
    return ORACLES[name].run(materialize(spec), spec.seed, dict(spec.params))


class TestRegistry:
    def test_all_oracles_registered(self):
        assert EXPECTED_ORACLES <= set(ORACLES)

    def test_relational_oracles(self):
        spec = ScenarioSpec.make("relational", 0)
        # "external" additionally appears when REPRO_EXTERNAL_SOLVER is
        # set in the environment (the nightly CI job does this).
        assert _applicable(spec) - {"external"} == {
            "encodings", "symmetry", "enumeration", "evaluator", "delta"}

    def test_auction_oracles(self):
        for family in ("mca", "dispatch", "uav", "vnet"):
            spec = ScenarioSpec.make(family, 0)
            assert _applicable(spec) == {"explorer", "engines", "delta"}

    def test_applicability(self):
        assert ORACLES["symmetry"].applicable(
            materialize(ScenarioSpec.make("relational", 0)))
        assert not ORACLES["symmetry"].applicable(
            materialize(ScenarioSpec.make("mca", 0)))

    def test_campaign_and_fuzz_share_one_registry(self, monkeypatch):
        """Replacing a registry entry reaches the campaign and the fuzz."""

        def disagree(problem, seed, params):
            return OracleOutcome("encodings", False, {"stub": True})

        monkeypatch.setitem(ORACLES, "encodings", dataclasses.replace(
            ORACLES["encodings"], run=disagree))
        spec = ScenarioSpec.make("relational", 1, num_atoms=3)
        payload = execute_task(spec.as_dict(), "encodings")
        assert payload["error"] is None
        assert payload["agree"] is False
        assert payload["detail"] == {"stub": True}
        outcome = run_oracle("encodings", materialize(spec))
        assert not outcome.agree
        assert outcome.detail == {"stub": True}


class TestRelationalOracles:
    @pytest.mark.parametrize("seed", range(12))
    def test_symmetry_agrees(self, seed):
        spec = ScenarioSpec.make("relational", seed, num_atoms=3, depth=2,
                                 max_edges=4)
        outcome = _run("symmetry", spec)
        assert outcome.agree, outcome.detail

    @pytest.mark.parametrize("seed", range(8))
    def test_enumeration_agrees(self, seed):
        spec = ScenarioSpec.make("relational", seed, num_atoms=3, depth=1,
                                 max_edges=3)
        outcome = _run("enumeration", spec)
        assert outcome.agree, outcome.detail
        assert not outcome.detail["truncated"]
        assert (outcome.detail["incremental_models"]
                == outcome.detail["fresh_solver_models"])

    @pytest.mark.parametrize("seed", range(8))
    def test_encodings_agree(self, seed):
        """PG, Tseitin and the DIMACS round trip reach one verdict, and it
        is the checked verdict the façade answers."""
        spec = ScenarioSpec.make("relational", seed, num_atoms=3, depth=2,
                                 max_edges=4)
        outcome = _run("encodings", spec)
        assert outcome.agree, outcome.detail
        verdict = solve(materialize(spec)).verdict
        assert outcome.detail["sat_pg"] == (verdict is Verdict.SAT)

    def test_external_oracle_registers_and_agrees(self):
        # Wire the oracle against the in-tree DIMACS CLI so the external
        # round trip is exercised without any third-party binary.
        import os
        import sys

        from repro.campaign.oracles import register_external_oracle

        already = "external" in ORACLES
        command = f"{sys.executable} -m repro.sat.dimacs solve"
        register_external_oracle(command)
        try:
            spec = ScenarioSpec.make("relational", 3, num_atoms=3, depth=1,
                                     max_edges=3)
            env_path = os.environ.get("PYTHONPATH", "")
            src = str(
                __import__("pathlib").Path(__file__).resolve()
                .parents[2] / "src")
            os.environ["PYTHONPATH"] = (
                src + (os.pathsep + env_path if env_path else ""))
            try:
                outcome = _run("external", spec)
            finally:
                if env_path:
                    os.environ["PYTHONPATH"] = env_path
                else:
                    os.environ.pop("PYTHONPATH", None)
            assert outcome.agree, outcome.detail
            assert outcome.detail["external_models"] == \
                outcome.detail["pure_models"]
        finally:
            if not already:
                ORACLES.pop("external", None)

    @pytest.mark.parametrize("prefix", ["", "dimacs:"],
                             ids=["bare", "dimacs-name"])
    def test_encodings_round_trip_the_external_solver(self, monkeypatch,
                                                      prefix):
        """``REPRO_EXTERNAL_SOLVER``, a bare command or a ``dimacs:``
        name, adds the external arm to the encodings oracle."""
        import os
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = os.environ.get("PYTHONPATH")
        monkeypatch.setenv("PYTHONPATH", (
            src + os.pathsep + existing if existing else src))
        monkeypatch.setenv("REPRO_EXTERNAL_SOLVER",
                           f"{prefix}{sys.executable} -m repro.sat.dimacs "
                           f"solve")
        spec = ScenarioSpec.make("relational", 3, num_atoms=3, depth=2,
                                 max_edges=4)
        outcome = _run("encodings", spec)
        assert outcome.agree, outcome.detail
        assert outcome.detail["sat_external"] == outcome.detail["sat_pg"]

    @pytest.mark.parametrize("seed", range(8))
    def test_evaluator_agrees(self, seed):
        spec = ScenarioSpec.make("relational", seed, num_atoms=3, depth=2,
                                 max_edges=4)
        outcome = _run("evaluator", spec)
        assert outcome.agree, outcome.detail
        assert outcome.detail["only_sat"] == 0
        assert outcome.detail["only_ground"] == 0


class TestAuctionOracles:
    @pytest.mark.parametrize("spec", random_sweep(
        "mca", 3, base_seed=42, num_agents=(3, 5), num_items=(3, 5),
        target=(1, 2)) + random_sweep(
        "dispatch", 2, base_seed=43, num_units=(3, 5), num_blocks=(4, 6),
        capacity_blocks=(1, 2)) + random_sweep(
        "uav", 2, base_seed=44, num_uavs=(3, 5), num_tasks=(3, 5),
        capacity=(1, 2)) + random_sweep(
        "vnet", 2, base_seed=45, grid_width=(2, 3), grid_height=(2, 2),
        request_size=(2, 3)),
        ids=lambda s: s.label())
    def test_engines_converge_everywhere(self, spec):
        outcome = _run("engines", spec)
        assert outcome.agree, outcome.detail
        assert outcome.detail["converged_synchronous"]
        assert outcome.detail["consensus_async_random"]

    @pytest.mark.parametrize("spec", random_sweep(
        "mca", 3, base_seed=46, num_agents=(2, 3), num_items=(1, 2),
        target=(1, 2)) + random_sweep(
        "dispatch", 2, base_seed=47, num_units=(2, 3), num_blocks=(1, 2),
        capacity_blocks=(1, 1)),
        ids=lambda s: s.label())
    def test_explorer_memo_matches_plain_dfs(self, spec):
        outcome = _run("explorer", spec)
        assert outcome.agree, outcome.detail
        assert (outcome.detail["memoized_worst_rounds"]
                == outcome.detail["plain_worst_rounds"])
