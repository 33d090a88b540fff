"""The fuzz loop: oracle gating, caching, fault catching, artifacts."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.codec import problem_fingerprint
from repro.api import solve as api_solve
from repro.fuzz import codec
from repro.fuzz.generators import FuzzSpec, generate
from repro.campaign import ORACLES
from repro.fuzz.runner import (
    FuzzCheck,
    execute_fuzz_check,
    fuzz_cache_key,
    lift_module,
    oracles_for_problem,
    replay_corpus,
    run_fuzz,
    run_oracle,
)
from repro.kodkod import ast
from repro.kodkod.boolcircuit import BooleanFactory
from repro.kodkod.bounds import Bounds
from repro.kodkod.universe import Universe

SRC = Path(__file__).resolve().parents[2] / "src"

FAULT_BUDGET = 30
"""Checks in the seed-0 formula sweeps armed with the conjunction fault:
enough to reach the stream's first conjunction (``formula#5s1``) with
every applicable oracle run on each input before it."""


def _formula_problem(num_atoms=5):
    """A formula problem with ``2 * num_atoms`` free tuples."""
    from repro.api.problems import FormulaProblem

    universe = Universe([f"a{i}" for i in range(num_atoms)])
    bounds = Bounds(universe)
    r = ast.Relation("r", 1)
    s = ast.Relation("s", 1)
    bounds.bound(r, universe.empty(1), universe.all_tuples(1))
    bounds.bound(s, universe.empty(1), universe.all_tuples(1))
    return FormulaProblem(ast.Some(r), bounds)


class TestOracleSelection:
    def test_formula_oracles(self):
        problem = generate(FuzzSpec.make("formula", 0, size=2))
        names = oracles_for_problem(problem)
        assert "encodings" in names
        assert "symmetry" in names
        assert "explorer" not in names

    def test_enumeration_oracle_is_gated_by_free_tuples(self):
        small = _formula_problem(num_atoms=3)   # 6 free tuples
        large = _formula_problem(num_atoms=6)   # 12 free tuples
        assert "enumeration" in oracles_for_problem(small)
        assert "enumeration" not in oracles_for_problem(large)

    def test_evaluator_oracle_is_gated_by_free_tuples(self):
        small = _formula_problem(num_atoms=5)   # 10 free tuples
        large = _formula_problem(num_atoms=6)   # 12 free tuples
        assert "evaluator" in oracles_for_problem(small)
        assert "evaluator" not in oracles_for_problem(large)

    def test_explorer_oracle_is_gated_by_size(self):
        for seed in range(10):
            problem = generate(FuzzSpec.make("protocol", seed, size=5))
            names = oracles_for_problem(problem)
            assert "engines" in names
            if "explorer" in names:
                assert len(problem.network.agents()) <= 3
                assert len(problem.items) <= 2

    def test_modules_route_to_formula_oracles(self):
        problem = generate(FuzzSpec.make("module", 0, size=2))
        assert "encodings" in oracles_for_problem(problem)

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_oracle("haruspex", _formula_problem())

    def test_kind_mismatch_rejected(self):
        problem = generate(FuzzSpec.make("protocol", 0, size=2))
        with pytest.raises(ValueError, match="checks FormulaProblem"):
            run_oracle("encodings", problem)


class TestLiftModule:
    def test_lifted_run_problem_matches_facade_verdict(self):
        for seed in range(6):
            problem = generate(FuzzSpec.make("module", seed, size=3))
            facade = api_solve(problem)
            lifted = api_solve(lift_module(problem))
            assert facade.satisfiable == lifted.satisfiable, seed

    def test_every_oracle_agrees_on_lifted_modules(self):
        for seed in range(4):
            problem = generate(FuzzSpec.make("module", seed, size=2))
            for name in oracles_for_problem(problem):
                outcome = run_oracle(name, problem, seed=seed)
                assert outcome.agree, (seed, name, outcome.detail)


class TestRunFuzz:
    def test_small_sweep_is_clean_and_exact_budget(self, tmp_path):
        report = run_fuzz(seed=0, budget=25, shards=1,
                          cache_dir=tmp_path / "cache")
        assert report.total == 25
        assert report.clean
        assert report.generations >= 1
        assert report.coverage_points > 0
        assert report.corpus_size > 0

    def test_warm_rerun_is_all_cache_hits_with_identical_rows(self, tmp_path):
        cold = run_fuzz(seed=3, budget=20, shards=1,
                        cache_dir=tmp_path / "cache")
        warm = run_fuzz(seed=3, budget=20, shards=1,
                        cache_dir=tmp_path / "cache")
        assert warm.cache_hits == warm.total == 20
        assert warm.executed == 0
        assert ([(c.label, c.oracle, c.agree) for c in cold.checks]
                == [(c.label, c.oracle, c.agree) for c in warm.checks])

    def test_sharded_run_matches_inline_run(self, tmp_path):
        """The input stream must be shard-independent, including shard
        counts large enough that a shard-coupled generation size would
        change corpus-evolution timing (guards the constant batch)."""
        inline = run_fuzz(seed=5, budget=40, shards=1, cache_dir=None)
        sharded = run_fuzz(seed=5, budget=40, shards=4, cache_dir=None)
        assert ([(c.label, c.oracle, c.agree) for c in inline.checks]
                == [(c.label, c.oracle, c.agree) for c in sharded.checks])

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget must be positive"):
            run_fuzz(budget=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            run_fuzz(budget=1, kinds=("sonnets",))

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            run_fuzz(budget=1, inject="gremlin")


class TestFaultInjection:
    def test_injected_fault_is_caught_and_shrunk_small(self, tmp_path):
        """The subsystem's acceptance gate: an armed fault is caught and
        the reproducer shrinks to <= 5 nodes/agents."""
        report = run_fuzz(seed=0, budget=FAULT_BUDGET, shards=1,
                          cache_dir=None, kinds=("formula",),
                          inject="conjunction")
        assert report.disagreements
        for entry in report.disagreements:
            assert entry.fault == "conjunction"
            assert entry.size_after <= 5
            rebuilt = codec.problem_from_json(entry.shrunk)
            assert not run_oracle(entry.oracle, rebuilt,
                                  fault="conjunction").agree

    def test_fault_catch_is_reproducible_across_two_runs(self):
        def signature(report):
            return [
                (d.label, d.oracle, d.size_after,
                 json.dumps(d.shrunk, sort_keys=True))
                for d in report.disagreements
            ]

        first = run_fuzz(seed=0, budget=FAULT_BUDGET, shards=1,
                         cache_dir=None, kinds=("formula",),
                         inject="conjunction")
        second = run_fuzz(seed=0, budget=FAULT_BUDGET, shards=1,
                          cache_dir=None, kinds=("formula",),
                          inject="conjunction")
        assert signature(first) == signature(second)
        assert first.disagreements

    def test_protocol_fault_shrinks_to_two_agents(self):
        report = run_fuzz(seed=1, budget=16, shards=1, cache_dir=None,
                          kinds=("protocol",), inject="protocol-pair")
        assert report.disagreements
        for entry in report.disagreements:
            assert entry.size_after <= 5
            rebuilt = codec.problem_from_json(entry.shrunk)
            assert len(rebuilt.network.agents()) == 2

    def test_cache_is_bypassed_while_fault_is_armed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_fuzz(seed=2, budget=10, shards=1, cache_dir=cache_dir,
                 inject="conjunction")
        assert not cache_dir.exists()

    def test_artifacts_written_for_each_failure(self, tmp_path):
        arts = tmp_path / "arts"
        report = run_fuzz(seed=0, budget=FAULT_BUDGET, shards=1,
                          cache_dir=None, kinds=("formula",),
                          inject="conjunction", artifacts_dir=arts)
        assert report.disagreements
        for entry in report.disagreements:
            assert entry.repro_path is not None
            assert Path(entry.repro_path).is_file()
        # One script per failure: labels are not unique, so the stems
        # carry a content hash to avoid clobbering.
        paths = {entry.repro_path for entry in report.disagreements}
        assert len(paths) == len(report.disagreements)
        corpus_files = list(arts.glob("*.json"))
        assert corpus_files

    def test_emitted_repro_script_reproduces_in_subprocess(self, tmp_path):
        arts = tmp_path / "arts"
        report = run_fuzz(seed=0, budget=FAULT_BUDGET, shards=1,
                          cache_dir=None, kinds=("formula",),
                          inject="conjunction", artifacts_dir=arts)
        script = Path(report.disagreements[0].repro_path)
        proc = subprocess.run(
            [sys.executable, str(script)],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "agree: False" in proc.stdout

    def test_replay_on_missing_directory_fails_loudly(self, tmp_path):
        """An empty replay must not let the CI corpus gate go green."""
        with pytest.raises(ValueError, match="no corpus entries"):
            replay_corpus(tmp_path / "no-such-corpus")

    def test_replayed_artifacts_reproduce_with_fault_and_pass_without(
            self, tmp_path):
        arts = tmp_path / "arts"
        run_fuzz(seed=0, budget=FAULT_BUDGET, shards=1, cache_dir=None,
                 kinds=("formula",), inject="conjunction",
                 artifacts_dir=arts)
        with_fault = replay_corpus(arts, inject="conjunction")
        assert with_fault.disagreements
        without = replay_corpus(arts)
        assert without.clean


def _dropping_and(monkeypatch):
    """Patch n-ary ANDs to drop their last child: a circuit bug both CNF
    encodings share."""
    and_ = BooleanFactory.and_

    def dropping_and(factory, children):
        children = list(children)
        if len(children) >= 3:
            children = children[:-1]
        return and_(factory, children)

    monkeypatch.setattr(BooleanFactory, "and_", dropping_and)


class TestTranslationReference:
    def test_evaluator_catches_a_bug_shared_by_both_encodings(
            self, monkeypatch):
        """An n-ary AND that drops its last child corrupts the circuit
        before either CNF encoding sees it, so the oracles that compare
        two translator paths agree; the ground evaluator does not use
        the translator and disagrees.  On this input the bug loses
        models, so every model the pipeline does return still passes
        the goal check."""
        problem = generate(FuzzSpec.make("formula", 11, size=1))
        assert "evaluator" in oracles_for_problem(problem)
        assert run_oracle("evaluator", problem).agree
        _dropping_and(monkeypatch)
        outcome = run_oracle("evaluator", problem)
        assert not outcome.agree
        assert outcome.detail["only_ground"] > 0
        assert run_oracle("encodings", problem).agree
        assert run_oracle("symmetry", problem).agree

    def test_goal_check_catches_a_bug_that_invents_models(
            self, monkeypatch):
        """On this input the same bug yields models that do not satisfy
        the formula: the check every relational answer passes raises
        before the evaluator oracle can compare model sets."""
        problem = generate(FuzzSpec.make("formula", 0, size=1))
        assert run_oracle("evaluator", problem).agree
        _dropping_and(monkeypatch)
        with pytest.raises(AssertionError,
                           match="does not satisfy the goal formula"):
            run_oracle("evaluator", problem)


class TestCrashHandling:
    def test_oracle_crash_is_recorded_not_raised(self):
        def detonate(problem, seed, params):
            raise RuntimeError("kaboom")

        original = ORACLES["encodings"]
        ORACLES["encodings"] = dataclasses.replace(original, run=detonate)
        try:
            report = run_fuzz(seed=0, budget=12, shards=1, cache_dir=None,
                              kinds=("formula",))
        finally:
            ORACLES["encodings"] = original
        assert not report.clean
        assert report.errors
        assert any("kaboom" in (c.error or "") for c in report.errors)
        # Crashing inputs are shrunk too (predicate: same exception head).
        crash_entries = [d for d in report.disagreements
                         if d.error is not None]
        assert crash_entries

    def test_execute_fuzz_check_captures_bad_tasks(self):
        payload = execute_fuzz_check({
            "label": "bad", "kind": "formula",
            "payload": {"problem": {"kind": "nonsense"}},
            "oracle": "encodings", "seed": 0, "fault": None,
        })
        assert payload["error"] is not None
        row = FuzzCheck.from_json(payload)
        assert not row.ok


class TestCacheKeys:
    def test_key_varies_with_oracle_seed_and_payload(self):
        task = {"payload": {"spec": FuzzSpec.make("formula", 0).as_dict()},
                "oracle": "encodings", "seed": 0}
        assert fuzz_cache_key(task) == fuzz_cache_key(dict(task))
        assert fuzz_cache_key({**task, "oracle": "symmetry"}) \
            != fuzz_cache_key(task)
        assert fuzz_cache_key({**task, "seed": 1}) != fuzz_cache_key(task)
        other = {**task,
                 "payload": {"spec": FuzzSpec.make("formula", 1).as_dict()}}
        assert fuzz_cache_key(other) != fuzz_cache_key(task)


class TestFuzzCheckRoundTrip:
    def test_json_round_trip(self):
        row = FuzzCheck(label="x", kind="formula", oracle="encodings",
                        agree=True, detail={"n": 1}, coverage=("a", "b"),
                        seconds=0.5)
        back = FuzzCheck.from_json(row.to_json())
        assert back == row
