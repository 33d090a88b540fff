"""Shrinker behaviour: minimality, monotonicity, idempotence, determinism."""

import pytest

from repro.api.codec import problem_fingerprint
from repro.api.problems import FormulaProblem
from repro.fuzz import codec
from repro.fuzz.faults import fault_matches
from repro.fuzz.generators import FuzzSpec, generate
from repro.fuzz.shrink import problem_size, shrink
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.universe import Universe


def _conjunction_fails(problem):
    return fault_matches("conjunction", problem)


def _protocol_fails(problem):
    return fault_matches("protocol-pair", problem)


class TestProblemSize:
    def test_formula_size_counts_nodes_and_free_tuples(self):
        universe = Universe(["a", "b"])
        bounds = Bounds(universe)
        rel = ast.Relation("r", 1)
        bounds.bound(rel, universe.empty(1), universe.all_tuples(1))
        problem = FormulaProblem(ast.Some(rel), bounds)
        # Some + rel = 2 nodes; two free tuples.
        assert problem_size(problem) == 4

    def test_protocol_size_counts_agents_and_items(self):
        problem = generate(FuzzSpec.make("protocol", 1, size=2))
        assert problem_size(problem) == (
            len(problem.network.agents()) + len(problem.items))

    def test_module_size_is_lifted_size(self):
        from repro.fuzz.runner import lift_module

        problem = generate(FuzzSpec.make("module", 1, size=3))
        assert problem_size(problem) == problem_size(lift_module(problem))


class TestFormulaShrinking:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_shrinks_conjunction_to_at_most_five_nodes(self, seed):
        problem = generate(FuzzSpec.make("formula", seed, size=5))
        if not _conjunction_fails(problem):
            problem = FormulaProblem(
                ast.And([problem.formula, ast.TrueF()]), problem.bounds)
        result = shrink(problem, _conjunction_fails)
        assert _conjunction_fails(result.problem)
        assert result.size_after <= 5
        assert not result.exhausted

    def test_sizes_decrease_strictly_monotonically(self):
        problem = generate(FuzzSpec.make("formula", 7, size=5))
        if not _conjunction_fails(problem):
            problem = FormulaProblem(
                ast.And([problem.formula, ast.TrueF()]), problem.bounds)
        result = shrink(problem, _conjunction_fails)
        sizes = [result.size_before] + [size for _, size in result.steps]
        assert sizes == sorted(sizes, reverse=True)
        assert len(set(sizes)) == len(sizes)

    def test_shrinking_is_idempotent(self):
        problem = generate(FuzzSpec.make("formula", 7, size=5))
        if not _conjunction_fails(problem):
            problem = FormulaProblem(
                ast.And([problem.formula, ast.TrueF()]), problem.bounds)
        once = shrink(problem, _conjunction_fails)
        twice = shrink(once.problem, _conjunction_fails)
        assert twice.steps == []
        assert (problem_fingerprint(twice.problem)
                == problem_fingerprint(once.problem))

    def test_shrinking_is_deterministic_across_runs(self):
        problem = generate(FuzzSpec.make("formula", 9, size=5))
        if not _conjunction_fails(problem):
            problem = FormulaProblem(
                ast.And([problem.formula, ast.TrueF()]), problem.bounds)
        a = shrink(problem, _conjunction_fails)
        b = shrink(problem, _conjunction_fails)
        assert [s for s, _ in a.steps] == [s for s, _ in b.steps]
        assert (problem_fingerprint(a.problem)
                == problem_fingerprint(b.problem))

    def test_minimal_failing_input_is_returned_unchanged(self):
        problem = codec.problem_from_json({
            "kind": "formula",
            "formula": {"f": "and", "parts": [{"f": "true"}, {"f": "true"}]},
            "bounds": {"universe": ["a"], "relations": []},
        })
        result = shrink(problem, _conjunction_fails)
        assert result.steps == []
        assert result.size_after == result.size_before == 3

    def test_check_budget_is_respected(self):
        problem = generate(FuzzSpec.make("formula", 7, size=5))
        if not _conjunction_fails(problem):
            problem = FormulaProblem(
                ast.And([problem.formula, ast.TrueF()]), problem.bounds)
        result = shrink(problem, _conjunction_fails, max_checks=1)
        assert result.checks <= 1
        assert result.exhausted or result.steps == []

    def test_crashing_predicate_counts_as_not_failing(self):
        problem = generate(FuzzSpec.make("formula", 2, size=4))

        calls = []

        def explosive(candidate):
            calls.append(candidate)
            raise RuntimeError("oracle crashed on the candidate")

        result = shrink(problem, explosive)
        # Every candidate crashed, so nothing was accepted.
        assert result.steps == []
        assert calls  # the predicate genuinely ran


class TestProtocolShrinking:
    @pytest.mark.parametrize("seed", [1, 5])
    def test_shrinks_protocol_to_at_most_five(self, seed):
        problem = generate(FuzzSpec.make("protocol", seed, size=5))
        result = shrink(problem, _protocol_fails)
        assert _protocol_fails(result.problem)
        assert result.size_after <= 5
        assert len(result.problem.network.agents()) == 2

    def test_module_problems_are_lifted_before_shrinking(self):
        problem = generate(FuzzSpec.make("module", 5, size=3))
        result = shrink(problem, _conjunction_fails)
        assert isinstance(result.problem, FormulaProblem)
        if _conjunction_fails(result.problem):
            assert result.size_after <= result.size_before
