"""Seeded-random differential tests for symmetry breaking.

Complements the hypothesis-based pipeline test with a deterministic,
seed-parametrized sweep (the in-repo twin of the campaign's ``symmetry``
oracle): for random relational problems, lex-leader symmetry breaking must
preserve the SAT/UNSAT verdict and may only *shrink* the model count.
"""

import pytest

from repro import api
from repro.campaign import ScenarioSpec, materialize
from repro.kodkod.evaluator import Evaluator
from repro.kodkod.symmetry import DEFAULT_SBP_LENGTH


def problem(seed, num_atoms=3, depth=2, max_edges=4):
    scenario = materialize(ScenarioSpec.make(
        "relational", seed, num_atoms=num_atoms, depth=depth,
        max_edges=max_edges))
    return scenario.formula, scenario.bounds


class TestSymmetryPreservesVerdict:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_verdict_with_and_without_sbp(self, seed):
        formula, bounds = problem(seed)
        with_sbp = api.solve(formula, bounds, symmetry=DEFAULT_SBP_LENGTH)
        without = api.solve(formula, bounds, symmetry=0)
        assert with_sbp.satisfiable == without.satisfiable

    @pytest.mark.parametrize("seed", range(40, 55))
    def test_same_verdict_on_four_atoms(self, seed):
        formula, bounds = problem(seed, num_atoms=4)
        with_sbp = api.solve(formula, bounds, symmetry=DEFAULT_SBP_LENGTH)
        without = api.solve(formula, bounds, symmetry=0)
        assert with_sbp.satisfiable == without.satisfiable

    @pytest.mark.parametrize("seed", range(15))
    def test_sbp_model_is_a_real_model(self, seed):
        formula, bounds = problem(seed)
        solution = api.solve(formula, bounds, symmetry=DEFAULT_SBP_LENGTH)
        if solution.satisfiable:
            assert Evaluator(solution.instance).check(formula)


class TestSymmetryOnlyPrunes:
    @pytest.mark.parametrize("seed", range(20))
    def test_canonical_count_never_exceeds_full_count(self, seed):
        formula, bounds = problem(seed, depth=1)
        full = len(api.enumerate(formula, bounds, symmetry=0).instances)
        canonical = len(api.enumerate(
            formula, bounds, symmetry=DEFAULT_SBP_LENGTH).instances)
        assert canonical <= full
        # Orbits are never emptied: some model survives iff any existed.
        assert (canonical > 0) == (full > 0)
