"""Model enumeration on the solver: solve, add a blocking clause, re-solve.

The model loop the relational layer uses is
:meth:`repro.kodkod.engine.Session.iter_solutions`; these tests drive
:class:`~repro.sat.solver.Solver` through the same blocking-clause
re-solve directly and compare the models it yields with brute force.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from tests.sat.brute_force import brute_force_count
from tests.sat.cnfs import add_exactly_one, blocked_models


def all_models(cnf: CNF):
    """Every model of ``cnf``, one blocking clause at a time."""
    solver = Solver()
    if not solver.add_cnf(cnf):
        return []
    return blocked_models(solver, cnf.num_vars)


class TestEnumeration:
    def test_unsat_yields_nothing(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        cnf.add_clause([-v])
        assert all_models(cnf) == []

    def test_free_variables_enumerate_fully(self):
        cnf = CNF(3)  # no clauses: 8 assignments
        assert len(all_models(cnf)) == 8

    def test_exactly_one_has_n_models(self):
        cnf = CNF()
        lits = cnf.new_vars(5)
        add_exactly_one(cnf, lits)
        assert len(all_models(cnf)) == 5

    def test_models_are_distinct(self):
        cnf = CNF(4)
        cnf.add_clause([1, 2])
        seen = set()
        for model in all_models(cnf):
            key = tuple(model.as_literals())
            assert key not in seen
            seen.add(key)

    def test_every_model_satisfies(self):
        cnf = CNF(4)
        clauses = [[1, -2], [2, 3], [-3, 4]]
        cnf.extend(clauses)
        models = all_models(cnf)
        assert models
        for model in models:
            assert model.satisfies(clauses)

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_count_matches_brute_force(self, num_vars, data):
        num_clauses = data.draw(st.integers(min_value=0, max_value=10))
        cnf = CNF(num_vars)
        for _ in range(num_clauses):
            width = data.draw(st.integers(min_value=1, max_value=min(3, num_vars)))
            variables = data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=num_vars),
                    min_size=width,
                    max_size=width,
                    unique=True,
                )
            )
            signs = data.draw(st.lists(st.booleans(), min_size=width, max_size=width))
            cnf.add_clause([v if s else -v for v, s in zip(variables, signs)])
        assert len(all_models(cnf)) == brute_force_count(cnf)


class TestEnumerationAgainstBruteForce:
    """Seeded-random differential: the solver's blocking-clause
    enumeration must produce exactly the assignments a brute-force walk
    over all 2^n valuations accepts, on CNFs of up to 12 variables."""

    @staticmethod
    def _random_cnf(rng, num_vars):
        cnf = CNF(num_vars)
        for _ in range(rng.randint(0, 4 * num_vars)):
            width = rng.randint(1, min(3, num_vars))
            chosen = rng.sample(range(1, num_vars + 1), width)
            cnf.add_clause(
                [v if rng.random() < 0.5 else -v for v in chosen])
        return cnf

    @staticmethod
    def _brute_force_assignments(cnf):
        clauses = list(cnf.clauses())
        satisfying = set()
        for bits in itertools.product(
                (False, True), repeat=cnf.num_vars):
            values = dict(enumerate(bits, start=1))
            if all(any(values[abs(lit)] == (lit > 0) for lit in clause)
                   for clause in clauses):
                satisfying.add(bits)
        return satisfying

    @pytest.mark.parametrize("seed", range(20))
    def test_enumerated_assignments_match_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(4, 12)
        cnf = self._random_cnf(rng, num_vars)
        enumerated = {
            tuple(model[v] for v in range(1, num_vars + 1))
            for model in all_models(cnf)
        }
        assert enumerated == self._brute_force_assignments(cnf)

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_twelve_var_unconstrained_tail(self, seed):
        # Sparse CNFs at the 12-var ceiling: large model sets, so the
        # blocking-clause loop is exercised thousands of times.
        rng = random.Random(seed)
        cnf = CNF(12)
        for _ in range(6):
            chosen = rng.sample(range(1, 13), 3)
            cnf.add_clause(
                [v if rng.random() < 0.5 else -v for v in chosen])
        assert len(all_models(cnf)) == len(
            self._brute_force_assignments(cnf))
