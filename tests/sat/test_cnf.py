"""Unit tests for the CNF container and the cardinality test helpers."""

import itertools

import pytest

from repro.sat.cnf import CNF
from repro.sat.types import Model

from tests.sat.cnfs import add_at_most_one, add_exactly_one


def all_models(cnf: CNF):
    """Enumerate all full assignments satisfying the CNF (test helper)."""
    clauses = list(cnf.clauses())
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        model = Model({i + 1: bit for i, bit in enumerate(bits)})
        if model.satisfies(clauses):
            yield model


class TestCNFBasics:
    def test_new_var_sequence(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2

    def test_new_vars_bulk(self):
        cnf = CNF()
        assert cnf.new_vars(3) == [1, 2, 3]

    def test_add_clause_grows_vars(self):
        cnf = CNF()
        cnf.add_clause([5, -7])
        assert cnf.num_vars == 7

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1, 0])

    def test_negative_initial_vars_rejected(self):
        with pytest.raises(ValueError):
            CNF(-1)

    def test_len_and_iteration(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        cnf.add_clause([-1])
        assert len(cnf) == 2
        assert list(cnf) == [(1, 2), (-1,)]

    def test_extend(self):
        cnf = CNF()
        cnf.extend([[1], [2, 3]])
        assert cnf.num_clauses == 2

    def test_copy_is_independent(self):
        cnf = CNF()
        cnf.add_clause([1])
        dup = cnf.copy()
        dup.add_clause([2])
        assert cnf.num_clauses == 1
        assert dup.num_clauses == 2


class TestCardinality:
    def test_at_most_one(self):
        cnf = CNF()
        lits = cnf.new_vars(4)
        add_at_most_one(cnf, lits)
        for model in all_models(cnf):
            assert sum(model.values[v] for v in lits) <= 1

    def test_exactly_one_count(self):
        cnf = CNF()
        lits = cnf.new_vars(4)
        add_exactly_one(cnf, lits)
        models = list(all_models(cnf))
        assert len(models) == 4
        for model in models:
            assert sum(model.values[v] for v in lits) == 1

    def test_exactly_one_empty_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            add_exactly_one(cnf, [])
