"""Tests for the brute-force reference the solver tests compare against."""

import pytest

from repro.sat.cnf import CNF
from tests.sat.brute_force import brute_force_count, brute_force_satisfiable


class TestBruteForce:
    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            brute_force_satisfiable(CNF(30))

    def test_simple_sat(self):
        cnf = CNF(2)
        cnf.extend([[1, 2]])
        assert brute_force_satisfiable(cnf)

    def test_simple_unsat(self):
        cnf = CNF(1)
        cnf.extend([[1], [-1]])
        assert not brute_force_satisfiable(cnf)
