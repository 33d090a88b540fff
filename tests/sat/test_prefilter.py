"""The vector kernel's blocker prefilter against a direct scan.

``Solver._propagate`` visits only the positions ``VectorKernel.unblocked``
returns, so those must be exactly the entries whose blocker is not true,
in list order; ``None`` hands the whole list to the loop.
"""

import pytest

from repro.sat.cnf import CNF
from repro.sat.kernel import (
    _FILTER_PATIENCE,
    _SCALAR_MODE_SCANS,
    MIN_VECTOR_PAIRS,
)
from repro.sat.solver import Solver
from repro.sat.types import Status
from tests.sat.test_kernel import chain_cnf

pytest.importorskip("numpy")


def not_true(solver, watch_list):
    return [i for i in range(0, len(watch_list), 2)
            if solver._value(watch_list[i + 1]) != 1]


def test_positions_are_exactly_the_entries_with_a_non_true_blocker():
    cnf, g = chain_cnf()
    solver = Solver(kernel="vector")
    assert solver.add_cnf(cnf)
    assert solver.solve([-g]) is Status.SAT
    filtered = 0
    for e, watch_list in enumerate(solver._watches):
        positions = solver._kernel.unblocked(e, watch_list)
        if len(watch_list) // 2 < MIN_VECTOR_PAIRS:
            assert positions is None
        else:
            assert positions == not_true(solver, watch_list)
            filtered += 1
    assert filtered >= 32  # one long noise list per chain variable


def test_a_list_that_does_not_prune_is_scanned_in_full_for_a_while():
    cnf = CNF()
    a = cnf.new_var()
    bs = [cnf.new_var() for _ in range(MIN_VECTOR_PAIRS)]
    for b in bs:
        cnf.add_clause([-a, b, cnf.new_var()])
    solver = Solver(kernel="vector")
    assert solver.add_cnf(cnf)
    assert solver.solve([-b for b in bs]) is Status.SAT
    kernel = solver._kernel
    e = 2 * a + 1  # the list watching -a; its blockers are the false b's
    watch_list = solver._watches[e]
    assert len(watch_list) // 2 == MIN_VECTOR_PAIRS
    everything = list(range(0, len(watch_list), 2))
    for _ in range(_FILTER_PATIENCE):
        assert kernel.unblocked(e, watch_list) == everything
    for _ in range(_SCALAR_MODE_SCANS):
        assert kernel.unblocked(e, watch_list) is None
    assert kernel.unblocked(e, watch_list) == everything
