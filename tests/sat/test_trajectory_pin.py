"""Search-trajectory pins for the solver.

Each case pins the exact ``Solver.stats`` dict and a digest of every
model found.  Propagation order, learned clauses, clause-database
reduction and arena compaction all feed these numbers, so a change that
moves any of them changes the search trajectory.  Re-record the values
only for a deliberate change to the search.
"""

import functools
import hashlib
import itertools

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.sat.types import Status
from tests.sat.cnfs import chain_cnf


class _CountingSolver(Solver):
    """Counts arena compactions, which ``stats`` does not record."""

    compactions = 0

    def _compact_arena(self):
        self.compactions += 1
        super()._compact_arena()


def _digest(models) -> str:
    text = ";".join(
        "".join("1" if model.values[v] else "0" for v in sorted(model.values))
        for model in models)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pigeonhole_fanout_cnf(holes: int = 5, fanout: int = 70):
    """A pigeonhole core whose literals fan out into guarded noise
    clauses: a conflict-heavy search over long watch lists."""
    cnf = CNF()
    v = {}
    for p in range(holes + 1):
        for h in range(holes):
            v[p, h] = cnf.new_var()
    guard = cnf.new_var()
    for p in range(holes + 1):
        cnf.add_clause([v[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                cnf.add_clause([-v[p1, h], -v[p2, h]])
    for var in [v[p, h] for p in range(holes + 1) for h in range(holes)]:
        mirror = cnf.new_var()
        cnf.add_clause([var, mirror])
        for _ in range(fanout):
            cnf.add_clause([-mirror, -guard, cnf.new_var()])
    return cnf, guard


def queens_cnf(n: int) -> CNF:
    """n-queens: one queen per row, no two on a line or diagonal."""
    cnf = CNF()
    cell = {(r, c): cnf.new_var() for r in range(n) for c in range(n)}
    for r in range(n):
        cnf.add_clause([cell[r, c] for c in range(n)])
    for (r1, c1), (r2, c2) in itertools.combinations(cell, 2):
        if r1 == r2 or c1 == c2 or abs(r1 - r2) == abs(c1 - c2):
            cnf.add_clause([-cell[r1, c1], -cell[r2, c2]])
    return cnf


@functools.lru_cache(maxsize=None)
def consensus_cnf() -> CNF:
    from repro.model import build_dynamic

    return build_dynamic(num_pnodes=3, num_vnodes=2, max_value=3,
                         edges=[(0, 1), (1, 2)]).translate_check().cnf


def run_chain():
    """Five warm assumption solves over long blocker-true watch lists."""
    cnf, g = chain_cnf()
    solver = Solver()
    assert solver.add_cnf(cnf)
    models = []
    for _ in range(5):
        assert solver.solve([-g]) is Status.SAT
        models.append(solver.model())
    return solver, models


def run_pigeonhole():
    cnf, guard = pigeonhole_fanout_cnf()
    solver = Solver()
    assert solver.add_cnf(cnf)
    assert solver.solve([-guard]) is Status.UNSAT
    return solver, []


def run_enumeration():
    """All 92 eight-queens solutions by blocking clauses under a tiny
    learned-clause budget: drives ``reduce_db`` and arena compaction."""
    cnf = queens_cnf(8)
    solver = _CountingSolver(max_learned=5)
    assert solver.add_cnf(cnf)
    models = []
    while solver.solve() is Status.SAT:
        model = solver.model()
        models.append(model)
        blocking = [-v if model.values[v] else v
                    for v in range(1, cnf.num_vars + 1)]
        if not solver.add_clause(blocking):
            break
    assert len(models) == 92
    assert solver.compactions > 0
    return solver, models


def run_consensus():
    """The dynamic consensus check of a three-agent line network."""
    solver = Solver()
    assert solver.add_cnf(consensus_cnf())
    assert solver.solve() is Status.UNSAT
    return solver, []


RUNS = {
    "chain": run_chain,
    "pigeonhole": run_pigeonhole,
    "enumeration": run_enumeration,
    "consensus": run_consensus,
}

_NO_MODELS = _digest([])

EXPECTED = {
    "chain": (
        {"conflicts": 0, "decisions": 60, "propagations": 225,
         "restarts": 0, "learned": 0, "learned_deleted": 0,
         "db_reductions": 0},
        "1e38d397711bb1d7"),
    "pigeonhole": (
        {"conflicts": 141, "decisions": 187, "propagations": 2642,
         "restarts": 1, "learned": 140, "learned_deleted": 0,
         "db_reductions": 0},
        _NO_MODELS),
    "enumeration": (
        {"conflicts": 1520, "decisions": 2842, "propagations": 30818,
         "restarts": 1, "learned": 1519, "learned_deleted": 1188,
         "db_reductions": 15},
        "0f792661baa8bf26"),
    "consensus": (
        {"conflicts": 538, "decisions": 3978, "propagations": 106102,
         "restarts": 4, "learned": 537, "learned_deleted": 0,
         "db_reductions": 0},
        _NO_MODELS),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_trajectory_pinned(case):
    solver, models = RUNS[case]()
    stats, digest = EXPECTED[case]
    assert solver.stats == stats
    assert _digest(models) == digest
