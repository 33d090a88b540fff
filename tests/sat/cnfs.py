"""Test helpers shared by the solver tests: CNF constructors (pairwise
cardinality constraints, a long-watch-list chain) and a model loop."""

from __future__ import annotations

from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.sat.types import Model, Status


def add_at_most_one(cnf: CNF, lits) -> None:
    """Pairwise at-most-one constraint over ``lits``."""
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            cnf.add_clause([-lits[i], -lits[j]])


def add_exactly_one(cnf: CNF, lits) -> None:
    """Exactly-one constraint over ``lits``."""
    if not lits:
        raise ValueError("exactly-one over an empty literal list is "
                         "unsatisfiable")
    cnf.add_clause(list(lits))
    add_at_most_one(cnf, lits)


def chain_cnf(n_chain: int = 32, fanout: int = 80, pool: int = 12):
    """A CNF with long watch lists: every noise clause watching ``-c_i``
    has the blocker ``-g``, which is true under the assumption ``-g``."""
    cnf = CNF()
    g = cnf.new_var()
    chain = [cnf.new_var() for _ in range(n_chain)]
    xs = [cnf.new_var() for _ in range(pool)]
    cnf.add_clause([g, chain[0]])
    for a, b in zip(chain, chain[1:]):
        cnf.add_clause([-a, b])
    for i, c in enumerate(chain):
        for j in range(fanout):
            cnf.add_clause([-c, -g, xs[(i + j) % pool]])
    return cnf, g


def blocked_models(solver: Solver, num_vars: int) -> list[Model]:
    """Every model of a loaded solver, taken one at a time: after each
    model a clause over variables ``1..num_vars`` blocks it and the
    solver is asked again, until UNSAT."""
    models: list[Model] = []
    while solver.solve() is Status.SAT:
        model = solver.model()
        models.append(model)
        if not solver.add_clause([-v if model[v] else v
                                  for v in range(1, num_vars + 1)]):
            break
    return models
