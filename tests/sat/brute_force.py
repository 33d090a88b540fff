"""Brute-force reference answers for small CNFs (test oracles).

Exponential in the number of variables; the solver, kernel and
enumeration tests compare against these on formulas of at most 24
variables.
"""

from __future__ import annotations

from typing import Iterator

from repro.sat.cnf import CNF


def _satisfying(cnf: CNF) -> Iterator[int]:
    """Yield every full assignment (bit ``v - 1`` = variable ``v``) that
    satisfies ``cnf``."""
    num_vars = cnf.num_vars
    if num_vars > 24:
        raise ValueError("brute force limited to 24 variables")
    clauses = [tuple(cl) for cl in cnf.clauses()]
    for bits in range(1 << num_vars):
        if all(any((lit > 0) == bool(bits >> (abs(lit) - 1) & 1)
                   for lit in clause)
               for clause in clauses):
            yield bits


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Whether any full assignment satisfies ``cnf``."""
    return next(_satisfying(cnf), None) is not None


def brute_force_count(cnf: CNF) -> int:
    """Count all full assignments satisfying ``cnf``."""
    return sum(1 for _ in _satisfying(cnf))
