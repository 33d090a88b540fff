"""SAT substrate: CNF containers, a CDCL solver and DIMACS I/O.

This package plays the role MiniSat plays underneath the Alloy Analyzer in
the paper: the backend deciding the boolean satisfiability problems produced
by the relational translation.
"""

from repro.sat.cnf import CNF
from repro.sat.dimacs import dump_file, dumps, load_file, loads
from repro.sat.solver import Solver, luby, solve_cnf
from repro.sat.types import Lit, Model, Status, Var, negate, var_of

__all__ = [
    "CNF",
    "Lit",
    "Model",
    "Solver",
    "Status",
    "Var",
    "dump_file",
    "dumps",
    "load_file",
    "loads",
    "luby",
    "negate",
    "solve_cnf",
    "var_of",
]
