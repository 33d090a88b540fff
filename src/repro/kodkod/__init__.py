"""Mini-Kodkod: a bounded relational model finder.

Plays the role Kodkod plays underneath the Alloy Analyzer: relational
formulas plus per-relation bounds are translated to boolean circuits and
then CNF, decided by the CDCL solver in :mod:`repro.sat`, and satisfying
assignments are lifted back to relational instances.
"""

from repro.kodkod.ast import (
    Expr,
    Formula,
    Iden,
    NoneExpr,
    Relation,
    TrueF,
    FalseF,
    Univ,
    Variable,
    all_different,
    and_all,
    comprehension,
    exists,
    forall,
    or_any,
    relation,
    variable,
)
from repro.kodkod.bounds import Bounds
from repro.kodkod.engine import DeltaSession, Session, Solution, translate
from repro.kodkod.evaluator import Evaluator, brute_force_instances
from repro.kodkod.instance import Instance, extract_instance
from repro.kodkod.symmetry import (
    DEFAULT_SBP_LENGTH,
    SymmetryInfo,
    atom_partition,
    break_predicates,
)
from repro.kodkod.translate import TranslationStats, Translator
from repro.kodkod.universe import TupleSet, Universe

__all__ = [
    "Bounds",
    "DEFAULT_SBP_LENGTH",
    "DeltaSession",
    "Session",
    "SymmetryInfo",
    "atom_partition",
    "break_predicates",
    "Evaluator",
    "Expr",
    "FalseF",
    "Formula",
    "Iden",
    "Instance",
    "NoneExpr",
    "Relation",
    "Solution",
    "TranslationStats",
    "Translator",
    "TrueF",
    "TupleSet",
    "Univ",
    "Universe",
    "Variable",
    "all_different",
    "and_all",
    "brute_force_instances",
    "comprehension",
    "exists",
    "extract_instance",
    "forall",
    "or_any",
    "relation",
    "translate",
    "variable",
]
