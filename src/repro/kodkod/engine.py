"""The model-finding engine: solve and enumerate relational problems.

The equivalent of ``kodkod.engine.Solver``: it ties together translation
(:mod:`repro.kodkod.translate`), SAT solving (:mod:`repro.sat`) and instance
extraction (:mod:`repro.kodkod.instance`).  The one-call operations
(solve, check, enumerate) live in the :mod:`repro.api` façade, whose
``kodkod`` backend drives the sessions defined here.

The core abstraction is the :class:`Session`: one translation, one live
SAT engine, reused across queries.  Follow-up queries go through
*assumptions* and enumeration goes through *blocking clauses* on the
same engine, so learned clauses are retained between queries instead of
being thrown away by a rebuild.  The engine is the in-tree
:class:`~repro.sat.solver.Solver` unless another with its surface is
injected, which is how the external backend of :mod:`repro.api.backends`
runs the one model loop, :meth:`Session.iter_solutions`, on a process
(:class:`~repro.sat.external.ExternalSolver`).
:meth:`Session.solver_stats` names the engine under ``kernel``: ``"pure"``
for the in-tree solver, ``"external"`` for a process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.instance import Instance, extract_instance
from repro.kodkod.translate import Translation, TranslationStats, Translator
from repro.sat.solver import Solver
from repro.sat.types import Lit, Status


@dataclass
class Solution:
    """Outcome of a model-finding query."""

    satisfiable: bool
    instance: Instance | None
    stats: TranslationStats
    solve_seconds: float
    solver_stats: dict = field(default_factory=dict)
    """Cumulative search statistics of the deciding solver (conflicts,
    decisions, clause-database reductions, ...)."""


def translate(formula: ast.Formula, bounds: Bounds,
              symmetry: int = 0) -> Translation:
    """Translate a problem without solving it (used by encoding benchmarks)."""
    return Translator(bounds, symmetry=symmetry).translate(formula)


class Session:
    """An incremental model-finding session over one translated problem.

    The session keeps a single solver alive for its whole lifetime:

    * :meth:`solve` decides the problem (optionally under assumptions)
      without destroying state — clauses learned by one query speed up the
      next;
    * :meth:`block_current` excludes the most recent model with a blocking
      clause over the primary variables, which is how :meth:`iter_solutions`
      walks the model space without ever rebuilding the solver;
    * :meth:`assume_tuple` turns a (relation, tuple) presence/absence into
      an assumption literal for hypothetical queries, and
      :meth:`assumptions_for` does so for a whole bound-narrowing edit.

    ``symmetry`` is the lex-leader predicate length passed to the
    translator (0 disables breaking; see :mod:`repro.kodkod.symmetry`).
    ``solver`` injects an engine with the :class:`~repro.sat.solver.Solver`
    surface (default: a fresh in-tree solver).  An injected engine whose
    ``stats`` carry no ``propagations`` count gets no
    ``propagations_per_second`` rate.

    .. warning::
       Symmetry breaking restricts the model space to one canonical
       representative per orbit, so combining ``symmetry > 0`` with
       assumptions (:meth:`assume_tuple`) can refute assumptions that
       describe a *non-canonical* model: the answer is then "no
       canonical model satisfies this", not "no model does".  Sessions
       meant for hypothetical tuple-level queries should be built with
       ``symmetry=0`` (the default).
    """

    def __init__(self, formula: ast.Formula, bounds: Bounds,
                 symmetry: int = 0, solver: Solver | None = None) -> None:
        self._translation = Translator(bounds, symmetry=symmetry).translate(formula)
        self._solver = solver if solver is not None else Solver()
        self._ok = self._solver.add_cnf(self._translation.cnf)
        self._primary_vars = self._translation.primary_vars()
        self._last_model = None
        self._solve_seconds_total = 0.0
        self._solve_propagations_total = 0
        # Blocking clauses installed while assumptions were active are
        # *conditional*: each assumption set gets activation literals that
        # scope its blocking clauses to re-solves under the same set.
        self._scoped_blockers: dict[tuple[Lit, ...], list[Lit]] = {}
        self._last_assumption_key: tuple[Lit, ...] = ()

    @property
    def translation(self) -> Translation:
        """The translation this session decides."""
        return self._translation

    @property
    def solver(self) -> Solver:
        """The live solver (one per session, shared across queries)."""
        return self._solver

    @property
    def solve_seconds(self) -> float:
        """Seconds spent in :meth:`solve` calls so far."""
        return self._solve_seconds_total

    def clause_db_stats(self) -> dict[str, float]:
        """Clause-database statistics of the live solver."""
        return self._solver.clause_db_stats()

    def solver_stats(self) -> dict:
        """Cumulative search statistics, with the derived throughput rate
        (``propagations_per_second``) over this session's solve calls.

        The rate counts only propagations performed *during* solve calls
        (clause loading and blocking-clause installation propagate too,
        but outside the timed window)."""
        stats = dict(self._solver.stats)
        stats["kernel"] = self._solver.kernel
        if self._solve_seconds_total > 0 and "propagations" in stats:
            stats["propagations_per_second"] = round(
                self._solve_propagations_total / self._solve_seconds_total
            )
        return stats

    def assume_tuple(self, relation: ast.Relation, atoms: tuple[str, ...],
                     present: bool = True) -> Lit:
        """Assumption literal asserting a free tuple's presence/absence.

        Raises ``KeyError`` for tuples that are not free under the bounds
        (inside the lower bound or outside the upper bound): their value is
        fixed by translation and cannot be assumed away.

        With ``symmetry > 0`` the query is answered over *canonical*
        models only — an assumption satisfied solely by non-canonical
        models comes back UNSAT (see the class-level warning).
        """
        universe = self._translation.bounds.universe
        index = tuple(universe.index(a) for a in atoms)
        try:
            node = self._translation.tuple_inputs[(relation, index)]
        except KeyError:
            raise KeyError(
                f"tuple {atoms!r} of {relation.name!r} is not a free tuple"
            ) from None
        var = self._translation.input_vars[node]
        return var if present else -var

    def assumptions_for(self, dropped: Iterable[tuple[str, int, tuple]],
                        promoted: Iterable[tuple[str, int, tuple]],
                        ) -> list[Lit] | None:
        """Assumption literals realizing a bound-narrowing edit.

        A variant that only drops free tuples from upper bounds or
        promotes them into lower bounds is an assumption set over this
        translation, so it keeps every learned clause.  ``dropped`` /
        ``promoted`` are ``(relation name, arity, atoms)`` triples,
        assumed absent / present.  Returns ``None`` for an unknown
        relation or a tuple that is not free (solve the variant afresh
        then).  Use ``symmetry=0`` sessions (see the class warning).
        """
        relations = {(rel.name, rel.arity): rel
                     for rel in self._translation.bounds.relations()}
        literals: list[Lit] = []
        try:
            for present, edits in ((True, promoted), (False, dropped)):
                for name, arity, atoms in edits:
                    literals.append(self.assume_tuple(
                        relations[(name, arity)], tuple(atoms), present))
        except KeyError:
            return None
        return literals

    def solve(self, assumptions: Iterable[Lit] = ()) -> Solution:
        """Decide the problem under optional assumption literals.

        Blocking clauses installed by :meth:`block_current` after an
        assumption-based solve apply only to later solves under the *same*
        assumption set (see :meth:`block_current`); assumption-free solves
        are blocked only by assumption-free blocking clauses.
        """
        started = time.perf_counter()
        assumption_list = list(assumptions)
        key = tuple(sorted(assumption_list))
        # Activate the blocking clauses scoped to this assumption set.
        effective = assumption_list + self._scoped_blockers.get(key, [])
        propagations_before = self._solver.stats.get("propagations", 0)
        if not self._ok:
            status = Status.UNSAT
        else:
            status = self._solver.solve(effective)
        self._last_assumption_key = key
        elapsed = time.perf_counter() - started
        self._solve_seconds_total += elapsed
        self._solve_propagations_total += (
            self._solver.stats.get("propagations", 0) - propagations_before
        )
        solver_stats = self.solver_stats()
        if status is Status.SAT:
            self._last_model = self._solver.model()
            instance = extract_instance(self._translation, self._last_model)
            return Solution(True, instance, self._translation.stats, elapsed,
                            solver_stats)
        self._last_model = None
        return Solution(False, None, self._translation.stats, elapsed,
                        solver_stats)

    def block_current(self) -> bool:
        """Exclude the most recent model from future queries.

        Adds a blocking clause over the primary variables (the relation
        tuples, not auxiliary Tseitin variables), so the next :meth:`solve`
        yields a semantically different instance.  Returns False when the
        model space is exhausted (no model to block, an empty projection,
        or the solver became UNSAT).

        A model found under assumptions exists only *under* them, so
        blocking it must not contaminate assumption-free queries: in that
        case the blocking clause gets a fresh activation literal and is
        enforced only on later :meth:`solve` calls with the exact same
        assumption set.  Assumption-free blocking clauses stay permanent
        (the :meth:`iter_solutions` enumeration behaviour).
        """
        if self._last_model is None or not self._primary_vars:
            return False
        model = self._last_model
        blocking = [-v if model[v] else v for v in self._primary_vars]
        self._last_model = None
        key = self._last_assumption_key
        if key:
            # Conditional clause: (blocking OR NOT selector).  The clause
            # is inert unless the selector is assumed true, which happens
            # exactly on re-solves under the same assumption set.
            selector = self._solver.new_var()
            self._scoped_blockers.setdefault(key, []).append(selector)
            return self._solver.add_clause(blocking + [-selector])
        if not self._solver.add_clause(blocking):
            self._ok = False
            return False
        return True

    def iter_solutions(self, limit: int | None = None) -> Iterator[Instance]:
        """Enumerate instances, distinct on the bounded relations' valuations.

        The one model loop: solve, yield the instance, block it, repeat.
        The ``limit``-th instance is not blocked, so ``limit=1`` is a plain
        :meth:`solve` that leaves the engine as it found the model.
        """
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        produced = 0
        while limit is None or produced < limit:
            solution = self.solve()
            if not solution.satisfiable:
                return
            yield solution.instance
            produced += 1
            if produced == limit or not self.block_current():
                return

