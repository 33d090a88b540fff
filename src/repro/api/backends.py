"""Pluggable verification backends behind one protocol and registry.

A backend knows how to decide some subset of the :data:`~repro.api.problems.Problem`
union and always answers with the uniform :class:`~repro.api.result.Result`.
Two backend classes ship in-tree:

* :class:`KodkodBackend` — formula and module problems through the
  bounded relational pipeline: lower the problem to (goal, bounds,
  validity), translate, open a SAT engine, take models through
  :meth:`~repro.kodkod.engine.Session.iter_solutions`, check each
  instance against the goal, map the outcome to a verdict.  Its names
  differ only in the engine: ``kodkod`` (the in-tree CDCL solver) and
  ``dimacs:<command>`` (any SAT-competition binary, one process per
  solve, through :class:`~repro.sat.external.ExternalSolver`).
  External names are materialized on first use, since the command is
  part of the name.
* :class:`ExplorerBackend` (``explorer``) — exhaustive schedule
  exploration of the executable protocol for protocol problems.

Every SAT or COUNTEREXAMPLE answer is checked: each instance the
relational backend or the delta warm path (:mod:`repro.api.delta`)
returns has passed :func:`_is_model` (within the bounds, and
``Evaluator(instance).check(goal)``), and a failed check raises instead
of becoming a verdict.  The service hub runs the same check on every
instance a satellite posts.

Alternative engines (a parallel portfolio, a BDD-based finder) plug in by
implementing :class:`Backend` and calling :func:`register_backend`; every
façade entry point and the batch path then reach them through
``Options.solver``.
"""

from __future__ import annotations

import time
from typing import Iterable, Protocol, runtime_checkable

from repro.api.options import Options
from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    ProtocolProblem,
)
from repro.api.result import Result, Verdict
from repro.alloylite.module import Scope
from repro.checking.explorer import explore
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.engine import Session
from repro.kodkod.evaluator import Evaluator
from repro.kodkod.instance import Instance
from repro.kodkod.symmetry import DEFAULT_SBP_LENGTH
from repro.sat.external import ExternalSolver, split_solver_name


@runtime_checkable
class Backend(Protocol):
    """The interface every verification backend implements."""

    name: str

    def supports(self, problem: Problem) -> bool:
        """Whether this backend can decide ``problem``."""
        ...

    def solve(self, problem: Problem, options: Options) -> Result:
        """Decide the problem (one verdict, at most one witness)."""
        ...

    def enumerate(self, problem: Problem, options: Options) -> Result:
        """Enumerate witnessing instances (bounded by ``max_instances``)."""
        ...


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register a backend under its ``name`` (the ``Options.solver`` key)."""
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"backend must expose a non-empty string 'name' attribute, "
            f"got {name!r}"
        )
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True "
            f"to override it"
        )
    _REGISTRY[name] = backend
    return backend


def available_backends() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


# Backends materialized from "dimacs:<command>" solver names, cached per
# normalized name so repeated option resolution reuses them.  They hold
# no process state — an external process lives only for the duration of
# one SAT solve — so caching is safe.
_EXTERNAL_BACKENDS: dict[str, Backend] = {}


def get_backend(name: str) -> Backend:
    """Look up a backend by name, with an actionable error on a miss.

    Names starting with ``dimacs:`` resolve dynamically: the rest of
    the name is the external solver command (``"dimacs:picosat"``,
    ``"dimacs:python -m repro.sat.dimacs solve"``).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        pass
    if split_solver_name(name) is None:
        raise ValueError(
            f"unknown backend {name!r}; registered backends: "
            f"{available_backends()} (or 'dimacs:<command>' for an "
            f"external SAT solver)"
        )
    backend = KodkodBackend(name)
    return _EXTERNAL_BACKENDS.setdefault(backend.name, backend)


def backend_for(problem: Problem, options: Options) -> Backend:
    """Resolve the backend deciding ``problem`` under ``options``.

    ``options.solver`` forces a specific backend (and errors if that
    backend cannot handle the problem kind); otherwise the first
    registered backend supporting the problem wins.
    """
    if options.solver is not None:
        backend = get_backend(options.solver)
        if not backend.supports(problem):
            raise ValueError(
                f"backend {backend.name!r} does not support "
                f"{type(problem).__name__}; backends that do: "
                f"{[n for n, b in _REGISTRY.items() if b.supports(problem)]}"
            )
        return backend
    for backend in _REGISTRY.values():
        if backend.supports(problem):
            return backend
    raise ValueError(
        f"no registered backend supports {type(problem).__name__}; "
        f"registered backends: {available_backends()}"
    )


# ----------------------------------------------------------------------
# The bounded relational backend (mini-Kodkod pipeline)
# ----------------------------------------------------------------------


def _relational_goal(problem: Problem,
                     backend_name: str) -> tuple[ast.Formula, Bounds, bool]:
    """(goal formula, bounds, is_validity_query) for a relational problem."""
    if isinstance(problem, FormulaProblem):
        return problem.formula, problem.bounds, False
    if isinstance(problem, ModuleProblem):
        scope = problem.scope or Scope()
        _, bounds, facts = problem.module.compile(scope)
        if problem.command == "check":
            return ast.And([facts, ast.Not(problem.goal)]), bounds, True
        goal = (facts if problem.goal is None
                else ast.And([facts, problem.goal]))
        return goal, bounds, False
    raise ValueError(
        f"{backend_name} backend cannot decide {type(problem).__name__}"
    )


def _is_model(goal: ast.Formula, bounds: Bounds, instance: Instance) -> bool:
    """The one instance check: ``instance`` ranges over the bounds'
    universe, gives every bounded relation a value between its lower and
    upper bound, and satisfies ``goal``."""
    if instance.universe is not bounds.universe:
        return False
    for relation in bounds.relations():
        value = instance.value_of(relation)
        if not (bounds.lower(relation).issubset(value)
                and value.issubset(bounds.upper(relation))):
            return False
    return Evaluator(instance).check(goal)


def _checked_result(session: Session, goal: ast.Formula, validity: bool,
                    instances: Iterable[Instance], *, started: float,
                    backend: str) -> Result:
    """The one tail of every relational answer: check, verdict, Result.

    Each instance is checked (:func:`_is_model` against ``goal`` and the
    session's bounds) as it is taken: a non-model stops the query with
    :class:`AssertionError` and never becomes a verdict.  The caller
    fills ``detail``.
    """
    bounds = session.translation.bounds
    taken = []
    for instance in instances:
        if not _is_model(goal, bounds, instance):
            raise AssertionError(
                "internal error: SAT instance does not satisfy the goal "
                "formula"
            )
        taken.append(instance)
    if validity:
        verdict = Verdict.COUNTEREXAMPLE if taken else Verdict.HOLDS
    else:
        verdict = Verdict.SAT if taken else Verdict.UNSAT
    return Result(
        verdict=verdict,
        instances=taken,
        stats=session.translation.stats,
        solver_stats=session.solver_stats(),
        seconds=time.perf_counter() - started,
        backend=backend,
    )


class KodkodBackend:
    """Formula/module problems via translate → SAT → instance extraction.

    ``name`` selects the SAT engine (see the module docstring).
    ``solve`` and ``enumerate`` run one query: ``solve`` takes at most
    one model and adds no blocking clause.  The external engine raises
    :class:`~repro.sat.external.ExternalSolverError` when the binary is
    missing, times out (``options.timeout`` is the per-solve budget),
    breaks its protocol or reports SAT without a model.  Its
    ``solver_stats`` are ``kernel`` (``"external"``),
    ``external_wall_time``, ``external_invocations`` (solve rounds, one
    process each) and ``external_exit_code`` (of the last round).
    """

    def __init__(self, name: str = "kodkod") -> None:
        self.command = split_solver_name(name)
        if self.command is None and name != "kodkod":
            raise ValueError(
                f"relational backend names are 'kodkod' and "
                f"'dimacs:<command>'; got {name!r}"
            )
        self.name = name if self.command is None else f"dimacs:{self.command}"

    def supports(self, problem: Problem) -> bool:
        return isinstance(problem, (FormulaProblem, ModuleProblem))

    def solve(self, problem: Problem, options: Options) -> Result:
        return self._query(problem, options, enumerating=False)

    def enumerate(self, problem: Problem, options: Options) -> Result:
        return self._query(problem, options, enumerating=True)

    def _query(self, problem: Problem, options: Options,
               enumerating: bool) -> Result:
        started = time.perf_counter()
        goal, bounds, validity = _relational_goal(problem, self.name)
        # Enumeration defaults to symmetry off so every model is produced;
        # an explicit level enumerates canonical representatives.
        default, limit = ((0, options.max_instances) if enumerating
                          else (DEFAULT_SBP_LENGTH, 1))
        symmetry = default if options.symmetry is None else options.symmetry
        engine = (None if self.command is None
                  else ExternalSolver(self.command, timeout=options.timeout))
        session = Session(goal, bounds, symmetry=symmetry, solver=engine)
        result = _checked_result(
            session, goal, validity, session.iter_solutions(limit),
            started=started, backend=self.name)
        if enumerating:
            count = len(result.instances)
            result.detail = {
                "num_instances": count,
                "truncated": limit is not None and count >= limit,
                "symmetry": symmetry,
            }
        else:
            result.detail = {"solve_seconds": session.solve_seconds,
                             "symmetry": symmetry}
        if self.command is not None:
            result.detail["external_command"] = self.command
        return result


# ----------------------------------------------------------------------
# The explicit-state protocol backend
# ----------------------------------------------------------------------


class ExplorerBackend:
    """Protocol problems via exhaustive schedule exploration, with
    per-receiver branching and canonical-state memoization always on
    (verdict-preserving; the ``explorer`` oracle checks it against the
    plain per-order DFS).  A search stopped by ``max_states`` answers
    ``Verdict.ERROR``, never HOLDS."""

    name = "explorer"

    def supports(self, problem: Problem) -> bool:
        return isinstance(problem, ProtocolProblem)

    def solve(self, problem: Problem, options: Options) -> Result:
        if not isinstance(problem, ProtocolProblem):
            raise ValueError(
                f"explorer backend cannot decide {type(problem).__name__}"
            )
        started = time.perf_counter()
        exploration = explore(
            problem.network, list(problem.items), dict(problem.policies),
            max_rounds=options.max_rounds, max_states=options.max_states,
        )
        detail = {
            "paths_explored": exploration.paths_explored,
            "max_rounds_to_converge": exploration.max_rounds_to_converge,
            "memo_hits": exploration.memo_hits,
            "states_memoized": exploration.states_memoized,
            "oscillating": exploration.oscillating_trace is not None,
            "diverging": exploration.diverging_trace is not None,
        }
        if exploration.truncated:
            return Result(
                verdict=Verdict.ERROR,
                seconds=time.perf_counter() - started,
                backend=self.name,
                detail={**detail, "truncated": True},
                error=(f"exploration stopped at max_states="
                       f"{options.max_states} expanded states before "
                       f"covering every schedule; raise max_states"),
            )
        verdict = (Verdict.HOLDS if exploration.all_converged
                   else Verdict.COUNTEREXAMPLE)
        return Result(
            verdict=verdict,
            trace=exploration.counterexample,
            seconds=time.perf_counter() - started,
            backend=self.name,
            detail=detail,
        )

    def enumerate(self, problem: Problem, options: Options) -> Result:
        raise ValueError(
            "the explorer backend decides protocol checks; it cannot "
            "enumerate relational instances — use solve()/run_protocol(), "
            "or pick a relational problem for enumerate()"
        )


register_backend(KodkodBackend())
register_backend(ExplorerBackend())
