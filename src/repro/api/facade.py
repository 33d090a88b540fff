"""Top-level façade: one call surface for the whole verification stack.

``solve``/``check``/``enumerate``/``run_protocol`` accept either a
ready-made problem object or the natural positional spelling
(formula+bounds, module+assertion, network+items+policies), resolve a
backend from the registry, and return the uniform
:class:`~repro.api.result.Result`.  Keyword overrides are merged into a
validated :class:`~repro.api.options.Options`, so every entry point
shares one option vocabulary.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.api.backends import backend_for
from repro.api.options import Options, resolve_options
from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    ProtocolProblem,
)
from repro.api.result import Result, Verdict
from repro.alloylite.module import Module, Scope
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.mca.network import AgentNetwork

_PROBLEM_TYPES = (FormulaProblem, ModuleProblem, ProtocolProblem)


def _as_problem(problem, bounds) -> Problem:
    if isinstance(problem, _PROBLEM_TYPES):
        if bounds is not None:
            raise ValueError(
                "bounds must be omitted when a Problem object is passed "
                "(the problem already carries its bounds)"
            )
        return problem
    if isinstance(problem, ast.Formula):
        if bounds is None:
            raise ValueError(
                "solving a raw formula requires bounds: "
                "solve(formula, bounds) or solve(FormulaProblem(...))"
            )
        return FormulaProblem(problem, bounds)
    if isinstance(problem, Module):
        if bounds is not None and not isinstance(bounds, Scope):
            raise ValueError(
                f"the second argument for a Module must be a Scope, got "
                f"{type(bounds).__name__}"
            )
        return ModuleProblem(problem, "run", None, bounds)
    raise ValueError(
        f"cannot interpret {type(problem).__name__} as a problem; pass a "
        f"FormulaProblem/ModuleProblem/ProtocolProblem, a formula with "
        f"bounds, or a Module"
    )


def solve(problem, bounds=None, *, options: Options | None = None,
          **overrides) -> Result:
    """Decide a problem: find one witnessing instance or refute.

    Accepts a problem object, ``(formula, bounds)``, or a module (its
    facts are run at the default scope).  Verdicts: SAT/UNSAT for
    satisfiability problems, HOLDS/COUNTEREXAMPLE for ``check``-command
    module problems and protocol problems.
    """
    opts = resolve_options(options, overrides)
    resolved = _as_problem(problem, bounds)
    return backend_for(resolved, opts).solve(resolved, opts)


def check(module, assertion=None, scope: Scope | None = None, *,
          options: Options | None = None, **overrides) -> Result:
    """Check an assertion: search for a counterexample.

    Accepts ``(module, assertion[, scope])``, a ``FormulaProblem`` (the
    formula is the assertion, checked for validity within its bounds), a
    ``check``-command ``ModuleProblem``, or a ``ProtocolProblem``.
    Verdict is always HOLDS or COUNTEREXAMPLE.
    """
    opts = resolve_options(options, overrides)
    if isinstance(module, _PROBLEM_TYPES):
        if assertion is not None or scope is not None:
            raise ValueError(
                "assertion/scope must be omitted when a Problem object "
                "is passed"
            )
        if isinstance(module, FormulaProblem):
            # Validity of a raw formula: a counterexample is a model of
            # its negation within the same bounds.
            negated = FormulaProblem(ast.Not(module.formula), module.bounds)
            result = backend_for(negated, opts).solve(negated, opts)
            result.verdict = (Verdict.COUNTEREXAMPLE if result.satisfiable
                              else Verdict.HOLDS)
            return result
        if isinstance(module, ModuleProblem) and module.command != "check":
            raise ValueError(
                "check() needs a ModuleProblem with command='check' (a "
                "'run' problem answers satisfiability, not validity); "
                "use solve() for it, or rebuild the problem with "
                "command='check' and the assertion as its goal"
            )
        problem: Problem = module
    else:
        if not isinstance(module, Module):
            raise ValueError(
                f"check() needs an alloylite Module (or a Problem object), "
                f"got {type(module).__name__}"
            )
        if assertion is None:
            raise ValueError(
                "check() requires an assertion formula to refute"
            )
        problem = ModuleProblem(module, "check", assertion, scope)
    return backend_for(problem, opts).solve(problem, opts)


def enumerate(problem, bounds=None, *, limit: int | None = None,
              options: Options | None = None, **overrides) -> Result:
    """Enumerate witnessing instances (distinct relational valuations).

    ``limit`` is shorthand for ``max_instances``.  Symmetry breaking
    defaults to *off* here so every model is produced; pass
    ``symmetry > 0`` to enumerate canonical orbit representatives only.
    """
    opts = resolve_options(options, overrides)
    if limit is not None:
        opts = opts.replace(max_instances=limit)
    resolved = _as_problem(problem, bounds)
    return backend_for(resolved, opts).enumerate(resolved, opts)


def run_protocol(network, items: Iterable = None,
                 policies: Mapping | None = None, *,
                 options: Options | None = None, **overrides) -> Result:
    """Exhaustively explore a protocol instance's schedules.

    Accepts a ``ProtocolProblem`` or ``(network, items, policies)``.
    Verdict is HOLDS when every schedule converges within
    ``options.max_rounds``, COUNTEREXAMPLE (with ``trace``) when one does
    not, and ERROR (``detail["truncated"]``) when covering every
    schedule would expand more than ``options.max_states`` states.
    """
    opts = resolve_options(options, overrides)
    if isinstance(network, ProtocolProblem):
        if items is not None or policies is not None:
            raise ValueError(
                "items/policies must be omitted when a ProtocolProblem "
                "is passed"
            )
        problem = network
    else:
        if not isinstance(network, AgentNetwork):
            raise ValueError(
                f"run_protocol() needs an AgentNetwork (or a "
                f"ProtocolProblem), got {type(network).__name__}"
            )
        if items is None or policies is None:
            raise ValueError(
                "run_protocol(network, items, policies) requires items "
                "and policies"
            )
        problem = ProtocolProblem(network, tuple(items), dict(policies))
    return backend_for(problem, opts).solve(problem, opts)
