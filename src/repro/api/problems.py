"""The ``Problem`` union: everything the façade knows how to decide.

Three problem kinds cover the repo's verification surface:

* :class:`FormulaProblem` — a raw relational formula plus bounds (the
  mini-Kodkod level);
* :class:`ModuleProblem` — an alloylite module with a ``run`` or
  ``check`` command at a scope (the Alloy level);
* :class:`ProtocolProblem` — a concrete MCA protocol instance whose
  schedules are explored exhaustively (the dynamic-checking level).

Problems are plain picklable data, so the batch path can ship them to
worker processes, and every problem has a deterministic
:func:`problem_fingerprint` so results are content-addressable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from repro.alloylite.module import Module, Scope
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy


@dataclass(frozen=True)
class FormulaProblem:
    """Satisfiability of a relational formula within bounds."""

    formula: ast.Formula
    bounds: Bounds

    def __post_init__(self) -> None:
        if not isinstance(self.formula, ast.Formula):
            raise ValueError(
                f"FormulaProblem.formula must be a repro.kodkod.ast.Formula, "
                f"got {type(self.formula).__name__}"
            )
        if not isinstance(self.bounds, Bounds):
            raise ValueError(
                f"FormulaProblem.bounds must be a repro.kodkod.bounds.Bounds, "
                f"got {type(self.bounds).__name__}"
            )


@dataclass(frozen=True)
class ModuleProblem:
    """An alloylite command: ``run`` (find instance) or ``check`` (refute).

    ``goal`` is the extra predicate for ``run`` (optional) and the
    assertion for ``check`` (required).
    """

    module: Module
    command: str = "run"
    goal: ast.Formula | None = None
    scope: Scope | None = None

    def __post_init__(self) -> None:
        if self.command not in ("run", "check"):
            raise ValueError(
                f"ModuleProblem.command must be 'run' or 'check', "
                f"got {self.command!r}"
            )
        if self.command == "check" and self.goal is None:
            raise ValueError(
                "ModuleProblem with command='check' requires a goal "
                "(the assertion to refute)"
            )


@dataclass(frozen=True)
class ProtocolProblem:
    """Exhaustive schedule exploration of a concrete MCA protocol run."""

    network: AgentNetwork
    items: tuple = ()
    policies: Mapping[int, AgentPolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "policies", dict(self.policies))
        missing = [a for a in self.network.agents()
                   if a not in self.policies]
        if missing:
            raise ValueError(
                f"ProtocolProblem is missing a policy for agent(s) "
                f"{missing}; every network agent needs one"
            )


Problem = Union[FormulaProblem, ModuleProblem, ProtocolProblem]


def problem_kind(problem: Problem) -> str:
    """The problem's kind tag: ``"formula"``, ``"module"`` or ``"protocol"``.

    The vocabulary matches the codec/corpus payloads and the
    ``detail["delta"]`` provenance emitted by the delta-verification path
    (:func:`repro.api.solve_delta`).
    """
    if isinstance(problem, FormulaProblem):
        return "formula"
    if isinstance(problem, ModuleProblem):
        return "module"
    if isinstance(problem, ProtocolProblem):
        return "protocol"
    raise ValueError(
        f"not a façade problem: {type(problem).__name__} (expected "
        f"FormulaProblem, ModuleProblem or ProtocolProblem)"
    )


def problem_from_spec(spec) -> Problem:
    """The façade problem a campaign
    :class:`~repro.campaign.specs.ScenarioSpec` describes: relational specs
    are :class:`FormulaProblem`, auction specs :class:`ProtocolProblem`."""
    # Imported lazily: repro.campaign imports repro.api (the oracles run
    # through the façade), so a module-level import here would cycle.
    from repro.campaign.specs import materialize

    return materialize(spec)


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------


def _bounds_payload(bounds: Bounds) -> dict:
    return {
        "universe": list(bounds.universe.atoms),
        "relations": {
            relation.name: {
                "arity": relation.arity,
                "lower": sorted(list(t) for t in bounds.lower(relation)),
                "upper": sorted(list(t) for t in bounds.upper(relation)),
            }
            for relation in sorted(bounds.relations(), key=lambda r: r.name)
        },
    }


def _auction_payload(network: AgentNetwork, items: Sequence[str],
                     policies: Mapping[int, AgentPolicy]) -> dict:
    # Probe marginals against several bundle prefixes: capacity-style
    # utilities are constant on the empty bundle, so one probe would miss
    # their shape.
    probes = [list(items[:size]) for size in range(3)]
    return {
        "agents": list(network.agents()),
        "edges": [list(e) for e in network.edges()],
        "items": list(items),
        "policies": {
            str(agent): {
                "target": policy.target,
                "release_outbid": policy.release_outbid,
                "rebid": policy.rebid.value,
                "marginals": {
                    item: [
                        round(policy.utility.marginal(item, probe), 6)
                        for probe in probes
                    ]
                    for item in items
                },
            }
            for agent, policy in sorted(policies.items())
        },
    }


def problem_payload(problem: Problem) -> dict:
    """Deterministic JSON-able identity of a problem.

    Formulas are identified by their ``repr`` (deterministic for the AST
    node types), bounds by their sorted tuple sets, modules by their
    compiled universe/bounds/facts at the problem's scope, protocols by
    topology plus probed utility marginals.
    """
    if isinstance(problem, FormulaProblem):
        return {
            "kind": "formula",
            "formula": repr(problem.formula),
            "bounds": _bounds_payload(problem.bounds),
        }
    if isinstance(problem, ModuleProblem):
        scope = problem.scope or Scope()
        _, bounds, facts = problem.module.compile(scope)
        return {
            "kind": "module",
            "command": problem.command,
            "goal": repr(problem.goal) if problem.goal is not None else None,
            "facts": repr(facts),
            "bounds": _bounds_payload(bounds),
        }
    if isinstance(problem, ProtocolProblem):
        return {
            "kind": "protocol",
            **_auction_payload(problem.network, problem.items,
                               problem.policies),
        }
    raise ValueError(
        f"not a façade problem: {type(problem).__name__} (expected "
        f"FormulaProblem, ModuleProblem or ProtocolProblem)"
    )


def problem_fingerprint(problem: Problem) -> str:
    """Stable sha256 digest of :func:`problem_payload` (cache identity)."""
    payload = json.dumps(problem_payload(problem), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
