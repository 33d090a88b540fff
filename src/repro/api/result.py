"""The uniform result type every backend produces.

One :class:`Result` shape covers every operation and problem kind: a
:class:`Verdict` enum, the witnessing instances, an optional protocol
trace, and the translation/solver statistics.  Backends build it from
their layer's own outcome (``kodkod.engine.Solution``,
``checking.explorer.ExplorationResult``); :meth:`Result.describe` is its
pretty-printer, and :func:`result_to_json`/:func:`result_from_json` its
cache and wire format.

This module is deliberately a leaf: it imports only the kodkod instance
and translation types, so the service and batch layers can decode
results without importing the façade.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

from repro.kodkod import ast
from repro.kodkod.instance import Instance
from repro.kodkod.translate import TranslationStats
from repro.kodkod.universe import Universe


class Verdict(str, Enum):
    """Uniform verdict vocabulary across every backend and problem kind.

    ``SAT``/``UNSAT`` answer satisfiability queries (``solve``,
    ``enumerate``); ``HOLDS``/``COUNTEREXAMPLE`` answer validity queries
    (``check``, ``run_protocol``); ``ERROR`` marks a batch task that
    crashed or timed out instead of completing.
    """

    SAT = "sat"
    UNSAT = "unsat"
    HOLDS = "holds"
    COUNTEREXAMPLE = "counterexample"
    ERROR = "error"


@dataclass
class Result:
    """Outcome of one façade operation, uniform across backends.

    ``instances`` holds the witnessing instance(s): one model for a SAT
    ``solve``, every enumerated model for ``enumerate``, the
    counterexample for a failed ``check``.  ``trace`` carries a protocol
    counterexample schedule.  ``detail`` is the backend's JSON-able extra
    telemetry (paths explored, memo hits, solve seconds, cache status).

    Results produced by the delta-verification path
    (:func:`repro.api.solve_delta` / ``repro.api.DeltaSession``) carry a
    ``detail["delta"]`` provenance block:

    * ``path`` — ``"reused"`` (live-solver warm re-solve), ``"fallback"``
      (diff was not delta-safe; fresh full solve) or ``"cold"`` (the
      anchor solve itself);
    * ``reason`` — the edit classification behind the decision
      (``"identical"``, ``"bounds_narrowed"``, ``"formula_changed"``,
      ``"bounds_widened"``, ``"symmetry"``, ...);
    * ``dropped``/``promoted``/``assumptions`` — edit size on the reuse
      path;
    * ``warm_solve_seconds`` — pure search time of a warm re-solve.
    """

    verdict: Verdict
    instances: list[Instance] = field(default_factory=list)
    trace: list[str] | None = None
    stats: TranslationStats | None = None
    solver_stats: dict = field(default_factory=dict)
    seconds: float = 0.0
    backend: str = ""
    detail: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def satisfiable(self) -> bool:
        """Whether a witnessing instance exists.

        ``SAT`` and ``COUNTEREXAMPLE`` both witness satisfiability (a
        counterexample is a model of the negated assertion); ``UNSAT``
        and ``HOLDS`` both witness its absence.
        """
        if self.verdict is Verdict.ERROR:
            raise ValueError(f"task did not complete: {self.error}")
        return self.verdict in (Verdict.SAT, Verdict.COUNTEREXAMPLE)

    @property
    def holds(self) -> bool:
        """Whether the checked property holds (no counterexample found)."""
        if self.verdict is Verdict.ERROR:
            raise ValueError(f"task did not complete: {self.error}")
        return self.verdict in (Verdict.HOLDS, Verdict.UNSAT)

    @property
    def instance(self) -> Instance | None:
        """The first witnessing instance, if any."""
        return self.instances[0] if self.instances else None

    @property
    def delta(self) -> dict | None:
        """The delta-verification provenance block, if this result came
        from :func:`repro.api.solve_delta` (see the class docstring)."""
        return self.detail.get("delta")

    @property
    def counterexample(self) -> Instance | list[str] | None:
        """The counterexample witness: an instance, or a protocol trace."""
        if self.verdict is not Verdict.COUNTEREXAMPLE:
            return None
        return self.instance if self.instances else self.trace

    def describe(self) -> str:
        """Human-readable rendering of the verdict and its witness."""
        verdict, instances = self.verdict, self.instances
        if verdict is Verdict.ERROR:
            return f"error: {self.error or 'task did not complete'}"
        if verdict is Verdict.UNSAT:
            return "no instance found"
        if verdict is Verdict.HOLDS:
            return "assertion holds within the scope (no counterexample)"
        if verdict is Verdict.COUNTEREXAMPLE:
            if instances:
                return "counterexample found:\n" + instances[0].describe()
            if self.trace is not None:
                return "counterexample found:\n" + "\n".join(self.trace)
            return "counterexample found"
        # SAT
        if not instances:
            return "satisfiable (no instance extracted)"
        if len(instances) == 1:
            return instances[0].describe()
        blocks = [
            f"--- instance {index} ---\n{instance.describe()}"
            for index, instance in enumerate(instances)
        ]
        return "\n".join(blocks)


# ----------------------------------------------------------------------
# JSON round trip (the batch path's cache format)
# ----------------------------------------------------------------------


def instance_payload(instance: Instance) -> dict:
    """Canonical JSON-able form of an instance (stable across processes)."""
    return {
        "universe": list(instance.universe.atoms),
        "relations": [
            {
                "name": relation.name,
                "arity": relation.arity,
                "tuples": sorted(
                    list(t) for t in instance.value_of(relation)
                ),
            }
            for relation in sorted(instance.relations(),
                                   key=lambda r: (r.name, r.arity))
        ],
    }


def _instance_from_payload(payload: dict) -> Instance:
    universe = Universe(payload["universe"])
    valuations = {}
    for entry in payload["relations"]:
        relation = ast.Relation(entry["name"], entry["arity"])
        valuations[relation] = universe.tuple_set(
            entry["arity"], [tuple(t) for t in entry["tuples"]]
        )
    return Instance(universe, valuations)


def result_to_json(result: Result) -> dict:
    """JSON-able form of a result (cache entry / artifact row)."""
    return {
        "verdict": result.verdict.value,
        "instances": [instance_payload(i) for i in result.instances],
        "trace": list(result.trace) if result.trace is not None else None,
        # Not dataclasses.asdict: it deep-copies every field value, and
        # this serializer also runs inside pool workers on hot paths.
        "stats": ({f.name: getattr(result.stats, f.name)
                   for f in fields(result.stats)}
                  if result.stats is not None else None),
        "solver_stats": dict(result.solver_stats),
        "seconds": result.seconds,
        "backend": result.backend,
        "detail": dict(result.detail),
        "error": result.error,
    }


def result_from_json(payload: dict) -> Result:
    """Inverse of :func:`result_to_json`.

    Rebuilt instances carry fresh :class:`~repro.kodkod.ast.Relation`
    objects (relations compare by identity); compare round-tripped
    instances via :func:`instance_payload`, not ``value_of`` on the
    original relation objects.
    """
    stats = payload.get("stats")
    return Result(
        verdict=Verdict(payload["verdict"]),
        instances=[
            _instance_from_payload(p) for p in payload.get("instances", [])
        ],
        trace=(list(payload["trace"])
               if payload.get("trace") is not None else None),
        stats=TranslationStats(**stats) if stats is not None else None,
        solver_stats=dict(payload.get("solver_stats", {})),
        seconds=payload.get("seconds", 0.0),
        backend=payload.get("backend", ""),
        detail=dict(payload.get("detail", {})),
        error=payload.get("error"),
    )
