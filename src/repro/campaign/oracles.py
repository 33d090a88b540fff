"""Differential oracles: fast paths checked against reference paths.

Every optimization the verification core carries has a slower,
obviously-correct twin.  An oracle runs both on the same façade problem
and reports whether they agree — across a large randomized sweep the
whole stack becomes its own test oracle:

==============  =====================================  ==========================
oracle          fast path                              reference path
==============  =====================================  ==========================
``encodings``   Plaisted-Greenbaum CNF                 Tseitin; DIMACS round trip
``symmetry``    ``api.solve`` with lex-leader SBP      ``api.solve(symmetry=0)``
``enumeration`` ``api.enumerate`` (one live session)   fresh solver per model
``evaluator``   ``api.enumerate`` (CDCL pipeline)      brute force + ground eval
``external``    ``solver="dimacs:<cmd>"`` (env-gated)  ``solver="kodkod"``
``explorer``    ``api.run_protocol`` (memoized)        ``explore(memoize=False)``
``engines``     synchronous lock-step engine           asynchronous delivery
``delta``       ``solve_delta`` on a mutated problem   fresh ``api.solve``
==============  =====================================  ==========================

:data:`ORACLES` is the one registry: the campaign runner and the fuzz
loop both look oracles up here.  Each oracle is
``run(problem, seed, params)`` over one façade problem type; it applies
to any problem of that type, whichever family or generator built it.
The campaign passes a spec's materialized problem, seed and params; the
fuzz loop passes its sweep seed and no params.

The ``external`` oracle needs a SAT-competition-conformant binary and is
registered only when the ``REPRO_EXTERNAL_SOLVER`` environment variable
names one (the nightly CI job installs picosat and sets it); call
:func:`register_external_oracle` to wire a command explicitly.  The same
variable adds an arm to ``encodings``.

Fast paths go through the :mod:`repro.api` façade — the surface every
user-facing caller takes — so the sweep exercises the exact production
code path; reference paths deliberately stay on the low-level internals
(a raw :class:`~repro.kodkod.engine.Session`, the plain explorer DFS)
that bypass the optimizations under test.

An oracle *agrees* when the two paths produce the same verdict; the
returned detail dict records what was compared so disagreements are
diagnosable from the JSON artifact alone.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.api import DeltaSession, FormulaProblem, Problem, ProtocolProblem
from repro.api import enumerate as api_enumerate
from repro.api import run_protocol, solve as api_solve
from repro.api.codec import problem_identity, problem_to_json
from repro.checking.explorer import explore
from repro.kodkod.bounds import Bounds
from repro.kodkod.engine import Session
from repro.kodkod.evaluator import Evaluator, brute_force_instances
from repro.kodkod.symmetry import DEFAULT_SBP_LENGTH
from repro.kodkod.translate import Translator
from repro.mca.convergence import consensus_report
from repro.mca.engine import AsynchronousEngine, SynchronousEngine
from repro.sat import dimacs
from repro.sat.external import ExternalSolver, split_solver_name
from repro.sat.solver import Solver
from repro.sat.types import Status


@dataclass
class OracleOutcome:
    """Verdict of one oracle on one problem."""

    oracle: str
    agree: bool
    detail: dict = field(default_factory=dict)
    """JSON-able breakdown of what the two paths reported."""


@dataclass(frozen=True)
class Oracle:
    """A named differential check over one façade problem type.

    ``problem_type`` is anything :func:`isinstance` accepts — a single
    problem class or a tuple of them (``delta`` spans formula and
    protocol problems).
    """

    name: str
    problem_type: type | tuple[type, ...]
    run: Callable[[Problem, int, dict], OracleOutcome]
    description: str = ""

    def applicable(self, problem: Problem) -> bool:
        """Whether this oracle knows how to check the problem."""
        return isinstance(problem, self.problem_type)


ORACLES: dict[str, Oracle] = {}

# Fresh-solver enumeration rebuilds the translation per model; cap the
# model count so a pathological problem cannot stall a shard (problems
# whose model space exceeds the cap are reported as truncated, still
# compared).
_ENUMERATION_CAP = 1500

_EXTERNAL_SOLVER_ENV = "REPRO_EXTERNAL_SOLVER"


def _external_command(value: str) -> str:
    """The solver command a ``REPRO_EXTERNAL_SOLVER`` value names: the
    command of a ``dimacs:`` name, or the value itself."""
    return split_solver_name(value) or value.strip()


def register_oracle(name: str, problem_type: type | tuple[type, ...],
                    description: str = ""):
    """Decorator: register an oracle implementation under a name."""

    def decorate(fn: Callable[[Problem, int, dict], OracleOutcome]):
        ORACLES[name] = Oracle(name, problem_type, fn, description)
        return fn

    return decorate


def _instance_key(bounds: Bounds, instance) -> tuple:
    """Hashable identity of an instance on the bounded relations."""
    return tuple(
        (rel.name, frozenset(instance.value_of(rel)))
        for rel in sorted(bounds.relations(), key=lambda r: r.name)
    )


@register_oracle("encodings", FormulaProblem,
                 "PG vs Tseitin vs DIMACS round trip: same verdict")
def _encodings_oracle(problem: FormulaProblem, seed: int,
                      params: dict) -> OracleOutcome:
    """PG vs Tseitin vs DIMACS-round-trip: one verdict.

    When ``REPRO_EXTERNAL_SOLVER`` names a SAT-competition-conformant
    binary, the PG CNF is additionally round-tripped through it as a
    fourth arm (the nightly CI job runs with picosat), one
    :class:`~repro.sat.external.ExternalSolver` process.
    """
    def decide(encoding: str):
        translation = Translator(
            problem.bounds, cnf_encoding=encoding).translate(problem.formula)
        solver = Solver()
        loaded = solver.add_cnf(translation.cnf)
        status = solver.solve() if loaded else Status.UNSAT
        return translation, status is Status.SAT, solver.stats

    pg, pg_sat, pg_stats = decide("pg")
    _, tseitin_sat, _ = decide("tseitin")
    # The DIMACS export path (used by repro scripts and the external
    # cross-checking CLI) must also preserve the verdict — this is the
    # round trip that hits the trivially-true/false translation edges.
    back = dimacs.loads(pg.to_dimacs())
    solver = Solver()
    loaded = solver.add_cnf(back)
    roundtrip_sat = (solver.solve() if loaded else Status.UNSAT) is Status.SAT
    external_command = os.environ.get(_EXTERNAL_SOLVER_ENV)
    external_sat = None
    if external_command:
        external = ExternalSolver(_external_command(external_command),
                                  timeout=60)
        external_sat = external.solve_cnf(pg.cnf).status is Status.SAT
    agree = (pg_sat == tseitin_sat == roundtrip_sat
             and (external_sat is None or external_sat == pg_sat))
    detail_external = (
        {} if external_sat is None else {"sat_external": external_sat})
    return OracleOutcome(
        oracle="encodings",
        agree=agree,
        detail={
            "sat_pg": pg_sat,
            "sat_tseitin": tseitin_sat,
            "sat_dimacs_roundtrip": roundtrip_sat,
            **detail_external,
            "pg_clauses": pg.stats.num_clauses,
            "clauses_saved_by_polarity": pg.stats.num_clauses_saved_by_polarity,
            "cnf_vars": pg.stats.num_cnf_vars,
            "gates": pg.factory.opcode_histogram(),
            "conflicts": pg_stats["conflicts"],
            "decisions": pg_stats["decisions"],
            "restarts": pg_stats["restarts"],
            "propagations": pg_stats["propagations"],
        },
    )


@register_oracle("symmetry", FormulaProblem,
                 "solve with lex-leader SBP vs solve(symmetry=0): same verdict")
def _symmetry_oracle(problem: FormulaProblem, seed: int,
                     params: dict) -> OracleOutcome:
    fast = api_solve(problem, symmetry=DEFAULT_SBP_LENGTH)
    reference = api_solve(problem, symmetry=0)
    return OracleOutcome(
        oracle="symmetry",
        agree=fast.satisfiable == reference.satisfiable,
        detail={
            "sat_with_sbp": fast.satisfiable,
            "sat_without_sbp": reference.satisfiable,
            "sbp_clauses": fast.stats.num_clauses,
            "plain_clauses": reference.stats.num_clauses,
        },
    )


@register_oracle("enumeration", FormulaProblem,
                 "Session-incremental enumeration vs fresh solver per model")
def _enumeration_oracle(problem: FormulaProblem, seed: int,
                        params: dict) -> OracleOutcome:
    formula, bounds = problem.formula, problem.bounds
    incremental = {
        _instance_key(bounds, inst)
        for inst in api_enumerate(problem, limit=_ENUMERATION_CAP).instances
    }
    # Reference: a brand-new translation and solver for every model, with
    # the blocking clauses re-asserted from scratch each round.  No learned
    # clause survives between queries, so any incremental-state bug in the
    # session path shows up as a set difference.
    reference: set = set()
    blocking: list[list[int]] = []
    while len(reference) < _ENUMERATION_CAP:
        fresh = Session(formula, bounds)
        if not all(fresh.solver.add_clause(cl) for cl in blocking):
            break
        solution = fresh.solve()
        if not solution.satisfiable:
            break
        reference.add(_instance_key(bounds, solution.instance))
        primary = fresh.translation.primary_vars()
        if not primary:
            break
        model = fresh.solver.model()
        blocking.append([-v if model[v] else v for v in primary])
    truncated = (len(incremental) >= _ENUMERATION_CAP
                 or len(reference) >= _ENUMERATION_CAP)
    # Under the cap both paths must enumerate the exact same instance set.
    # At the cap the sets may legitimately differ (the two paths walk the
    # model space in different orders), so only the counts are compared.
    agree = (len(incremental) == len(reference) if truncated
             else incremental == reference)
    return OracleOutcome(
        oracle="enumeration",
        agree=agree,
        detail={
            "incremental_models": len(incremental),
            "fresh_solver_models": len(reference),
            "truncated": truncated,
        },
    )


@register_oracle("evaluator", FormulaProblem,
                 "translator + solver enumeration vs brute force + ground eval")
def _evaluator_oracle(problem: FormulaProblem, seed: int,
                      params: dict) -> OracleOutcome:
    formula, bounds = problem.formula, problem.bounds
    solved = {
        _instance_key(bounds, inst)
        for inst in api_enumerate(problem).instances
    }
    ground = {
        _instance_key(bounds, inst)
        for inst in brute_force_instances(bounds)
        if Evaluator(inst).check(formula)
    }
    return OracleOutcome(
        oracle="evaluator",
        agree=solved == ground,
        detail={
            "sat_models": len(solved),
            "ground_models": len(ground),
            "only_sat": len(solved - ground),
            "only_ground": len(ground - solved),
        },
    )


def register_external_oracle(command: str) -> None:
    """Register the ``external`` oracle against a solver ``command``.

    The fast path round-trips through ``solver="dimacs:<command>"``; the
    reference is the in-tree ``kodkod`` pipeline.  Verdicts and the
    enumerated primary-variable projections must both match.  The command
    must print ``v``-line models (picosat does; bare minisat does not).
    A ``dimacs:<command>`` name selects the same command.
    """
    command = _external_command(command)
    backend = f"dimacs:{command}"

    @register_oracle("external", FormulaProblem,
                     f"external solver '{backend}' vs built-in "
                     "pipeline: same verdict and same model set")
    def _external_oracle(problem: FormulaProblem, seed: int,
                         params: dict) -> OracleOutcome:
        fast = api_solve(problem, solver=backend)
        reference = api_solve(problem, solver="kodkod")
        external_models, pure_models = (
            {_instance_key(problem.bounds, inst)
             for inst in api_enumerate(problem, solver=solver,
                                       limit=_ENUMERATION_CAP).instances}
            for solver in (backend, "kodkod")
        )
        truncated = (len(external_models) >= _ENUMERATION_CAP
                     or len(pure_models) >= _ENUMERATION_CAP)
        # Distinct solvers walk the model space in different orders, so at
        # the cap only the counts are comparable (as in `enumeration`).
        agree = (fast.satisfiable == reference.satisfiable
                 and (len(external_models) == len(pure_models) if truncated
                      else external_models == pure_models))
        return OracleOutcome(
            oracle="external",
            agree=agree,
            detail={
                "sat_external": fast.satisfiable,
                "sat_pure": reference.satisfiable,
                "external_models": len(external_models),
                "pure_models": len(pure_models),
                "truncated": truncated,
                "external_command": command,
                "external_wall_time": round(
                    fast.solver_stats.get("external_wall_time", 0.0), 6),
            },
        )


if os.environ.get(_EXTERNAL_SOLVER_ENV):
    register_external_oracle(os.environ[_EXTERNAL_SOLVER_ENV])


def _explore_budget(params: dict) -> dict:
    """Exploration bounds a protocol oracle reads from its params."""
    return {"max_rounds": int(params.get("explore_rounds", 8)),
            "max_paths": int(params.get("explore_paths", 4000))}


@register_oracle("explorer", ProtocolProblem,
                 "memoized schedule exploration vs plain DFS: same verdict")
def _explorer_oracle(problem: ProtocolProblem, seed: int,
                     params: dict) -> OracleOutcome:
    budget = _explore_budget(params)
    memoized = run_protocol(problem, **budget)
    plain = explore(problem.network, list(problem.items), problem.policies,
                    memoize=False, **budget)
    memoized_worst = memoized.detail["max_rounds_to_converge"]
    agree = (
        memoized.holds == plain.all_converged
        and memoized_worst == plain.max_rounds_to_converge
        and (memoized.trace is None) == (plain.counterexample is None)
    )
    return OracleOutcome(
        oracle="explorer",
        agree=agree,
        detail={
            "memoized_converged": memoized.holds,
            "plain_converged": plain.all_converged,
            "memoized_worst_rounds": memoized_worst,
            "plain_worst_rounds": plain.max_rounds_to_converge,
            "memo_hits": memoized.detail["memo_hits"],
            "plain_paths": plain.paths_explored,
        },
    )


@register_oracle("delta", (FormulaProblem, ProtocolProblem),
                 "solve_delta on a mutated problem vs fresh solve: "
                 "same verdict")
def _delta_oracle(problem: FormulaProblem | ProtocolProblem, seed: int,
                  params: dict) -> OracleOutcome:
    """Verdict equivalence of the delta path against a fresh full solve.

    Anchors a :class:`repro.api.DeltaSession` on the problem, mutates it
    once (seeded by seed + problem identity, so reruns are deterministic
    in any process), solves the mutant through the session, and compares
    against a cold ``api.solve`` of the same mutant.  Both the warm-reuse
    path (delta-safe edits) and the fallback path (structural edits,
    protocol edits) flow through here — which path was taken is recorded
    in the detail, but *any* verdict difference is a disagreement
    regardless of path.
    """
    # Imported lazily: the fuzz runner imports this module while
    # repro.fuzz loads, so a module-level import here would cycle.
    from repro.fuzz.mutators import mutate_problem

    if isinstance(problem, ProtocolProblem):
        opts = _explore_budget(params)
    else:
        opts = {"symmetry": 0}
    identity = problem_identity(problem_to_json(problem))
    rng = random.Random(f"delta:{seed}:{identity}")
    mutated = mutate_problem(problem, rng)
    if mutated is None:
        new_problem, mutation = problem, "identity"
    else:
        new_problem, mutation = mutated
    session = DeltaSession(problem, **opts)
    delta_result = session.solve(new_problem)
    fresh = api_solve(new_problem, **opts)
    provenance = delta_result.detail.get("delta", {})
    return OracleOutcome(
        oracle="delta",
        agree=delta_result.verdict == fresh.verdict,
        detail={
            "mutation": mutation,
            "delta_path": provenance.get("path"),
            "delta_reason": provenance.get("reason"),
            "verdict_delta": delta_result.verdict.value,
            "verdict_fresh": fresh.verdict.value,
            "delta_seconds": round(
                delta_result.detail.get("solve_seconds", 0.0), 6),
            "fresh_seconds": round(
                fresh.detail.get("solve_seconds", 0.0), 6),
        },
    )


@register_oracle("engines", ProtocolProblem,
                 "synchronous vs asynchronous (fifo + random) convergence")
def _engines_oracle(problem: ProtocolProblem, seed: int,
                    params: dict) -> OracleOutcome:
    max_rounds = int(params.get("max_rounds", 300))
    max_messages = int(params.get("max_messages", 500000))
    network, policies = problem.network, problem.policies
    sync_engine = SynchronousEngine(network, list(problem.items), policies)
    sync = sync_engine.run(max_rounds=max_rounds)
    fifo_engine = AsynchronousEngine(
        network, list(problem.items), policies, scheduler="fifo")
    fifo = fifo_engine.run(max_messages=max_messages)
    random_engine = AsynchronousEngine(
        network, list(problem.items), policies,
        scheduler="random", seed=seed)
    rand = random_engine.run(max_messages=max_messages)
    # The campaign families generate sub-modular, honest policies, where
    # the paper guarantees convergence under *every* schedule — so every
    # engine must converge, not merely agree (three identical livelocks
    # would be a real bug, not agreement).  The final allocation may
    # legitimately differ between schedules (bids depend on bundle build
    # order), so the oracle requires the consensus predicate of each
    # converged state rather than allocation equality.
    verdicts = {
        "synchronous": sync.converged,
        "async_fifo": fifo.converged,
        "async_random": rand.converged,
    }
    consensus = {
        "synchronous": consensus_report(sync_engine.agents).consensus,
        "async_fifo": consensus_report(fifo_engine.agents).consensus,
        "async_random": consensus_report(random_engine.agents).consensus,
    }
    agree = all(verdicts.values()) and all(consensus.values())
    return OracleOutcome(
        oracle="engines",
        agree=agree,
        detail={
            **{f"converged_{k}": v for k, v in verdicts.items()},
            **{f"consensus_{k}": v for k, v in consensus.items()},
            "sync_rounds": sync.rounds,
            "fifo_messages": fifo.messages_processed,
            "random_messages": rand.messages_processed,
        },
    )
