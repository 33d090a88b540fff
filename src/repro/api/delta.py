"""Delta verification: warm re-solves of near-identical problems.

A production verification service re-checks streams of problems that
differ by one edit (a bid changes, one tuple leaves a bound).  Paying a
full translate+solve per re-check throws away everything the previous
query learned, so this module builds the warm path on one live
:class:`~repro.kodkod.engine.Session` per anchor:

* :func:`diff_problems` compares two problems structurally — formula
  trees via their codec trees (:mod:`repro.api.codec`), bounds
  tuple-by-tuple, protocol components via the codec's probed payload —
  and classifies the edit into a :class:`ProblemDelta`;
* :class:`DeltaSession` anchors a live solver on one problem and answers
  *delta-safe* variants (identical problem, bounds narrowed) through
  unit assumptions on that solver
  (:meth:`~repro.kodkod.engine.Session.assumptions_for`), reusing its
  learned clauses; a warm answer's instance passes the same goal check
  as every relational backend answer (:mod:`repro.api.backends`);
* :func:`solve_delta` is the façade spelling:
  ``solve_delta(prev, new_problem)`` with ``prev`` either a problem (a
  one-shot anchor) or a ``DeltaSession`` (an amortized chain).

The fallback contract is absolute: whenever the diff is not delta-safe —
the formula changed, the universe or relation set changed, a bound
widened, the problem kind changed, symmetry breaking is requested, a
non-default solver is forced, or an edited tuple has no variable in the
anchor translation — the new problem gets a fresh full solve through the
ordinary backend path, and the session re-anchors on it.  Either way the
verdict is exactly what a fresh :func:`repro.api.solve` would return;
the campaign's ``delta`` oracle checks that equivalence over mutated
spec pairs.  Every result is provenance-tagged in ``detail["delta"]``
(see :class:`repro.api.result.Result`).

.. warning::
   The warm path hard-wires ``symmetry=0``, mirroring the
   :class:`~repro.kodkod.engine.Session` caveat: the lex-leader
   predicate is a function of the anchor bounds, so answering a
   narrowed-bounds variant under the anchor's symmetry breaking could
   refute variants whose only models are non-canonical for the anchor.
   Requesting ``symmetry > 0`` therefore disables reuse entirely (every
   edited problem falls back to a fresh solve) — verdicts stay correct,
   only the speedup is lost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.api.backends import _checked_result, _relational_goal
from repro.api.codec import CodecError, formula_to_tree, problem_to_json
from repro.api.facade import solve as _facade_solve
from repro.api.options import Options, resolve_options
from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    problem_kind,
)
from repro.api.result import Result, Verdict
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.engine import Session, Solution

# Tuple edits travel as (relation name, arity, atoms) triples: plain data
# that survives the codec round trip and never relies on Relation object
# identity across two independently-built problems.
TupleEdit = tuple[str, int, tuple]

_open_lock = threading.Lock()
_open_sessions = 0


def open_session_count() -> int:
    """Live (constructed, not yet closed) :class:`DeltaSession` objects.

    The leak detector long-running hosts (the service's worker pool)
    assert against: every evicted or shut-down session must have been
    :meth:`~DeltaSession.close`\\ d, releasing its anchored solver.
    """
    with _open_lock:
        return _open_sessions


@dataclass(frozen=True)
class ProblemDelta:
    """Classification of the edit between two problems.

    ``kind`` is the edit taxonomy tag; ``delta_safe`` is True exactly for
    the kinds a live anchored solver can answer via assumptions:

    ==================  ==========  =====================================
    kind                delta-safe  meaning
    ==================  ==========  =====================================
    ``identical``       yes         no observable difference
    ``bounds_narrowed`` yes         only free tuples dropped from upper
                                    bounds and/or promoted into lower
                                    bounds
    ``bounds_widened``  no          a bound gained tuples the anchor
                                    translation has no variables for
    ``formula_changed`` no          the (lowered) goal trees differ
    ``universe_changed``no          atom list differs (order included)
    ``relations_chang\
ed``                   no          relation set differs by name/arity
    ``kind_changed``    no          relational vs protocol problem
    ``protocol_changed``no          protocol components differ
    ``unencodable``     no          a formula the codec cannot tree-ify
    ==================  ==========  =====================================
    """

    kind: str
    delta_safe: bool
    dropped: tuple[TupleEdit, ...] = ()
    promoted: tuple[TupleEdit, ...] = ()
    detail: dict = field(default_factory=dict)


def _bounds_map(bounds: Bounds) -> dict:
    return {
        (rel.name, rel.arity): (
            frozenset(tuple(t) for t in bounds.lower(rel)),
            frozenset(tuple(t) for t in bounds.upper(rel)),
        )
        for rel in bounds.relations()
    }


def _diff_relational(prev_goal: ast.Formula, prev_bounds: Bounds,
                     new_goal: ast.Formula,
                     new_bounds: Bounds) -> ProblemDelta:
    """Diff two lowered relational problems (goal formula + bounds)."""
    try:
        prev_tree = formula_to_tree(prev_goal)
        new_tree = formula_to_tree(new_goal)
    except CodecError as exc:
        return ProblemDelta("unencodable", False, detail={"error": str(exc)})
    if prev_tree != new_tree:
        return ProblemDelta("formula_changed", False)
    if tuple(prev_bounds.universe.atoms) != tuple(new_bounds.universe.atoms):
        return ProblemDelta("universe_changed", False, detail={
            "prev_atoms": len(prev_bounds.universe.atoms),
            "new_atoms": len(new_bounds.universe.atoms),
        })
    prev_map = _bounds_map(prev_bounds)
    new_map = _bounds_map(new_bounds)
    if set(prev_map) != set(new_map):
        return ProblemDelta("relations_changed", False, detail={
            "only_prev": sorted(n for n, _ in set(prev_map) - set(new_map)),
            "only_new": sorted(n for n, _ in set(new_map) - set(prev_map)),
        })
    dropped: list[TupleEdit] = []
    promoted: list[TupleEdit] = []
    widened = 0
    demoted = 0
    changed: set[str] = set()
    for (name, arity), (prev_lower, prev_upper) in sorted(prev_map.items()):
        new_lower, new_upper = new_map[(name, arity)]
        widened += len(new_upper - prev_upper)
        demoted += len(prev_lower - new_lower)
        for atoms in sorted(prev_upper - new_upper):
            dropped.append((name, arity, atoms))
            changed.add(name)
        for atoms in sorted(new_lower - prev_lower):
            promoted.append((name, arity, atoms))
            changed.add(name)
    if widened or demoted:
        # Widening needs variables the anchor translation never created
        # (new upper tuples) or constraints it baked in as constants
        # (demoted lower tuples): not expressible as assumptions.
        return ProblemDelta("bounds_widened", False, detail={
            "widened_upper": widened, "demoted_lower": demoted,
        })
    if not dropped and not promoted:
        return ProblemDelta("identical", True)
    return ProblemDelta(
        "bounds_narrowed", True,
        dropped=tuple(dropped), promoted=tuple(promoted),
        detail={"changed_relations": sorted(changed)},
    )


def diff_problems(prev: Problem, new: Problem) -> ProblemDelta:
    """Compare two problems and classify the edit between them.

    Module problems are lowered to their compiled goal formula + bounds
    first (exactly as the kodkod backend lowers them), so a
    ``FormulaProblem`` and a ``ModuleProblem`` that compile to the same
    goal diff as identical.  Protocol problems are compared through the
    codec's probed payload (topology, items, policy tables); they have no
    warm solver path, so only ``identical`` is delta-safe for them.
    """
    prev_group = problem_kind(prev)
    new_group = problem_kind(new)
    prev_relational = prev_group in ("formula", "module")
    new_relational = new_group in ("formula", "module")
    if prev_relational != new_relational:
        return ProblemDelta("kind_changed", False, detail={
            "prev_kind": prev_group, "new_kind": new_group,
        })
    if not prev_relational:
        try:
            same = problem_to_json(prev) == problem_to_json(new)
        except CodecError as exc:
            return ProblemDelta("unencodable", False,
                                detail={"error": str(exc)})
        if same:
            return ProblemDelta("identical", True)
        return ProblemDelta("protocol_changed", False)
    prev_goal, prev_bounds, _ = _relational_goal(prev, "delta")
    new_goal, new_bounds, _ = _relational_goal(new, "delta")
    return _diff_relational(prev_goal, prev_bounds, new_goal, new_bounds)


class DeltaSession:
    """An anchored delta-verification session over the façade.

    Construction solves the *anchor* problem (a cold solve) and, when the
    problem/options pair is warm-capable, keeps the translation and the
    live solver.  Each :meth:`solve` call diffs the incoming problem
    against the anchor: delta-safe edits are answered on the live solver
    through assumptions (``detail["delta"]["path"] == "reused"``), and
    everything else falls back to a fresh full solve *and re-anchors the
    session on the new problem* (``path == "fallback"``), so a chain of
    edits keeps a warm anchor as close as possible to the stream.

    Warm-capable means: a formula/module problem, ``options.solver`` in
    ``{None, "kodkod"}``, and ``options.symmetry`` in
    ``{None, 0}`` (the warm path always translates with ``symmetry=0``,
    which is verdict-preserving; see the module docstring warning).
    Protocol problems and foreign backends never reuse a solver, but an
    *identical* re-submission still reuses the anchor's stored result,
    unless that result is an ``ERROR``.
    """

    def __init__(self, problem: Problem, *, options: Options | None = None,
                 solve_anchor: bool = True, **overrides) -> None:
        self._opts = resolve_options(options, overrides)
        self._engine: Session | None = None
        self._anchor: Problem | None = None
        self._anchor_goal: ast.Formula | None = None
        self._anchor_bounds: Bounds | None = None
        self._result: Result | None = None
        self._closed = False
        self._anchor_solve(problem, path="cold", reason="anchor",
                           run_solve=solve_anchor)
        global _open_sessions
        with _open_lock:
            _open_sessions += 1

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed session cannot solve."""
        return self._closed

    def close(self) -> None:
        """Release the anchored engine session and its live solver.

        Idempotent.  Long-running hosts that cache sessions (the service
        worker pool's LRU) must close what they evict — dropping the
        reference alone leaves the solver's clause database alive until
        a GC cycle finds it.
        """
        global _open_sessions
        if self._closed:
            return
        self._closed = True
        self._engine = None
        self._anchor_goal = None
        self._anchor_bounds = None
        with _open_lock:
            _open_sessions -= 1

    def __enter__(self) -> "DeltaSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def options(self) -> Options:
        """The (immutable) options every solve in this session uses."""
        return self._opts

    @property
    def problem(self) -> Problem:
        """The current anchor problem (updated on every fallback)."""
        return self._anchor

    @property
    def result(self) -> Result | None:
        """The anchor's own solve result (None for an unsolved anchor)."""
        return self._result

    # ------------------------------------------------------------------
    # anchoring
    # ------------------------------------------------------------------

    def _in_tree(self) -> bool:
        """Whether the backend runs on a Session a warm query reproduces."""
        return self._opts.solver in (None, "kodkod")

    def _warm_capable(self, problem: Problem) -> bool:
        return (
            isinstance(problem, (FormulaProblem, ModuleProblem))
            and self._in_tree()
            and self._opts.symmetry in (None, 0)
        )

    def _anchor_solve(self, problem: Problem, *, path: str, reason: str,
                      run_solve: bool = True,
                      delta: ProblemDelta | None = None) -> Result | None:
        """(Re-)anchor on ``problem``; solve it fresh when requested."""
        self._anchor = problem
        self._engine = None
        self._anchor_goal = None
        self._anchor_bounds = None
        self._result = None
        if self._warm_capable(problem):
            goal, bounds, validity = _relational_goal(problem, "delta")
            started = time.perf_counter()
            self._engine = Session(goal, bounds, symmetry=0)
            self._anchor_goal = goal
            self._anchor_bounds = bounds
            if run_solve:
                solution = self._engine.solve()
                self._result = self._wrap_solution(
                    solution, validity, started,
                    self._provenance(path, reason, delta))
        elif run_solve:
            result = _facade_solve(problem, options=self._opts)
            result.detail["delta"] = self._provenance(path, reason, delta)
            self._result = result
        return self._result

    # ------------------------------------------------------------------
    # result construction
    # ------------------------------------------------------------------

    def _provenance(self, path: str, reason: str,
                    delta: ProblemDelta | None = None,
                    assumptions: int | None = None,
                    warm_solve_seconds: float | None = None) -> dict:
        block = {"path": path, "reason": reason}
        if delta is not None:
            block["dropped"] = len(delta.dropped)
            block["promoted"] = len(delta.promoted)
        if assumptions is not None:
            block["assumptions"] = assumptions
        if warm_solve_seconds is not None:
            block["warm_solve_seconds"] = round(warm_solve_seconds, 6)
        return block

    def _wrap_solution(self, solution: Solution, validity: bool,
                       started: float, provenance: dict) -> Result:
        # The instance comes from the anchor translation, whose relations
        # the anchor goal names; a delta-safe edit leaves the goal as is.
        result = _checked_result(
            self._engine, self._anchor_goal, validity,
            [solution.instance] if solution.satisfiable else [],
            started=started, backend=self._opts.solver or "kodkod")
        result.detail = {"solve_seconds": solution.solve_seconds,
                         "symmetry": 0,
                         "delta": provenance}
        return result

    # ------------------------------------------------------------------
    # the delta solve
    # ------------------------------------------------------------------

    def solve(self, new_problem: Problem) -> Result:
        """Decide ``new_problem``, warm when the diff allows it.

        Verdict-identical to a fresh ``repro.api.solve(new_problem,
        options=...)`` in every case; ``result.detail["delta"]`` records
        which path answered and why.
        """
        if self._closed:
            raise RuntimeError("DeltaSession is closed")
        started = time.perf_counter()
        if self._engine is not None and isinstance(
                new_problem, (FormulaProblem, ModuleProblem)):
            new_goal, new_bounds, new_validity = _relational_goal(
                new_problem, "delta")
            delta = _diff_relational(self._anchor_goal, self._anchor_bounds,
                                     new_goal, new_bounds)
            reason = delta.kind
            if delta.delta_safe:
                assumptions = self._engine.assumptions_for(
                    delta.dropped, delta.promoted)
                if assumptions is not None:
                    solution = self._engine.solve(assumptions)
                    return self._wrap_solution(
                        solution, new_validity, started,
                        self._provenance(
                            "reused", delta.kind, delta,
                            assumptions=len(assumptions),
                            warm_solve_seconds=solution.solve_seconds))
                # A narrowed tuple without an anchor variable (its
                # relation is unmentioned by the formula, so translation
                # never materialized it): fall back.
                reason = "untranslated_free_tuple"
        else:
            delta = diff_problems(self._anchor, new_problem)
            if delta.kind == "identical":
                if (self._result is not None
                        and self._result.verdict is not Verdict.ERROR):
                    # Same problem, same options: the stored verdict is
                    # the answer (protocol anchors have no solver to
                    # warm, but they do not need one here).  An error,
                    # such as a truncated search, is never reused.
                    reused = self._reused_anchor_result(delta)
                    reused.seconds = time.perf_counter() - started
                    return reused
                reason = "unsolved_anchor"
            elif self._opts.symmetry not in (None, 0) and delta.delta_safe:
                reason = "symmetry"
            elif not self._in_tree() and delta.delta_safe:
                reason = "foreign_backend"
            else:
                reason = delta.kind
        return self._anchor_solve(new_problem, path="fallback",
                                  reason=reason, delta=delta)

    def _reused_anchor_result(self, delta: ProblemDelta) -> Result:
        anchor = self._result
        return Result(
            verdict=anchor.verdict,
            instances=list(anchor.instances),
            trace=anchor.trace,
            stats=anchor.stats,
            solver_stats=dict(anchor.solver_stats),
            seconds=anchor.seconds,
            backend=anchor.backend,
            detail={**anchor.detail,
                    "delta": self._provenance("reused", delta.kind, delta)},
            error=anchor.error,
        )


def solve_delta(prev, new_problem, *, options: Options | None = None,
                **overrides) -> Result:
    """Decide ``new_problem``, reusing solver state from ``prev`` when safe.

    ``prev`` is either a :class:`DeltaSession` (the amortized spelling —
    options were fixed at session construction, so passing more here is
    an error) or a previously solved problem, which anchors a fresh
    throwaway session: the anchor is translated but not searched, and
    the single delta solve runs warm or falls back exactly as a session
    solve would.  A delta-safe edit (identical problem, free-tuple
    bounds narrowed) is answered by the anchored live solver through
    assumptions; any other edit (structure changed, bounds widened,
    symmetry requested) falls back to a fresh full solve.

    The verdict always equals a fresh ``solve(new_problem)``; see
    :mod:`repro.api.delta` for the delta-safe taxonomy and the fallback
    contract, and ``result.detail["delta"]`` for which path answered.
    """
    if isinstance(prev, DeltaSession):
        if options is not None or overrides:
            raise ValueError(
                "options are fixed when a DeltaSession is passed as prev; "
                "set them when constructing the session"
            )
        return prev.solve(new_problem)
    session = DeltaSession(prev, options=options, solve_anchor=False,
                           **overrides)
    return session.solve(new_problem)
