"""Deterministic counterexample shrinking (delta debugging).

When an oracle disagrees (or a fault is injected), the raw input is
usually a page of operator soup.  :func:`shrink` minimizes it while
re-checking the failure predicate at every step: candidates are generated
in a fixed order, the first *strictly smaller* candidate that still fails
is accepted, and the loop repeats until a full candidate pass yields
nothing — so shrinking is deterministic, monotonically decreasing in
size, and idempotent (shrinking a shrunk input accepts zero steps).

Size is measured by :func:`problem_size`: formula-tree nodes plus free
tuples for relational problems, agents plus items for protocols.  Module
problems are first *lifted* to their compiled formula (the runner does
the same before checking them), so one candidate engine covers all
three kinds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    ProtocolProblem,
)
from repro.fuzz import codec
from repro.fuzz.codec import CodecError
from repro.fuzz.mutators import (
    free_tuples,
    same_arity_leaves,
    without_agent,
    without_item,
    without_last_atom,
    without_part,
    without_tuple,
)

DEFAULT_MAX_CHECKS = 400


def problem_size(problem: Problem) -> int:
    """The shrinker's size metric (smaller is simpler).

    Formula problems: tagged tree nodes plus free (undetermined) tuples.
    Protocol problems: agents plus items.  Module problems: the size of
    their compiled formula problem.
    """
    if isinstance(problem, ModuleProblem):
        from repro.fuzz.runner import lift_module

        return problem_size(lift_module(problem))
    if isinstance(problem, FormulaProblem):
        return (codec.tree_size(codec.formula_to_tree(problem.formula))
                + problem.bounds.free_tuple_count())
    if isinstance(problem, ProtocolProblem):
        return len(problem.network.agents()) + len(problem.items)
    raise ValueError(f"not a façade problem: {type(problem).__name__}")


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    problem: Problem
    size_before: int
    size_after: int
    steps: list[tuple[str, int]] = field(default_factory=list)
    """Accepted reductions as (label, size after acceptance) pairs."""
    checks: int = 0
    """Failure-predicate invocations spent."""
    exhausted: bool = False
    """True when the check budget ran out before reaching a fixpoint."""

    @property
    def reduced(self) -> bool:
        """Whether any reduction was accepted."""
        return bool(self.steps)


def shrink(problem: Problem, still_fails: Callable[[Problem], bool], *,
           max_checks: int = DEFAULT_MAX_CHECKS) -> ShrinkResult:
    """Minimize ``problem`` while ``still_fails`` keeps returning True.

    ``still_fails`` must treat a crashing candidate however the caller
    wants failures treated (the runner's predicates catch exceptions and
    return False for candidates that stop exhibiting the original
    failure).  The input problem itself is assumed to fail; it is
    returned unchanged when no smaller failing candidate exists.
    """
    if isinstance(problem, ModuleProblem):
        from repro.fuzz.runner import lift_module

        lifted = lift_module(problem)
        if still_fails(lifted):
            problem = lifted
    size_before = problem_size(problem)
    current = problem
    current_size = size_before
    steps: list[tuple[str, int]] = []
    checks = 0
    exhausted = False
    progress = True
    while progress:
        progress = False
        for label, candidate in _candidates(current):
            if checks >= max_checks:
                exhausted = True
                break
            try:
                candidate_size = problem_size(candidate)
            except (CodecError, ValueError):
                continue
            if candidate_size >= current_size:
                continue
            checks += 1
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = False
            if failing:
                current = candidate
                current_size = candidate_size
                steps.append((label, candidate_size))
                progress = True
                break
        if exhausted:
            break
    return ShrinkResult(
        problem=current,
        size_before=size_before,
        size_after=current_size,
        steps=steps,
        checks=checks,
        exhausted=exhausted,
    )


# ----------------------------------------------------------------------
# Candidate generation (deterministic order, most aggressive first).
#
# The structural edits come from repro.fuzz.mutators: the mutator draws
# ONE at random, the shrinker enumerates EVERY one in a fixed,
# aggressiveness-ordered sequence.
# ----------------------------------------------------------------------


def _candidates(problem: Problem) -> Iterator[tuple[str, Problem]]:
    if isinstance(problem, FormulaProblem):
        yield from _formula_candidates(problem)
    elif isinstance(problem, ProtocolProblem):
        yield from _protocol_candidates(problem)


def _decode_formula(tree: dict, bounds: dict) -> Problem | None:
    try:
        return codec.problem_from_json(
            {"kind": "formula", "formula": tree, "bounds": bounds})
    except CodecError:
        return None


def _formula_candidates(problem: FormulaProblem
                        ) -> Iterator[tuple[str, Problem]]:
    payload = codec.problem_to_json(problem)
    tree = payload["formula"]
    bounds = payload["bounds"]

    def emit(label: str, new_tree: dict,
             new_bounds: dict) -> Iterator[tuple[str, Problem]]:
        candidate = _decode_formula(new_tree, new_bounds)
        if candidate is not None:
            yield label, candidate

    # 1. Collapse the whole formula to a constant.
    for const in ({"f": "true"}, {"f": "false"}):
        yield from emit(f"root->{const['f']}", const, bounds)

    subtrees = list(codec.iter_subtrees(tree))

    # 2. Hoist any closed proper subformula to the root (big cuts first:
    #    pre-order puts shallow subtrees before deep ones).
    for path, node in subtrees:
        if path and "f" in node and not codec.has_unbound_vars(node):
            yield from emit("hoist", node, bounds)

    # 3. Drop one part of each conjunction/disjunction.
    for path, node in subtrees:
        if node.get("f") in ("and", "or") and len(node["parts"]) >= 2:
            for index in range(len(node["parts"])):
                yield from emit("drop-part",
                                without_part(tree, path, node, index), bounds)

    # 4. Replace subformulas with constants.
    for path, node in subtrees:
        if path and "f" in node and node["f"] not in ("true", "false"):
            for const in ({"f": "true"}, {"f": "false"}):
                new_tree = codec.replace_at(tree, path, const)
                yield from emit(f"formula->{const['f']}", new_tree, bounds)

    # 5. Unwrap negations.
    for path, node in subtrees:
        if node.get("f") == "not":
            new_tree = codec.replace_at(tree, path, node["inner"])
            yield from emit("unwrap-not", new_tree, bounds)

    # 6. Replace composite expressions with same-arity leaves.
    for path, node in subtrees:
        if "e" in node and node["e"] not in ("rel", "var", "univ", "iden",
                                             "none"):
            try:
                leaves = same_arity_leaves(node, bounds)
            except CodecError:
                continue
            for leaf in leaves[:2]:
                new_tree = codec.replace_at(tree, path, leaf)
                yield from emit("expr->leaf", new_tree, bounds)

    # 7. Drop unused relations from the bounds entirely.
    used = {
        (node["name"], node["arity"])
        for _, node in subtrees if node.get("e") == "rel"
    }
    for index, entry in enumerate(bounds["relations"]):
        if (entry["name"], entry["arity"]) not in used and entry["upper"]:
            new_bounds = json.loads(json.dumps(bounds))
            new_bounds["relations"][index]["lower"] = []
            new_bounds["relations"][index]["upper"] = []
            yield from emit("clear-unused-relation", tree, new_bounds)

    # 8. Drop the last atom of the universe.
    if len(bounds["universe"]) >= 2:
        yield from emit("drop-atom", tree, without_last_atom(bounds))

    # 9. Drop individual free tuples from upper bounds.
    for index, tup in free_tuples(bounds):
        yield from emit("drop-tuple", tree, without_tuple(bounds, index, tup))


def _protocol_candidates(problem: ProtocolProblem
                         ) -> Iterator[tuple[str, Problem]]:
    agents = problem.network.agents()

    # 1. Drop each agent (skip candidates that disconnect the network).
    if len(agents) > 1:
        for victim in agents:
            try:
                candidate = without_agent(problem, victim)
            except ValueError:
                continue
            yield "drop-agent", candidate

    # 2. Drop each item.
    for victim in problem.items:
        yield "drop-item", without_item(problem, victim)
