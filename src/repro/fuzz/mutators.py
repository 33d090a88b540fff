"""Structural mutations and coverage signals: corpus evolution.

The fuzz loop is coverage-guided: inputs that light up behaviour nobody
has seen yet (a new gate-histogram bucket, a new solver-restart bucket, a
new explorer-path bucket) enter the corpus, and later generations *mutate*
corpus members instead of always drawing fresh random inputs.  Mutations
are structural and small — swap one operator, drop one conjunct, remove
one agent — so a mutant explores the immediate neighbourhood of an input
that already proved interesting.

Mutations operate on the portable trees of :mod:`repro.api.codec` (for
formula problems) or directly on the protocol components, and every mutant
is validated by decoding back into a real :mod:`repro.api` problem — a
mutation that produces an ill-formed tree is discarded, never shipped to
an oracle.  The edits both this module and the shrinker
(:mod:`repro.fuzz.shrink`) make are defined once, below: a mutation
draws one at random, the shrinker tries each in a fixed order.
"""

from __future__ import annotations

import json
import random

from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    ProtocolProblem,
)
from repro.fuzz import codec
from repro.fuzz.codec import CodecError
from repro.mca.network import AgentNetwork

FORMULA_MUTATIONS = (
    "swap_operator",
    "drop_part",
    "negate",
    "hoist_subformula",
    "replace_expr_with_leaf",
    "replace_formula_with_const",
    "drop_free_tuple",
    "promote_lower_tuple",
    "drop_atom",
)

PROTOCOL_MUTATIONS = (
    "drop_agent",
    "drop_item",
    "lower_target",
    "perturb_bids",
)

# Operator swap partners: structurally compatible tags only.
_SWAPS = {
    "and": ("or",),
    "or": ("and",),
    "union": ("inter", "diff"),
    "inter": ("union", "diff"),
    "diff": ("union", "inter"),
    "some": ("no", "one", "lone"),
    "no": ("some", "one", "lone"),
    "one": ("some", "no", "lone"),
    "lone": ("some", "no", "one"),
    "subset": ("equal",),
    "equal": ("subset",),
    "forall": ("exists",),
    "exists": ("forall",),
    "card_eq": ("card_ge",),
    "card_ge": ("card_eq",),
    "transpose": ("closure",),
    "closure": ("transpose",),
}


# ----------------------------------------------------------------------
# Structural edits shared with the shrinker
# ----------------------------------------------------------------------


def without_part(tree: dict, path: tuple, node: dict, index: int) -> dict:
    """``tree`` without part ``index`` of the and/or ``node`` at ``path``."""
    parts = list(node["parts"])
    parts.pop(index)
    return codec.replace_at(tree, path, {"f": node["f"], "parts": parts})


def same_arity_leaves(node: dict, bounds: dict) -> list[dict]:
    """Each bounded relation of ``node``'s arity, then ``none`` (raises
    :class:`CodecError` when ``node`` has no arity)."""
    arity = codec.tree_arity(node)
    leaves = [{"e": "rel", "name": entry["name"], "arity": arity}
              for entry in bounds["relations"] if entry["arity"] == arity]
    leaves.append({"e": "none", "arity": arity})
    return leaves


def without_last_atom(bounds: dict) -> dict:
    """``bounds`` without the last atom and every tuple naming it."""
    dropped = bounds["universe"][-1]
    new_bounds = json.loads(json.dumps(bounds))
    new_bounds["universe"] = bounds["universe"][:-1]
    for entry in new_bounds["relations"]:
        entry["lower"] = [t for t in entry["lower"] if dropped not in t]
        entry["upper"] = [t for t in entry["upper"] if dropped not in t]
    return new_bounds


def free_tuples(bounds: dict) -> list[tuple[int, list]]:
    """``(relation index, tuple)`` of each upper-bound tuple not in the
    lower bound."""
    return [(index, tup) for index, entry in enumerate(bounds["relations"])
            for tup in entry["upper"] if tup not in entry["lower"]]


def without_tuple(bounds: dict, index: int, tup: list) -> dict:
    """``bounds`` without ``tup`` in relation ``index``'s upper bound."""
    new_bounds = json.loads(json.dumps(bounds))
    entry = new_bounds["relations"][index]
    entry["upper"] = [t for t in entry["upper"] if t != tup]
    return new_bounds


def without_agent(problem: ProtocolProblem, victim) -> ProtocolProblem:
    """``problem`` without agent ``victim``; ValueError when that
    disconnects the network."""
    survivors = [a for a in problem.network.agents() if a != victim]
    edges = [e for e in problem.network.edges() if victim not in e]
    network = AgentNetwork(edges, nodes=survivors)
    policies = {a: p for a, p in problem.policies.items() if a != victim}
    return ProtocolProblem(network, problem.items, policies)


def without_item(problem: ProtocolProblem, victim) -> ProtocolProblem:
    """``problem`` without item ``victim``."""
    items = tuple(i for i in problem.items if i != victim)
    return ProtocolProblem(problem.network, items, problem.policies)


# ----------------------------------------------------------------------
# Random mutation
# ----------------------------------------------------------------------


def mutate_problem(problem: Problem,
                   rng: random.Random) -> tuple[Problem, str] | None:
    """One random structural mutation of a problem.

    Returns ``(mutant, mutation name)``, or ``None`` when no applicable
    mutation produced a well-formed mutant after a bounded number of
    draws.  Module problems are not mutated directly — the runner lowers
    them to their compiled formula first (see
    :func:`repro.fuzz.runner.lift_module`).
    """
    if isinstance(problem, ModuleProblem):
        return None
    if isinstance(problem, ProtocolProblem):
        pool = list(PROTOCOL_MUTATIONS)
        apply = _apply_protocol_mutation
    else:
        pool = list(FORMULA_MUTATIONS)
        apply = _apply_formula_mutation
    for _ in range(8):
        name = pool[rng.randrange(len(pool))]
        try:
            mutant = apply(problem, name, rng)
        except (CodecError, ValueError, KeyError):
            mutant = None
        if mutant is not None:
            return mutant, name
    return None


# ----------------------------------------------------------------------
# Formula mutations (on codec trees)
# ----------------------------------------------------------------------


def _apply_formula_mutation(problem: FormulaProblem, name: str,
                            rng: random.Random) -> FormulaProblem | None:
    payload = codec.problem_to_json(problem)
    tree = payload["formula"]
    bounds = payload["bounds"]

    if name == "swap_operator":
        candidates = [
            (path, node) for path, node in codec.iter_subtrees(tree)
            if (node.get("f") or node.get("e")) in _SWAPS
        ]
        if not candidates:
            return None
        path, node = candidates[rng.randrange(len(candidates))]
        tag_key = "f" if "f" in node else "e"
        partners = _SWAPS[node[tag_key]]
        swapped = dict(node)
        swapped[tag_key] = partners[rng.randrange(len(partners))]
        new_tree = codec.replace_at(tree, path, swapped)

    elif name == "drop_part":
        candidates = [
            (path, node) for path, node in codec.iter_subtrees(tree)
            if node.get("f") in ("and", "or") and len(node["parts"]) >= 2
        ]
        if not candidates:
            return None
        path, node = candidates[rng.randrange(len(candidates))]
        new_tree = without_part(tree, path, node,
                                rng.randrange(len(node["parts"])))

    elif name == "negate":
        candidates = [(path, node) for path, node in codec.iter_subtrees(tree)
                      if "f" in node]
        path, node = candidates[rng.randrange(len(candidates))]
        if node.get("f") == "not":
            new_tree = codec.replace_at(tree, path, node["inner"])
        else:
            new_tree = codec.replace_at(tree, path, {"f": "not", "inner": node})

    elif name == "hoist_subformula":
        candidates = [
            node for path, node in codec.iter_subtrees(tree)
            if path and "f" in node and not codec.has_unbound_vars(node)
        ]
        if not candidates:
            return None
        new_tree = candidates[rng.randrange(len(candidates))]

    elif name == "replace_expr_with_leaf":
        candidates = [
            (path, node) for path, node in codec.iter_subtrees(tree)
            if "e" in node and node["e"] not in ("rel", "var", "univ", "iden",
                                                 "none")
        ]
        if not candidates:
            return None
        path, node = candidates[rng.randrange(len(candidates))]
        new_tree = codec.replace_at(
            tree, path, same_arity_leaves(node, bounds)[0])

    elif name == "replace_formula_with_const":
        candidates = [(path, node) for path, node in codec.iter_subtrees(tree)
                      if "f" in node]
        path, _node = candidates[rng.randrange(len(candidates))]
        const = {"f": "true"} if rng.random() < 0.5 else {"f": "false"}
        new_tree = codec.replace_at(tree, path, const)

    elif name in ("drop_free_tuple", "promote_lower_tuple"):
        free = free_tuples(bounds)
        if not free:
            return None
        index, tup = free[rng.randrange(len(free))]
        if name == "drop_free_tuple":
            bounds = without_tuple(bounds, index, tup)
        else:
            bounds = json.loads(json.dumps(bounds))
            entry = bounds["relations"][index]
            entry["lower"] = sorted(entry["lower"] + [tup])
        new_tree = tree

    elif name == "drop_atom":
        if len(bounds["universe"]) < 2:
            return None
        bounds = without_last_atom(bounds)
        new_tree = tree

    else:  # pragma: no cover - guarded by FORMULA_MUTATIONS
        raise ValueError(f"unknown formula mutation {name!r}")

    mutant = codec.problem_from_json(
        {"kind": "formula", "formula": new_tree, "bounds": bounds})
    return mutant


# ----------------------------------------------------------------------
# Protocol mutations (on the components directly)
# ----------------------------------------------------------------------


def _apply_protocol_mutation(problem: ProtocolProblem, name: str,
                             rng: random.Random) -> ProtocolProblem | None:
    agents = problem.network.agents()

    if name == "drop_agent":
        if len(agents) <= 2:
            return None
        # A disconnecting drop raises ValueError, and the caller retries
        # with another mutation.
        return without_agent(problem, agents[rng.randrange(len(agents))])

    if name == "drop_item":
        if not problem.items:
            return None
        return without_item(
            problem, problem.items[rng.randrange(len(problem.items))])

    if name == "lower_target":
        candidates = [a for a in agents if problem.policies[a].target > 1]
        if not candidates:
            return None
        victim = candidates[rng.randrange(len(candidates))]
        policies = dict(problem.policies)
        old = policies[victim]
        policies[victim] = type(old)(
            utility=old.utility, target=old.target - 1,
            release_outbid=old.release_outbid, rebid=old.rebid)
        return ProtocolProblem(problem.network, problem.items, policies)

    if name == "perturb_bids":
        # Re-encode through the codec (probing utilities into explicit
        # tables) and scale one agent's whole table: order-preserving, so
        # the sub-modular shape — and oracle applicability — survives.
        payload = codec.problem_to_json(problem)
        keys = sorted(payload["policies"])
        victim = keys[rng.randrange(len(keys))]
        factor = rng.choice([0.5, 0.9, 1.1, 2.0])
        entry = payload["policies"][victim]
        entry["table"] = [
            [item, size, round(value * factor, 6)]
            for item, size, value in entry["table"]
        ]
        return codec.problem_from_json(payload)

    raise ValueError(f"unknown protocol mutation {name!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Coverage signals
# ----------------------------------------------------------------------


def coverage_signature(oracle: str, detail: dict) -> tuple[str, ...]:
    """Cheap behavioural signature of one oracle run.

    Every numeric field of the oracle's detail dict (gate counts, clause
    counts, solver conflict/restart totals, explorer path counts, ...)
    is collapsed into its power-of-two bucket; booleans and short strings
    pass through.  Two runs with the same signature exercised the stack
    in roughly the same way; a run producing any *new* signature element
    earns its input a corpus slot.
    """
    points: list[str] = []
    for key in sorted(detail):
        value = detail[key]
        if isinstance(value, bool):
            points.append(f"{oracle}:{key}={value}")
        elif isinstance(value, (int, float)):
            magnitude = int(abs(value))
            points.append(f"{oracle}:{key}~{magnitude.bit_length()}")
        elif isinstance(value, str) and len(value) <= 32:
            points.append(f"{oracle}:{key}={value}")
        elif isinstance(value, dict):
            for sub_key in sorted(value):
                sub = value[sub_key]
                if isinstance(sub, (int, float)) and not isinstance(sub, bool):
                    magnitude = int(abs(sub))
                    points.append(
                        f"{oracle}:{key}.{sub_key}~{magnitude.bit_length()}")
    return tuple(points)
