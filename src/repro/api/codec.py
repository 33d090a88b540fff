"""Problem trees: the one wire form, identity and validity gate of a problem.

The frozen :mod:`repro.api` problem objects (identity-compared relations,
live utility objects) do not serialize or compare structurally, so this
module maps them onto plain JSON-able trees and back:

* formulas become tagged dict trees (``{"f": "and", "parts": [...]}``),
  with relations referenced by (name, arity) and re-materialized as one
  shared :class:`~repro.kodkod.ast.Relation` instance per name — the
  identity discipline :class:`~repro.kodkod.bounds.Bounds` relies on;
* protocol problems record topology, items and policies, with every
  utility *probed* into an explicit bundle-size table
  (:class:`~repro.mca.policies.TableUtility`), which reproduces the
  generated ``GeometricUtility``/``TableUtility`` behaviours exactly
  (both depend only on bundle size);
* module problems record their declarations (sigs, fields, facts) plus
  the command/goal/scope, and decode to a fingerprint-identical
  :class:`~repro.api.problems.ModuleProblem`; decoded fact and goal
  trees share the rebuilt module's sig/field relation *instances*, the
  identity discipline compilation relies on.

The tree is a problem's one identity (:func:`problem_fingerprint`, the
key of the batch cache, the service's job ids and its journal), the
verification service's submission format, and the fuzzer's corpus and
repro-script format.  Decoding is the one validity gate:
:func:`problem_from_json` returns a problem whose formulas a backend can
translate or raises :class:`CodecError`.  It does no work that grows
with the numbers a tree holds, so a module's scope is compiled only when
the problem is solved, and a scope that does not compile is an error
result there.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

from repro.alloylite.module import Module, Scope
from repro.alloylite.sig import Sig
from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    ProtocolProblem,
)
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.universe import Universe
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy, RebidStrategy, TableUtility


class CodecError(ValueError):
    """Raised on trees that do not describe a well-formed problem."""


_MALFORMED = (AttributeError, KeyError, OverflowError, RecursionError,
              TypeError, ValueError)
"""What reading a tree node of the wrong shape or JSON type raises."""


# ----------------------------------------------------------------------
# Formula <-> tree
# ----------------------------------------------------------------------

_BINARY_EXPRS: dict[str, Callable] = {
    "union": ast.Union,
    "inter": ast.Intersection,
    "diff": ast.Difference,
    "product": ast.Product,
    "join": ast.Join,
}

_UNARY_EXPRS: dict[str, Callable] = {
    "transpose": ast.Transpose,
    "closure": ast.Closure,
}

_CMP_FORMULAS: dict[str, Callable] = {
    "subset": ast.Subset,
    "equal": ast.Equal,
}

_MULT_FORMULAS: dict[str, Callable] = {
    "some": ast.Some,
    "no": ast.No,
    "one": ast.One,
    "lone": ast.Lone,
}

_CARD_FORMULAS: dict[str, Callable] = {
    "card_eq": ast.CardinalityEq,
    "card_ge": ast.CardinalityGe,
}

_NARY_FORMULAS: dict[str, Callable] = {
    "and": ast.And,
    "or": ast.Or,
}

_QUANT_FORMULAS: dict[str, Callable] = {
    "forall": ast.ForAll,
    "exists": ast.Exists,
}


def expr_to_tree(expr: ast.Expr) -> dict:
    """Encode an expression as a tagged JSON-able tree."""
    if isinstance(expr, ast.Relation):
        return {"e": "rel", "name": expr.name, "arity": expr.arity}
    if isinstance(expr, ast.Variable):
        return {"e": "var", "name": expr.name}
    if isinstance(expr, ast.Univ):
        return {"e": "univ"}
    if isinstance(expr, ast.Iden):
        return {"e": "iden"}
    if isinstance(expr, ast.NoneExpr):
        return {"e": "none", "arity": expr.arity}
    for tag, cls in _BINARY_EXPRS.items():
        if type(expr) is cls:
            return {"e": tag, "left": expr_to_tree(expr.left),
                    "right": expr_to_tree(expr.right)}
    for tag, cls in _UNARY_EXPRS.items():
        if type(expr) is cls:
            return {"e": tag, "inner": expr_to_tree(expr.inner)}
    if isinstance(expr, ast.IfExpr):
        return {"e": "ite", "cond": formula_to_tree(expr.cond),
                "then": expr_to_tree(expr.then_expr),
                "else": expr_to_tree(expr.else_expr)}
    if isinstance(expr, ast.Comprehension):
        return {"e": "compr",
                "decls": [[v.name, expr_to_tree(d)] for v, d in expr.decls],
                "body": formula_to_tree(expr.body)}
    raise CodecError(f"cannot encode expression {type(expr).__name__}")


def formula_to_tree(formula: ast.Formula) -> dict:
    """Encode a formula as a tagged JSON-able tree."""
    if isinstance(formula, ast.TrueF):
        return {"f": "true"}
    if isinstance(formula, ast.FalseF):
        return {"f": "false"}
    for tag, cls in _CMP_FORMULAS.items():
        if type(formula) is cls:
            return {"f": tag, "left": expr_to_tree(formula.left),
                    "right": expr_to_tree(formula.right)}
    for tag, cls in _MULT_FORMULAS.items():
        if type(formula) is cls:
            return {"f": tag, "expr": expr_to_tree(formula.expr)}
    for tag, cls in _CARD_FORMULAS.items():
        if type(formula) is cls:
            return {"f": tag, "expr": expr_to_tree(formula.expr),
                    "count": formula.count}
    if isinstance(formula, ast.Not):
        return {"f": "not", "inner": formula_to_tree(formula.inner)}
    for tag, cls in _NARY_FORMULAS.items():
        if type(formula) is cls:
            return {"f": tag,
                    "parts": [formula_to_tree(p) for p in formula.parts]}
    for tag, cls in _QUANT_FORMULAS.items():
        if type(formula) is cls:
            return {"f": tag,
                    "decls": [[v.name, expr_to_tree(d)]
                              for v, d in formula.decls],
                    "body": formula_to_tree(formula.body)}
    raise CodecError(f"cannot encode formula {type(formula).__name__}")


def _tag(tree, key: str):
    if not isinstance(tree, dict):
        raise CodecError(
            f"a tree node must be an object, got {type(tree).__name__}")
    return tree.get(key)


def _strings(value, what: str) -> list:
    """Atoms and items are strings: the tree sorts atoms, the engine items."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise CodecError(f"{what} must be a list of strings")
    return value


class _Decoder:
    """Rebuilds AST objects with one shared instance per relation/variable.

    A formula may name only relations registered before it is decoded
    (``unregistered`` says why another is missing) and only variables
    an enclosing quantifier or comprehension binds.
    """

    def __init__(self, unregistered: str) -> None:
        self._relations: dict[tuple[str, int], ast.Relation] = {}
        self._variables: dict[str, ast.Variable] = {}
        self._bound: frozenset[str] = frozenset()
        self._unregistered = unregistered

    def register(self, name: str, arity: int) -> ast.Relation:
        """The one relation a bounds entry names."""
        if not isinstance(name, str):
            raise CodecError(f"relation name must be a string, got {name!r}")
        key = (name, int(arity))
        if key not in self._relations:
            self._relations[key] = ast.Relation(name, int(arity))
        return self._relations[key]

    def seed_relation(self, relation: ast.Relation) -> None:
        """Pre-register an existing relation instance under its key.

        The module decoder seeds the rebuilt module's sig/field relations
        here, so decoded fact trees reference those exact objects —
        bounds and facts must share relation identity for compilation.
        """
        self._relations[(relation.name, relation.arity)] = relation

    def relation(self, name: str, arity: int) -> ast.Relation:
        try:
            return self._relations[(name, int(arity))]
        except KeyError:
            raise CodecError(
                f"the problem names relation {name}/{arity}, which "
                f"{self._unregistered}") from None

    def variable(self, name: str) -> ast.Variable:
        if name not in self._bound:
            raise CodecError(
                f"variable {name!r} is not bound by any quantifier")
        return self._variables[name]

    def _binding(self, tree: dict, make: Callable):
        """``make(decls, body)`` for a quantifier or comprehension: each
        domain sees the variables declared before it, the body all."""
        outer = self._bound
        decls = []
        for name, domain in tree["decls"]:
            if name not in self._variables:
                self._variables[name] = ast.Variable(name)
            decls.append((self._variables[name], self.expr(domain)))
            self._bound = self._bound | {name}
        body = self.formula(tree["body"])
        self._bound = outer
        return make(decls, body)

    def expr(self, tree: dict) -> ast.Expr:
        tag = _tag(tree, "e")
        try:
            if tag == "rel":
                return self.relation(tree["name"], tree["arity"])
            if tag == "var":
                return self.variable(tree["name"])
            if tag == "univ":
                return ast.Univ()
            if tag == "iden":
                return ast.Iden()
            if tag == "none":
                return ast.NoneExpr(int(tree["arity"]))
            if tag in _BINARY_EXPRS:
                return _BINARY_EXPRS[tag](self.expr(tree["left"]),
                                          self.expr(tree["right"]))
            if tag in _UNARY_EXPRS:
                return _UNARY_EXPRS[tag](self.expr(tree["inner"]))
            if tag == "ite":
                return ast.IfExpr(self.formula(tree["cond"]),
                                  self.expr(tree["then"]),
                                  self.expr(tree["else"]))
            if tag == "compr":
                return self._binding(tree, ast.Comprehension)
        except CodecError:
            raise
        except _MALFORMED as exc:
            raise CodecError(f"malformed expression tree {tag!r}: {exc}") from exc
        raise CodecError(f"unknown expression tag {tag!r}")

    def formula(self, tree: dict) -> ast.Formula:
        tag = _tag(tree, "f")
        try:
            if tag == "true":
                return ast.TrueF()
            if tag == "false":
                return ast.FalseF()
            if tag in _CMP_FORMULAS:
                return _CMP_FORMULAS[tag](self.expr(tree["left"]),
                                          self.expr(tree["right"]))
            if tag in _MULT_FORMULAS:
                return _MULT_FORMULAS[tag](self.expr(tree["expr"]))
            if tag in _CARD_FORMULAS:
                return _CARD_FORMULAS[tag](self.expr(tree["expr"]),
                                           int(tree["count"]))
            if tag == "not":
                return ast.Not(self.formula(tree["inner"]))
            if tag in _NARY_FORMULAS:
                parts = [self.formula(p) for p in tree["parts"]]
                if not parts:
                    raise CodecError(f"empty {tag!r} parts")
                return _NARY_FORMULAS[tag](parts)
            if tag in _QUANT_FORMULAS:
                return self._binding(tree, _QUANT_FORMULAS[tag])
        except CodecError:
            raise
        except _MALFORMED as exc:
            raise CodecError(f"malformed formula tree {tag!r}: {exc}") from exc
        raise CodecError(f"unknown formula tag {tag!r}")


# ----------------------------------------------------------------------
# Problem <-> JSON
# ----------------------------------------------------------------------


def _bounds_to_json(bounds: Bounds) -> dict:
    return {
        "universe": list(bounds.universe.atoms),
        "relations": [
            {
                "name": rel.name,
                "arity": rel.arity,
                "lower": sorted(list(t) for t in bounds.lower(rel)),
                "upper": sorted(list(t) for t in bounds.upper(rel)),
            }
            for rel in sorted(bounds.relations(), key=lambda r: (r.name, r.arity))
        ],
    }


def _bounds_from_json(payload: dict, decoder: _Decoder) -> Bounds:
    try:
        universe = Universe(_strings(payload["universe"], "universe"))
        bounds = Bounds(universe)
        for entry in payload["relations"]:
            rel = decoder.register(entry["name"], entry["arity"])
            lower = universe.tuple_set(
                rel.arity, [tuple(t) for t in entry["lower"]])
            upper = universe.tuple_set(
                rel.arity, [tuple(t) for t in entry["upper"]])
            bounds.bound(rel, lower, upper)
    except CodecError:
        raise
    except _MALFORMED as exc:
        raise CodecError(f"malformed bounds payload: {exc}") from exc
    return bounds


def _probed_table(policy: AgentPolicy, items: tuple) -> list[list]:
    """Probe a policy's utility into an explicit (item, size) table.

    Exact for every utility whose marginal depends only on the bundle
    *size* (the generated ``GeometricUtility``/``TableUtility`` shapes):
    probing with an item-prefix bundle of each size recovers the whole
    function.
    """
    rows = []
    for item in items:
        for size in range(len(items) + 1):
            bundle = list(items[:size])
            if len(bundle) < size:
                break
            value = policy.utility.marginal(item, bundle)
            if value:
                rows.append([item, size, round(float(value), 6)])
    return rows


def _module_to_json(problem: ModuleProblem) -> dict:
    module = problem.module
    if type(module) is not Module:
        # Subclasses (e.g. OrderedModule) may bound extra relations during
        # compile; re-encoding them as a plain declaration list would
        # silently drop that, breaking the fingerprint-preserving
        # guarantee.  Refuse instead.
        raise CodecError(
            f"cannot encode {type(module).__name__}; only plain Module "
            f"declarations have a faithful tree form"
        )
    sigs = []
    fields = []
    for sig in module.sigs:
        sigs.append({
            "name": sig.name,
            "parent": sig.parent.name if sig.parent is not None else None,
            "one": sig.is_one,
            "abstract": sig.abstract,
        })
        for fld in sig.fields:
            columns = []
            for col in fld.columns:
                if not isinstance(col, Sig):
                    raise CodecError(
                        f"cannot encode field {sig.name}.{fld.name}: "
                        f"non-sig column {type(col).__name__}"
                    )
                columns.append(col.name)
            fields.append({
                "owner": sig.name,
                "name": fld.name,
                "columns": columns,
                "mult": fld.mult,
            })
    scope = problem.scope
    return {
        "kind": "module",
        "name": module.name,
        "sigs": sigs,
        "fields": fields,
        "facts": [formula_to_tree(f) for f in module.facts],
        "command": problem.command,
        "goal": (formula_to_tree(problem.goal)
                 if problem.goal is not None else None),
        "scope": ({"default": scope.default,
                   "per_sig": dict(scope.per_sig)}
                  if scope is not None else None),
    }


def _module_from_json(payload: dict) -> ModuleProblem:
    try:
        decoder = _Decoder("no sig or field declares")
        module = Module(payload.get("name", "module"))
        sig_map: dict[str, Sig] = {}
        for entry in payload["sigs"]:
            parent_name = entry.get("parent")
            if parent_name is not None and parent_name not in sig_map:
                raise CodecError(
                    f"sig {entry['name']!r} extends undeclared sig "
                    f"{parent_name!r} (parents must be declared first)"
                )
            sig = module.sig(
                entry["name"],
                parent=(sig_map[parent_name] if parent_name is not None
                        else None),
                is_one=bool(entry.get("one", False)),
                abstract=bool(entry.get("abstract", False)),
            )
            sig_map[sig.name] = sig
            decoder.seed_relation(sig.relation)
        for entry in payload["fields"]:
            owner = sig_map.get(entry["owner"])
            if owner is None:
                raise CodecError(
                    f"field {entry['name']!r} owned by undeclared sig "
                    f"{entry['owner']!r}"
                )
            try:
                columns = [sig_map[name] for name in entry["columns"]]
            except KeyError as exc:
                raise CodecError(
                    f"field {entry['owner']}.{entry['name']} references "
                    f"undeclared column sig {exc.args[0]!r}"
                ) from exc
            fld = owner.field(entry["name"], *columns, mult=entry["mult"])
            decoder.seed_relation(fld.relation)
        for tree in payload.get("facts", []):
            module.fact(decoder.formula(tree))
        goal_tree = payload.get("goal")
        goal = decoder.formula(goal_tree) if goal_tree is not None else None
        scope_payload = payload.get("scope")
        scope = (Scope(int(scope_payload["default"]),
                       {str(name): int(count) for name, count
                        in scope_payload.get("per_sig", {}).items()})
                 if scope_payload is not None else None)
        return ModuleProblem(module, payload.get("command", "run"), goal,
                             scope)
    except CodecError:
        raise
    except _MALFORMED as exc:
        raise CodecError(f"malformed module payload: {exc}") from exc


def problem_to_json(problem: Problem) -> dict:
    """Encode a formula, module or protocol problem as a JSON payload."""
    if isinstance(problem, ModuleProblem):
        return _module_to_json(problem)
    if isinstance(problem, FormulaProblem):
        return {
            "kind": "formula",
            "formula": formula_to_tree(problem.formula),
            "bounds": _bounds_to_json(problem.bounds),
        }
    if isinstance(problem, ProtocolProblem):
        return {
            "kind": "protocol",
            "agents": list(problem.network.agents()),
            "edges": [list(e) for e in problem.network.edges()],
            "items": list(problem.items),
            "policies": {
                str(agent): {
                    "target": policy.target,
                    "release_outbid": policy.release_outbid,
                    "rebid": policy.rebid.value,
                    "table": _probed_table(policy, problem.items),
                }
                for agent, policy in sorted(problem.policies.items())
            },
        }
    raise CodecError(f"cannot encode {type(problem).__name__}")


def problem_from_json(payload: dict) -> Problem:
    """Rebuild a problem from :func:`problem_to_json` output, or raise
    :class:`CodecError` for a tree whose formulas no backend could
    translate (a module's scope is left to the solve, see above)."""
    kind = _tag(payload, "kind")
    if kind == "module":
        return _module_from_json(payload)
    if kind == "formula":
        decoder = _Decoder("its bounds do not bound")
        bounds = _bounds_from_json(payload.get("bounds"), decoder)
        return FormulaProblem(decoder.formula(payload.get("formula")), bounds)
    if kind == "protocol":
        try:
            network = AgentNetwork(
                (tuple(e) for e in payload["edges"]),
                nodes=payload["agents"],
            )
            items = tuple(_strings(payload["items"], "items"))
            policies = {}
            for agent, entry in payload["policies"].items():
                table = {
                    (item, int(size)): float(value)
                    for item, size, value in entry["table"]
                }
                policies[int(agent)] = AgentPolicy(
                    utility=TableUtility(table),
                    target=int(entry["target"]),
                    release_outbid=bool(entry.get("release_outbid", False)),
                    rebid=RebidStrategy(entry.get("rebid", "honest")),
                )
            return ProtocolProblem(network, items, policies)
        except CodecError:
            raise
        except _MALFORMED as exc:
            raise CodecError(f"malformed protocol payload: {exc}") from exc
    raise CodecError(f"unknown problem kind {kind!r}")


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------


def problem_identity(payload: dict) -> str:
    """Canonical JSON string of a problem payload (cache-key material)."""
    return json.dumps(payload, sort_keys=True)


def problem_fingerprint(problem: Problem) -> str:
    """The problem's identity: the sha256 of its canonical codec tree.

    The tree is :func:`problem_to_json`, the form the service journals,
    satellites decode and :func:`~repro.api.diff_problems` compares.
    Formulas and bounds are identified by their tagged trees and tuple
    sets, modules by their declarations, command, goal and scope.
    Protocols are identified by topology, items and policies, with each
    utility probed at every bundle size: identity is exact for every
    utility whose marginal depends only on bundle size, which covers
    every utility the wire can carry and every one the in-tree
    generators build.  A problem with no tree form (an
    ``OrderedModule``, say) raises :class:`CodecError`.
    """
    return tree_fingerprint(problem_to_json(problem))


def tree_fingerprint(tree: dict) -> str:
    """:func:`problem_fingerprint` of the problem a codec tree encodes,
    for callers that already hold the tree."""
    return hashlib.sha256(problem_identity(tree).encode()).hexdigest()
