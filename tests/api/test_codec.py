"""Problem tree codec: round trips and the decoder's validity gate."""

import json
import sys

import pytest

from repro.alloylite.module import Module, Scope
from repro.api import codec
from repro.api.codec import CodecError, problem_fingerprint
from repro.api.problems import FormulaProblem, ModuleProblem, ProtocolProblem
from repro.fuzz.generators import FuzzSpec, generate
from repro.fuzz.runner import lift_module
from repro.kodkod import ast
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy, RebidStrategy, TableUtility


def _bounds_meaning(bounds) -> tuple:
    return (tuple(bounds.universe.atoms),
            sorted((rel.name, rel.arity, sorted(bounds.lower(rel)),
                    sorted(bounds.upper(rel)))
                   for rel in bounds.relations()))


def meaning(problem) -> tuple:
    """What a problem asks, read from its objects without the codec: a
    reference that a round trip must preserve.  Formulas by ``repr`` and
    bounds; modules by command, goal and their compiled universe, bounds
    and facts; protocols by topology, items, policy flags and every
    utility's marginals at each bundle-prefix size."""
    if isinstance(problem, FormulaProblem):
        return repr(problem.formula), _bounds_meaning(problem.bounds)
    if isinstance(problem, ModuleProblem):
        _, bounds, facts = problem.module.compile(problem.scope or Scope())
        return (problem.command, repr(problem.goal),
                _bounds_meaning(bounds), repr(facts))
    items = problem.items
    return (list(problem.network.agents()), list(problem.network.edges()),
            items,
            [(agent, policy.target, policy.release_outbid, policy.rebid,
              [[round(float(policy.utility.marginal(item, items[:size])), 6)
                for size in range(len(items) + 1)] for item in items])
             for agent, policy in sorted(problem.policies.items())])


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_formula_problems_round_trip(self, seed):
        problem = generate(FuzzSpec.make("formula", seed, size=4))
        payload = codec.problem_to_json(problem)
        json.dumps(payload)  # must be JSON-able
        rebuilt = codec.problem_from_json(payload)
        assert meaning(rebuilt) == meaning(problem)
        assert problem_fingerprint(rebuilt) == problem_fingerprint(problem)

    @pytest.mark.parametrize("seed", range(8))
    def test_protocol_problems_round_trip(self, seed):
        problem = generate(FuzzSpec.make("protocol", seed, size=4))
        payload = codec.problem_to_json(problem)
        json.dumps(payload)
        rebuilt = codec.problem_from_json(payload)
        assert meaning(rebuilt) == meaning(problem)
        assert problem_fingerprint(rebuilt) == problem_fingerprint(problem)

    def test_lifted_module_problems_round_trip(self):
        problem = lift_module(generate(FuzzSpec.make("module", 3, size=3)))
        rebuilt = codec.problem_from_json(codec.problem_to_json(problem))
        assert meaning(rebuilt) == meaning(problem)
        assert problem_fingerprint(rebuilt) == problem_fingerprint(problem)

    @pytest.mark.parametrize("seed", range(8))
    def test_module_problems_round_trip(self, seed):
        """Direct module encoding preserves the *compiled* universe,
        bounds and facts (so sigs, fields, implicit facts and the scope
        all survive the wire), the command and the goal; the
        fingerprint, a digest of the tree, follows."""
        problem = generate(FuzzSpec.make("module", seed, size=3))
        payload = codec.problem_to_json(problem)
        json.dumps(payload)  # must be JSON-able
        assert payload["kind"] == "module"
        rebuilt = codec.problem_from_json(payload)
        assert rebuilt.command == problem.command
        assert meaning(rebuilt) == meaning(problem)
        assert problem_fingerprint(rebuilt) == problem_fingerprint(problem)

    def test_declarations_the_generators_never_draw_round_trip(self):
        """An abstract sig with subsigs, a ``one`` sig, a field
        multiplicity and a rebid strategy other than honest: the
        generators draw none of them, so the reference is checked on a
        hand-built module and protocol."""
        module = Module("declared")
        base = module.sig("A", abstract=True)
        module.sig("B", parent=base)
        module.sig("C", parent=base)
        target = module.sig("D", is_one=True)
        base.field("f", target, mult="one")
        module.fact(base.relation.some())
        items = ("i0", "i1")
        table = {(item, size): 1.0 + size for item in items
                 for size in range(3)}
        problems = [
            ModuleProblem(module, scope=Scope(per_sig={"A": 4, "B": 2,
                                                       "C": 2})),
            ProtocolProblem(AgentNetwork.line(2), items, {
                0: AgentPolicy(TableUtility(table), target=2),
                1: AgentPolicy(TableUtility(table), target=1,
                               release_outbid=True,
                               rebid=RebidStrategy.ESCALATE)}),
        ]
        for problem in problems:
            rebuilt = codec.problem_from_json(codec.problem_to_json(problem))
            assert meaning(rebuilt) == meaning(problem)

    @pytest.mark.parametrize("seed", range(4))
    def test_module_round_trip_solves_identically(self, seed):
        from repro import api

        problem = generate(FuzzSpec.make("module", seed, size=2))
        rebuilt = codec.problem_from_json(codec.problem_to_json(problem))
        assert (api.solve(rebuilt).verdict
                == api.solve(problem).verdict)

    def test_module_facts_share_sig_relations(self):
        """Decoded fact/goal trees must reference the rebuilt module's own
        sig/field relation objects (compilation compares by identity)."""
        problem = generate(FuzzSpec.make("module", 3, size=3))
        rebuilt = codec.problem_from_json(codec.problem_to_json(problem))
        module_rels = {id(s.relation) for s in rebuilt.module.sigs}
        module_rels |= {id(f.relation) for s in rebuilt.module.sigs
                        for f in s.fields}
        names = {s.name for s in rebuilt.module.sigs}
        names |= {f.relation.name for s in rebuilt.module.sigs
                  for f in s.fields}
        trees = list(rebuilt.module.facts)
        if rebuilt.goal is not None:
            trees.append(rebuilt.goal)
        for formula in trees:
            for node in _walk_relations(formula):
                if node.name in names:
                    assert id(node) in module_rels

    def test_ordered_module_subclasses_are_rejected(self):
        from repro.alloylite import OrderedModule

        module = OrderedModule("ord")
        state = module.sig("State")
        module.ordering(state)

        with pytest.raises(CodecError, match="OrderedModule"):
            codec.problem_to_json(ModuleProblem(module))

    def test_relations_decode_to_shared_instances(self):
        """The same (name, arity) must decode to one Relation object —
        bounds and formulas compare relations by identity."""
        problem = generate(FuzzSpec.make("formula", 1, size=3))
        rebuilt = codec.problem_from_json(codec.problem_to_json(problem))
        bound_rels = {id(rel) for rel in rebuilt.bounds.relations()}
        # Every relation the formula mentions is the bounds' own object.
        assert all(id(node) in bound_rels
                   for node in _walk_relations(rebuilt.formula))


class TestMalformedTrees:
    def test_unknown_formula_tag(self):
        with pytest.raises(CodecError, match="unknown formula tag"):
            codec.problem_from_json({
                "kind": "formula",
                "formula": {"f": "xor"},
                "bounds": {"universe": ["a"], "relations": []},
            })

    def test_unknown_expression_tag(self):
        with pytest.raises(CodecError, match="unknown expression tag"):
            codec.problem_from_json({
                "kind": "formula",
                "formula": {"f": "some", "expr": {"e": "warp"}},
                "bounds": {"universe": ["a"], "relations": []},
            })

    def test_unknown_problem_kind(self):
        with pytest.raises(CodecError, match="unknown problem kind"):
            codec.problem_from_json({"kind": "haiku"})

    def test_module_with_undeclared_parent_sig(self):
        with pytest.raises(CodecError, match="undeclared sig"):
            codec.problem_from_json({
                "kind": "module",
                "sigs": [{"name": "B", "parent": "A",
                          "one": False, "abstract": False}],
                "fields": [], "facts": [],
                "command": "run", "goal": None, "scope": None,
            })

    def test_module_with_undeclared_field_column(self):
        with pytest.raises(CodecError, match="undeclared column sig"):
            codec.problem_from_json({
                "kind": "module",
                "sigs": [{"name": "A", "parent": None,
                          "one": False, "abstract": False}],
                "fields": [{"owner": "A", "name": "f",
                            "columns": ["Z"], "mult": "set"}],
                "facts": [],
                "command": "run", "goal": None, "scope": None,
            })

    def test_module_missing_sigs_key(self):
        with pytest.raises(CodecError, match="malformed module payload"):
            codec.problem_from_json({"kind": "module", "fields": []})

    def test_module_check_without_goal(self):
        """Problem-level validation surfaces as CodecError, mirroring the
        formula decoder's contract."""
        with pytest.raises(CodecError, match="requires a goal"):
            codec.problem_from_json({
                "kind": "module",
                "sigs": [{"name": "A", "parent": None,
                          "one": False, "abstract": False}],
                "fields": [], "facts": [],
                "command": "check", "goal": None, "scope": None,
            })

    def test_arity_mismatch_is_codec_error(self):
        tree = {"f": "subset",
                "left": {"e": "univ"},
                "right": {"e": "iden"}}
        with pytest.raises(CodecError):
            codec.problem_from_json({
                "kind": "formula", "formula": tree,
                "bounds": {"universe": ["a"], "relations": []},
            })

    def test_empty_conjunction_is_codec_error(self):
        with pytest.raises(CodecError, match="empty"):
            codec.problem_from_json({
                "kind": "formula",
                "formula": {"f": "and", "parts": []},
                "bounds": {"universe": ["a"], "relations": []},
            })

    def test_disconnected_protocol_is_codec_error(self):
        with pytest.raises(CodecError, match="malformed protocol"):
            codec.problem_from_json({
                "kind": "protocol",
                "agents": [0, 1, 2],
                "edges": [[0, 1]],
                "items": [],
                "policies": {},
            })


UNIV = {"e": "univ"}
R = {"e": "rel", "name": "r", "arity": 1}
BOUNDS = {"universe": ["a", "b"], "relations": [
    {"name": "r", "arity": 1, "lower": [], "upper": [["a"], ["b"]]}]}


def formula_tree(formula) -> dict:
    return {"kind": "formula", "formula": formula, "bounds": BOUNDS}


def some(expr) -> dict:
    return {"f": "some", "expr": expr}


def var(name: str) -> dict:
    return {"e": "var", "name": name}


def forall(decls: list, body: dict) -> dict:
    return {"f": "forall", "decls": decls, "body": body}


def module_tree(**changes) -> dict:
    tree = {"kind": "module", "name": "m",
            "sigs": [{"name": "A", "parent": None, "one": False,
                      "abstract": False}],
            "fields": [], "facts": [], "command": "run", "goal": None,
            "scope": None}
    return {**tree, **changes}


def protocol_tree(**changes) -> dict:
    tree = {"kind": "protocol", "agents": [0, 1], "edges": [[0, 1]],
            "items": ["i0"],
            "policies": {str(agent): {"target": 1, "release_outbid": False,
                                      "rebid": "honest",
                                      "table": [["i0", 0, 1.0]]}
                         for agent in (0, 1)}}
    return {**tree, **changes}


class TestValidityGate:
    """``problem_from_json`` returns a problem whose formulas a backend
    can translate or raises :class:`CodecError`, never another
    exception."""

    def test_the_valid_trees_below_decode(self):
        for tree in (formula_tree(some(R)), module_tree(),
                     protocol_tree()):
            codec.problem_from_json(tree)

    @pytest.mark.parametrize("tree", [
        [], "x", 3, None,
        formula_tree([]),
        formula_tree(some(["rel", "r"])),
        formula_tree({"f": "and", "parts": {"0": {"f": "true"}}}),
        {**formula_tree(some(R)), "bounds": []},
        {**formula_tree(some(R)), "bounds": {**BOUNDS,
                                             "universe": ["a", "b", 1]}},
        formula_tree({"f": "card_eq", "expr": R, "count": float("inf")}),
        module_tree(sigs=[["A"]]),
        module_tree(facts={"f": "true"}),
        module_tree(scope={"default": 3, "per_sig": [["A", 2]]}),
        protocol_tree(policies=[]),
        protocol_tree(policies={"0": []}),
        protocol_tree(items=["i0", 1]),
    ], ids=repr)
    def test_a_node_of_the_wrong_json_type(self, tree):
        with pytest.raises(CodecError):
            codec.problem_from_json(tree)

    def test_a_tree_nested_past_the_recursion_limit(self):
        formula = {"f": "true"}
        for _ in range(sys.getrecursionlimit()):
            formula = {"f": "not", "inner": formula}
        with pytest.raises(CodecError, match="recursion"):
            codec.problem_from_json(formula_tree(formula))

    def test_relation_names_are_strings(self):
        """Like atoms, so the canonical tree can sort them."""
        bounds = {**BOUNDS, "relations": [{**BOUNDS["relations"][0],
                                           "name": 5}]}
        with pytest.raises(CodecError, match="must be a string"):
            codec.problem_from_json(
                {"kind": "formula", "formula": {"f": "true"},
                 "bounds": bounds})

    def test_a_goal_over_an_unbounded_relation(self):
        with pytest.raises(CodecError, match="s/1, which its bounds do not"):
            codec.problem_from_json(formula_tree(
                some({"e": "rel", "name": "s", "arity": 1})))

    def test_relations_are_matched_by_name_and_arity(self):
        with pytest.raises(CodecError, match="r/2"):
            codec.problem_from_json(formula_tree(
                some({"e": "rel", "name": "r", "arity": 2})))

    @pytest.mark.parametrize("where", ["facts", "goal"])
    def test_a_module_formula_over_an_undeclared_relation(self, where):
        ghost = some({"e": "rel", "name": "ghost", "arity": 1})
        tree = module_tree(**{where: [ghost] if where == "facts" else ghost})
        with pytest.raises(CodecError,
                           match="ghost/1, which no sig or field declares"):
            codec.problem_from_json(tree)

    def test_a_module_formula_may_name_its_sigs_and_fields(self):
        tree = module_tree(
            fields=[{"owner": "A", "name": "f", "columns": ["A"],
                     "mult": "set"}],
            facts=[some({"e": "rel", "name": "A", "arity": 1})],
            goal=some({"e": "rel", "name": "A.f", "arity": 2}))
        problem = codec.problem_from_json(tree)
        assert codec.problem_to_json(problem) == tree

    def test_a_variable_no_quantifier_binds(self):
        with pytest.raises(CodecError, match="variable 'y' is not bound"):
            codec.problem_from_json(formula_tree(
                forall([["x", UNIV]], some(var("y")))))

    def test_a_domain_sees_only_the_variables_declared_before_it(self):
        codec.problem_from_json(formula_tree(
            forall([["x", R], ["y", var("x")]], some(var("y")))))
        with pytest.raises(CodecError, match="variable 'y'"):
            codec.problem_from_json(formula_tree(
                forall([["x", var("y")], ["y", R]], some(var("x")))))

    def test_a_variable_is_unbound_outside_its_quantifier(self):
        bound = forall([["x", R]], some(var("x")))
        codec.problem_from_json(formula_tree(bound))
        with pytest.raises(CodecError, match="variable 'x'"):
            codec.problem_from_json(formula_tree(
                {"f": "and", "parts": [bound, some(var("x"))]}))

    def test_a_comprehension_binds_its_variables(self):
        compr = {"e": "compr", "decls": [["x", R]], "body": some(var("x"))}
        codec.problem_from_json(formula_tree(some(compr)))
        with pytest.raises(CodecError, match="variable 'x'"):
            codec.problem_from_json(formula_tree(
                {"f": "and", "parts": [some(compr), some(var("x"))]}))


def _walk_relations(node):
    if isinstance(node, ast.Relation):
        yield node
        return
    for attr in ("left", "right", "inner", "expr", "cond", "then_expr",
                 "else_expr", "body"):
        child = getattr(node, attr, None)
        if child is not None and isinstance(child, (ast.Expr, ast.Formula)):
            yield from _walk_relations(child)
    for part in getattr(node, "parts", ()) or ():
        yield from _walk_relations(part)
    for _, domain in getattr(node, "decls", ()) or ():
        yield from _walk_relations(domain)
