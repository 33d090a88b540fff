"""Problem tree codec: round trips, tree utilities, script emission."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.alloylite.module import Module, Scope
from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    ProtocolProblem,
    problem_fingerprint,
)
from repro.fuzz import codec
from repro.fuzz.codec import CodecError
from repro.fuzz.generators import FuzzSpec, generate
from repro.fuzz.runner import lift_module
from repro.kodkod import ast
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy, RebidStrategy, TableUtility

SRC = Path(__file__).resolve().parents[2] / "src"


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
        from repro.api.problems import ModuleProblem

        with pytest.raises(CodecError, match="OrderedModule"):
            codec.problem_to_json(ModuleProblem(module))

    def test_relations_decode_to_shared_instances(self):
        """The same (name, arity) must decode to one Relation object —
        bounds and formulas compare relations by identity."""
        problem = generate(FuzzSpec.make("formula", 1, size=3))
        rebuilt = codec.problem_from_json(codec.problem_to_json(problem))
        formula_rels = {
            id(node) for node in _walk_relations(rebuilt.formula)
        }
        bound_rels = {id(rel) for rel in rebuilt.bounds.relations()}
        # Every relation the formula mentions is the bounds' own object.
        names_in_bounds = {rel.name for rel in rebuilt.bounds.relations()}
        for node in _walk_relations(rebuilt.formula):
            if node.name in names_in_bounds:
                assert id(node) in bound_rels


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


class TestTreeUtilities:
    def _tree(self):
        formula = ast.And([
            ast.Some(ast.Union(ast.Relation("r", 1), ast.Univ())),
            ast.Not(ast.No(ast.Relation("r", 1))),
        ])
        return codec.formula_to_tree(formula)

    def test_iter_subtrees_visits_every_node(self):
        tags = [node.get("f") or node.get("e")
                for _, node in codec.iter_subtrees(self._tree())]
        assert tags == ["and", "some", "union", "rel", "univ", "not", "no",
                        "rel"]

    def test_replace_at_is_non_destructive(self):
        tree = self._tree()
        replaced = codec.replace_at(tree, ("parts", 1), {"f": "true"})
        assert replaced["parts"][1] == {"f": "true"}
        assert tree["parts"][1]["f"] == "not"

    def test_subtree_at_inverts_paths(self):
        tree = self._tree()
        for path, node in codec.iter_subtrees(tree):
            assert codec.subtree_at(tree, path) is node

    def test_tree_arity_mirrors_ast_rules(self):
        cases = [
            ({"e": "iden"}, 2),
            ({"e": "none", "arity": 3}, 3),
            ({"e": "product", "left": {"e": "univ"},
              "right": {"e": "iden"}}, 3),
            ({"e": "join", "left": {"e": "univ"}, "right": {"e": "iden"}}, 1),
            ({"e": "compr", "decls": [["x", {"e": "univ"}]],
              "body": {"f": "true"}}, 1),
        ]
        for tree, expected in cases:
            assert codec.tree_arity(tree) == expected

    def test_has_unbound_vars(self):
        bound = codec.formula_to_tree(
            ast.Exists([(ast.Variable("x"), ast.Univ())],
                       ast.Some(ast.Variable("x"))))
        assert not codec.has_unbound_vars(bound)
        dangling = codec.formula_to_tree(ast.Some(ast.Variable("x")))
        assert codec.has_unbound_vars(dangling)

    def test_tree_size_counts_tagged_nodes(self):
        assert codec.tree_size({"f": "true"}) == 1
        assert codec.tree_size(self._tree()) == 8


class TestScriptEmission:
    def test_script_mentions_oracle_and_embeds_problem(self):
        problem = generate(FuzzSpec.make("formula", 2, size=2))
        payload = codec.problem_to_json(problem)
        script = codec.problem_to_script(payload, "encodings",
                                         label="unit test", seed=4)
        assert "encodings" in script
        assert "unit test" in script
        assert "problem_from_json" in script

    def test_script_runs_standalone_and_exits_zero_when_agreeing(
            self, tmp_path):
        problem = generate(FuzzSpec.make("formula", 2, size=2))
        payload = codec.problem_to_json(problem)
        path = tmp_path / "reproducer.py"
        path.write_text(codec.problem_to_script(
            payload, "encodings", filename=path.name), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(path)],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "agree: True" in proc.stdout

    def test_script_with_fault_reproduces_disagreement(self, tmp_path):
        problem = codec.problem_from_json({
            "kind": "formula",
            "formula": {"f": "and", "parts": [{"f": "true"}, {"f": "true"}]},
            "bounds": {"universe": ["a0"], "relations": []},
        })
        payload = codec.problem_to_json(problem)
        path = tmp_path / "reproducer.py"
        path.write_text(codec.problem_to_script(
            payload, "encodings", fault="conjunction", filename=path.name),
            encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(path)],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "agree: False" in proc.stdout


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
