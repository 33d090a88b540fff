"""The fuzzer's tree toolkit: walks, edits, arity, size, scripts, re-exports."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import codec as api_codec
from repro.fuzz import codec
from repro.fuzz.generators import FuzzSpec, generate
from repro.kodkod import ast

SRC = Path(__file__).resolve().parents[2] / "src"


class TestReExports:
    @pytest.mark.parametrize("name", [
        "CodecError", "formula_to_tree", "problem_from_json",
        "problem_to_json"])
    def test_moved_names_are_the_api_codec_objects(self, name):
        """Repro scripts and the benchmark's wrappers address these names
        here; they must be the façade codec's own objects."""
        assert getattr(codec, name) is getattr(api_codec, name)


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
