"""Property test: SAT-based model finding agrees with ground evaluation.

For random small formulas and bounds, the set of instances found by the
translator+solver must be exactly the set of instances (enumerated by brute
force over the bounds) on which the ground evaluator says the formula holds.
This cross-validates the entire kodkod pipeline against its reference
semantics.  Every drawn formula nests quantifiers, re-binds variables and
reuses one subterm object under different bindings: the cases where the
translator's per-binding subterm cache must pick the right entry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.evaluator import Evaluator, brute_force_instances
from repro.kodkod.translate import Translator
from repro.kodkod.universe import Universe

ATOMS = ["a", "b", "c"]


@st.composite
def random_problems(draw):
    universe = Universe(ATOMS)
    r_un = ast.Relation("r", 1)
    s_un = ast.Relation("s", 1)
    edge = ast.Relation("edge", 2)
    bounds = Bounds(universe)
    # Keep the search space small: r, s over all atoms; edge over a sampled
    # upper bound.
    bounds.bound(r_un, universe.empty(1), universe.all_tuples(1))
    bounds.bound(s_un, universe.empty(1), universe.all_tuples(1))
    upper_pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ATOMS), st.sampled_from(ATOMS)),
            min_size=0,
            max_size=4,
            unique=True,
        )
    )
    bounds.bound(edge, universe.empty(2), universe.tuple_set(2, upper_pairs))

    x = ast.Variable("x")
    y = ast.Variable("y")
    shared: list[ast.Expr] = []

    def expr(depth, scope) -> ast.Expr:
        choices = ["r", "s", "univ"]
        if scope:
            choices.append("var")
        if x in scope:
            choices.append("shared")
        if depth > 0:
            choices += ["union", "inter", "diff", "join_edge", "ite", "compr"]
        kind = draw(st.sampled_from(choices))
        if kind == "r":
            return r_un
        if kind == "s":
            return s_un
        if kind == "univ":
            return ast.Univ()
        if kind == "var":
            return draw(st.sampled_from(scope))
        if kind == "shared":
            # One subterm object over x, reused wherever x is bound: its
            # uses differ in the bindings of the other variables.
            if not shared:
                shared.append(draw(st.sampled_from([
                    ast.Join(x, edge),
                    ast.Union(x, s_un),
                    ast.Join(ast.Join(x, edge), edge),
                ])))
            return shared[0]
        if kind == "join_edge":
            return ast.Join(expr(depth - 1, scope), edge)
        if kind == "ite":
            return ast.IfExpr(formula(0, scope), expr(depth - 1, scope),
                              expr(depth - 1, scope))
        if kind == "compr":
            var = draw(st.sampled_from([x, y]))
            return ast.Comprehension([(var, ast.Univ())],
                                     formula(0, scope + [var]))
        left, right = expr(depth - 1, scope), expr(depth - 1, scope)
        if kind == "union":
            return ast.Union(left, right)
        if kind == "inter":
            return ast.Intersection(left, right)
        return ast.Difference(left, right)

    def formula(depth, scope) -> ast.Formula:
        choices = ["some", "no", "one", "lone", "subset", "eq"]
        if depth > 0:
            choices += ["and", "or", "not", "forall", "exists"]
        kind = draw(st.sampled_from(choices))
        if kind == "some":
            return ast.Some(expr(1, scope))
        if kind == "no":
            return ast.No(expr(1, scope))
        if kind == "one":
            return ast.One(expr(1, scope))
        if kind == "lone":
            return ast.Lone(expr(1, scope))
        if kind == "subset":
            return ast.Subset(expr(1, scope), expr(1, scope))
        if kind == "eq":
            return ast.Equal(expr(1, scope), expr(1, scope))
        if kind == "and":
            return ast.And([formula(depth - 1, scope),
                            formula(depth - 1, scope)])
        if kind == "or":
            return ast.Or([formula(depth - 1, scope),
                           formula(depth - 1, scope)])
        if kind == "not":
            return ast.Not(formula(depth - 1, scope))
        # A nested binder may re-bind a variable already in scope.
        var = draw(st.sampled_from([x, y]))
        return quantified(kind, var, scope, formula(depth - 1, scope + [var]))

    def quantified(kind, var, scope, body) -> ast.Formula:
        # The domain may use a variable bound further out.
        domain = draw(st.sampled_from(
            [ast.Univ(), r_un] + [ast.Join(v, edge) for v in scope]))
        if kind == "forall":
            return ast.ForAll([(var, domain)], body)
        return ast.Exists([(var, domain)], body)

    # The root binds x and then y, and the body recurses under both, so
    # every problem has subterms translated under bindings they use only
    # in part.
    kinds = st.sampled_from(["forall", "exists"])
    body = formula(2, [x, y])
    inner = quantified(draw(kinds), y, [x], body)
    return quantified(draw(kinds), x, [], inner), bounds


class TestPipelineAgainstEvaluator:
    @given(random_problems())
    @settings(max_examples=40, deadline=None)
    def test_solutions_match_brute_force(self, problem):
        formula, bounds = problem

        def key(instance):
            return tuple(
                (rel.name, frozenset(instance.value_of(rel)))
                for rel in sorted(bounds.relations(), key=lambda r: r.name)
            )

        found = api.enumerate(formula, bounds).instances
        sat_instances = {key(i) for i in found}
        expected = {
            key(i)
            for i in brute_force_instances(bounds)
            if Evaluator(i).check(formula)
        }
        assert sat_instances == expected


class TestUnboundVariables:
    """An unbound variable is reported the same way wherever it occurs,
    including under quantifiers whose subterms get cache keys."""

    @staticmethod
    def _translate(formula):
        universe = Universe(ATOMS)
        bounds = Bounds(universe)
        bounds.bound(ast.Relation("r", 1), universe.empty(1),
                     universe.all_tuples(1))
        return Translator(bounds).translate(formula)

    def test_at_top_level(self):
        z = ast.Variable("z")
        with pytest.raises(ValueError, match="unbound variable 'z'"):
            self._translate(ast.Some(z))

    def test_under_one_quantifier(self):
        y, z = ast.Variable("y"), ast.Variable("z")
        with pytest.raises(ValueError, match="unbound variable 'z'"):
            self._translate(ast.ForAll([(y, ast.Univ())], ast.Some(z)))

    def test_under_two_quantifiers_over_other_variables(self):
        x, y, z = ast.Variable("x"), ast.Variable("y"), ast.Variable("z")
        formula = ast.ForAll([(y, ast.Univ())], ast.ForAll(
            [(z, ast.Univ())], ast.Some(ast.Join(x, ast.Iden()))))
        with pytest.raises(ValueError, match="unbound variable 'x'"):
            self._translate(formula)
