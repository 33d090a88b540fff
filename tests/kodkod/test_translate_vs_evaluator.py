"""Property test: SAT-based model finding agrees with ground evaluation.

For random small formulas and bounds, the set of instances found by the
translator+solver must be exactly the set of instances (enumerated by brute
force over the bounds) on which the ground evaluator says the formula holds.
This cross-validates the entire kodkod pipeline against its reference
semantics.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.evaluator import Evaluator, brute_force_instances
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

    def expr(depth) -> ast.Expr:
        choices = ["r", "s", "univ"]
        if depth > 0:
            choices += ["union", "inter", "diff", "join_edge"]
        kind = draw(st.sampled_from(choices))
        if kind == "r":
            return r_un
        if kind == "s":
            return s_un
        if kind == "univ":
            return ast.Univ()
        if kind == "join_edge":
            return ast.Join(expr(depth - 1), edge)
        left, right = expr(depth - 1), expr(depth - 1)
        if kind == "union":
            return ast.Union(left, right)
        if kind == "inter":
            return ast.Intersection(left, right)
        return ast.Difference(left, right)

    def formula(depth) -> ast.Formula:
        choices = ["some", "no", "one", "lone", "subset", "eq"]
        if depth > 0:
            choices += ["and", "or", "not", "forall", "exists"]
        kind = draw(st.sampled_from(choices))
        if kind == "some":
            return ast.Some(expr(1))
        if kind == "no":
            return ast.No(expr(1))
        if kind == "one":
            return ast.One(expr(1))
        if kind == "lone":
            return ast.Lone(expr(1))
        if kind == "subset":
            return ast.Subset(expr(1), expr(1))
        if kind == "eq":
            return ast.Equal(expr(1), expr(1))
        if kind == "and":
            return ast.And([formula(depth - 1), formula(depth - 1)])
        if kind == "or":
            return ast.Or([formula(depth - 1), formula(depth - 1)])
        if kind == "not":
            return ast.Not(formula(depth - 1))
        var = x if kind == "forall" else y
        body_expr = ast.Join(var, edge) if draw(st.booleans()) else r_un
        body = draw(
            st.sampled_from(
                [
                    ast.Some(body_expr),
                    ast.Subset(var, r_un),
                    ast.No(ast.Intersection(var, s_un)),
                ]
            )
        )
        if kind == "forall":
            return ast.ForAll([(var, ast.Univ())], body)
        return ast.Exists([(var, ast.Univ())], body)

    return formula(2), bounds


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
