"""Property tests: algebraic laws of relational logic survive translation.

Each law is checked semantically: the equivalence formula must be VALID
within bounds (its negation UNSAT).  This catches translation bugs that
pointwise unit tests miss (e.g. wrong column order in joins).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.kodkod import Bounds, Universe, ast

ATOMS = ["a", "b", "c"]


def _bounds():
    u = Universe(ATOMS)
    r = ast.Relation("r", 2)
    s = ast.Relation("s", 2)
    t = ast.Relation("t", 1)
    b = Bounds(u)
    b.bound(r, u.empty(2), u.all_tuples(2))
    b.bound(s, u.empty(2), u.all_tuples(2))
    b.bound(t, u.empty(1), u.all_tuples(1))
    return u, b, r, s, t


def assert_valid(formula, bounds):
    assert not api.solve(ast.Not(formula), bounds).satisfiable


class TestBooleanLaws:
    def test_de_morgan_over_subsets(self):
        u, b, r, s, t = _bounds()
        f1 = ast.Not(ast.And([r.some(), s.some()]))
        f2 = ast.Or([ast.Not(r.some()), ast.Not(s.some())])
        assert_valid(f1.iff(f2), b)

    def test_double_negation(self):
        u, b, r, s, t = _bounds()
        assert_valid(ast.Not(ast.Not(r.some())).iff(r.some()), b)

    def test_implication_as_disjunction(self):
        u, b, r, s, t = _bounds()
        f1 = r.some().implies(s.some())
        f2 = ast.Or([ast.Not(r.some()), s.some()])
        assert_valid(f1.iff(f2), b)


class TestRelationalLaws:
    def test_union_commutative(self):
        u, b, r, s, t = _bounds()
        assert_valid(ast.Equal(ast.Union(r, s), ast.Union(s, r)), b)

    def test_intersection_idempotent(self):
        u, b, r, s, t = _bounds()
        assert_valid(ast.Equal(ast.Intersection(r, r), r), b)

    def test_difference_of_self_empty(self):
        u, b, r, s, t = _bounds()
        assert_valid(ast.No(ast.Difference(r, r)), b)

    def test_transpose_involution(self):
        u, b, r, s, t = _bounds()
        assert_valid(ast.Equal(ast.Transpose(ast.Transpose(r)), r), b)

    def test_transpose_distributes_over_union(self):
        u, b, r, s, t = _bounds()
        assert_valid(
            ast.Equal(ast.Transpose(ast.Union(r, s)),
                      ast.Union(ast.Transpose(r), ast.Transpose(s))),
            b,
        )

    def test_closure_idempotent(self):
        u, b, r, s, t = _bounds()
        assert_valid(
            ast.Equal(ast.Closure(ast.Closure(r)), ast.Closure(r)), b
        )

    def test_closure_contains_relation(self):
        u, b, r, s, t = _bounds()
        assert_valid(ast.Subset(r, ast.Closure(r)), b)

    def test_join_associates_with_composition(self):
        u, b, r, s, t = _bounds()
        lhs = ast.Join(ast.Join(t, r), s)
        rhs = ast.Join(t, ast.Join(r, s))
        assert_valid(ast.Equal(lhs, rhs), b)

    def test_join_distributes_over_union(self):
        u, b, r, s, t = _bounds()
        lhs = ast.Join(t, ast.Union(r, s))
        rhs = ast.Union(ast.Join(t, r), ast.Join(t, s))
        assert_valid(ast.Equal(lhs, rhs), b)

    def test_iden_is_join_identity(self):
        u, b, r, s, t = _bounds()
        assert_valid(ast.Equal(ast.Join(r, ast.Iden()), r), b)
        assert_valid(ast.Equal(ast.Join(ast.Iden(), r), r), b)

    def test_subset_antisymmetry(self):
        u, b, r, s, t = _bounds()
        both = ast.And([ast.Subset(r, s), ast.Subset(s, r)])
        assert_valid(both.implies(ast.Equal(r, s)), b)


class TestMultiplicityLaws:
    def test_one_implies_some_and_lone(self):
        u, b, r, s, t = _bounds()
        assert_valid(t.one().implies(ast.And([t.some(), t.lone()])), b)

    def test_no_iff_not_some(self):
        u, b, r, s, t = _bounds()
        assert_valid(t.no().iff(ast.Not(t.some())), b)

    def test_cardinality_consistency(self):
        u, b, r, s, t = _bounds()
        assert_valid(t.count_eq(1).iff(t.one()), b)
        assert_valid(t.count_ge(1).iff(t.some()), b)

    @given(st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_cardinality_eq_implies_ge(self, n):
        u, b, r, s, t = _bounds()
        assert_valid(t.count_eq(n).implies(t.count_ge(n)), b)
