"""End-to-end tests of the relational model-finding engine."""

import pytest

from repro import api
from repro.kodkod import (
    Bounds,
    Evaluator,
    Iden,
    NoneExpr,
    Session,
    Universe,
    Univ,
    and_all,
    all_different,
    exists,
    forall,
    relation,
    variable,
)
from repro.kodkod import ast


@pytest.fixture
def three_atoms():
    return Universe(["a", "b", "c"])


class TestBasicSolving:
    def test_trivially_true(self, three_atoms):
        assert api.solve(ast.TrueF(), Bounds(three_atoms)).satisfiable

    def test_trivially_false(self, three_atoms):
        assert not api.solve(ast.FalseF(), Bounds(three_atoms)).satisfiable

    def test_some_empty_upper_bound_unsat(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.empty(1))
        assert not api.solve(r.some(), b).satisfiable

    def test_lower_bound_respected(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        fixed = three_atoms.tuple_set(1, [("a",)])
        b.bound(r, fixed, three_atoms.all_tuples(1))
        sol = api.solve(ast.TrueF(), b)
        assert sol.satisfiable
        assert ("a",) in sol.instance.value_of(r)

    def test_exact_bound_is_constant(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        fixed = three_atoms.tuple_set(1, [("b",)])
        b.bound_exactly(r, fixed)
        sol = api.solve(ast.TrueF(), b)
        assert set(sol.instance.value_of(r)) == {("b",)}

    def test_unbound_relation_raises(self, three_atoms):
        r = relation("r", 1)
        with pytest.raises(KeyError):
            api.solve(r.some(), Bounds(three_atoms))

    def test_one_multiplicity(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        sol = api.solve(r.one(), b)
        assert sol.satisfiable
        assert len(sol.instance.value_of(r)) == 1

    def test_cardinality_eq(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        sol = api.solve(r.count_eq(2), b)
        assert sol.satisfiable
        assert len(sol.instance.value_of(r)) == 2

    def test_cardinality_unsatisfiable(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        assert not api.solve(r.count_eq(4), b).satisfiable


class TestRelationalOperators:
    def _unary_bounds(self, universe, *names):
        b = Bounds(universe)
        rels = []
        for name in names:
            r = relation(name, 1)
            b.bound(r, universe.empty(1), universe.all_tuples(1))
            rels.append(r)
        return b, rels

    def test_union_semantics(self, three_atoms):
        b, (r, s) = self._unary_bounds(three_atoms, "r", "s")
        t = relation("t", 1)
        b.bound_exactly(t, three_atoms.all_tuples(1))
        sol = api.solve((r + s).eq(t) & r.no(), b)
        assert sol.satisfiable
        assert len(sol.instance.value_of(s)) == 3

    def test_intersection_semantics(self, three_atoms):
        b, (r, s) = self._unary_bounds(three_atoms, "r", "s")
        f = (r & s).no() & r.some() & s.some()
        sol = api.solve(f, b)
        assert sol.satisfiable
        inst = sol.instance
        assert not (set(inst.value_of(r)) & set(inst.value_of(s)))

    def test_difference_semantics(self, three_atoms):
        b, (r, s) = self._unary_bounds(three_atoms, "r", "s")
        sol = api.solve((r - s).some(), b)
        assert sol.satisfiable
        inst = sol.instance
        assert set(inst.value_of(r)) - set(inst.value_of(s))

    def test_join_navigates(self, three_atoms):
        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound_exactly(edge, three_atoms.tuple_set(2, [("a", "b"), ("b", "c")]))
        x = variable("x")
        # some x | x.edge = {c}: only b.edge = {c}
        c_set = relation("cset", 1)
        b.bound_exactly(c_set, three_atoms.tuple_set(1, [("c",)]))
        f = exists(x, Univ(), x.join(edge).eq(c_set))
        assert api.solve(f, b).satisfiable

    def test_transpose(self, three_atoms):
        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound(edge, three_atoms.empty(2), three_atoms.all_tuples(2))
        f = edge.some() & (~edge).eq(edge)  # nonempty symmetric
        sol = api.solve(f, b)
        assert sol.satisfiable
        pairs = set(sol.instance.value_of(edge))
        assert all((b_, a) in pairs for a, b_ in pairs)

    def test_closure_reachability(self, three_atoms):
        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound_exactly(edge, three_atoms.tuple_set(2, [("a", "b"), ("b", "c")]))
        sol = api.solve(ast.TrueF(), b)
        ev = Evaluator(sol.instance)
        closed = ev.tuples(edge.closure())
        assert set(closed) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_closure_constraint(self, three_atoms):
        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound(edge, three_atoms.empty(2), three_atoms.all_tuples(2))
        x = variable("x")
        y = variable("y")
        # Strongly connected & irreflexive edge relation on 3 atoms exists.
        f = and_all([
            forall(x, Univ(), forall(y, Univ(),
                   x.neq(y).implies(x.product(y).in_(edge.closure())))),
            forall(x, Univ(), ast.Not(x.product(x).in_(edge))),
        ])
        sol = api.solve(f, b)
        assert sol.satisfiable
        ev = Evaluator(sol.instance)
        assert ev.check(f)

    def test_iden(self, three_atoms):
        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound(edge, three_atoms.empty(2), three_atoms.all_tuples(2))
        sol = api.solve(edge.eq(Iden()) , b)
        assert sol.satisfiable
        assert set(sol.instance.value_of(edge)) == {(a, a) for a in "abc"}

    def test_none_expr(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        sol = api.solve(r.eq(NoneExpr(1)), b)
        assert sol.satisfiable
        assert len(sol.instance.value_of(r)) == 0

    def test_product_arity(self, three_atoms):
        r = relation("r", 1)
        s = relation("s", 1)
        b = Bounds(three_atoms)
        b.bound_exactly(r, three_atoms.tuple_set(1, [("a",)]))
        b.bound_exactly(s, three_atoms.tuple_set(1, [("b",)]))
        sol = api.solve(ast.TrueF(), b)
        ev = Evaluator(sol.instance)
        assert set(ev.tuples(r.product(s))) == {("a", "b")}


class TestQuantifiers:
    def test_forall_vacuous_over_empty_domain(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound_exactly(r, three_atoms.empty(1))
        x = variable("x")
        f = forall(x, r, ast.FalseF())  # vacuously true
        assert api.solve(f, b).satisfiable

    def test_exists_false_over_empty_domain(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound_exactly(r, three_atoms.empty(1))
        x = variable("x")
        f = exists(x, r, ast.TrueF())
        assert not api.solve(f, b).satisfiable

    def test_nested_quantifiers(self, three_atoms):
        likes = relation("likes", 2)
        b = Bounds(three_atoms)
        b.bound(likes, three_atoms.empty(2), three_atoms.all_tuples(2))
        x, y = variable("x"), variable("y")
        everyone_likes_someone = forall(
            x, Univ(), exists(y, Univ(), x.product(y).in_(likes))
        )
        sol = api.solve(everyone_likes_someone, b)
        assert sol.satisfiable
        assert Evaluator(sol.instance).check(everyone_likes_someone)

    def test_multi_decl_quantifier(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        x, y = variable("x"), variable("y")
        f = forall((x, r), (y, r), x.eq(y)) & r.some()  # r is a singleton
        sol = api.solve(f, b)
        assert sol.satisfiable
        assert len(sol.instance.value_of(r)) == 1

    def test_all_different(self, three_atoms):
        x, y = variable("x"), variable("y")
        f = exists((x, Univ()), (y, Univ()), all_different([x, y]))
        assert api.solve(f, Bounds(three_atoms)).satisfiable


class TestEnumeration:
    def test_count_subsets(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        assert len(api.enumerate(ast.TrueF(), b).instances) == 8

    def test_count_with_constraint(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        assert len(api.enumerate(r.one(), b).instances) == 3

    def test_every_solution_satisfies(self, three_atoms):
        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound(edge, three_atoms.empty(2), three_atoms.all_tuples(2))
        f = (~edge).eq(edge)
        count = 0
        for inst in api.enumerate(f, b).instances:
            assert Evaluator(inst).check(f)
            count += 1
        # Symmetric relations over 3 atoms: 2^(3 diag + 3 off-diag pairs) = 64.
        assert count == 64

    def test_limit(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        assert len(api.enumerate(ast.TrueF(), b, limit=3).instances) == 3

    def test_limit_zero(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        # The façade refuses limit=0 (max_instances >= 1), so the
        # session's own contract is checked directly.
        assert sum(1 for _ in Session(ast.TrueF(), b).iter_solutions(0)) == 0
        assert list(Session(ast.TrueF(), b).iter_solutions(limit=0)) == []

    def test_negative_limit_rejected(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        with pytest.raises(ValueError):
            list(Session(ast.TrueF(), b).iter_solutions(limit=-1))

    def test_symmetry_enumerates_only_canonical_instances(self, three_atoms):
        # 3 interchangeable atoms: 8 subsets fall into 4 isomorphism
        # classes (one per cardinality); symmetry breaking yields exactly
        # the canonical representative of each.
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        sizes = sorted(
            len(inst.value_of(r))
            for inst in api.enumerate(ast.TrueF(), b, symmetry=20).instances
        )
        assert sizes == [0, 1, 2, 3]
        assert len(api.enumerate(ast.TrueF(), b).instances) == 8

    def test_solutions_distinct(self, three_atoms):
        r = relation("r", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        seen = set()
        for inst in api.enumerate(ast.TrueF(), b).instances:
            key = frozenset(inst.value_of(r))
            assert key not in seen
            seen.add(key)


class TestIfExpr:
    def test_conditional_expression(self, three_atoms):
        r = relation("r", 1)
        s = relation("s", 1)
        b = Bounds(three_atoms)
        b.bound(r, three_atoms.empty(1), three_atoms.all_tuples(1))
        b.bound_exactly(s, three_atoms.tuple_set(1, [("a",)]))
        cond = r.some()
        picked = ast.IfExpr(cond, s, NoneExpr(1))
        f = r.some() & picked.eq(s)
        assert api.solve(f, b).satisfiable


class TestComprehension:
    def test_comprehension_collects_satisfying_atoms(self, three_atoms):
        from repro.kodkod import comprehension

        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound_exactly(edge, three_atoms.tuple_set(2, [("a", "b"), ("a", "c")]))
        x = variable("x")
        sources = comprehension(x, Univ(), x.join(edge).some())
        sol = api.solve(ast.TrueF(), b)
        ev = Evaluator(sol.instance)
        assert set(ev.tuples(sources)) == {("a",)}

    def test_comprehension_in_formula(self, three_atoms):
        from repro.kodkod import comprehension

        edge = relation("edge", 2)
        b = Bounds(three_atoms)
        b.bound(edge, three_atoms.empty(2), three_atoms.all_tuples(2))
        x = variable("x")
        sources = comprehension(x, Univ(), x.join(edge).some())
        f = sources.count_eq(2)
        sol = api.solve(f, b)
        assert sol.satisfiable
        assert Evaluator(sol.instance).check(f)
