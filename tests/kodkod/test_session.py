"""Tests for the incremental model-finding Session."""

import pytest

from repro.kodkod import Bounds, Session, Universe, relation
from repro.kodkod import ast
from repro.sat.solver import Solver


@pytest.fixture
def three_atoms():
    return Universe(["a", "b", "c"])


def _free_unary(universe):
    r = relation("r", 1)
    bounds = Bounds(universe)
    bounds.bound(r, universe.empty(1), universe.all_tuples(1))
    return r, bounds


class TestSessionSolving:
    def test_single_solve(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(r.some(), bounds)
        solution = session.solve()
        assert solution.satisfiable
        assert len(solution.instance.value_of(r)) >= 1

    def test_solver_persists_across_queries(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(r.some(), bounds)
        first_solver = session.solver
        session.solve()
        session.solve()
        assert session.solver is first_solver

    def test_solver_stats_accumulate(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(r.some(), bounds)
        solution = session.solve()
        assert "conflicts" in solution.solver_stats
        assert "db_reductions" in solution.solver_stats
        assert session.clause_db_stats()["problem_clauses"] > 0

    def test_custom_solver_injected(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        solver = Solver(max_learned=10)
        session = Session(r.some(), bounds, solver=solver)
        assert session.solver is solver
        assert session.solve().satisfiable


class TestSessionAssumptions:
    def test_assume_tuple_present(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        lit = session.assume_tuple(r, ("b",), present=True)
        solution = session.solve([lit])
        assert solution.satisfiable
        assert ("b",) in solution.instance.value_of(r)

    def test_assume_tuple_absent(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(r.count_eq(3), bounds)
        lit = session.assume_tuple(r, ("b",), present=False)
        assert not session.solve([lit]).satisfiable
        # The session survives an UNSAT answer under assumptions.
        assert session.solve().satisfiable

    def test_conflicting_assumptions_do_not_poison_session(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        yes = session.assume_tuple(r, ("a",), present=True)
        no = session.assume_tuple(r, ("a",), present=False)
        assert not session.solve([yes, no]).satisfiable
        assert session.solve().satisfiable

    def test_assumptions_with_symmetry_are_canonical_only(self, three_atoms):
        # Documented caveat: with symmetry breaking on, assumptions are
        # answered over canonical models only, so an assumption that only
        # a non-canonical model satisfies may be refuted.  The default
        # (symmetry=0) answers over the full model space.
        r, bounds = _free_unary(three_atoms)
        full = Session(ast.TrueF(), bounds, symmetry=0)
        lit = full.assume_tuple(r, ("a",), present=True)
        assert full.solve([lit]).satisfiable
        canonical = Session(ast.TrueF(), bounds, symmetry=20)
        results = [
            canonical.solve([canonical.assume_tuple(r, (atom,), present=True)])
            for atom in ("a", "b", "c")
        ]
        # At least one singleton-ish assumption survives (the orbit keeps
        # a witness), even though some atoms' assumptions may be refuted.
        assert any(res.satisfiable for res in results)

    def test_assume_non_free_tuple_raises(self, three_atoms):
        r = relation("r", 1)
        bounds = Bounds(three_atoms)
        bounds.bound_exactly(r, three_atoms.tuple_set(1, [("a",)]))
        session = Session(ast.TrueF(), bounds)
        with pytest.raises(KeyError):
            session.assume_tuple(r, ("a",))


class TestSessionEnumeration:
    def test_blocking_walks_all_models(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        seen = set()
        for instance in session.iter_solutions():
            key = frozenset(instance.value_of(r))
            assert key not in seen
            seen.add(key)
        assert len(seen) == 8

    def test_limit_zero_yields_nothing(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        assert list(session.iter_solutions(limit=0)) == []

    def test_negative_limit_rejected(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        with pytest.raises(ValueError):
            list(session.iter_solutions(limit=-1))

    def test_block_current_requires_a_model(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.FalseF(), bounds)
        assert not session.solve().satisfiable
        assert not session.block_current()

    def test_enumeration_resumable_after_assumption_query(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        # Taking one model via next() suspends the generator before it
        # blocks, so the session still holds the model for block_current.
        first = next(iter(session.iter_solutions(limit=1)))
        assert session.block_current()
        lit = session.assume_tuple(r, ("a",), present=True)
        assert session.solve([lit]).satisfiable
        # Remaining enumeration excludes the first model.
        rest = {
            frozenset(i.value_of(r)) for i in session.iter_solutions()
        }
        assert frozenset(first.value_of(r)) not in rest


class TestScopedBlocking:
    """Regression: ``block_current`` after ``solve(assumptions=...)`` used
    to install a *permanent* blocking clause, excluding a model found only
    under those assumptions from every later assumption-free query."""

    def test_blocking_under_assumptions_is_scoped(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        lit = session.assume_tuple(r, ("a",), present=True)
        assert session.solve([lit]).satisfiable
        assert session.block_current()
        # The assumption-free model space must be untouched: all 8 models
        # (2^3 valuations of a free unary relation) are still reachable.
        seen = {frozenset(i.value_of(r)) for i in session.iter_solutions()}
        assert len(seen) == 8

    def test_scoped_blocking_enumerates_under_assumptions(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        lit = session.assume_tuple(r, ("a",), present=True)
        seen = set()
        while True:
            solution = session.solve([lit])
            if not solution.satisfiable:
                break
            key = frozenset(solution.instance.value_of(r))
            assert key not in seen, "blocking clause did not stick"
            seen.add(key)
            assert session.block_current()
        # Exactly the 4 models containing ("a",) were walked.
        assert len(seen) == 4
        assert all(("a",) in key for key in seen)
        # ... and the plain query still sees the whole space.
        assert session.solve().satisfiable

    def test_blocking_scoped_to_the_exact_assumption_set(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        lit_a = session.assume_tuple(r, ("a",), present=True)
        lit_b = session.assume_tuple(r, ("b",), present=True)
        while session.solve([lit_a]).satisfiable:
            assert session.block_current()
        # [lit_a] is exhausted, but the distinct set [lit_a, lit_b] is a
        # different scope and still has all its models.
        assert not session.solve([lit_a]).satisfiable
        assert session.solve([lit_a, lit_b]).satisfiable

    def test_plain_blocking_still_permanent(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        session = Session(ast.TrueF(), bounds)
        first = session.solve()
        assert first.satisfiable
        blocked = frozenset(first.instance.value_of(r))
        assert session.block_current()
        lit = session.assume_tuple(r, ("a",), present=True)
        # An assumption-free blocking clause binds every later query,
        # including assumption queries.
        solution = session.solve([lit])
        if solution.satisfiable:
            assert frozenset(solution.instance.value_of(r)) != blocked


class TestDeltaSession:
    """Delta re-solves: bound-narrowing edits as assumptions on one live
    session (:meth:`Session.assumptions_for`)."""

    def test_dropped_tuples_become_absence_assumptions(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        delta = Session(r.some(), bounds)
        assumptions = delta.assumptions_for(
            dropped=[("r", 1, ("a",)), ("r", 1, ("b",))], promoted=[])
        assert assumptions is not None and len(assumptions) == 2
        solution = delta.solve(assumptions)
        assert solution.satisfiable
        assert set(solution.instance.value_of(r)) == {("c",)}

    def test_promoted_tuples_become_presence_assumptions(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        delta = Session(ast.TrueF(), bounds)
        assumptions = delta.assumptions_for(
            dropped=[], promoted=[("r", 1, ("c",))])
        solution = delta.solve(assumptions)
        assert solution.satisfiable
        assert ("c",) in solution.instance.value_of(r)

    def test_narrowing_to_unsat_matches_fresh_solve(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        delta = Session(r.some(), bounds)
        assumptions = delta.assumptions_for(
            dropped=[("r", 1, (a,)) for a in ("a", "b", "c")], promoted=[])
        assert not delta.solve(assumptions).satisfiable
        # The session survives: the unnarrowed anchor is still SAT.
        assert delta.solve().satisfiable

    def test_unknown_relation_returns_none(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        delta = Session(r.some(), bounds)
        assert delta.assumptions_for(
            dropped=[("nope", 1, ("a",))], promoted=[]) is None

    def test_unmentioned_relation_is_still_assumable(self, three_atoms):
        # ``s`` is bounded but unmentioned by the formula; the translator
        # still allocates primary variables for every bounded relation
        # (enumeration needs them), so its free tuples remain assumable.
        r, bounds = _free_unary(three_atoms)
        s = relation("s", 1)
        bounds.bound(s, three_atoms.empty(1), three_atoms.all_tuples(1))
        delta = Session(r.some(), bounds)
        assumptions = delta.assumptions_for(
            dropped=[("s", 1, ("a",))], promoted=[("s", 1, ("b",))])
        assert assumptions is not None
        solution = delta.solve(assumptions)
        assert solution.satisfiable
        values = set(solution.instance.value_of(s))
        assert ("a",) not in values and ("b",) in values

    def test_solver_persists_across_delta_queries(self, three_atoms):
        r, bounds = _free_unary(three_atoms)
        delta = Session(r.some(), bounds)
        solver = delta.solver
        delta.solve(delta.assumptions_for([("r", 1, ("a",))], []))
        delta.solve(delta.assumptions_for([("r", 1, ("b",))], []))
        assert delta.solver is solver
