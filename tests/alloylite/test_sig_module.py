"""Tests for sigs, fields, modules and scopes."""

import pytest

from repro import api
from repro.alloylite import Module, ModuleError, Scope
from repro.api import ModuleProblem
from repro.kodkod import ast


class TestSigDeclaration:
    def test_duplicate_sig_rejected(self):
        m = Module()
        m.sig("A")
        with pytest.raises(ModuleError):
            m.sig("A")

    def test_sig_expr_is_relation(self):
        m = Module()
        a = m.sig("A")
        assert isinstance(a.expr, ast.Relation)
        assert a.expr.arity == 1

    def test_field_arity(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        f = a.field("f", b)
        assert f.relation.arity == 2
        g = a.field("g", b, b)
        assert g.relation.arity == 3

    def test_field_needs_columns(self):
        m = Module()
        a = m.sig("A")
        with pytest.raises(ValueError):
            a.field("f")

    def test_bad_multiplicity_rejected(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        with pytest.raises(ValueError):
            a.field("f", b, mult="two")

    def test_top_level(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B", parent=a)
        c = m.sig("C", parent=b)
        assert c.top_level() is a


class TestScopes:
    def test_default_scope(self):
        scope = Scope(default=4)
        m = Module()
        a = m.sig("A")
        assert scope.count_for(a) == 4

    def test_per_sig_override(self):
        scope = Scope(default=4, per_sig={"A": 2})
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        assert scope.count_for(a) == 2
        assert scope.count_for(b) == 4

    def test_one_sig_always_single(self):
        scope = Scope(default=5)
        m = Module()
        null = m.sig("NULL", is_one=True)
        assert scope.count_for(null) == 1

    def test_zero_scope_rejected(self):
        m = Module()
        m.sig("A")
        with pytest.raises(ModuleError):
            api.solve(ModuleProblem(m, scope=Scope(per_sig={"A": 0})))


class TestCompilation:
    def test_universe_contains_all_sig_atoms(self):
        m = Module()
        m.sig("A")
        m.sig("B")
        universe, _, _ = m.compile(Scope(per_sig={"A": 2, "B": 3}))
        assert len(universe) == 5
        assert "A$0" in universe and "B$2" in universe

    def test_sigs_disjoint(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        scope = Scope(per_sig={"A": 2, "B": 2})
        result = api.solve(ModuleProblem(m, scope=scope))
        atoms_a = {t[0] for t in result.instance.value_of(a.relation)}
        atoms_b = {t[0] for t in result.instance.value_of(b.relation)}
        assert not (atoms_a & atoms_b)

    def test_subsig_within_parent(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B", parent=a)
        scope = Scope(per_sig={"A": 3, "B": 1})
        result = api.solve(ModuleProblem(m, scope=scope))
        atoms_a = {t[0] for t in result.instance.value_of(a.relation)}
        atoms_b = {t[0] for t in result.instance.value_of(b.relation)}
        assert atoms_b <= atoms_a
        assert len(atoms_b) == 1

    def test_subsig_overflow_rejected(self):
        m = Module()
        m.sig("A")
        a = m.sigs[0]
        m.sig("B", parent=a)
        m.sig("C", parent=a)
        scope = Scope(per_sig={"A": 1, "B": 1, "C": 1})
        with pytest.raises(ModuleError):
            api.solve(ModuleProblem(m, scope=scope))

    def test_abstract_sig_equals_children(self):
        m = Module()
        a = m.sig("A", abstract=True)
        b = m.sig("B", parent=a)
        c = m.sig("C", parent=a)
        scope = Scope(per_sig={"A": 4, "B": 2, "C": 2})
        result = api.solve(ModuleProblem(m, scope=scope))
        atoms_a = set(result.instance.value_of(a.relation))
        atoms_b = set(result.instance.value_of(b.relation))
        atoms_c = set(result.instance.value_of(c.relation))
        assert atoms_a == atoms_b | atoms_c


class TestMultiplicities:
    def _module_with_field(self, mult):
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        f = a.field("f", b, mult=mult)
        return m, a, b, f

    def test_one_field_total_function(self):
        m, a, b, f = self._module_with_field("one")
        scope = Scope(per_sig={"A": 2, "B": 3})
        result = api.solve(ModuleProblem(m, scope=scope))
        mapping = {}
        for owner, target in result.instance.value_of(f.relation):
            mapping.setdefault(owner, []).append(target)
        atoms_a = {t[0] for t in result.instance.value_of(a.relation)}
        assert set(mapping) == atoms_a
        assert all(len(v) == 1 for v in mapping.values())

    def test_lone_field_partial_function(self):
        m, a, b, f = self._module_with_field("lone")
        scope = Scope(per_sig={"A": 1, "B": 2})
        for inst in api.enumerate(ModuleProblem(m, scope=scope)).instances:
            images = [t for t in inst.value_of(f.relation)]
            assert len(images) <= 1

    def test_some_field_nonempty(self):
        m, a, b, f = self._module_with_field("some")
        scope = Scope(per_sig={"A": 1, "B": 2})
        for inst in api.enumerate(ModuleProblem(m, scope=scope),
                                  limit=10).instances:
            assert len(inst.value_of(f.relation)) >= 1

    def test_set_field_unconstrained(self):
        m, a, b, f = self._module_with_field("set")
        scope = Scope(per_sig={"A": 1, "B": 2})
        count = len(api.enumerate(ModuleProblem(m, scope=scope)).instances)
        assert count == 4  # 2^2 subsets

    def test_field_typing_respected(self):
        m, a, b, f = self._module_with_field("set")
        scope = Scope(per_sig={"A": 2, "B": 2})
        for inst in api.enumerate(ModuleProblem(m, scope=scope),
                                  limit=20).instances:
            atoms_a = {t[0] for t in inst.value_of(a.relation)}
            atoms_b = {t[0] for t in inst.value_of(b.relation)}
            for owner, target in inst.value_of(f.relation):
                assert owner in atoms_a
                assert target in atoms_b


class TestRunAndCheck:
    def test_unsatisfiable_fact_reported(self):
        m = Module()
        a = m.sig("A")
        m.fact(ast.No(a.expr), "empty")  # contradicts exact scope >= 1
        result = api.solve(ModuleProblem(m, scope=Scope(per_sig={"A": 1})))
        assert not result.satisfiable
        assert result.describe() == "no instance found"

    def test_check_valid_assertion(self):
        m = Module()
        a = m.sig("A")
        result = api.check(m, ast.Some(a.expr),
                           scope=Scope(per_sig={"A": 2}))
        assert result.holds
        assert "holds" in result.describe()

    def test_check_invalid_assertion_gives_counterexample(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        f = a.field("f", b, mult="set")
        assertion = ast.Some(f.expr)  # fields may be empty: refutable
        result = api.check(m, assertion,
                           scope=Scope(per_sig={"A": 1, "B": 1}))
        assert not result.holds
        assert result.instance is not None
        assert len(result.instance.value_of(f.relation)) == 0
        assert "counterexample" in result.describe()

    def test_stats_populated(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        a.field("f", b, mult="one")
        scope = Scope(per_sig={"A": 2, "B": 2})
        result = api.solve(ModuleProblem(m, scope=scope))
        assert result.stats.num_primary_vars == 4
        assert result.stats.num_clauses > 0
        assert result.seconds >= result.detail["solve_seconds"]
