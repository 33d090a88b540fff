"""Tests for the util/ordering equivalent."""

import pytest

from repro import api
from repro.alloylite import OrderedModule, Scope
from repro.api import ModuleProblem
from repro.kodkod import ast
from repro.kodkod.evaluator import Evaluator


@pytest.fixture
def ordered_module():
    m = OrderedModule()
    state = m.sig("State")
    order = m.ordering(state)
    return m, state, order


class TestOrdering:
    def test_next_is_linear(self, ordered_module):
        m, state, order = ordered_module
        result = api.solve(ModuleProblem(m, scope=Scope(per_sig={"State": 4})))
        nxt = dict(result.instance.value_of(order.next))
        assert len(nxt) == 3
        # Chain: each atom except the last has exactly one successor.
        chain = ["State$0"]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        assert len(chain) == 4

    def test_first_and_last(self, ordered_module):
        m, state, order = ordered_module
        result = api.solve(ModuleProblem(m, scope=Scope(per_sig={"State": 3})))
        assert set(result.instance.value_of(order.first)) == {("State$0",)}
        assert set(result.instance.value_of(order.last)) == {("State$2",)}

    def test_single_state_has_empty_next(self, ordered_module):
        m, state, order = ordered_module
        result = api.solve(ModuleProblem(m, scope=Scope(per_sig={"State": 1})))
        assert len(result.instance.value_of(order.next)) == 0
        assert set(result.instance.value_of(order.first)) == {("State$0",)}
        assert set(result.instance.value_of(order.last)) == {("State$0",)}

    def test_lt_and_lte(self, ordered_module):
        m, state, order = ordered_module
        result = api.solve(ModuleProblem(m, scope=Scope(per_sig={"State": 3})))
        ev = Evaluator(result.instance)
        s = ast.Variable("s")
        # first < last
        assert ev.check(order.lt(order.first, order.last))
        # not (last < first)
        assert not ev.check(order.lt(order.last, order.first))
        # first <= first
        assert ev.check(order.lte(order.first, order.first))
        # not (first < first)
        assert not ev.check(order.lt(order.first, order.first))
        del s

    def test_nexts_prevs(self, ordered_module):
        m, state, order = ordered_module
        result = api.solve(ModuleProblem(m, scope=Scope(per_sig={"State": 3})))
        ev = Evaluator(result.instance)
        later = ev.tuples(order.nexts(order.first))
        assert set(later) == {("State$1",), ("State$2",)}
        earlier = ev.tuples(order.prevs(order.last))
        assert set(earlier) == {("State$0",), ("State$1",)}

    def test_ordering_on_subsig_rejected(self):
        m = OrderedModule()
        a = m.sig("A")
        b = m.sig("B", parent=a)
        with pytest.raises(ValueError):
            m.ordering(b)

    def test_transition_system_fact(self, ordered_module):
        """A counter that must increase along the order: the classic dynamic
        model idiom the MCA dynamic sub-model uses."""
        m, state, order = ordered_module
        flag = m.sig("Flag")
        holds = state.field("holds", flag, mult="set")
        s = ast.Variable("s")
        s2 = ast.Variable("s2")
        # Monotone: whatever holds at s still holds at s.next.
        m.fact(
            ast.ForAll(
                [(s, state.expr)],
                ast.ForAll(
                    [(s2, ast.Join(s, order.next))],
                    ast.Subset(
                        ast.Join(s, holds.expr),
                        ast.Join(s2, holds.expr),
                    ),
                ),
            ),
            "monotone",
        )
        # Something holds at first, nothing is lost.
        m.fact(ast.Some(ast.Join(order.first, holds.expr)), "init")
        scope = Scope(per_sig={"State": 3, "Flag": 2})
        result = api.solve(ModuleProblem(m, scope=scope))
        assert result.satisfiable
        inst = result.instance
        by_state = {}
        for st_atom, fl_atom in inst.value_of(holds.relation):
            by_state.setdefault(st_atom, set()).add(fl_atom)
        assert by_state.get("State$0", set()) <= by_state.get("State$1", set())
        assert by_state.get("State$1", set()) <= by_state.get("State$2", set())
