"""Tests for the static MCA models in both encodings."""

import pytest

from repro import api
from repro.kodkod import ast
from repro.model import build_naive_static, build_optim_static, compare_encodings


class TestNaiveStatic:
    @pytest.fixture(scope="class")
    def compiled(self):
        model = build_naive_static(max_int=7)
        universe, bounds, facts = model.compile(2, 2)
        return model, universe, bounds, facts

    def test_consistent(self, compiled):
        _, _, bounds, facts = compiled
        assert api.solve(facts, bounds).satisfiable

    def test_unique_id_holds(self, compiled):
        model, _, bounds, facts = compiled
        goal = ast.And([facts, ast.Not(model.unique_id_assertion())])
        assert not api.solve(goal, bounds).satisfiable

    def test_capacity_assertion_holds(self, compiled):
        model, _, bounds, facts = compiled
        goal = ast.And([facts, ast.Not(model.capacity_assertion())])
        assert not api.solve(goal, bounds).satisfiable

    def test_conflicting_bids_possible(self, compiled):
        """The conflict-free-init assertion must FAIL: bidding conflicts
        are what the agreement phase exists to resolve."""
        model, _, bounds, facts = compiled
        goal = ast.And([facts, ast.Not(model.conflict_free_init_assertion())])
        assert api.solve(goal, bounds).satisfiable

    def test_connections_symmetric_in_instances(self, compiled):
        model, _, bounds, facts = compiled
        sol = api.solve(facts, bounds)
        pairs = set(sol.instance.value_of(model.pconnections))
        assert all((b, a) in pairs for a, b in pairs)

    def test_capacity_respected_in_instances(self, compiled):
        model, universe, bounds, facts = compiled
        sol = api.solve(facts, bounds)
        inst = sol.instance
        bids = list(inst.value_of(model.init_bids))
        caps = dict(inst.value_of(model.pcp))
        for pnode_atom, _vnode_atom, bid_atom in bids:
            bid_value = int(bid_atom.split("$")[1])
            cap_value = int(caps[pnode_atom].split("$")[1])
            assert bid_value <= cap_value


class TestOptimStatic:
    @pytest.fixture(scope="class")
    def compiled(self):
        model = build_optim_static(max_value=3)
        universe, bounds, facts = model.compile(2, 2)
        return model, universe, bounds, facts

    def test_consistent(self, compiled):
        _, _, bounds, facts = compiled
        assert api.solve(facts, bounds).satisfiable

    def test_unique_id_holds(self, compiled):
        model, _, bounds, facts = compiled
        goal = ast.And([facts, ast.Not(model.unique_id_assertion())])
        assert not api.solve(goal, bounds).satisfiable

    def test_capacity_assertion_holds(self, compiled):
        model, _, bounds, facts = compiled
        goal = ast.And([facts, ast.Not(model.capacity_assertion())])
        assert not api.solve(goal, bounds).satisfiable

    def test_conflicting_bids_possible(self, compiled):
        model, _, bounds, facts = compiled
        goal = ast.And([facts, ast.Not(model.conflict_free_init_assertion())])
        assert api.solve(goal, bounds).satisfiable

    def test_triples_functional_in_instances(self, compiled):
        model, _, bounds, facts = compiled
        sol = api.solve(facts, bounds)
        inst = sol.instance
        owner_of = {}
        for pnode_atom, triple_atom in inst.value_of(model.init_triples):
            assert owner_of.setdefault(triple_atom, pnode_atom) == pnode_atom


class TestEncodingComparison:
    def test_optimized_is_smaller(self):
        """Section IV's headline: the optimized abstraction shrinks the SAT
        translation (paper: 259K -> 190K clauses at scope (3,2))."""
        cmp = compare_encodings(num_pnodes=3, num_vnodes=2)
        assert cmp.optim_clauses < cmp.naive_clauses
        assert cmp.optim_vars < cmp.naive_vars
        assert cmp.clause_ratio < 1.0

    def test_gap_grows_with_scope(self):
        small = compare_encodings(num_pnodes=2, num_vnodes=2)
        large = compare_encodings(num_pnodes=3, num_vnodes=3)
        assert (large.naive_clauses - large.optim_clauses) > (
            small.naive_clauses - small.optim_clauses
        )

    def test_both_encodings_equisatisfiable(self):
        """Both encodings admit instances at every tested scope."""
        for p, v in [(2, 2), (3, 2)]:
            naive = build_naive_static(max_int=7)
            _, nb, nf = naive.compile(p, v)
            optim = build_optim_static(max_value=3)
            _, ob, of = optim.compile(p, v)
            naive_sat = api.solve(nf, nb).satisfiable
            assert naive_sat == api.solve(of, ob).satisfiable
