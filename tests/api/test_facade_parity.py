"""Façade parity: repro.api and the layers it wraps agree on seeded scenarios.

One differential test per backend: the façade must produce the same
verdicts and instance sets as the lower layers driven directly — a
:class:`repro.kodkod.engine.Session` over a formula or a compiled module,
and :func:`repro.checking.explore` for a protocol — on scenarios drawn
from ``campaign.specs``.
"""

import pytest

from repro import api
from repro.alloylite import Module, Scope
from repro.campaign.specs import materialize, random_sweep
from repro.checking import explore
from repro.kodkod import ast
from repro.kodkod.engine import Session
from repro.kodkod.symmetry import DEFAULT_SBP_LENGTH

RELATIONAL_SPECS = random_sweep(
    "relational", 12, base_seed=21,
    num_atoms=(3, 3), depth=(1, 2), max_edges=(0, 3),
)

AUCTION_SPECS = random_sweep(
    "mca", 4, base_seed=33, num_agents=(2, 3), num_items=(1, 2),
    target=(1, 2),
)


class TestKodkodBackendParity:
    @pytest.mark.parametrize(
        "spec", RELATIONAL_SPECS, ids=lambda s: s.label())
    def test_solve_verdict_parity(self, spec):
        scenario = materialize(spec)
        direct = Session(scenario.formula, scenario.bounds,
                         symmetry=DEFAULT_SBP_LENGTH).solve()
        new = api.solve(api.problem_from_spec(spec))
        assert direct.satisfiable == new.satisfiable
        assert direct.stats.num_clauses == new.stats.num_clauses
        # Default symmetry parity: both sides break with the same level.
        assert new.detail["symmetry"] == DEFAULT_SBP_LENGTH

    @pytest.mark.parametrize(
        "spec", RELATIONAL_SPECS[:6], ids=lambda s: s.label())
    def test_enumeration_instance_set_parity(self, spec):
        scenario = materialize(spec)
        direct_keys = {
            scenario.instance_key(inst)
            for inst in Session(scenario.formula,
                                scenario.bounds).iter_solutions()
        }
        direct_count = sum(
            1 for _ in Session(scenario.formula,
                               scenario.bounds).iter_solutions())
        # Share the materialization: relations compare by identity, so
        # instance_key must see the same Relation objects on both paths.
        new = api.enumerate(
            api.FormulaProblem(scenario.formula, scenario.bounds))
        new_keys = {scenario.instance_key(inst) for inst in new.instances}
        assert direct_keys == new_keys
        assert direct_count == len(new.instances)


class TestExplorerBackendParity:
    @pytest.mark.parametrize("spec", AUCTION_SPECS, ids=lambda s: s.label())
    def test_exploration_verdict_parity(self, spec):
        scenario = materialize(spec)
        direct = explore(
            scenario.network, scenario.items, scenario.policies,
            max_rounds=8, max_paths=4000,
        )
        new = api.run_protocol(api.problem_from_spec(spec),
                               max_rounds=8, max_paths=4000)
        assert direct.all_converged == new.holds
        assert (direct.counterexample is None) == (new.trace is None)
        assert (direct.max_rounds_to_converge
                == new.detail["max_rounds_to_converge"])
        assert direct.paths_explored == new.detail["paths_explored"]


class TestModuleBackendParity:
    """Module commands against ``Module.compile`` plus a ``Session``."""

    @pytest.fixture
    def module(self):
        m = Module()
        a = m.sig("A")
        b = m.sig("B")
        link = a.field("link", b)
        m.fact(ast.Some(a.expr))
        return m, a, b, link

    def test_run_parity(self, module):
        m, a, b, link = module
        scope = Scope(per_sig={"A": 2, "B": 2})
        predicate = ast.Some(link.relation)
        _, bounds, facts = m.compile(scope)
        direct = Session(ast.And([facts, predicate]), bounds,
                         symmetry=DEFAULT_SBP_LENGTH).solve()
        new = api.solve(api.ModuleProblem(m, "run", predicate, scope))
        assert direct.satisfiable and new.satisfiable
        assert direct.stats.num_clauses == new.stats.num_clauses
        assert direct.instance.describe() == new.instance.describe()
        assert new.describe() == direct.instance.describe()

    def test_check_parity_holds(self, module):
        m, a, b, link = module
        scope = Scope(per_sig={"A": 1, "B": 1})
        assertion = ast.Some(a.expr)  # a fact, so it holds
        _, bounds, facts = m.compile(scope)
        direct = Session(ast.And([facts, ast.Not(assertion)]), bounds,
                         symmetry=DEFAULT_SBP_LENGTH).solve()
        new = api.check(m, assertion, scope)
        assert not direct.satisfiable and new.holds
        assert direct.stats.num_clauses == new.stats.num_clauses
        assert (new.describe()
                == "assertion holds within the scope (no counterexample)")

    def test_check_parity_counterexample(self, module):
        m, a, b, link = module
        scope = Scope(per_sig={"A": 1, "B": 1})
        assertion = ast.No(b.expr)  # refuted: sig scopes are exact
        _, bounds, facts = m.compile(scope)
        direct = Session(ast.And([facts, ast.Not(assertion)]), bounds,
                         symmetry=DEFAULT_SBP_LENGTH).solve()
        new = api.check(m, assertion, scope)
        assert direct.satisfiable and not new.holds
        assert new.describe() == ("counterexample found:\n"
                                  + direct.instance.describe())

    def test_iter_instances_parity(self, module):
        m, a, b, link = module
        scope = Scope(per_sig={"A": 1, "B": 2})
        _, bounds, facts = m.compile(scope)
        direct = [inst.describe() for inst in
                  Session(facts, bounds).iter_solutions()]
        new = [inst.describe() for inst in
               api.enumerate(api.ModuleProblem(m, scope=scope)).instances]
        assert sorted(direct) == sorted(new)
        assert direct  # the module is satisfiable: parity over a nonempty set

    def test_iter_instances_stays_lazy(self, module):
        m, a, b, link = module
        scope = Scope(per_sig={"A": 2, "B": 2})
        _, bounds, facts = m.compile(scope)
        iterator = Session(facts, bounds).iter_solutions()
        # One pull must not require enumerating the whole space, and the
        # streamed model is one the façade's enumeration also produces.
        first = next(iterator)
        iterator.close()
        assert first is not None
        new = api.enumerate(api.ModuleProblem(m, scope=scope)).instances
        assert first.describe() in {inst.describe() for inst in new}
