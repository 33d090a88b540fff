"""Integration tests spanning the full stack.

These tie together layers that unit tests cover in isolation: the SAT
solver under the relational translator under the Alloy frontend under the
paper's model, and the executable protocol against the bounded checker.
"""

from repro import api
from repro.alloylite import OrderedModule, Scope
from repro.api import ModuleProblem
from repro.kodkod import ast
from repro.kodkod.evaluator import Evaluator
from repro.mca import (
    AgentNetwork,
    SynchronousEngine,
    consensus_report,
    message_bound,
)
from repro.model import PolicyCombination, check_combination, compare_encodings
from repro.vnm import embed
from repro.workloads import uav_task_allocation, vn_embedding_workload


class TestVerificationStack:
    def test_alloy_style_model_through_all_layers(self):
        """A small ordered transition model exercises sigs, ordering,
        quantifiers, translation, CDCL and instance extraction at once."""
        m = OrderedModule("counter")
        state = m.sig("State")
        token = m.sig("Token")
        holds = state.field("holds", token, mult="set")
        order = m.ordering(state)
        s, s2 = ast.Variable("s"), ast.Variable("s2")
        m.fact(ast.No(ast.Join(order.first, holds.expr)), "init_empty")
        m.fact(
            ast.ForAll(
                [(s, state.expr), (s2, ast.Join(s, order.next))],
                ast.Subset(ast.Join(s, holds.expr), ast.Join(s2, holds.expr)),
            ),
            "monotone",
        )
        grows = ast.Some(ast.Join(order.last, holds.expr))
        scope = Scope(per_sig={"State": 3, "Token": 2})
        result = api.solve(ModuleProblem(m, "run", grows, scope))
        assert result.satisfiable
        ev = Evaluator(result.instance)
        assert ev.check(grows)
        # And the dual check: "nothing ever held" must be refutable.
        never = ast.ForAll([(s, state.expr)],
                           ast.No(ast.Join(s, holds.expr)))
        verdict = api.check(m, never, scope)
        assert not verdict.holds

    def test_encoding_comparison_consistency(self):
        """The encoding benchmark's invariants hold end to end."""
        comparison = compare_encodings(2, 2)
        assert 0 < comparison.clause_ratio < 1


class TestProtocolVsModel:
    def test_sat_and_execution_agree_on_honest_convergence(self):
        verdict = check_combination(PolicyCombination(True, False),
                                    num_pnodes=2, num_vnodes=2, max_value=4)
        assert verdict.converges
        wl = uav_task_allocation(num_uavs=2, num_tasks=2, seed=0)
        engine = SynchronousEngine(wl.network, wl.items, wl.policies)
        assert engine.run().converged

    def test_bound_used_by_model_matches_protocol_bound(self):
        from repro.model import model_for

        model = model_for(PolicyCombination(True, False),
                          num_pnodes=2, num_vnodes=2)
        network = AgentNetwork.complete(2)
        assert model.num_states == message_bound(network, ["a", "b"]) + 1


class TestApplicationPipelines:
    def test_vn_embedding_full_pipeline(self):
        wl = vn_embedding_workload(num_requests=2, seed=3)
        outcomes = [embed(req, wl.physical) for req in wl.requests]
        for outcome in outcomes:
            if outcome.success:
                assert outcome.validation.valid
                assert outcome.auction.converged

    def test_uav_pipeline_consensus(self):
        wl = uav_task_allocation(num_uavs=4, num_tasks=5, seed=8)
        engine = SynchronousEngine(wl.network, wl.items, wl.policies)
        result = engine.run()
        assert result.converged
        assert consensus_report(engine.agents).consensus
