"""Tests for the explicit-state explorer."""

from repro.checking import explore
from repro.mca import AgentNetwork, AgentPolicy, GeometricUtility, RebidStrategy


def policies_for(n, items, growth=0.5, release=False, target=2):
    return {
        a: AgentPolicy(
            utility=GeometricUtility(
                {j: 10 + 5 * a + 2 * k for k, j in enumerate(items)},
                growth=growth,
            ),
            target=target,
            release_outbid=release,
        )
        for a in range(n)
    }


class TestHonestExploration:
    def test_all_orders_converge_two_agents(self):
        items = ["A", "B"]
        result = explore(
            AgentNetwork.complete(2), items, policies_for(2, items)
        )
        assert result.all_converged
        assert result.paths_explored > 0
        assert result.counterexample is None

    def test_all_orders_converge_line_of_three(self):
        items = ["A"]
        result = explore(
            AgentNetwork.line(3), items, policies_for(3, items, target=1)
        )
        assert result.all_converged

    def test_round_count_bounded(self):
        items = ["A", "B"]
        network = AgentNetwork.complete(2)
        result = explore(network, items, policies_for(2, items))
        from repro.mca import message_bound

        assert result.max_rounds_to_converge <= message_bound(network, items) + 1


class TestDivergentExploration:
    def test_oscillation_found_for_nonsub_release(self):
        from repro.mca.scenarios import figure2_engine

        engine = figure2_engine(submodular=False, release_outbid=True)
        items = engine.items
        policies = {a: engine.agents[a].policy for a in engine.agents}
        result = explore(
            AgentNetwork.complete(2), items, policies, max_rounds=10
        )
        assert not result.all_converged
        assert result.counterexample is not None

    def test_rebid_attack_found(self):
        items = ["A"]
        policies = {
            0: AgentPolicy(utility=GeometricUtility({"A": 10}, 0.5), target=1),
            1: AgentPolicy(utility=GeometricUtility({"A": 1}, 0.5), target=1,
                           rebid=RebidStrategy.FLIPFLOP),
        }
        result = explore(
            AgentNetwork.complete(2), items, policies, max_rounds=10
        )
        assert not result.all_converged


class TestCrossValidation:
    def test_explorer_agrees_with_sat_model_on_policy_verdicts(self):
        """The two checkers (explicit-state and SAT-based) must agree on
        the Result-1 verdict for each policy combination."""
        from repro.model import PolicyCombination, check_combination
        from repro.mca.scenarios import figure2_engine

        for submodular, release in [(True, False), (True, True),
                                    (False, False), (False, True)]:
            engine = figure2_engine(submodular=submodular,
                                    release_outbid=release)
            policies = {a: engine.agents[a].policy for a in engine.agents}
            dynamic = explore(
                AgentNetwork.complete(2), engine.items, policies,
                max_rounds=10,
            )
            sat = check_combination(
                PolicyCombination(submodular, release),
                num_pnodes=2, num_vnodes=2, max_value=6,
            )
            assert dynamic.all_converged == sat.converges, (
                submodular, release
            )
