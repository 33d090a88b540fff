"""The per-receiver reduced search against the plain per-order reference.

``explore`` branches once per distinct successor and weights it by the
activation orders that reach it; ``explore_plain`` runs one full round
per activation order.  Their verdicts must agree everywhere, and on a
finished HOLDS search so must the per-order counters.  The pin table
holds values the unreduced memoized search reported with no cap.
"""

import random

import pytest

from repro.api import problem_from_spec
from repro.campaign.specs import ScenarioSpec
from repro.checking import explore
from repro.checking.explorer import _order_classes, explore_plain
from repro.mca import AgentNetwork, AgentPolicy, GeometricUtility, RebidStrategy

TOPOLOGIES = ("complete", "line", "star", "ring", "random_connected")


def _network(rng, n):
    topology = rng.choice(TOPOLOGIES)
    if topology == "ring" and n < 3:
        topology = "line"
    if topology == "random_connected":
        return AgentNetwork.random_connected(n, seed=rng.randrange(1000))
    return getattr(AgentNetwork, topology)(n)


def random_protocol(rng):
    """1-4 agents, 1-3 items, any growth, target, release and rebid
    strategy (with a bid cap); a third of them share one policy object."""
    network = _network(rng, rng.randint(1, 4))
    items = [f"j{k}" for k in range(rng.randint(1, 3))]

    def policy():
        return AgentPolicy(
            utility=GeometricUtility(
                {j: rng.randint(1, 20) for j in items},
                growth=rng.choice((0.5, 1.0, 2.0))),
            target=rng.randint(1, 2),
            release_outbid=rng.random() < 0.5,
            rebid=rng.choices(list(RebidStrategy), weights=(3, 1, 1))[0],
            extra={"bid_cap": rng.randint(12, 30)},
        )

    if rng.random() < 0.3:
        shared = policy()
        policies = {a: shared for a in network.agents()}
    else:
        policies = {a: policy() for a in network.agents()}
    return network, items, policies, rng.randint(2, 5)


class TestAgainstReference:
    def test_random_protocols_match_the_per_order_search(self):
        rng = random.Random(2024)
        compared = []
        for _ in range(150):
            network, items, policies, rounds = random_protocol(rng)
            fast = explore(network, items, policies, max_rounds=rounds)
            plain = explore_plain(network, items, policies,
                                  max_rounds=rounds, max_paths=3000)
            assert not fast.truncated
            if plain.truncated:
                continue
            case = (len(network), items, rounds)
            assert fast.all_converged == plain.all_converged, case
            assert ((fast.counterexample is None)
                    == (plain.counterexample is None)), case
            if fast.all_converged:
                assert (fast.max_rounds_to_converge
                        == plain.max_rounds_to_converge), case
                assert fast.paths_explored == plain.paths_explored, case
            compared.append((fast.all_converged,
                             {p.rebid for p in policies.values()},
                             len(set(map(id, policies.values())))
                             < len(policies)))
        assert len(compared) >= 130
        assert {holds for holds, _, _ in compared} == {True, False}
        assert set().union(*(rebids for _, rebids, _ in compared)) == set(
            RebidStrategy)
        assert any(shared for _, _, shared in compared)

    def test_one_agent_under_each_rebid_strategy(self):
        for rebid in RebidStrategy:
            policies = {0: AgentPolicy(
                GeometricUtility({"A": 5, "B": 7}, 0.5), target=2,
                rebid=rebid, extra={"bid_cap": 20})}
            network = AgentNetwork.complete(1)
            fast = explore(network, ["A", "B"], policies, max_rounds=6)
            plain = explore_plain(network, ["A", "B"], policies,
                                  max_rounds=6)
            assert (fast.all_converged, fast.max_rounds_to_converge,
                    fast.paths_explored) == (
                plain.all_converged, plain.max_rounds_to_converge,
                plain.paths_explored)


class TestOrderClasses:
    def test_grid_orders_fall_into_36_classes(self):
        network = problem_from_spec(ScenarioSpec.make(
            "vnet", 121047467, grid_width=3, grid_height=2,
            request_size=2)).network
        sender_orders, classes = _order_classes(network)
        assert len(classes) == 36
        assert sum(count for _, count, _ in classes) == 720
        assert classes[0][0] == tuple(network.agents())
        for senders, agent in zip(sender_orders, network.agents()):
            assert all(sorted(order) == network.neighbors(agent)
                       for order in senders)

    def test_complete_graph_orders_stay_distinct(self):
        _, classes = _order_classes(AgentNetwork.complete(4))
        assert [count for _, count, _ in classes] == [1] * 24


def _spec(family, seed, **params):
    problem = problem_from_spec(ScenarioSpec.make(family, seed, **params))
    return problem.network, list(problem.items), problem.policies


def _star_of_four(growth, rebid):
    policies = {a: AgentPolicy(
        GeometricUtility({"A": 10 + 3 * a, "B": 11 + a}, growth), target=2,
        release_outbid=True) for a in range(4)}
    policies[2] = AgentPolicy(GeometricUtility({"A": 5, "B": 6}, 0.5),
                              target=1, rebid=rebid, extra={"bid_cap": 16})
    return AgentNetwork.star(4), ["A", "B"], policies


def _shared_ring():
    policy = AgentPolicy(GeometricUtility({"A": 10, "B": 12, "C": 14}, 0.5),
                         target=2)
    return AgentNetwork.ring(4), ["A", "B", "C"], {a: policy
                                                   for a in range(4)}


# (protocol, max_rounds) -> (verdict, max_rounds_to_converge,
# paths_explored, memo_hits, states_memoized), as the unreduced
# memoized search over every activation order reported them uncapped.
PINS = [
    ("vnet#966279364", lambda: _spec("vnet", 966279364, grid_width=3,
                                     grid_height=2, request_size=3),
     28, (True, 5, 193491763200000, 2876, 5)),
    ("vnet#121047467", lambda: _spec("vnet", 121047467, grid_width=3,
                                     grid_height=2, request_size=2),
     19, (True, 3, 373248000, 1438, 3)),
    ("mca#68228054", lambda: _spec("mca", 68228054, num_agents=5,
                                   num_items=4, target=1),
     14, (True, 4, 207360000, 357, 4)),
    ("uav#661951176", lambda: _spec("uav", 661951176, num_uavs=5,
                                    num_tasks=4, capacity=2),
     19, (True, 2, 14400, 119, 2)),
    ("mca#625120755", lambda: _spec("mca", 625120755, num_agents=4,
                                    num_items=3, target=1),
     14, (True, 5, 7962624, 92, 5)),
    ("dispatch#961109011", lambda: _spec("dispatch", 961109011,
                                         num_units=4, num_blocks=5,
                                         capacity_blocks=2),
     19, (True, 6, 191102976, 115, 6)),
    ("shared-ring", _shared_ring, 10, (True, 4, 331776, 69, 4)),
    ("star-escalate-growth-2",
     lambda: _star_of_four(2.0, RebidStrategy.ESCALATE),
     8, (True, 7, 4586471424, 161, 8)),
    ("star-flipflop", lambda: _star_of_four(1.0, RebidStrategy.FLIPFLOP),
     8, (False, 0, 1, 0, 0)),
]


@pytest.mark.parametrize("build, max_rounds, expected",
                         [pin[1:] for pin in PINS],
                         ids=[pin[0] for pin in PINS])
def test_counters_match_the_unreduced_search(build, max_rounds, expected):
    network, items, policies = build()
    result = explore(network, items, policies, max_rounds=max_rounds)
    assert (result.all_converged, result.max_rounds_to_converge,
            result.paths_explored, result.memo_hits,
            result.states_memoized) == expected
    assert not result.truncated
    assert (result.counterexample is None) == expected[0]


class TestTruncation:
    def test_a_search_past_max_states_is_truncated(self):
        network, items, policies = _spec("mca", 0)
        result = explore(network, items, policies, max_states=1)
        assert result.truncated
        assert not result.all_converged
        assert result.counterexample is None
        finished = explore(network, items, policies,
                           max_states=result.states_memoized + 10)
        assert finished.all_converged and not finished.truncated

    def test_a_quiescent_start_expands_nothing(self):
        policies = {0: AgentPolicy(GeometricUtility({"A": 0}, 0.5))}
        result = explore(AgentNetwork.complete(1), ["A"], policies,
                         max_states=1)
        assert result.all_converged and not result.truncated
        assert result.paths_explored == 1

    def test_the_reference_flags_its_cap(self):
        network, items, policies = _spec("mca", 0)
        capped = explore_plain(network, items, policies, max_paths=10)
        assert capped.truncated and not capped.all_converged
        assert capped.counterexample is None
        assert capped.paths_explored == 10
