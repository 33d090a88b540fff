"""Property-based protocol invariants under randomized scenarios.

These are the paper's implicit correctness conditions, checked over random
topologies, utilities and message schedules:

* honest sub-modular runs always converge, conflict-free, within the bound;
* final winning bids equal the component-wise max of placed bids (Def. 1);
* out-of-order message delivery never breaks agreement (the time-stamp
  mechanism of Section II-A);
* bundles never exceed targets; winners are consistent with allocations.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mca import (
    AgentNetwork,
    AgentPolicy,
    AsynchronousEngine,
    GeometricUtility,
    SynchronousEngine,
    consensus_report,
    message_bound,
    round_bound,
)


def build_scenario(n_agents, n_items, topology, seed, target,
                   release_outbid=False):
    """Network, items and honest sub-modular policies of one scenario."""
    if topology == "random":
        network = AgentNetwork.random_connected(n_agents, seed=seed)
    elif topology == "star":
        network = AgentNetwork.star(n_agents)
    elif topology == "line":
        network = AgentNetwork.line(n_agents)
    else:
        network = AgentNetwork.complete(n_agents)
    items = [f"i{k}" for k in range(n_items)]
    rng = random.Random(seed)
    policies = {}
    used_values: set[int] = set()
    for a in network.agents():
        base = {}
        for item in items:
            # Distinct base utilities avoid tie-storms in expectations.
            value = rng.randint(1, 1000)
            while value in used_values:
                value = rng.randint(1, 1000)
            used_values.add(value)
            base[item] = value
        policies[a] = AgentPolicy(
            utility=GeometricUtility(base, growth=0.5), target=target,
            release_outbid=release_outbid,
        )
    return network, items, policies


@st.composite
def honest_scenarios(draw, release_outbid=st.just(False)):
    n_agents = draw(st.integers(min_value=2, max_value=5))
    n_items = draw(st.integers(min_value=1, max_value=4))
    topology = draw(st.sampled_from(["complete", "line", "star", "random"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    target = draw(st.integers(min_value=1, max_value=3))
    return build_scenario(n_agents, n_items, topology, seed, target,
                          draw(release_outbid))


class TestHonestInvariants:
    @given(honest_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_convergence_conflict_freedom_and_bound(self, scenario):
        # The D*|J| message bound does not cap *rounds* once bundle
        # targets exceed 1: an outbid empties a bundle and raises a
        # first-slot marginal, starting a re-auction wave.  round_bound
        # adds one wave term per bundle slot.
        network, items, policies = scenario
        targets = {a: p.target for a, p in policies.items()}
        bound = round_bound(network, items, targets)
        engine = SynchronousEngine(network, items, policies)
        result = engine.run(max_rounds=bound + 2)
        assert result.converged
        report = consensus_report(engine.agents)
        assert report.consensus
        assert result.rounds <= bound

    @given(honest_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_bundles_respect_targets(self, scenario):
        network, items, policies = scenario
        engine = SynchronousEngine(network, items, policies)
        engine.run()
        for agent in engine.agents.values():
            assert len(agent.bundle) <= agent.policy.target

    @given(honest_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_winners_consistent_with_bundles(self, scenario):
        network, items, policies = scenario
        engine = SynchronousEngine(network, items, policies)
        result = engine.run()
        assert result.converged
        for item, winner in result.allocation.items():
            if winner is None:
                continue
            assert item in engine.agents[winner].bundle

    @given(honest_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_submodular_bids_never_exceed_first_slot_utility(self, scenario):
        """With growth < 1 every placed bid is at most the base utility."""
        network, items, policies = scenario
        engine = SynchronousEngine(network, items, policies)
        engine.run()
        for item in items:
            max_base = max(
                policies[a].utility.marginal(item, []) for a in network.agents()
            )
            final = engine.agents[network.agents()[0]].beliefs[item].bid
            assert final <= max_base


def run_both_schedules(scenario, seed):
    """(FIFO engine, its result, random engine, its result)."""
    network, items, policies = scenario
    fifo = AsynchronousEngine(network, items, policies, scheduler="fifo")
    shuffled = AsynchronousEngine(network, items, policies,
                                  scheduler="random", seed=seed)
    return (fifo, fifo.run(max_messages=20_000),
            shuffled, shuffled.run(max_messages=20_000))


class TestAsynchronousInvariants:
    @given(honest_scenarios(release_outbid=st.booleans()),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_random_schedules_converge_consistently(self, scenario, seed):
        """Out-of-order delivery (random scheduler) still converges to a
        conflict-free consensus: the timestamp mechanism at work.  The
        allocation is schedule-independent only when outbid agents
        release the later items of their bundles (``release_outbid``);
        without release MCA does not promise one (see the pinned
        schedule below)."""
        fifo, fifo_result, shuffled, shuffled_result = run_both_schedules(
            scenario, seed)
        assert fifo_result.converged
        assert shuffled_result.converged
        assert consensus_report(fifo.agents).consensus
        assert consensus_report(shuffled.agents).consensus
        _, _, policies = scenario
        if next(iter(policies.values())).release_outbid:
            assert fifo_result.allocation == shuffled_result.allocation

    # Two agents on a star, four items, targets of three, utilities drawn
    # from seed 1962; the random scheduler runs with seed 17.
    PINNED = dict(n_agents=2, n_items=4, topology="star", seed=1962,
                  target=3)

    def test_without_release_the_schedule_can_change_the_allocation(self):
        scenario = build_scenario(**self.PINNED)
        fifo, fifo_result, shuffled, shuffled_result = run_both_schedules(
            scenario, 17)
        assert fifo_result.converged and shuffled_result.converged
        assert consensus_report(fifo.agents).consensus
        assert consensus_report(shuffled.agents).consensus
        assert fifo_result.allocation == {"i0": 0, "i1": 0, "i2": 1, "i3": 1}
        assert shuffled_result.allocation == {"i0": 0, "i1": 1, "i2": 1,
                                              "i3": 1}

    def test_with_release_the_pinned_schedules_agree(self):
        scenario = build_scenario(**self.PINNED, release_outbid=True)
        _, fifo_result, _, shuffled_result = run_both_schedules(scenario, 17)
        assert fifo_result.converged and shuffled_result.converged
        assert fifo_result.allocation == shuffled_result.allocation
