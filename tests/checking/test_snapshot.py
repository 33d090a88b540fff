"""Tests for the snapshot/restore protocol and the explorer's memo table."""

import copy

from repro.checking import StateCanonicalizer, explore
from repro.checking.explorer import explore_plain
from repro.mca import (
    AgentNetwork,
    AgentPolicy,
    GeometricUtility,
    SynchronousEngine,
)


def _policies(n, items, shared=False, growth=0.5, release=False, target=2):
    if shared:
        policy = AgentPolicy(
            utility=GeometricUtility(
                {j: 10 + 2 * k for k, j in enumerate(items)}, growth=growth
            ),
            target=target,
            release_outbid=release,
        )
        return {a: policy for a in range(n)}
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


class TestEngineSnapshot:
    def test_restore_round_trips_logical_state(self):
        items = ["A", "B"]
        engine = SynchronousEngine(
            AgentNetwork.complete(2), items, _policies(2, items)
        )
        before = engine.global_signature()
        snapshot = engine.snapshot()
        engine.run(max_rounds=5)
        assert engine.global_signature() != before
        engine.restore(snapshot)
        assert engine.global_signature() == before
        assert engine.messages_processed == 0

    def test_restore_round_trips_full_agent_state(self):
        items = ["A", "B"]
        engine = SynchronousEngine(
            AgentNetwork.complete(2), items, _policies(2, items)
        )
        engine.run(max_rounds=1)
        agent = engine.agents[0]
        snapshot = engine.snapshot()
        saved = (
            dict(agent.beliefs), list(agent.bundle), agent.clock,
            list(agent.outbid_log), agent._resolver.snapshot(),
        )
        engine.run(max_rounds=5)
        engine.restore(snapshot)
        assert dict(agent.beliefs) == saved[0]
        assert list(agent.bundle) == saved[1]
        assert agent.clock == saved[2]
        assert list(agent.outbid_log) == saved[3]
        assert agent._resolver.snapshot() == saved[4]

    def test_snapshot_is_reusable_across_restores(self):
        items = ["A"]
        engine = SynchronousEngine(
            AgentNetwork.complete(2), items, _policies(2, items, target=1)
        )
        snapshot = engine.snapshot()
        reference = engine.global_signature()
        for _ in range(3):
            engine.run(max_rounds=4)
            engine.restore(snapshot)
            assert engine.global_signature() == reference

    def test_restored_run_matches_fresh_run(self):
        items = ["A", "B"]
        policies = _policies(3, items)
        network = AgentNetwork.complete(3)
        engine = SynchronousEngine(network, items, policies)
        snapshot = engine.snapshot()
        first = engine.run(max_rounds=20)
        engine.restore(snapshot)
        second = engine.run(max_rounds=20)
        fresh = SynchronousEngine(network, items, policies).run(max_rounds=20)
        assert first.allocation == second.allocation == fresh.allocation
        assert first.rounds == second.rounds == fresh.rounds


class TestExplorerWithoutDeepcopy:
    def test_exploration_never_deepcopies(self, monkeypatch):
        def poisoned(*_args, **_kwargs):
            raise AssertionError("deepcopy on the explorer hot path")

        monkeypatch.setattr(copy, "deepcopy", poisoned)
        items = ["A", "B"]
        result = explore(
            AgentNetwork.complete(2), items, _policies(2, items)
        )
        assert result.all_converged

    def test_memoized_matches_unmemoized_on_convergence(self):
        # Star and line topologies exercise the automorphism filter:
        # hub/endpoint agents must not be renamed into leaf/middle roles
        # even when every agent shares one policy object.
        items = ["A", "B"]
        networks = [
            AgentNetwork.complete(3),
            AgentNetwork.star(3),
            AgentNetwork.line(3),
        ]
        for shared in (False, True):
            for network in networks:
                policies = _policies(3, items, shared=shared)
                memo = explore(network, items, policies, max_rounds=8)
                plain = explore_plain(
                    network, items, policies, max_rounds=8,
                    max_paths=100_000,
                )
                assert not plain.truncated
                assert memo.all_converged == plain.all_converged
                assert (memo.max_rounds_to_converge
                        == plain.max_rounds_to_converge)
                assert memo.paths_explored == plain.paths_explored

    def test_memoized_matches_unmemoized_on_divergence(self):
        items = ["A", "B"]
        policies = _policies(2, items, shared=False, growth=2.0, release=True)
        network = AgentNetwork.complete(2)
        memo = explore(network, items, policies, max_rounds=8)
        plain = explore_plain(network, items, policies, max_rounds=8)
        assert memo.all_converged == plain.all_converged
        if not memo.all_converged:
            assert memo.counterexample is not None
            assert plain.counterexample is not None

    def test_memo_table_hits_on_interchangeable_agents(self):
        items = ["A", "B", "C"]
        policies = _policies(3, items, shared=True)
        result = explore(
            AgentNetwork.complete(3), items, policies, max_rounds=10,
        )
        assert result.all_converged
        assert result.memo_hits > 0
        assert result.states_memoized > 0


class TestStateCanonicalizer:
    def test_identity_without_shared_policies(self):
        items = ["A"]
        policies = _policies(2, items)
        canonicalizer = StateCanonicalizer(AgentNetwork.complete(2), policies)
        assert canonicalizer.groups == []

    def test_groups_shared_policy_agents(self):
        items = ["A"]
        policies = _policies(3, items, shared=True)
        canonicalizer = StateCanonicalizer(AgentNetwork.complete(3), policies)
        assert canonicalizer.groups == [[0, 1, 2]]

    def test_non_automorphic_renamings_rejected(self):
        # Star hub and leaves share a policy, but swapping the hub with
        # a leaf changes message connectivity: only leaf-leaf renamings
        # survive the automorphism filter.
        items = ["A"]
        policies = _policies(3, items, shared=True)
        star = StateCanonicalizer(AgentNetwork.star(3), policies)
        hub_moves = [
            m for m in star._relabelings if m.get(0, 0) != 0
        ]
        assert hub_moves == []
        assert len(star._relabelings) == 2  # identity + swap of leaves 1,2

    def test_renamed_states_share_a_key(self):
        items = ["A"]
        policies = _policies(2, items, shared=True)
        canonicalizer = StateCanonicalizer(AgentNetwork.complete(2), policies)
        # Agent 0 winning looks like agent 1 winning with names swapped.
        state_a = (
            ((("A", 0, 10.0),), ("A",)),
            ((("A", 0, 10.0),), ()),
        )
        state_b = (
            ((("A", 1, 10.0),), ()),
            ((("A", 1, 10.0),), ("A",)),
        )
        assert canonicalizer.key(state_a) == canonicalizer.key(state_b)

    def test_distinct_states_keep_distinct_keys(self):
        items = ["A"]
        policies = _policies(2, items, shared=True)
        canonicalizer = StateCanonicalizer(AgentNetwork.complete(2), policies)
        winning = (
            ((("A", 0, 10.0),), ("A",)),
            ((("A", 0, 10.0),), ()),
        )
        unassigned = (
            ((("A", -1, 0.0),), ()),
            ((("A", -1, 0.0),), ()),
        )
        assert canonicalizer.key(winning) != canonicalizer.key(unassigned)
