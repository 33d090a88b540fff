"""Explicit-state exploration of the MCA protocol under all schedules.

Complements the SAT-based bounded check: instead of encoding transitions
relationally, this checker executes the real protocol implementation
(:mod:`repro.mca`) over *every* synchronous-round interleaving choice the
scheduler exposes, up to a depth bound — the "dynamic model" the paper's
conclusion promises.  It detects:

* convergence on all explored paths (with the worst-case round count),
* divergence counterexamples (a path exceeding the round bound), and
* oscillation lassos (a path revisiting a logical state).

Two mechanisms keep exhaustive exploration tractable:

* **Snapshot/restore branching** — the engine's snapshot protocol
  (:meth:`repro.mca.engine.SynchronousEngine.snapshot`) captures agent
  state in O(agents * items); each branch runs on the *same* engine and is
  rolled back afterwards, so there is no ``copy.deepcopy`` anywhere on the
  branch hot path.
* **A global canonical-state memo table** — once every schedule from a
  state has been shown to converge within ``k`` more rounds, that
  certificate holds regardless of the path that reached the state, so
  isomorphic interleavings (different activation orders meeting in the
  same state, or in a state identical up to a renaming of same-policy
  agents that is also a network automorphism) are pruned once instead of
  re-explored.  A certificate is only reused when its worst-case depth
  fits the remaining round budget, which keeps verdicts identical to the
  non-memoized search.  States are compared at the explorer's native
  granularity — the *logical* view signature (winners, bids, bundles),
  the same abstraction the oscillation detector has always used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.mca.engine import SynchronousEngine
from repro.mca.items import AgentId, ItemId
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy

# Give up on agent-renaming canonicalization past this many relabelings
# per state (product of group factorials); the exact-state memo still works.
_MAX_RELABELINGS = 720


@dataclass
class ExplorationResult:
    """Aggregate verdict over all explored asynchronous paths."""

    all_converged: bool
    paths_explored: int
    max_rounds_to_converge: int
    oscillating_trace: list[str] | None = None
    diverging_trace: list[str] | None = None
    memo_hits: int = 0
    states_memoized: int = 0

    @property
    def counterexample(self) -> list[str] | None:
        """A failing trace, if any path failed to converge."""
        return self.oscillating_trace or self.diverging_trace


class StateCanonicalizer:
    """Maps global signatures to canonical memo keys.

    Agents are interchangeable when they share the *same policy object*
    AND renaming them is an automorphism of the communication network:
    only then does a renaming map protocol runs to protocol runs (the
    branch set already covers every activation order, and message
    connectivity is preserved).  The canonical key is the lexicographic
    minimum of the signature over all such renamings, so states that
    only differ by a valid renaming share one memo entry.
    """

    def __init__(self, network: AgentNetwork,
                 policies: dict[AgentId, AgentPolicy]) -> None:
        self._agent_ids = network.agents()
        self._position = {a: i for i, a in enumerate(self._agent_ids)}
        edges = set(network.edges())
        groups: dict[int, list[AgentId]] = {}
        for agent_id in self._agent_ids:
            groups.setdefault(id(policies[agent_id]), []).append(agent_id)
        self._groups = [sorted(g) for g in groups.values() if len(g) > 1]
        count = 1
        for group in self._groups:
            for k in range(2, len(group) + 1):
                count *= k

        def is_automorphism(mapping: dict[AgentId, AgentId]) -> bool:
            return all(
                tuple(sorted((mapping.get(u, u), mapping.get(v, v)))) in edges
                for u, v in edges
            )

        self._relabelings: list[dict[AgentId, AgentId]] = []
        if self._groups and count <= _MAX_RELABELINGS:
            per_group = [
                [dict(zip(group, perm))
                 for perm in itertools.permutations(group)]
                for group in self._groups
            ]
            for combo in itertools.product(*per_group):
                mapping: dict[AgentId, AgentId] = {}
                for part in combo:
                    mapping.update(part)
                if is_automorphism(mapping):
                    self._relabelings.append(mapping)

    @property
    def groups(self) -> list[list[AgentId]]:
        """Interchangeable-agent groups of size >= 2 (pre-automorphism)."""
        return self._groups

    def _relabel(self, signature: tuple, mapping: dict[AgentId, AgentId]) -> tuple:
        # signature[i] belongs to agent self._agent_ids[i]; a renaming
        # permutes the per-agent slots and rewrites winner ids.  ``None``
        # winners are encoded as -1 so the relabeled keys stay orderable.
        slots: list[tuple] = [()] * len(self._agent_ids)
        for i, agent_id in enumerate(self._agent_ids):
            beliefs, bundle = signature[i]
            rewritten = tuple(
                (item, -1 if winner is None else mapping.get(winner, winner), bid)
                for item, winner, bid in beliefs
            )
            slots[self._position[mapping.get(agent_id, agent_id)]] = (
                rewritten, bundle
            )
        return tuple(slots)

    def key(self, signature: tuple) -> tuple:
        """Canonical memo key for a global signature."""
        if not self._relabelings:
            return self._relabel(signature, {})
        return min(
            self._relabel(signature, mapping) for mapping in self._relabelings
        )


def explore(
    network: AgentNetwork,
    items: list[ItemId],
    policies: dict[int, AgentPolicy],
    max_rounds: int = 12,
    max_paths: int = 2000,
    memoize: bool = True,
) -> ExplorationResult:
    """Explore per-round *agent activation orders* exhaustively.

    Each round, the engine normally activates agents in id order.  Here we
    branch over every permutation of the bid-phase activation order — the
    source of nondeterminism a synchronous protocol actually has — and
    check that every branch converges.  The search stops at the first
    counterexample, when ``max_paths`` complete paths have been counted,
    or when the whole schedule tree is covered.

    Like the oscillation detector it inherits from the seed explorer,
    the memo table works at the granularity of *logical* states (winner,
    bid, bundle per agent — timestamps, clocks and freshness tables are
    abstracted away, exactly as in ``Agent.view_signature``).  Pass
    ``memoize=False`` for an exact path-by-path search without the
    canonical-state memo (every interleaving is re-explored; also useful
    for differential testing).
    """
    agent_ids = network.agents()
    orders = list(itertools.permutations(agent_ids))
    engine = SynchronousEngine(network, items, policies)
    canonicalizer = StateCanonicalizer(network, policies) if memoize else None
    results = ExplorationResult(
        all_converged=True, paths_explored=0, max_rounds_to_converge=0
    )
    # canonical key -> (worst rounds to converge from the state, leaf count)
    memo: dict[tuple, tuple[int, int]] = {}
    history: list[str] = []

    def fail(marker: str) -> None:
        results.all_converged = False
        trace = history + [marker]
        if marker == "<state repeats>":
            results.oscillating_trace = trace
        else:
            results.diverging_trace = trace
        results.paths_explored += 1

    def dfs(path_seen: frozenset) -> tuple[int, int] | None:
        """Explore all schedules from the engine's current state.

        Returns (worst rounds to converge, converged leaf count), or None
        when a counterexample was recorded or the path cap truncated the
        subtree.  The engine is always left in its entry state.
        """
        if _is_quiescent(engine):
            results.paths_explored += 1
            results.max_rounds_to_converge = max(
                results.max_rounds_to_converge, len(history)
            )
            return 0, 1
        signature = engine.global_signature()
        if signature in path_seen:
            fail("<state repeats>")
            return None
        if len(history) >= max_rounds:
            fail("<bound exceeded>")
            return None
        remaining = max_rounds - len(history)
        key = canonicalizer.key(signature) if canonicalizer else None
        if key is not None:
            hit = memo.get(key)
            # Reuse only when the certified worst case fits the budget;
            # otherwise a fresh search could legitimately report divergence.
            if hit is not None and hit[0] <= remaining:
                results.memo_hits += 1
                # Clamp: a large certificate must not overshoot the
                # documented max_paths cap (the stop condition below
                # still fires as soon as the cap is reached).
                results.paths_explored = min(
                    results.paths_explored + hit[1], max_paths
                )
                results.max_rounds_to_converge = max(
                    results.max_rounds_to_converge, len(history) + hit[0]
                )
                return hit
        deeper = path_seen | {signature}
        snapshot = engine.snapshot()
        worst = 0
        leaves = 0
        for order in orders:
            if results.paths_explored >= max_paths:
                return None  # truncated: no certificate for this state
            _run_round(engine, order)
            history.append(f"round order {order}")
            outcome = dfs(deeper)
            history.pop()
            engine.restore(snapshot)
            if outcome is None:
                return None
            worst = max(worst, outcome[0] + 1)
            leaves += outcome[1]
        if key is not None:
            memo[key] = (worst, leaves)
            results.states_memoized = len(memo)
        return worst, leaves

    dfs(frozenset())
    return results


def _run_round(engine: SynchronousEngine, order) -> None:
    for agent_id in order:
        engine.agents[agent_id].bid_phase()
    outbox = []
    for sender in order:
        for receiver in engine.network.neighbors(sender):
            outbox.append(engine.agents[sender].outgoing_message(receiver))
    for message in outbox:
        engine.messages_processed += 1
        engine.agents[message.receiver].receive(message)


def _is_quiescent(engine: SynchronousEngine) -> bool:
    """True when one more round would change nothing."""
    before = engine.global_signature()
    snapshot = engine.snapshot()
    _run_round(engine, engine.network.agents())
    after = engine.global_signature()
    engine.restore(snapshot)
    return before == after
