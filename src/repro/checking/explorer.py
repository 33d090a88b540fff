"""Explicit-state exploration of the MCA protocol under all schedules.

Complements the SAT-based bounded check: instead of encoding transitions
relationally, this checker executes the real protocol implementation
(:mod:`repro.mca`) over *every* synchronous-round interleaving choice the
scheduler exposes, up to a depth bound — the "dynamic model" the paper's
conclusion promises.  It detects:

* convergence on every schedule (with the worst-case round count),
* divergence counterexamples (a schedule exceeding the round bound), and
* oscillation lassos (a schedule revisiting a logical state).

A round's only nondeterminism is the order in which agents are
activated.  Three mechanisms keep covering every order tractable:

* **Per-receiver branching** — in a round a bid phase touches only the
  bidding agent, every message is built before any is delivered, and a
  delivery touches only its receiver, which hears each neighbour once,
  in activation order.  So a round's successor is a function of the
  order in which each receiver hears its neighbours.  :func:`explore`
  runs each bid phase once, builds each message once, delivers each
  receiver's messages once per distinct sender order, and recurses once
  per distinct tuple of per-receiver *exact* states
  (:class:`~repro.mca.agent.AgentSnapshot`: timestamps, clocks and
  freshness tables included, since they steer later rounds), weighted
  by the number of activation orders that reach it.  Orders that meet
  in one exact state have identical subtrees, so nothing is lost.
* **Snapshot/restore branching** — the agents' snapshot protocol
  (:meth:`repro.mca.agent.Agent.snapshot`) captures agent state in
  O(items); every branch runs on the *same* engine, so there is no
  ``copy.deepcopy`` anywhere on the branch hot path.
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

The counters keep their per-activation-order meaning, so :func:`explore`
reports what a search over every activation order of every round would:
``paths_explored`` counts schedules, and ``memo_hits`` counts the
activation orders whose successor the memo answered.
:func:`explore_plain` is that search without the reduction and without
the memo, kept as the slow reference the ``explorer`` oracle and the
tests compare against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.mca.agent import AgentSnapshot
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
    """Every schedule converged: False on a counterexample, and on a
    search that stopped at its bound (see ``truncated``)."""
    paths_explored: int
    max_rounds_to_converge: int
    oscillating_trace: list[str] | None = None
    diverging_trace: list[str] | None = None
    memo_hits: int = 0
    states_memoized: int = 0
    truncated: bool = False
    """The search stopped at its bound before covering every schedule
    (and found no counterexample on the schedules it covered)."""

    @property
    def counterexample(self) -> list[str] | None:
        """A failing trace, if any path failed to converge."""
        return self.oscillating_trace or self.diverging_trace

    def _fail(self, history: list[str], marker: str) -> None:
        """Record the counterexample ``history`` followed by ``marker``."""
        self.all_converged = False
        trace = history + [marker]
        if marker == "<state repeats>":
            self.oscillating_trace = trace
        else:
            self.diverging_trace = trace
        self.paths_explored += 1

    def _truncate(self) -> None:
        self.all_converged = False
        self.truncated = True


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


def _order_classes(network: AgentNetwork):
    """Group a network's activation orders by what each receiver hears.

    Returns ``(sender_orders, classes)``.  ``sender_orders[i]`` lists
    the distinct orders in which the ``i``-th agent of
    ``network.agents()`` hears its neighbours.  Each class is
    ``(first activation order, number of activation orders, picks)``,
    where ``picks[i]`` indexes ``sender_orders[i]``; classes come in the
    order the activation orders first reach them.  Activation orders of
    one class give every state the same successor.
    """
    agent_ids = network.agents()
    senders = [frozenset(network.neighbors(r)) for r in agent_ids]
    indexes: list[dict[tuple[AgentId, ...], int]] = [{} for _ in agent_ids]
    classes: dict[tuple[int, ...], list] = {}
    for order in itertools.permutations(agent_ids):
        picks = tuple(
            index.setdefault(tuple(s for s in order if s in heard), len(index))
            for index, heard in zip(indexes, senders)
        )
        entry = classes.get(picks)
        if entry is None:
            classes[picks] = [order, 1]
        else:
            entry[1] += 1
    return ([list(index) for index in indexes],
            [(order, count, picks)
             for picks, (order, count) in classes.items()])


def explore(
    network: AgentNetwork,
    items: list[ItemId],
    policies: dict[int, AgentPolicy],
    max_rounds: int = 12,
    max_states: int = 2000,
) -> ExplorationResult:
    """Explore every per-round *agent activation order*.

    Each round, the engine normally activates agents in id order.  Here
    every permutation of the activation order is covered — the source
    of nondeterminism a synchronous protocol actually has — by branching
    once per distinct successor (see the module docstring), and every
    schedule must converge within ``max_rounds`` rounds.  The search
    stops at the first counterexample, when the whole schedule tree is
    covered, or before expanding a state past the ``max_states`` it
    has expanded (memo misses, and memo hits whose certificate does not
    fit the remaining rounds): such a search is ``truncated`` and
    ``all_converged`` is False.

    Counters are per activation order: at each converged leaf and each
    memo hit, ``paths_explored`` adds the number of activation-order
    sequences that reach it.  A successor reached by ``w`` activation
    orders adds ``w`` to ``memo_hits`` when the memo answers it, and
    ``w - 1`` when it is expanded (the other orders would have hit the
    certificate it leaves).  A trace names each round's first
    activation order that leads to the failing successor.  Like the
    oscillation detector, the memo table works at the granularity of
    *logical* states (winner, bid, bundle per agent, exactly as in
    ``Agent.view_signature``).
    """
    agent_ids = network.agents()
    sender_orders, classes = _order_classes(network)
    engine = SynchronousEngine(network, items, policies)
    agents = [engine.agents[a] for a in agent_ids]
    neighbours = [network.neighbors(a) for a in agent_ids]
    canonicalizer = StateCanonicalizer(network, policies)
    results = ExplorationResult(
        all_converged=True, paths_explored=0, max_rounds_to_converge=0
    )
    # canonical key -> (worst rounds to converge from the state, leaf count)
    memo: dict[tuple, tuple[int, int]] = {}
    history: list[str] = []
    expanded = 0

    def successors() -> list[tuple[tuple, int, tuple[AgentSnapshot, ...]]]:
        """``(first activation order, weight, agent states)`` for each
        distinct successor of the engine's state, in first-reach order.
        Leaves the agents in an unspecified state."""
        for agent in agents:
            agent.bid_phase()
        inboxes = [{sender: engine.agents[sender].outgoing_message(agent.id)
                    for sender in heard}
                    for agent, heard in zip(agents, neighbours)]
        outcomes: list[list[AgentSnapshot]] = []
        outcome_of: list[list[int]] = []
        for agent, inbox, orders in zip(agents, inboxes, sender_orders):
            posted = agent.snapshot()
            seen: dict[AgentSnapshot, int] = {}
            picked = []
            for senders in orders:
                agent.restore(posted)
                for sender in senders:
                    agent.receive(inbox[sender])
                picked.append(seen.setdefault(agent.snapshot(), len(seen)))
            outcomes.append(list(seen))
            outcome_of.append(picked)
        groups: dict[tuple[int, ...], list] = {}
        for order, count, picks in classes:
            key = tuple(outcome_of[i][pick] for i, pick in enumerate(picks))
            group = groups.get(key)
            if group is None:
                groups[key] = [order, count]
            else:
                group[1] += count
        return [(order, count,
                 tuple(outcomes[i][state] for i, state in enumerate(key)))
                for key, (order, count) in groups.items()]

    def dfs(path_seen: frozenset, paths: int,
            weight: int) -> tuple[int, int] | None:
        """Explore all schedules from the engine's current state.

        ``paths`` activation-order sequences reach the state, ``weight``
        of them through its last round's successor group.  Returns
        (worst rounds to converge, converged leaf count), or None when
        a counterexample was recorded or the search was truncated.
        """
        nonlocal expanded
        if _is_quiescent(engine):
            results.paths_explored += paths
            results.max_rounds_to_converge = max(
                results.max_rounds_to_converge, len(history)
            )
            return 0, 1
        signature = engine.global_signature()
        if signature in path_seen:
            results._fail(history, "<state repeats>")
            return None
        if len(history) >= max_rounds:
            results._fail(history, "<bound exceeded>")
            return None
        remaining = max_rounds - len(history)
        key = canonicalizer.key(signature)
        hit = memo.get(key)
        # Reuse only when the certified worst case fits the budget;
        # otherwise a fresh search could legitimately report divergence.
        if hit is not None and hit[0] <= remaining:
            results.memo_hits += weight
            results.paths_explored += paths * hit[1]
            results.max_rounds_to_converge = max(
                results.max_rounds_to_converge, len(history) + hit[0]
            )
            return hit
        if expanded >= max_states:
            results._truncate()
            return None
        expanded += 1
        deeper = path_seen | {signature}
        worst = 0
        leaves = 0
        for order, count, states in successors():
            for agent, state in zip(agents, states):
                agent.restore(state)
            history.append(f"round order {order}")
            outcome = dfs(deeper, paths * count, count)
            history.pop()
            if outcome is None:
                return None
            worst = max(worst, outcome[0] + 1)
            leaves += count * outcome[1]
        memo[key] = (worst, leaves)
        results.states_memoized = len(memo)
        results.memo_hits += weight - 1
        return worst, leaves

    dfs(frozenset(), 1, 1)
    return results


def explore_plain(
    network: AgentNetwork,
    items: list[ItemId],
    policies: dict[int, AgentPolicy],
    max_rounds: int = 12,
    max_paths: int = 2000,
) -> ExplorationResult:
    """The reference search: one full round per activation order, no memo.

    Runs every permutation of the activation order at every state, path
    by path, with none of :func:`explore`'s reductions; it stops at the
    first counterexample or, ``truncated``, once ``max_paths`` complete
    paths have been counted.  Slow and obviously exhaustive: the
    ``explorer`` oracle and the tests check :func:`explore` against it.
    """
    orders = list(itertools.permutations(network.agents()))
    engine = SynchronousEngine(network, items, policies)
    results = ExplorationResult(
        all_converged=True, paths_explored=0, max_rounds_to_converge=0
    )
    history: list[str] = []

    def dfs(path_seen: frozenset) -> bool:
        """Explore all schedules from the engine's current state; False
        when a counterexample was recorded or the search was truncated.
        The engine is always left in its entry state."""
        if _is_quiescent(engine):
            results.paths_explored += 1
            results.max_rounds_to_converge = max(
                results.max_rounds_to_converge, len(history)
            )
            return True
        signature = engine.global_signature()
        if signature in path_seen:
            results._fail(history, "<state repeats>")
            return False
        if len(history) >= max_rounds:
            results._fail(history, "<bound exceeded>")
            return False
        deeper = path_seen | {signature}
        snapshot = engine.snapshot()
        for order in orders:
            if results.paths_explored >= max_paths:
                results._truncate()
                return False
            engine.step(order)
            history.append(f"round order {order}")
            finished = dfs(deeper)
            history.pop()
            engine.restore(snapshot)
            if not finished:
                return False
        return True

    dfs(frozenset())
    return results


def _is_quiescent(engine: SynchronousEngine) -> bool:
    """True when one more round would change nothing."""
    before = engine.global_signature()
    snapshot = engine.snapshot()
    engine.step(engine.network.agents())
    after = engine.global_signature()
    engine.restore(snapshot)
    return before == after
