"""Protocol engines: synchronous rounds and asynchronous message delivery.

The synchronous engine is the Figure-1/Figure-2 execution model: every round
each agent runs its bidding phase, then all agents exchange their views with
their neighbors simultaneously.  The asynchronous engine delivers one
message at a time under a pluggable scheduler — the execution model of the
paper's dynamic sub-model (``netState``/``buffMsgs``).

Both engines record traces and terminate on convergence, on a detected
oscillation (a repeated global logical state), or at a round/message cap.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.mca.agent import Agent, AgentSnapshot
from repro.mca.items import AgentId, ItemId
from repro.mca.messages import BidMessage
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy


@dataclass(frozen=True)
class EngineSnapshot:
    """Capture of an engine's complete state (one snapshot per agent).

    Built by :meth:`SynchronousEngine.snapshot` and applied by its
    ``restore``; the explorer uses these instead of ``copy.deepcopy`` to
    branch over schedules in O(agents * items).
    """

    agents: tuple[tuple[AgentId, AgentSnapshot], ...]
    messages_processed: int


class Outcome(enum.Enum):
    """Terminal verdict of a protocol run."""

    CONVERGED = "converged"
    OSCILLATION = "oscillation"
    EXHAUSTED = "exhausted"


@dataclass
class RoundRecord:
    """Snapshot of one synchronous round."""

    round_index: int
    bids: dict[AgentId, dict[ItemId, float]]
    bundles: dict[AgentId, tuple[ItemId, ...]]
    allocation: dict[ItemId, AgentId | None]


@dataclass
class RunResult:
    """Everything a protocol run produced."""

    outcome: Outcome
    rounds: int
    messages_processed: int
    allocation: dict[ItemId, AgentId | None]
    trace: list[RoundRecord] = field(default_factory=list)
    cycle_start: int | None = None
    cycle_length: int | None = None

    @property
    def converged(self) -> bool:
        """True when a stable agreement was reached."""
        return self.outcome is Outcome.CONVERGED

    @property
    def oscillated(self) -> bool:
        """True when a repeating logical state (livelock) was detected."""
        return self.outcome is Outcome.OSCILLATION


def build_agents(network: AgentNetwork, items: list[ItemId],
                 policies: dict[AgentId, AgentPolicy]) -> dict[AgentId, Agent]:
    """Instantiate one agent per network node with its policy."""
    missing = [a for a in network.agents() if a not in policies]
    if missing:
        raise ValueError(f"no policy for agents {missing}")
    return {
        agent_id: Agent(agent_id, policies[agent_id], items)
        for agent_id in network.agents()
    }


class SynchronousEngine:
    """Lock-step rounds: bid, then exchange with all neighbors."""

    def __init__(self, network: AgentNetwork, items: list[ItemId],
                 policies: dict[AgentId, AgentPolicy]) -> None:
        self.network = network
        self.items = list(items)
        self.agents = build_agents(network, items, policies)
        self.messages_processed = 0

    def global_signature(self) -> tuple:
        """Hashable logical state: every agent's view signature, in order."""
        return tuple(
            self.agents[a].view_signature() for a in self.network.agents()
        )

    def snapshot(self) -> EngineSnapshot:
        """Capture all agent states for later :meth:`restore`."""
        return EngineSnapshot(
            agents=tuple(
                (a, self.agents[a].snapshot()) for a in self.network.agents()
            ),
            messages_processed=self.messages_processed,
        )

    def restore(self, snapshot: EngineSnapshot) -> None:
        """Reset every agent to a previously captured snapshot."""
        for agent_id, agent_snapshot in snapshot.agents:
            self.agents[agent_id].restore(agent_snapshot)
        self.messages_processed = snapshot.messages_processed

    def _allocation(self) -> dict[ItemId, AgentId | None]:
        """Winner per item according to agent 0's view (post-convergence all
        views agree; pre-convergence this is just a progress indicator)."""
        first = self.agents[self.network.agents()[0]]
        return {item: first.beliefs[item].winner for item in self.items}

    def _record(self, round_index: int) -> RoundRecord:
        return RoundRecord(
            round_index=round_index,
            bids={
                a: {j: ag.beliefs[j].bid for j in self.items}
                for a, ag in self.agents.items()
            },
            bundles={a: tuple(ag.bundle) for a, ag in self.agents.items()},
            allocation=self._allocation(),
        )

    def step(self, order) -> bool:
        """Run one round with the agents activated in ``order``.

        Every agent bids, every message is built, then every message is
        delivered (a simultaneous exchange), each in activation order.
        Returns True when any bid or delivery changed something; every
        delivery counts in ``messages_processed``.
        """
        changed = False
        for agent_id in order:
            changed = self.agents[agent_id].bid_phase() or changed
        outbox = [self.agents[sender].outgoing_message(receiver)
                  for sender in order
                  for receiver in self.network.neighbors(sender)]
        for message in outbox:
            self.messages_processed += 1
            changed = self.agents[message.receiver].receive(message) or changed
        return changed

    def run(self, max_rounds: int = 100) -> RunResult:
        """Run until convergence, oscillation, or ``max_rounds``."""
        trace: list[RoundRecord] = []
        seen: dict[tuple, int] = {}
        for round_index in range(max_rounds):
            changed = self.step(self.network.agents())
            trace.append(self._record(round_index))
            if not changed:
                return RunResult(
                    outcome=Outcome.CONVERGED,
                    rounds=round_index + 1,
                    messages_processed=self.messages_processed,
                    allocation=self._allocation(),
                    trace=trace,
                )
            signature = self.global_signature()
            if signature in seen:
                return RunResult(
                    outcome=Outcome.OSCILLATION,
                    rounds=round_index + 1,
                    messages_processed=self.messages_processed,
                    allocation=self._allocation(),
                    trace=trace,
                    cycle_start=seen[signature],
                    cycle_length=round_index - seen[signature],
                )
            seen[signature] = round_index
        return RunResult(
            outcome=Outcome.EXHAUSTED,
            rounds=max_rounds,
            messages_processed=self.messages_processed,
            allocation=self._allocation(),
            trace=trace,
        )


class AsynchronousEngine:
    """One-message-at-a-time delivery under a pluggable scheduler.

    Schedulers: ``"fifo"`` processes the buffer in order; ``"random"``
    picks a buffered message uniformly (seeded).  After every delivery the
    receiver re-runs its bidding phase and, if its view changed or it placed
    new bids, broadcasts to its neighbors.
    """

    def __init__(self, network: AgentNetwork, items: list[ItemId],
                 policies: dict[AgentId, AgentPolicy],
                 scheduler: str = "fifo", seed: int = 0) -> None:
        if scheduler not in ("fifo", "random"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.network = network
        self.items = list(items)
        self.agents = build_agents(network, items, policies)
        self.scheduler = scheduler
        self._rng = random.Random(seed)
        self.buffer: list[BidMessage] = []
        self.messages_processed = 0

    def _broadcast(self, sender: AgentId) -> None:
        for receiver in self.network.neighbors(sender):
            self.buffer.append(self.agents[sender].outgoing_message(receiver))

    def _signature(self) -> tuple:
        views = tuple(
            self.agents[a].view_signature() for a in self.network.agents()
        )
        pending = tuple(sorted(
            (m.sender, m.receiver, tuple(
                (j, -1 if b.winner is None else b.winner, b.bid)
                for j, b in m.beliefs
            ))
            for m in self.buffer
        ))
        return views, pending

    def run(self, max_messages: int = 10000) -> RunResult:
        """Run until the buffer drains (convergence), a repeated logical
        state (oscillation), or the message cap."""
        for agent_id in self.network.agents():
            if self.agents[agent_id].bid_phase():
                self._broadcast(agent_id)
        seen: dict[tuple, int] = {self._signature(): 0}
        while self.buffer:
            if self.messages_processed >= max_messages:
                return self._result(Outcome.EXHAUSTED)
            if self.scheduler == "random":
                index = self._rng.randrange(len(self.buffer))
            else:
                index = 0
            message = self.buffer.pop(index)
            self.messages_processed += 1
            receiver = self.agents[message.receiver]
            changed = receiver.receive(message)
            rebid = receiver.bid_phase()
            if changed or rebid:
                self._broadcast(message.receiver)
            signature = self._signature()
            if signature in seen:
                result = self._result(Outcome.OSCILLATION)
                result.cycle_start = seen[signature]
                result.cycle_length = self.messages_processed - seen[signature]
                return result
            seen[signature] = self.messages_processed
        return self._result(Outcome.CONVERGED)

    def _allocation(self) -> dict[ItemId, AgentId | None]:
        first = self.agents[self.network.agents()[0]]
        return {item: first.beliefs[item].winner for item in self.items}

    def _result(self, outcome: Outcome) -> RunResult:
        return RunResult(
            outcome=outcome,
            rounds=0,
            messages_processed=self.messages_processed,
            allocation=self._allocation(),
        )
