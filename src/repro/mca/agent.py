"""MCA agents: the bidding mechanism plus message processing.

An agent holds its item view (the vectors ``a``, ``b``, ``t`` of Section
II-A), its ordered bundle ``m``, a Lamport clock, and its policy
instantiation.  The two mechanism entry points are

* :meth:`Agent.bid_phase` — greedy bundle construction: repeatedly claim
  the item with the highest marginal utility that beats the currently known
  winning bid, until the target ``T`` is reached (plus the malicious
  variants of Result 2); and
* :meth:`Agent.receive` — agreement: merge an incoming bid message through
  the conflict-resolution table, then detect outbids and apply the
  release-outbid policy (Remarks 1 and 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mca.conflict import ConflictResolver
from repro.mca.items import AgentId, ItemBelief, ItemId, Timestamp
from repro.mca.messages import BidMessage
from repro.mca.policies import AgentPolicy, RebidStrategy

DEFAULT_BID_CAP = 10 ** 6


@dataclass(frozen=True)
class OutbidEvent:
    """Record of one outbid detection (used for traces and analysis)."""

    item: ItemId
    new_winner: AgentId | None
    released: tuple[ItemId, ...]


@dataclass(frozen=True)
class AgentSnapshot:
    """Cheap, immutable capture of one agent's complete state.

    Beliefs and outbid events are immutable records, so the snapshot only
    copies containers (no deep copy).  Taking and restoring a snapshot is
    O(items), versus O(object graph) for ``copy.deepcopy`` — the
    difference that makes exhaustive schedule exploration tractable.
    Every field is hashable, so equal snapshots are equal exact agent
    states: the explorer groups schedules by them.
    """

    beliefs: tuple[tuple[ItemId, ItemBelief], ...]
    bundle: tuple[ItemId, ...]
    clock: int
    outbid_log: tuple[OutbidEvent, ...]
    attack_claims: frozenset[ItemId]
    freshness: frozenset[tuple[ItemId, AgentId, tuple]]


class Agent:
    """One MCA agent (a physical node in the VN-mapping case study)."""

    def __init__(self, agent_id: AgentId, policy: AgentPolicy,
                 items: list[ItemId]) -> None:
        if agent_id < 0:
            raise ValueError("agent ids must be non-negative")
        self.id = agent_id
        self.policy = policy
        self.items = list(items)
        self.beliefs: dict[ItemId, ItemBelief] = {
            item: ItemBelief.unassigned() for item in items
        }
        self.bundle: list[ItemId] = []
        self.clock = 0
        self.outbid_log: list[OutbidEvent] = []
        self._resolver = ConflictResolver(agent_id)
        self._attack_claims: set[ItemId] = set()
        self._bid_cap = policy.extra.get("bid_cap", DEFAULT_BID_CAP)

    # ------------------------------------------------------------------
    # Clock & belief plumbing
    # ------------------------------------------------------------------

    def _tick(self) -> Timestamp:
        self.clock += 1
        return Timestamp(self.clock, self.id)

    def _generate(self, item: ItemId, winner: AgentId | None,
                  bid: float) -> None:
        """Record a locally generated claim/reset with a fresh timestamp."""
        belief = ItemBelief(winner=winner, bid=bid, time=self._tick(),
                            origin=self.id)
        self.beliefs[item] = belief
        # Register our own generation so echoes of older info are stale.
        self._resolver.resolve(item, belief, belief)

    # ------------------------------------------------------------------
    # Bidding mechanism
    # ------------------------------------------------------------------

    def bid_phase(self) -> bool:
        """Greedy bundle construction; returns True when new bids were made."""
        changed = self._honest_bids()
        if self.policy.rebid is RebidStrategy.ESCALATE:
            changed = self._escalate_bids() or changed
        elif self.policy.rebid is RebidStrategy.FLIPFLOP:
            changed = self._flipflop_bids() or changed
        return changed

    def _honest_bids(self) -> bool:
        changed = False
        while len(self.bundle) < self.policy.target:
            best_item: ItemId | None = None
            best_value = 0.0
            for item in self.items:
                if item in self.bundle:
                    continue
                value = self.policy.utility.marginal(item, self.bundle)
                if value <= 0:
                    continue
                candidate = ItemBelief(self.id, value, Timestamp(0, self.id),
                                       self.id)
                if not candidate.beats(self.beliefs[item]):
                    continue  # Remark 1: cannot beat the known winning bid
                if best_item is None or value > best_value:
                    best_item = item
                    best_value = value
            if best_item is None:
                break
            self._generate(best_item, self.id, best_value)
            self.bundle.append(best_item)
            changed = True
        return changed

    def _escalate_bids(self) -> bool:
        """Malicious: re-claim every lost item at (winning bid + 1)."""
        changed = False
        for item in self.items:
            belief = self.beliefs[item]
            if belief.winner in (None, self.id):
                continue
            lie = belief.bid + 1
            if lie > self._bid_cap:
                continue
            self._generate(item, self.id, lie)
            if item not in self.bundle:
                self.bundle.append(item)
            changed = True
        return changed

    def _flipflop_bids(self) -> bool:
        """Malicious: alternately hijack and release items (DoS livelock)."""
        changed = False
        for item in self.items:
            belief = self.beliefs[item]
            if belief.winner == self.id and item in self._attack_claims:
                # We won via an attack claim: release, forcing re-auction.
                self._generate(item, None, 0.0)
                self._attack_claims.discard(item)
                if item in self.bundle:
                    self.bundle.remove(item)
                changed = True
            elif belief.winner not in (None, self.id):
                lie = belief.bid + 1
                if lie > self._bid_cap:
                    continue
                self._generate(item, self.id, lie)
                self._attack_claims.add(item)
                if item not in self.bundle:
                    self.bundle.append(item)
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Agreement mechanism
    # ------------------------------------------------------------------

    def receive(self, message: BidMessage) -> bool:
        """Merge an incoming bid message; returns True when beliefs changed."""
        self.clock = max(self.clock, message.clock) + 1
        changed = False
        for item, incoming in message.view().items():
            if item not in self.beliefs:
                continue
            outcome = self._resolver.resolve(item, self.beliefs[item], incoming)
            if outcome.changed:
                self.beliefs[item] = outcome.adopted
                changed = True
        if changed:
            self._handle_outbids()
        return changed

    def _handle_outbids(self) -> None:
        """Drop lost items; with ``p_RO`` release all subsequent items."""
        while True:
            lost_positions = [
                k for k, item in enumerate(self.bundle)
                if self.beliefs[item].winner != self.id
            ]
            if not lost_positions:
                return
            first = lost_positions[0]
            lost_item = self.bundle[first]
            if self.policy.release_outbid:
                released = tuple(self.bundle[first + 1:])
                self.bundle = self.bundle[:first]
                for item in released:
                    # Remark 2: bids generated after an outbid item were
                    # computed with an outdated budget — release them.
                    if self.beliefs[item].winner == self.id:
                        self._generate(item, None, 0.0)
                self.outbid_log.append(
                    OutbidEvent(lost_item, self.beliefs[lost_item].winner,
                                released)
                )
            else:
                del self.bundle[first]
                self.outbid_log.append(
                    OutbidEvent(lost_item, self.beliefs[lost_item].winner, ())
                )

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def outgoing_message(self, receiver: AgentId) -> BidMessage:
        """The agreement-phase broadcast of the full current view."""
        return BidMessage.from_view(self.id, receiver, self.beliefs, self.clock)

    # ------------------------------------------------------------------
    # Snapshot protocol (cheap state save/restore for the explorer)
    # ------------------------------------------------------------------

    def snapshot(self) -> AgentSnapshot:
        """Capture the full agent state for later :meth:`restore`."""
        return AgentSnapshot(
            beliefs=tuple(self.beliefs.items()),
            bundle=tuple(self.bundle),
            clock=self.clock,
            outbid_log=tuple(self.outbid_log),
            attack_claims=frozenset(self._attack_claims),
            freshness=self._resolver.snapshot(),
        )

    def restore(self, snapshot: AgentSnapshot) -> None:
        """Reset the agent to a previously captured snapshot."""
        self.beliefs = dict(snapshot.beliefs)
        self.bundle = list(snapshot.bundle)
        self.clock = snapshot.clock
        self.outbid_log = list(snapshot.outbid_log)
        self._attack_claims = set(snapshot.attack_claims)
        self._resolver.restore(snapshot.freshness)

    def view_signature(self) -> tuple:
        """Hashable snapshot of (winner, bid) per item plus the bundle.

        Timestamps are deliberately excluded: oscillation detection needs
        recurring *logical* states even though clocks keep advancing.
        """
        return (
            tuple(
                (item, self.beliefs[item].winner, self.beliefs[item].bid)
                for item in self.items
            ),
            tuple(self.bundle),
        )

    def __repr__(self) -> str:
        return f"Agent({self.id}, bundle={self.bundle})"
