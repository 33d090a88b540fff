"""Asynchronous conflict resolution: the agreement mechanism's core rules.

The paper's dynamic sub-model encodes a "conflict resolution table" applied
as bid messages are processed.  This module implements that table for
beliefs carrying (winner, bid, timestamp, origin):

* **Staleness filter** — every piece of information is stamped with the
  Lamport time of its *generation* by its *origin* agent.  A receiver
  remembers, per item, the newest generation time it has incorporated from
  each origin; older information from the same origin is discarded.  This
  is what makes the protocol safe under out-of-order message delivery
  (Section II-A's motivation for the time-stamp vector ``t``).
* **Reset rule** — a release (winner=None) generated by agent ``o``
  invalidates the receiver's belief only if the receiver currently believes
  ``o`` is the winner.
* **Claim rules** — a fresher claim by the same winner replaces the old one
  (bids may be refreshed downward after a release, Remark 2); claims by a
  different winner displace the current one only under the max-rule
  (strictly higher bid, or equal bid with lower agent id).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mca.items import AgentId, ItemBelief, ItemId


@dataclass
class ResolutionOutcome:
    """What happened when one incoming item belief was processed."""

    changed: bool
    adopted: ItemBelief


@dataclass
class ConflictResolver:
    """Per-agent conflict-resolution state for the agreement mechanism."""

    agent_id: AgentId
    # freshness[item][origin] = newest generation counter incorporated.
    _freshness: dict[ItemId, dict[AgentId, tuple]] = field(default_factory=dict)

    def is_stale(self, item: ItemId, incoming: ItemBelief) -> bool:
        """True when equally-new-or-newer info from the same origin was
        already incorporated."""
        per_item = self._freshness.get(item)
        if not per_item:
            return False
        seen = per_item.get(incoming.origin)
        if seen is None:
            return False
        return (incoming.time.counter, incoming.time.agent_id) <= seen

    def _record(self, item: ItemId, incoming: ItemBelief) -> None:
        per_item = self._freshness.setdefault(item, {})
        per_item[incoming.origin] = (
            incoming.time.counter,
            incoming.time.agent_id,
        )

    def resolve(self, item: ItemId, local: ItemBelief,
                incoming: ItemBelief) -> ResolutionOutcome:
        """Apply the conflict-resolution table to one item."""
        if incoming.origin < 0:
            # The unassigned initial belief carries no information.
            return ResolutionOutcome(False, local)
        if self.is_stale(item, incoming):
            return ResolutionOutcome(False, local)
        self._record(item, incoming)

        if incoming.winner is None:
            # Reset generated by incoming.origin: only honoured when we
            # believe precisely that agent is winning the item.
            if local.winner is not None and local.winner == incoming.origin:
                return ResolutionOutcome(True, incoming)
            return ResolutionOutcome(False, local)

        if local.winner is None:
            return ResolutionOutcome(True, incoming)

        if local.winner == incoming.winner:
            # Fresher information about the same winner (the staleness
            # filter guarantees incoming is newer).
            if incoming.time > local.time:
                return ResolutionOutcome(incoming != local, incoming)
            return ResolutionOutcome(False, local)

        # Competing claims by different winners: max-rule.
        if incoming.beats(local):
            return ResolutionOutcome(True, incoming)
        return ResolutionOutcome(False, local)

    # ------------------------------------------------------------------
    # Snapshot protocol (cheap state save/restore for the explorer)
    # ------------------------------------------------------------------

    def snapshot(self) -> frozenset[tuple[ItemId, AgentId, tuple]]:
        """Capture the resolver state for later :meth:`restore`.

        One ``(item, origin, generation)`` entry per incorporated origin:
        immutable and hashable, and equal for equal tables whatever
        order they were filled in.
        """
        return frozenset(
            (item, origin, seen)
            for item, per_item in self._freshness.items()
            for origin, seen in per_item.items()
        )

    def restore(self, snapshot: frozenset[tuple[ItemId, AgentId, tuple]]
                ) -> None:
        """Reset the resolver to a previously captured snapshot.

        The snapshot is immutable, so one snapshot can be restored many
        times — the explorer restores the same state once per branch.
        """
        freshness: dict[ItemId, dict[AgentId, tuple]] = {}
        for item, origin, seen in snapshot:
            freshness.setdefault(item, {})[origin] = seen
        self._freshness = freshness
