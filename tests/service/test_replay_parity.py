"""Property test: replaying the journal reconstructs the queue exactly.

Every in-memory mutation the live queue makes must be derivable from the
events it journals — worker ids, lease bookkeeping, attempt budgets,
error strings, timestamps.  This drives a randomized operation sequence
(submits and resubmits, local and satellite claims, completions,
retryable and fatal failures, lease-expiry sweeps, heartbeats) against a
live queue, then replays its journal into a fresh :class:`JobQueue` and
asserts per-job state matches field for field.  Any transition that
mutates state without journaling enough to reproduce it fails here —
this is what pinned the resubmission attempt-reset bug and pins the
lease events now.
"""

import dataclasses
import random

import pytest

from repro.api.codec import problem_to_json
from repro.fuzz.generators import FuzzSpec, generate
from repro.service.queue import RUNNING, JobQueue, LeaseError
from repro.service.schema import decode_submission

POOL = 8
"""Distinct jobs each history draws from (resubmission needs repeats)."""

OPS = 150
"""Random operations per history."""


def submissions():
    return [decode_submission({"problem": problem_to_json(
        generate(FuzzSpec.make("formula", seed)))})
        for seed in range(POOL)]


def snapshots(queue, ids, state=None):
    records = (queue.get(jid) for jid in ids)
    return [r for r in records
            if r is not None and (state is None or r.state == state)]


@pytest.mark.parametrize("seed", range(8))
def test_random_histories_replay_identically(tmp_path, seed):
    rng = random.Random(seed)
    max_attempts = rng.choice([1, 2, 3])
    queue = JobQueue(tmp_path, max_attempts=max_attempts)
    pool = submissions()
    ids = [sub.job_id for sub in pool]
    for _ in range(OPS):
        op = rng.randrange(8)
        if op in (0, 1):  # submit (also requeues errored jobs)
            queue.submit(rng.choice(pool))
        elif op == 2:  # local claim: no deadline
            queue.claim(rng.randrange(1, 4))
        elif op == 3:  # satellite claim, sometimes already-lapsed
            queue.claim(rng.randrange(1, 4),
                        worker=f"sat-{rng.randrange(3)}",
                        lease_seconds=rng.choice([0.001, 60.0]))
        elif op == 4:  # complete, with or without presenting the lease
            running = snapshots(queue, ids, RUNNING)
            if running:
                record = rng.choice(running)
                queue.complete(record.id,
                               lease=rng.choice([None, record.lease]))
        elif op == 5:  # fail: retryable or fatal, oversized error string
            running = snapshots(queue, ids, RUNNING)
            if running:
                record = rng.choice(running)
                queue.fail(record.id, "x" * rng.choice([5, 900]),
                           retryable=rng.random() < 0.7,
                           lease=rng.choice([None, record.lease]))
        elif op == 6:  # sweep whatever 0.001s leases have lapsed
            queue.expire_leases()
        elif op == 7:  # heartbeat a random live lease
            running = snapshots(queue, ids, RUNNING)
            if running:
                record = rng.choice(running)
                if record.lease is not None:
                    try:
                        queue.heartbeat(record.lease, 60.0)
                    except LeaseError:
                        pass  # lapsed between snapshot and beat
    # Resolve everything still in flight: replay deliberately requeues
    # running jobs (a crash lapses their leases), so strict parity is
    # asserted over histories that end with nothing running.
    for record in snapshots(queue, ids, RUNNING):
        if rng.random() < 0.5:
            queue.complete(record.id)
        else:
            queue.fail(record.id, "wind-down", retryable=False)
    live = {jid: dataclasses.asdict(queue.get(jid))
            for jid in ids if queue.get(jid) is not None}
    live_counts = queue.counts()
    assert live, "a history must touch at least one job"
    queue.close()

    revived = JobQueue(tmp_path, max_attempts=max_attempts)
    assert revived.recovered == 0
    assert revived.counts() == live_counts
    assert len(revived) == len(live)
    for jid, expected in live.items():
        assert dataclasses.asdict(revived.get(jid)) == expected, (
            f"job {jid} diverged after replay")
    revived.close()
