"""JobQueue state transitions, journal durability and crash recovery."""

import dataclasses
import json

import pytest

from repro.api.codec import problem_to_json
from repro.fuzz.generators import FuzzSpec, generate
from repro.service.queue import (
    DONE,
    ERROR,
    MAX_JOURNALED_ERROR,
    PENDING,
    RUNNING,
    JobQueue,
    LeaseError,
    QueueError,
)
from repro.service.schema import decode_submission


def submission(seed=0, **extra):
    payload = {"problem": problem_to_json(
        generate(FuzzSpec.make("formula", seed)))}
    payload.update(extra)
    return decode_submission(payload)


class TestTransitions:
    def test_happy_path(self, tmp_path):
        queue = JobQueue(tmp_path)
        record, created = queue.submit(submission())
        assert created and record.state == PENDING
        claimed = queue.claim(10)
        assert [r.id for r in claimed] == [record.id]
        assert record.state == RUNNING and record.attempts == 1
        queue.complete(record.id)
        assert record.state == DONE
        assert queue.counts() == {"pending": 0, "running": 0,
                                  "done": 1, "error": 0}

    def test_submission_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path)
        first, created1 = queue.submit(submission())
        second, created2 = queue.submit(submission())
        assert created1 and not created2
        assert first is second
        assert len(queue) == 1

    def test_claim_respects_the_limit(self, tmp_path):
        queue = JobQueue(tmp_path)
        for seed in range(5):
            queue.submit(submission(seed))
        assert len(queue.claim(2)) == 2
        assert len(queue.claim(10)) == 3
        assert queue.claim(10) == []

    def test_retryable_failure_requeues_until_the_cap(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        record, _ = queue.submit(submission())
        queue.claim(1)
        queue.fail(record.id, "stalled", retryable=True)
        assert record.state == PENDING and record.attempts == 1
        queue.claim(1)
        queue.fail(record.id, "stalled again", retryable=True)
        assert record.state == ERROR
        assert "stalled again" in record.error

    def test_non_retryable_failure_parks_immediately(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=5)
        record, _ = queue.submit(submission())
        queue.claim(1)
        queue.fail(record.id, "deterministic crash", retryable=False)
        assert record.state == ERROR and record.attempts == 1

    def test_resubmitting_an_errored_job_requeues_it(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=1)
        record, _ = queue.submit(submission())
        queue.claim(1)
        queue.fail(record.id, "boom", retryable=True)
        assert record.state == ERROR
        again, created = queue.submit(submission())
        assert again is record and not created
        assert record.state == PENDING and record.attempts == 0

    def test_impossible_transitions_raise(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(QueueError, match="unknown job"):
            queue.complete("nope")
        record, _ = queue.submit(submission())
        with pytest.raises(QueueError, match="pending, expected running"):
            queue.complete(record.id)

    def test_by_fingerprint_indexes_every_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        plain = submission()
        tuned = submission(options={"symmetry": 0})
        queue.submit(plain)
        queue.submit(tuned)
        assert plain.fingerprint == tuned.fingerprint
        assert len(queue.by_fingerprint(plain.fingerprint)) == 2
        assert queue.by_fingerprint("f" * 64) == []


class TestLeases:
    def test_claims_carry_worker_and_deadline(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(submission(0))
        queue.submit(submission(1))
        (remote,) = queue.claim(1, worker="sat-1", lease_seconds=30.0)
        assert remote.worker == "sat-1"
        assert remote.lease is not None
        assert remote.lease_deadline == pytest.approx(
            remote.started_at + 30.0)
        (local,) = queue.claim(1)
        assert local.worker == "local"
        assert local.lease is not None
        assert local.lease_deadline is None
        assert queue.lease_counts() == {"sat-1": 1, "local": 1}
        queue.close()

    def test_expired_leases_requeue_then_park_at_the_cap(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        record, _ = queue.submit(submission())
        (first,) = queue.claim(1, worker="sat-1", lease_seconds=5.0)
        assert queue.expire_leases(now=first.started_at + 1.0) == []
        (swept,) = queue.expire_leases(now=first.started_at + 6.0)
        assert swept.state == PENDING and swept.attempts == 1
        assert record.worker is None and record.lease is None
        (second,) = queue.claim(1, worker="sat-2", lease_seconds=5.0)
        (swept,) = queue.expire_leases(now=second.started_at + 6.0)
        assert swept.state == ERROR
        assert "expired" in record.error and "sat-2" in record.error
        queue.close()

    def test_local_leases_never_expire(self, tmp_path):
        queue = JobQueue(tmp_path)
        record, _ = queue.submit(submission())
        (claimed,) = queue.claim(1)
        assert queue.expire_leases(now=claimed.started_at + 1e6) == []
        assert record.state == RUNNING
        queue.close()

    def test_heartbeat_extends_the_deadline(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(submission())
        (claimed,) = queue.claim(1, worker="sat", lease_seconds=1.0)
        before = claimed.lease_deadline
        extended = queue.heartbeat(claimed.lease, 600.0)
        assert extended.lease_deadline > before
        assert queue.expire_leases(now=before + 1.0) == []  # renewed
        with pytest.raises(LeaseError, match="unknown or lapsed"):
            queue.heartbeat("nope")
        queue.close()

    def test_heartbeat_on_a_local_lease_is_a_no_op(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(submission())
        (claimed,) = queue.claim(1)
        assert queue.heartbeat(claimed.lease).lease_deadline is None
        queue.close()

    def test_a_stale_lease_cannot_complete_or_fail(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=5)
        record, _ = queue.submit(submission())
        (claimed,) = queue.claim(1, worker="sat-1", lease_seconds=0.01)
        stale = claimed.lease
        queue.expire_leases(now=claimed.started_at + 1.0)
        (reclaimed,) = queue.claim(1, worker="sat-2", lease_seconds=30.0)
        with pytest.raises(LeaseError, match="no longer holds"):
            queue.complete(record.id, lease=stale)
        with pytest.raises(LeaseError, match="no longer holds"):
            queue.fail(record.id, "late", lease=stale)
        done = queue.complete(record.id, lease=reclaimed.lease)
        assert done.state == DONE and done.worker == "sat-2"
        queue.close()

    def test_expiry_journals_release_then_requeue(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(submission())
        (claimed,) = queue.claim(1, worker="sat", lease_seconds=0.01)
        queue.expire_leases(now=claimed.started_at + 1.0)
        queue.close()
        events = [json.loads(line)["event"] for line in
                  (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert events == ["submit", "lease", "release", "requeue"]

    def test_error_strings_are_capped_in_memory_and_journal(self, tmp_path):
        queue = JobQueue(tmp_path, max_attempts=2)
        record, _ = queue.submit(submission())
        queue.claim(1)
        queue.fail(record.id, "x" * 2000, retryable=True)  # requeue reason
        queue.claim(1)
        queue.fail(record.id, "y" * 2000, retryable=True)  # cap hit: parks
        assert len(record.error) == MAX_JOURNALED_ERROR
        queue.close()
        for line in (tmp_path / "journal.jsonl").read_text().splitlines():
            event = json.loads(line)
            for key in ("reason", "error"):
                if key in event:
                    assert len(event[key]) <= MAX_JOURNALED_ERROR


class TestSnapshots:
    def test_get_returns_an_independent_copy(self, tmp_path):
        queue = JobQueue(tmp_path)
        record, _ = queue.submit(submission())
        snapshot = queue.get(record.id)
        assert snapshot == record and snapshot is not record
        snapshot.state = DONE  # a reader mangling its copy
        snapshot.attempts = 99
        assert queue.get(record.id).state == PENDING
        assert queue.counts()["pending"] == 1
        queue.close()

    def test_by_fingerprint_returns_copies(self, tmp_path):
        queue = JobQueue(tmp_path)
        record, _ = queue.submit(submission())
        (snapshot,) = queue.by_fingerprint(record.fingerprint)
        assert snapshot is not record
        snapshot.state = ERROR
        assert queue.get(record.id).state == PENDING
        queue.close()


class TestRecovery:
    def test_replay_restores_finished_and_pending_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        done, _ = queue.submit(submission(0))
        pending, _ = queue.submit(submission(1))
        queue.claim(1)
        queue.complete(done.id)
        queue.close()

        revived = JobQueue(tmp_path)
        assert revived.get(done.id).state == DONE
        assert revived.get(pending.id).state == PENDING
        assert revived.recovered == 0
        revived.close()

    def test_running_jobs_are_requeued_after_a_crash(self, tmp_path):
        queue = JobQueue(tmp_path)
        record, _ = queue.submit(submission())
        queue.claim(1)
        assert record.state == RUNNING
        queue.close()  # the process dies here; no done/error was journaled

        revived = JobQueue(tmp_path)
        assert revived.get(record.id).state == PENDING
        assert revived.get(record.id).attempts == 1  # the lost attempt
        assert revived.recovered == 1
        revived.close()

    def test_crash_looping_jobs_are_parked_at_the_cap(self, tmp_path):
        for crash in range(2):
            queue = JobQueue(tmp_path, max_attempts=2)
            queue.submit(submission())
            queue.claim(1)
            queue.close()
        revived = JobQueue(tmp_path, max_attempts=2)
        record = next(iter(revived.by_fingerprint(
            submission().fingerprint)))
        assert record.state == ERROR
        assert "interrupted" in record.error
        revived.close()

    def test_torn_journal_tail_is_dropped(self, tmp_path):
        queue = JobQueue(tmp_path)
        record, _ = queue.submit(submission())
        queue.close()
        journal = tmp_path / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"event": "start", "id": "' )  # kill -9 mid-write

        revived = JobQueue(tmp_path)
        assert revived.get(record.id).state == PENDING
        assert revived._dropped_lines == 1
        # The journal stays appendable and consistent after recovery.
        revived.claim(1)
        revived.complete(record.id)
        revived.close()
        assert JobQueue(tmp_path).get(record.id).state == DONE

    def test_journal_is_one_event_per_line(self, tmp_path):
        queue = JobQueue(tmp_path)
        record, _ = queue.submit(submission())
        queue.claim(1)
        queue.complete(record.id)
        queue.close()
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        events = [json.loads(line)["event"] for line in lines]
        assert events == ["submit", "lease", "done"]

    def test_payload_survives_the_journal(self, tmp_path):
        """The replayed payload still decodes to the same job."""
        queue = JobQueue(tmp_path)
        original = submission(3, options={"max_states": 50}, label="probe")
        queue.submit(original)
        queue.close()
        revived = JobQueue(tmp_path)
        record = revived.get(original.job_id)
        assert decode_submission(record.payload).job_id == original.job_id
        assert record.label == "probe"
        revived.close()

    def test_resubmission_attempt_reset_survives_replay(self, tmp_path):
        """Kill-and-replay regression: resubmitting an errored job resets
        its attempt budget, and the requeue event must journal that reset
        — without it a replayed hub parks the retry attempts early."""
        queue = JobQueue(tmp_path, max_attempts=1)
        record, _ = queue.submit(submission())
        queue.claim(1)
        queue.fail(record.id, "boom", retryable=True)  # cap hit: parked
        assert record.state == ERROR
        queue.submit(submission())  # the client explicitly asks to retry
        live = dataclasses.asdict(queue.get(record.id))
        queue.close()  # kill -9 lands here

        revived = JobQueue(tmp_path, max_attempts=1)
        assert dataclasses.asdict(revived.get(record.id)) == live
        assert revived.get(record.id).attempts == 0
        # The replayed hub grants the same fresh budget the live one did.
        revived.claim(1)
        revived.complete(record.id)
        assert revived.get(record.id).state == DONE
        revived.close()

    def test_max_attempts_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            JobQueue(tmp_path, max_attempts=0)
