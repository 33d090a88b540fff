"""ResultCache under concurrent multi-process writers and readers.

The verification service points many worker processes at one cache
directory, so a reader must never observe a half-written entry: every
``get`` returns either ``None`` or a *complete* payload.  These tests
hammer one cache from several processes while a reader checks payload
integrity via embedded checksums, and pin the ``put`` return-value and
``durable`` contracts the service relies on.
"""

import hashlib
import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.jobs import ResultCache, map_jobs


def _payload(worker: int, round_no: int) -> dict:
    # Large enough that a non-atomic write would be observably torn.
    body = f"worker={worker} round={round_no} " + "x" * 4096
    return {"body": body,
            "checksum": hashlib.sha256(body.encode()).hexdigest()}


def _intact(payload: dict) -> bool:
    return (hashlib.sha256(payload["body"].encode()).hexdigest()
            == payload["checksum"])


def _hammer(directory: str, worker: int, rounds: int, keys: list) -> int:
    """Write `rounds` payloads over a shared key set; return success count."""
    cache = ResultCache(directory)
    written = 0
    for round_no in range(rounds):
        key = keys[round_no % len(keys)]
        if cache.put(key, _payload(worker, round_no)):
            written += 1
    return written


SHARED_KEYS = [hashlib.sha256(f"k{i}".encode()).hexdigest() for i in range(4)]


class TestConcurrentWriters:
    def test_readers_never_observe_partial_entries(self, tmp_path):
        """Four writer processes race over four keys while the parent
        reads continuously: every read is None or checksum-intact."""
        cache = ResultCache(tmp_path)
        rounds = 120
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_hammer, str(tmp_path), worker, rounds,
                            SHARED_KEYS)
                for worker in range(4)
            ]
            observed = 0
            while any(not f.done() for f in futures):
                for key in SHARED_KEYS:
                    hit = cache.get(key)
                    if hit is not None:
                        assert _intact(hit), "reader saw a torn entry"
                        observed += 1
            assert all(f.result() == rounds for f in futures)
        # Steady state: last writer of each key left a complete entry.
        for key in SHARED_KEYS:
            assert _intact(cache.get(key))

    def test_put_reports_success(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put(SHARED_KEYS[0], {"ok": True}) is True
        # A payload json.dump cannot serialize must fail cleanly...
        assert cache.put(SHARED_KEYS[1], {"bad": object()}) is False
        # ...without leaving a partial entry or a stray temp file behind.
        assert cache.get(SHARED_KEYS[1]) is None
        assert not list(tmp_path.glob("*/*.tmp"))

    def test_durable_mode_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path, durable=True)
        assert cache.put(SHARED_KEYS[0], {"value": 7}) is True
        assert ResultCache(tmp_path).get(SHARED_KEYS[0]) == {"value": 7}

    def test_corrupt_entry_is_a_miss_then_repairable(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = SHARED_KEYS[0]
        cache.put(key, {"value": 1})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text('{"value": 1', encoding="utf-8")  # torn tail
        assert cache.get(key) is None
        assert cache.put(key, {"value": 2}) is True
        assert cache.get(key) == {"value": 2}


# ----------------------------------------------------------------------
# map_jobs executor reuse (the service's persistent pool)
# ----------------------------------------------------------------------


def _double(value: int) -> dict:
    return {"value": value * 2}


def _sleeper(seconds: float) -> dict:
    time.sleep(seconds)
    return {"value": "slept"}


class TestMapJobsExecutorReuse:
    def test_two_batches_share_one_pool(self):
        results: dict[int, dict] = {}

        def record(slot, payload):
            results[slot] = payload

        def failure(slot, error, seconds):
            return {"error": error}

        with ProcessPoolExecutor(max_workers=2) as pool:
            healthy1 = map_jobs([(i, (i,)) for i in range(4)], _double,
                                record, failure, shards=2, task_timeout=30,
                                executor=pool)
            healthy2 = map_jobs([(i, (i + 10,)) for i in range(4, 8)],
                                _double, record, failure, shards=2,
                                task_timeout=30, executor=pool)
            # The lent pool survives both batches and is still usable.
            assert pool.submit(_double, 21).result() == {"value": 42}
        assert healthy1 and healthy2
        assert results == {0: {"value": 0}, 1: {"value": 2},
                           2: {"value": 4}, 3: {"value": 6},
                           4: {"value": 28}, 5: {"value": 30},
                           6: {"value": 32}, 7: {"value": 34}}

    def test_inline_path_reports_healthy(self):
        results = {}
        healthy = map_jobs([(0, (3,))], _double,
                           lambda s, p: results.__setitem__(s, p),
                           lambda s, e, t: {"error": e},
                           shards=1, task_timeout=30)
        assert healthy is True
        assert results == {0: {"value": 6}}

    def test_stalled_lent_pool_is_killed_and_reported(self):
        """A stall abandons the lent pool too: workers are killed, the
        batch records failure payloads, and map_jobs returns False so the
        caller knows to replace the executor."""
        results = {}

        def record(slot, payload):
            results[slot] = payload

        def failure(slot, error, seconds):
            return {"error": error}

        pool = ProcessPoolExecutor(max_workers=1)
        healthy = map_jobs([(0, (30.0,))], _sleeper, record, failure,
                           shards=1, task_timeout=0.3, executor=pool)
        assert healthy is False
        assert "timeout" in results[0]["error"]
        with pytest.raises(RuntimeError):
            pool.submit(_double, 1)  # the abandoned pool was shut down

    def test_a_stall_leaves_no_thread_exception(self):
        """The stall path records unfinished jobs without cancelling
        their futures: killing the workers breaks the pool, the
        executor's manager thread then fails every future it still
        tracks, and on a cancelled one it raised ``InvalidStateError``
        (CPython 3.11)."""
        raised = []
        previous = threading.excepthook
        threading.excepthook = raised.append
        try:
            for _ in range(6):
                results = {}
                healthy = map_jobs(
                    [(slot, (30.0,)) for slot in range(6)], _sleeper,
                    results.__setitem__, lambda s, e, t: {"error": e},
                    shards=2, task_timeout=0.2)
                assert healthy is False
                assert sorted(results) == list(range(6))
                errors = [results[slot]["error"] for slot in range(6)]
                assert sum("timeout" in e for e in errors) >= 2
        finally:
            threading.excepthook = previous
        assert [repr(args.exc_value) for args in raised] == []
