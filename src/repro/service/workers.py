"""The job lifecycle and the hub's own worker pool.

Every job ends up solved by one of two fleets, the hub's process pool
or a remote satellite (:mod:`repro.service.satellite`), and both go
through the same three calls:

* :meth:`WorkerPool.claim` leases jobs that need a solve.  A leased job
  whose ``cache_key`` is already in the shared
  :class:`~repro.jobs.ResultCache` completes at once, under its lease,
  without solving anything (errors are never cached, so a hit is always
  a real verdict); ``delta_of`` jobs lease only to the hub itself.
* :func:`solve_job` decodes a journaled job and solves it through
  :func:`~repro.api.batch._solve_worker`, in one of the pool's
  processes or in a satellite; it never raises.
* :meth:`WorkerPool.settle` ends a leased job with its result: a solved
  result is written into the cache *before* the job is marked done —
  with ``durable=True`` the write is fsynced, so a job the journal says
  is done always has its result on disk.  A failed write fails the job
  retryably instead (:data:`CACHE_WRITE_FAILED`): it costs an attempt,
  and the job is requeued or, at the attempt cap, parked.

One dispatcher thread sweeps lapsed satellite leases and, unless the
hub only coordinates, claims batches for the hub itself:

* **delta job** — a ``delta_of`` submission is answered in-process
  through :class:`repro.api.DeltaSession`: sessions are anchored on the
  referenced job's problem and kept in a small LRU so a stream of edits
  against one anchor reuses a live solver (``detail["delta"]`` records
  which path answered);
* **everything else** fans out, as journaled payloads, over a
  *persistent* :class:`~concurrent.futures.ProcessPoolExecutor` lent to
  :func:`~repro.jobs.map_jobs`, reusing the batch path's stall-kill
  semantics: a wedged pool is killed, the affected jobs are requeued
  (up to the queue's retry cap), and the pool is rebuilt for the next
  batch.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor

from repro.api.batch import DEFAULT_TASK_TIMEOUT, _solve_worker
from repro.api.delta import DeltaSession
from repro.api.options import Options
from repro.jobs import ResultCache, map_jobs
from repro.service.queue import LOCAL_WORKER, RUNNING, JobQueue, JobRecord
from repro.service.schema import decode_options, decode_problem

_LATENCY_BUCKETS = tuple(0.001 * 2 ** i for i in range(18))
"""Histogram bucket upper bounds: 1 ms .. ~131 s, powers of two."""

_SESSION_CAP = 8
"""Live DeltaSessions kept warm (LRU) — each holds a solver."""

BATCH_LIMIT = 16
"""Jobs the dispatcher claims per round."""

POLL_INTERVAL = 0.05
"""Seconds the dispatcher waits for a wake-up before its next round."""

CACHE_WRITE_FAILED = "result cache write failed"
"""The retryable failure of a job whose solved result could not be
cached: the job is requeued, or parked at the attempt cap."""


def solve_job(payload: dict) -> dict:
    """Solve one journaled job payload; always returns a result dict.

    Module-level (picklable): the hub's pool and every satellite run it.
    The options are read back as journaled (:data:`RETIRED_OPTIONS
    <repro.service.schema.RETIRED_OPTIONS>` dropped), the problem tree
    through the one decoding gate, and the solve through
    :func:`~repro.api.batch._solve_worker`.  A payload that does not
    decode is an error result, never an exception; it fails the same
    way everywhere, so the job is parked, not retried.
    """
    try:
        options = decode_options(payload.get("options"), journaled=True)
        problem = decode_problem(payload.get("problem"))
    except Exception as exc:
        return {"verdict": "error", "seconds": 0.0,
                "error": f"could not decode job: {exc}"}
    return _solve_worker(problem, options)


class ServiceMetrics:
    """Thread-safe counters + histogram behind ``/v1/metrics``."""

    def __init__(self, workers: int) -> None:
        self._lock = threading.Lock()
        self._workers = max(1, workers)
        self._started = time.time()
        self._busy_seconds = 0.0
        self._latency = [0] * (len(_LATENCY_BUCKETS) + 1)
        self.submitted = 0
        self.cache_hits = 0
        self.solves = 0
        self.delta_reused = 0
        self.delta_fallback = 0
        self.jobs_done = 0
        self.jobs_error = 0
        self.retries = 0
        self.satellite_claims = 0
        self.satellite_results = 0
        self.leases_expired = 0

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def count_failure(self, record: JobRecord) -> None:
        """A failed attempt: a retry if its job is pending again, an
        error if the job was parked."""
        self.count("retries" if record.state == "pending" else "jobs_error")

    def observe_done(self, latency_seconds: float) -> None:
        """A job reached ``done``; bucket its submit-to-result latency."""
        with self._lock:
            self.jobs_done += 1
            for index, bound in enumerate(_LATENCY_BUCKETS):
                if latency_seconds <= bound:
                    self._latency[index] += 1
                    break
            else:
                self._latency[-1] += 1

    def observe_busy(self, seconds: float) -> None:
        """Solver time actually burned (utilization numerator)."""
        with self._lock:
            self._busy_seconds += max(0.0, seconds)

    def snapshot(self) -> dict:
        """The metrics block of ``/v1/metrics`` (plain JSON)."""
        with self._lock:
            elapsed = max(1e-9, time.time() - self._started)
            completions = self.cache_hits + self.solves
            histogram = {}
            for index, bound in enumerate(_LATENCY_BUCKETS):
                if self._latency[index]:
                    histogram[f"le_{bound:g}s"] = self._latency[index]
            if self._latency[-1]:
                histogram["inf"] = self._latency[-1]
            return {
                "uptime_seconds": round(elapsed, 3),
                "submitted": self.submitted,
                "jobs_done": self.jobs_done,
                "jobs_error": self.jobs_error,
                "retries": self.retries,
                "solves": self.solves,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": (round(self.cache_hits / completions, 4)
                                   if completions else None),
                "delta_reused": self.delta_reused,
                "delta_fallback": self.delta_fallback,
                "satellite_claims": self.satellite_claims,
                "satellite_results": self.satellite_results,
                "leases_expired": self.leases_expired,
                "latency_histogram": histogram,
                "worker_utilization": round(
                    min(1.0, self._busy_seconds / (self._workers * elapsed)),
                    4),
            }


class WorkerPool:
    """The job lifecycle (claim, settle) plus the hub's dispatcher
    thread and persistent solve pool over one queue."""

    def __init__(self, queue: JobQueue, cache: ResultCache, *,
                 workers: int = 2,
                 task_timeout: float = DEFAULT_TASK_TIMEOUT,
                 local_dispatch: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.queue = queue
        self.cache = cache
        self.workers = workers
        self.task_timeout = task_timeout
        self.local_dispatch = local_dispatch
        """False runs the hub as a pure coordinator: the dispatcher
        thread still sweeps expired leases, but never claims work itself
        — every job is solved by remote satellites."""
        self.metrics = ServiceMetrics(workers)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._executor: ProcessPoolExecutor | None = None
        self._sessions: OrderedDict[tuple, DeltaSession] = OrderedDict()
        self._thread = threading.Thread(
            target=self._run, name="service-dispatcher", daemon=True)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        self._thread.start()
        return self

    def kick(self) -> None:
        """Wake the dispatcher now (called on every accepted submission)."""
        self._wake.set()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join(timeout=30)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until no job is pending/running (True) or timeout."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.queue.unfinished() == 0 and self._idle.is_set():
                return True
            time.sleep(0.02)
        return self.queue.unfinished() == 0

    # ------------------------------------------------------------------
    # the job lifecycle, for the local pool and satellites alike
    # ------------------------------------------------------------------

    def claim(self, limit: int, *, worker: str = LOCAL_WORKER,
              lease_seconds: float | None = None) -> list[JobRecord]:
        """Lease to ``worker`` up to ``limit`` jobs that need a solve.

        A leased job whose ``cache_key`` already has a result completes
        at once under its lease and is not returned, so a worker never
        burns a solve the cache can answer.  ``delta_of`` jobs lease
        only to the hub's own dispatcher: their whole point is its warm
        session LRU.
        """
        claimed: list[JobRecord] = []
        while len(claimed) < limit:
            batch = self.queue.claim(
                limit - len(claimed), worker=worker,
                lease_seconds=lease_seconds,
                skip_delta=worker != LOCAL_WORKER)
            if not batch:
                break
            for record in batch:
                if self.cache.get(record.cache_key) is None:
                    claimed.append(record)
                    continue
                self.queue.complete(record.id, lease=record.lease)
                self.metrics.count("cache_hits")
                self.metrics.observe_done(time.time() - record.submitted_at)
        return claimed

    def settle(self, record: JobRecord, payload: dict, *, lease: str,
               retryable: bool = False) -> JobRecord:
        """End a leased job with its ``result_to_json`` payload.

        A result without ``error`` is durably cached under the job's
        ``cache_key``, but only while ``lease`` still holds the job, and
        the job is then completed under that lease; a failed cache write
        fails the job retryably (:data:`CACHE_WRITE_FAILED`) instead.  An
        error result fails the job: requeued when ``retryable`` and under
        the attempt cap, parked otherwise.  Returns the job's record
        after the transition.  When ``lease`` no longer holds the job,
        nothing is cached and the queue's
        :class:`~repro.service.queue.QueueError` (a
        :class:`~repro.service.queue.LeaseError` for a lapsed lease)
        propagates.
        """
        error = payload.get("error")
        if error is None:
            current = self.queue.get(record.id)
            held = (current is not None and current.state == RUNNING
                    and current.lease == lease)
            if held and not self.cache.put(record.cache_key, payload):
                error, retryable = CACHE_WRITE_FAILED, True
        if error is None:
            done = self.queue.complete(record.id, lease=lease)
            self.metrics.observe_done(time.time() - record.submitted_at)
            return done
        failed = self.queue.fail(record.id, str(error), retryable=retryable,
                                 lease=lease)
        self.metrics.count_failure(failed)
        return failed

    # ------------------------------------------------------------------
    # the dispatch loop
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(POLL_INTERVAL)
            self._wake.clear()
            if self._stop.is_set():
                break
            self._sweep_leases()
            if not self.local_dispatch:
                continue
            claimed = self.claim(BATCH_LIMIT)
            if not claimed:
                continue
            self._idle.clear()
            try:
                self._process(claimed)
            finally:
                self._idle.set()

    def _sweep_leases(self) -> None:
        """Requeue jobs whose satellite lease lapsed (every loop tick)."""
        for record in self.queue.expire_leases():
            self.metrics.count("leases_expired")
            self.metrics.count_failure(record)

    def _process(self, claimed: list[JobRecord]) -> None:
        batch: list[JobRecord] = []
        for record in claimed:
            if record.delta_of is not None:
                self._solve_delta_job(record)
            else:
                batch.append(record)
        if batch:
            self._solve_batch(batch)

    def _solve_delta_job(self, record: JobRecord) -> None:
        """Answer a ``delta_of`` job on a warm (LRU-cached) session."""
        try:
            options = decode_options(record.payload.get("options"),
                                     journaled=True)
            problem = decode_problem(record.payload["problem"])
            session = self._session_for(record, options)
            result = session.solve(problem)
        except Exception as exc:  # decode/anchor errors are deterministic
            self.settle(record, {"verdict": "error", "seconds": 0.0,
                                 "error": f"delta job failed: {exc}"},
                        lease=record.lease)
            return
        from repro.api.result import result_to_json

        path = (result.detail.get("delta") or {}).get("path")
        self.metrics.count("delta_reused" if path == "reused"
                           else "delta_fallback")
        self.metrics.count("solves")
        self.metrics.observe_busy(result.seconds)
        self.settle(record, result_to_json(result), lease=record.lease)

    def _session_for(self, record: JobRecord,
                     options: Options) -> DeltaSession:
        anchor = self.queue.get(record.delta_of)
        if anchor is None:
            raise ValueError(
                f"delta_of references unknown job {record.delta_of!r}")
        key = (record.delta_of,
               json.dumps(options.cache_signature(), sort_keys=True))
        session = self._sessions.get(key)
        if session is not None:
            self._sessions.move_to_end(key)
            return session
        anchor_problem = decode_problem(anchor.payload["problem"])
        # The anchor was (or will be) solved by its own job; the session
        # only needs its translation, so skip the redundant anchor solve.
        session = DeltaSession(anchor_problem, options=options,
                               solve_anchor=False)
        self._sessions[key] = session
        while len(self._sessions) > _SESSION_CAP:
            _, evicted = self._sessions.popitem(last=False)
            evicted.close()
        return session

    def _solve_batch(self, records: list[JobRecord]) -> None:
        """Fan journaled payloads out over the persistent process pool."""
        stalled: set[int] = set()

        def record_result(slot: int, payload: dict) -> None:
            record = records[slot]
            self.metrics.count("solves")
            self.metrics.observe_busy(payload.get("seconds") or 0.0)
            # A stall is environmental (requeue, costing an attempt); a
            # worker exception is deterministic (park immediately).
            self.settle(record, payload, lease=record.lease,
                        retryable=slot in stalled)

        def failure(slot: int, error: str, seconds: float) -> dict:
            stalled.add(slot)
            return {"verdict": "error", "seconds": seconds, "error": error}

        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        jobs = [(slot, (record.payload,))
                for slot, record in enumerate(records)]
        healthy = map_jobs(jobs, solve_job, record_result, failure,
                           shards=self.workers,
                           task_timeout=self.task_timeout,
                           executor=self._executor)
        if not healthy:
            # map_jobs killed and shut the lent pool down; rebuild lazily.
            self._executor = None
