"""The satellite side of the execution fabric: a pull-based remote worker.

A satellite is a process (often on another machine) that needs nothing
but HTTP reachability to the hub.  It runs the same job lifecycle as
the hub's own pool (:mod:`repro.service.workers`), with HTTP between
the steps:

* it **claims** batches of pending jobs over ``POST /v1/claims`` — the
  hub leases them through :meth:`~repro.service.workers.WorkerPool.claim`,
  each with an expiry deadline, journaled by the hub;
* it **solves** each claimed payload with the exact
  :func:`~repro.service.workers.solve_job` the hub's pool runs, so a
  verdict is byte-identical no matter where it was computed;
* it **posts** the ``result_to_json`` payload back over
  ``POST /v1/jobs/<id>/result`` — the hub checks it and ends the job
  through :meth:`~repro.service.workers.WorkerPool.settle`, which
  writes it into the shared :class:`~repro.jobs.ResultCache` under the
  job's ``cache_key`` before marking the job done;
* a background thread **heartbeats** every held lease so a healthy
  satellite never lapses mid-solve.

Crash safety falls out of the lease semantics: a satellite that dies
(or wedges — the heartbeat thread dies with the process) simply stops
heartbeating, the hub's expiry sweep requeues its jobs through the
usual ``fail(retryable=True)`` attempt-cap machinery, and another
worker picks them up.  A slow satellite that posts after its lease
lapsed gets a ``409`` and moves on — the job was already someone
else's; a post the hub refuses otherwise (``400``, ``503``) is counted
as an error and the rest of the claim batch is still solved.  Errors
stay non-retryable on this path: ``solve_job`` converts decode and
solver exceptions into error payloads deterministically, and a
deterministic crash will not pass on another machine either.

Run one with ``python -m repro.service --satellite http://hub:8765``.
"""

from __future__ import annotations

import os
import socket
import threading
import urllib.error
import uuid
from dataclasses import dataclass, field

from repro.service.client import ServiceClient, ServiceError
from repro.service.workers import solve_job

DEFAULT_CLAIM_LIMIT = 2
DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_POLL_INTERVAL = 0.25
"""Idle re-poll delay; claims are pull-based, so an empty queue costs
one small request per interval."""


def default_worker_id() -> str:
    """A worker id unique across hosts, processes and restarts."""
    return (f"sat-{socket.gethostname()}-{os.getpid()}-"
            f"{uuid.uuid4().hex[:6]}")


@dataclass
class SatelliteStats:
    """One satellite's own counters (the hub's metrics are authoritative
    for the fleet; these cover a single worker's log line)."""

    claims: int = 0
    solved: int = 0
    errors: int = 0
    lost_leases: int = 0
    heartbeats: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def snapshot(self) -> dict:
        with self._lock:
            return {"claims": self.claims, "solved": self.solved,
                    "errors": self.errors,
                    "lost_leases": self.lost_leases,
                    "heartbeats": self.heartbeats}


class SatelliteWorker:
    """Claim → solve → post, forever (or until :meth:`stop`).

    Jobs inside one claim batch are solved sequentially; parallelism
    comes from running more satellite processes, which is the whole
    scaling story — the hub does not care whether two workers share a
    machine.  While any lease is held, a daemon thread heartbeats all of
    them every ``lease_seconds / 3`` (so one missed beat never lapses a
    lease), dropping leases the hub reports gone.
    """

    def __init__(self, hub_url: str, *, worker_id: str | None = None,
                 token: str | None = None,
                 claim_limit: int = DEFAULT_CLAIM_LIMIT,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 poll_interval: float = DEFAULT_POLL_INTERVAL,
                 client: ServiceClient | None = None) -> None:
        if claim_limit < 1:
            raise ValueError("claim_limit must be >= 1")
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.client = client or ServiceClient(hub_url, token=token)
        self.worker_id = worker_id or default_worker_id()
        self.claim_limit = claim_limit
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.heartbeat_interval = max(0.05, lease_seconds / 3.0)
        self.stats = SatelliteStats()
        self._held: dict[str, str] = {}  # lease id -> job id
        self._held_lock = threading.Lock()
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the run loop (and heartbeat thread) to exit."""
        self._stop.set()

    def run(self) -> None:
        """Poll the hub until stopped; survives hub restarts.

        Transport errors (hub down, mid-restart, transient socket
        trouble) back the satellite off briefly and keep polling —
        leases held across a hub crash are invalidated by the hub's own
        journal replay, so there is nothing to clean up here.
        """
        beat = threading.Thread(target=self._heartbeat_loop,
                                name=f"{self.worker_id}-heartbeat",
                                daemon=True)
        beat.start()
        try:
            while not self._stop.is_set():
                try:
                    handled = self.run_once()
                except (ServiceError, urllib.error.URLError,
                        OSError, TimeoutError):
                    self._stop.wait(max(self.poll_interval, 1.0))
                    continue
                if handled == 0:
                    self._stop.wait(self.poll_interval)
        finally:
            self._stop.set()
            beat.join(timeout=self.heartbeat_interval * 2 + 1.0)

    # ------------------------------------------------------------------
    # one claim round (the testable unit)
    # ------------------------------------------------------------------

    def run_once(self) -> int:
        """Claim one batch and solve it; returns the number of claims."""
        claims = self.client.claim(
            self.worker_id, limit=self.claim_limit,
            lease_seconds=self.lease_seconds)["claims"]
        if not claims:
            return 0
        self.stats.count("claims", len(claims))
        with self._held_lock:
            for claim in claims:
                self._held[claim["lease"]] = claim["id"]
        try:
            for claim in claims:
                with self._held_lock:
                    if claim["lease"] not in self._held:
                        continue  # the heartbeat thread saw it lapse
                self._post(claim, solve_job(claim["payload"]))
        finally:
            with self._held_lock:
                for claim in claims:
                    self._held.pop(claim["lease"], None)
        return len(claims)

    def _post(self, claim: dict, result: dict) -> None:
        try:
            self.client.post_result(
                claim["id"], lease=claim["lease"],
                worker=self.worker_id, result=result, retryable=False)
        except ServiceError as exc:
            # 409: the lease lapsed while we solved; the job is someone
            # else's now (or already done with the same result).  Any
            # other refusal costs this job only and the batch goes on:
            # after a 503 the hub has failed the job retryably, after a
            # 400 its lease lapses.
            self.stats.count("lost_leases" if exc.status == 409
                             else "errors")
            return
        self.stats.count("errors" if result.get("error") is not None
                         else "solved")

    # ------------------------------------------------------------------
    # lease keep-alive
    # ------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._held_lock:
                leases = list(self._held)
            for lease in leases:
                try:
                    self.client.heartbeat(lease, self.lease_seconds)
                    self.stats.count("heartbeats")
                except ServiceError:
                    # Lapsed or finished: stop renewing; the run loop
                    # skips solving it if it has not started yet.
                    with self._held_lock:
                        self._held.pop(lease, None)
                except (urllib.error.URLError, OSError, TimeoutError):
                    pass  # hub hiccup; the next beat retries
