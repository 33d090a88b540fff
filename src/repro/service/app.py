"""The HTTP layer: the versioned endpoints over one service object.

==================================  ===================================
``POST /v1/jobs``                   submit a job (``202``; idempotent —
                                    the same work resubmitted returns
                                    the same content-addressed id with
                                    ``created`` false, and a finished
                                    job's result is inlined)
``GET /v1/jobs/<id>``               poll one job: state envelope + the
                                    result payload once ``done``
``GET /v1/results/<fp>``            every finished result for one
                                    problem fingerprint (any options)
``POST /v1/claims``                 lease up to N pending jobs to a
                                    remote satellite worker
                                    (:meth:`WorkerPool.claim`: cache
                                    hits complete inline; ``delta_of``
                                    jobs stay local)
``POST /v1/jobs/<id>/result``       complete or fail a leased job with
                                    a ``result_to_json`` payload
                                    (:meth:`WorkerPool.settle`; 400
                                    if it does not decode or an
                                    instance it carries is not a model
                                    of the job's goal, 409 on a lapsed
                                    lease, 503 if the hub cannot
                                    cache it)
``POST /v1/claims/<lease>/heartbeat``  extend a live lease's deadline
``GET /v1/healthz``                 liveness + queue counts (never
                                    auth-gated)
``GET /v1/metrics``                 queue depth, jobs by state, leases
                                    by worker, cache hit rate,
                                    solve-latency histogram, worker
                                    utilization
==================================  ===================================

Served by a stdlib :class:`~http.server.ThreadingHTTPServer` — requests
are handled on threads, solving happens in the worker pool's processes,
and the two meet only at the (locked) queue.

Two production stubs ship default-off so local use never trips them:

* **token auth** — configuring ``token`` requires
  ``Authorization: Bearer <token>`` on every endpoint except
  ``/v1/healthz`` (``401`` otherwise);
* **rate limiting** — configuring ``rate_limit`` gives each client
  address a token bucket (``burst`` capacity, ``rate_limit`` refills
  per second); an empty bucket answers ``429`` with ``Retry-After``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.api.backends import _is_model, _relational_goal
from repro.api.result import Result, Verdict, result_from_json
from repro.jobs import ResultCache
from repro.kodkod.bounds import Bounds
from repro.kodkod.instance import Instance
from repro.service.queue import (
    DONE,
    LOCAL_WORKER,
    JobQueue,
    JobRecord,
    LeaseError,
    QueueError,
)
from repro.service.schema import (
    SERVICE_SCHEMA,
    SchemaError,
    decode_problem,
    decode_submission,
)
from repro.service.workers import CACHE_WRITE_FAILED, WorkerPool

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Submission size ceiling (a codec tree this large is a client bug)."""

MAX_CLAIM_LIMIT = 32
"""Jobs one POST /v1/claims may lease (keeps responses bounded)."""

DEFAULT_LEASE_SECONDS = 30.0
MIN_LEASE_SECONDS = 0.05
MAX_LEASE_SECONDS = 3600.0


class CacheWriteError(RuntimeError):
    """A posted result the hub could not cache (HTTP 503); its job was
    failed retryably: requeued, or parked at the attempt cap."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service instance needs; only the paths are required."""

    queue_dir: str | Path
    cache_dir: str | Path
    host: str = "127.0.0.1"
    port: int = 0
    """0 binds an ephemeral port; read it back from ``service.port``."""
    workers: int = 2
    max_attempts: int = 3
    task_timeout: float = 120.0
    token: str | None = None
    """Bearer token required on every endpoint but healthz (None = open)."""
    rate_limit: float = 0.0
    """Requests/second refilled per client (0 disables rate limiting)."""
    burst: int = 20
    """Token-bucket capacity per client."""
    local_dispatch: bool = True
    """False runs the hub as a pure coordinator: leases still expire and
    results are still accepted, but only satellites solve jobs."""


def _rebound(instance: Instance, bounds: Bounds) -> Instance | None:
    """A decoded instance re-expressed over ``bounds``, or None.

    Decoding builds fresh relation objects, so each bounded relation
    takes the posted value of the relation with its name and arity.
    None when the atoms differ from the bounds' universe or a bounded
    relation has no posted value.
    """
    universe = bounds.universe
    if instance.universe.atoms != universe.atoms:
        return None
    posted = {(relation.name, relation.arity): instance.value_of(relation)
              for relation in instance.relations()}
    valuations = {}
    for relation in bounds.relations():
        value = posted.get((relation.name, relation.arity))
        if value is None:
            return None
        valuations[relation] = universe.tuple_set(relation.arity, value)
    return Instance(universe, valuations)


def _check_posted_instances(record: JobRecord, result: Result) -> None:
    """Refuse (:class:`SchemaError`, HTTP 400) a SAT or COUNTEREXAMPLE
    answer to a formula or module job unless it carries instances and
    each is a model of the job's goal within its bounds — the check
    every in-process answer passes (:func:`repro.api.backends._is_model`).
    A module whose scope does not compile has no instance to witness it.
    """
    if (record.kind not in ("formula", "module")
            or result.verdict not in (Verdict.SAT, Verdict.COUNTEREXAMPLE)):
        return
    if not result.instances:
        raise SchemaError(f"a {result.verdict.value!r} result must carry "
                          f"the instance that witnesses it")
    problem = decode_problem(record.payload["problem"])
    try:
        goal, bounds, _ = _relational_goal(problem, "hub")
    except ValueError as exc:  # ModuleError, or a module with no sig
        raise SchemaError(f"the job's module does not compile at its "
                          f"scope, so no instance witnesses it: {exc}"
                          ) from None
    for instance in result.instances:
        rebound = _rebound(instance, bounds)
        if rebound is None or not _is_model(goal, bounds, rebound):
            raise SchemaError(
                "'result' instance is not a model of the job's goal "
                "within its bounds")


class _TokenBucket:
    """One client's rate-limit state (monotonic-clock refill)."""

    __slots__ = ("tokens", "updated")

    def __init__(self, burst: int) -> None:
        self.tokens = float(burst)
        self.updated = time.monotonic()

    def allow(self, rate: float, burst: int) -> tuple[bool, float]:
        now = time.monotonic()
        self.tokens = min(float(burst),
                          self.tokens + (now - self.updated) * rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / rate


class VerificationService:
    """Queue + cache + worker pool + HTTP server, one object to run."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.queue = JobQueue(config.queue_dir,
                              max_attempts=config.max_attempts)
        # Durable: a job the journal marks done must have its result on
        # disk even through kill -9, so cache writes fsync.
        self.cache = ResultCache(config.cache_dir, durable=True)
        self.pool = WorkerPool(
            self.queue, self.cache,
            workers=config.workers,
            task_timeout=config.task_timeout,
            local_dispatch=config.local_dispatch,
        )
        self._buckets: dict[str, _TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "VerificationService":
        self.pool.start()
        self.pool.kick()  # recovered jobs may already be pending
        self._httpd = _Server((self.config.host, self.config.port),
                              _Handler, service=self)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="service-http",
            daemon=True)
        self._http_thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=10)
            self._http_thread = None
        self.pool.stop()
        self.queue.close()

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------
    # operations (HTTP-independent, reusable in-process)
    # ------------------------------------------------------------------

    def submit(self, payload) -> tuple[JobRecord, bool]:
        """Validate and enqueue one submission (raises SchemaError)."""
        submission = decode_submission(payload)
        if submission.delta_of is not None:
            if self.queue.get(submission.delta_of) is None:
                raise SchemaError(
                    f"delta_of references unknown job "
                    f"{submission.delta_of!r}; submit the anchor first"
                )
        record, created = self.queue.submit(submission)
        if created:
            self.pool.metrics.count("submitted")
        self.pool.kick()
        return record, created

    def claim_jobs(self, payload) -> dict:
        """Lease up to N pending jobs to a remote satellite.

        Validates the request, then claims through the same
        :meth:`WorkerPool.claim` the hub's dispatcher uses: jobs the
        cache can answer complete inline instead of shipping, and
        ``delta_of`` jobs stay local.
        """
        if not isinstance(payload, dict):
            raise SchemaError("claim body must be a JSON object")
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            raise SchemaError("claim needs a non-empty 'worker' id string")
        if worker == LOCAL_WORKER:
            raise SchemaError(
                f"worker id {LOCAL_WORKER!r} is reserved for the hub's "
                f"own dispatcher")
        limit = payload.get("limit", 1)
        if not isinstance(limit, int) or not 1 <= limit <= MAX_CLAIM_LIMIT:
            raise SchemaError(
                f"limit must be an integer in 1..{MAX_CLAIM_LIMIT}, "
                f"got {limit!r}")
        lease_seconds = payload.get("lease_seconds", DEFAULT_LEASE_SECONDS)
        if (not isinstance(lease_seconds, (int, float))
                or not MIN_LEASE_SECONDS <= lease_seconds
                <= MAX_LEASE_SECONDS):
            raise SchemaError(
                f"lease_seconds must be a number in {MIN_LEASE_SECONDS}.."
                f"{MAX_LEASE_SECONDS}, got {lease_seconds!r}")
        claims = []
        for record in self.pool.claim(limit, worker=worker,
                                      lease_seconds=float(lease_seconds)):
            self.pool.metrics.count("satellite_claims")
            claims.append({
                "id": record.id,
                "lease": record.lease,
                "deadline": record.lease_deadline,
                "attempts": record.attempts,
                "kind": record.kind,
                "label": record.label,
                "cache_key": record.cache_key,
                "payload": record.payload,
            })
        return {"schema": SERVICE_SCHEMA, "worker": worker,
                "claims": claims}

    def post_result(self, job_id: str, payload) -> dict:
        """Accept a leased job's result from a satellite.

        The result must decode through :func:`result_from_json`, with an
        ``error`` set exactly when the verdict is ``error``, and a
        non-error result's instances must pass the hub's check
        (:func:`_check_posted_instances`); otherwise the post gets 400
        and nothing changes, leaving the lease to lapse.  The job then
        ends through :meth:`WorkerPool.settle`, the one way a leased
        job ends for the hub's own pool too: a non-error result is
        cached before the job is marked done, and a failed cache write
        fails the job retryably and raises :class:`CacheWriteError`
        (503); an error result parks or requeues the job.  A post whose
        lease lapsed raises :class:`LeaseError` (409) and caches
        nothing — unless the job already finished, in which case the
        duplicate is acknowledged idempotently.
        """
        if not isinstance(payload, dict):
            raise SchemaError("result body must be a JSON object")
        lease = payload.get("lease")
        if not isinstance(lease, str) or not lease:
            raise SchemaError("posting a result requires the claim's "
                              "'lease' id")
        result = payload.get("result")
        if not isinstance(result, dict):
            raise SchemaError("'result' must be a result_to_json object")
        try:
            decoded = result_from_json(result)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"'result' is not a result_to_json payload: {exc!r}"
            ) from None
        solved = decoded.error is None
        if (decoded.verdict is Verdict.ERROR) == solved:
            raise SchemaError(
                "'result' must set 'error' exactly when its verdict is "
                "'error'")
        record = self.queue.get(job_id)
        if record is None:
            raise QueueError(f"unknown job {job_id!r}")
        if solved:
            _check_posted_instances(record, decoded)
        try:
            record = self.pool.settle(
                record, result, lease=lease,
                retryable=bool(payload.get("retryable", False)))
        except QueueError:
            record = self.queue.get(job_id)
            if record is not None and record.state == DONE:
                # The job finished elsewhere (lease expired, someone
                # re-solved it); same content address, same result.
                return {**self.job_body(record), "duplicate": True}
            raise
        self.pool.metrics.count("satellite_results")
        if solved and record.state != DONE:
            # settle failed the job retryably: its result is not on disk.
            raise CacheWriteError(
                f"{CACHE_WRITE_FAILED} for job {job_id!r}; the job is "
                f"now {record.state}")
        return self.job_body(record)

    def heartbeat_lease(self, lease: str, payload) -> dict:
        """Extend a live lease's deadline (satellite keep-alive)."""
        extend = None
        if isinstance(payload, dict) and "lease_seconds" in payload:
            extend = payload["lease_seconds"]
            if (not isinstance(extend, (int, float))
                    or not MIN_LEASE_SECONDS <= extend
                    <= MAX_LEASE_SECONDS):
                raise SchemaError(
                    f"lease_seconds must be a number in "
                    f"{MIN_LEASE_SECONDS}..{MAX_LEASE_SECONDS}, "
                    f"got {extend!r}")
            extend = float(extend)
        record = self.queue.heartbeat(lease, extend)
        return {"schema": SERVICE_SCHEMA, "lease": lease,
                "id": record.id, "worker": record.worker,
                "deadline": record.lease_deadline}

    def job_body(self, record: JobRecord) -> dict:
        """The GET /v1/jobs/<id> body: envelope + result when done."""
        body = record.envelope()
        if record.state == DONE:
            body["result"] = self.cache.get(record.cache_key)
        return body

    def results_for(self, fingerprint: str) -> dict:
        """Every finished result for one problem fingerprint."""
        entries = []
        for record in self.queue.by_fingerprint(fingerprint):
            if record.state != DONE:
                continue
            entries.append({"id": record.id,
                            "label": record.label,
                            "result": self.cache.get(record.cache_key)})
        return {"schema": SERVICE_SCHEMA, "fingerprint": fingerprint,
                "results": entries}

    def metrics_body(self) -> dict:
        counts = self.queue.counts()
        return {
            "schema": SERVICE_SCHEMA,
            "queue_depth": counts["pending"],
            "jobs": counts,
            "leases": self.queue.lease_counts(),
            "recovered": self.queue.recovered,
            **self.pool.metrics.snapshot(),
        }

    def health_body(self) -> dict:
        return {"ok": True, "schema": SERVICE_SCHEMA,
                "jobs": self.queue.counts(),
                "recovered": self.queue.recovered}

    # ------------------------------------------------------------------
    # edge policies
    # ------------------------------------------------------------------

    def authorized(self, header: str | None) -> bool:
        if self.config.token is None:
            return True
        return header == f"Bearer {self.config.token}"

    def admit(self, client: str) -> tuple[bool, float]:
        """Rate-limit one request from ``client`` (True = admitted)."""
        if self.config.rate_limit <= 0:
            return True, 0.0
        with self._buckets_lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = _TokenBucket(
                    self.config.burst)
            return bucket.allow(self.config.rate_limit, self.config.burst)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, *,
                 service: VerificationService) -> None:
        self.service = service
        super().__init__(address, handler)


_UNREADABLE = object()
"""Sentinel for a POST body that could not be read (error already sent)."""


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _Server

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the service is quiet; metrics are the observability surface

    def _send(self, status: int, body: dict,
              headers: dict | None = None) -> None:
        data = json.dumps(body).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # the client went away

    def _error(self, status: int, message: str,
               headers: dict | None = None) -> None:
        self._send(status, {"error": message}, headers)

    def _gate(self, path: str) -> bool:
        """Auth + rate limit; True means the request may proceed."""
        service = self.server.service
        admitted, retry_after = service.admit(self.client_address[0])
        if not admitted:
            self._error(429, "rate limit exceeded",
                        {"Retry-After": f"{retry_after:.3f}"})
            return False
        if path != "/v1/healthz" and not service.authorized(
                self.headers.get("Authorization")):
            self._error(401, "missing or invalid bearer token",
                        {"WWW-Authenticate": "Bearer"})
            return False
        return True

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def _read_json(self):
        """Parse the POST body; on failure sends the error (or, for a
        truncated body, closes the connection) and returns the
        ``_UNREADABLE`` sentinel (None is a legal JSON body)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._error(413, f"body must be 0..{MAX_BODY_BYTES} bytes")
            return _UNREADABLE
        body = self.rfile.read(length)
        if len(body) < length:
            # The client closed before sending the declared body: nobody
            # is left to answer, so drop the connection silently.
            self.close_connection = True
            return _UNREADABLE
        try:
            return json.loads(body or b"null")
        except (RecursionError, ValueError):  # too deep, or not JSON
            self._error(400, "body is not valid JSON")
            return _UNREADABLE

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if not self._gate(self.path):
            return
        service = self.server.service
        payload = self._read_json()
        if payload is _UNREADABLE:
            return
        try:
            if self.path == "/v1/jobs":
                record, created = service.submit(payload)
                # Re-fetch a locked snapshot: the dispatcher may already
                # be mutating the live record we were handed back.
                body = service.job_body(service.queue.get(record.id))
                body["created"] = created
                self._send(202, body)
            elif self.path == "/v1/claims":
                self._send(200, service.claim_jobs(payload))
            elif (self.path.startswith("/v1/claims/")
                    and self.path.endswith("/heartbeat")):
                lease = self.path[len("/v1/claims/"):-len("/heartbeat")]
                self._send(200, service.heartbeat_lease(lease, payload))
            elif (self.path.startswith("/v1/jobs/")
                    and self.path.endswith("/result")):
                job_id = self.path[len("/v1/jobs/"):-len("/result")]
                self._send(200, service.post_result(job_id, payload))
            else:
                self._error(404, f"no such endpoint: POST {self.path}")
        except SchemaError as exc:
            self._error(400, str(exc))
        except LeaseError as exc:
            self._error(409, str(exc))
        except CacheWriteError as exc:
            self._error(503, str(exc))
        except QueueError as exc:
            self._error(404 if "unknown job" in str(exc) else 409,
                        str(exc))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if not self._gate(self.path):
            return
        service = self.server.service
        if self.path == "/v1/healthz":
            self._send(200, service.health_body())
        elif self.path == "/v1/metrics":
            self._send(200, service.metrics_body())
        elif self.path.startswith("/v1/jobs/"):
            job_id = self.path[len("/v1/jobs/"):]
            record = service.queue.get(job_id)
            if record is None:
                self._error(404, f"unknown job {job_id!r}")
            else:
                self._send(200, service.job_body(record))
        elif self.path.startswith("/v1/results/"):
            fingerprint = self.path[len("/v1/results/"):]
            self._send(200, service.results_for(fingerprint))
        else:
            self._error(404, f"no such endpoint: GET {self.path}")
