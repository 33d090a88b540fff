"""Verification-as-a-service: an HTTP job API over the façade.

The service turns the library into a long-running system: clients POST
problem submissions to ``/v1/jobs``, a persistent on-disk queue journals
every accepted job, an async worker pool drains the queue through the
shared process-pool machinery, and the content-addressed
:class:`~repro.jobs.ResultCache` is the shared result store —
a job whose (problem fingerprint, options) pair was ever solved
completes without solving again.

Layers (stdlib only — ``http.server``, ``threading``, ``json``):

* :mod:`repro.service.schema` — the versioned wire schema: job
  submissions (codec problem trees or campaign specs), validated
  :class:`~repro.api.Options`, content-addressed job ids;
* :mod:`repro.service.queue` — the append-only journal + atomic state
  transitions (pending → running → done/error), crash-safe recovery,
  stall-kill requeue with a retry cap;
* :mod:`repro.service.workers` — the job lifecycle and the hub's worker
  pool: ``WorkerPool.claim`` leases jobs (cache hits complete inline),
  ``solve_job`` decodes and solves a journaled job, and
  ``WorkerPool.settle`` caches a result before marking its job done;
  ``delta_of`` jobs run on the warm :class:`~repro.api.DeltaSession`
  path, everything else fans out over a persistent
  :func:`~repro.jobs.map_jobs` pool;
* :mod:`repro.service.app` — the HTTP layer (`/v1/jobs`, `/v1/results`,
  `/v1/healthz`, `/v1/metrics`) with token-auth and per-client
  token-bucket rate-limit stubs;
* :mod:`repro.service.client` — a small stdlib client used by the tests,
  the benchmark, the satellites and the CI smoke job;
* :mod:`repro.service.satellite` — the remote half of the execution
  fabric: pull-based satellite workers that lease journal entries over
  HTTP (``POST /v1/claims``), solve through the same ``solve_job`` the
  hub's pool runs, and post ``result_to_json`` payloads the hub settles
  exactly as it settles its own.  Leases carry expiry deadlines; a
  satellite that dies mid-lease is swept by the hub and its jobs are
  requeued through the usual attempt-cap machinery.

Run a hub with ``python -m repro.service`` and any number of satellites
with ``python -m repro.service --satellite http://hub:port`` (see
``--help``).  One hub can mix its own in-process workers (lease holder
``"local"``) with remote satellites; ``--no-local-dispatch`` turns the
hub into a pure coordinator.
"""

from repro.service.app import ServiceConfig, VerificationService
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue, JobRecord, LeaseError, QueueError
from repro.service.satellite import SatelliteWorker
from repro.service.schema import (
    SERVICE_SCHEMA,
    JobSubmission,
    SchemaError,
    decode_submission,
)
from repro.service.workers import ServiceMetrics, WorkerPool

__all__ = [
    "SERVICE_SCHEMA",
    "JobQueue",
    "JobRecord",
    "JobSubmission",
    "LeaseError",
    "QueueError",
    "SatelliteWorker",
    "SchemaError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceMetrics",
    "VerificationService",
    "WorkerPool",
    "decode_submission",
]
