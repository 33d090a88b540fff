"""The result cache and the process-pool fan-out, shared package-wide.

The campaign runner, the fuzz loop, the façade's ``solve_many`` and the
verification service all key JSON result payloads by a sha256 content
hash and fan cache misses out over worker processes; this module is the
one implementation of both halves.  It imports nothing else from
:mod:`repro`, so any layer can use it without an import cycle.

Cache layout
------------

``<cache_dir>/<k[:2]>/<k>.json``.  Each caller hashes a key payload with
its own top-level fields — campaign ``{schema, spec, oracle}``, fuzz
``{schema, input, oracle, seed}``, batch and service
``{schema, op, problem, options}`` — so all of them can share
:data:`DEFAULT_CACHE_DIR` without their key spaces colliding.

A payload whose ``error`` field is set is never cached: crashes and
timeouts may be environmental, so they are retried on the next run.
:class:`ResultCache` enforces this itself; callers store and look up
results without checking.
"""

from __future__ import annotations

import json
import os
import tempfile
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

DEFAULT_CACHE_DIR = ".repro_cache"
"""Default cache directory of the campaign and fuzz command lines."""


class ResultCache:
    """Content-addressed on-disk store of JSON result payloads.

    Safe under concurrent multi-process writers and readers: every write
    lands via an exclusive temp file plus an atomic ``os.replace``, so a
    reader sees either nothing or one complete entry — never a
    half-written one — and racing writers of the same key resolve to
    whichever complete entry replaced last.  ``durable=True`` adds an
    ``fsync`` before the rename (and of the directory after it), so an
    entry that :meth:`put` has acknowledged survives a machine crash —
    the verification service runs its shared result store in this mode,
    backing its no-accepted-job-lost recovery guarantee.
    """

    def __init__(self, directory: str | Path, *, durable: bool = False) -> None:
        self._dir = Path(directory)
        self._durable = durable

    @property
    def directory(self) -> Path:
        """Root of the cache tree."""
        return self._dir

    def _path(self, key: str) -> Path:
        return self._dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Stored result payload, or None on miss / unusable entry.

        A truncated or otherwise corrupt entry (killed writer, disk
        hiccup) is a cache *miss*, never an exception: ``ValueError``
        covers ``json.JSONDecodeError`` plus malformed-content cases.  A
        payload that parses but is not a dict, or that records an
        error, is a miss too.
        """
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("error") is not None:
            return None
        return payload

    def put(self, key: str, payload: dict) -> bool:
        """Atomically persist one result payload under its key.

        An error payload is refused (nothing is written).  Otherwise
        best-effort: a failed write (disk, or a third-party oracle whose
        detail dict is not JSON-able) must never abort a sweep, so every
        failure is swallowed after cleaning up the temp file.  Returns
        True when the entry is fully in place (callers that need the
        write — the service's worker pool — can react to False).
        """
        if payload.get("error") is not None:
            return False
        try:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            return False
        try:
            try:
                handle = os.fdopen(fd, "w", encoding="utf-8")
            except OSError:
                os.close(fd)
                raise
            with handle:
                json.dump(payload, handle, sort_keys=True)
                if self._durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            if self._durable:
                self._fsync_dir(path.parent)
            return True
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Flush a rename to disk (POSIX: the directory holds the name)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def __len__(self) -> int:
        if not self._dir.is_dir():
            return 0
        return sum(1 for _ in self._dir.glob("*/*.json"))


def map_jobs(
    jobs: Sequence[tuple[int, tuple]],
    worker: Callable[..., dict],
    record: Callable[[int, dict], None],
    failure_payload: Callable[[int, str, float], dict],
    *,
    shards: int,
    task_timeout: float,
    executor: ProcessPoolExecutor | None = None,
) -> bool:
    """Run ``worker(*args)`` for every ``(slot, args)`` job and record it.

    ``shards <= 1`` runs inline (no pool, no preemption); otherwise jobs
    fan out over a :class:`~concurrent.futures.ProcessPoolExecutor` with
    *stall* semantics: when no job completes for ``task_timeout``
    seconds, every unfinished job is recorded via
    ``failure_payload(slot, error, seconds)`` and the workers are
    killed.  ``worker`` must be a module-level (picklable) callable that
    returns a JSON-able payload dict; a worker that raises is recorded
    as a failure payload instead of aborting the batch.

    ``executor`` lends an existing pool for this batch: long-running
    callers (the service drains job batches continuously) reuse one pool
    across calls instead of paying worker spawn per batch.  A lent pool
    is left running on success and is **killed and shut down** after a
    stall/crash, exactly like an owned one — the caller must replace it
    then.  Returns True when the pool stayed healthy (always True on the
    inline path), False when it was abandoned.
    """
    if executor is None and shards <= 1:
        for slot, args in jobs:
            record(slot, worker(*args))
        return True
    # Imported here: the inline path, which every in-process caller
    # takes, must not pay for loading multiprocessing.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    owned = executor is None
    if owned:
        executor = ProcessPoolExecutor(max_workers=shards)
    abandoned = False
    try:
        pending = {
            executor.submit(worker, *args): (slot, args)
            for slot, args in jobs
        }
        while pending:
            done, _ = wait(pending, timeout=task_timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # No completion for a full timeout window: every worker
                # is wedged, so the queued jobs behind them can never
                # start.  Record them all at once instead of burning one
                # window per remaining job.  Their futures are not
                # cancelled: the kill below breaks the pool, and the
                # executor then fails every future it still tracks,
                # which raises on a cancelled one.
                abandoned = True
                for future, (slot, _args) in pending.items():
                    queued = not future.running()
                    error = ("never started (pool stalled)" if queued
                             else f"timeout after {task_timeout:g}s")
                    record(slot, failure_payload(
                        slot, error, 0.0 if queued else task_timeout))
                break
            for future in done:
                slot, _args = pending.pop(future)
                try:
                    payload = future.result()
                except Exception:  # worker or pool died
                    abandoned = True
                    payload = failure_payload(
                        slot, traceback.format_exc(limit=4), 0.0)
                record(slot, payload)
    finally:
        # A timed-out worker cannot be interrupted cooperatively, and a
        # live worker keeps the interpreter from exiting (the pool's
        # atexit hook joins it).  Kill the worker processes outright so
        # the batch — and the process — finishes promptly.
        if abandoned:
            for process in list(
                    (getattr(executor, "_processes", None) or {}).values()):
                process.kill()
        if owned or abandoned:
            executor.shutdown(wait=True, cancel_futures=True)
    return not abandoned


__all__ = ["DEFAULT_CACHE_DIR", "ResultCache", "map_jobs"]
