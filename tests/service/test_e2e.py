"""End-to-end service tests: real server process, real HTTP, kill -9.

The acceptance bar for the service:

* a 50-problem mixed-family batch submitted over HTTP returns verdicts
  identical to in-process ``facade.solve``;
* warm resubmission (a second service instance sharing the cache
  directory) completes entirely from cache — zero new solves, measured
  in ``/v1/metrics``;
* ``kill -9`` mid-batch loses no accepted job: after a restart on the
  same queue directory every submitted job still reaches ``done``;
* a coordinator hub plus two satellite processes solves the same
  50-problem batch verdict-identically, and ``kill -9`` of a satellite
  holding live leases loses no job: the hub's expiry sweep requeues its
  leases and the surviving satellite finishes the batch.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import problem_from_spec, solve
from repro.api.codec import problem_to_json
from repro.campaign.specs import FAMILIES, ScenarioSpec
from repro.fuzz.generators import FuzzSpec, generate
from repro.service import ServiceConfig, VerificationService
from repro.service.client import ServiceClient

REPO_ROOT = Path(__file__).resolve().parents[2]


def mixed_batch(count: int):
    """``count`` (problem, submission body) pairs across every family."""
    problems = []
    for index in range(count):
        if index % 5 == 4:
            family = sorted(FAMILIES)[(index // 5) % len(FAMILIES)]
            spec = ScenarioSpec.make(family, index)
            problems.append((problem_from_spec(spec),
                             {"spec": spec.as_dict(), "label": family}))
        else:
            kind = ("formula", "module", "protocol", "formula")[index % 4]
            problem = generate(FuzzSpec.make(kind, index))
            problems.append((problem,
                             {"problem": problem_to_json(problem)}))
    return problems


class TestAcceptanceBatch:
    def test_fifty_problem_batch_matches_inprocess_then_runs_warm(
            self, tmp_path):
        batch = mixed_batch(50)
        cold = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q-cold", cache_dir=tmp_path / "cache",
            workers=4)).start()
        verdicts = {}
        try:
            client = ServiceClient(cold.url)
            jobs = [client.submit(body)["id"] for _, body in batch]
            assert len(set(jobs)) == 50
            for (problem, _), job_id in zip(batch, jobs):
                final = client.wait(job_id, timeout=300)
                assert final["state"] == "done"
                direct = solve(problem)
                assert final["result"]["verdict"] == direct.verdict.value
                verdicts[job_id] = final["result"]["verdict"]
            metrics = client.metrics()
            assert metrics["jobs"]["done"] == 50
            assert metrics["jobs"]["error"] == 0
        finally:
            cold.stop()

        # A new instance, fresh queue, same cache: everything completes
        # without a single new solve.
        warm = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q-warm", cache_dir=tmp_path / "cache",
            workers=4)).start()
        try:
            client = ServiceClient(warm.url)
            jobs = [client.submit(body)["id"] for _, body in batch]
            for job_id in jobs:
                final = client.wait(job_id, timeout=60)
                assert final["state"] == "done"
                assert final["result"]["verdict"] == verdicts[job_id]
            metrics = client.metrics()
            assert metrics["solves"] == 0
            assert metrics["cache_hits"] == 50
            assert metrics["cache_hit_rate"] == 1.0
        finally:
            warm.stop()


def start_server(queue_dir, cache_dir, *, workers=2, extra=()):
    """Run ``python -m repro.service`` and parse the bound port.

    The hub runs in a session of its own, so :func:`kill_group` can reach
    the solver processes it starts, which outlive a SIGKILL of the hub.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0",
         "--queue-dir", str(queue_dir), "--cache-dir", str(cache_dir),
         "--workers", str(workers), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, cwd=str(REPO_ROOT), start_new_session=True,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("serving on "), f"unexpected banner: {line!r}"
    return process, line.removeprefix("serving on ")


def start_satellite(url, worker_id, *, lease_seconds=2.0, claim_limit=4,
                    poll_interval=0.05):
    """Run ``python -m repro.service --satellite`` against a live hub, in a
    session of its own like :func:`start_server`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--satellite", url,
         "--worker-id", worker_id, "--claim-limit", str(claim_limit),
         "--lease-seconds", str(lease_seconds),
         "--poll-interval", str(poll_interval)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, cwd=str(REPO_ROOT), start_new_session=True,
    )
    line = process.stdout.readline().strip()
    assert line.startswith(f"satellite {worker_id} polling"), (
        f"unexpected banner: {line!r}")
    return process


def kill_group(process):
    """SIGKILL the session of a process started above, reap the process
    and assert that no member of its group survives."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)
    deadline = time.time() + 10
    while True:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        assert time.time() < deadline, (
            f"a process of group {process.pid} survived SIGKILL")
        time.sleep(0.05)


class TestDistributedSatellites:
    def test_fifty_problem_batch_survives_a_mid_lease_kill(self, tmp_path):
        """Hub as pure coordinator, two satellites solving; one satellite
        is SIGKILLed while it holds live leases.  The hub's expiry sweep
        requeues the orphaned leases, the survivor finishes the batch,
        and every verdict matches in-process ``facade.solve`` — zero
        lost, zero duplicated, zero errored jobs."""
        queue_dir = tmp_path / "queue"
        cache_dir = tmp_path / "cache"
        batch = mixed_batch(50)
        hub, url = start_server(queue_dir, cache_dir, workers=1,
                                extra=("--no-local-dispatch",))
        satellites = []
        try:
            client = ServiceClient(url)
            jobs = [client.submit(body)["id"] for _, body in batch]
            assert len(set(jobs)) == 50
            # The whole batch is queued before any satellite polls, so
            # sat-0's first claim takes a full batch of leases.
            satellites = [start_satellite(url, f"sat-{i}")
                          for i in range(2)]
            # Kill -9 the victim the moment it holds >= 2 live leases:
            # it solves sequentially, so at least one lease dies
            # unposted and must be swept back into the queue.
            victim = satellites[0]
            deadline = time.time() + 120
            while True:
                assert time.time() < deadline, \
                    "sat-0 never held two leases at once"
                if client.metrics()["leases"].get("sat-0", 0) >= 2:
                    victim.kill()
                    victim.wait(timeout=30)
                    break
                time.sleep(0.01)
            for (problem, _), job_id in zip(batch, jobs):
                final = client.wait(job_id, timeout=300)
                assert final["state"] == "done", (
                    f"job {job_id} lost to the dead satellite: {final}")
                assert final["result"]["verdict"] == \
                    solve(problem).verdict.value
            metrics = client.metrics()
            assert metrics["jobs"]["done"] == 50
            assert metrics["jobs"]["error"] == 0
            assert metrics["leases_expired"] >= 1
            assert metrics["satellite_results"] >= 50 - \
                metrics["cache_hits"]
            assert metrics["solves"] == 0  # the hub never solved a thing
            artifacts = os.environ.get("REPRO_SERVICE_ARTIFACTS")
            if artifacts:
                dest = Path(artifacts)
                dest.mkdir(parents=True, exist_ok=True)
                shutil.copy(queue_dir / "journal.jsonl",
                            dest / "distributed-journal.jsonl")
                (dest / "distributed-metrics.json").write_text(
                    json.dumps(metrics, indent=2, sort_keys=True))
        finally:
            for satellite in satellites:
                kill_group(satellite)
            hub.send_signal(signal.SIGTERM)
            try:
                hub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            kill_group(hub)


class TestKillDashNine:
    def test_kill_mid_batch_then_clean_recovery(self, tmp_path):
        queue_dir = tmp_path / "queue"
        cache_dir = tmp_path / "cache"
        batch = mixed_batch(12)

        process, url = start_server(queue_dir, cache_dir)
        try:
            client = ServiceClient(url)
            jobs = [client.submit(body)["id"] for _, body in batch]
            # Let the pool get partway through the batch, then SIGKILL:
            # no flush, no shutdown hook, nothing graceful.
            deadline = time.time() + 60
            while time.time() < deadline:
                if client.metrics()["jobs"]["done"] >= 1:
                    break
                time.sleep(0.02)
        finally:
            process.kill()  # the hub alone: its solver processes live on
            process.wait(timeout=30)
            kill_group(process)

        process, url = start_server(queue_dir, cache_dir)
        try:
            client = ServiceClient(url)
            assert client.healthz()["ok"] is True
            for (problem, _), job_id in zip(batch, jobs):
                final = client.wait(job_id, timeout=300)
                assert final["state"] == "done", (
                    f"job {job_id} lost to the crash: {final}")
                assert final["result"]["verdict"] == \
                    solve(problem).verdict.value
            counts = client.metrics()["jobs"]
            assert counts["done"] == 12 and counts["error"] == 0
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            kill_group(process)
