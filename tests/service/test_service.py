"""Full job lifecycle over HTTP against an in-process service."""

import dataclasses
import io
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.api import Options, problem_from_spec, run_protocol, solve
from repro.api.codec import problem_to_json
from repro.campaign.specs import FAMILIES, ScenarioSpec
from repro.fuzz.generators import FuzzSpec, generate
from repro.service import ServiceConfig, VerificationService, workers
from repro.service.app import _Handler
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue
from repro.service.schema import decode_problem, decode_submission
from repro.service.workers import CACHE_WRITE_FAILED

from tests.api.test_batch import table_pair
from tests.api.test_delta import free_problem, rebound

NINE_FIELD_DEFAULTS = {
    "solver": None, "symmetry": None, "max_instances": None,
    "max_rounds": 12, "max_paths": 2000, "memoize": True, "timeout": None,
    "workers": 1, "cache_dir": None}
"""``Options().to_json()`` while ``memoize``, ``workers`` and
``cache_dir`` were fields: the options object of every job journaled
then."""
SIX_FIELD_DEFAULTS = {
    "solver": None, "symmetry": None, "max_instances": None,
    "max_rounds": 12, "max_paths": 2000, "timeout": None}
"""``Options().to_json()`` while ``max_paths`` bounded protocol checks:
the options object of every job journaled then."""


@pytest.fixture
def service(tmp_path):
    instance = VerificationService(ServiceConfig(
        queue_dir=tmp_path / "queue",
        cache_dir=tmp_path / "cache",
        workers=2,
    )).start()
    yield instance
    instance.stop()


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


class TestLifecycle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_spec_jobs_match_direct_solve(self, client, family):
        """Submit → poll → result parity with facade.solve, per family."""
        spec = ScenarioSpec.make(family, 0)
        job = client.submit({"spec": spec.as_dict(), "label": family})
        assert job["created"] is True and job["kind"] in (
            "formula", "module", "protocol")
        final = client.wait(job["id"])
        assert final["state"] == "done"
        from repro.api import problem_from_spec

        direct = solve(problem_from_spec(spec))
        assert final["result"]["verdict"] == direct.verdict.value

    @pytest.mark.parametrize("kind", ["formula", "module", "protocol"])
    def test_codec_tree_jobs_match_direct_solve(self, client, kind):
        problem = generate(FuzzSpec.make(kind, 1))
        job = client.submit({"problem": problem_to_json(problem)})
        final = client.wait(job["id"])
        assert final["state"] == "done"
        assert final["result"]["verdict"] == solve(problem).verdict.value

    def test_finished_jobs_resubmit_without_requeueing(self, client):
        body = {"problem": problem_to_json(
            generate(FuzzSpec.make("formula", 2)))}
        first = client.submit(body)
        client.wait(first["id"])
        again = client.submit(body)
        assert again["created"] is False
        assert again["state"] == "done"
        assert again["result"]["verdict"] in ("sat", "unsat")

    def test_results_by_fingerprint(self, client):
        body = {"problem": problem_to_json(
            generate(FuzzSpec.make("formula", 2)))}
        job = client.submit(body)
        final = client.wait(job["id"])
        listing = client.results(final["fingerprint"])
        assert [e["id"] for e in listing["results"]] == [job["id"]]
        assert listing["results"][0]["result"] == final["result"]
        assert client.results("f" * 64)["results"] == []

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.job("nope")
        assert info.value.status == 404

    def test_bad_submission_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit({"problem": {"kind": "junk"}})
        assert info.value.status == 400

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("GET", "/v2/jobs/x")
        assert info.value.status == 404

    def test_protocols_differing_at_bundle_size_three_get_own_verdicts(
            self, client):
        """Two protocols whose utilities differ in one size-3 table entry
        are two jobs, each answered with its own verdict."""
        holds, refuted = table_pair()
        first, second = (client.submit({"problem": problem_to_json(p)})
                         for p in (holds, refuted))
        assert first["id"] != second["id"]
        assert second["created"] is True
        assert client.wait(first["id"])["result"]["verdict"] == "holds"
        assert (client.wait(second["id"])["result"]["verdict"]
                == "counterexample")

    def test_metrics_report_the_work(self, client):
        body = {"problem": problem_to_json(
            generate(FuzzSpec.make("formula", 4)))}
        job = client.submit(body)
        client.wait(job["id"])
        metrics = client.metrics()
        assert metrics["jobs"]["done"] == 1
        assert metrics["solves"] == 1
        assert metrics["queue_depth"] == 0
        assert sum(metrics["latency_histogram"].values()) == 1
        assert 0.0 <= metrics["worker_utilization"] <= 1.0


class TestWarmCache:
    def test_fresh_service_completes_from_the_shared_cache(self, tmp_path):
        """A new service instance over the same cache dir never solves a
        problem the previous instance already solved (zero new solves,
        visible in /v1/metrics)."""
        bodies = [
            {"problem": problem_to_json(generate(FuzzSpec.make(kind, seed)))}
            for kind in ("formula", "module") for seed in (0, 1)
        ]
        cold = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q1", cache_dir=tmp_path / "cache",
            workers=2)).start()
        try:
            cold_client = ServiceClient(cold.url)
            verdicts = {}
            for body in bodies:
                job = cold_client.submit(body)
                verdicts[job["id"]] = cold_client.wait(
                    job["id"])["result"]["verdict"]
            assert cold_client.metrics()["solves"] == len(bodies)
        finally:
            cold.stop()

        warm = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q2", cache_dir=tmp_path / "cache",
            workers=2)).start()
        try:
            warm_client = ServiceClient(warm.url)
            for body in bodies:
                job = warm_client.submit(body)
                final = warm_client.wait(job["id"])
                assert final["result"]["verdict"] == verdicts[job["id"]]
                assert final["result"]["detail"] is not None
            metrics = warm_client.metrics()
            assert metrics["solves"] == 0
            assert metrics["cache_hits"] == len(bodies)
            assert metrics["cache_hit_rate"] == 1.0
        finally:
            warm.stop()


class TestDeltaJobs:
    def test_narrowed_bounds_reuse_a_live_solver_over_the_wire(self, client):
        """delta_of provenance (detail["delta"]) survives the wire: a
        bounds-narrowed variant is answered on the anchor's solver."""
        problem, r = free_problem()
        narrowed = rebound(problem, r, drop=[("c",)])
        anchor = client.submit({"problem": problem_to_json(problem)})
        client.wait(anchor["id"])
        job = client.submit({"problem": problem_to_json(narrowed),
                             "delta_of": anchor["id"]})
        final = client.wait(job["id"])
        assert final["state"] == "done"
        provenance = final["result"]["detail"]["delta"]
        assert provenance["path"] == "reused"
        assert provenance["reason"] == "bounds_narrowed"
        assert final["result"]["verdict"] == solve(narrowed).verdict.value
        assert client.metrics()["delta_reused"] == 1

    def test_formula_edit_falls_back_with_provenance(self, client):
        problem, r = free_problem()
        changed, _ = free_problem(lambda rel: rel.no())
        anchor = client.submit({"problem": problem_to_json(problem)})
        client.wait(anchor["id"])
        job = client.submit({"problem": problem_to_json(changed),
                             "delta_of": anchor["id"]})
        final = client.wait(job["id"])
        provenance = final["result"]["detail"]["delta"]
        assert provenance["path"] == "fallback"
        assert provenance["reason"] == "formula_changed"
        assert final["result"]["verdict"] == solve(changed).verdict.value
        assert client.metrics()["delta_fallback"] == 1

    def test_unknown_anchor_is_rejected_at_submission(self, client):
        problem, _ = free_problem()
        with pytest.raises(ServiceError) as info:
            client.submit({"problem": problem_to_json(problem),
                           "delta_of": "f" * 64})
        assert info.value.status == 400
        assert "unknown job" in str(info.value)


class TestEdgePolicies:
    def test_auth_gates_every_endpoint_but_healthz(self, tmp_path):
        service = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q", cache_dir=tmp_path / "c",
            workers=1, token="sekrit")).start()
        try:
            anonymous = ServiceClient(service.url)
            assert anonymous.healthz()["ok"] is True
            for call in (anonymous.metrics,
                         lambda: anonymous.job("x"),
                         lambda: anonymous.submit({"problem": {}})):
                with pytest.raises(ServiceError) as info:
                    call()
                assert info.value.status == 401
            wrong = ServiceClient(service.url, token="wrong")
            with pytest.raises(ServiceError) as info:
                wrong.metrics()
            assert info.value.status == 401
            authed = ServiceClient(service.url, token="sekrit")
            assert authed.metrics()["jobs"]["pending"] == 0
        finally:
            service.stop()

    def test_rate_limit_answers_429_with_retry_after(self, tmp_path):
        service = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q", cache_dir=tmp_path / "c",
            workers=1, rate_limit=0.5, burst=3)).start()
        try:
            client = ServiceClient(service.url)
            for _ in range(3):
                client.healthz()
            with pytest.raises(ServiceError) as info:
                client.healthz()
            assert info.value.status == 429
            assert "rate limit" in str(info.value)
        finally:
            service.stop()

    @pytest.mark.parametrize("prefix", ["dimacs", "dimacs-inc"])
    def test_external_solver_names_are_400_and_spawn_nothing(
            self, service, client, tmp_path, prefix):
        """An external solver name would make the hub run its command, so
        the edge accepts only registered backends."""
        marker = tmp_path / "spawned"
        body = {"problem": problem_to_json(
                    generate(FuzzSpec.make("formula", 2))),
                "options": {"solver": f"{prefix}:touch {marker}"}}
        with pytest.raises(ServiceError) as info:
            client.submit(body)
        assert info.value.status == 400
        assert "'kodkod'" in str(info.value)  # names what it does run
        assert client.metrics()["jobs"] == {
            "pending": 0, "running": 0, "done": 0, "error": 0}
        journal = service.config.queue_dir / "journal.jsonl"
        assert not journal.exists() or journal.read_text() == ""
        assert not marker.exists()

    def test_the_removed_vector_backend_is_400(self, service, client):
        """``kodkod-vector`` is gone without an alias: the edge refuses it
        like any unregistered name and queues nothing."""
        body = {"problem": problem_to_json(
                    generate(FuzzSpec.make("formula", 2))),
                "options": {"solver": "kodkod-vector"}}
        with pytest.raises(ServiceError) as info:
            client.submit(body)
        assert info.value.status == 400
        assert "'kodkod-vector' is not a registered backend" in str(
            info.value)
        assert client.metrics()["jobs"] == {
            "pending": 0, "running": 0, "done": 0, "error": 0}

    def test_a_journaled_vector_backend_job_fails_as_undecodable(
            self, tmp_path):
        """A job a hub journaled while ``kodkod-vector`` was registered
        fails on replay, without a retry, instead of crashing a worker."""
        submission = decode_submission({"problem": problem_to_json(
            generate(FuzzSpec.make("formula", 2)))})
        queue = JobQueue(tmp_path / "queue")
        record, _ = queue.submit(dataclasses.replace(
            submission, options=Options(solver="kodkod-vector")))
        queue.close()
        service = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "queue", cache_dir=tmp_path / "cache",
            workers=1)).start()
        try:
            final = ServiceClient(service.url).wait(record.id, timeout=60)
        finally:
            service.stop()
        assert final["state"] == "error"
        assert final["error"].startswith("could not decode job: ")
        assert "'kodkod-vector' is not a registered backend" in final["error"]
        assert final["attempts"] == 1

    def test_a_job_journaled_with_the_retired_options_is_solved(
            self, tmp_path):
        """Every job journaled while ``memoize``, ``workers`` and
        ``cache_dir`` were options carries all nine fields; a hub
        restarted on that journal solves it instead of parking it."""
        submission = decode_submission({"problem": problem_to_json(
            generate(FuzzSpec.make("formula", 2)))})
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        (queue_dir / "journal.jsonl").write_text(json.dumps({
            "event": "submit", "id": submission.job_id,
            "payload": {**submission.payload(),
                        "options": NINE_FIELD_DEFAULTS},
            "fingerprint": submission.fingerprint,
            "cache_key": submission.cache_key, "kind": submission.kind,
            "label": "", "delta_of": None, "t": time.time()}) + "\n")
        service = VerificationService(ServiceConfig(
            queue_dir=queue_dir, cache_dir=tmp_path / "cache",
            workers=1)).start()
        try:
            final = ServiceClient(service.url).wait(submission.job_id,
                                                    timeout=60)
        finally:
            service.stop()
        assert final["state"] == "done", final.get("error")
        direct = solve(decode_problem(submission.problem_payload))
        assert final["result"]["verdict"] == direct.verdict.value
        assert final["attempts"] == 1

    def test_a_protocol_job_journaled_with_max_paths_is_solved(
            self, tmp_path):
        """Every job journaled while ``max_paths`` was an option carries
        it; a hub restarted on that journal drops it and solves the job
        under the default ``max_states``."""
        problem = problem_from_spec(ScenarioSpec.make("mca", 0))
        submission = decode_submission({"problem": problem_to_json(problem)})
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        (queue_dir / "journal.jsonl").write_text(json.dumps({
            "event": "submit", "id": submission.job_id,
            "payload": {**submission.payload(),
                        "options": SIX_FIELD_DEFAULTS},
            "fingerprint": submission.fingerprint,
            "cache_key": submission.cache_key, "kind": submission.kind,
            "label": "", "delta_of": None, "t": time.time()}) + "\n")
        service = VerificationService(ServiceConfig(
            queue_dir=queue_dir, cache_dir=tmp_path / "cache",
            workers=1)).start()
        try:
            final = ServiceClient(service.url).wait(submission.job_id,
                                                    timeout=60)
        finally:
            service.stop()
        assert final["state"] == "done", final.get("error")
        assert final["result"]["verdict"] == "holds"
        assert (final["result"]["detail"]["paths_explored"]
                == run_protocol(problem).detail["paths_explored"])

    def test_a_truncated_protocol_check_is_an_uncached_error(
            self, service, client):
        """A search stopped by ``max_states`` fails the job; no result
        is cached or listed for its fingerprint."""
        body = {"spec": ScenarioSpec.make("mca", 0).as_dict(),
                "options": {"max_states": 1}}
        final = client.wait(client.submit(body)["id"])
        assert final["state"] == "error"
        assert "max_states" in final["error"]
        assert "result" not in final
        assert client.results(final["fingerprint"])["results"] == []
        record = service.queue.get(final["id"])
        assert service.cache.get(record.cache_key) is None

    @pytest.mark.parametrize("problem", [
        [],
        "x",
        {**problem_to_json(generate(FuzzSpec.make("formula", 2))),
         "formula": []},
        {**problem_to_json(generate(FuzzSpec.make("protocol", 2))),
         "policies": []},
    ], ids=["list", "string", "formula-list", "policies-list"])
    def test_a_node_of_the_wrong_json_type_is_400(self, service, client,
                                                  problem):
        """The decoder refuses each as malformed: the client gets a
        status, nothing is queued, and the handler thread survives."""
        with pytest.raises(ServiceError) as info:
            client.submit({"problem": problem})
        assert info.value.status == 400
        assert client.metrics()["jobs"] == {
            "pending": 0, "running": 0, "done": 0, "error": 0}
        journal = service.config.queue_dir / "journal.jsonl"
        assert not journal.exists() or journal.read_text() == ""
        assert client.healthz()["ok"] is True

    def test_a_body_nested_too_deeply_is_400(self, service, client):
        """Past the interpreter's recursion limit ``json.loads`` raises
        RecursionError, not ValueError; the hub answers and keeps
        serving."""
        request = urllib.request.Request(
            f"{service.url}/v1/jobs", data=b"[" * 5000 + b"]" * 5000,
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert client.healthz()["ok"] is True

    def test_rate_limiting_is_off_by_default(self, client):
        for _ in range(30):
            client.healthz()

    def test_truncated_post_is_dropped_without_a_traceback(self, service,
                                                            capfd):
        """A client that declares a body, sends part of it and closes gets
        no answer; the hub logs nothing and keeps serving."""
        with socket.create_connection((service.config.host, service.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: hub\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 100\r\n\r\n" + b'{"problem"')
        # Wait for the hub's handler thread for that connection to end.
        deadline = time.monotonic() + 10
        while any("process_request_thread" in thread.name
                  for thread in threading.enumerate()):
            assert time.monotonic() < deadline, "request never finished"
            time.sleep(0.01)
        assert ServiceClient(service.url).healthz()["ok"] is True
        assert "Traceback" not in capfd.readouterr().err

    def test_answer_to_a_departed_client_is_dropped(self):
        class Departed(io.RawIOBase):
            def write(self, data):
                raise BrokenPipeError(32, "Broken pipe")

        handler = _Handler.__new__(_Handler)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "POST /v1/jobs HTTP/1.1"
        handler.close_connection = False
        handler.wfile = Departed()
        handler._error(400, "body is not valid JSON")
        assert handler.close_connection is True


class TestResultStorage:
    def test_a_job_whose_result_cannot_be_cached_is_never_done(
            self, tmp_path):
        """A solved job whose cache write fails is requeued, not marked
        done with no result; at the attempt cap it is parked as an
        error.  Delta jobs go through the same store."""
        service = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "queue", cache_dir=tmp_path / "cache",
            workers=1, max_attempts=2)).start()
        service.cache.put = lambda key, payload: False
        try:
            client = ServiceClient(service.url)
            problem, r = free_problem()
            anchor = client.submit({"problem": problem_to_json(problem)})
            delta = client.submit({
                "problem": problem_to_json(rebound(problem, r,
                                                   drop=[("c",)])),
                "delta_of": anchor["id"]})
            finals = [client.wait(job["id"], timeout=120)
                      for job in (anchor, delta)]
            retries = client.metrics()["retries"]
        finally:
            service.stop()
        for final in finals:
            assert final["state"] == "error"
            assert final["error"] == CACHE_WRITE_FAILED
            assert final["attempts"] == 2
        assert retries == 2


class TestOneLifecycle:
    def test_the_hub_never_decodes_a_queued_job_tree(self, tmp_path,
                                                     monkeypatch):
        """After the edge, a non-delta job's tree is decoded only where
        it is solved: the hub hands its pool the journaled payload.
        (The pool's forked workers record into their own copies of the
        list, so only the hub's own calls could show up here.)"""
        calls = []
        decode = workers.decode_problem

        def recording(payload):
            calls.append(payload)
            return decode(payload)

        monkeypatch.setattr(workers, "decode_problem", recording)
        problem = generate(FuzzSpec.make("formula", 2))
        service = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "queue", cache_dir=tmp_path / "cache",
            workers=1)).start()
        try:
            client = ServiceClient(service.url)
            final = client.wait(client.submit(
                {"problem": problem_to_json(problem)})["id"], timeout=120)
        finally:
            service.stop()
        assert final["state"] == "done"
        assert final["result"]["verdict"] == solve(problem).verdict.value
        assert calls == []


class TestReadmeExample:
    def test_the_readme_job_example_runs_verbatim(self, client):
        """The JSON submission shown in README.md § Running the service
        is executed as-is against a live server."""
        readme = Path(__file__).resolve().parents[2] / "README.md"
        section = readme.read_text().split("## Running the service", 1)[1]
        match = re.search(r"```json\n(.*?)```", section, re.DOTALL)
        assert match, "README must show a JSON job example"
        submission = json.loads(match.group(1))
        job = client.submit(submission)
        final = client.wait(job["id"])
        assert final["state"] == "done"
        assert final["result"]["verdict"] in (
            "sat", "unsat", "holds", "counterexample")
