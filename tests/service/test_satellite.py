"""The satellite half of the execution fabric, against in-process hubs.

These tests run the hub as a pure coordinator (``local_dispatch=False``)
so every solve observed is attributable to the satellite under test:
claim batching, lease bookkeeping, result posting, heartbeat keep-alive,
and the hub-side policies (delta jobs stay local, cache hits are
answered inline, stale posts bounce with 409).  The DeltaSession
lifecycle regression rides along because the worker pool is the host
that must not leak evicted sessions.
"""

import dataclasses
import json
import time

import pytest

from repro.alloylite import Module
from repro.alloylite.module import Scope
from repro.api import ModuleProblem, solve
from repro.api.codec import problem_to_json
from repro.api.delta import open_session_count
from repro.campaign.specs import ScenarioSpec
from repro.fuzz.generators import FuzzSpec, generate
from repro.kodkod import relation
from repro.service import ServiceConfig, VerificationService
from repro.service.client import ServiceClient, ServiceError
from repro.service import satellite
from repro.service.satellite import SatelliteWorker
from repro.service.schema import decode_submission
from repro.service.workers import CACHE_WRITE_FAILED, solve_job

from tests.api.test_delta import free_problem, rebound
from tests.service.test_service import NINE_FIELD_DEFAULTS, SIX_FIELD_DEFAULTS


def formula_body(seed):
    return {"problem": problem_to_json(
        generate(FuzzSpec.make("formula", seed)))}


@pytest.fixture
def hub(tmp_path):
    instance = VerificationService(ServiceConfig(
        queue_dir=tmp_path / "queue", cache_dir=tmp_path / "cache",
        workers=1, local_dispatch=False)).start()
    yield instance
    instance.stop()


@pytest.fixture
def client(hub):
    return ServiceClient(hub.url)


class TestSatelliteFabric:
    def test_claim_solve_post_matches_direct_solve(self, hub, client):
        problems = [generate(FuzzSpec.make("formula", seed))
                    for seed in range(3)]
        jobs = [client.submit({"problem": problem_to_json(p)})["id"]
                for p in problems]
        worker = SatelliteWorker(hub.url, worker_id="sat-test",
                                 claim_limit=2)
        for _ in range(6):
            if worker.run_once() == 0:
                break
        for problem, job_id in zip(problems, jobs):
            final = client.wait(job_id, timeout=120)
            assert final["state"] == "done"
            assert final["result"]["verdict"] == solve(problem).verdict.value
            assert final["worker"] == "sat-test"
        metrics = client.metrics()
        assert metrics["satellite_claims"] == 3
        assert metrics["satellite_results"] == 3
        assert metrics["leases_expired"] == 0
        assert metrics["jobs"] == {"pending": 0, "running": 0,
                                   "done": 3, "error": 0}
        assert worker.stats.snapshot()["solved"] == 3

    def test_a_refused_post_does_not_sink_the_claim_batch(
            self, hub, client, monkeypatch):
        """The hub refuses the first post (a SAT verdict without its
        instance, 400); the satellite counts it and still solves and
        posts the second claim of the batch."""
        ids = {}
        for seed in (21, 22):
            label = f"seed-{seed}"
            ids[label] = client.submit(
                {**formula_body(seed), "label": label})["id"]
        worker = SatelliteWorker(hub.url, worker_id="sat-refused",
                                 claim_limit=2)
        claimed = []

        def lying_first(payload):
            claimed.append(ids[payload["label"]])
            if len(claimed) == 1:
                return {"verdict": "sat", "instances": []}
            return solve_job(payload)

        monkeypatch.setattr(satellite, "solve_job", lying_first)
        assert worker.run_once() == 2
        assert worker.stats.snapshot()["errors"] == 1
        assert worker.stats.snapshot()["solved"] == 1
        refused, solved = claimed
        assert client.job(refused)["state"] == "running"  # lease lapses
        assert client.job(solved)["state"] == "done"

    def test_a_result_the_hub_cannot_cache_is_503_and_requeued(
            self, hub, client):
        """A job is never done without its result on disk: a post whose
        cache write fails requeues the job (costing the attempt)."""
        hub.cache.put = lambda key, payload: False
        job_id = client.submit(formula_body(23))["id"]
        (claim,) = client.claim("sat-disk", limit=1)["claims"]
        with pytest.raises(ServiceError) as info:
            client.post_result(job_id, lease=claim["lease"],
                               worker="sat-disk",
                               result=solve_job(claim["payload"]))
        assert info.value.status == 503
        assert "now pending" in str(info.value)
        body = client.job(job_id)
        assert body["state"] == "pending"
        assert body["attempts"] == 1
        journal = hub.config.queue_dir / "journal.jsonl"
        events = [json.loads(line)
                  for line in journal.read_text().splitlines()]
        assert events[-1] == {**events[-1], "event": "requeue",
                              "reason": CACHE_WRITE_FAILED}
        assert client.metrics()["retries"] == 1

    def test_delta_jobs_stay_local(self, hub, client):
        """A satellite cold-solve would lose the warm-session provenance
        delta jobs exist for, so claims never ship them."""
        problem, r = free_problem()
        narrowed = rebound(problem, r, drop=[("c",)])
        anchor = client.submit({"problem": problem_to_json(problem)})
        delta = client.submit({"problem": problem_to_json(narrowed),
                               "delta_of": anchor["id"]})
        body = client.claim("sat-x", limit=10)
        assert [c["id"] for c in body["claims"]] == [anchor["id"]]
        assert client.job(delta["id"])["state"] == "pending"

    def test_a_stale_post_bounces_with_409(self, hub, client):
        job_id = client.submit(formula_body(11))["id"]
        (claim,) = client.claim("sat-slow", limit=1,
                                lease_seconds=0.05)["claims"]
        deadline = time.time() + 30
        while client.metrics()["leases_expired"] < 1:
            assert time.time() < deadline, "sweep never expired the lease"
            time.sleep(0.02)
        worker = SatelliteWorker(hub.url, worker_id="sat-slow")
        result = solve_job(claim["payload"])
        worker._post(claim, result)  # swallows the 409 and counts it
        assert worker.stats.snapshot()["lost_leases"] == 1
        with pytest.raises(ServiceError) as info:
            client.post_result(job_id, lease=claim["lease"],
                               worker="sat-slow", result=result)
        assert info.value.status == 409
        # The job is back in the queue awaiting a fresh claim, unharmed:
        # the stale posts left nothing in the shared cache, so the next
        # claim ships the job instead of answering it from the cache.
        assert client.job(job_id)["state"] == "pending"
        assert client.metrics()["jobs"]["error"] == 0
        assert hub.cache.get(claim["cache_key"]) is None
        (fresh,) = client.claim("sat-fresh", limit=1)["claims"]
        assert fresh["id"] == job_id
        assert client.metrics()["cache_hits"] == 0

    def test_heartbeats_keep_a_short_lease_alive(self, hub, client):
        job_id = client.submit(formula_body(12))["id"]
        (claim,) = client.claim("sat-beat", limit=1,
                                lease_seconds=0.3)["claims"]
        # Outlive the original deadline several times over on heartbeats.
        end = time.time() + 1.2
        while time.time() < end:
            client.heartbeat(claim["lease"], 0.5)
            time.sleep(0.05)
        assert time.time() > claim["deadline"]
        assert client.metrics()["leases_expired"] == 0
        client.heartbeat(claim["lease"], 60.0)  # room to solve and post
        body = client.post_result(job_id, lease=claim["lease"],
                                  worker="sat-beat",
                                  result=solve_job(claim["payload"]))
        assert body["state"] == "done"

    def test_heartbeat_on_an_unknown_lease_is_409(self, client):
        with pytest.raises(ServiceError) as info:
            client.heartbeat("bogus")
        assert info.value.status == 409

    def test_an_undecodable_claim_payload_parks_the_job(self, hub, client):
        """A satellite that cannot decode a payload posts a deterministic
        error instead of crashing its loop; the hub parks the job."""
        job_id = client.submit(formula_body(15))["id"]
        (claim,) = client.claim("sat-bad", limit=1)["claims"]
        worker = SatelliteWorker(hub.url, worker_id="sat-bad")
        mangled = {**claim, "payload": {"problem": {"kind": "junk"}}}
        result = solve_job(mangled["payload"])
        assert "could not decode" in result["error"]
        worker._post(claim, result)
        assert worker.stats.snapshot()["errors"] == 1
        final = client.job(job_id)
        assert final["state"] == "error"
        assert "could not decode" in final["error"]

    def test_a_claim_journaled_with_the_retired_options_is_solved(
            self, hub, client):
        """A claim whose options still carry ``memoize``, ``workers`` and
        ``cache_dir`` (a job journaled while they were options) solves."""
        job_id = client.submit(formula_body(15))["id"]
        (claim,) = client.claim("sat-old", limit=1)["claims"]
        payload = {**claim["payload"], "options": NINE_FIELD_DEFAULTS}
        worker = SatelliteWorker(hub.url, worker_id="sat-old")
        result = solve_job(payload)
        assert result["error"] is None
        worker._post(claim, result)
        assert client.job(job_id)["state"] == "done"

    def test_a_protocol_claim_journaled_with_max_paths_is_solved(
            self, hub, client):
        """A claim whose options still carry ``max_paths`` (a job
        journaled while it was an option) solves under the default
        ``max_states``."""
        spec = ScenarioSpec.make("mca", 0)
        job_id = client.submit({"spec": spec.as_dict()})["id"]
        (claim,) = client.claim("sat-paths", limit=1)["claims"]
        payload = {**claim["payload"], "options": SIX_FIELD_DEFAULTS}
        worker = SatelliteWorker(hub.url, worker_id="sat-paths")
        result = solve_job(payload)
        assert result["error"] is None
        assert result["verdict"] == "holds"
        worker._post(claim, result)
        assert client.job(job_id)["state"] == "done"

    def test_a_claim_naming_an_external_solver_is_refused(
            self, hub, client, tmp_path):
        """A satellite runs only registered backends, whatever a claim's
        options say: it posts a decode error and spawns nothing."""
        client.submit(formula_body(15))
        (claim,) = client.claim("sat-ext", limit=1)["claims"]
        marker = tmp_path / "spawned"
        payload = {**claim["payload"],
                   "options": {"solver": f"dimacs:touch {marker}"}}
        result = solve_job(payload)
        assert "could not decode" in result["error"]
        assert "not a registered backend" in result["error"]
        assert not marker.exists()


class TestHubPolicies:
    def test_cached_work_is_answered_inline_not_shipped(self, tmp_path):
        body = formula_body(13)
        solver_hub = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q1", cache_dir=tmp_path / "cache",
            workers=1)).start()
        try:
            first = ServiceClient(solver_hub.url)
            first.wait(first.submit(body)["id"], timeout=120)
        finally:
            solver_hub.stop()

        coordinator = VerificationService(ServiceConfig(
            queue_dir=tmp_path / "q2", cache_dir=tmp_path / "cache",
            workers=1, local_dispatch=False)).start()
        try:
            client = ServiceClient(coordinator.url)
            job_id = client.submit(body)["id"]
            assert client.claim("sat-x", limit=5)["claims"] == []
            assert client.job(job_id)["state"] == "done"
            metrics = client.metrics()
            assert metrics["cache_hits"] == 1
            assert metrics["satellite_claims"] == 0
        finally:
            coordinator.stop()

    @pytest.mark.parametrize("body", [
        None,
        {},
        {"worker": ""},
        {"worker": 7},
        {"worker": "local"},
        {"worker": "sat", "limit": 0},
        {"worker": "sat", "limit": 999},
        {"worker": "sat", "limit": "two"},
        {"worker": "sat", "lease_seconds": 0},
        {"worker": "sat", "lease_seconds": 1e9},
    ])
    def test_malformed_claims_are_400(self, client, body):
        with pytest.raises(ServiceError) as info:
            client.request("POST", "/v1/claims", body)
        assert info.value.status == 400

    def test_malformed_results_are_rejected(self, hub, client):
        job_id = client.submit(formula_body(14))["id"]
        (claim,) = client.claim("sat-v", limit=1)["claims"]
        lease = claim["lease"]
        for body in ({"result": {"verdict": "sat"}},          # no lease
                     {"lease": lease},                        # no result
                     {"lease": lease, "result": {}},          # no verdict
                     {"lease": lease, "result": {"verdict": "maybe"}},
                     {"lease": lease, "result": {"verdict": "error"}},
                     {"lease": lease, "result": {"verdict": "sat",
                                                 "error": "boom"}}):
            with pytest.raises(ServiceError) as info:
                client.request("POST", f"/v1/jobs/{job_id}/result", body)
            assert info.value.status == 400
        assert client.job(job_id)["state"] == "running"
        assert hub.cache.get(claim["cache_key"]) is None
        with pytest.raises(ServiceError) as info:
            client.post_result("nope", lease="x", worker="sat-v",
                               result={"verdict": "sat"})
        assert info.value.status == 404


def r_instance(tuples, atoms="abc"):
    """A posted instance over ``atoms`` with ``r = tuples`` (no ``r`` at
    all for None)."""
    relations = ([] if tuples is None
                 else [{"name": "r", "arity": 1, "tuples": tuples}])
    return {"universe": list(atoms), "relations": relations}


class TestPostedInstanceCheck:
    """The hub checks a posted SAT instance against the job's goal and
    bounds before it can enter the shared cache."""

    @staticmethod
    def _claimed_job(client, promote=()):
        problem, r = free_problem()  # some r, r over {a, b, c}
        # r <= {a, b}, and r >= the promoted tuples
        problem = rebound(problem, r, drop=[("c",)], promote=promote)
        job_id = client.submit({"problem": problem_to_json(problem)})["id"]
        (claim,) = client.claim("sat-liar", limit=1)["claims"]
        return job_id, claim

    @staticmethod
    def _post(client, job_id, claim, instances):
        return client.request(
            "POST", f"/v1/jobs/{job_id}/result",
            {"lease": claim["lease"], "worker": "sat-liar",
             "result": {"verdict": "sat", "instances": instances}})

    @pytest.mark.parametrize("promote,instance", [
        ((), r_instance([])),
        ((), r_instance([["c"]])),
        ((), r_instance([["a"]], atoms="ab")),
        ((), r_instance(None)),
        ([("a",)], r_instance([["b"]])),
    ], ids=["empty-r-falsifies-some-r", "c-outside-the-upper-bound",
            "atoms-differ-from-the-universe", "r-not-posted",
            "r-below-its-lower-bound"])
    def test_a_non_model_is_refused_and_not_cached(
            self, hub, client, tmp_path, promote, instance):
        """``r = {}`` falsifies ``some r``; each other post satisfies it
        where it names ``r`` but is no instance of the job's bounds."""
        job_id, claim = self._claimed_job(client, promote)
        with pytest.raises(ServiceError) as info:
            self._post(client, job_id, claim, [instance])
        assert info.value.status == 400
        assert "not a model" in str(info.value)
        # Nothing cached; the lease lapses through the attempt cap.
        assert client.job(job_id)["state"] == "running"
        assert list((tmp_path / "cache").glob("*/*.json")) == []

    def test_a_goal_over_an_unbounded_relation_is_refused(
            self, hub, client, tmp_path):
        """No satellite solve can answer SAT here (nothing bounds ``s``),
        so such a post is refused, not a crash: the hub's decode of the
        job, the gate the edge uses too, refuses the tree.  The edge
        would refuse the submission, so the job is journaled directly."""
        bounded, _ = free_problem()
        problem, _ = free_problem(lambda r: relation("s", 1).some())
        submission = dataclasses.replace(
            decode_submission({"problem": problem_to_json(bounded)}),
            problem_payload=problem_to_json(problem))
        job_id = hub.queue.submit(submission)[0].id
        (claim,) = client.claim("sat-liar", limit=1)["claims"]
        with pytest.raises(ServiceError) as info:
            self._post(client, job_id, claim, [r_instance([["a"]])])
        assert info.value.status == 400
        assert list((tmp_path / "cache").glob("*/*.json")) == []

    @staticmethod
    def _uncompilable(case):
        module = Module(case)
        if case == "scope-0":
            module.sig("A")
            return ModuleProblem(module, scope=Scope(0))
        return ModuleProblem(module)  # no sig: an empty universe

    @pytest.mark.parametrize("case", ["scope-0", "no-sig"])
    def test_a_module_that_does_not_compile_is_refused(
            self, hub, client, tmp_path, case):
        """The edge does not compile modules, so such a job is claimed;
        no instance can witness it, so a SAT post gets 400 (not a dropped
        connection), nothing is cached and the lease is left to lapse."""
        problem = self._uncompilable(case)
        job_id = client.submit({"problem": problem_to_json(problem)})["id"]
        (claim,) = client.claim("sat-liar", limit=1)["claims"]
        instance = {"universe": ["A$0"], "relations": [
            {"name": "A", "arity": 1, "tuples": [["A$0"]]}]}
        with pytest.raises(ServiceError) as info:
            self._post(client, job_id, claim, [instance])
        assert info.value.status == 400
        assert "does not compile" in str(info.value)
        assert client.job(job_id)["state"] == "running"
        assert list((tmp_path / "cache").glob("*/*.json")) == []

    def test_a_sat_post_without_an_instance_is_refused(
            self, hub, client, tmp_path):
        job_id, claim = self._claimed_job(client)
        with pytest.raises(ServiceError) as info:
            self._post(client, job_id, claim, [])
        assert info.value.status == 400
        assert list((tmp_path / "cache").glob("*/*.json")) == []

    def test_a_model_within_the_bounds_is_cached(self, hub, client):
        job_id, claim = self._claimed_job(client)
        body = self._post(client, job_id, claim, [r_instance([["a"]])])
        assert body["state"] == "done"
        cached = hub.cache.get(claim["cache_key"])
        assert cached["instances"] == [r_instance([["a"]])]


class TestSessionLifecycle:
    def test_evicted_and_stopped_sessions_are_closed(self, tmp_path):
        """Churning the delta-session LRU past its cap must close what it
        evicts — the regression was sessions leaking live solvers."""
        from repro.api.options import Options
        from repro.jobs import ResultCache
        from repro.service.queue import JobQueue
        from repro.service.workers import _SESSION_CAP, WorkerPool

        queue = JobQueue(tmp_path / "q")
        pool = WorkerPool(queue, ResultCache(tmp_path / "c"), workers=1)
        baseline = open_session_count()
        options = Options.from_json({})
        for seed in range(_SESSION_CAP + 4):
            anchor, _ = queue.submit(
                decode_submission(formula_body(seed)))
            probe = dataclasses.replace(anchor, delta_of=anchor.id)
            pool._session_for(probe, options)
            assert open_session_count() - baseline <= _SESSION_CAP, (
                "evicted sessions must be closed, not leaked")
        assert open_session_count() - baseline == _SESSION_CAP
        pool.stop()
        queue.close()
        assert open_session_count() == baseline

    def test_a_closed_session_refuses_to_solve(self):
        problem, _ = free_problem()
        from repro.api.delta import DeltaSession

        with DeltaSession(problem, solve_anchor=False) as session:
            assert not session.closed
        assert session.closed
        session.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            session.solve(problem)
