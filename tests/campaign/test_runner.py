"""Runner tests: caching semantics, error capture, sharding, reporting."""

import json
import multiprocessing
import time

import pytest

from repro.analysis import campaign_summary, render_campaign_table, \
    write_campaign_json
from repro.api import FormulaProblem
from repro.campaign import (
    CampaignResult,
    ScenarioSpec,
    build_default_campaign,
    cache_key,
    execute_task,
    run_campaign,
)
from repro.campaign.oracles import ORACLES, OracleOutcome, register_oracle
from repro.campaign.specs import random_sweep
from repro.jobs import ResultCache


def _hang_oracle(problem, seed, params):
    time.sleep(120)
    return OracleOutcome("test-hang", True)


@pytest.fixture
def hang_oracle():
    """Temporarily register an oracle that never returns.

    Registration happens before run_campaign creates its pool, so
    fork-started workers inherit it; the registry is restored afterwards
    so the other test modules see only the real oracles.
    """
    register_oracle("test-hang", FormulaProblem,
                    "test-only oracle that never returns")(_hang_oracle)
    try:
        yield "test-hang"
    finally:
        ORACLES.pop("test-hang", None)


def small_tasks():
    specs = random_sweep("relational", 3, base_seed=0, num_atoms=(3, 3),
                         depth=(1, 1), max_edges=(0, 3))
    return [(spec, "symmetry") for spec in specs] + [
        (ScenarioSpec.make("mca", 5, num_agents=3, num_items=3, target=1),
         "engines"),
    ]


class TestExecuteTask:
    def test_result_shape(self):
        spec = ScenarioSpec.make("relational", 1, num_atoms=3)
        payload = execute_task(spec.as_dict(), "symmetry")
        assert payload["error"] is None
        assert payload["agree"] is True
        assert payload["spec_hash"] == spec.content_hash()
        assert payload["seconds"] >= 0.0
        # The payload must survive the JSON round trip (cache + artifact).
        restored = CampaignResult.from_json(
            json.loads(json.dumps(payload)))
        assert restored.ok

    def test_unknown_oracle_becomes_error_result(self):
        spec = ScenarioSpec.make("relational", 1)
        payload = execute_task(spec.as_dict(), "no-such-oracle")
        assert payload["error"] is not None
        assert payload["agree"] is False

    def test_inapplicable_oracle_becomes_error_result(self):
        spec = ScenarioSpec.make("mca", 1)
        payload = execute_task(spec.as_dict(), "symmetry")
        assert "does not apply" in payload["error"]


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"agree": True})
        assert cache.get("ab" * 32) == {"agree": True}
        assert len(cache) == 1

    def test_put_refuses_error_payloads(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.put("ef" * 32, {"agree": False, "error": "boom"}) is False
        assert not (tmp_path / "c").exists()
        assert cache.get("ef" * 32) is None
        assert len(cache) == 0

    def test_unserializable_payload_does_not_crash(self, tmp_path):
        # A third-party oracle may return a non-JSON-able detail dict;
        # the cache write must fail silently, leaving no temp debris.
        cache = ResultCache(tmp_path / "c")
        cache.put("cd" * 32, {"detail": {1, 2}})  # sets are not JSON-able
        assert cache.get("cd" * 32) is None
        assert list((tmp_path / "c").rglob("*.tmp")) == []

    def test_cache_key_separates_spec_and_oracle(self):
        spec_a = ScenarioSpec.make("relational", 1)
        spec_b = ScenarioSpec.make("relational", 2)
        keys = {
            cache_key(spec_a, "symmetry"),
            cache_key(spec_a, "evaluator"),
            cache_key(spec_b, "symmetry"),
        }
        assert len(keys) == 3

    def test_second_run_is_fully_cached(self, tmp_path):
        tasks = small_tasks()
        cold = run_campaign(tasks, shards=1, cache_dir=tmp_path / "c")
        assert cold.clean and cold.cache_hits == 0
        warm = run_campaign(tasks, shards=1, cache_dir=tmp_path / "c")
        assert warm.clean
        assert warm.cache_hits == warm.total == len(tasks)
        assert warm.executed == 0
        cold_verdicts = [(r.spec_hash, r.oracle, r.agree)
                         for r in cold.results]
        warm_verdicts = [(r.spec_hash, r.oracle, r.agree)
                         for r in warm.results]
        assert cold_verdicts == warm_verdicts
        assert all(r.cached for r in warm.results)

    def test_errors_are_not_cached(self, tmp_path):
        spec = ScenarioSpec.make("relational", 1)
        report = run_campaign([(spec, "no-such-oracle")], shards=1,
                              cache_dir=tmp_path / "c")
        assert report.errors
        assert len(ResultCache(tmp_path / "c")) == 0

    def test_cached_error_entries_are_retried(self, tmp_path):
        spec = ScenarioSpec.make("relational", 1, num_atoms=3)
        poisoned = execute_task(spec.as_dict(), "symmetry")
        poisoned["error"] = "timeout after 1s"
        # ResultCache.put refuses error payloads, so plant the entry the
        # way an older writer would have left it on disk.
        key = cache_key(spec, "symmetry")
        entry = tmp_path / "c" / key[:2] / f"{key}.json"
        entry.parent.mkdir(parents=True)
        entry.write_text(json.dumps(poisoned))
        report = run_campaign([(spec, "symmetry")], shards=1,
                              cache_dir=tmp_path / "c")
        assert report.cache_hits == 0
        assert report.results[0].ok
        assert not report.results[0].cached

    def test_no_cache_dir_disables_cache(self, tmp_path):
        tasks = small_tasks()[:2]
        first = run_campaign(tasks, shards=1, cache_dir=None)
        second = run_campaign(tasks, shards=1, cache_dir=None)
        assert first.cache_hits == second.cache_hits == 0


class TestSharding:
    def test_sharded_matches_inline(self, tmp_path):
        tasks = small_tasks()
        inline = run_campaign(tasks, shards=1, cache_dir=None)
        sharded = run_campaign(tasks, shards=2, cache_dir=None)
        assert sharded.shards == 2
        assert ([(r.spec_hash, r.oracle, r.agree, r.error is None)
                 for r in inline.results]
                == [(r.spec_hash, r.oracle, r.agree, r.error is None)
                    for r in sharded.results])

    def test_shards_share_one_cache(self, tmp_path):
        tasks = small_tasks()
        run_campaign(tasks, shards=2, cache_dir=tmp_path / "c")
        warm = run_campaign(tasks, shards=2, cache_dir=tmp_path / "c")
        assert warm.cache_hits == warm.total

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the test-hang oracle reaches workers only via fork")
    def test_stall_costs_one_timeout_window(self, hang_oracle):
        """Hung workers must cost one stall window in total: queued tasks
        behind them are recorded immediately, completed ones are kept,
        and the campaign (and its workers) terminates promptly."""
        hang = [(ScenarioSpec.make("relational", s, num_atoms=3),
                 hang_oracle) for s in (1, 2)]
        healthy = [(spec, "symmetry") for spec in random_sweep(
            "relational", 4, base_seed=50, num_atoms=(3, 3),
            depth=(1, 1), max_edges=(0, 2))]
        started = time.perf_counter()
        report = run_campaign(hang + healthy, shards=2, task_timeout=1.5,
                              cache_dir=None)
        elapsed = time.perf_counter() - started
        assert elapsed < 15  # one window + slack, not one window per task
        assert report.total == 6
        errors = [r.error for r in report.errors]
        assert sum("timeout" in e for e in errors) >= 2
        # Healthy tasks either completed before the stall or were
        # recorded as never-started; none may disagree.
        assert not report.disagreements


class TestDefaultCampaign:
    def test_meets_acceptance_shape(self):
        tasks = build_default_campaign(instances=100)
        assert len(tasks) >= 100
        families = {spec.family for spec, _ in tasks}
        oracles = {oracle for _, oracle in tasks}
        assert len(families) >= 3
        assert len(oracles) >= 4
        for spec, oracle in tasks:
            assert oracle in {"symmetry", "enumeration", "evaluator",
                              "external", "explorer", "engines", "delta"}
        # The delta oracle must sweep every family it applies to.
        delta_families = {spec.family for spec, oracle in tasks
                          if oracle == "delta"}
        assert delta_families == {"relational", "mca", "dispatch", "uav",
                                  "vnet"}

    def test_deterministic_in_seed(self):
        assert (build_default_campaign(instances=40, base_seed=1)
                == build_default_campaign(instances=40, base_seed=1))
        assert (build_default_campaign(instances=40, base_seed=1)
                != build_default_campaign(instances=40, base_seed=2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_default_campaign(instances=0)


class TestReporting:
    def test_summary_and_table(self, tmp_path):
        report = run_campaign(small_tasks(), shards=1,
                              cache_dir=tmp_path / "c")
        summary = campaign_summary(report.results)
        assert summary["totals"]["tasks"] == report.total
        assert summary["totals"]["disagreements"] == 0
        table = render_campaign_table(report.results)
        assert "TOTAL" in table
        assert "symmetry" in table

    def test_json_artifact(self, tmp_path):
        report = run_campaign(small_tasks()[:2], shards=1,
                              cache_dir=tmp_path / "c")
        path = tmp_path / "artifacts" / "BENCH_campaign.json"
        artifact = write_campaign_json(report.results, path,
                                       wall_seconds=report.wall_seconds,
                                       shards=report.shards)
        assert path.is_file()
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(artifact))
        assert on_disk["benchmark"] == "campaign"
        assert len(on_disk["results"]) == 2
