"""``solve_many``: batch parity with sequential ``solve`` plus caching.

The acceptance bar: a batch over 50+ campaign-spec problems matches
sequential façade results exactly, and a warm re-run over the same cache
directory is pure cache hits — from any worker count, since execution
knobs are excluded from the cache key.
"""

import pytest

from repro import api
from repro.api.batch import batch_cache_key
from repro.campaign.runner import ResultCache
from repro.campaign.specs import random_sweep

# 50+ seeded relational problems (3-atom universes keep each solve fast).
BATCH_SPECS = random_sweep(
    "relational", 52, base_seed=77,
    num_atoms=(3, 3), depth=(1, 2), max_edges=(0, 3),
)


def _signature(result):
    """Comparable identity of a result: verdict + witnessing valuations."""
    return (
        result.verdict,
        [api.instance_payload(inst) for inst in result.instances],
    )


@pytest.fixture(scope="module")
def problems():
    return [api.problem_from_spec(spec) for spec in BATCH_SPECS]


@pytest.fixture(scope="module")
def sequential(problems):
    return [api.solve(problem) for problem in problems]


class TestBatchParity:
    def test_cold_batch_matches_sequential_and_warm_run_hits_cache(
            self, problems, sequential, tmp_path):
        cache_dir = tmp_path / "batch_cache"
        cold = api.solve_many(problems, cache_dir=cache_dir)
        assert len(cold) == len(problems) >= 50
        assert [_signature(r) for r in cold] \
            == [_signature(r) for r in sequential]
        assert not any(r.detail.get("cached") for r in cold)
        assert all(r.error is None for r in cold)

        warm = api.solve_many(problems, cache_dir=cache_dir)
        assert all(r.detail.get("cached") for r in warm)
        assert [_signature(r) for r in warm] \
            == [_signature(r) for r in sequential]

    def test_sharded_batch_matches_sequential(self, problems, sequential,
                                              tmp_path):
        subset = problems[:10]
        sharded = api.solve_many(subset, workers=2,
                                 cache_dir=tmp_path / "pool_cache")
        assert [_signature(r) for r in sharded] \
            == [_signature(r) for r in sequential[:10]]

    def test_pool_size_does_not_change_cache_key(self, problems, tmp_path):
        cache_dir = tmp_path / "shared_cache"
        api.solve_many(problems[:6], workers=2, cache_dir=cache_dir)
        warm = api.solve_many(problems[:6], workers=1, cache_dir=cache_dir)
        assert all(r.detail.get("cached") for r in warm)

    def test_uncached_batch_has_no_cache_side_effects(self, problems):
        results = api.solve_many(problems[:3])
        assert all(r.detail.get("cached") is None for r in results)

    def test_results_in_input_order(self, problems, sequential, tmp_path):
        reversed_problems = list(reversed(problems[:8]))
        results = api.solve_many(reversed_problems,
                                 cache_dir=tmp_path / "order_cache")
        expected = list(reversed(sequential[:8]))
        assert [_signature(r) for r in results] \
            == [_signature(r) for r in expected]


class TestTimeoutKnobs:
    """Regression: ``task_timeout`` must never inherit ``Options.timeout``
    — the per-solve budget and the pool's stall bound are separate knobs,
    and conflating them killed healthy batches whose individual solves
    were slower than the per-solve budget."""

    @staticmethod
    def _spy_map_jobs(monkeypatch, captured):
        import repro.campaign.runner as campaign_runner

        real_map_jobs = campaign_runner.map_jobs

        def spy(jobs, worker, record, failure, *, shards, task_timeout):
            captured.append(task_timeout)
            return real_map_jobs(jobs, worker, record, failure,
                                 shards=shards, task_timeout=task_timeout)

        # solve_many imports map_jobs lazily from the runner module at
        # call time, so patching the source module intercepts it.
        monkeypatch.setattr(campaign_runner, "map_jobs", spy)

    def test_stall_bound_ignores_per_solve_timeout(self, problems,
                                                   monkeypatch):
        from repro.api.batch import DEFAULT_TASK_TIMEOUT

        captured = []
        self._spy_map_jobs(monkeypatch, captured)
        results = api.solve_many(problems[:2], timeout=0.001)
        assert all(r.error is None for r in results)
        assert captured == [DEFAULT_TASK_TIMEOUT]

    def test_explicit_task_timeout_wins(self, problems, monkeypatch):
        captured = []
        self._spy_map_jobs(monkeypatch, captured)
        api.solve_many(problems[:2], timeout=0.001, task_timeout=7.5)
        assert captured == [7.5]


class TestBatchCacheSemantics:
    def test_cache_key_depends_on_semantic_options(self, problems):
        base = api.Options()
        assert (batch_cache_key(problems[0], base)
                == batch_cache_key(problems[0], base.replace(workers=4)))
        assert (batch_cache_key(problems[0], base)
                != batch_cache_key(problems[0], base.replace(symmetry=0)))
        assert (batch_cache_key(problems[0], base)
                != batch_cache_key(problems[1], base))

    def test_error_results_are_not_cached(self, tmp_path, problems):
        class ExplodingBackend:
            name = "exploding-test"

            def supports(self, problem):
                return True

            def solve(self, problem, options):
                raise RuntimeError("deliberate test failure")

            def enumerate(self, problem, options):
                raise RuntimeError("deliberate test failure")

        from repro.api.backends import _REGISTRY

        api.register_backend(ExplodingBackend())
        try:
            cache_dir = tmp_path / "error_cache"
            failed = api.solve_many(problems[:2], solver="exploding-test",
                                    cache_dir=cache_dir)
            assert all(r.verdict is api.Verdict.ERROR for r in failed)
            assert all("deliberate test failure" in r.error for r in failed)
            cache = ResultCache(cache_dir)
            assert len(cache) == 0
        finally:
            _REGISTRY.pop("exploding-test", None)

    def test_uncompilable_problem_is_an_error_row_with_a_cache(
            self, problems, sequential, tmp_path):
        """Regression: keying compiles module problems, and a module that
        cannot compile used to abort the whole cached batch instead of
        becoming one ERROR row as it does without a cache."""
        from repro.alloylite import Module, ModuleError, Scope

        module = Module()
        module.sig("A")
        bad = api.ModuleProblem(module, scope=Scope(per_sig={"A": 0}))
        with pytest.raises(ModuleError):
            batch_cache_key(bad, api.Options())
        cache_dir = tmp_path / "uncompilable_cache"
        for directory in (None, cache_dir):
            first, failed = api.solve_many([problems[0], bad],
                                           cache_dir=directory)
            assert _signature(first) == _signature(sequential[0])
            assert failed.verdict is api.Verdict.ERROR
            assert "must be >= 1" in failed.error
        assert len(ResultCache(cache_dir)) == 1

    def test_bad_workers_rejected(self, problems):
        with pytest.raises(ValueError, match="workers must be an integer"):
            api.solve_many(problems[:1], workers=0)

    def test_progress_callback_sees_every_result(self, problems, tmp_path):
        seen = []
        api.solve_many(problems[:5], cache_dir=tmp_path / "progress_cache",
                       progress=lambda index, result: seen.append(index))
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_progress_contract_hits_first_in_input_order(
            self, problems, tmp_path):
        """The documented contract: exactly once per problem; cache hits
        first (in input order), then misses in completion order."""
        cache_dir = tmp_path / "contract_cache"
        api.solve_many(problems[:4], cache_dir=cache_dir)
        seen = []
        api.solve_many(
            problems[:6], cache_dir=cache_dir,
            progress=lambda i, r: seen.append(
                (i, bool(r.detail.get("cached")))))
        assert sorted(i for i, _ in seen) == [0, 1, 2, 3, 4, 5]
        assert seen[:4] == [(0, True), (1, True), (2, True), (3, True)]
        assert {i for i, cached in seen[4:] if not cached} == {4, 5}

    def test_corrupt_cache_entries_are_recomputed(self, problems, tmp_path,
                                                  sequential):
        """Regression: a truncated or non-dict cache entry must read as a
        miss and be recomputed, not crash ``solve_many``."""
        cache_dir = tmp_path / "corrupt_cache"
        api.solve_many(problems[:2], cache_dir=cache_dir)
        opts = api.Options()
        keys = [batch_cache_key(problem, opts) for problem in problems[:2]]
        paths = [cache_dir / key[:2] / f"{key}.json" for key in keys]
        assert all(path.is_file() for path in paths)
        truncated = paths[0].read_text(encoding="utf-8")[:10]
        paths[0].write_text(truncated, encoding="utf-8")  # killed writer
        paths[1].write_text("[1, 2, 3]", encoding="utf-8")  # not a dict
        cache = ResultCache(cache_dir)
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is None
        results = api.solve_many(problems[:2], cache_dir=cache_dir)
        assert not any(r.detail.get("cached") for r in results)
        assert [_signature(r) for r in results] \
            == [_signature(r) for r in sequential[:2]]
        # The recompute repaired both entries.
        warm = api.solve_many(problems[:2], cache_dir=cache_dir)
        assert all(r.detail.get("cached") for r in warm)

    def test_protocol_problems_batch(self, tmp_path):
        specs = random_sweep("mca", 4, base_seed=3, num_agents=(2, 3),
                             num_items=(1, 2), target=(1, 1))
        protocol_problems = [api.problem_from_spec(s) for s in specs]
        results = api.solve_many(
            protocol_problems, cache_dir=tmp_path / "protocol_cache",
            max_rounds=8,
        )
        assert all(r.verdict is api.Verdict.HOLDS for r in results)
        warm = api.solve_many(
            protocol_problems, cache_dir=tmp_path / "protocol_cache",
            max_rounds=8,
        )
        assert all(r.detail.get("cached") for r in warm)
