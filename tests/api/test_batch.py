"""``solve_many``: batch parity with sequential ``solve`` plus caching.

The acceptance bar: a batch over 50+ campaign-spec problems matches
sequential façade results exactly, and a warm re-run over the same cache
directory is pure cache hits — from any worker count, since the worker
count is no part of the cache key.  Two problems share a cache entry
only when their codec trees are equal.
"""

import random

import pytest

from repro import api
from repro.api.batch import batch_cache_key
from repro.campaign.specs import random_sweep
from repro.jobs import ResultCache
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy, TableUtility

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


def table_pair():
    """Two 2-agent ``TableUtility`` protocols that differ in one size-3
    table entry: the first HOLDS, the second has a COUNTEREXAMPLE.

    A fingerprint that probed utilities only at bundle sizes 0-2 gave
    both the same identity, and the cache answered the second with the
    first's verdict."""
    rng = random.Random(22)
    items = ("i0", "i1", "i2", "i3")
    tables = {agent: {(item, size): float(rng.randint(1, 9))
                      for item in items for size in range(4)}
              for agent in (0, 1)}
    edited = {agent: dict(table) for agent, table in tables.items()}
    assert edited[0][("i2", 3)] == 6.0
    edited[0][("i2", 3)] = 5.0
    return tuple(
        api.ProtocolProblem(
            AgentNetwork.line(2), items,
            {agent: AgentPolicy(TableUtility(table[agent]), target=4,
                                release_outbid=True)
             for agent in (0, 1)})
        for table in (tables, edited))


class TestProblemIdentity:
    def test_a_size_three_table_entry_changes_the_identity(self):
        holds, refuted = table_pair()
        assert api.run_protocol(holds).verdict is api.Verdict.HOLDS
        assert (api.run_protocol(refuted).verdict
                is api.Verdict.COUNTEREXAMPLE)
        assert (api.problem_fingerprint(holds)
                != api.problem_fingerprint(refuted))
        options = api.Options()
        assert (batch_cache_key(api.problem_fingerprint(holds), options)
                != batch_cache_key(api.problem_fingerprint(refuted),
                                   options))

    def test_one_cache_answers_each_problem_with_its_own_verdict(
            self, tmp_path):
        holds, refuted = table_pair()
        cache_dir = tmp_path / "pair_cache"
        first = api.solve_many([holds], cache_dir=cache_dir)
        second = api.solve_many([refuted], cache_dir=cache_dir)
        assert first[0].verdict is api.Verdict.HOLDS
        assert second[0].verdict is api.Verdict.COUNTEREXAMPLE
        assert not second[0].detail.get("cached")

    def test_a_problem_without_a_tree_runs_uncached(self, tmp_path):
        """The codec refuses an ``OrderedModule``: it has no fingerprint,
        so ``solve_many`` solves it every time and caches nothing."""
        from repro.alloylite.ordering import OrderedModule
        from repro.api.codec import CodecError

        module = OrderedModule("ordered")
        module.ordering(module.sig("State"))
        problem = api.ModuleProblem(module)
        with pytest.raises(CodecError):
            api.problem_fingerprint(problem)
        cache_dir = tmp_path / "ordered_cache"
        for _ in range(2):
            (result,) = api.solve_many([problem], cache_dir=cache_dir)
            assert result.verdict is api.Verdict.SAT
            assert not result.detail.get("cached")
        assert len(ResultCache(cache_dir)) == 0


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
        import repro.api.batch as batch

        real_map_jobs = batch.map_jobs

        def spy(jobs, worker, record, failure, *, shards, task_timeout):
            captured.append(task_timeout)
            return real_map_jobs(jobs, worker, record, failure,
                                 shards=shards, task_timeout=task_timeout)

        # solve_many calls the map_jobs bound in its own module.
        monkeypatch.setattr(batch, "map_jobs", spy)

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
        first, second = (api.problem_fingerprint(p) for p in problems[:2])
        assert (batch_cache_key(first, base)
                == batch_cache_key(first, base.replace(timeout=5.0)))
        assert (batch_cache_key(first, base)
                != batch_cache_key(first, base.replace(symmetry=0)))
        assert (batch_cache_key(first, base)
                != batch_cache_key(second, base))

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
        """Regression: keying used to compile module problems, and a
        module that cannot compile aborted the whole cached batch instead
        of becoming one ERROR row as it does without a cache."""
        from repro.alloylite import Module, Scope

        module = Module()
        module.sig("A")
        bad = api.ModuleProblem(module, scope=Scope(per_sig={"A": 0}))
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
        keys = [batch_cache_key(api.problem_fingerprint(problem), opts)
                for problem in problems[:2]]
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
