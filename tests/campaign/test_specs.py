"""Seeded-generator determinism and sweep-expansion tests.

The result cache is keyed by (spec hash, oracle), which is only sound if
materialization is a pure function of the spec — in particular identical
*across processes*.  The cross-process tests here use a spawn-context
worker (a fresh interpreter with its own string-hash seed) to guard that
contract.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import FormulaProblem, ProtocolProblem
from repro.campaign import (
    FAMILIES,
    ScenarioSpec,
    expand,
    grid_sweep,
    materialize,
    random_sweep,
    scenario_fingerprint,
)

SPEC_PER_FAMILY = [
    ScenarioSpec.make("mca", 3, num_agents=4, num_items=4, target=2),
    ScenarioSpec.make("dispatch", 5, num_units=4, num_blocks=5,
                      capacity_blocks=2),
    ScenarioSpec.make("uav", 7, num_uavs=4, num_tasks=5, capacity=2),
    ScenarioSpec.make("vnet", 9, grid_width=2, grid_height=3,
                      request_size=3),
    ScenarioSpec.make("relational", 11, num_atoms=3, depth=2, max_edges=4),
]


def _hash_and_fingerprint(spec_dict: dict) -> tuple[str, str]:
    """Worker: recompute spec hash and scenario fingerprint elsewhere."""
    spec = ScenarioSpec.from_dict(spec_dict)
    return spec.content_hash(), scenario_fingerprint(spec)


class TestSpecIdentity:
    def test_params_are_order_insensitive(self):
        a = ScenarioSpec.make("mca", 1, num_agents=3, num_items=2)
        b = ScenarioSpec.make("mca", 1, num_items=2, num_agents=3)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_hash_distinguishes_seed_family_params(self):
        base = ScenarioSpec.make("mca", 1, num_agents=3)
        assert base.content_hash() != ScenarioSpec.make(
            "mca", 2, num_agents=3).content_hash()
        assert base.content_hash() != ScenarioSpec.make(
            "uav", 1, num_agents=3).content_hash()
        assert base.content_hash() != ScenarioSpec.make(
            "mca", 1, num_agents=4).content_hash()

    def test_dict_round_trip(self):
        for spec in SPEC_PER_FAMILY:
            assert ScenarioSpec.from_dict(spec.as_dict()) == spec

    def test_param_lookup(self):
        spec = ScenarioSpec.make("mca", 1, num_agents=3)
        assert spec.param("num_agents") == 3
        assert spec.param("missing", 9) == 9
        with pytest.raises(KeyError):
            spec.param("missing")


class TestMaterializationDeterminism:
    @pytest.mark.parametrize("spec", SPEC_PER_FAMILY,
                             ids=lambda s: s.family)
    def test_same_seed_same_scenario_in_process(self, spec):
        assert scenario_fingerprint(spec) == scenario_fingerprint(spec)

    @pytest.mark.parametrize("spec", SPEC_PER_FAMILY,
                             ids=lambda s: s.family)
    def test_different_seed_different_scenario(self, spec):
        other = ScenarioSpec.make(spec.family, spec.seed + 1,
                                  **dict(spec.params))
        assert scenario_fingerprint(spec) != scenario_fingerprint(other)

    def test_same_seed_identical_across_processes(self):
        """Same spec ⇒ identical hash and scenario in a fresh interpreter.

        Guards the result-cache keying: a spawn-started worker has a
        different string-hash seed, so any reliance on builtin ``hash``
        or on incidental iteration order shows up as a mismatch here.
        """
        local = [
            (spec.content_hash(), scenario_fingerprint(spec))
            for spec in SPEC_PER_FAMILY
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=context) as executor:
            remote = list(executor.map(
                _hash_and_fingerprint,
                [spec.as_dict() for spec in SPEC_PER_FAMILY],
            ))
        assert local == remote

    def test_all_registered_families_materialize(self):
        for family in FAMILIES:
            spec = ScenarioSpec.make(family, 0)
            scenario = materialize(spec)
            assert isinstance(scenario, (ProtocolProblem, FormulaProblem))

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario family"):
            materialize(ScenarioSpec.make("nope", 0))


class TestFamilies:
    def test_mca_policies_are_submodular(self):
        spec = ScenarioSpec.make("mca", 13, num_agents=3, num_items=3,
                                 target=2)
        scenario = materialize(spec)
        for policy in scenario.policies.values():
            assert policy.utility.is_submodular_on(scenario.items, 2)

    def test_auction_families_share_shape(self):
        for spec in SPEC_PER_FAMILY[:4]:
            scenario = materialize(spec)
            assert isinstance(scenario, ProtocolProblem)
            assert scenario.items
            assert set(scenario.policies) == set(scenario.network.agents())

    def test_relational_bounds_stay_small(self):
        # The evaluator oracle brute-forces 2^free_tuples instances; the
        # generator must keep that exponent tractable.
        for seed in range(20):
            spec = ScenarioSpec.make("relational", seed, num_atoms=4,
                                     depth=2, max_edges=4)
            scenario = materialize(spec)
            assert scenario.bounds.free_tuple_count() <= 12


class TestSweeps:
    def test_grid_sweep_covers_product(self):
        specs = grid_sweep("uav", base_seed=10, seeds_per_cell=2,
                           num_uavs=[3, 4], num_tasks=[4])
        assert len(specs) == 4
        assert {s.param("num_uavs") for s in specs} == {3, 4}
        assert {s.seed for s in specs} == {10, 11, 12, 13}
        assert specs == grid_sweep("uav", base_seed=10, seeds_per_cell=2,
                                   num_uavs=[3, 4], num_tasks=[4])

    def test_random_sweep_deterministic_and_in_range(self):
        specs = random_sweep("mca", 25, base_seed=3,
                             num_agents=(3, 6), growth=(0.3, 0.9),
                             topology=["ring", "star"])
        assert specs == random_sweep("mca", 25, base_seed=3,
                                     num_agents=(3, 6), growth=(0.3, 0.9),
                                     topology=["ring", "star"])
        for spec in specs:
            assert 3 <= spec.param("num_agents") <= 6
            assert 0.3 <= spec.param("growth") <= 0.9
            assert spec.param("topology") in ("ring", "star")
        assert len({s.seed for s in specs}) == 25

    def test_expand_pairs_every_oracle(self):
        specs = random_sweep("relational", 3, base_seed=0)
        tasks = expand(specs, ["symmetry", "evaluator"])
        assert len(tasks) == 6
        assert {name for _, name in tasks} == {"symmetry", "evaluator"}
