"""Generator determinism, swarm masks and well-formedness."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api.codec import problem_fingerprint
from repro.api.problems import FormulaProblem, ModuleProblem, ProtocolProblem
from repro.fuzz import codec
from repro.fuzz.generators import (
    FEATURE_POOLS,
    KINDS,
    MAX_SIZE,
    FuzzSpec,
    generate,
    swarm_mask,
)

EXPECTED_TYPES = {
    "formula": FormulaProblem,
    "module": ModuleProblem,
    "protocol": ProtocolProblem,
}


def _hash_and_fingerprint(spec_dict):
    """Spawn-pool worker: regenerate a spec and fingerprint its problem."""
    spec = FuzzSpec.from_dict(spec_dict)
    return spec.content_hash(), problem_fingerprint(generate(spec))


class TestFuzzSpec:
    def test_make_sorts_features(self):
        spec = FuzzSpec.make("formula", 0, features=("union", "closure"))
        assert spec.features == ("closure", "union")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown problem kind"):
            FuzzSpec.make("nope", 0)

    def test_out_of_range_size_rejected(self):
        with pytest.raises(ValueError, match="size must be in"):
            FuzzSpec.make("formula", 0, size=MAX_SIZE + 1)

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown feature"):
            FuzzSpec.make("formula", 0, features=("warp_drive",))

    def test_dict_round_trip(self):
        spec = FuzzSpec.make("protocol", 7, size=2)
        assert FuzzSpec.from_dict(spec.as_dict()) == spec

    def test_content_hash_is_stable_and_distinct(self):
        a = FuzzSpec.make("formula", 1)
        assert a.content_hash() == FuzzSpec.make("formula", 1).content_hash()
        assert a.content_hash() != FuzzSpec.make("formula", 2).content_hash()

    def test_label_mentions_kind_and_seed(self):
        assert FuzzSpec.make("module", 9, size=2).label() == "module#9s2"


class TestSwarmMasks:
    def test_mask_is_deterministic(self):
        assert swarm_mask("formula", 3) == swarm_mask("formula", 3)

    def test_mask_is_subset_of_pool(self):
        for kind in KINDS:
            for seed in range(20):
                assert set(swarm_mask(kind, seed)) <= set(FEATURE_POOLS[kind])

    def test_masks_vary_across_seeds(self):
        masks = {swarm_mask("formula", seed) for seed in range(20)}
        assert len(masks) > 5

    def test_every_feature_appears_in_some_mask(self):
        seen: set[str] = set()
        for seed in range(200):
            seen.update(swarm_mask("formula", seed))
        assert seen == set(FEATURE_POOLS["formula"])


class TestGeneration:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generates_expected_problem_type(self, kind):
        for seed in range(10):
            problem = generate(FuzzSpec.make(kind, seed, size=3))
            assert isinstance(problem, EXPECTED_TYPES[kind])

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_spec_same_fingerprint(self, kind):
        spec = FuzzSpec.make(kind, 11, size=3)
        assert (problem_fingerprint(generate(spec))
                == problem_fingerprint(generate(spec)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_different_seed_different_problem(self, kind):
        prints = {
            problem_fingerprint(generate(FuzzSpec.make(kind, seed, size=3)))
            for seed in range(8)
        }
        assert len(prints) > 1

    def test_same_spec_identical_across_spawn_processes(self):
        """Same spec ⇒ identical problem in a fresh interpreter.

        Guards the fuzz cache keying the same way the campaign's spec
        test does: a spawn-started worker has a different string-hash
        seed, so reliance on builtin ``hash`` or incidental iteration
        order shows up as a mismatch here.
        """
        specs = [FuzzSpec.make(kind, seed, size=3)
                 for kind in KINDS for seed in (0, 1)]
        local = [
            (spec.content_hash(), problem_fingerprint(generate(spec)))
            for spec in specs
        ]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1,
                                 mp_context=context) as executor:
            remote = list(executor.map(
                _hash_and_fingerprint, [spec.as_dict() for spec in specs]))
        assert local == remote

    def test_disabled_features_never_appear(self):
        """An empty mask keeps every optional operator out of the tree."""
        gated_tags = {"transpose", "closure", "ite", "compr", "product",
                      "iden", "none", "union", "inter", "diff", "join",
                      "not", "forall", "exists", "card_eq", "card_ge",
                      "one", "lone"}
        for seed in range(20):
            spec = FuzzSpec.make("formula", seed, size=4, features=())
            problem = generate(spec)
            tree = codec.formula_to_tree(problem.formula)
            tags = {node.get("f") or node.get("e")
                    for _, node in codec.iter_subtrees(tree)}
            assert not (tags & gated_tags), tags & gated_tags

    def test_enabled_features_eventually_appear(self):
        spec_features = ("closure", "join", "quantifier", "cardinality")
        tags: set[str] = set()
        for seed in range(40):
            spec = FuzzSpec.make("formula", seed, size=4,
                                 features=spec_features)
            tree = codec.formula_to_tree(generate(spec).formula)
            tags.update(node.get("f") or node.get("e")
                        for _, node in codec.iter_subtrees(tree))
        assert "closure" in tags
        assert tags & {"forall", "exists"}
        assert tags & {"card_eq", "card_ge"}

    def test_partial_instance_feature_populates_lower_bounds(self):
        found = False
        for seed in range(30):
            spec = FuzzSpec.make("formula", seed, size=4,
                                 features=("partial_instance",))
            problem = generate(spec)
            if any(len(problem.bounds.lower(rel)) > 0
                   for rel in problem.bounds.relations()):
                found = True
                break
        assert found

    def test_formula_universe_stays_tractable(self):
        for seed in range(20):
            problem = generate(FuzzSpec.make("formula", seed, size=MAX_SIZE))
            assert len(problem.bounds.universe) <= 4

    def test_protocol_policies_are_submodular(self):
        """Generated protocols stay in the paper's convergence regime."""
        for seed in range(6):
            problem = generate(FuzzSpec.make("protocol", seed, size=4))
            for policy in problem.policies.values():
                assert policy.utility.is_submodular_on(
                    list(problem.items)[:4], 3)
                assert policy.rebid.value == "honest"
                assert not policy.release_outbid

    def test_protocol_sizes_bounded(self):
        for seed in range(20):
            problem = generate(FuzzSpec.make("protocol", seed, size=MAX_SIZE))
            assert 2 <= len(problem.network.agents()) <= 6
            assert 1 <= len(problem.items) <= 6

    def test_module_check_command_carries_goal(self):
        for seed in range(40):
            spec = FuzzSpec.make("module", seed, size=3,
                                 features=("check_command",))
            problem = generate(spec)
            assert problem.command == "check"
            assert problem.goal is not None

    def test_module_compiles_at_its_scope(self):
        for seed in range(10):
            problem = generate(FuzzSpec.make("module", seed, size=4))
            universe, bounds, facts = problem.module.compile(problem.scope)
            assert len(universe) >= 2
            assert list(bounds.relations())
