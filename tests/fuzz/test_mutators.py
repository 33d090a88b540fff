"""Mutation validity, determinism and coverage signatures."""

import random

import pytest

from repro.api.codec import problem_fingerprint
from repro.api.problems import FormulaProblem, ProtocolProblem
from repro.fuzz.generators import FuzzSpec, generate
from repro.fuzz.mutators import (
    FORMULA_MUTATIONS,
    PROTOCOL_MUTATIONS,
    coverage_signature,
    mutate_problem,
)
from repro.fuzz.runner import lift_module


class TestMutationValidity:
    @pytest.mark.parametrize("kind", ["formula", "protocol"])
    def test_mutants_are_well_formed_problems(self, kind):
        """Every produced mutant decodes into a real, fingerprintable
        problem — ill-formed trees must be discarded inside the mutator."""
        for seed in range(10):
            problem = generate(FuzzSpec.make(kind, seed, size=4))
            rng = random.Random(seed)
            for _ in range(5):
                mutated = mutate_problem(problem, rng)
                if mutated is None:
                    continue
                mutant, name = mutated
                assert type(mutant) is type(problem)
                problem_fingerprint(mutant)  # raises on malformed output

    def test_module_problems_are_not_mutated_directly(self):
        problem = generate(FuzzSpec.make("module", 0, size=3))
        assert mutate_problem(problem, random.Random(0)) is None

    def test_lifted_module_problems_are_mutable(self):
        problem = lift_module(generate(FuzzSpec.make("module", 0, size=3)))
        mutated = mutate_problem(problem, random.Random(0))
        assert mutated is not None
        assert isinstance(mutated[0], FormulaProblem)

    def test_mutation_is_deterministic_given_rng_state(self):
        problem = generate(FuzzSpec.make("formula", 5, size=4))
        a = mutate_problem(problem, random.Random(42))
        b = mutate_problem(problem, random.Random(42))
        assert (a is None) == (b is None)
        if a is not None:
            assert a[1] == b[1]
            assert problem_fingerprint(a[0]) == problem_fingerprint(b[0])

    def test_mutants_usually_differ_from_parent(self):
        problem = generate(FuzzSpec.make("formula", 3, size=4))
        parent_print = problem_fingerprint(problem)
        changed = 0
        for seed in range(12):
            mutated = mutate_problem(problem, random.Random(seed))
            if mutated and problem_fingerprint(mutated[0]) != parent_print:
                changed += 1
        assert changed >= 6

    def test_every_formula_mutation_is_reachable(self):
        seen: set[str] = set()
        for seed in range(60):
            problem = generate(FuzzSpec.make(
                "formula", seed % 15, size=4,
                features=("partial_instance", "negation", "quantifier",
                          "union", "join", "closure")))
            mutated = mutate_problem(problem, random.Random(seed))
            if mutated:
                seen.add(mutated[1])
        assert seen >= set(FORMULA_MUTATIONS) - {"drop_part"}, seen

    def test_every_protocol_mutation_is_reachable(self):
        seen: set[str] = set()
        for seed in range(60):
            problem = generate(FuzzSpec.make("protocol", seed % 10, size=4))
            mutated = mutate_problem(problem, random.Random(seed))
            if mutated:
                seen.add(mutated[1])
        assert seen == set(PROTOCOL_MUTATIONS)

    def test_protocol_mutants_keep_every_agent_policied(self):
        for seed in range(10):
            problem = generate(FuzzSpec.make("protocol", seed, size=4))
            mutated = mutate_problem(problem, random.Random(seed))
            if mutated is None:
                continue
            mutant = mutated[0]
            assert isinstance(mutant, ProtocolProblem)
            # ProtocolProblem.__post_init__ enforces this; double-check.
            assert set(mutant.network.agents()) <= set(mutant.policies)

    def test_drop_agent_keeps_network_connected(self):
        for seed in range(30):
            problem = generate(FuzzSpec.make("protocol", seed, size=5))
            mutated = mutate_problem(problem, random.Random(seed * 7))
            if mutated and mutated[1] == "drop_agent":
                # AgentNetwork's constructor enforces connectivity; reaching
                # here means the mutant was buildable.
                assert len(mutated[0].network.agents()) == \
                    len(problem.network.agents()) - 1


class TestCoverageSignature:
    def test_numeric_fields_bucket_by_power_of_two(self):
        sig = coverage_signature("o", {"conflicts": 5})
        assert sig == ("o:conflicts~3",)
        assert coverage_signature("o", {"conflicts": 8}) == ("o:conflicts~4",)
        # Same bucket: 5 and 7 both have bit_length 3.
        assert coverage_signature("o", {"conflicts": 7}) == sig

    def test_bools_and_short_strings_pass_through(self):
        sig = coverage_signature("o", {"truncated": False, "mode": "pg"})
        assert "o:truncated=False" in sig
        assert "o:mode=pg" in sig

    def test_nested_dicts_are_flattened(self):
        sig = coverage_signature("o", {"gates": {"and": 4, "or": 1}})
        assert "o:gates.and~3" in sig
        assert "o:gates.or~1" in sig

    def test_signature_is_sorted_and_deterministic(self):
        detail = {"b": 1, "a": 2, "flag": True}
        assert (coverage_signature("o", detail)
                == coverage_signature("o", dict(reversed(detail.items()))))
        assert list(coverage_signature("o", detail)) == sorted(
            coverage_signature("o", detail))

    def test_long_strings_are_ignored(self):
        assert coverage_signature("o", {"trace": "x" * 100}) == ()
