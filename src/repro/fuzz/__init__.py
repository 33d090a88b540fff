"""Coverage-guided differential fuzzing with counterexample shrinking.

The fuzz subsystem invents adversarial inputs for every
:mod:`repro.api` problem kind, checks each one through the stack's
differential oracles (the one registry, :data:`repro.campaign.ORACLES`),
evolves a corpus by structural mutation under cheap coverage signals,
and minimizes any disagreeing or crashing input into a human-readable
reproducer.  ``python -m repro.fuzz`` runs a
sweep; see the README's "Fuzzing & shrinking" section.
"""

from repro.fuzz.codec import (
    problem_from_json,
    problem_to_json,
    problem_to_script,
)
from repro.fuzz.faults import FAULTS, fault_matches, register_fault
from repro.fuzz.generators import (
    FEATURE_POOLS,
    KINDS,
    FuzzSpec,
    generate,
    swarm_mask,
)
from repro.fuzz.mutators import coverage_signature, mutate_problem
from repro.fuzz.runner import (
    Disagreement,
    FuzzCheck,
    FuzzReport,
    lift_module,
    oracles_for_problem,
    replay_corpus,
    run_fuzz,
    run_oracle,
)
from repro.fuzz.shrink import ShrinkResult, problem_size, shrink

__all__ = [
    "FAULTS",
    "FEATURE_POOLS",
    "Disagreement",
    "FuzzCheck",
    "FuzzReport",
    "FuzzSpec",
    "KINDS",
    "ShrinkResult",
    "coverage_signature",
    "fault_matches",
    "generate",
    "lift_module",
    "mutate_problem",
    "oracles_for_problem",
    "problem_from_json",
    "problem_size",
    "problem_to_json",
    "problem_to_script",
    "register_fault",
    "replay_corpus",
    "run_fuzz",
    "run_oracle",
    "shrink",
    "swarm_mask",
]
