"""Public-API snapshot: accidental surface changes must fail loudly.

The exported name sets and the signatures of the façade entry points are
pinned here, as are the exports of the layer packages the façade is
built from and of the sweep and job modules around it, so a second way
to run an operation (or a second oracle registry or result cache) cannot
reappear beside it unnoticed.  Changing them is allowed — but it must be
a deliberate, reviewed edit to this file, not a drive-by.
"""

import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro import api

EXPECTED_REPRO_ALL = [
    "__version__",
    "api",
    "Backend",
    "DeltaSession",
    "FormulaProblem",
    "ModuleProblem",
    "Options",
    "Problem",
    "ProblemDelta",
    "ProtocolProblem",
    "Result",
    "Verdict",
    "available_backends",
    "check",
    "diff_problems",
    "enumerate",
    "problem_from_spec",
    "register_backend",
    "run_protocol",
    "solve",
    "solve_delta",
    "solve_many",
]

EXPECTED_API_ALL = [
    "BATCH_SCHEMA",
    "Backend",
    "DEFAULT_TASK_TIMEOUT",
    "DeltaSession",
    "ExplorerBackend",
    "FormulaProblem",
    "KodkodBackend",
    "ModuleProblem",
    "Options",
    "Problem",
    "ProblemDelta",
    "ProtocolProblem",
    "Result",
    "Verdict",
    "available_backends",
    "backend_for",
    "batch_cache_key",
    "check",
    "diff_problems",
    "enumerate",
    "get_backend",
    "instance_payload",
    "problem_fingerprint",
    "problem_from_spec",
    "problem_kind",
    "register_backend",
    "result_from_json",
    "result_to_json",
    "run_protocol",
    "solve",
    "solve_delta",
    "solve_many",
]

EXPECTED_SUBPACKAGE_ALL = {
    "repro.kodkod": [
        "Bounds",
        "DEFAULT_SBP_LENGTH",
        "Evaluator",
        "Expr",
        "FalseF",
        "Formula",
        "Iden",
        "Instance",
        "NoneExpr",
        "Relation",
        "Session",
        "Solution",
        "SymmetryInfo",
        "TranslationStats",
        "Translator",
        "TrueF",
        "TupleSet",
        "Univ",
        "Universe",
        "Variable",
        "all_different",
        "and_all",
        "atom_partition",
        "break_predicates",
        "brute_force_instances",
        "comprehension",
        "exists",
        "extract_instance",
        "forall",
        "or_any",
        "relation",
        "translate",
        "variable",
    ],
    "repro.alloylite": [
        "Field",
        "Module",
        "ModuleError",
        "OrderedModule",
        "Ordering",
        "Scope",
        "Sig",
    ],
    "repro.checking": [
        "ExplorationResult",
        "StateCanonicalizer",
        "explore",
    ],
    "repro.campaign": [
        "CACHE_SCHEMA",
        "CampaignReport",
        "CampaignResult",
        "CampaignTask",
        "FAMILIES",
        "ORACLES",
        "Oracle",
        "OracleOutcome",
        "ScenarioSpec",
        "build_default_campaign",
        "cache_key",
        "execute_task",
        "expand",
        "grid_sweep",
        "materialize",
        "random_sweep",
        "register_family",
        "run_campaign",
        "scenario_fingerprint",
    ],
    "repro.fuzz": [
        "Disagreement",
        "FAULTS",
        "FEATURE_POOLS",
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
    ],
    "repro.jobs": [
        "DEFAULT_CACHE_DIR",
        "ResultCache",
        "map_jobs",
    ],
    "repro.sat": [
        "CNF",
        "Lit",
        "Model",
        "Solver",
        "Status",
        "Var",
        "dump_file",
        "dumps",
        "load_file",
        "loads",
        "luby",
        "negate",
        "solve_cnf",
        "var_of",
    ],
}

EXPECTED_SIGNATURES = {
    "solve": "(problem, bounds=None, *, options: "
             "'Options | None' = None, **overrides) -> 'Result'",
    "check": "(module, assertion=None, scope: 'Scope | None' = None, *, "
             "options: 'Options | None' = None, **overrides) -> 'Result'",
    "enumerate": "(problem, bounds=None, *, limit: 'int | None' = None, "
                 "options: 'Options | None' = None, **overrides) "
                 "-> 'Result'",
    "run_protocol": "(network, items: 'Iterable' = None, policies: "
                    "'Mapping | None' = None, *, options: "
                    "'Options | None' = None, **overrides) -> 'Result'",
    "solve_many": "(problems: 'Sequence[Problem]', options: "
                  "'Options | None' = None, *, workers: 'int' = 1, "
                  "cache_dir: 'str | Path | None' = None, task_timeout: "
                  "'float | None' = None, progress: "
                  "'Callable[[int, Result], None] | None' = None, "
                  "**overrides) -> 'list[Result]'",
    "solve_delta": "(prev, new_problem, *, options: "
                   "'Options | None' = None, **overrides) -> 'Result'",
}

EXPECTED_OPTIONS_FIELDS = [
    "solver",
    "symmetry",
    "max_instances",
    "max_rounds",
    "max_states",
    "timeout",
]

EXPECTED_RESULT_FIELDS = [
    "verdict",
    "instances",
    "trace",
    "stats",
    "solver_stats",
    "seconds",
    "backend",
    "detail",
    "error",
]

EXPECTED_VERDICTS = ["sat", "unsat", "holds", "counterexample", "error"]


class TestSurfaceSnapshot:
    def test_repro_all_is_pinned(self):
        assert sorted(repro.__all__) == sorted(EXPECTED_REPRO_ALL)

    def test_repro_api_all_is_pinned(self):
        assert sorted(api.__all__) == sorted(EXPECTED_API_ALL)

    def test_every_exported_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in api.__all__:
            assert getattr(api, name) is not None

    @pytest.mark.parametrize("name", sorted(EXPECTED_SUBPACKAGE_ALL))
    def test_subpackage_all_is_pinned(self, name):
        package = importlib.import_module(name)
        assert sorted(package.__all__) == sorted(EXPECTED_SUBPACKAGE_ALL[name])
        for export in package.__all__:
            assert getattr(package, export) is not None

    def test_repro_reexports_match_api(self):
        for name in set(repro.__all__) & set(api.__all__):
            assert getattr(repro, name) is getattr(api, name), name

    def test_facade_signatures_are_pinned(self):
        for name, expected in EXPECTED_SIGNATURES.items():
            actual = str(inspect.signature(getattr(api, name)))
            assert actual == expected, (
                f"signature of repro.api.{name} changed:\n"
                f"  expected {expected}\n  actual   {actual}\n"
                f"update EXPECTED_SIGNATURES deliberately if intended"
            )

    def test_options_fields_are_pinned(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(api.Options)]
        assert names == EXPECTED_OPTIONS_FIELDS

    def test_result_fields_are_pinned(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(api.Result)]
        assert names == EXPECTED_RESULT_FIELDS

    def test_verdict_values_are_pinned(self):
        assert [v.value for v in api.Verdict] == EXPECTED_VERDICTS


class TestTypingMarker:
    def test_py_typed_ships_with_the_package(self):
        marker = Path(repro.__file__).parent / "py.typed"
        assert marker.is_file(), (
            "src/repro/py.typed is missing: type checkers would ignore "
            "the package's annotations (PEP 561)"
        )

    def test_pyproject_packages_the_marker(self):
        root = Path(repro.__file__).resolve().parents[2]
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        assert "py.typed" in pyproject, (
            "pyproject.toml must declare the py.typed marker as package "
            "data or it is dropped from wheels"
        )
