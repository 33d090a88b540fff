"""Façade semantics: problems, verdicts, backends, rendering."""

import pytest

from repro import api
from repro.alloylite import Module, Scope
from repro.api import (
    FormulaProblem,
    ModuleProblem,
    Options,
    ProtocolProblem,
    Verdict,
)
from repro.checking import explore
from repro.kodkod import DEFAULT_SBP_LENGTH, Bounds, Universe, ast
from repro.mca import AgentNetwork, AgentPolicy, GeometricUtility


@pytest.fixture
def unary_problem():
    universe = Universe(["a", "b", "c"])
    r = ast.Relation("r", 1)
    bounds = Bounds(universe)
    bounds.bound(r, universe.empty(1), universe.all_tuples(1))
    return r, bounds


@pytest.fixture
def small_module():
    m = Module()
    a = m.sig("A")
    b = m.sig("B")
    m.fact(ast.Some(a.expr))
    return m, a, b


@pytest.fixture
def two_agent_protocol():
    items = ["x", "y"]
    policies = {
        0: AgentPolicy(utility=GeometricUtility({"x": 10, "y": 4}, 0.5),
                       target=2),
        1: AgentPolicy(utility=GeometricUtility({"x": 5, "y": 8}, 0.5),
                       target=2),
    }
    return ProtocolProblem(AgentNetwork.complete(2), tuple(items), policies)


class TestSolve:
    def test_sat_formula(self, unary_problem):
        r, bounds = unary_problem
        result = api.solve(ast.Some(r), bounds)
        assert result.verdict is Verdict.SAT
        assert result.satisfiable
        assert result.instance is not None
        assert result.backend == "kodkod"
        assert result.stats.num_clauses >= 0
        assert result.seconds >= 0.0
        # Solving breaks symmetry by default (enumeration does not).
        assert result.detail["symmetry"] == DEFAULT_SBP_LENGTH

    def test_unsat_formula(self, unary_problem):
        r, bounds = unary_problem
        result = api.solve(ast.And([ast.Some(r), ast.No(r)]), bounds)
        assert result.verdict is Verdict.UNSAT
        assert not result.satisfiable
        assert result.instance is None
        assert result.describe() == "no instance found"

    def test_problem_object(self, unary_problem):
        r, bounds = unary_problem
        result = api.solve(FormulaProblem(ast.Some(r), bounds))
        assert result.verdict is Verdict.SAT

    def test_formula_without_bounds_rejected(self, unary_problem):
        r, _ = unary_problem
        with pytest.raises(ValueError, match="requires bounds"):
            api.solve(ast.Some(r))

    def test_problem_with_bounds_rejected(self, unary_problem):
        r, bounds = unary_problem
        with pytest.raises(ValueError, match="bounds must be omitted"):
            api.solve(FormulaProblem(ast.Some(r), bounds), bounds)

    def test_unknown_problem_type_rejected(self):
        with pytest.raises(ValueError, match="cannot interpret"):
            api.solve(42)


class TestCheck:
    def test_holding_assertion(self, small_module):
        m, a, _ = small_module
        result = api.check(m, ast.Some(a.expr),
                           Scope(per_sig={"A": 2, "B": 1}))
        assert result.verdict is Verdict.HOLDS
        assert result.holds
        assert result.counterexample is None
        assert "holds" in result.describe()
        assert (result.describe()
                == "assertion holds within the scope (no counterexample)")

    def test_refuted_assertion(self, small_module):
        # Sig scopes are exact, so "no B" is refuted by every instance.
        m, _, b = small_module
        result = api.check(m, ast.No(b.expr),
                           Scope(per_sig={"A": 1, "B": 1}))
        assert result.verdict is Verdict.COUNTEREXAMPLE
        assert not result.holds
        assert result.satisfiable  # the counterexample is a model
        assert result.counterexample is result.instance
        assert "counterexample" in result.describe()
        assert result.describe().startswith("counterexample found:\n")

    def test_missing_assertion_rejected(self, small_module):
        m, _, _ = small_module
        with pytest.raises(ValueError, match="requires an assertion"):
            api.check(m)

    def test_module_problem_command_check(self, small_module):
        m, _, b = small_module
        problem = ModuleProblem(m, "check", ast.No(b.expr),
                                Scope(per_sig={"A": 1, "B": 1}))
        assert api.check(problem).verdict is Verdict.COUNTEREXAMPLE
        assert api.solve(problem).verdict is Verdict.COUNTEREXAMPLE

    def test_check_problem_requires_goal(self, small_module):
        m, _, _ = small_module
        with pytest.raises(ValueError, match="requires a goal"):
            ModuleProblem(m, "check")

    def test_bad_command_rejected(self, small_module):
        m, _, _ = small_module
        with pytest.raises(ValueError, match="'run' or 'check'"):
            ModuleProblem(m, "verify")

    def test_check_formula_problem_is_validity(self, unary_problem):
        r, bounds = unary_problem
        # "some r or no r" is valid within any bounds; "some r" is not.
        tautology = ast.Or([ast.Some(r), ast.No(r)])
        assert api.check(FormulaProblem(tautology, bounds)).verdict \
            is Verdict.HOLDS
        refuted = api.check(FormulaProblem(ast.Some(r), bounds))
        assert refuted.verdict is Verdict.COUNTEREXAMPLE
        assert refuted.instance is not None  # a model of "no r"

    def test_check_rejects_run_command_problem(self, small_module):
        m, _, _ = small_module
        with pytest.raises(ValueError, match="command='check'"):
            api.check(ModuleProblem(m, "run"))

    def test_module_scope_argument_must_be_scope(self, small_module,
                                                 unary_problem):
        m, _, _ = small_module
        _, bounds = unary_problem
        with pytest.raises(ValueError, match="must be a Scope"):
            api.solve(m, bounds)


class TestEnumerate:
    def test_enumerates_all_models(self, unary_problem):
        r, bounds = unary_problem
        result = api.enumerate(ast.Some(r), bounds)
        # Nonempty subsets of a 3-atom universe: 2^3 - 1 models.
        assert result.verdict is Verdict.SAT
        assert len(result.instances) == 7
        assert result.detail["num_instances"] == 7
        assert not result.detail["truncated"]

    def test_limit(self, unary_problem):
        r, bounds = unary_problem
        result = api.enumerate(ast.Some(r), bounds, limit=3)
        assert len(result.instances) == 3
        assert result.detail["truncated"]

    def test_empty_space_is_unsat(self, unary_problem):
        r, bounds = unary_problem
        result = api.enumerate(ast.And([ast.Some(r), ast.No(r)]), bounds)
        assert result.verdict is Verdict.UNSAT
        assert result.instances == []

    def test_symmetry_prunes_isomorphic_models(self, unary_problem):
        r, bounds = unary_problem
        plain = api.enumerate(ast.Some(r), bounds)
        broken = api.enumerate(ast.Some(r), bounds, symmetry=20)
        assert 0 < len(broken.instances) < len(plain.instances)


class TestRunProtocol:
    def test_converging_protocol_holds(self, two_agent_protocol):
        result = api.run_protocol(two_agent_protocol, max_rounds=10)
        assert result.verdict is Verdict.HOLDS
        assert result.holds
        assert result.trace is None
        assert result.backend == "explorer"
        assert result.detail["paths_explored"] >= 1
        # The backend reports the raw explorer's own verdict and counts.
        p = two_agent_protocol
        raw = explore(p.network, list(p.items), p.policies, max_rounds=10)
        assert raw.all_converged == result.holds
        assert (raw.max_rounds_to_converge
                == result.detail["max_rounds_to_converge"])
        assert raw.paths_explored == result.detail["paths_explored"]

    def test_positional_spelling(self, two_agent_protocol):
        p = two_agent_protocol
        result = api.run_protocol(p.network, p.items, p.policies,
                                  max_rounds=10)
        assert result.verdict is Verdict.HOLDS

    def test_oscillation_is_counterexample_with_trace(self):
        # Figure 2's broken cell: non-sub-modular utilities + release
        # policy oscillate under every schedule.
        from repro.mca.scenarios import figure2_engine

        engine = figure2_engine(submodular=False, release_outbid=True)
        policies = {a: engine.agents[a].policy for a in engine.agents}
        result = api.run_protocol(AgentNetwork.complete(2), engine.items,
                                  policies, max_rounds=10)
        assert result.verdict is Verdict.COUNTEREXAMPLE
        assert result.trace is not None
        assert result.counterexample == result.trace
        assert "counterexample" in result.describe()

    def test_missing_policy_rejected(self):
        with pytest.raises(ValueError, match="missing a policy"):
            ProtocolProblem(AgentNetwork.complete(3), ("x",),
                            {0: AgentPolicy(
                                utility=GeometricUtility({"x": 1}, 0.5),
                                target=1)})

    def test_items_policies_required(self, two_agent_protocol):
        with pytest.raises(ValueError, match="requires items and policies"):
            api.run_protocol(two_agent_protocol.network)


class TestTruncatedProtocolCheck:
    """A search stopped by ``max_states`` is an ERROR, never HOLDS, and
    no cache keeps it."""

    @pytest.fixture
    def problem(self):
        from repro.campaign.specs import ScenarioSpec

        return api.problem_from_spec(ScenarioSpec.make("mca", 0))

    def test_max_states_stops_the_search_with_an_error(self, problem):
        assert api.run_protocol(problem).verdict is Verdict.HOLDS
        result = api.run_protocol(problem, max_states=1)
        assert result.verdict is Verdict.ERROR
        assert result.detail["truncated"] is True
        assert "max_states" in result.error
        assert result.trace is None
        with pytest.raises(ValueError, match="max_states"):
            result.holds

    def test_solve_many_caches_no_truncated_answer(self, problem, tmp_path):
        (result,) = api.solve_many([problem], options=Options(max_states=1),
                                   cache_dir=tmp_path, workers=1)
        assert result.verdict is Verdict.ERROR
        assert result.detail["truncated"] is True
        assert not any(path.is_file() for path in tmp_path.rglob("*"))
        (finished,) = api.solve_many([problem], cache_dir=tmp_path,
                                     workers=1)
        assert finished.verdict is Verdict.HOLDS
        assert any(path.is_file() for path in tmp_path.rglob("*"))

    def test_a_delta_session_never_reuses_a_truncated_anchor(self, problem):
        session = api.DeltaSession(problem, max_states=1)
        again = session.solve(problem)
        assert again.verdict is Verdict.ERROR
        assert again.delta["path"] == "fallback"


class TestBackendRegistry:
    def test_available_backends(self):
        names = api.available_backends()
        assert "kodkod" in names and "explorer" in names

    def test_unknown_backend_error_lists_known(self, unary_problem):
        r, bounds = unary_problem
        with pytest.raises(ValueError, match=r"unknown backend 'z3'.*kodkod"):
            api.solve(ast.Some(r), bounds, solver="z3")

    def test_backend_problem_mismatch(self, two_agent_protocol):
        with pytest.raises(ValueError, match="does not support"):
            api.run_protocol(two_agent_protocol, solver="kodkod")

    def test_explorer_cannot_enumerate(self, two_agent_protocol):
        with pytest.raises(ValueError, match="cannot[\\s\\S]*enumerate"):
            api.enumerate(two_agent_protocol)

    def test_register_backend_requires_name(self):
        class Nameless:
            def supports(self, problem):
                return False

        with pytest.raises(ValueError, match="name"):
            api.register_backend(Nameless())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            api.register_backend(api.KodkodBackend())

    def test_custom_backend_plugs_in(self, unary_problem):
        from repro.api import Result
        from repro.api.backends import _REGISTRY

        class EchoBackend:
            name = "echo-test"

            def supports(self, problem):
                return isinstance(problem, FormulaProblem)

            def solve(self, problem, options):
                return Result(verdict=Verdict.UNSAT, backend=self.name)

            def enumerate(self, problem, options):
                return Result(verdict=Verdict.UNSAT, backend=self.name)

        api.register_backend(EchoBackend())
        try:
            r, bounds = unary_problem
            result = api.solve(ast.Some(r), bounds, solver="echo-test")
            assert result.backend == "echo-test"
            assert result.verdict is Verdict.UNSAT
            # Automatic selection still prefers the first registered
            # backend that supports the problem (kodkod).
            assert api.solve(ast.Some(r), bounds).backend == "kodkod"
        finally:
            _REGISTRY.pop("echo-test", None)


class TestResultRendering:
    def test_error_result_refuses_verdict_properties(self):
        from repro.api import Result

        result = Result(verdict=Verdict.ERROR, error="boom")
        with pytest.raises(ValueError, match="did not complete"):
            result.satisfiable
        with pytest.raises(ValueError, match="did not complete"):
            result.holds
        assert result.describe() == "error: boom"

    def test_multi_instance_rendering(self, unary_problem):
        r, bounds = unary_problem
        rendered = api.enumerate(ast.Some(r), bounds, limit=2).describe()
        assert "--- instance 0 ---" in rendered
        assert "--- instance 1 ---" in rendered

    def test_options_object_accepted(self, unary_problem):
        r, bounds = unary_problem
        result = api.enumerate(ast.Some(r), bounds,
                               options=Options(max_instances=2))
        assert len(result.instances) == 2


class TestModelLayerUnified:
    def test_check_verdict_carries_unified_result(self):
        from repro.model import PolicyCombination, check_combination

        verdict = check_combination(
            PolicyCombination(submodular=True, release_outbid=False),
            num_pnodes=2, num_vnodes=1, max_value=3,
        )
        assert isinstance(verdict.solution, api.Result)
        assert verdict.solution.verdict is api.Verdict.UNSAT
        assert verdict.solution.backend == "kodkod"
        assert verdict.converges
