"""Delta verification: diff taxonomy, warm reuse, the fallback contract.

The load-bearing guarantees under test:

* ``diff_problems`` classifies every edit into the documented taxonomy;
* the warm path answers delta-safe edits on the anchored live solver and
  tags results ``detail["delta"]["path"] == "reused"``;
* every non-delta-safe edit falls back to a fresh full solve (and the
  session re-anchors), so ``solve_delta`` verdicts are always identical
  to a fresh ``solve`` — checked here over 50 mutated spec pairs per
  scenario family via the campaign ``delta`` oracle.
"""

import pytest

from repro import api
from repro.api import (
    DeltaSession,
    FormulaProblem,
    ProtocolProblem,
    diff_problems,
    solve_delta,
)
from repro.campaign.oracles import ORACLES
from repro.campaign.specs import ScenarioSpec, materialize, random_sweep
from repro.kodkod import Bounds, Universe, ast, relation


def free_problem(formula_builder=lambda r: r.some()):
    """A FormulaProblem with one free unary relation over three atoms."""
    universe = Universe(["a", "b", "c"])
    r = relation("r", 1)
    bounds = Bounds(universe)
    bounds.bound(r, universe.empty(1), universe.all_tuples(1))
    return FormulaProblem(formula_builder(r), bounds), r


def rebound(problem, rel, *, drop=(), promote=()):
    """A variant of ``problem`` with ``rel``'s bounds edited."""
    universe = problem.bounds.universe
    bounds = Bounds(universe)
    for relation_ in problem.bounds.relations():
        lower = set(problem.bounds.lower(relation_))
        upper = set(problem.bounds.upper(relation_))
        if relation_ is rel:
            upper -= set(drop)
            lower |= set(promote)
        bounds.bound(
            relation_,
            universe.tuple_set(relation_.arity, sorted(lower)),
            universe.tuple_set(relation_.arity, sorted(upper)),
        )
    return FormulaProblem(problem.formula, bounds)


def protocol_problem(seed=0, **params):
    spec = ScenarioSpec.make(
        "mca", seed,
        **{"num_agents": 2, "num_items": 1, "target": 1, **params})
    return api.problem_from_spec(spec)


class TestDiffProblems:
    def test_identical(self):
        problem, _ = free_problem()
        delta = diff_problems(problem, problem)
        assert delta.kind == "identical" and delta.delta_safe

    def test_bounds_narrowed_drop(self):
        problem, r = free_problem()
        variant = rebound(problem, r, drop=[("c",)])
        delta = diff_problems(problem, variant)
        assert delta.kind == "bounds_narrowed" and delta.delta_safe
        assert delta.dropped == (("r", 1, ("c",)),)
        assert delta.promoted == ()
        assert delta.detail["changed_relations"] == ["r"]

    def test_bounds_narrowed_promote(self):
        problem, r = free_problem()
        variant = rebound(problem, r, promote=[("a",)])
        delta = diff_problems(problem, variant)
        assert delta.kind == "bounds_narrowed" and delta.delta_safe
        assert delta.promoted == (("r", 1, ("a",)),)

    def test_bounds_widened_is_not_safe(self):
        problem, r = free_problem()
        variant = rebound(problem, r, drop=[("c",)])
        # The reverse direction adds a tuple the variant's translation
        # would not have: widened, fallback.
        delta = diff_problems(variant, problem)
        assert delta.kind == "bounds_widened" and not delta.delta_safe
        assert delta.detail["widened_upper"] == 1

    def test_demoted_lower_is_widening(self):
        problem, r = free_problem()
        promoted = rebound(problem, r, promote=[("a",)])
        delta = diff_problems(promoted, problem)
        assert delta.kind == "bounds_widened" and not delta.delta_safe
        assert delta.detail["demoted_lower"] == 1

    def test_formula_changed(self):
        problem, r = free_problem()
        changed = FormulaProblem(r.no(), problem.bounds)
        delta = diff_problems(problem, changed)
        assert delta.kind == "formula_changed" and not delta.delta_safe

    def test_universe_changed(self):
        problem, _ = free_problem()
        other, _ = free_problem()
        universe = Universe(["a", "b", "c", "d"])
        r2 = relation("r", 1)
        bounds = Bounds(universe)
        bounds.bound(r2, universe.empty(1), universe.all_tuples(1))
        bigger = FormulaProblem(r2.some(), bounds)
        delta = diff_problems(problem, bigger)
        assert delta.kind == "universe_changed" and not delta.delta_safe

    def test_relations_changed(self):
        problem, r = free_problem()
        universe = problem.bounds.universe
        s = relation("s", 1)
        bounds = Bounds(universe)
        bounds.bound(r, universe.empty(1), universe.all_tuples(1))
        bounds.bound(s, universe.empty(1), universe.all_tuples(1))
        extra = FormulaProblem(problem.formula, bounds)
        delta = diff_problems(problem, extra)
        assert delta.kind == "relations_changed" and not delta.delta_safe
        assert delta.detail["only_new"] == ["s"]

    def test_kind_changed(self):
        problem, _ = free_problem()
        delta = diff_problems(problem, protocol_problem())
        assert delta.kind == "kind_changed" and not delta.delta_safe

    def test_protocol_identical_and_changed(self):
        same = diff_problems(protocol_problem(seed=1), protocol_problem(seed=1))
        assert same.kind == "identical" and same.delta_safe
        changed = diff_problems(protocol_problem(seed=1),
                                protocol_problem(seed=2))
        assert changed.kind == "protocol_changed" and not changed.delta_safe


class TestWarmPath:
    def test_narrowed_bounds_reuse_the_live_solver(self):
        problem, r = free_problem()
        variant = rebound(problem, r, drop=[("c",)])
        session = DeltaSession(problem, symmetry=0)
        result = session.solve(variant)
        provenance = result.detail["delta"]
        assert provenance["path"] == "reused"
        assert provenance["reason"] == "bounds_narrowed"
        assert provenance["dropped"] == 1
        assert provenance["promoted"] == 0
        assert provenance["assumptions"] == 1
        assert provenance["warm_solve_seconds"] >= 0
        assert result.delta is provenance
        fresh = api.solve(variant, symmetry=0)
        assert result.verdict is fresh.verdict

    def test_narrowed_to_unsat_matches_fresh(self):
        problem, r = free_problem()
        empty = rebound(problem, r, drop=[("a",), ("b",), ("c",)])
        session = DeltaSession(problem, symmetry=0)
        result = session.solve(empty)
        assert result.detail["delta"]["path"] == "reused"
        assert result.verdict is api.Verdict.UNSAT
        assert api.solve(empty, symmetry=0).verdict is result.verdict

    def test_promoted_tuple_constrains_the_model(self):
        problem, r = free_problem(lambda rel: ast.TrueF())
        promoted = rebound(problem, r, promote=[("b",)])
        session = DeltaSession(problem, symmetry=0)
        result = session.solve(promoted)
        assert result.detail["delta"]["path"] == "reused"
        assert ("b",) in result.instance.value_of(r)

    def test_identical_resubmission_is_reused(self):
        problem, _ = free_problem()
        session = DeltaSession(problem, symmetry=0)
        result = session.solve(problem)
        assert result.detail["delta"]["path"] == "reused"
        assert result.detail["delta"]["reason"] == "identical"

    def test_chain_of_edits_stays_warm(self):
        problem, r = free_problem()
        session = DeltaSession(problem, symmetry=0)
        for drop in ([("a",)], [("b",)], [("a",), ("b",)]):
            result = session.solve(rebound(problem, r, drop=drop))
            assert result.detail["delta"]["path"] == "reused"
        # The anchor never moved: warm answers diff against it.
        assert session.problem is problem

    def test_identical_protocol_reuses_stored_result(self):
        anchor = protocol_problem(seed=5)
        session = DeltaSession(anchor, max_rounds=8)
        anchor_result = session.result
        assert anchor_result.detail["delta"]["path"] == "cold"
        result = session.solve(protocol_problem(seed=5))
        assert result.detail["delta"]["path"] == "reused"
        assert result.detail["delta"]["reason"] == "identical"
        assert result.verdict is anchor_result.verdict


class TestFallbackContract:
    def test_formula_edit_falls_back_and_reanchors(self):
        problem, r = free_problem()
        changed = FormulaProblem(r.no(), problem.bounds)
        session = DeltaSession(problem, symmetry=0)
        result = session.solve(changed)
        provenance = result.detail["delta"]
        assert provenance["path"] == "fallback"
        assert provenance["reason"] == "formula_changed"
        assert result.verdict is api.solve(changed, symmetry=0).verdict
        # Re-anchored: the edited problem is now warm.
        assert session.problem is changed
        again = session.solve(changed)
        assert again.detail["delta"]["path"] == "reused"

    def test_widened_bounds_fall_back(self):
        problem, r = free_problem()
        narrow = rebound(problem, r, drop=[("c",)])
        session = DeltaSession(narrow, symmetry=0)
        result = session.solve(problem)
        assert result.detail["delta"]["path"] == "fallback"
        assert result.detail["delta"]["reason"] == "bounds_widened"
        assert result.verdict is api.solve(problem, symmetry=0).verdict

    def test_symmetry_disables_reuse(self):
        problem, r = free_problem()
        variant = rebound(problem, r, drop=[("c",)])
        session = DeltaSession(problem, symmetry=2)
        result = session.solve(variant)
        assert result.detail["delta"]["path"] == "fallback"
        assert result.detail["delta"]["reason"] == "symmetry"
        assert result.verdict is api.solve(variant, symmetry=2).verdict

    def test_kind_change_falls_back(self):
        problem, _ = free_problem()
        session = DeltaSession(problem, max_rounds=8)
        edited = protocol_problem()
        result = session.solve(edited)
        assert result.detail["delta"]["path"] == "fallback"
        assert result.detail["delta"]["reason"] == "kind_changed"
        assert result.verdict is api.solve(edited, max_rounds=8).verdict

    def test_protocol_edit_falls_back(self):
        session = DeltaSession(protocol_problem(seed=1), max_rounds=8)
        edited = protocol_problem(seed=2)
        result = session.solve(edited)
        assert result.detail["delta"]["path"] == "fallback"
        assert result.detail["delta"]["reason"] == "protocol_changed"
        assert result.verdict is api.solve(edited, max_rounds=8).verdict

    def test_unsolved_protocol_anchor_falls_back_on_identical(self):
        anchor = protocol_problem(seed=3)
        session = DeltaSession(anchor, solve_anchor=False, max_rounds=8)
        assert session.result is None
        result = session.solve(protocol_problem(seed=3))
        assert result.detail["delta"]["path"] == "fallback"
        assert result.detail["delta"]["reason"] == "unsolved_anchor"

    def test_cold_anchor_is_provenance_tagged(self):
        problem, _ = free_problem()
        session = DeltaSession(problem, symmetry=0)
        assert session.result.detail["delta"] == {
            "path": "cold", "reason": "anchor"}


class TestSolveDeltaFacade:
    def test_one_shot_problem_anchor_reuses(self):
        problem, r = free_problem()
        variant = rebound(problem, r, drop=[("c",)])
        result = solve_delta(problem, variant, symmetry=0)
        assert result.detail["delta"]["path"] == "reused"
        assert result.verdict is api.solve(variant, symmetry=0).verdict

    def test_session_anchor_with_options_is_an_error(self):
        problem, _ = free_problem()
        session = DeltaSession(problem, symmetry=0)
        with pytest.raises(ValueError, match="options are fixed"):
            solve_delta(session, problem, symmetry=0)

    def test_session_anchor_delegates(self):
        problem, r = free_problem()
        session = DeltaSession(problem, symmetry=0)
        result = solve_delta(session, rebound(problem, r, drop=[("a",)]))
        assert result.detail["delta"]["path"] == "reused"

    def test_exported_from_package_root(self):
        import repro

        assert repro.solve_delta is api.solve_delta
        assert repro.DeltaSession is api.DeltaSession


# 50 mutated spec pairs per family, all five families: the acceptance
# sweep.  Auction params stay inside the explorer's tractable envelope;
# vnet additionally caps the exploration budget through spec params.
FAMILY_SWEEPS = {
    "relational": dict(num_atoms=(3, 4), depth=(1, 2), max_edges=(0, 4)),
    "mca": dict(num_agents=(2, 3), num_items=(1, 2), target=(1, 2)),
    "dispatch": dict(num_units=(2, 3), num_blocks=(1, 2),
                     capacity_blocks=(1, 1)),
    "uav": dict(num_uavs=(2, 3), num_tasks=(1, 2), capacity=(1, 1)),
    "vnet": dict(grid_width=(2, 2), grid_height=(2, 2), request_size=(2, 2),
                 explore_rounds=(6, 6), explore_paths=(400, 400)),
}


class TestVerdictEquivalenceSweep:
    @pytest.mark.parametrize("family", sorted(FAMILY_SWEEPS))
    def test_delta_verdicts_match_fresh_over_50_pairs(self, family):
        specs = random_sweep(family, 50, base_seed=1234,
                             **FAMILY_SWEEPS[family])
        disagreements = []
        paths = set()
        for spec in specs:
            outcome = ORACLES["delta"].run(materialize(spec), spec.seed,
                                           dict(spec.params))
            paths.add(outcome.detail["delta_path"])
            if not outcome.agree:
                disagreements.append((spec.label(), outcome.detail))
        assert not disagreements, disagreements
        if family == "relational":
            # The relational mutation mix must exercise both the warm
            # path (bound narrowing) and the fallback path.
            assert paths == {"reused", "fallback"}
