"""Unit and property-based tests for the CDCL solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF
from repro.sat.solver import Solver, luby, solve_cnf
from repro.sat.types import Status
from tests.sat.brute_force import brute_force_count, brute_force_satisfiable
from tests.sat.cnfs import add_exactly_one, blocked_models, chain_cnf


class TestLuby:
    def test_first_terms(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(1, 16)] == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            luby(0)


class TestBasicSolving:
    def test_empty_formula_is_sat(self):
        assert solve_cnf(CNF())[0] is Status.SAT

    def test_single_unit(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        status, model = solve_cnf(cnf)
        assert status is Status.SAT
        assert model[v]

    def test_contradicting_units(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        cnf.add_clause([-v])
        assert solve_cnf(cnf)[0] is Status.UNSAT

    def test_empty_clause_unsat(self):
        cnf = CNF()
        cnf.new_var()
        cnf.add_clause([1])
        solver = Solver()
        assert solver.add_cnf(cnf)
        assert not solver.add_clause([-1])
        assert solver.solve() is Status.UNSAT

    def test_implication_chain(self):
        cnf = CNF()
        vs = cnf.new_vars(10)
        cnf.add_clause([vs[0]])
        for a, b in zip(vs, vs[1:]):
            cnf.add_clause([-a, b])
        status, model = solve_cnf(cnf)
        assert status is Status.SAT
        assert all(model[v] for v in vs)

    def test_model_satisfies_all_clauses(self):
        cnf = CNF()
        cnf.new_vars(4)
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 4], [-4, 1]]
        cnf.extend(clauses)
        status, model = solve_cnf(cnf)
        assert status is Status.SAT
        assert model.satisfies(clauses)

    def test_pigeonhole_3_into_2_unsat(self):
        # Three pigeons, two holes: var p*2+h means pigeon p in hole h.
        cnf = CNF()
        var = {}
        for p in range(3):
            for h in range(2):
                var[p, h] = cnf.new_var()
        for p in range(3):
            cnf.add_clause([var[p, 0], var[p, 1]])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add_clause([-var[p1, h], -var[p2, h]])
        assert solve_cnf(cnf)[0] is Status.UNSAT

    def test_pigeonhole_4_into_3_unsat(self):
        cnf = CNF()
        var = {}
        for p in range(4):
            for h in range(3):
                var[p, h] = cnf.new_var()
        for p in range(4):
            cnf.add_clause([var[p, h] for h in range(3)])
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    cnf.add_clause([-var[p1, h], -var[p2, h]])
        assert solve_cnf(cnf)[0] is Status.UNSAT

    def test_graph_coloring_triangle_2_colors_unsat(self):
        # A triangle is not 2-colorable: var (node, color).
        cnf = CNF()
        var = {}
        for n in range(3):
            for c in range(2):
                var[n, c] = cnf.new_var()
        for n in range(3):
            add_exactly_one(cnf, [var[n, c] for c in range(2)])
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            for c in range(2):
                cnf.add_clause([-var[a, c], -var[b, c]])
        assert solve_cnf(cnf)[0] is Status.UNSAT

    def test_graph_coloring_triangle_3_colors_sat(self):
        cnf = CNF()
        var = {}
        for n in range(3):
            for c in range(3):
                var[n, c] = cnf.new_var()
        for n in range(3):
            add_exactly_one(cnf, [var[n, c] for c in range(3)])
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            for c in range(3):
                cnf.add_clause([-var[a, c], -var[b, c]])
        status, model = solve_cnf(cnf)
        assert status is Status.SAT
        colors = {n: next(c for c in range(3) if model[var[n, c]]) for n in range(3)}
        assert len(set(colors.values())) == 3

    def test_tautological_clause_ignored(self):
        solver = Solver()
        solver.new_var()
        assert solver.add_clause([1, -1])
        assert solver.solve() is Status.SAT


class TestAssumptions:
    def _xor_instance(self):
        # x XOR y: models are (T,F) and (F,T).
        cnf = CNF()
        x, y = cnf.new_vars(2)
        cnf.add_clause([x, y])
        cnf.add_clause([-x, -y])
        return cnf, x, y

    def test_assumption_forces_branch(self):
        cnf, x, y = self._xor_instance()
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve([x]) is Status.SAT
        assert solver.model()[x] and not solver.model()[y]
        assert solver.solve([y]) is Status.SAT
        assert solver.model()[y] and not solver.model()[x]

    def test_conflicting_assumptions(self):
        cnf, x, y = self._xor_instance()
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve([x, y]) is Status.UNSAT
        # Solver remains usable afterwards.
        assert solver.solve() is Status.SAT

    def test_assumption_of_fixed_variable(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve([-v]) is Status.UNSAT
        assert solver.solve([v]) is Status.SAT


class TestIncremental:
    def test_adding_clauses_between_solves(self):
        solver = Solver()
        a = solver.new_var()
        b = solver.new_var()
        solver.add_clause([a, b])
        assert solver.solve() is Status.SAT
        solver.add_clause([-a])
        assert solver.solve() is Status.SAT
        assert solver.model()[b]
        solver.add_clause([-b])
        assert solver.solve() is Status.UNSAT

    def test_blocking_clause_between_assumption_solves(self):
        """A clause added between two solves under the same assumption
        joins long watch lists; the next model honours it."""
        cnf, g = chain_cnf(n_chain=16, fanout=60, pool=8)
        solver = Solver()
        assert solver.add_cnf(cnf)
        assert solver.solve([-g]) is Status.SAT
        first = solver.model()
        blocking = [-v if first[v] else v for v in range(1, cnf.num_vars + 1)]
        assert solver.add_clause(blocking)
        assert solver.solve([-g]) is Status.SAT
        second = solver.model()
        assert second.values != first.values and not second[g]
        assert second.satisfies(list(cnf.clauses()) + [blocking])

    def test_stats_populated(self):
        cnf = CNF()
        cnf.new_vars(6)
        random_gen = random.Random(7)
        for _ in range(30):
            clause = random_gen.sample(range(1, 7), 3)
            cnf.add_clause([v if random_gen.random() < 0.5 else -v for v in clause])
        solver = Solver()
        solver.add_cnf(cnf)
        solver.solve()
        assert solver.stats["propagations"] > 0


class TestClauseDatabase:
    def _pigeonhole(self, pigeons, holes):
        cnf = CNF()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = cnf.new_var()
        for p in range(pigeons):
            cnf.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause([-var[p1, h], -var[p2, h]])
        return cnf

    def test_learned_kept_separate_from_problem(self):
        cnf = self._pigeonhole(4, 3)
        solver = Solver()
        solver.add_cnf(cnf)
        solver.solve()
        db = solver.clause_db_stats()
        assert db["problem_clauses"] == cnf.num_clauses
        assert db["learned_total"] > 0

    def test_reduction_triggers_and_preserves_verdict(self):
        cnf = self._pigeonhole(6, 5)
        solver = Solver(max_learned=20, reduce_growth=1.1)
        solver.add_cnf(cnf)
        assert solver.solve() is Status.UNSAT
        assert solver.stats["db_reductions"] > 0
        assert solver.stats["learned_deleted"] > 0

    def test_reduction_never_deletes_problem_clauses(self):
        cnf = self._pigeonhole(6, 5)
        solver = Solver(max_learned=20, reduce_growth=1.1)
        solver.add_cnf(cnf)
        solver.solve()
        db = solver.clause_db_stats()
        assert db["problem_clauses"] == cnf.num_clauses

    def test_manual_reduce_respects_glue_and_binary(self):
        cnf = self._pigeonhole(5, 4)
        solver = Solver()
        solver.add_cnf(cnf)
        solver.solve()
        arena = solver._arena
        # Snapshot by content: reduce_db may compact the arena and remap ids.
        kept_always = {
            frozenset(arena.clause(c)) for c in solver._learned_db
            if not arena.deleted[c]
            and (arena.size[c] <= 2 or arena.lbd[c] <= 2)
        }
        solver.reduce_db()
        arena = solver._arena
        after = {
            frozenset(arena.clause(c)) for c in solver._learned_db
            if not arena.deleted[c]
        }
        assert kept_always <= after

    def test_lbd_recorded_on_learned_clauses(self):
        cnf = self._pigeonhole(5, 4)
        solver = Solver()
        solver.add_cnf(cnf)
        solver.solve()
        arena = solver._arena
        learned = [c for c in solver._learned_db if not arena.deleted[c]]
        assert learned
        assert all(arena.lbd[c] >= 1 for c in learned)

    @pytest.mark.parametrize("seed", range(12))
    def test_enumeration_under_aggressive_reduction(self, seed):
        """Blocking-clause enumeration under ``max_learned=5`` deletes
        learned clauses between re-solves; it still yields every model
        exactly once."""
        rng = random.Random(2000 + seed)
        num_vars = rng.randint(8, 14)
        cnf = CNF(num_vars)
        for _ in range(3 * num_vars):
            chosen = rng.sample(range(1, num_vars + 1), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
        solver = Solver(max_learned=5)
        assert solver.add_cnf(cnf)
        models = blocked_models(solver, num_vars)
        assert len({tuple(model.as_literals()) for model in models}) \
            == len(models) == brute_force_count(cnf)
        assert all(model.satisfies(cnf.clauses()) for model in models)

    @pytest.mark.parametrize("seed", range(15))
    def test_aggressive_reduction_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(6, 12)
        cnf = random_cnf(num_vars, int(4.2 * num_vars), rng)
        solver = Solver(max_learned=5, reduce_growth=1.05)
        if not solver.add_cnf(cnf):
            assert not brute_force_satisfiable(cnf)
            return
        status = solver.solve()
        assert (status is Status.SAT) == brute_force_satisfiable(cnf)
        if status is Status.SAT:
            assert solver.model().satisfies(cnf.clauses())


class _AuditedSolver(Solver):
    """Solver whose every mid-search reduce_db call is audited.

    Snapshots the locked (reason) clauses immediately before each
    reduction and records any that were evicted or flagged deleted —
    deleting a reason clause would corrupt conflict analysis, so the
    audit list must stay empty forever.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reductions_audited = 0
        self.locked_evictions = 0
        self.observed_deletions = 0
        self.compactions = 0
        self.stats_inconsistencies = []

    def _compact_arena(self):
        self.compactions += 1
        super()._compact_arena()

    def reduce_db(self):
        arena = self._arena
        # Snapshot locked clauses by content: compaction may remap ids.
        locked = [frozenset(arena.clause(r)) for r in self._reason
                  if r != -1 and arena.learned[r] and not arena.deleted[r]]
        live_before = sum(
            1 for c in self._learned_db if not arena.deleted[c])
        deleted = super().reduce_db()
        arena = self._arena  # may have been rebuilt by compaction
        self.reductions_audited += 1
        self.observed_deletions += deleted
        # Every reason reference must still point at a live clause, and
        # every locked clause's content must survive in the learned DB.
        for reason in self._reason:
            if reason != -1 and arena.deleted[reason]:
                self.locked_evictions += 1
        survivors = {
            frozenset(arena.clause(c)) for c in self._learned_db
            if not arena.deleted[c]
        }
        for content in locked:
            if content not in survivors:
                self.locked_evictions += 1
        db = self.clause_db_stats()
        live_after = sum(
            1 for c in self._learned_db if not arena.deleted[c])
        # Independently recomputed ground truth vs the reported stats:
        # reduce_db is the only deletion site and this subclass sees every
        # call, so the externally counted totals must match the counters.
        if db["learned_clauses"] != live_after:
            self.stats_inconsistencies.append(
                ("learned_clauses", db["learned_clauses"], live_after))
        if live_before - live_after != deleted:
            self.stats_inconsistencies.append(
                ("deleted_return", deleted, live_before - live_after))
        if db["learned_deleted"] != self.observed_deletions:
            self.stats_inconsistencies.append(
                ("learned_deleted", db["learned_deleted"],
                 self.observed_deletions))
        if db["db_reductions"] != self.reductions_audited:
            self.stats_inconsistencies.append(
                ("db_reductions", db["db_reductions"],
                 self.reductions_audited))
        return deleted


class TestReduceDbRegression:
    """reduce_db must never evict locked clauses, and clause_db_stats
    must stay consistent across restarts and repeated queries."""

    def _pigeonhole(self, pigeons, holes):
        cnf = CNF()
        var = {}
        for p in range(pigeons):
            for h in range(holes):
                var[p, h] = cnf.new_var()
        for p in range(pigeons):
            cnf.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause([-var[p1, h], -var[p2, h]])
        return cnf

    def test_reduce_never_evicts_locked_clauses(self):
        # Tiny budget + slow growth force many mid-search reductions
        # while reason clauses are live on the trail.
        solver = _AuditedSolver(max_learned=10, reduce_growth=1.05,
                                restart_base=20)
        solver.add_cnf(self._pigeonhole(6, 5))
        assert solver.solve() is Status.UNSAT
        assert solver.reductions_audited > 0
        assert solver.locked_evictions == 0

    def test_stats_consistent_at_every_reduction(self):
        solver = _AuditedSolver(max_learned=10, reduce_growth=1.05,
                                restart_base=20)
        solver.add_cnf(self._pigeonhole(6, 5))
        solver.solve()
        assert solver.stats["restarts"] > 0  # reductions span restarts
        assert solver.stats_inconsistencies == []

    def test_stats_consistent_across_repeated_queries(self):
        # A satisfiable instance queried repeatedly under assumptions:
        # the clause database persists across queries, and its stats
        # must remain monotone and mutually consistent.
        rng = random.Random(11)
        cnf = random_cnf(12, 50, rng)
        solver = _AuditedSolver(max_learned=10, reduce_growth=1.05,
                                restart_base=20)
        if not solver.add_cnf(cnf):
            return
        previous_learned_total = 0
        for query in range(6):
            assumption = (query % 12) + 1
            solver.solve([assumption if query % 2 else -assumption])
            db = solver.clause_db_stats()
            assert db["learned_total"] >= previous_learned_total
            previous_learned_total = db["learned_total"]
            assert db["problem_clauses"] <= cnf.num_clauses
            assert db["glue_clauses"] <= db["learned_clauses"]
            assert (db["learned_clauses"]
                    <= db["learned_total"] - db["learned_deleted"])
        assert solver.locked_evictions == 0
        assert solver.stats_inconsistencies == []


def random_cnf(draw_vars, draw_clauses, rng):
    cnf = CNF()
    cnf.new_vars(draw_vars)
    for _ in range(draw_clauses):
        width = rng.randint(1, min(3, draw_vars))
        chosen = rng.sample(range(1, draw_vars + 1), width)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def noisy_cnf(rng: random.Random, num_vars: int, num_clauses: int,
              max_width: int = 4) -> CNF:
    """Random clauses of 1..``max_width`` literals drawn with
    replacement, so a clause may repeat a literal or hold both signs of
    a variable (the cases ``Solver.add_cnf`` simplifies away)."""
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, num_vars)
                        for _ in range(width)])
    return cnf


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_3cnf_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 10)
        num_clauses = rng.randint(1, 4 * num_vars)
        cnf = random_cnf(num_vars, num_clauses, rng)
        status, model = solve_cnf(cnf)
        expected = brute_force_satisfiable(cnf)
        assert (status is Status.SAT) == expected
        if model is not None:
            assert model.satisfies(cnf.clauses())

    @pytest.mark.parametrize("seed", range(10))
    def test_noisy_cnfs_agree_with_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        cnf = noisy_cnf(rng, rng.randint(3, 10), rng.randint(3, 30))
        status, model = solve_cnf(cnf)
        assert (status is Status.SAT) == brute_force_satisfiable(cnf)
        if model is not None:
            assert model.satisfies(cnf.clauses())

    @pytest.mark.parametrize("seed", range(8))
    def test_assumptions_agree_with_brute_force(self, seed):
        """Repeated solves of one solver under random assumptions: each
        answer is the brute-force answer for the CNF plus the
        assumptions as unit clauses."""
        rng = random.Random(3000 + seed)
        num_vars = rng.randint(5, 15)
        cnf = noisy_cnf(rng, num_vars, rng.randint(10, 50))
        solver = Solver()
        if not solver.add_cnf(cnf):
            assert not brute_force_satisfiable(cnf)
            return
        for _ in range(6):
            assumptions = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                           for _ in range(rng.randint(0, 3))]
            assumed = CNF(num_vars)
            assumed.extend(list(cnf.clauses()) + [[a] for a in assumptions])
            status = solver.solve(assumptions)
            assert (status is Status.SAT) == brute_force_satisfiable(assumed)
            if status is Status.SAT:
                assert solver.model().satisfies(assumed.clauses())


def decide(cnf: CNF) -> tuple[Solver, Status]:
    """A fresh solver loaded with ``cnf`` and its verdict (UNSAT when the
    clauses already conflict at load)."""
    solver = Solver()
    return solver, solver.solve() if solver.add_cnf(cnf) else Status.UNSAT


def assert_same_trajectory(first: Solver, second: Solver,
                           status: Status) -> None:
    assert first.stats == second.stats
    if status is Status.SAT:
        assert first.model().values == second.model().values


class TestDeterminism:
    """The search is a function of the clauses alone: fresh solvers fed
    the same CNF return the same status and model with every ``stats``
    counter equal — what the trajectory pins and the recorded campaign
    and fuzz digests rely on."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_cnfs_repeat_status_model_stats(self, seed):
        """Random 3-CNF at clause/variable ratio 4.26, where about half
        are SAT and nearly every search learns clauses."""
        rng = random.Random(seed)
        num_vars = rng.randint(12, 28)
        cnf = CNF(num_vars)
        for _ in range(round(4.26 * num_vars)):
            chosen = rng.sample(range(1, num_vars + 1), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
        first, status = decide(cnf)
        second, repeated = decide(cnf)
        assert repeated is status
        assert_same_trajectory(first, second, status)
        if status is Status.SAT:
            assert first.model().satisfies(cnf.clauses())
        # Another clause order takes another path to the same verdict.
        reordered = CNF(cnf.num_vars)
        reordered.extend(list(cnf.clauses())[::-1])
        assert decide(reordered)[1] is status


class TestCampaignFamilyCnfs:
    """The solver on the CNFs the campaign induces: relational specs
    translate directly; the four auction families lift their
    communication graph into the dynamic consensus check (the paper's
    SAT-shaped workload)."""

    @staticmethod
    def _family_cnf(family: str, seed: int) -> CNF:
        from repro.api import FormulaProblem
        from repro.campaign.specs import ScenarioSpec, materialize

        scenario = materialize(ScenarioSpec.make(family, seed))
        if isinstance(scenario, FormulaProblem):
            from repro.kodkod.translate import Translator

            return Translator(scenario.bounds).translate(
                scenario.formula).cnf
        from repro.model import build_dynamic

        # Keep the instance tractable: the first three agents of the
        # family's network, re-indexed, with a chain fallback so the
        # induced subgraph stays connected.
        agents = scenario.network.agents()[:3]
        index = {agent: i for i, agent in enumerate(agents)}
        edges = {tuple(sorted((index[a], index[b])))
                 for a, b in scenario.network.graph.edges
                 if a in index and b in index}
        edges.update((i, i + 1) for i in range(len(agents) - 1))
        model = build_dynamic(num_pnodes=len(agents), num_vnodes=2,
                              max_value=2, edges=sorted(edges))
        return model.translate_check().cnf

    @pytest.mark.parametrize("family,seed", [
        ("relational", 0), ("relational", 7), ("relational", 11),
        ("mca", 0), ("dispatch", 1), ("uav", 2), ("vnet", 3),
    ])
    def test_family_verdicts_repeat(self, family, seed):
        cnf = self._family_cnf(family, seed)
        first, status = decide(cnf)
        second, repeated = decide(cnf)
        assert repeated is status
        assert_same_trajectory(first, second, status)
        if family == "relational":
            # A handful of variables: brute force decides it too.
            assert (status is Status.SAT) == brute_force_satisfiable(cnf)
            if status is Status.SAT:
                assert first.model().satisfies(cnf.clauses())
        else:
            # No counterexample: the network reaches consensus.
            assert status is Status.UNSAT

    @pytest.mark.parametrize("seed", [0, 7])
    def test_relational_enumeration_is_complete_and_repeats(self, seed):
        """Blocking-clause enumeration over a family CNF yields every
        model once, in the same order with the same stats each run."""
        cnf = self._family_cnf("relational", seed)

        def enumerate_models():
            solver = Solver()
            assert solver.add_cnf(cnf)
            models = blocked_models(solver, cnf.num_vars)
            return [tuple(model.as_literals()) for model in models], \
                solver.stats

        models, stats = enumerate_models()
        assert enumerate_models() == (models, stats)
        assert len(set(models)) == len(models) == brute_force_count(cnf)


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    num_clauses = draw(st.integers(min_value=0, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=min(3, num_vars)))
        variables = draw(
            st.lists(
                st.integers(min_value=1, max_value=num_vars),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append([v if s else -v for v, s in zip(variables, signs)])
    return num_vars, clauses


class TestSolverProperties:
    @given(cnf_instances())
    @settings(max_examples=120, deadline=None)
    def test_sat_answer_matches_oracle(self, instance):
        num_vars, clauses = instance
        cnf = CNF(num_vars)
        cnf.extend(clauses)
        status, model = solve_cnf(cnf)
        assert (status is Status.SAT) == brute_force_satisfiable(cnf)
        if model is not None:
            assert model.satisfies(clauses)

    @given(cnf_instances())
    @settings(max_examples=60, deadline=None)
    def test_solving_twice_is_stable(self, instance):
        num_vars, clauses = instance
        cnf = CNF(num_vars)
        cnf.extend(clauses)
        solver = Solver()
        if not solver.add_cnf(cnf):
            return
        first = solver.solve()
        second = solver.solve()
        assert first == second


class _FallbackForcedSolver(Solver):
    """Solver whose branching heap is drained before every decision.

    Every pick therefore goes through the heap-exhausted fallback scan
    in ``_pick_branch_var``, so comparing its trajectory against a
    normal solver pins the fallback to the exact heap order.
    """

    def _pick_branch_var(self):
        while self._order_heap.pop() is not None:
            pass
        return super()._pick_branch_var()


class TestBranchFallbackRegression:
    """The heap-exhausted fallback must respect activity order —
    highest activity wins, ties to the lowest index — so decisions do
    not depend on which variables happen to still sit in the heap."""

    @staticmethod
    def _drained_solver() -> Solver:
        solver = Solver()
        cnf = CNF()
        cnf.new_vars(5)
        cnf.add_clause([1, 2, 3, 4, 5])
        assert solver.add_cnf(cnf)
        while solver._order_heap.pop() is not None:
            pass
        return solver

    def test_fallback_picks_highest_activity_ties_to_lowest_var(self):
        solver = self._drained_solver()
        solver._activity[2] = 4.0
        solver._activity[4] = 4.0
        solver._activity[5] = 1.0
        assert solver._pick_branch_var() == 2

    def test_fallback_skips_assigned_vars(self):
        solver = self._drained_solver()
        solver._activity[2] = 4.0
        solver._activity[4] = 4.0
        solver._assign[2] = 1  # _TRUE: var 2 is taken
        assert solver._pick_branch_var() == 4

    def test_fallback_returns_none_when_all_assigned(self):
        solver = self._drained_solver()
        for var in range(1, 6):
            solver._assign[var] = 1
        assert solver._pick_branch_var() is None

    @pytest.mark.parametrize("seed", [0, 3, 9, 17])
    def test_forced_fallback_trajectory_identical(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(8, 14)
        cnf = random_cnf(num_vars, 4 * num_vars, rng)
        normal, forced = Solver(), _FallbackForcedSolver()
        ok = normal.add_cnf(cnf)
        assert forced.add_cnf(cnf) == ok
        if not ok:
            return
        status = normal.solve()
        assert forced.solve() is status
        assert normal.stats == forced.stats
        if status is Status.SAT:
            assert normal.model().values == forced.model().values
