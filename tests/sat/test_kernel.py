"""Differential tests for the vector propagation kernel.

The kernel's contract is stronger than verdict agreement: a ``vector``
solver and a ``pure`` solver fed the same clauses must take *identical*
search trajectories — same models, same learned-clause statistics, same
propagation counts (see :mod:`repro.sat.kernel`).  These tests pin that
equivalence on random CNFs, under assumptions, across incremental
enumeration with an aggressive clause-database budget, and against the
brute-force reference.
"""

import random

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import Solver, solve_cnf
from repro.sat.types import Status
from tests.sat.brute_force import brute_force_satisfiable


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int,
               max_width: int = 4) -> CNF:
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for _ in range(num_clauses):
        width = rng.randint(1, max_width)
        cnf.add_clause([rng.choice([1, -1]) * rng.randint(1, num_vars)
                        for _ in range(width)])
    return cnf


def chain_cnf(n_chain: int = 32, fanout: int = 80, pool: int = 12):
    """A CNF engineered for long watcher lists (exercises the vector path:
    every noise clause watching ``-c_i`` has the true blocker ``-g``)."""
    cnf = CNF()
    g = cnf.new_var()
    chain = [cnf.new_var() for _ in range(n_chain)]
    xs = [cnf.new_var() for _ in range(pool)]
    cnf.add_clause([g, chain[0]])
    for a, b in zip(chain, chain[1:]):
        cnf.add_clause([-a, b])
    for i, c in enumerate(chain):
        for j in range(fanout):
            cnf.add_clause([-c, -g, xs[(i + j) % pool]])
    return cnf, g


class TestKernelSelection:
    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            Solver(kernel="simd")

    def test_vector_kernel_resolves(self):
        pytest.importorskip("numpy")
        assert Solver(kernel="vector").kernel == "vector"

    def test_pure_is_the_default(self):
        assert Solver().kernel == "pure"

    def test_fallback_without_numpy(self, monkeypatch):
        import repro.sat.kernel as kernel_module

        monkeypatch.setattr(kernel_module, "_np", None)
        solver = Solver(kernel="vector")
        assert solver.kernel == "pure"
        assert solver._kernel is None
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        assert solver.add_cnf(cnf)
        assert solver.solve() is Status.SAT

    def test_solve_cnf_kernel_parameter(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_clause([v])
        for kernel in ("pure", "vector"):
            status, model = solve_cnf(cnf, kernel=kernel)
            assert status is Status.SAT
            assert model.values[v] is True


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_cnfs_identical_status_model_stats(self, seed):
        pytest.importorskip("numpy")
        rng = random.Random(seed)
        cnf = random_cnf(rng, rng.randint(3, 28), rng.randint(3, 110))
        pure, vector = Solver(kernel="pure"), Solver(kernel="vector")
        assert pure.add_cnf(cnf) == vector.add_cnf(cnf)
        status_pure, status_vector = pure.solve(), vector.solve()
        assert status_pure == status_vector
        if status_pure is Status.SAT:
            assert pure.model().values == vector.model().values
        # Bit-identical trajectories: every counter matches, not just the
        # verdict.
        assert pure.stats == vector.stats

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_brute_force(self, seed):
        pytest.importorskip("numpy")
        rng = random.Random(1000 + seed)
        cnf = random_cnf(rng, rng.randint(3, 10), rng.randint(3, 30))
        status, model = solve_cnf(cnf, kernel="vector")
        assert (status is Status.SAT) == brute_force_satisfiable(cnf)
        if model is not None:
            for clause in cnf.clauses():
                assert any(model.values[abs(l)] == (l > 0) for l in clause)

    @pytest.mark.parametrize("seed", range(12))
    def test_enumeration_with_aggressive_reduction(self, seed):
        """Blocking-clause enumeration under max_learned=5 drives clause
        deletion and arena compaction through both kernels identically."""
        pytest.importorskip("numpy")
        rng = random.Random(2000 + seed)
        num_vars = rng.randint(6, 16)
        cnf = random_cnf(rng, num_vars, rng.randint(15, 70), max_width=3)

        def enumerate_models(kernel):
            solver = Solver(max_learned=5, kernel=kernel)
            if not solver.add_cnf(cnf):
                return []
            models = []
            while len(models) < 64 and solver.solve() is Status.SAT:
                model = solver.model()
                models.append(tuple(sorted(model.values.items())))
                blocking = [-v if model.values[v] else v
                            for v in range(1, num_vars + 1)]
                if not solver.add_clause(blocking):
                    break
            return models

        assert enumerate_models("pure") == enumerate_models("vector")

    @pytest.mark.parametrize("seed", range(8))
    def test_assumptions_identical(self, seed):
        pytest.importorskip("numpy")
        rng = random.Random(3000 + seed)
        num_vars = rng.randint(5, 15)
        cnf = random_cnf(rng, num_vars, rng.randint(10, 50))
        pure, vector = Solver(kernel="pure"), Solver(kernel="vector")
        if not pure.add_cnf(cnf):
            assert not vector.add_cnf(cnf)
            return
        assert vector.add_cnf(cnf)
        for _ in range(6):
            assumptions = [rng.choice([1, -1]) * rng.randint(1, num_vars)
                           for _ in range(rng.randint(0, 3))]
            status_pure = pure.solve(assumptions)
            status_vector = vector.solve(assumptions)
            assert status_pure == status_vector
            if status_pure is Status.SAT:
                assert pure.model().values == vector.model().values
        assert pure.stats == vector.stats


class TestVectorPathProper:
    """Workloads that actually reach the numpy bulk filter (long lists)."""

    def test_long_watchlists_identical_and_sat(self):
        pytest.importorskip("numpy")
        cnf, g = chain_cnf()
        pure, vector = Solver(kernel="pure"), Solver(kernel="vector")
        assert pure.add_cnf(cnf) and vector.add_cnf(cnf)
        for _ in range(5):  # repeated warm solves hit the watch cache
            assert pure.solve([-g]) is Status.SAT
            assert vector.solve([-g]) is Status.SAT
            assert pure.model().values == vector.model().values
        assert pure.stats == vector.stats

    def test_conflict_heavy_trajectory_identical(self):
        """A pigeonhole core with mirror fanout drives the conflict-path
        assists (vectorized analyze/minimize/LBD, batched bumps) — stats
        must stay bit-identical end to end."""
        pytest.importorskip("numpy")
        cnf = CNF()
        holes, fanout = 5, 70
        v = {}
        for p in range(holes + 1):
            for h in range(holes):
                v[p, h] = cnf.new_var()
        guard = cnf.new_var()
        for p in range(holes + 1):
            cnf.add_clause([v[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    cnf.add_clause([-v[p1, h], -v[p2, h]])
        for var in [v[p, h] for p in range(holes + 1) for h in range(holes)]:
            mirror = cnf.new_var()
            cnf.add_clause([var, mirror])
            for _ in range(fanout):
                cnf.add_clause([-mirror, -guard, cnf.new_var()])
        pure, vector = Solver(kernel="pure"), Solver(kernel="vector")
        assert pure.add_cnf(cnf) and vector.add_cnf(cnf)
        assert pure.solve([-guard]) is Status.UNSAT
        assert vector.solve([-guard]) is Status.UNSAT
        assert pure.stats == vector.stats
        assert pure.stats["conflicts"] > 50  # the analyze path really ran

    def test_watch_cache_survives_clause_additions(self):
        pytest.importorskip("numpy")
        cnf, g = chain_cnf(n_chain=16, fanout=60, pool=8)
        pure, vector = Solver(kernel="pure"), Solver(kernel="vector")
        assert pure.add_cnf(cnf) and vector.add_cnf(cnf)
        assert pure.solve([-g]) == vector.solve([-g]) == Status.SAT
        # Appending clauses grows watch lists; cached arrays must be
        # rebuilt (length check), never reused stale.
        model = vector.model()
        num_vars = cnf.num_vars
        blocking = [-v if model.values[v] else v
                    for v in range(1, num_vars + 1)]
        assert pure.add_clause(blocking) == vector.add_clause(blocking)
        assert pure.solve([-g]) == vector.solve([-g])
        if vector.solve([-g]) is Status.SAT:
            assert pure.solve([-g]) is Status.SAT
            assert pure.model().values == vector.model().values
        assert pure.stats == vector.stats


class TestCampaignFamilyTrajectories:
    """Pure-vs-vector trajectory identity on all five campaign families.

    The conflict-path kernel (vectorized analyze/minimize/LBD, batched
    VSIDS bumps) and the indexed branching heap run on exactly these
    shapes in production, so the bit-identical contract is pinned on the
    CNFs the campaign itself induces: relational specs translate
    directly; the four auction families lift their communication graph
    into the dynamic consensus check (the paper's SAT-shaped workload).
    """

    @staticmethod
    def _family_cnf(family: str, seed: int):
        from repro.api import FormulaProblem
        from repro.campaign.specs import ScenarioSpec, materialize

        scenario = materialize(ScenarioSpec.make(family, seed))
        if isinstance(scenario, FormulaProblem):
            from repro.kodkod.translate import Translator

            translation = Translator(scenario.bounds).translate(
                scenario.formula)
            return translation.cnf
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
    def test_family_trajectories_identical(self, family, seed):
        pytest.importorskip("numpy")
        cnf = self._family_cnf(family, seed)
        pure, vector = Solver(kernel="pure"), Solver(kernel="vector")
        loaded = pure.add_cnf(cnf)
        assert vector.add_cnf(cnf) == loaded
        if not loaded:
            return
        status_pure, status_vector = pure.solve(), vector.solve()
        assert status_pure == status_vector
        if status_pure is Status.SAT:
            assert pure.model().values == vector.model().values
        assert pure.stats == vector.stats

    @pytest.mark.parametrize("seed", [0, 7])
    def test_relational_enumeration_identical(self, seed):
        """Blocking-clause enumeration over a family CNF keeps the two
        kernels in lock-step round after round."""
        pytest.importorskip("numpy")
        cnf = self._family_cnf("relational", seed)

        def enumerate_models(kernel):
            solver = Solver(kernel=kernel)
            if not solver.add_cnf(cnf):
                return [], {}
            models = []
            while len(models) < 20 and solver.solve() is Status.SAT:
                model = solver.model()
                models.append(tuple(sorted(model.values.items())))
                blocking = [-v if model.values[v] else v
                            for v in range(1, cnf.num_vars + 1)]
                if not solver.add_clause(blocking):
                    break
            return models, solver.stats

        pure_models, pure_stats = enumerate_models("pure")
        vector_models, vector_stats = enumerate_models("vector")
        assert pure_models == vector_models
        assert pure_stats == vector_stats
