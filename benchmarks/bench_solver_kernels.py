"""Benchmark: solver throughput on two CNF shapes, and external CDCL.

Two workload shapes are measured on the in-tree solver:

* **propagation-heavy** (``chain_cnf``): almost all time is spent
  scanning long watcher lists whose blockers are already true;
* **conflict-heavy** (``conflict_cnf``): an unsatisfiable pigeonhole
  core whose every core literal fans out into hundreds of never-mutating
  noise clauses, so the solver both dives through ``_analyze`` /
  ``_minimize`` / VSIDS bumping thousands of times *and* scans long
  watcher lists.

Rows land in ``BENCH_solver.json`` with per-row throughput metadata.

The external row times a real CDCL binary (picosat/cadical/kissat, if
one is on PATH) against the built-in solver on a campaign-sized consensus
check, and is skipped — not failed — when none is installed.

Run as a script for a profiled conflict-heavy solve (uploaded by the CI
bench-smoke job so future PRs can see what dominates)::

    python benchmarks/bench_solver_kernels.py --profile [PATH]
"""

import shutil
import time

import pytest

from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.sat.types import Status

# Chain + fanout shape: deciding the guard g False triggers a unit chain
# c1 -> c2 -> ... while every chain variable watches `fanout` noise
# clauses (-c_i, -g, x_j) whose blocker -g is already true.
N_CHAIN = 48
FANOUT = 400
POOL = 16
SOLVES_PER_RUN = 20

REAL_SOLVERS = ("picosat", "cadical", "kissat")


def chain_cnf():
    cnf = CNF()
    g = cnf.new_var()
    chain = [cnf.new_var() for _ in range(N_CHAIN)]
    xs = [cnf.new_var() for _ in range(POOL)]
    cnf.add_clause([g, chain[0]])
    for a, b in zip(chain, chain[1:]):
        cnf.add_clause([-a, b])
    for i, c in enumerate(chain):
        for j in range(FANOUT):
            cnf.add_clause([-c, -g, xs[(i + j) % POOL]])
    return cnf, g


def _warm_solver():
    cnf, g = chain_cnf()
    solver = Solver()
    assert solver.add_cnf(cnf)
    assert solver.solve([-g]) is Status.SAT  # builds the watch lists
    return solver, g


def test_propagation_throughput(bench, report):
    solver, g = _warm_solver()

    def run():
        before = solver.stats["propagations"]
        for _ in range(SOLVES_PER_RUN):
            assert solver.solve([-g]) is Status.SAT
        return solver.stats["propagations"] - before

    propagations = bench(run)
    seconds = bench._row["seconds"]
    pps = propagations / max(seconds, 1e-9)
    bench.meta(propagations=propagations,
               propagations_per_second=round(pps))
    report.append(
        f"propagation: {propagations} propagations in {seconds:.4f}s "
        f"({pps / 1000:.0f} kprops/s)"
    )


# Conflict-heavy shape: an unsatisfiable pigeonhole core (clause/var
# ratio >> 4, forces deep repeated _analyze/_minimize/VSIDS churn) whose
# every core literal v gets a mirror m (clause (v, m): falsifying v
# propagates m) fanning out into `fanout` noise clauses (-m, -guard,
# x_j).  Under the assumption -guard those noise lists consist entirely
# of blocker-true entries that never mutate, and the propagation loop
# walks all `fanout` entries of each.
PHP_HOLES = 6
NOISE_FANOUT = 800


def conflict_cnf():
    cnf = CNF()
    pigeons = PHP_HOLES + 1
    v = {}
    for p in range(pigeons):
        for h in range(PHP_HOLES):
            v[p, h] = cnf.new_var()
    guard = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([v[p, h] for h in range(PHP_HOLES)])
    for h in range(PHP_HOLES):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-v[p1, h], -v[p2, h]])
    for var in [v[p, h] for p in range(pigeons) for h in range(PHP_HOLES)]:
        mirror = cnf.new_var()
        cnf.add_clause([var, mirror])
        for _ in range(NOISE_FANOUT):
            cnf.add_clause([-mirror, -guard, cnf.new_var()])
    return cnf, guard


def _conflict_solve(cnf, guard):
    """One cold end-to-end solve; returns (conflicts, seconds)."""
    solver = Solver()
    assert solver.add_cnf(cnf)
    started = time.perf_counter()
    status = solver.solve([-guard])
    seconds = time.perf_counter() - started
    assert status is Status.UNSAT
    return solver.stats["conflicts"], seconds


def test_conflict_throughput(bench, report):
    """End-to-end conflict-heavy solve (cold solver per run)."""
    cnf, guard = conflict_cnf()
    conflicts = bench(lambda: _conflict_solve(cnf, guard)[0])
    seconds = bench._row["seconds"]
    cps = conflicts / max(seconds, 1e-9)
    bench.meta(conflicts=conflicts, conflicts_per_second=round(cps),
               holes=PHP_HOLES, fanout=NOISE_FANOUT)
    report.append(
        f"conflict: {conflicts} conflicts in {seconds:.4f}s "
        f"({cps / 1000:.1f} kconf/s)"
    )


def _real_solver():
    for name in REAL_SOLVERS:
        if shutil.which(name):
            return name
    return None


@pytest.mark.skipif(_real_solver() is None,
                    reason="no real CDCL solver (picosat/cadical/kissat) "
                           "on PATH")
def test_external_solver_end_to_end(bench, report):
    """A native CDCL binary against the built-in solver on a campaign
    consensus check (3 pnodes / 2 vnodes), subprocess overhead included."""
    from repro.model import build_dynamic
    from repro.sat.external import ExternalSolver
    from repro.sat.solver import solve_cnf

    command = _real_solver()
    translation = build_dynamic(
        num_pnodes=3, num_vnodes=2, max_value=3, edges=[(0, 1), (1, 2)]
    ).translate_check()
    cnf = translation.cnf

    internal_started = time.perf_counter()
    internal_status, _ = solve_cnf(cnf)
    internal_seconds = time.perf_counter() - internal_started

    external = ExternalSolver(command, timeout=120)
    run = bench(external.solve_cnf, cnf)
    assert run.status is internal_status
    seconds = bench._row["seconds"]
    speedup = internal_seconds / max(seconds, 1e-9)
    bench.meta(command=command, external_wall=round(run.wall_seconds, 6),
               internal_seconds=round(internal_seconds, 6),
               speedup_vs_internal=round(speedup, 2))
    report.append(
        f"external={command}: {seconds:.4f}s vs internal "
        f"{internal_seconds:.4f}s ({speedup:.1f}x), verdict {run.status}"
    )
    assert speedup >= 10, (
        f"expected the native solver to be >=10x the built-in one, "
        f"got {speedup:.1f}x"
    )


def main(argv=None) -> int:
    """Profiled conflict-heavy solve: ``--profile [PATH]`` writes the
    cProfile cumulative table (default ``BENCH_solver.profile.txt``) so
    the CI artifact shows what dominates the conflict path."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_solver_kernels.py",
        description="Run the conflict-heavy solve under cProfile.")
    parser.add_argument("--profile", nargs="?", metavar="PATH",
                        const="BENCH_solver.profile.txt",
                        default="BENCH_solver.profile.txt",
                        help="cProfile artifact path "
                             "(default: BENCH_solver.profile.txt)")
    args = parser.parse_args(argv)

    from repro.analysis.profiling import run_profiled

    cnf, guard = conflict_cnf()
    conflicts, seconds = run_profiled(
        lambda: _conflict_solve(cnf, guard), args.profile)
    print(f"{conflicts} conflicts in {seconds:.4f}s")
    print(f"profile: {args.profile}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
