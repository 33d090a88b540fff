"""Benchmark: propagation kernels, the conflict path, and external CDCL.

The vector kernel (``Solver(kernel="vector")``) bulk-filters watcher
lists with numpy while keeping the search trajectory bit-identical to the
pure interpreter.  Two workload shapes are measured:

* **propagation-heavy** (``chain_cnf``): almost all time is spent
  scanning long watcher lists whose blockers are already true — the
  shape the propagation filter vectorizes;
* **conflict-heavy** (``conflict_cnf``): an unsatisfiable pigeonhole
  core whose every core literal fans out into hundreds of never-mutating
  noise clauses, so the solver both dives through ``_analyze`` /
  ``_minimize`` / VSIDS bumping thousands of times *and* scans watcher
  lists the vector filter can prune in one operation — end to end, the
  shape the conflict-path kernel assists target.

Rows land in ``BENCH_solver.json`` with per-row throughput metadata;
the cross-kernel ratio of the same run is recorded in the ``[vector]``
rows' ``speedup_vs_pure`` metadata, so the artifact reads the same on
any hardware.

CI regression gates: ``test_vector_kernel_not_slower_than_pure`` (the
propagation workload must never fall behind the interpreter) and
``test_vector_conflict_speedup`` (the conflict-heavy workload must stay
≥2x end to end).

The external row times a real CDCL binary (picosat/cadical/kissat, if
one is on PATH) against the built-in solver on a campaign-sized consensus
check, and is skipped — not failed — when none is installed.

Run as a script for a profiled conflict-heavy sweep (uploaded by the CI
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
# clauses (-c_i, -g, x_j) whose blocker -g is already true, so whole
# watcher lists vanish in one vectorized filter.
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


def _warm_solver(kernel):
    cnf, g = chain_cnf()
    solver = Solver(kernel=kernel)
    assert solver.add_cnf(cnf)
    assert solver.solve([-g]) is Status.SAT  # builds watch lists + caches
    return solver, g


def _throughput(kernel, solves=SOLVES_PER_RUN):
    """(propagations, seconds) for ``solves`` warm assumption solves."""
    solver, g = _warm_solver(kernel)
    before = solver.stats["propagations"]
    started = time.perf_counter()
    for _ in range(solves):
        assert solver.solve([-g]) is Status.SAT
    seconds = time.perf_counter() - started
    return solver.stats["propagations"] - before, seconds


# Seconds of the pure row of each workload, stashed so the [vector] row
# of the same session can record the cross-kernel ratio measured on the
# *same* hardware (parametrize order runs pure first).
_PURE_SECONDS: dict[str, float] = {}


def _cross_kernel_meta(bench, workload: str, kernel: str, seconds: float):
    """Record the within-run vector-vs-pure ratio on the [vector] row."""
    if kernel == "pure":
        _PURE_SECONDS[workload] = seconds
    elif workload in _PURE_SECONDS:
        bench.meta(speedup_vs_pure=round(
            _PURE_SECONDS[workload] / max(seconds, 1e-9), 2))


@pytest.mark.parametrize("kernel", ["pure", "vector"])
def test_propagation_throughput(bench, report, kernel):
    if kernel == "vector":
        pytest.importorskip("numpy")
    solver, g = _warm_solver(kernel)

    def run():
        before = solver.stats["propagations"]
        for _ in range(SOLVES_PER_RUN):
            assert solver.solve([-g]) is Status.SAT
        return solver.stats["propagations"] - before

    propagations = bench(run)
    seconds = bench._row["seconds"]
    pps = propagations / max(seconds, 1e-9)
    bench.meta(kernel=solver.kernel, propagations=propagations,
               propagations_per_second=round(pps))
    _cross_kernel_meta(bench, "propagation", kernel, seconds)
    report.append(
        f"kernel={kernel}: {propagations} propagations in {seconds:.4f}s "
        f"({pps / 1000:.0f} kprops/s)"
    )


def test_vector_kernel_not_slower_than_pure():
    """CI regression gate: the vector kernel must not fall behind the
    interpreter on the workload built for it (best-of-3 each)."""
    pytest.importorskip("numpy")
    pure_pps = max(
        props / max(secs, 1e-9)
        for props, secs in (_throughput("pure", solves=5) for _ in range(3))
    )
    vector_pps = max(
        props / max(secs, 1e-9)
        for props, secs in (_throughput("vector", solves=5) for _ in range(3))
    )
    assert vector_pps >= pure_pps, (
        f"vector kernel regressed below pure: "
        f"{vector_pps:.0f} < {pure_pps:.0f} propagations/s"
    )


# Conflict-heavy shape: an unsatisfiable pigeonhole core (clause/var
# ratio >> 4, forces deep repeated _analyze/_minimize/VSIDS churn) whose
# every core literal v gets a mirror m (clause (v, m): falsifying v
# propagates m) fanning out into `fanout` noise clauses (-m, -guard,
# x_j).  Under the assumption -guard those noise lists consist entirely
# of blocker-true entries that never mutate, so the vector filter prunes
# each list in one cached operation while the interpreter walks all
# `fanout` entries — and the conflict-path assists batch the analysis
# work the pigeonhole core generates.
PHP_HOLES = 6
NOISE_FANOUT = 800
CONFLICT_GATE_SPEEDUP = 2.0


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


def _conflict_solve(kernel, cnf, guard):
    """One cold end-to-end solve; returns (conflicts, seconds)."""
    solver = Solver(kernel=kernel)
    assert solver.add_cnf(cnf)
    started = time.perf_counter()
    status = solver.solve([-guard])
    seconds = time.perf_counter() - started
    assert status is Status.UNSAT
    return solver.stats["conflicts"], seconds


@pytest.mark.parametrize("kernel", ["pure", "vector"])
def test_conflict_throughput(bench, report, kernel):
    """End-to-end conflict-heavy solve (cold solver per run)."""
    if kernel == "vector":
        pytest.importorskip("numpy")
    cnf, guard = conflict_cnf()
    conflicts = bench(lambda: _conflict_solve(kernel, cnf, guard)[0])
    seconds = bench._row["seconds"]
    cps = conflicts / max(seconds, 1e-9)
    bench.meta(kernel=kernel, conflicts=conflicts,
               conflicts_per_second=round(cps),
               holes=PHP_HOLES, fanout=NOISE_FANOUT)
    _cross_kernel_meta(bench, "conflict", kernel, seconds)
    report.append(
        f"conflict kernel={kernel}: {conflicts} conflicts in {seconds:.4f}s "
        f"({cps / 1000:.1f} kconf/s)"
    )


def test_vector_conflict_speedup(report):
    """CI regression gate: ≥2x end-to-end on the conflict-heavy workload
    (best-of-2 each; the ratio is hardware-independent)."""
    pytest.importorskip("numpy")
    cnf, guard = conflict_cnf()
    pure_conflicts, pure_secs = min(
        (_conflict_solve("pure", cnf, guard) for _ in range(2)),
        key=lambda pair: pair[1])
    vector_conflicts, vector_secs = min(
        (_conflict_solve("vector", cnf, guard) for _ in range(2)),
        key=lambda pair: pair[1])
    # Bit-identical trajectories are asserted by the differential tests;
    # re-check the cheap invariant here so a divergence cannot masquerade
    # as a speedup.
    assert vector_conflicts == pure_conflicts
    speedup = pure_secs / max(vector_secs, 1e-9)
    report.append(
        f"conflict gate: pure {pure_secs:.4f}s vs vector {vector_secs:.4f}s "
        f"({speedup:.2f}x)"
    )
    assert speedup >= CONFLICT_GATE_SPEEDUP, (
        f"vector kernel below the {CONFLICT_GATE_SPEEDUP}x gate on the "
        f"conflict-heavy workload: pure {pure_secs:.4f}s / "
        f"vector {vector_secs:.4f}s = {speedup:.2f}x"
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
    """Profiled conflict-heavy sweep: ``--profile [PATH]`` writes the
    cProfile cumulative table (default ``BENCH_solver.profile.txt``) so
    the CI artifact shows what dominates the conflict path."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_solver_kernels.py",
        description="Run the conflict-heavy kernel sweep under cProfile.")
    parser.add_argument("--profile", nargs="?", metavar="PATH",
                        const="BENCH_solver.profile.txt",
                        default="BENCH_solver.profile.txt",
                        help="cProfile artifact path "
                             "(default: BENCH_solver.profile.txt)")
    args = parser.parse_args(argv)

    from repro.analysis.profiling import run_profiled

    cnf, guard = conflict_cnf()

    def sweep():
        return {kernel: _conflict_solve(kernel, cnf, guard)
                for kernel in ("pure", "vector")}

    results = run_profiled(sweep, args.profile)
    (pure_conflicts, pure_secs) = results["pure"]
    (vector_conflicts, vector_secs) = results["vector"]
    print(f"pure:   {pure_conflicts} conflicts in {pure_secs:.4f}s")
    print(f"vector: {vector_conflicts} conflicts in {vector_secs:.4f}s "
          f"({pure_secs / max(vector_secs, 1e-9):.2f}x)")
    print(f"profile: {args.profile}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
