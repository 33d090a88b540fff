"""Benchmark: Section IV "Abstractions Efficiency" — naive vs optimized.

Paper (at scope 3 pnodes, 2 vnodes): the naive model (ternary relations +
Alloy Int) generated ~259K SAT clauses; replacing ternary relations with
binary ones through ``bidTriple`` and Int with the custom ``value``
signature reduced it to ~190K, and the consensus check from ~a day to
under two hours.

We regenerate the comparison with our clean-room translator.  Absolute
counts differ from Alloy 4's (different translator, and our dynamic model
is leaner), but the paper's shape must hold: the optimized encoding is
strictly smaller and faster at every scope, and the gap grows with scope.
"""

import pytest

from repro.analysis import render_table
from repro.model import build_dynamic, compare_encodings
from repro.model.static_naive import build_naive_static
from repro.model.static_optim import build_optim_static
from repro.api import FormulaProblem
from repro.api import solve as api_solve
from repro.kodkod.translate import Translator
from repro.sat.solver import Solver
from repro.sat.types import Status

SCOPES = [(2, 2), (3, 2), (3, 3)]


def _compile(encoding_kind, pnodes, vnodes):
    if encoding_kind == "naive":
        model = build_naive_static(max_int=15)
    else:
        model = build_optim_static(max_value=3)
    _, bounds, facts = model.compile(pnodes, vnodes)
    return bounds, facts


@pytest.mark.parametrize("encoding_kind", ["naive", "optim"])
def test_end_to_end_translate_solve(bench, report, encoding_kind):
    """The headline ``BENCH_encoding.json`` row: translate+solve end to
    end at the largest seed scope (3 pnodes, 3 vnodes)."""
    bounds, facts = _compile(encoding_kind, 3, 3)

    def run():
        translation = Translator(bounds, symmetry=20).translate(facts)
        solver = Solver()
        solver.add_cnf(translation.cnf)
        return translation, solver, solver.solve()

    translation, solver, status = bench(run)
    assert status is Status.SAT
    stats = translation.stats
    bench.meta(
        scope="3p3v",
        clauses=stats.num_clauses,
        cnf_vars=stats.num_cnf_vars,
        gates=stats.num_gates,
        gates_raw=stats.num_gates_raw,
        clauses_saved_by_polarity=stats.num_clauses_saved_by_polarity,
        propagations=solver.stats["propagations"],
    )
    report.append(render_table(
        ["encoding", "clauses", "gates (raw -> built)", "saved by polarity"],
        [[encoding_kind, stats.num_clauses,
          f"{stats.num_gates_raw} -> {stats.num_gates}",
          stats.num_clauses_saved_by_polarity]],
        title=f"end-to-end translate+solve at (3,3), {encoding_kind} model",
    ))


def test_polarity_aware_encoding_shrinks_check_problems(bench, report):
    """A ``check`` compiles to one root-negated assertion — exactly the
    single-polarity shape Plaisted-Greenbaum exploits.  The polarity-aware
    encoding must emit strictly fewer clauses than bipolar Tseitin on the
    same consensus check."""
    model = build_dynamic(num_pnodes=2, num_vnodes=2, max_value=3)

    def run():
        return model.translate_check()

    pg = bench(run)
    from repro.kodkod import ast

    goal = ast.And([model.facts, ast.Not(model.consensus_assertion)])
    tseitin = Translator(pg.bounds, cnf_encoding="tseitin").translate(goal)
    assert pg.stats.num_clauses < tseitin.stats.num_clauses
    assert pg.stats.num_clauses_saved_by_polarity > 0
    ratio = pg.stats.num_clauses / tseitin.stats.num_clauses
    bench.meta(
        pg_clauses=pg.stats.num_clauses,
        tseitin_clauses=tseitin.stats.num_clauses,
        clause_ratio=round(ratio, 3),
        clauses_saved_by_polarity=pg.stats.num_clauses_saved_by_polarity,
    )
    report.append(render_table(
        ["pg clauses", "tseitin clauses", "ratio"],
        [[pg.stats.num_clauses, tseitin.stats.num_clauses, f"{ratio:.2f}"]],
        title="polarity-aware vs bipolar clause count on check_consensus (2,2)",
    ))


@pytest.mark.parametrize("pnodes,vnodes", SCOPES)
def test_encoding_comparison(bench, report, pnodes, vnodes):
    comparison = bench(compare_encodings, pnodes, vnodes)
    assert comparison.optim_clauses < comparison.naive_clauses
    assert comparison.optim_vars < comparison.naive_vars
    report.append(render_table(
        ["scope", "naive clauses", "optim clauses", "ratio",
         "naive vars", "optim vars"],
        [[f"{pnodes}p/{vnodes}v", comparison.naive_clauses,
          comparison.optim_clauses, f"{comparison.clause_ratio:.2f}",
          comparison.naive_vars, comparison.optim_vars]],
        title=f"Section IV encoding comparison at scope ({pnodes},{vnodes}) "
              "(paper at (3,2): 259K -> 190K, ratio 0.73)",
    ))


def test_gap_grows_with_scope():
    small = compare_encodings(2, 2)
    large = compare_encodings(3, 3)
    gap_small = small.naive_clauses - small.optim_clauses
    gap_large = large.naive_clauses - large.optim_clauses
    assert gap_large > gap_small


@pytest.mark.parametrize("encoding", ["naive", "optim"])
def test_solve_time_per_encoding(bench, report, encoding):
    """Paper: the optimized model's checks ran ~12x faster.  We measure
    end-to-end (translate + solve) consistency finding per encoding."""
    def run():
        if encoding == "naive":
            model = build_naive_static(max_int=15)
            _, bounds, facts = model.compile(3, 2)
        else:
            model = build_optim_static(max_value=3)
            _, bounds, facts = model.compile(3, 2)
        return api_solve(FormulaProblem(facts, bounds))

    solution = bench(run)
    assert solution.satisfiable
    report.append(render_table(
        ["encoding", "conflicts", "propagations", "learned", "db reductions"],
        [[encoding, solution.solver_stats.get("conflicts", 0),
          solution.solver_stats.get("propagations", 0),
          solution.solver_stats.get("learned", 0),
          solution.solver_stats.get("db_reductions", 0)]],
        title=f"solver search statistics ({encoding} encoding at (3,2))",
    ))


def test_enumeration_with_symmetry_breaking(bench, report):
    """Symmetry breaking on a scenario with interchangeable agents: every
    item goes to exactly one of four indistinguishable agents, so models
    that only rename agents are isomorphic.  Lex-leader predicates must
    strictly reduce the enumerated count without losing satisfiability."""
    from repro.kodkod import Bounds, Universe, ast, forall, variable
    from repro.kodkod.engine import Session

    agents = [f"p{i}" for i in range(4)]
    items = [f"v{i}" for i in range(3)]
    universe = Universe(agents + items)
    item_sig = ast.Relation("item", 1)
    alloc = ast.Relation("alloc", 2)
    bounds = Bounds(universe)
    bounds.bound_exactly(item_sig, universe.tuple_set(1, [(v,) for v in items]))
    bounds.bound(
        alloc,
        universe.empty(2),
        universe.tuple_set(2, [(v, p) for v in items for p in agents]),
    )
    x = variable("x")
    every_item_assigned = forall(x, item_sig, x.join(alloc).one())

    def enumerate_plain():
        return sum(
            1 for _ in Session(every_item_assigned, bounds).iter_solutions()
        )

    plain = bench(enumerate_plain)
    broken_session = Session(every_item_assigned, bounds, symmetry=20)
    broken = sum(1 for _ in broken_session.iter_solutions())
    assert plain == len(agents) ** len(items)  # 4 choices per item
    assert 0 < broken < plain
    report.append(render_table(
        ["models (plain)", "models (symmetry)", "ratio"],
        [[plain, broken, f"{broken / plain:.2f}"]],
        title="enumeration with 4 interchangeable agents, 3 items",
    ))


def test_incremental_enumeration_clause_db(bench, report):
    """Enumerate optimized-model instances through one incremental Session
    (blocking clauses on a single live solver) with a deliberately small
    learned-clause budget: the clause database must be reduced along the
    way instead of growing without bound."""
    from repro.kodkod.engine import Session
    from repro.sat.solver import Solver

    model = build_optim_static(max_value=3)
    _, bounds, facts = model.compile(2, 2)

    def enumerate_capped():
        session = Session(
            facts, bounds, solver=Solver(max_learned=150, reduce_growth=1.1)
        )
        count = sum(1 for _ in session.iter_solutions(limit=300))
        return count, session.clause_db_stats()

    count, db = bench(enumerate_capped)
    assert count == 300
    assert db["db_reductions"] > 0
    assert db["learned_deleted"] > 0
    report.append(render_table(
        ["models", "learned total", "learned kept", "deleted",
         "db reductions", "glue", "avg lbd"],
        [[count, int(db["learned_total"]), int(db["learned_clauses"]),
          int(db["learned_deleted"]), int(db["db_reductions"]),
          int(db["glue_clauses"]), f"{db['avg_lbd']:.1f}"]],
        title="incremental enumeration at (2,2) with a 150-clause DB budget",
    ))
