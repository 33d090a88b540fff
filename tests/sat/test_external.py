"""Tests for the external CDCL bridge (`repro.sat.external`).

The whole suite runs without a real third-party solver installed: the
protocol-conformance paths are exercised by *fake* CDCL subprocesses —
small Python scripts written to ``tmp_path`` and invoked through
``sys.executable`` — and the happy path rides the in-tree
``python -m repro.sat.dimacs solve`` CLI, which speaks the same
SAT-competition protocol.  :class:`ExternalSolver` is the SAT engine a
``Session`` drives for ``dimacs:<command>`` names, so the façade tests
at the end run through it.
"""

import os
import shlex
import sys
import textwrap
from pathlib import Path

import pytest

from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.universe import Universe
from repro.sat.cnf import CNF
from repro.sat.external import (
    ExternalRun,
    ExternalSolver,
    ExternalSolverError,
    parse_solver_output,
    split_solver_name,
)
from repro.sat.types import Status

SRC = Path(__file__).resolve().parents[2] / "src"
SELF_HOSTED = [sys.executable, "-m", "repro.sat.dimacs", "solve"]


def sample_cnf():
    cnf = CNF()
    cnf.new_vars(3)
    cnf.extend([[1, 2], [-1, 3], [-2, -3]])
    return cnf


def unsat_cnf():
    cnf = CNF()
    v = cnf.new_var()
    cnf.add_clause([v])
    cnf.add_clause([-v])
    return cnf


def some_r():
    """``some r`` over a unary ``r`` free on three atoms: seven models."""
    universe = Universe(["a", "b", "c"])
    r = ast.Relation("r", 1)
    bounds = Bounds(universe)
    bounds.bound(r, universe.empty(1), universe.all_tuples(1))
    return ast.Some(r), bounds


def fake_solver(tmp_path, body: str) -> list[str]:
    """Write a fake CDCL subprocess and return its argv prefix.

    ``body`` is the script's source after a header that exposes the CNF
    file path as ``path``.
    """
    script = tmp_path / "fake_solver.py"
    script.write_text("import sys, time\npath = sys.argv[-1]\n"
                      + textwrap.dedent(body), encoding="utf-8")
    return [sys.executable, str(script)]


class TestParseSolverOutput:
    def test_sat_with_model(self):
        model = parse_solver_output(
            "c banner\ns SATISFIABLE\nv 1 -2 3 0\n", num_vars=3)
        assert model.values == {1: True, 2: False, 3: True}

    def test_v_lines_split_across_lines(self):
        model = parse_solver_output(
            "s SATISFIABLE\nv 1 -2\nv 3\nv 0\n", num_vars=3)
        assert model.values == {1: True, 2: False, 3: True}

    def test_unmentioned_variables_default_false(self):
        model = parse_solver_output("s SATISFIABLE\nv 2 0\n", num_vars=4)
        assert model.values == {1: False, 2: True, 3: False, 4: False}

    def test_unsat(self):
        # An UNSAT answer prints no v line, so there is no model.
        assert parse_solver_output("s UNSATISFIABLE\n", num_vars=3) is None

    def test_sat_without_v_lines_has_no_model(self):
        assert parse_solver_output("s SATISFIABLE\n", num_vars=3) is None

    def test_malformed_v_token_rejected(self):
        with pytest.raises(ExternalSolverError, match="malformed v-line"):
            parse_solver_output("s SATISFIABLE\nv 1 banana 0\n", num_vars=2)

    def test_model_variable_overflow_rejected(self):
        with pytest.raises(ExternalSolverError, match="variable 9"):
            parse_solver_output("s SATISFIABLE\nv 9 0\n", num_vars=3)


class TestExternalSolverConstruction:
    def test_string_command_is_shlex_split(self):
        solver = ExternalSolver("picosat --some-flag")
        assert solver.command == ["picosat", "--some-flag"]

    def test_list_command_kept_verbatim(self):
        solver = ExternalSolver(SELF_HOSTED)
        assert solver.command == SELF_HOSTED

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError, match="command is empty"):
            ExternalSolver("   ")


class TestSessionEngine:
    """``add_cnf``/``add_clause``/``solve``/``model``/``stats``: the
    surface a ``Session`` drives."""

    def test_one_shot_solver_keeps_the_formula_between_solves(
            self, tmp_path):
        # The fake appends each dumped file's clause lines to a log and
        # answers UNSAT, so the test reads what every process received.
        log = tmp_path / "clauses.log"
        command = fake_solver(tmp_path, f"""
            lines = [l for l in open(path) if l[:1] not in "cp"]
            with open({str(log)!r}, "a") as fh:
                fh.write("|".join(l.strip() for l in lines) + "\\n")
            sys.exit(20)
        """)
        solver = ExternalSolver(command)
        assert solver.add_cnf(sample_cnf())
        assert solver.solve() is Status.UNSAT
        assert solver.add_clause([3])
        assert solver.solve([-1]) is Status.UNSAT
        assert solver.solve() is Status.UNSAT
        assert solver.kernel == "external"
        assert solver.stats["external_invocations"] == 3
        assert solver.stats["external_exit_code"] == 20
        assert solver.stats["external_wall_time"] > 0
        base = "1 2 0|-1 3 0|-2 -3 0"
        assert log.read_text(encoding="utf-8").splitlines() == [
            base, base + "|3 0|-1 0", base + "|3 0"]

    def test_add_cnf_keeps_unmentioned_variables(self):
        cnf = CNF()
        cnf.new_vars(5)
        cnf.add_clause([1])
        solver = ExternalSolver("unused")
        solver.add_cnf(cnf)
        assert solver._cnf.num_vars == 5

    def test_header_counts_clauses_and_assumptions(self, tmp_path):
        # Each process gets a well-formed header: the kept clauses plus
        # one unit clause per assumption, over every variable mentioned.
        log = tmp_path / "headers.log"
        command = fake_solver(tmp_path, f"""
            header = [l for l in open(path) if l.startswith("p ")][0]
            with open({str(log)!r}, "a") as fh:
                fh.write(header)
            sys.exit(20)
        """)
        solver = ExternalSolver(command)
        solver.add_cnf(sample_cnf())
        solver.add_clause([3])
        solver.solve([1, -2])
        solver.solve([5])
        solver.solve()
        assert log.read_text(encoding="utf-8").splitlines() == [
            "p cnf 3 6", "p cnf 5 5", "p cnf 3 4"]

    def test_model_without_a_v_line_names_the_command(self, tmp_path):
        command = fake_solver(tmp_path, """
            print("s SATISFIABLE")
            sys.exit(10)
        """)
        solver = ExternalSolver(command)
        solver.add_cnf(sample_cnf())
        assert solver.solve() is Status.SAT
        assert solver.stats["external_exit_code"] == 10
        with pytest.raises(ExternalSolverError) as excinfo:
            solver.model()
        message = str(excinfo.value)
        assert "reported SAT without a v-line model" in message
        assert " ".join(command) in message

    def test_split_solver_name_takes_the_dimacs_command(self):
        assert split_solver_name("kodkod") is None
        assert split_solver_name("c:/tools/picosat") is None
        assert split_solver_name("dimacs: picosat -v ") == "picosat -v"
        with pytest.raises(ValueError, match="empty external solver"):
            split_solver_name("dimacs:  ")


class TestFakeSolverSubprocess:
    """Protocol conformance against scripted CDCL stand-ins."""

    def test_model_parsing_from_fake_sat_solver(self, tmp_path):
        command = fake_solver(tmp_path, """
            print("c fake cdcl v0.0")
            print("s SATISFIABLE")
            print("v -1 2")
            print("v 3 0")
            sys.exit(10)
        """)
        run = ExternalSolver(command).solve_cnf(sample_cnf())
        assert isinstance(run, ExternalRun)
        assert run.status is Status.SAT
        assert run.exit_code == 10
        assert run.wall_seconds > 0
        assert run.model.values == {1: False, 2: True, 3: True}

    def test_unsat_exit_code(self, tmp_path):
        command = fake_solver(tmp_path, """
            print("s UNSATISFIABLE")
            sys.exit(20)
        """)
        run = ExternalSolver(command).solve_cnf(sample_cnf())
        assert run.status is Status.UNSAT
        assert run.model is None
        assert run.exit_code == 20

    def test_exit_code_overrides_the_s_line(self, tmp_path):
        # Exit codes are the authoritative channel in the competition
        # protocol; a contradictory s-line is not read.
        command = fake_solver(tmp_path, """
            print("s UNSATISFIABLE")
            print("v 1 -2 -3 0")
            sys.exit(10)
        """)
        run = ExternalSolver(command).solve_cnf(sample_cnf())
        assert run.status is Status.SAT
        assert run.model.values == {1: True, 2: False, 3: False}

    def test_exit_code_alone_suffices(self, tmp_path):
        command = fake_solver(tmp_path, "sys.exit(20)\n")
        run = ExternalSolver(command).solve_cnf(sample_cnf())
        assert run.status is Status.UNSAT
        assert run.model is None

    def test_unexpected_exit_code_rejected_with_stderr(self, tmp_path):
        command = fake_solver(tmp_path, """
            print("segfault-ish diagnostics", file=sys.stderr)
            sys.exit(3)
        """)
        with pytest.raises(ExternalSolverError) as excinfo:
            ExternalSolver(command).solve_cnf(sample_cnf())
        message = str(excinfo.value)
        assert "exited with code 3" in message
        assert "segfault-ish diagnostics" in message

    def test_no_status_rejected(self, tmp_path):
        # Exit code 0 is not an answer: the status is the exit code.
        command = fake_solver(tmp_path, """
            print("c chatter only")
            sys.exit(0)
        """)
        with pytest.raises(ExternalSolverError,
                           match="exited with code 0 \\(expected 10"):
            ExternalSolver(command).solve_cnf(sample_cnf())

    def test_malformed_v_line_is_rejected(self, tmp_path):
        command = fake_solver(tmp_path, """
            print("s SATISFIABLE")
            print("v 1 banana 0")
            sys.exit(10)
        """)
        with pytest.raises(ExternalSolverError, match="malformed v-line"):
            ExternalSolver(command).solve_cnf(sample_cnf())

    def test_mid_stream_crash_is_reported(self, tmp_path):
        # The first process dies after half a model; the engine is not
        # burned by it: the next solve is a fresh process.
        crashed = tmp_path / "crashed"
        command = fake_solver(tmp_path, f"""
            import os
            print("s SATISFIABLE")
            if not os.path.exists({str(crashed)!r}):
                open({str(crashed)!r}, "w").close()
                print("v 1", flush=True)
                print("heap corruption", file=sys.stderr)
                sys.exit(1)
            print("v 1 -2 3 0")
            sys.exit(10)
        """)
        solver = ExternalSolver(command)
        solver.add_cnf(sample_cnf())
        with pytest.raises(ExternalSolverError) as excinfo:
            solver.solve()
        message = str(excinfo.value)
        assert "exited with code 1" in message
        assert "heap corruption" in message
        assert solver.solve() is Status.SAT
        assert solver.model().values == {1: True, 2: False, 3: True}
        assert solver.stats["external_invocations"] == 2

    @pytest.mark.parametrize("exit_code", [10, 3], ids=["answer", "crash"])
    def test_the_cnf_file_is_removed(self, tmp_path, exit_code):
        log = tmp_path / "paths.log"
        command = fake_solver(tmp_path, f"""
            with open({str(log)!r}, "w") as fh:
                fh.write(path)
            print("v 0")
            sys.exit({exit_code})
        """)
        try:
            ExternalSolver(command).solve_cnf(sample_cnf())
        except ExternalSolverError:
            assert exit_code == 3
        dumped = Path(log.read_text(encoding="utf-8"))
        assert dumped.suffix == ".cnf"
        assert not dumped.exists()

    def test_timeout_kills_the_child(self, tmp_path):
        command = fake_solver(tmp_path, """
            time.sleep(60)
            sys.exit(10)
        """)
        solver = ExternalSolver(command, timeout=0.5)
        with pytest.raises(ExternalSolverError,
                           match="exceeded the 0.5s timeout"):
            solver.solve_cnf(sample_cnf())

    def test_missing_binary_error_is_actionable(self):
        solver = ExternalSolver("definitely-not-a-solver-xyz")
        with pytest.raises(ExternalSolverError) as excinfo:
            solver.solve_cnf(sample_cnf())
        message = str(excinfo.value)
        assert "'definitely-not-a-solver-xyz' was not found" in message
        assert "picosat" in message  # suggests an installable solver
        assert "repro.sat.dimacs" in message  # and the in-tree fallback

    def test_solver_reads_the_dimacs_file(self, tmp_path):
        # The fake echoes the header back as its model size — proves the
        # temp file actually reaches the child intact.
        command = fake_solver(tmp_path, """
            header = [l for l in open(path) if l.startswith("p cnf")][0]
            num_vars = int(header.split()[2])
            print("s SATISFIABLE")
            print("v", " ".join(str(v) for v in range(1, num_vars + 1)), 0)
            sys.exit(10)
        """)
        run = ExternalSolver(command).solve_cnf(sample_cnf())
        assert run.model.values == {1: True, 2: True, 3: True}


class TestSelfHostedEndToEnd:
    """Round trips through the in-tree CLI as the external binary."""

    @pytest.fixture(autouse=True)
    def _pythonpath(self, monkeypatch):
        # The subprocess needs the src layout importable.
        existing = os.environ.get("PYTHONPATH")
        joined = (f"{SRC}{os.pathsep}{existing}" if existing else str(SRC))
        monkeypatch.setenv("PYTHONPATH", joined)

    def test_sat_round_trip(self):
        cnf = sample_cnf()
        run = ExternalSolver(SELF_HOSTED).solve_cnf(cnf)
        assert run.status is Status.SAT
        for clause in cnf.clauses():
            assert any(run.model.values[abs(l)] == (l > 0) for l in clause)

    def test_unsat_round_trip(self):
        run = ExternalSolver(SELF_HOSTED).solve_cnf(unsat_cnf())
        assert run.status is Status.UNSAT
        assert run.exit_code == 20

    def test_assumptions_do_not_stick(self):
        solver = ExternalSolver(SELF_HOSTED, timeout=60)
        solver.add_cnf(sample_cnf())
        assert solver.solve([-1, 2]) is Status.SAT
        assert solver.solve([1, 2]) is Status.UNSAT
        assert solver.solve() is Status.SAT

    def test_root_unsat_stays_unsat(self):
        solver = ExternalSolver(SELF_HOSTED, timeout=60)
        solver.add_cnf(unsat_cnf())
        assert solver.solve() is Status.UNSAT
        assert solver.solve([1]) is Status.UNSAT
        assert solver.solve() is Status.UNSAT
        assert solver.stats["external_invocations"] == 3

    def test_enumeration_matches_the_in_tree_solver(self):
        # Blocking clauses between solves, one process per round: seven
        # models of one clause over three variables, then UNSAT.
        from repro.sat.solver import Solver

        cnf = CNF()
        cnf.new_vars(3)
        cnf.add_clause([1, 2, 3])

        def models(engine):
            engine.add_cnf(cnf)
            found = set()
            while engine.solve() is Status.SAT:
                values = engine.model().values
                found.add(tuple(sorted(values.items())))
                engine.add_clause([-v if values[v] else v
                                   for v in range(1, cnf.num_vars + 1)])
            return found

        external = ExternalSolver(SELF_HOSTED, timeout=60)
        found = models(external)
        assert len(found) == 7
        assert found == models(Solver())
        assert external.stats["external_invocations"] == 8


class TestDimacsBackendRegistry:
    def test_dimacs_prefix_resolves_dynamically(self):
        from repro.api.backends import KodkodBackend, get_backend

        backend = get_backend("dimacs:picosat")
        assert isinstance(backend, KodkodBackend)
        assert backend.name == "dimacs:picosat"
        # Cached: the same command yields the same instance.
        assert get_backend("dimacs:picosat") is backend

    def test_empty_dimacs_command_rejected(self):
        from repro.api.backends import get_backend

        with pytest.raises(ValueError, match="empty external solver"):
            get_backend("dimacs:   ")

    def test_names_are_normalized(self):
        from repro.api.backends import get_backend

        backend = get_backend("dimacs:  picosat -v ")
        assert backend.name == "dimacs:picosat -v"
        assert backend.command == "picosat -v"
        assert get_backend("dimacs:picosat -v") is backend

    def test_unknown_backend_error_mentions_dimacs(self):
        from repro.api.backends import get_backend

        with pytest.raises(ValueError, match="dimacs:<command>"):
            get_backend("no-such-backend")

    def test_backend_solve_and_enumerate_match_kodkod(self, monkeypatch):
        from repro import api

        existing = os.environ.get("PYTHONPATH")
        joined = (f"{SRC}{os.pathsep}{existing}" if existing else str(SRC))
        monkeypatch.setenv("PYTHONPATH", joined)

        formula, bounds = some_r()
        external = f"dimacs:{' '.join(SELF_HOSTED)}"

        reference = api.solve(formula, bounds, solver="kodkod")
        result = api.solve(formula, bounds, solver=external)
        assert result.verdict == reference.verdict
        assert reference.solver_stats["kernel"] == "pure"
        assert result.solver_stats["kernel"] == "external"
        assert result.solver_stats["external_wall_time"] > 0
        assert result.solver_stats["external_invocations"] == 1

        def keyset(res):
            return {
                tuple(sorted(
                    (rel.name, frozenset(inst.value_of(rel)))
                    for rel in bounds.relations()))
                for inst in res.instances
            }

        ref_enum = api.enumerate(formula, bounds, solver="kodkod", limit=16)
        ext_enum = api.enumerate(formula, bounds, solver=external, limit=16)
        assert len(ext_enum.instances) == 7  # Some(r) over 3 atoms: 2^3 - 1
        assert keyset(ext_enum) == keyset(ref_enum)
        # One process per solve round: 7 models and the closing UNSAT.
        assert ext_enum.solver_stats["external_invocations"] == 8

    def test_unsat_through_the_facade(self, monkeypatch):
        from repro import api

        existing = os.environ.get("PYTHONPATH")
        joined = (f"{SRC}{os.pathsep}{existing}" if existing else str(SRC))
        monkeypatch.setenv("PYTHONPATH", joined)

        formula, bounds = some_r()
        [r] = bounds.relations()
        result = api.solve(formula & ast.No(r), bounds,
                           solver=f"dimacs:{' '.join(SELF_HOSTED)}")
        assert result.verdict is api.Verdict.UNSAT
        assert result.instances == []
        assert result.solver_stats["external_invocations"] == 1
        assert result.solver_stats["external_exit_code"] == 20

    def test_timeout_option_bounds_each_process(self, tmp_path):
        from repro import api

        argv = fake_solver(tmp_path, """
            time.sleep(60)
            sys.exit(10)
        """)
        formula, bounds = some_r()
        with pytest.raises(ExternalSolverError,
                           match="exceeded the 0.5s timeout"):
            api.solve(formula, bounds, solver=f"dimacs:{shlex.join(argv)}",
                      timeout=0.5)

    def test_missing_binary_is_an_error_row(self, tmp_path):
        from repro import api

        formula, bounds = some_r()
        cache_dir = tmp_path / "cache"
        [row] = api.solve_many([api.FormulaProblem(formula, bounds)],
                               solver="dimacs:definitely-not-a-solver-xyz",
                               cache_dir=str(cache_dir))
        assert row.verdict is api.Verdict.ERROR
        assert "'definitely-not-a-solver-xyz' was not found" in row.error
        assert not [p for p in cache_dir.rglob("*") if p.is_file()]


class TestModelessSat:
    """A ``dimacs:`` binary that answers SAT but prints no ``v`` line
    makes the façade raise :class:`ExternalSolverError` naming it."""

    @pytest.fixture
    def mute(self, tmp_path):
        argv = fake_solver(tmp_path, """
            print("s SATISFIABLE")
            sys.exit(10)
        """)
        return argv, f"dimacs:{shlex.join(argv)}"

    @pytest.mark.parametrize("operation", ["solve", "enumerate"])
    def test_facade_raises_naming_the_command(self, mute, operation):
        from repro import api

        argv, name = mute
        formula, bounds = some_r()
        with pytest.raises(ExternalSolverError,
                           match="reported SAT without a v-line model"
                           ) as excinfo:
            getattr(api, operation)(formula, bounds, solver=name)
        assert " ".join(argv) in str(excinfo.value)


class TestLyingSolver:
    """A SAT engine that answers with a non-model yields an error, never a
    verdict: every relational answer is checked against its goal."""

    CHECK_ERROR = "SAT instance does not satisfy the goal formula"

    @pytest.fixture
    def liar(self, tmp_path):
        """``(solver name, spawn log)`` of a solver that claims every
        formula is SAT with the all-false model."""
        log = tmp_path / "spawns.log"
        argv = fake_solver(tmp_path, f"""
            with open({str(log)!r}, "a") as fh:
                fh.write("spawn\\n")
            print("s SATISFIABLE")
            print("v 0")
            sys.exit(10)
        """)
        return f"dimacs:{shlex.join(argv)}", log

    def test_solve_raises_the_check_error(self, liar):
        from repro import api

        name, _ = liar
        formula, bounds = some_r()
        with pytest.raises(AssertionError, match=self.CHECK_ERROR):
            api.solve(formula, bounds, solver=name, symmetry=0)

    def test_enumerate_raises_the_check_error(self, liar):
        from repro import api

        name, _ = liar
        formula, bounds = some_r()
        with pytest.raises(AssertionError, match=self.CHECK_ERROR):
            api.enumerate(formula, bounds, solver=name, limit=3)

    def test_check_stops_the_search_at_the_first_bad_model(self, liar):
        from repro import api

        name, log = liar
        formula, bounds = some_r()
        with pytest.raises(AssertionError, match=self.CHECK_ERROR):
            api.enumerate(formula, bounds, solver=name)
        assert log.read_text(encoding="utf-8") == "spawn\n"

    def test_batch_row_is_an_error_and_is_not_cached(self, liar, tmp_path):
        from repro import api

        name, _ = liar
        formula, bounds = some_r()
        cache_dir = tmp_path / "cache"
        [row] = api.solve_many([api.FormulaProblem(formula, bounds)],
                               solver=name, symmetry=0,
                               cache_dir=str(cache_dir))
        assert row.verdict is api.Verdict.ERROR
        assert self.CHECK_ERROR in row.error
        assert not [p for p in cache_dir.rglob("*") if p.is_file()]
