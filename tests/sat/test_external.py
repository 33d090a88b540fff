"""Tests for the external CDCL bridge (`repro.sat.external`).

The whole suite runs without a real third-party solver installed: the
protocol-conformance paths are exercised by *fake* CDCL subprocesses —
small Python scripts written to ``tmp_path`` and invoked through
``sys.executable`` — and the happy path rides the in-tree
``python -m repro.sat.dimacs solve`` CLI, which speaks the same
SAT-competition protocol.
"""

import os
import shlex
import sys
import textwrap
from pathlib import Path

import pytest

from repro.sat.cnf import CNF
from repro.sat.external import (
    ExternalRun,
    ExternalSolver,
    ExternalSolverError,
    IncrementalExternalSolver,
    open_external,
    parse_solver_output,
    split_solver_name,
)
from repro.sat.types import Status

SRC = Path(__file__).resolve().parents[2] / "src"
SELF_HOSTED = [sys.executable, "-m", "repro.sat.dimacs", "solve"]
INC_SELF_HOSTED = SELF_HOSTED + ["--incremental"]


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


def fake_solver(tmp_path, body: str) -> list[str]:
    """Write a fake CDCL subprocess and return its argv prefix.

    ``body`` is the script's source after a header that exposes the CNF
    file path as ``path``.
    """
    script = tmp_path / "fake_solver.py"
    script.write_text("import sys, time\npath = sys.argv[-1]\n"
                      + textwrap.dedent(body), encoding="utf-8")
    return [sys.executable, str(script)]


def fake_inc_solver(tmp_path, body: str) -> list[str]:
    """Write a fake *incremental* CDCL server and return its argv.

    ``body`` runs after a header that provides ``answer(*lines)`` (print
    + flush — piped stdout is block-buffered, so unflushed answers would
    hang the client) and an ``asks()`` generator yielding each stripped
    ``a``-line request from stdin.
    """
    script = tmp_path / "fake_inc_solver.py"
    script.write_text(textwrap.dedent("""\
        import sys, time

        def answer(*lines):
            for line in lines:
                print(line)
            sys.stdout.flush()

        def asks():
            for raw in sys.stdin:
                line = raw.strip()
                if line.startswith("a"):
                    yield line
    """) + textwrap.dedent(body), encoding="utf-8")
    return [sys.executable, str(script)]


class TestParseSolverOutput:
    def test_sat_with_model(self):
        status, model = parse_solver_output(
            "c banner\ns SATISFIABLE\nv 1 -2 3 0\n", num_vars=3)
        assert status is Status.SAT
        assert model.values == {1: True, 2: False, 3: True}

    def test_v_lines_split_across_lines(self):
        status, model = parse_solver_output(
            "s SATISFIABLE\nv 1 -2\nv 3\nv 0\n", num_vars=3)
        assert status is Status.SAT
        assert model.values == {1: True, 2: False, 3: True}

    def test_unsat(self):
        status, model = parse_solver_output("s UNSATISFIABLE\n", num_vars=3)
        assert status is Status.UNSAT
        assert model is None

    def test_exit_code_overrides_s_line(self):
        # Exit codes are the authoritative channel in the competition
        # protocol; a contradictory s-line loses.
        status, _ = parse_solver_output(
            "s UNSATISFIABLE\nv 1 0\n", num_vars=1, exit_code=10)
        assert status is Status.SAT

    def test_exit_code_alone_suffices(self):
        status, model = parse_solver_output("", num_vars=2, exit_code=20)
        assert status is Status.UNSAT
        assert model is None

    def test_unmentioned_variables_default_false(self):
        _, model = parse_solver_output(
            "s SATISFIABLE\nv 2 0\n", num_vars=4)
        assert model.values == {1: False, 2: True, 3: False, 4: False}

    def test_sat_without_v_lines_has_no_model(self):
        status, model = parse_solver_output("s SATISFIABLE\n", num_vars=3)
        assert status is Status.SAT
        assert model is None

    def test_no_status_rejected(self):
        with pytest.raises(ExternalSolverError, match="no 's SATISFIABLE'"):
            parse_solver_output("c chatter only\n", num_vars=1)

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


class TestSharedSurface:
    """Both external solvers answer ``load_cnf``/``add_clause``/``solve``."""

    def test_one_shot_solver_keeps_the_formula_between_solves(
            self, tmp_path):
        # The fake echoes each dumped file's clause lines back on stderr
        # and answers UNSAT, so the test reads what every spawn received.
        log = tmp_path / "clauses.log"
        command = fake_solver(tmp_path, f"""
            lines = [l for l in open(path) if l[:1] not in "cp"]
            with open({str(log)!r}, "a") as fh:
                fh.write("|".join(l.strip() for l in lines) + "\\n")
            sys.exit(20)
        """)
        with ExternalSolver(command) as solver:
            solver.load_cnf(sample_cnf())
            assert solver.solve().status is Status.UNSAT
            solver.add_clause([3])
            assert solver.solve([-1]).status is Status.UNSAT
            assert solver.solve().status is Status.UNSAT
            assert solver.spawn_count == solver.solve_count == 3
        base = "1 2 0|-1 3 0|-2 -3 0"
        assert log.read_text(encoding="utf-8").splitlines() == [
            base, base + "|3 0|-1 0", base + "|3 0"]

    def test_load_keeps_unmentioned_variables(self):
        cnf = CNF()
        cnf.new_vars(5)
        cnf.add_clause([1])
        solver = ExternalSolver("unused")
        solver.load_cnf(cnf)
        assert solver._cnf.num_vars == 5

    def test_names_select_the_protocol(self):
        assert split_solver_name("kodkod") is None
        assert split_solver_name("c:/tools/picosat") is None
        assert split_solver_name("dimacs: picosat -v ") == (
            "dimacs", "picosat -v")
        assert split_solver_name("dimacs-inc:x --incremental") == (
            "dimacs-inc", "x --incremental")
        one_shot = open_external("dimacs:picosat", timeout=5)
        assert type(one_shot) is ExternalSolver
        assert one_shot.command == ["picosat"] and one_shot.timeout == 5
        incremental = open_external("dimacs-inc:picosat-inc")
        assert type(incremental) is IncrementalExternalSolver
        assert incremental.command == ["picosat-inc"]
        assert incremental.spawn_count == 0  # nothing spawned yet
        with pytest.raises(ValueError, match="empty external solver"):
            split_solver_name("dimacs-inc:  ")


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

    def test_unknown_backend_error_mentions_dimacs(self):
        from repro.api.backends import get_backend

        with pytest.raises(ValueError, match="dimacs:<command>"):
            get_backend("no-such-backend")

    def test_backend_solve_and_enumerate_match_kodkod(self, monkeypatch):
        from repro import api
        from repro.kodkod import ast
        from repro.kodkod.bounds import Bounds
        from repro.kodkod.universe import Universe

        existing = os.environ.get("PYTHONPATH")
        joined = (f"{SRC}{os.pathsep}{existing}" if existing else str(SRC))
        monkeypatch.setenv("PYTHONPATH", joined)

        universe = Universe(["a", "b", "c"])
        r = ast.Relation("r", 1)
        bounds = Bounds(universe)
        bounds.bound(r, universe.empty(1), universe.all_tuples(1))
        formula = ast.Some(r)
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
        assert len(ext_enum.instances) == len(ref_enum.instances)
        assert keyset(ext_enum) == keyset(ref_enum)
        assert ext_enum.solver_stats["external_invocations"] >= \
            len(ext_enum.instances)


class TestIncrementalFakeSolver:
    """iCNF protocol conformance against scripted incremental servers."""

    def test_one_spawn_for_many_solve_rounds(self, tmp_path):
        # The fake stamps a marker file on every spawn: three solve
        # rounds (SAT, SAT, UNSAT) must leave exactly one stamp.
        marker = tmp_path / "spawns.log"
        command = fake_inc_solver(tmp_path, f"""
            with open({str(marker)!r}, "a") as fh:
                fh.write("spawn\\n")
            rounds = iter([
                ("s SATISFIABLE", "v 1 2 0"),
                ("s SATISFIABLE", "v -1 2 0"),
                ("s UNSATISFIABLE",),
            ])
            for _ in asks():
                answer(*next(rounds))
        """)
        with IncrementalExternalSolver(command, timeout=30) as inc:
            inc.load_cnf(sample_cnf())
            first = inc.solve()
            assert first.status is Status.SAT
            assert first.model.values == {1: True, 2: True, 3: False}
            inc.add_clause([-1, -2])
            second = inc.solve()
            assert second.status is Status.SAT
            assert second.model.values == {1: False, 2: True, 3: False}
            inc.add_clause([1, -2])
            assert inc.solve().status is Status.UNSAT
            assert inc.spawn_count == 1
            assert inc.solve_count == 3
        assert marker.read_text(encoding="utf-8") == "spawn\n"

    def test_server_receives_header_clauses_and_assumptions(self, tmp_path):
        # The fake echoes its full stdin transcript to a file so the
        # client's protocol framing can be asserted verbatim.
        transcript = tmp_path / "stdin.log"
        command = fake_inc_solver(tmp_path, f"""
            log = open({str(transcript)!r}, "a")
            for raw in sys.stdin:
                log.write(raw)
                log.flush()
                if raw.strip().startswith("a"):
                    answer("s UNSATISFIABLE")
        """)
        with IncrementalExternalSolver(command, timeout=30) as inc:
            inc.load_cnf(sample_cnf())
            inc.add_clause([3])
            assert inc.solve([1, -2]).status is Status.UNSAT
        lines = transcript.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "p inccnf"
        assert lines[1:4] == ["1 2 0", "-1 3 0", "-2 -3 0"]
        assert lines[4] == "3 0"
        assert lines[5] == "a 1 -2 0"

    def test_mid_stream_crash_is_reported(self, tmp_path):
        command = fake_inc_solver(tmp_path, """
            next(asks())
            answer("s SATISFIABLE", "v 1")  # dies before the terminator
            print("heap corruption", file=sys.stderr)
            sys.exit(1)
        """)
        inc = IncrementalExternalSolver(command, timeout=30)
        inc.load_cnf(sample_cnf())
        with pytest.raises(ExternalSolverError) as excinfo:
            inc.solve()
        message = str(excinfo.value)
        assert "exited mid-solve" in message
        assert "heap corruption" in message
        # The instance is burned: further use must fail fast, not hang.
        with pytest.raises(ExternalSolverError, match="already failed"):
            inc.solve()

    def test_malformed_v_line_is_rejected(self, tmp_path):
        command = fake_inc_solver(tmp_path, """
            for _ in asks():
                answer("s SATISFIABLE", "v 1 banana 0")
        """)
        inc = IncrementalExternalSolver(command, timeout=30)
        inc.load_cnf(sample_cnf())
        with pytest.raises(ExternalSolverError, match="malformed v-line"):
            inc.solve()

    def test_timeout_kills_the_persistent_process(self, tmp_path):
        command = fake_inc_solver(tmp_path, """
            next(asks())
            time.sleep(60)
        """)
        inc = IncrementalExternalSolver(command, timeout=0.5)
        inc.load_cnf(sample_cnf())
        with pytest.raises(ExternalSolverError,
                           match="exceeded the 0.5s per-solve timeout"):
            inc.solve()
        # The child must actually be dead, not orphaned.
        assert inc._process.poll() is not None

    def test_one_shot_solver_dies_with_actionable_error(self, tmp_path):
        # A non-incremental command (exits after reading stdin once) must
        # produce the "use dimacs: instead" hint, not a hang.
        command = fake_inc_solver(tmp_path, """
            sys.stdin.read()
            sys.exit(0)
        """)
        inc = IncrementalExternalSolver(command, timeout=10)
        inc.load_cnf(sample_cnf())
        with pytest.raises(ExternalSolverError):
            inc.solve()

    def test_missing_binary_error_is_actionable(self):
        inc = IncrementalExternalSolver("definitely-not-a-solver-xyz")
        with pytest.raises(ExternalSolverError, match="was not found"):
            inc.load_cnf(sample_cnf())

    def test_empty_command_rejected(self):
        with pytest.raises(ValueError, match="command is empty"):
            IncrementalExternalSolver("   ")


class TestIncrementalSelfHosted:
    """The in-tree ``solve --incremental`` server as the external binary."""

    @pytest.fixture(autouse=True)
    def _pythonpath(self, monkeypatch):
        existing = os.environ.get("PYTHONPATH")
        joined = (f"{SRC}{os.pathsep}{existing}" if existing else str(SRC))
        monkeypatch.setenv("PYTHONPATH", joined)

    def test_enumeration_reuses_one_process(self):
        # One clause over three vars: seven models, so the single process
        # serves 8 solve rounds (7 SAT + the closing UNSAT).
        cnf = CNF()
        cnf.new_vars(3)
        cnf.add_clause([1, 2, 3])
        with IncrementalExternalSolver(INC_SELF_HOSTED, timeout=60) as inc:
            inc.load_cnf(cnf)
            models = []
            while True:
                run = inc.solve()
                if run.status is not Status.SAT:
                    break
                for clause in cnf.clauses():
                    assert any(run.model.values[abs(l)] == (l > 0)
                               for l in clause)
                models.append(tuple(sorted(run.model.values.items())))
                inc.add_clause([-v if run.model.values[v] else v
                                for v in range(1, cnf.num_vars + 1)])
            assert inc.spawn_count == 1
            assert inc.solve_count == len(models) + 1
        assert len(models) == len(set(models)) == 7

    def test_matches_one_shot_model_set(self):
        # The incremental server and the one-shot CLI must enumerate the
        # exact same model set of the same formula.
        cnf = sample_cnf()

        one_shot = set()
        working = cnf.copy()
        while True:
            run = ExternalSolver(SELF_HOSTED, timeout=60).solve_cnf(working)
            if run.status is not Status.SAT:
                break
            one_shot.add(tuple(sorted(run.model.values.items())))
            working.add_clause([-v if run.model.values[v] else v
                                for v in range(1, cnf.num_vars + 1)])

        incremental = set()
        with IncrementalExternalSolver(INC_SELF_HOSTED, timeout=60) as inc:
            inc.load_cnf(cnf)
            while True:
                run = inc.solve()
                if run.status is not Status.SAT:
                    break
                incremental.add(tuple(sorted(run.model.values.items())))
                inc.add_clause([-v if run.model.values[v] else v
                                for v in range(1, cnf.num_vars + 1)])
        assert incremental == one_shot

    def test_unsat_and_assumptions(self):
        with IncrementalExternalSolver(INC_SELF_HOSTED, timeout=60) as inc:
            inc.load_cnf(sample_cnf())
            assert inc.solve([-1, 2]).status is Status.SAT
            assert inc.solve([1, 2]).status is Status.UNSAT
            # Assumptions do not stick: the next free solve is SAT again.
            assert inc.solve().status is Status.SAT

    def test_root_unsat_stays_unsat(self):
        with IncrementalExternalSolver(INC_SELF_HOSTED, timeout=60) as inc:
            inc.load_cnf(unsat_cnf())
            assert inc.solve().status is Status.UNSAT
            assert inc.solve().status is Status.UNSAT


class TestDimacsIncBackend:
    """The ``dimacs-inc:`` registry prefix and one-spawn enumeration."""

    @pytest.fixture(autouse=True)
    def _pythonpath(self, monkeypatch):
        existing = os.environ.get("PYTHONPATH")
        joined = (f"{SRC}{os.pathsep}{existing}" if existing else str(SRC))
        monkeypatch.setenv("PYTHONPATH", joined)

    def test_prefix_resolves_dynamically(self):
        from repro.api.backends import KodkodBackend, get_backend

        backend = get_backend("dimacs-inc:picosat-inc")
        assert isinstance(backend, KodkodBackend)
        assert backend.name == "dimacs-inc:picosat-inc"
        assert get_backend("dimacs-inc:picosat-inc") is backend
        # The inc cache is keyed separately from the one-shot cache.
        assert get_backend("dimacs:picosat-inc") is not backend

    def test_empty_inc_command_rejected(self):
        from repro.api.backends import get_backend

        with pytest.raises(ValueError, match="empty external solver"):
            get_backend("dimacs-inc:   ")

    def _problem(self):
        from repro.kodkod import ast
        from repro.kodkod.bounds import Bounds
        from repro.kodkod.universe import Universe

        universe = Universe(["a", "b", "c"])
        r = ast.Relation("r", 1)
        bounds = Bounds(universe)
        bounds.bound(r, universe.empty(1), universe.all_tuples(1))
        return ast.Some(r), bounds

    def test_enumerate_one_spawn_matches_reinvocation_and_inprocess(self):
        from repro import api

        formula, bounds = self._problem()
        inc_name = f"dimacs-inc:{' '.join(INC_SELF_HOSTED)}"
        one_name = f"dimacs:{' '.join(SELF_HOSTED)}"

        def keyset(res):
            return {
                tuple(sorted(
                    (rel.name, frozenset(inst.value_of(rel)))
                    for rel in bounds.relations()))
                for inst in res.instances
            }

        inc = api.enumerate(formula, bounds, solver=inc_name, limit=16)
        one = api.enumerate(formula, bounds, solver=one_name, limit=16)
        ref = api.enumerate(formula, bounds, solver="kodkod", limit=16)
        assert keyset(inc) == keyset(one) == keyset(ref)
        assert len(inc.instances) == 7  # Some(r) over 3 atoms: 2^3 - 1
        # The headline contract: one process for N models (+1 closing
        # UNSAT round), versus one process per round for the re-invoking
        # backend.
        assert inc.solver_stats["external_spawns"] == 1
        assert inc.solver_stats["external_invocations"] == 8
        assert one.solver_stats["external_invocations"] == 8

    def test_solve_single_spawn_and_verdict(self):
        from repro import api

        formula, bounds = self._problem()
        inc_name = f"dimacs-inc:{' '.join(INC_SELF_HOSTED)}"
        result = api.solve(formula, bounds, solver=inc_name)
        reference = api.solve(formula, bounds, solver="kodkod")
        assert result.verdict == reference.verdict
        assert result.solver_stats["external_spawns"] == 1
        assert result.solver_stats["external_invocations"] == 1
        assert result.solver_stats["kernel"] == "external"


class TestLyingSolver:
    """A SAT engine that answers with a non-model yields an error, never a
    verdict: every relational answer is checked against its goal."""

    CHECK_ERROR = "SAT instance does not satisfy the goal formula"

    @pytest.fixture(params=["dimacs", "dimacs-inc"])
    def liar(self, request, tmp_path):
        """``(prefix, argv, spawn log)`` of a solver that claims every
        formula is SAT with the all-false model."""
        log = tmp_path / "spawns.log"
        stamp = f"""
            with open({str(log)!r}, "a") as fh:
                fh.write("spawn\\n")
        """
        if request.param == "dimacs":
            argv = fake_solver(tmp_path, stamp + """
                print("s SATISFIABLE")
                print("v 0")
                sys.exit(10)
            """)
        else:
            argv = fake_inc_solver(tmp_path, stamp + """
                for _ in asks():
                    answer("s SATISFIABLE", "v 0")
            """)
        return f"{request.param}:{shlex.join(argv)}", log

    @staticmethod
    def _some_r():
        from repro.kodkod import ast
        from repro.kodkod.bounds import Bounds
        from repro.kodkod.universe import Universe

        universe = Universe(["a", "b", "c"])
        r = ast.Relation("r", 1)
        bounds = Bounds(universe)
        bounds.bound(r, universe.empty(1), universe.all_tuples(1))
        return ast.Some(r), bounds

    def test_solve_raises_the_check_error(self, liar):
        from repro import api

        name, _ = liar
        formula, bounds = self._some_r()
        with pytest.raises(AssertionError, match=self.CHECK_ERROR):
            api.solve(formula, bounds, solver=name, symmetry=0)

    def test_enumerate_raises_the_check_error(self, liar):
        from repro import api

        name, _ = liar
        formula, bounds = self._some_r()
        with pytest.raises(AssertionError, match=self.CHECK_ERROR):
            api.enumerate(formula, bounds, solver=name, limit=3)

    def test_check_stops_the_search_at_the_first_bad_model(self, liar):
        from repro import api

        name, log = liar
        formula, bounds = self._some_r()
        with pytest.raises(AssertionError, match=self.CHECK_ERROR):
            api.enumerate(formula, bounds, solver=name)
        assert log.read_text(encoding="utf-8") == "spawn\n"

    def test_batch_row_is_an_error_and_is_not_cached(self, liar, tmp_path):
        from repro import api

        name, _ = liar
        formula, bounds = self._some_r()
        cache_dir = tmp_path / "cache"
        [row] = api.solve_many([api.FormulaProblem(formula, bounds)],
                               solver=name, symmetry=0,
                               cache_dir=str(cache_dir))
        assert row.verdict is api.Verdict.ERROR
        assert self.CHECK_ERROR in row.error
        assert not [p for p in cache_dir.rglob("*") if p.is_file()]
