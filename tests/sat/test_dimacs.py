"""Tests for DIMACS serialization."""

import pytest

from repro.sat.cnf import CNF
from repro.sat.dimacs import DimacsError, dumps, load_file, loads, dump_file
from repro.sat.solver import solve_cnf
from repro.sat.types import Status


class TestRoundTrip:
    def _sample(self):
        cnf = CNF()
        cnf.new_vars(4)
        cnf.extend([[1, -2], [3], [-1, 2, -4]])
        return cnf

    def test_dump_format(self):
        text = dumps(self._sample())
        lines = text.strip().splitlines()
        assert lines[0] == "p cnf 4 3"
        assert lines[1] == "1 -2 0"
        assert lines[2] == "3 0"
        assert lines[3] == "-1 2 -4 0"

    def test_comments_emitted(self):
        text = dumps(self._sample(), comments=["hello", "world"])
        assert text.startswith("c hello\nc world\n")

    def test_roundtrip_preserves_clauses(self):
        original = self._sample()
        recovered = loads(dumps(original))
        assert list(recovered.clauses()) == list(original.clauses())
        assert recovered.num_vars == original.num_vars

    def test_file_roundtrip(self, tmp_path):
        original = self._sample()
        path = tmp_path / "instance.cnf"
        dump_file(original, path)
        recovered = load_file(path)
        assert list(recovered.clauses()) == list(original.clauses())

    def test_roundtrip_solvable(self):
        cnf = loads(dumps(self._sample()))
        assert solve_cnf(cnf)[0] is Status.SAT


class TestParsing:
    def test_comments_and_blank_lines_skipped(self):
        cnf = loads("c a comment\n\np cnf 2 1\nc another\n1 -2 0\n")
        assert list(cnf.clauses()) == [(1, -2)]

    def test_multiple_clauses_per_line(self):
        cnf = loads("p cnf 2 2\n1 0 -2 0\n")
        assert list(cnf.clauses()) == [(1,), (-2,)]

    def test_clause_spanning_lines(self):
        cnf = loads("p cnf 3 1\n1 2\n3 0\n")
        assert list(cnf.clauses()) == [(1, 2, 3)]

    def test_missing_final_zero_tolerated(self):
        cnf = loads("p cnf 2 1\n1 -2\n")
        assert list(cnf.clauses()) == [(1, -2)]

    def test_header_var_count_respected(self):
        cnf = loads("p cnf 5 1\n1 0\n")
        assert cnf.num_vars == 5

    def test_bad_header_rejected(self):
        with pytest.raises(DimacsError):
            loads("p dnf 2 1\n1 0\n")

    def test_non_integer_literal_rejected(self):
        with pytest.raises(DimacsError):
            loads("p cnf 2 1\n1 x 0\n")

    def test_var_overflow_rejected(self):
        with pytest.raises(DimacsError):
            loads("p cnf 1 1\n2 0\n")

    def test_clause_count_mismatch_rejected(self):
        with pytest.raises(DimacsError):
            loads("p cnf 2 5\n1 0\n")

    def test_no_header_accepted(self):
        cnf = loads("1 2 0\n-1 0\n")
        assert cnf.num_clauses == 2
        assert cnf.num_vars == 2


class TestTranslationToDimacs:
    def _problem(self):
        from repro.kodkod import ast
        from repro.kodkod.bounds import Bounds
        from repro.kodkod.universe import Universe

        universe = Universe(["a", "b", "c"])
        r = ast.Relation("r", 1)
        bounds = Bounds(universe)
        bounds.bound(r, universe.empty(1), universe.all_tuples(1))
        return ast.Some(r), bounds, r

    def test_round_trip_preserves_verdict(self):
        from repro.kodkod.translate import Translator

        formula, bounds, _ = self._problem()
        translation = Translator(bounds).translate(formula)
        text = translation.to_dimacs(comments=["unit test"])
        assert text.startswith("c unit test\n")
        cnf = loads(text)
        assert solve_cnf(cnf)[0] is solve_cnf(translation.cnf)[0] is Status.SAT

    def test_primary_mapping_in_comments(self):
        from repro.kodkod.translate import Translator

        formula, bounds, r = self._problem()
        translation = Translator(bounds).translate(formula)
        text = translation.to_dimacs()
        for (rel, index), node in translation.tuple_inputs.items():
            atoms = ",".join(str(i) for i in index)
            expected = f"c primary {rel.name}({atoms}) -> " \
                       f"{translation.input_vars[node]}"
            assert expected in text


class TestCli:
    def test_export_then_solve_round_trip(self, tmp_path, capsys):
        from repro.sat.dimacs import main

        out = tmp_path / "problem.cnf"
        assert main(["export", "--family", "relational", "--seed", "1",
                     "-o", str(out)]) == 0
        assert out.exists()
        code = main(["solve", str(out), "--quiet"])
        assert code in (10, 20)
        printed = capsys.readouterr().out
        assert ("s SATISFIABLE" in printed) or ("s UNSATISFIABLE" in printed)
        # The CLI verdict must agree with the in-process pipeline.
        cnf = load_file(out)
        status, _ = solve_cnf(cnf)
        expected = 10 if status is Status.SAT else 20
        assert code == expected

    def test_solve_emits_model_lines(self, tmp_path, capsys):
        from repro.sat.dimacs import main

        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 0\n", encoding="ascii")
        assert main(["solve", str(path)]) == 10
        printed = capsys.readouterr().out
        assert "v " in printed and "v 0" in printed

    def test_solve_quiet_prints_no_v_lines(self, tmp_path, capsys):
        from repro.sat.dimacs import main

        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 0\n", encoding="ascii")
        assert main(["solve", str(path), "--quiet"]) == 10
        assert capsys.readouterr().out == "s SATISFIABLE\n"

    def test_solve_under_assumptions(self, tmp_path, capsys):
        from repro.sat.dimacs import main

        path = tmp_path / "or.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n", encoding="ascii")
        assert main(["solve", str(path), "--assume", "-1"]) == 10
        assert "v -1 2\n" in capsys.readouterr().out
        assert main(["solve", str(path),
                     "--assume", "-1", "--assume", "-2"]) == 20
        assert capsys.readouterr().out == "s UNSATISFIABLE\n"

    def test_solve_requires_a_file(self, capsys):
        from repro.sat.dimacs import main

        with pytest.raises(SystemExit) as excinfo:
            main(["solve"])
        assert excinfo.value.code == 2
        assert "file" in capsys.readouterr().err

    def test_info(self, tmp_path, capsys):
        from repro.sat.dimacs import main

        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 3 1\n1 -3 0\n", encoding="ascii")
        assert main(["info", str(path)]) == 0
        assert "vars 3 clauses 1" in capsys.readouterr().out

    def test_export_rejects_protocol_family(self, tmp_path):
        from repro.sat.dimacs import main

        with pytest.raises(SystemExit):
            main(["export", "--family", "mca", "--seed", "0",
                  "-o", str(tmp_path / "x.cnf")])

    def test_solve_empty_clause_file_exits_20(self, tmp_path, capsys):
        # A trivially-false CNF parsed from a file (bare "0" terminator)
        # must come back as a clean UNSAT exit code, not a traceback.
        from repro.sat.dimacs import main

        path = tmp_path / "false.cnf"
        path.write_text("p cnf 0 1\n0\n", encoding="ascii")
        assert main(["solve", str(path)]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_solve_empty_clause_among_others_exits_20(self, tmp_path,
                                                      capsys):
        from repro.sat.dimacs import main

        path = tmp_path / "false.cnf"
        path.write_text("p cnf 2 3\n1 2 0\n0\n-1 0\n", encoding="ascii")
        assert main(["solve", str(path)]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_solve_flushes_model_through_a_pipe(self, tmp_path):
        # The CLI doubles as an external solver for the `dimacs:` backend:
        # the model must survive block-buffered stdout when the parent
        # only reads the pipe after the child exits.
        import os
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "tiny.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-1 0\n", encoding="ascii")
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.sat.dimacs", "solve", str(path)],
            capture_output=True, text=True, env=env)
        assert completed.returncode == 10
        assert "s SATISFIABLE" in completed.stdout
        assert "v 0" in completed.stdout
