"""DIMACS CNF serialization and the cross-checking CLI.

Lets instances produced by the relational translator be exported for
inspection or cross-checking with external solvers, and lets standard
benchmark files be loaded into :class:`repro.sat.solver.Solver`.

Run as a module for the command-line interface::

    python -m repro.sat.dimacs export --family relational --seed 3 -o p.cnf
    python -m repro.sat.dimacs solve p.cnf
    python -m repro.sat.dimacs info p.cnf

``export`` translates a seeded campaign scenario (a formula-shaped family
such as ``relational``) to DIMACS, with the primary-variable mapping in the
header comments; ``solve`` decides a DIMACS file with the built-in CDCL
solver and prints SAT-competition style ``s``/``v`` lines (exit code 10 for
SAT, 20 for UNSAT), so our verdicts can be diffed against an external
solver on the exact same file.  ``solve --incremental`` turns the same
command into a persistent iCNF server (clauses and ``a <assumptions> 0``
solve requests over stdin, ``s``/``v`` answers per round) — the
dependency-free counterpart for the ``dimacs-inc:`` backend (see
:mod:`repro.sat.external`).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

from repro.sat.cnf import CNF


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


def dump(cnf: CNF, stream: TextIO, comments: list[str] | None = None) -> None:
    """Write ``cnf`` to ``stream`` in DIMACS format."""
    for comment in comments or []:
        stream.write(f"c {comment}\n")
    stream.write(f"p cnf {cnf.num_vars} {cnf.num_clauses}\n")
    for clause in cnf.clauses():
        if clause:
            stream.write(" ".join(str(lit) for lit in clause))
            stream.write(" 0\n")
        else:
            # The canonical empty clause (a trivially-false CNF): a bare
            # terminator, without the leading blank some parsers reject.
            stream.write("0\n")


def dumps(cnf: CNF, comments: list[str] | None = None) -> str:
    """Render ``cnf`` as a DIMACS string."""
    buffer = io.StringIO()
    dump(cnf, buffer, comments)
    return buffer.getvalue()


def dump_file(cnf: CNF, path: str | Path, comments: list[str] | None = None) -> None:
    """Write ``cnf`` to a file at ``path``."""
    with open(path, "w", encoding="ascii") as stream:
        dump(cnf, stream, comments)


def load(stream: TextIO) -> CNF:
    """Parse a DIMACS CNF from ``stream``."""
    declared_vars: int | None = None
    declared_clauses: int | None = None
    cnf = CNF()
    pending: list[int] = []
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {line_number}: malformed problem line: {line!r}")
            try:
                declared_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {line_number}: non-integer header") from exc
            continue
        try:
            tokens = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise DimacsError(f"line {line_number}: non-integer literal") from exc
        for tok in tokens:
            if tok == 0:
                cnf.add_clause(pending)
                pending = []
            else:
                pending.append(tok)
    if pending:
        # Tolerate a final clause without terminating 0 (some generators
        # omit it on the last line).
        cnf.add_clause(pending)
    if declared_vars is not None and cnf.num_vars > declared_vars:
        raise DimacsError(
            f"header declares {declared_vars} vars but literals mention {cnf.num_vars}"
        )
    if declared_vars is not None:
        # Respect the declared variable count even when some variables are
        # unmentioned.
        while cnf.num_vars < declared_vars:
            cnf.new_var()
    if declared_clauses is not None and cnf.num_clauses != declared_clauses:
        raise DimacsError(
            f"header declares {declared_clauses} clauses but found {cnf.num_clauses}"
        )
    return cnf


def loads(text: str) -> CNF:
    """Parse a DIMACS CNF from a string."""
    return load(io.StringIO(text))


def load_file(path: str | Path) -> CNF:
    """Parse a DIMACS CNF from a file."""
    with open(path, "r", encoding="ascii") as stream:
        return load(stream)


# ----------------------------------------------------------------------
# Command-line interface (python -m repro.sat.dimacs)
# ----------------------------------------------------------------------


def _cmd_export(args) -> int:
    # Imported lazily: the campaign package sits above repro.sat in the
    # dependency order; only the CLI needs it.
    from repro.api.problems import FormulaProblem, problem_from_spec
    from repro.campaign.specs import ScenarioSpec
    from repro.kodkod.translate import Translator

    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {item!r}")
        try:
            # Family params are numeric (ints or floats); keep the int
            # shape where possible so spec hashes match programmatic use.
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                raise SystemExit(
                    f"--param {key} expects a numeric value, got {value!r}"
                ) from None
    spec = ScenarioSpec.make(args.family, args.seed, **params)
    problem = problem_from_spec(spec)
    if not isinstance(problem, FormulaProblem):
        raise SystemExit(
            f"family {args.family!r} does not produce a formula problem; "
            "only formula-shaped families (e.g. 'relational') export to DIMACS"
        )
    translation = Translator(
        problem.bounds, symmetry=args.symmetry, cnf_encoding=args.encoding
    ).translate(problem.formula)
    text = translation.to_dimacs(comments=[
        f"spec {spec.label()} hash {spec.content_hash()[:16]}",
        f"encoding {args.encoding} symmetry {args.symmetry}",
    ])
    if args.output:
        Path(args.output).write_text(text, encoding="ascii")
    else:
        print(text, end="")
    return 0


def _print_answer(status, model, quiet: bool) -> None:
    """Emit SAT-competition ``s``/``v`` lines for one solve round."""
    import sys

    from repro.sat.types import Status

    if status is Status.SAT:
        print("s SATISFIABLE")
        if model is not None and not quiet:
            lits = model.as_literals()
            for offset in range(0, len(lits), 20):
                chunk = lits[offset:offset + 20]
                print("v " + " ".join(str(lit) for lit in chunk))
            print("v 0")
    else:
        print("s UNSATISFIABLE")
    # The parent reads our stdout over a pipe (block-buffered): flush so
    # the answer is visible before the next request — or the exit code.
    sys.stdout.flush()


def _cmd_solve_incremental(args) -> int:
    """iCNF server loop: stream clauses in, answer ``a``-line solves.

    The incremental counterpart of :func:`_cmd_solve`, serving
    ``IncrementalExternalSolver`` clients (see :mod:`repro.sat.external`):
    clause lines accumulate into one persistent :class:`Solver`, each
    ``a <assumptions> 0`` line triggers a solve under those assumptions,
    and the answer is printed in the same ``s``/``v`` shape as the
    one-shot path.  EOF on stdin ends the session with exit code 0.
    """
    import sys

    from repro.sat.solver import Solver
    from repro.sat.types import Status

    solver = Solver()
    ok = True
    if args.file:
        ok = solver.add_cnf(load_file(args.file))
    pending: list[int] = []
    for raw in sys.stdin:
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("p"):
            continue
        if line.startswith("a ") or line == "a":
            try:
                assumptions = [int(tok) for tok in line[1:].split()]
            except ValueError:
                print(f"c error: non-integer assumption in {line!r}",
                      file=sys.stderr)
                return 1
            if assumptions and assumptions[-1] == 0:
                assumptions.pop()
            if ok:
                for lit in assumptions:
                    solver._ensure_var(abs(lit))
                status = solver.solve(assumptions)
                # A root-level conflict is permanent; remember it so later
                # rounds answer UNSAT without touching the solver again.
                ok = solver._ok
            else:
                status = Status.UNSAT
            model = solver.model() if status is Status.SAT else None
            _print_answer(status, model, args.quiet)
            continue
        try:
            tokens = [int(tok) for tok in line.split()]
        except ValueError:
            print(f"c error: non-integer literal in {line!r}",
                  file=sys.stderr)
            return 1
        for tok in tokens:
            if tok == 0:
                ok = solver.add_clause(pending) and ok
                pending = []
            else:
                pending.append(tok)
    if pending:
        solver.add_clause(pending)
    return 0


def _cmd_solve(args) -> int:
    from repro.sat.solver import solve_cnf
    from repro.sat.types import Status

    if args.incremental:
        return _cmd_solve_incremental(args)
    if not args.file:
        raise SystemExit("solve: a DIMACS file is required "
                         "(only --incremental may omit it)")
    cnf = load_file(args.file)
    status, model = solve_cnf(cnf, assumptions=args.assume or [])
    _print_answer(status, model, args.quiet)
    return 10 if status is Status.SAT else 20


def _cmd_info(args) -> int:
    cnf = load_file(args.file)
    print(f"vars {cnf.num_vars} clauses {cnf.num_clauses}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sat.dimacs",
        description="Export translated problems to DIMACS and solve "
                    "DIMACS files with the built-in CDCL solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export", help="translate a campaign spec to DIMACS")
    export.add_argument("--family", default="relational",
                        help="campaign family (default: relational)")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="family parameter override (repeatable)")
    export.add_argument("--symmetry", type=int, default=0,
                        help="lex-leader SBP length (default: 0, off)")
    export.add_argument("--encoding", choices=["pg", "tseitin"],
                        default="pg", help="CNF encoding (default: pg)")
    export.add_argument("-o", "--output", help="output file (default: stdout)")
    export.set_defaults(run=_cmd_export)

    solve = sub.add_parser(
        "solve", help="decide a DIMACS file with the built-in solver")
    solve.add_argument("file", nargs="?",
                       help="DIMACS file (optional with --incremental: "
                            "clauses then arrive on stdin)")
    solve.add_argument("--assume", type=int, action="append", metavar="LIT",
                       help="assumption literal (repeatable)")
    solve.add_argument("--quiet", action="store_true",
                       help="suppress the v-lines of the model")
    solve.add_argument("--incremental", action="store_true",
                       help="iCNF server mode: read clause and "
                            "'a <assumptions> 0' lines from stdin, answer "
                            "each solve with s/v lines, exit 0 on EOF")
    solve.set_defaults(run=_cmd_solve)

    info = sub.add_parser("info", help="print a DIMACS file's dimensions")
    info.add_argument("file")
    info.set_defaults(run=_cmd_info)

    args = parser.parse_args(argv)
    return args.run(args)
