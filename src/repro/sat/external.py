"""Round-trip to an external CDCL solver over the DIMACS bridge.

The built-in solver is the differential reference; this module lets any
SAT-competition-conformant binary (picosat, cadical, kissat, minisat
wrappers, ...) serve as a fast production path.  The contract is the
standard one:

* input: a DIMACS CNF file passed as the last command-line argument,
* output: ``v`` lines listing the model literals terminated by ``0``
  for satisfiable formulas (``s`` lines are ignored),
* exit code: 10 for SAT, 20 for UNSAT.

``python -m repro.sat.dimacs solve`` speaks exactly this protocol, so the
external path can be exercised end to end without any third-party binary
by pointing it back at the in-tree CLI.

:class:`ExternalSolver` is the SAT engine a
:class:`~repro.kodkod.engine.Session` drives for the ``dimacs:<command>``
solver names (see :mod:`repro.api.backends`): it keeps the formula and
runs one fresh process per solve.  :func:`split_solver_name` is the one
parser of those names.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sat.cnf import CNF
from repro.sat.dimacs import dumps
from repro.sat.types import Model, Status

_EXIT_SAT = 10
_EXIT_UNSAT = 20


class ExternalSolverError(RuntimeError):
    """The external solver could not be run or spoke a broken protocol."""


@dataclass(frozen=True)
class ExternalRun:
    """Outcome of one external-solver invocation."""

    status: Status
    model: Model | None
    wall_seconds: float
    exit_code: int


def parse_solver_output(text: str, num_vars: int) -> Model | None:
    """The model in SAT-competition ``v`` lines of a SAT answer.

    Variables the solver leaves unmentioned default to False — the same
    completion rule :func:`repro.kodkod.instance.extract_instance`
    applies to variables the simplifier dropped from the CNF.  Returns
    ``None`` when the output has no ``v`` line (model printing
    disabled).  The status is the exit code's, so ``s`` lines are not
    read.
    """
    lits: list[int] = []
    saw_v_line = False
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("v ") or line == "v":
            saw_v_line = True
            for token in line[1:].split():
                try:
                    lit = int(token)
                except ValueError as exc:
                    raise ExternalSolverError(
                        f"malformed v-line token {token!r} in solver output"
                    ) from exc
                if lit != 0:
                    lits.append(lit)
    if not saw_v_line:
        return None
    values = {var: False for var in range(1, num_vars + 1)}
    for lit in lits:
        var = abs(lit)
        if var > num_vars:
            raise ExternalSolverError(
                f"solver model mentions variable {var} but the formula "
                f"only has {num_vars}; output does not match the input file"
            )
        values[var] = lit > 0
    return Model(values)


class ExternalSolver:
    """An external CDCL binary as the SAT engine a
    :class:`~repro.kodkod.engine.Session` drives.

    ``command`` is the solver invocation without the file argument, either
    a pre-split argv or a shell-ish string split with :mod:`shlex`
    (``"picosat"``, ``"python -m repro.sat.dimacs solve"``, ...);
    ``timeout`` bounds each process.  :meth:`add_cnf` and
    :meth:`add_clause` keep a formula between calls, and :meth:`solve`
    dumps it, with each assumption as a unit clause, to one fresh
    process; :meth:`solve_cnf` decides a formula on its own.  ``stats``
    are ``external_wall_time`` (summed), ``external_invocations``
    (processes run) and ``external_exit_code`` (of the last one).
    """

    kernel = "external"

    def __init__(self, command: str | list[str],
                 timeout: float | None = None) -> None:
        self.command = (shlex.split(command) if isinstance(command, str)
                        else list(command))
        if not self.command:
            raise ValueError("external solver command is empty: pass e.g. "
                             "Options(solver='dimacs:picosat')")
        self.timeout = timeout
        self.stats = {"external_wall_time": 0.0, "external_invocations": 0,
                      "external_exit_code": None}
        self._cnf = CNF()
        self._run: ExternalRun | None = None

    def add_cnf(self, cnf: CNF) -> bool:
        """Add ``cnf``'s variables and clauses to the formula :meth:`solve`
        decides."""
        self._cnf.new_vars(cnf.num_vars - self._cnf.num_vars)
        self._cnf.extend(cnf.clauses())
        return True

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add one clause (e.g. a blocking clause between solves)."""
        self._cnf.add_clause(lits)
        return True

    def solve(self, assumptions: Iterable[int] = ()) -> Status:
        """Decide the formula, with each assumption as a unit clause, in
        one fresh solver process."""
        cnf = self._cnf
        units = [[lit] for lit in assumptions]
        if units:
            cnf = cnf.copy()
            cnf.extend(units)
        self._run = self.solve_cnf(cnf)
        return self._run.status

    def model(self) -> Model:
        """The model of the last solve, which answered SAT."""
        if self._run.model is None:
            raise ExternalSolverError(
                f"external solver {' '.join(self.command)!r} reported SAT "
                "without a v-line model; enable model printing so "
                "instances can be extracted and blocked"
            )
        return self._run.model

    def solve_cnf(self, cnf: CNF) -> ExternalRun:
        """Dump ``cnf`` to a temp file, invoke the solver, parse the answer."""
        handle = tempfile.NamedTemporaryFile(
            mode="w", suffix=".cnf", prefix="repro-", encoding="ascii",
            delete=False)
        try:
            with handle:
                handle.write(dumps(cnf))
            started = time.perf_counter()
            try:
                completed = subprocess.run(
                    self.command + [handle.name],
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
            except FileNotFoundError as exc:
                raise ExternalSolverError(
                    f"external solver command {self.command[0]!r} was not "
                    "found on PATH. Install a CDCL solver (e.g. `apt-get "
                    "install picosat`) and select it with "
                    f"Options(solver='dimacs:{self.command[0]}'), or use "
                    "the dependency-free in-tree CLI: "
                    "Options(solver='dimacs:python -m repro.sat.dimacs "
                    "solve')"
                ) from exc
            except subprocess.TimeoutExpired as exc:
                # subprocess.run kills the child before raising; report
                # the budget that was exceeded.
                raise ExternalSolverError(
                    f"external solver {' '.join(self.command)!r} exceeded "
                    f"the {self.timeout:.1f}s timeout and was killed"
                ) from exc
            wall = time.perf_counter() - started
            self.stats["external_wall_time"] += wall
            self.stats["external_invocations"] += 1
            self.stats["external_exit_code"] = completed.returncode
            if completed.returncode == _EXIT_SAT:
                status = Status.SAT
                model = parse_solver_output(completed.stdout, cnf.num_vars)
            elif completed.returncode == _EXIT_UNSAT:
                status, model = Status.UNSAT, None
            else:
                stderr = (completed.stderr or "").strip()
                raise ExternalSolverError(
                    f"external solver {' '.join(self.command)!r} exited "
                    f"with code {completed.returncode} (expected 10 for SAT "
                    f"or 20 for UNSAT)"
                    + (f"; stderr: {stderr[:500]}" if stderr else "")
                )
            return ExternalRun(status=status, model=model,
                               wall_seconds=wall,
                               exit_code=completed.returncode)
        finally:
            try:
                os.unlink(handle.name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def split_solver_name(name: str) -> str | None:
    """The command of a ``dimacs:<command>`` solver name; ``None`` for
    any other name.

    Raises :class:`ValueError` when the command is empty.
    """
    prefix, colon, command = name.partition(":")
    if not colon or prefix != "dimacs":
        return None
    command = command.strip()
    if not command:
        raise ValueError(
            "empty external solver command: use 'dimacs:<command>', "
            "e.g. Options(solver='dimacs:picosat')"
        )
    return command
