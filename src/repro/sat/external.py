"""Round-trip to an external CDCL solver over the DIMACS bridge.

The built-in solver is the differential reference; this module lets any
SAT-competition-conformant binary (picosat, cadical, kissat, minisat
wrappers, ...) serve as a fast production path.  The contract is the
standard one:

* input: a DIMACS CNF file passed as the last command-line argument,
* output: an ``s SATISFIABLE`` / ``s UNSATISFIABLE`` status line and, for
  satisfiable formulas, ``v`` lines listing the model literals terminated
  by ``0``,
* exit code: 10 for SAT, 20 for UNSAT.

``python -m repro.sat.dimacs solve`` speaks exactly this protocol, so the
external path can be exercised end to end without any third-party binary
by pointing it back at the in-tree CLI.

For model enumeration the one-shot contract is wasteful: every model pays
a process spawn plus a full DIMACS dump, and the external solver relearns
the formula from scratch each round.  :class:`IncrementalExternalSolver`
keeps **one** long-lived process alive and streams clauses to it over
stdin using the iCNF convention (the incremental-DIMACS dialect IPASIR
tooling and ``picosat --all``-style loops standardized on):

* the client sends a ``p inccnf`` header, then clause lines terminated
  by ``0``, interleaved with solve requests ``a <assumptions> 0``;
* after each ``a`` line the server answers with the usual ``s``/``v``
  lines (``v`` lines terminated by ``v 0``) and keeps reading;
* closing stdin ends the session; the server exits 0.

``python -m repro.sat.dimacs solve --incremental`` implements the server
side of this protocol on top of the in-tree solver's native incremental
API, so the persistent path is testable without third-party binaries.

Both classes share one surface (``load_cnf``, ``add_clause``,
``solve(assumptions)`` → :class:`ExternalRun`, ``close``, and the
``spawn_count``/``solve_count`` counters); the one-shot class spawns a
process per ``solve``.  :func:`open_external` opens either from its
``Options.solver`` name, ``"dimacs:<command>"`` or
``"dimacs-inc:<command>"`` (see :mod:`repro.api.backends`).
"""

from __future__ import annotations

import os
import queue
import shlex
import subprocess
import tempfile
import threading
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


def parse_solver_output(text: str, num_vars: int,
                        exit_code: int | None = None) -> tuple[Status, Model | None]:
    """Parse SAT-competition ``s``/``v`` lines into a status and model.

    ``exit_code`` (10/20) is authoritative when provided; the ``s`` line is
    the fallback for harnesses that only capture the stream.  Variables the
    solver leaves unmentioned default to False — the same completion rule
    :func:`repro.kodkod.instance.extract_instance` applies to variables the
    simplifier dropped from the CNF.  Returns ``(SAT, None)`` when the
    solver reported SAT but printed no model (model printing disabled).
    """
    status: Status | None = None
    lits: list[int] = []
    saw_v_line = False
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s ") or line == "s":
            word = line[1:].strip().upper()
            if word == "SATISFIABLE":
                status = Status.SAT
            elif word == "UNSATISFIABLE":
                status = Status.UNSAT
        elif line.startswith("v ") or line == "v":
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
    if exit_code == _EXIT_SAT:
        status = Status.SAT
    elif exit_code == _EXIT_UNSAT:
        status = Status.UNSAT
    if status is None:
        raise ExternalSolverError(
            "solver output carried no 's SATISFIABLE'/'s UNSATISFIABLE' "
            "line and the exit code was neither 10 nor 20"
        )
    if status is not Status.SAT:
        return status, None
    if not saw_v_line:
        return status, None
    values = {var: False for var in range(1, num_vars + 1)}
    for lit in lits:
        var = abs(lit)
        if var > num_vars:
            raise ExternalSolverError(
                f"solver model mentions variable {var} but the formula "
                f"only has {num_vars}; output does not match the input file"
            )
        values[var] = lit > 0
    return status, Model(values)


def _argv(command: str | list[str], example: str) -> list[str]:
    """A solver command as argv: a list verbatim, a string split with
    :mod:`shlex`."""
    argv = shlex.split(command) if isinstance(command, str) else list(command)
    if not argv:
        raise ValueError(f"external solver command is empty: pass e.g. "
                         f"Options(solver={example!r})")
    return argv


class ExternalSolver:
    """Run an external CDCL binary on CNF formulas via temp DIMACS files.

    ``command`` is the solver invocation without the file argument, either
    a pre-split argv or a shell-ish string split with :mod:`shlex`
    (``"picosat"``, ``"python -m repro.sat.dimacs solve"``, ...).
    :meth:`solve_cnf` decides one formula; :meth:`load_cnf`,
    :meth:`add_clause` and :meth:`solve` keep a formula between calls and
    re-dump it to a fresh process on every solve.
    """

    def __init__(self, command: str | list[str],
                 timeout: float | None = None) -> None:
        self.command = _argv(command, "dimacs:picosat")
        self.timeout = timeout
        self.spawn_count = 0
        self.solve_count = 0
        self._cnf = CNF()

    def load_cnf(self, cnf: CNF) -> None:
        """Add ``cnf``'s variables and clauses to the formula :meth:`solve`
        decides."""
        self._cnf.new_vars(cnf.num_vars - self._cnf.num_vars)
        self._cnf.extend(cnf.clauses())

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add one clause (e.g. a blocking clause between solves)."""
        self._cnf.add_clause(lits)

    def solve(self, assumptions: Iterable[int] = ()) -> ExternalRun:
        """Decide the loaded formula, with each assumption as a unit
        clause, in one fresh solver process."""
        cnf = self._cnf
        units = [[lit] for lit in assumptions]
        if units:
            cnf = cnf.copy()
            cnf.extend(units)
        return self.solve_cnf(cnf)

    def close(self) -> None:
        """Nothing to release: every solve's process has already exited."""

    def __enter__(self) -> "ExternalSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
            self.spawn_count += 1
            self.solve_count += 1
            if completed.returncode not in (_EXIT_SAT, _EXIT_UNSAT):
                stderr = (completed.stderr or "").strip()
                raise ExternalSolverError(
                    f"external solver {' '.join(self.command)!r} exited "
                    f"with code {completed.returncode} (expected 10 for SAT "
                    f"or 20 for UNSAT)"
                    + (f"; stderr: {stderr[:500]}" if stderr else "")
                )
            status, model = parse_solver_output(
                completed.stdout, cnf.num_vars,
                exit_code=completed.returncode)
            return ExternalRun(status=status, model=model,
                               wall_seconds=wall,
                               exit_code=completed.returncode)
        finally:
            try:
                os.unlink(handle.name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


class IncrementalExternalSolver:
    """One persistent external solver process, fed clauses incrementally.

    Speaks the iCNF stdin protocol described in the module docstring.
    The process is spawned lazily on the first :meth:`load_cnf` /
    :meth:`add_clause` / :meth:`solve` call and reused across solves;
    :attr:`spawn_count` / :attr:`solve_count` expose how many spawns and
    solve rounds actually happened, which is what lets tests assert the
    "one spawn for N models" contract of enumeration.

    ``timeout`` is the per-*solve* budget (the spawn itself is not
    budgeted: a hung spawn surfaces as a hung first solve).  On timeout
    or mid-stream death of the child, the process is killed and
    :class:`ExternalSolverError` is raised with the child's stderr; the
    instance is then unusable and must be discarded.

    Usable as a context manager; :meth:`close` shuts stdin down cleanly
    and reaps the child.
    """

    def __init__(self, command: str | list[str],
                 timeout: float | None = None) -> None:
        self.command = _argv(
            command, "dimacs-inc:python -m repro.sat.dimacs solve --incremental")
        self.timeout = timeout
        self.spawn_count = 0
        self.solve_count = 0
        self.num_vars = 0
        self._process: subprocess.Popen | None = None
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._stderr_chunks: list[str] = []
        self._dead = False

    # -- process lifecycle -------------------------------------------------

    def _ensure_process(self) -> subprocess.Popen:
        if self._dead:
            raise ExternalSolverError(
                f"incremental solver {' '.join(self.command)!r} already "
                "failed or was closed; create a fresh instance"
            )
        if self._process is not None:
            return self._process
        try:
            process = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        except FileNotFoundError as exc:
            self._dead = True
            raise ExternalSolverError(
                f"incremental solver command {self.command[0]!r} was not "
                "found on PATH. Use the dependency-free in-tree server: "
                "Options(solver='dimacs-inc:python -m repro.sat.dimacs "
                "solve --incremental')"
            ) from exc
        self._process = process
        self.spawn_count += 1
        # Reader threads decouple the protocol from pipe buffering: stdout
        # lines land on a queue the solve loop drains with a deadline, and
        # stderr is slurped so a chatty child can never fill its pipe and
        # deadlock against us.
        threading.Thread(
            target=self._read_stdout, args=(process.stdout,),
            daemon=True).start()
        threading.Thread(
            target=self._read_stderr, args=(process.stderr,),
            daemon=True).start()
        self._send("p inccnf\n")
        return process

    def _read_stdout(self, stream) -> None:
        for line in stream:
            self._lines.put(line)
        self._lines.put(None)

    def _read_stderr(self, stream) -> None:
        for line in stream:
            self._stderr_chunks.append(line)

    def _stderr_tail(self) -> str:
        tail = "".join(self._stderr_chunks).strip()
        return f"; stderr: {tail[:500]}" if tail else ""

    def _kill(self) -> None:
        self._dead = True
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            process.kill()
        process.wait()
        for stream in (process.stdin, process.stdout, process.stderr):
            if stream is not None:
                try:
                    stream.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def _fail(self, message: str, cause: BaseException | None = None):
        self._kill()
        error = ExternalSolverError(message + self._stderr_tail())
        if cause is not None:
            raise error from cause
        raise error

    def _send(self, text: str) -> None:
        process = self._ensure_process()
        try:
            process.stdin.write(text)
        except (BrokenPipeError, OSError) as exc:
            self._fail(
                f"incremental solver {' '.join(self.command)!r} died while "
                "clauses were being streamed to it (does the command "
                "implement the iCNF stdin protocol? plain one-shot solvers "
                "need the 'dimacs:' backend instead)", exc)

    # -- protocol ----------------------------------------------------------

    def load_cnf(self, cnf: CNF) -> None:
        """Stream every clause of ``cnf`` to the process (spawning it)."""
        chunks: list[str] = []
        for clause in cnf.clauses():
            chunks.append(" ".join(str(lit) for lit in clause))
            chunks.append(" 0\n" if clause else "0\n")
        self.num_vars = max(self.num_vars, cnf.num_vars)
        self._send("".join(chunks))

    def add_clause(self, lits: Sequence[int]) -> None:
        """Stream one clause (e.g. a blocking clause between solves)."""
        for lit in lits:
            self.num_vars = max(self.num_vars, abs(lit))
        self._send(" ".join(str(lit) for lit in lits) + " 0\n"
                   if lits else "0\n")

    def solve(self, assumptions: Iterable[int] = ()) -> ExternalRun:
        """Request one solve round and parse the ``s``/``v`` answer."""
        process = self._ensure_process()
        started = time.perf_counter()
        self._send("a " + " ".join(str(lit) for lit in assumptions) + " 0\n")
        try:
            process.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            self._fail(
                f"incremental solver {' '.join(self.command)!r} died "
                "before answering a solve request", exc)
        deadline = (None if self.timeout is None
                    else started + self.timeout)
        response: list[str] = []
        sat_answer = False
        while True:
            remaining = None if deadline is None else deadline - time.perf_counter()
            if remaining is not None and remaining <= 0:
                self._fail(
                    f"incremental solver {' '.join(self.command)!r} "
                    f"exceeded the {self.timeout:.1f}s per-solve timeout "
                    "and was killed")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                self._fail(
                    f"incremental solver {' '.join(self.command)!r} "
                    f"exceeded the {self.timeout:.1f}s per-solve timeout "
                    "and was killed")
            if line is None:
                self._fail(
                    f"incremental solver {' '.join(self.command)!r} exited "
                    "mid-solve without completing its s/v answer")
            response.append(line)
            stripped = line.strip()
            if stripped.startswith("s"):
                word = stripped[1:].strip().upper()
                if word == "UNSATISFIABLE":
                    break
                sat_answer = word == "SATISFIABLE"
            elif sat_answer and stripped.startswith("v"):
                # The model is complete at the "0" terminator; servers may
                # spread it over many v lines.
                if "0" in stripped[1:].split():
                    break
        wall = time.perf_counter() - started
        self.solve_count += 1
        try:
            status, model = parse_solver_output(
                "".join(response), self.num_vars)
        except ExternalSolverError:
            self._kill()
            raise
        exit_code = _EXIT_SAT if status is Status.SAT else _EXIT_UNSAT
        return ExternalRun(status=status, model=model, wall_seconds=wall,
                           exit_code=exit_code)

    def close(self) -> None:
        """End the session: close stdin, reap the child."""
        process = self._process
        self._dead = True
        if process is None:
            return
        try:
            if process.stdin is not None:
                process.stdin.close()
            process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self._kill()

    def __enter__(self) -> "IncrementalExternalSolver":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_PROTOCOLS = {"dimacs": ExternalSolver, "dimacs-inc": IncrementalExternalSolver}


def split_solver_name(name: str) -> tuple[str, str] | None:
    """``(prefix, command)`` of a ``dimacs:<command>`` or
    ``dimacs-inc:<command>`` solver name; ``None`` for any other name.

    Raises :class:`ValueError` when a known prefix has an empty command.
    """
    prefix, colon, command = name.partition(":")
    if not colon or prefix not in _PROTOCOLS:
        return None
    command = command.strip()
    if not command:
        raise ValueError(
            f"empty external solver command: use '{prefix}:<command>', "
            f"e.g. Options(solver='{prefix}:picosat')"
        )
    return prefix, command


def open_external(name: str, timeout: float | None = None,
                  ) -> ExternalSolver | IncrementalExternalSolver:
    """The external solver a ``dimacs:``/``dimacs-inc:`` name (one that
    :func:`split_solver_name` accepts) selects.

    Nothing is spawned until the first ``load_cnf``/``solve``; ``timeout``
    is the per-solve budget.
    """
    prefix, command = split_solver_name(name)
    return _PROTOCOLS[prefix](command, timeout=timeout)
