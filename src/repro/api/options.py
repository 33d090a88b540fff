"""The one validated options surface shared by every façade entry point.

Every backend and every operation reads the same :class:`Options`
dataclass, so option spelling is uniform across ``solve``, ``check``,
``enumerate``, ``run_protocol`` and ``solve_many`` — the per-module
keyword zoo (``symmetry=`` here, ``limit=`` there, ``max_rounds=``
elsewhere) collapses into one place with one set of validation rules.

Options hold only what a single solve reads.  Every field but
``timeout`` can change an answer, so :meth:`Options.cache_signature` is
every field but ``timeout``: it keys the batch cache and the service's
job ids.  How a batch runs (process count, cache directory) is an
argument of ``solve_many``, not an option.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Options:
    """Validated options accepted by every ``repro.api`` entry point.

    Six fields: ``solver``, ``symmetry``, ``max_instances``,
    ``max_rounds``, ``max_paths`` and ``timeout``.  ``None`` fields mean
    "use the backend's per-operation default": ``symmetry=None`` enables
    lex-leader symmetry breaking for solve/check (verdict-preserving)
    but disables it for enumeration (every model is produced).
    Construction raises :class:`ValueError` with an actionable message
    on any out-of-range field.
    """

    solver: str | None = None
    """Backend name (see :func:`repro.api.available_backends`); ``None``
    selects the first registered backend that supports the problem
    (``"kodkod"`` for formula and module problems, ``"explorer"`` for
    protocol problems).  ``"dimacs:<command>"`` delegates the SAT search
    to an external solver binary, one process per solve (e.g.
    ``"dimacs:picosat"``, or the in-tree ``"dimacs:python -m
    repro.sat.dimacs solve"``).  The HTTP service accepts only registered
    names."""

    symmetry: int | None = None
    """Lex-leader symmetry-breaking predicate length; 0 disables breaking,
    ``None`` uses the backend's per-operation default."""

    max_instances: int | None = None
    """Enumeration limit (``None`` enumerates the whole model space)."""

    max_rounds: int = 12
    """Protocol-check depth bound (rounds per explored schedule)."""

    max_paths: int = 2000
    """Protocol-check breadth bound (complete schedules explored)."""

    timeout: float | None = None
    """Per-solve time budget in seconds, enforced where preemption is
    possible — the external ``dimacs:`` backends kill the solver process
    at the deadline.  In-process backends cannot preempt a running
    solve.  This is *not* the batch pool's stall bound: ``solve_many``
    has a separate ``task_timeout`` argument for that (defaulting to
    ``repro.api.batch.DEFAULT_TASK_TIMEOUT``), so a tight per-solve
    budget never kills an otherwise-healthy sharded batch."""

    def __post_init__(self) -> None:
        if self.solver is not None and (
                not isinstance(self.solver, str) or not self.solver):
            raise ValueError(
                f"solver must be a non-empty backend name string (see "
                f"repro.api.available_backends()) or None for automatic "
                f"selection, got {self.solver!r}"
            )
        if self.symmetry is not None and (
                isinstance(self.symmetry, bool)
                or not isinstance(self.symmetry, int)
                or self.symmetry < 0):
            raise ValueError(
                f"symmetry must be a non-negative integer (the lex-leader "
                f"predicate length; 0 disables symmetry breaking) or None "
                f"for the backend default, got {self.symmetry!r}"
            )
        if self.max_instances is not None and (
                isinstance(self.max_instances, bool)
                or not isinstance(self.max_instances, int)
                or self.max_instances < 1):
            raise ValueError(
                f"max_instances must be a positive integer or None for "
                f"unbounded enumeration, got {self.max_instances!r}"
            )
        if (isinstance(self.max_rounds, bool)
                or not isinstance(self.max_rounds, int)
                or self.max_rounds < 1):
            raise ValueError(
                f"max_rounds must be a positive integer bound on protocol "
                f"rounds per schedule, got {self.max_rounds!r}"
            )
        if (isinstance(self.max_paths, bool)
                or not isinstance(self.max_paths, int)
                or self.max_paths < 1):
            raise ValueError(
                f"max_paths must be a positive integer bound on explored "
                f"schedules, got {self.max_paths!r}"
            )
        if self.timeout is not None and (
                isinstance(self.timeout, bool)
                or not isinstance(self.timeout, (int, float))
                or self.timeout <= 0):
            raise ValueError(
                f"timeout must be a positive number of seconds or None to "
                f"wait indefinitely, got {self.timeout!r}"
            )

    def replace(self, **overrides) -> "Options":
        """A copy with fields replaced (re-validated on construction)."""
        return dataclasses.replace(self, **overrides)

    def to_json(self) -> dict:
        """Every field as a JSON-able dict (the wire form).

        Unlike :meth:`cache_signature` this includes ``timeout``: the
        wire form must reconstruct the exact options, not just their
        result identity.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "Options":
        """Rebuild validated options from :meth:`to_json` output.

        Accepts any subset of the fields (missing ones default); unknown
        keys raise the same actionable :class:`ValueError` the façade's
        keyword overrides do, so a typo in a wire submission is caught at
        the edge instead of silently ignored.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"options must be a JSON object of Options fields, "
                f"got {type(payload).__name__}"
            )
        return resolve_options(None, dict(payload))

    def cache_signature(self) -> dict:
        """The fields that can change an answer: all but ``timeout``.

        ``timeout`` only bounds how long a solve may run, so a cached
        answer serves any budget.
        """
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self) if f.name != "timeout"}


def resolve_options(options: Options | None, overrides: dict) -> Options:
    """Merge an optional base ``Options`` with keyword overrides."""
    base = options if options is not None else Options()
    if not isinstance(base, Options):
        raise ValueError(
            f"options must be a repro.api.Options instance or None, "
            f"got {type(base).__name__}"
        )
    if not overrides:
        return base
    unknown = sorted(set(overrides) - {f.name for f in dataclasses.fields(Options)})
    if unknown:
        known = ", ".join(f.name for f in dataclasses.fields(Options))
        raise ValueError(
            f"unknown option(s) {unknown}; valid options are: {known}"
        )
    return base.replace(**overrides)
