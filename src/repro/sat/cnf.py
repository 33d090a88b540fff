"""CNF formula container and fresh-variable management.

A :class:`CNF` accumulates clauses and hands out fresh variables; it is the
interchange format between the relational translator (:mod:`repro.kodkod`)
and the solver (:mod:`repro.sat.solver`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.sat.types import Lit, Var


class CNF:
    """A conjunction of clauses over variables ``1..num_vars``."""

    def __init__(self, num_vars: int = 0) -> None:
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self._num_vars = num_vars
        self._clauses: list[tuple[Lit, ...]] = []

    @property
    def num_vars(self) -> int:
        """Highest variable index allocated so far."""
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Number of clauses added so far."""
        return len(self._clauses)

    def new_var(self) -> Var:
        """Allocate and return a fresh variable."""
        self._num_vars += 1
        return self._num_vars

    def new_vars(self, count: int) -> list[Var]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Sequence[Lit]) -> None:
        """Add one clause, growing ``num_vars`` to cover its literals."""
        tup = tuple(lits)
        num_vars = self._num_vars
        for lit in tup:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > num_vars:
                num_vars = var
        self._num_vars = num_vars
        self._clauses.append(tup)

    def _append_clause(self, tup: tuple[Lit, ...]) -> None:
        """Trusted fast path: append a clause tuple without validation.

        Callers (the circuit compiler) guarantee non-zero literals over
        variables already allocated via :meth:`new_var`.
        """
        self._clauses.append(tup)

    def extend(self, clauses: Iterable[Sequence[Lit]]) -> None:
        """Add many clauses."""
        for cl in clauses:
            self.add_clause(cl)

    def clauses(self) -> Iterator[tuple[Lit, ...]]:
        """Iterate over clauses as literal tuples."""
        return iter(self._clauses)

    def __iter__(self) -> Iterator[tuple[Lit, ...]]:
        return self.clauses()

    def __len__(self) -> int:
        return len(self._clauses)

    def copy(self) -> "CNF":
        """Shallow copy (clause tuples are immutable)."""
        dup = CNF(self._num_vars)
        dup._clauses = list(self._clauses)
        return dup
