"""Core SAT types: variables, literals, clause storage and assignments.

Literals follow the DIMACS convention used by most solvers: a variable is a
positive integer ``v >= 1``; the literal ``v`` asserts the variable is true
and ``-v`` asserts it is false.  Internally the solver works with *encoded*
literals (``2*v`` / ``2*v + 1``) for fast array indexing, but everything in
the public API speaks DIMACS literals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

Lit = int
Var = int


def var_of(lit: Lit) -> Var:
    """Return the variable underlying a DIMACS literal."""
    return abs(lit)


def is_positive(lit: Lit) -> bool:
    """True when the literal asserts its variable."""
    return lit > 0


def negate(lit: Lit) -> Lit:
    """Return the complementary literal."""
    return -lit


class Status(Enum):
    """Result of a satisfiability query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class ClauseArena:
    """Flat clause storage: one shared literal array plus parallel metadata.

    Clauses are identified by small integer ids indexing parallel arrays:
    ``start[cid]``/``size[cid]`` delimit the clause's span in the shared
    ``lits`` array, and ``lbd``/``activity``/``learned``/``deleted`` carry
    the clause-database metadata the solver's reduction policy needs.

    Compared to one heap object per clause, the arena removes both the
    per-clause allocation on the solver's load path and the attribute
    dereferences on its propagation path; deleted clauses are flagged and
    their storage reclaimed by :meth:`Solver.reduce_db`-driven compaction
    (see :mod:`repro.sat.solver`).
    """

    __slots__ = ("lits", "start", "size", "lbd", "activity", "learned",
                 "deleted", "live_lits")

    def __init__(self) -> None:
        self.lits: list[Lit] = []
        self.start: list[int] = []
        self.size: list[int] = []
        self.lbd: list[int] = []
        self.activity: list[float] = []
        self.learned: bytearray = bytearray()
        self.deleted: bytearray = bytearray()
        # Literal count of live (non-deleted) clauses; len(self.lits) minus
        # this is the wasted space that triggers compaction.
        self.live_lits: int = 0

    def add(self, lits: Sequence[Lit], learned: bool = False,
            lbd: int = 0) -> int:
        """Append a clause; returns its id."""
        cid = len(self.start)
        self.start.append(len(self.lits))
        self.size.append(len(lits))
        self.lits.extend(lits)
        self.lbd.append(lbd)
        self.activity.append(0.0)
        self.learned.append(1 if learned else 0)
        self.deleted.append(0)
        self.live_lits += len(lits)
        return cid

    def delete(self, cid: int) -> None:
        """Flag a clause deleted (evicted lazily from watch lists)."""
        if not self.deleted[cid]:
            self.deleted[cid] = 1
            self.live_lits -= self.size[cid]

    def clause(self, cid: int) -> list[Lit]:
        """The clause's literals (a copy)."""
        s = self.start[cid]
        return self.lits[s:s + self.size[cid]]

    def __len__(self) -> int:
        return len(self.start)


class VarOrderHeap:
    """Indexed binary max-heap over variable activities with decrease-key.

    The solver's VSIDS branching order.  Each variable appears **at most
    once**; ``_pos`` maps a variable to its slot in the heap array (or -1
    when absent), which is what makes in-place reordering possible:
    bumping a variable's activity sifts its existing entry up
    (:meth:`update`) instead of pushing a duplicate the way a lazy
    ``heapq`` scheme does.  Backtracking therefore re-inserts only the
    variables that were actually consumed, and :meth:`pop` never has to
    skip stale entries — the heap size is bounded by the variable count
    rather than growing with the number of backtracks.

    Ordering: higher activity first; ties break toward the smaller
    variable index, so the pop order is deterministic (a total order —
    variable indices are unique).

    ``activity`` is held by reference and shared with the solver, which
    mutates it in place (bump, rescale).  A uniform rescale preserves the
    relative order, so no re-heapify is needed; a bump must be followed
    by :meth:`update` on the bumped variable.
    """

    __slots__ = ("activity", "_heap", "_pos")

    def __init__(self, activity) -> None:
        self.activity = activity
        self._heap: list[Var] = []
        self._pos: list[int] = [-1]  # index 0 unused

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __contains__(self, var: Var) -> bool:
        return var < len(self._pos) and self._pos[var] >= 0

    def grow(self, var: Var) -> None:
        """Extend the position table to cover variables up to ``var``."""
        pos = self._pos
        while len(pos) <= var:
            pos.append(-1)

    def _sift_up(self, i: int) -> None:
        heap, pos, activity = self._heap, self._pos, self.activity
        var = heap[i]
        act = activity[var]
        while i > 0:
            parent = (i - 1) >> 1
            pvar = heap[parent]
            pact = activity[pvar]
            if pact > act or (pact == act and pvar < var):
                break
            heap[i] = pvar
            pos[pvar] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _sift_down(self, i: int) -> None:
        heap, pos, activity = self._heap, self._pos, self.activity
        n = len(heap)
        var = heap[i]
        act = activity[var]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            best = left
            bvar = heap[left]
            bact = activity[bvar]
            right = left + 1
            if right < n:
                rvar = heap[right]
                ract = activity[rvar]
                if ract > bact or (ract == bact and rvar < bvar):
                    best, bvar, bact = right, rvar, ract
            if act > bact or (act == bact and var < bvar):
                break
            heap[i] = bvar
            pos[bvar] = i
            i = best
        heap[i] = var
        pos[var] = i

    def push(self, var: Var) -> None:
        """Insert ``var``; a no-op when it is already in the heap."""
        self.grow(var)
        if self._pos[var] >= 0:
            return
        self._heap.append(var)
        self._sift_up(len(self._heap) - 1)

    def pop(self) -> Var | None:
        """Remove and return the highest-activity variable, or ``None``."""
        heap = self._heap
        if not heap:
            return None
        top = heap[0]
        self._pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            self._sift_down(0)
        return top

    def update(self, var: Var) -> None:
        """Restore heap order after ``var``'s activity increased."""
        if var < len(self._pos):
            i = self._pos[var]
            if i >= 0:
                self._sift_up(i)


@dataclass
class Model:
    """A satisfying assignment, mapping every variable to a boolean."""

    values: dict[Var, bool] = field(default_factory=dict)

    def __getitem__(self, var: Var) -> bool:
        return self.values[var]

    def __contains__(self, var: Var) -> bool:
        return var in self.values

    def value_of(self, lit: Lit) -> bool:
        """Truth value of a literal under this model."""
        value = self.values[var_of(lit)]
        return value if is_positive(lit) else not value

    def satisfies_clause(self, cl: Sequence[Lit]) -> bool:
        """True when at least one literal of ``cl`` is true."""
        return any(self.value_of(lit) for lit in cl)

    def satisfies(self, clauses: Iterable[Sequence[Lit]]) -> bool:
        """True when every clause is satisfied."""
        return all(self.satisfies_clause(cl) for cl in clauses)

    def as_literals(self) -> list[Lit]:
        """Render the model as a sorted list of true literals."""
        return [v if value else -v for v, value in sorted(self.values.items())]
