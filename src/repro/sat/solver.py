"""A conflict-driven clause-learning (CDCL) SAT solver.

This module is the bottom of the verification stack: the relational
translator in :mod:`repro.kodkod` compiles Alloy-style models to CNF, and
this solver decides them.  It implements the standard modern architecture:

* two-watched-literal unit propagation with blocker literals,
* first-UIP conflict analysis with clause learning,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* solving under assumptions (used for incremental model enumeration),
* a managed clause database: learned clauses are kept separate from
  problem clauses, carry LBD ("glue") and activity scores, and are
  periodically reduced so long enumeration sessions do not degrade.

Clauses live in a flat literal arena (:class:`repro.sat.types.ClauseArena`):
parallel int arrays indexed by clause id, with every clause a span in one
shared literal array.  Watcher lists are flat interleaved ``[clause id,
blocker literal]`` arrays indexed by encoded literal (``2v`` for the
positive literal of variable ``v``, ``2v + 1`` for the negative), so the
propagation inner loop touches only list indexing — no per-clause heap
objects, no attribute dereferences, no dict hashing.  A blocker is a
literal of the clause (normally the other watched literal) checked before
the clause span itself: when the blocker is already true the clause is
satisfied and the span is never read.

Clause ids are stable between reductions; when the arena accumulates too
much deleted-clause storage, :meth:`Solver.reduce_db` compacts it and
remaps watcher lists and reason references in one sweep.

This is the one in-process SAT engine: each phase of the search
(propagation, conflict analysis, minimization, branching) has exactly one
loop, and ``tests/sat/test_trajectory_pin.py`` pins the trajectory they
take.  External binaries plug in beside it through
:mod:`repro.sat.external`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from repro.sat.cnf import CNF
from repro.sat.types import ClauseArena, Lit, Model, Status, Var, VarOrderHeap

_TRUE = 1
_FALSE = -1
_UNASSIGNED = 0

# Reason / conflict sentinel: "no clause".
_NO_CLAUSE = -1


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    if i <= 0:
        raise ValueError("Luby sequence is 1-based")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


def _enc(lit: Lit) -> int:
    """Encoded literal: index into the watcher-list table.

    The expression is inlined (not called) in the ``add_cnf`` and
    ``_propagate`` hot loops; keep the two in sync.
    """
    return 2 * lit if lit > 0 else -2 * lit + 1


class Solver:
    """CDCL SAT solver over DIMACS-style integer literals."""

    kernel = "pure"
    """Engine name reported as ``solver_stats["kernel"]`` by
    :meth:`repro.kodkod.engine.Session.solver_stats` (an external engine
    reports ``"external"``)."""

    def __init__(self, restart_base: int = 100, decay: float = 0.95,
                 clause_decay: float = 0.999, max_learned: int = 4000,
                 reduce_growth: float = 1.3, glue_lbd: int = 2) -> None:
        self._num_vars = 0
        self._arena = ClauseArena()
        self._problem_db: list[int] = []
        self._learned_db: list[int] = []
        # Watcher lists indexed by encoded literal; each is a flat
        # interleaved [clause id, blocker literal, ...] array.
        self._watches: list[list[int]] = [[], []]
        self._assign: list[int] = [_UNASSIGNED]  # index 0 unused
        self._level: list[int] = [0]
        self._reason: list[int] = [_NO_CLAUSE]
        self._phase: list[bool] = [False]
        # float64 activity storage, shared with the order heap.
        self._activity = array("d", [0.0])
        self._trail: list[Lit] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._activity_inc = 1.0
        self._decay = decay
        self._clause_inc = 1.0
        self._clause_decay = clause_decay
        self._max_learned = max_learned
        self._reduce_growth = reduce_growth
        self._glue_lbd = glue_lbd
        self._restart_base = restart_base
        self._ok = True  # False once a top-level conflict is found
        self._assumption_levels: list[int] = []
        # Indexed max-heap over variable activities: one entry per
        # variable, reordered in place on bump (decrease-key), so
        # backtracking re-inserts only consumed variables instead of
        # re-pushing duplicates.
        self._order_heap = VarOrderHeap(self._activity)
        self.stats: dict[str, int] = {
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "learned_deleted": 0,
            "db_reductions": 0,
        }

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables currently known to the solver."""
        return self._num_vars

    def new_var(self) -> Var:
        """Allocate a fresh variable."""
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(_NO_CLAUSE)
        self._phase.append(False)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        self._order_heap.push(self._num_vars)
        return self._num_vars

    def _ensure_var(self, var: Var) -> None:
        while self._num_vars < var:
            self.new_var()

    def _watch(self, lit: Lit, cid: int, blocker: Lit) -> None:
        watch_list = self._watches[_enc(lit)]
        watch_list.append(cid)
        watch_list.append(blocker)

    def add_clause(self, lits: Sequence[Lit]) -> bool:
        """Add a problem clause; returns False if the solver becomes UNSAT.

        The solver backtracks to decision level 0 first, so clauses may be
        added between ``solve`` calls (e.g. blocking clauses for model
        enumeration).  Problem clauses are never removed by clause-database
        reduction, so blocking clauses stay in force for the lifetime of
        the solver.
        """
        if not self._ok:
            return False
        self._backtrack(0)
        seen: set[Lit] = set()
        cleaned: list[Lit] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if -lit in seen:
                return True  # tautology: trivially satisfied
            if lit in seen:
                continue
            seen.add(lit)
            self._ensure_var(abs(lit))
            value = self._value(lit)
            if value == _TRUE and self._level[abs(lit)] == 0:
                return True  # already satisfied at the root
            if value == _FALSE and self._level[abs(lit)] == 0:
                continue  # falsified at the root: drop the literal
            cleaned.append(lit)
        return self._install_clause(cleaned)

    def _install_clause(self, cleaned: list[Lit]) -> bool:
        """Store a root-simplified problem clause and propagate units."""
        if not cleaned:
            self._ok = False
            return False
        if len(cleaned) == 1:
            if not self._enqueue(cleaned[0], _NO_CLAUSE):
                self._ok = False
                return False
            if self._propagate() != _NO_CLAUSE:
                self._ok = False
                return False
            return True
        cid = self._arena.add(cleaned)
        self._problem_db.append(cid)
        self._watch(cleaned[0], cid, cleaned[1])
        self._watch(cleaned[1], cid, cleaned[0])
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        """Load an entire CNF; returns False on trivial UNSAT.

        This is the bulk-load path under :class:`~repro.kodkod.translate.
        Translation`: variables are allocated in one step, clauses are
        simplified against the root-level assignment and appended straight
        into the arena, and unit propagation runs once at the end instead
        of after every unit clause.
        """
        if not self._ok:
            return False
        self._backtrack(0)
        self._ensure_var(cnf.num_vars)
        arena = self._arena
        problem_db = self._problem_db
        assign = self._assign
        watches = self._watches
        for tup in cnf.clauses():
            cleaned: list[Lit] = []
            satisfied = False
            for lit in tup:
                value = assign[lit] if lit > 0 else -assign[-lit]
                if value == _TRUE:
                    satisfied = True
                    break
                if value == _UNASSIGNED:
                    cleaned.append(lit)
                # _FALSE at root: drop the literal.
            if satisfied:
                continue
            n = len(cleaned)
            if n > 1:
                lit_set = set(cleaned)
                tautology = False
                for lit in lit_set:
                    if -lit in lit_set:
                        tautology = True
                        break
                if tautology:
                    continue
                if len(lit_set) != n:
                    seen: set[Lit] = set()
                    dedup: list[Lit] = []
                    for lit in cleaned:
                        if lit not in seen:
                            seen.add(lit)
                            dedup.append(lit)
                    cleaned = dedup
                    n = len(cleaned)
            if n == 0:
                self._ok = False
                return False
            if n == 1:
                lit = cleaned[0]
                # Root assignments made here simplify the clauses that
                # follow (the `assign` reads above see them immediately).
                if not self._enqueue(lit, _NO_CLAUSE):
                    self._ok = False
                    return False
                continue
            cid = arena.add(cleaned)
            problem_db.append(cid)
            first, second = cleaned[0], cleaned[1]
            watch_list = watches[2 * first if first > 0 else -2 * first + 1]
            watch_list.append(cid)
            watch_list.append(second)
            watch_list = watches[2 * second if second > 0 else -2 * second + 1]
            watch_list.append(cid)
            watch_list.append(first)
        if self._propagate() != _NO_CLAUSE:
            self._ok = False
            return False
        return True

    # ------------------------------------------------------------------
    # Assignment plumbing
    # ------------------------------------------------------------------

    def _value(self, lit: Lit) -> int:
        value = self._assign[abs(lit)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if lit > 0 else -value

    def _enqueue(self, lit: Lit, reason: int) -> bool:
        value = self._value(lit)
        if value == _FALSE:
            return False
        if value == _TRUE:
            return True
        var = abs(lit)
        self._assign[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause id or -1.

        Each watch list is scanned in place: entries that stay are not
        moved, and the positions of entries whose clause found a new
        watch (or was deleted by ``reduce_db``) are closed with slice
        moves after the scan, so the list keeps its order.
        """
        trail = self._trail
        trail_lim = self._trail_lim
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        watches = self._watches
        arena = self._arena
        lits = arena.lits
        start = arena.start
        size = arena.size
        deleted = arena.deleted
        removed: list[int] = []  # positions to close in the current list
        propagated = 0
        conflict = _NO_CLAUSE
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            propagated += 1
            false_lit = -lit
            e = 2 * false_lit if false_lit > 0 else -2 * false_lit + 1
            watch_list = watches[e]
            n = len(watch_list)
            if not n:
                continue
            for i in range(0, n, 2):
                blocker = watch_list[i + 1]
                value = assign[blocker] if blocker > 0 else -assign[-blocker]
                if value == _TRUE:
                    continue
                cid = watch_list[i]
                if deleted[cid]:
                    # Lazily drop clauses removed by reduce_db.
                    removed.append(i)
                    continue
                s = start[cid]
                # Normalize: put the false literal in slot 1.
                if lits[s] == false_lit:
                    lits[s] = lits[s + 1]
                    lits[s + 1] = false_lit
                first = lits[s]
                if first != blocker:
                    value = assign[first] if first > 0 else -assign[-first]
                    if value == _TRUE:
                        watch_list[i + 1] = first
                        continue
                # Search for a replacement watch.
                for k in range(s + 2, s + size[cid]):
                    other = lits[k]
                    if (assign[other] if other > 0 else -assign[-other]) \
                            != _FALSE:
                        lits[s + 1] = other
                        lits[k] = false_lit
                        new_list = watches[2 * other if other > 0
                                           else -2 * other + 1]
                        new_list.append(cid)
                        new_list.append(first)
                        removed.append(i)
                        break
                else:
                    # Clause is unit or conflicting (`value` is `first`'s);
                    # it stays on this list with `first` as the blocker.
                    if first != blocker:
                        watch_list[i + 1] = first
                    if value == _FALSE:
                        conflict = cid
                        break
                    # Enqueue the unit (inlined _enqueue: `first` is
                    # unassigned).
                    var = first if first > 0 else -first
                    assign[var] = _TRUE if first > 0 else _FALSE
                    level[var] = len(trail_lim)
                    reason[var] = cid
                    phase[var] = first > 0
                    trail.append(first)
            if removed:
                # Shift each run of kept entries left over the gaps; the
                # last run moves with the final delete.
                j = gone = removed[0]
                for nxt in removed[1:]:
                    kept = nxt - gone - 2
                    watch_list[j:j + kept] = watch_list[gone + 2:nxt]
                    j += kept
                    gone = nxt
                del watch_list[j:gone + 2]
                del removed[:]
            if conflict != _NO_CLAUSE:
                break
        self.stats["propagations"] += propagated
        return conflict

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        reason = self._reason
        heap = self._order_heap
        for lit in reversed(self._trail[limit:]):
            var = lit if lit > 0 else -lit
            assign[var] = _UNASSIGNED
            reason[var] = _NO_CLAUSE
            heap.push(var)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump_vars(self, to_bump: Sequence[Var]) -> None:
        """Bump every variable in ``to_bump`` by the current increment.

        Conflict analysis batches its bumps: the adds are applied first,
        then one rescale decision covers the whole batch, then the
        order-heap reorderings run in batch order.  A
        variable can appear twice (its ``seen`` mark was consumed by
        resolution and re-marked from a later reason clause) and is then
        bumped twice, exactly as the per-literal path did.
        """
        activity = self._activity
        inc = self._activity_inc
        rescale = False
        for var in to_bump:
            bumped = activity[var] + inc
            activity[var] = bumped
            if bumped > 1e100:
                rescale = True
        if rescale:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._activity_inc *= 1e-100
        heap = self._order_heap
        for var in to_bump:
            heap.update(var)

    def _bump_clause(self, cid: int) -> None:
        arena = self._arena
        arena.activity[cid] += self._clause_inc
        if arena.activity[cid] > 1e20:
            for c in self._learned_db:
                arena.activity[c] *= 1e-20
            self._clause_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._activity_inc /= self._decay
        self._clause_inc /= self._clause_decay

    def _analyze(self, conflict: int) -> tuple[list[Lit], int]:
        """First-UIP analysis; returns (learned clause, backjump level)."""
        arena = self._arena
        arena_lits = arena.lits
        arena_start = arena.start
        arena_size = arena.size
        level = self._level
        trail = self._trail
        learned: list[Lit] = []
        to_bump: list[Var] = []
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit: Lit | None = None
        if arena.learned[conflict]:
            self._bump_clause(conflict)
        cid = conflict
        index = len(trail)
        current_level = self._decision_level()

        while True:
            s = arena_start[cid]
            for k in range(s, s + arena_size[cid]):
                q = arena_lits[k]
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    to_bump.append(var)
                    if level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Pick the next trail literal at the current level to resolve on.
            while True:
                index -= 1
                lit = trail[index]
                if seen[lit if lit > 0 else -lit]:
                    break
            counter -= 1
            seen[lit if lit > 0 else -lit] = False
            if counter == 0:
                learned.insert(0, -lit)
                break
            cid = self._reason[lit if lit > 0 else -lit]
            assert cid != _NO_CLAUSE, "UIP literal must have a reason"
            if arena.learned[cid]:
                self._bump_clause(cid)

        self._bump_vars(to_bump)

        # Clause minimization: drop literals implied by the rest.  After the
        # loop `seen` marks exactly the variables of learned[1:] (everything
        # at the conflict level was consumed by resolution), so it doubles
        # as the membership table once the asserting literal is added.
        seen[learned[0] if learned[0] > 0 else -learned[0]] = True
        learned = self._minimize(learned, seen)

        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        levels = sorted((level[abs(q)] for q in learned[1:]), reverse=True)
        backjump = levels[0]
        # Move a literal of the backjump level into slot 1 for watching.
        for k in range(1, len(learned)):
            if level[abs(learned[k])] == backjump:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, backjump

    def _minimize(self, learned: list[Lit], seen: list[bool]) -> list[Lit]:
        """Remove literals whose reasons are subsumed by the learned clause.

        ``seen`` is the analysis buffer, re-used as the membership table:
        true exactly for the variables of ``learned``.
        """
        arena = self._arena
        arena_lits = arena.lits
        arena_start = arena.start
        arena_size = arena.size
        level = self._level
        reason_of = self._reason
        result = [learned[0]]
        for q in learned[1:]:
            var_q = q if q > 0 else -q
            reason = reason_of[var_q]
            if reason == _NO_CLAUSE:
                result.append(q)
                continue
            s = arena_start[reason]
            redundant = True
            for k in range(s, s + arena_size[reason]):
                r = arena_lits[k]
                var_r = r if r > 0 else -r
                if var_r == var_q:
                    continue  # the implied literal itself
                if not seen[var_r] and level[var_r] != 0:
                    redundant = False
                    break
            if not redundant:
                result.append(q)
        return result

    def _compute_lbd(self, lits: Sequence[Lit]) -> int:
        """Literal block distance: number of distinct decision levels."""
        return len({self._level[abs(q)] for q in lits})

    def _record_learned(self, learned: list[Lit]) -> None:
        self.stats["learned"] += 1
        if len(learned) == 1:
            enqueued = self._enqueue(learned[0], _NO_CLAUSE)
            assert enqueued, "learned unit must be assignable after backjump"
            return
        cid = self._arena.add(learned, learned=True,
                              lbd=self._compute_lbd(learned))
        self._learned_db.append(cid)
        self._watch(learned[0], cid, learned[1])
        self._watch(learned[1], cid, learned[0])
        enqueued = self._enqueue(learned[0], cid)
        assert enqueued, "learned clause must be asserting"

    # ------------------------------------------------------------------
    # Clause database management
    # ------------------------------------------------------------------

    def reduce_db(self) -> int:
        """Discard the less useful half of the learned clauses.

        Clauses currently acting as a reason for an assignment ("locked"),
        binary clauses and low-LBD "glue" clauses are always kept; the rest
        are ranked by (LBD, activity) and the worse half is deleted.
        Deleted clauses are flagged and evicted from watch lists lazily
        during propagation; their arena storage is reclaimed by compaction
        once it outweighs the live clauses.  Returns the number of clauses
        deleted.
        """
        arena = self._arena
        locked = set(r for r in self._reason if r != _NO_CLAUSE)
        keep: list[int] = []
        candidates: list[int] = []
        glue_lbd = self._glue_lbd
        lbd = arena.lbd
        size = arena.size
        deleted_flags = arena.deleted
        for cid in self._learned_db:
            if deleted_flags[cid]:
                continue
            if cid in locked or size[cid] <= 2 or lbd[cid] <= glue_lbd:
                keep.append(cid)
            else:
                candidates.append(cid)
        activity = arena.activity
        candidates.sort(key=lambda c: (lbd[c], -activity[c]))
        half = len(candidates) // 2
        for cid in candidates[half:]:
            arena.delete(cid)
        deleted = len(candidates) - half
        self._learned_db = keep + candidates[:half]
        self.stats["learned_deleted"] += deleted
        self.stats["db_reductions"] += 1
        # Grow the budget geometrically, but never by less than one (small
        # budgets would otherwise truncate to zero growth), and never below
        # the survivors plus slack (an always-kept set at the budget would
        # otherwise re-trigger a no-op reduction on every conflict).
        self._max_learned = max(
            int(self._max_learned * self._reduce_growth),
            self._max_learned + 1,
            len(self._learned_db) + 16,
        )
        wasted = len(arena.lits) - arena.live_lits
        if wasted > 4096 and wasted > arena.live_lits:
            self._compact_arena()
        return deleted

    def _compact_arena(self) -> None:
        """Rebuild the arena without deleted clauses, remapping every
        clause id held by the databases, watcher lists and reasons."""
        old = self._arena
        new = ClauseArena()
        remap: dict[int, int] = {}
        old_lits = old.lits
        old_start = old.start
        old_size = old.size
        for cid in range(len(old.start)):
            if old.deleted[cid]:
                continue
            s = old_start[cid]
            new_cid = new.add(old_lits[s:s + old_size[cid]],
                              learned=bool(old.learned[cid]),
                              lbd=old.lbd[cid])
            new.activity[new_cid] = old.activity[cid]
            remap[cid] = new_cid
        self._problem_db = [remap[c] for c in self._problem_db]
        self._learned_db = [remap[c] for c in self._learned_db]
        self._reason = [remap[r] if r != _NO_CLAUSE else _NO_CLAUSE
                        for r in self._reason]
        for watch_list in self._watches:
            j = 0
            for i in range(0, len(watch_list), 2):
                new_cid = remap.get(watch_list[i])
                if new_cid is None:
                    continue  # deleted clause: evict eagerly while here
                watch_list[j] = new_cid
                watch_list[j + 1] = watch_list[i + 1]
                j += 2
            del watch_list[j:]
        self._arena = new

    def clause_db_stats(self) -> dict[str, float]:
        """Snapshot of the clause database (feeds benchmark reports)."""
        arena = self._arena
        learned = [c for c in self._learned_db if not arena.deleted[c]]
        return {
            "problem_clauses": len(self._problem_db),
            "learned_clauses": len(learned),
            "learned_total": self.stats["learned"],
            "learned_deleted": self.stats["learned_deleted"],
            "db_reductions": self.stats["db_reductions"],
            "glue_clauses": sum(
                1 for c in learned if arena.lbd[c] <= self._glue_lbd
            ),
            "avg_lbd": (
                sum(arena.lbd[c] for c in learned) / len(learned)
                if learned else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> Var | None:
        heap = self._order_heap
        assign = self._assign
        while True:
            var = heap.pop()
            if var is None:
                break
            if assign[var] == _UNASSIGNED:
                return var
        # Heap exhausted (entries consumed while their variables were later
        # assigned by propagation): fall back to a scan that still respects
        # activity order — highest activity wins, ties to the lowest index —
        # so the choice matches what the heap would have produced.
        activity = self._activity
        best: Var | None = None
        best_act = -1.0
        for var in range(1, self._num_vars + 1):
            if assign[var] == _UNASSIGNED and activity[var] > best_act:
                best = var
                best_act = activity[var]
        return best

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Iterable[Lit] = ()) -> Status:
        """Decide satisfiability under the given assumptions."""
        self._assumption_levels = []
        self._backtrack(0)
        if not self._ok:
            return Status.UNSAT
        if self._propagate() != _NO_CLAUSE:
            self._ok = False
            return Status.UNSAT

        assumption_list = list(assumptions)
        for lit in assumption_list:
            self._ensure_var(abs(lit))

        conflicts_until_restart = self._restart_base * luby(1)
        restart_count = 0
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict != _NO_CLAUSE:
                self.stats["conflicts"] += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return Status.UNSAT
                if self._decision_level() <= len(self._assumption_levels):
                    # Conflict depends only on assumptions.
                    self._backtrack(0)
                    return Status.UNSAT
                learned, backjump = self._analyze(conflict)
                backjump = max(backjump, len(self._assumption_levels))
                self._backtrack(backjump)
                self._record_learned(learned)
                self._decay_activities()
                if len(self._learned_db) >= self._max_learned:
                    self.reduce_db()
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                self.stats["restarts"] += 1
                restart_count += 1
                conflicts_since_restart = 0
                conflicts_until_restart = self._restart_base * luby(restart_count + 1)
                self._backtrack(len(self._assumption_levels))
                continue

            # Place any pending assumptions as pseudo-decisions.
            if len(self._assumption_levels) < len(assumption_list):
                lit = assumption_list[len(self._assumption_levels)]
                value = self._value(lit)
                if value == _FALSE:
                    self._backtrack(0)
                    return Status.UNSAT
                self._new_decision_level()
                self._assumption_levels.append(self._decision_level())
                if value == _UNASSIGNED:
                    self._enqueue(lit, _NO_CLAUSE)
                continue

            var = self._pick_branch_var()
            if var is None:
                return Status.SAT
            self.stats["decisions"] += 1
            self._new_decision_level()
            lit = var if self._phase[var] else -var
            self._enqueue(lit, _NO_CLAUSE)

    def model(self) -> Model:
        """Extract the satisfying assignment after a SAT answer.

        Unassigned variables (possible when the formula does not constrain
        them) default to False.
        """
        values = {}
        for var in range(1, self._num_vars + 1):
            values[var] = self._assign[var] == _TRUE
        return Model(values)


def solve_cnf(cnf: CNF,
              assumptions: Iterable[Lit] = ()) -> tuple[Status, Model | None]:
    """One-shot convenience: build a solver, load ``cnf``, solve."""
    solver = Solver()
    if not solver.add_cnf(cnf):
        return Status.UNSAT, None
    status = solver.solve(assumptions)
    if status is Status.SAT:
        return status, solver.model()
    return status, None
