"""Numpy assists for the CDCL solver's propagation and conflict loops.

:class:`repro.sat.solver.Solver` owns the only unit-propagation loop
(``_propagate``) and the only conflict-analysis and minimization loops.
With ``kernel="vector"`` it attaches a :class:`VectorKernel`, and those
loops hand it the work numpy does in bulk:

* **Blocker prefilter.**  On check-shaped problems the overwhelming
  majority of watcher entries pass the blocker test and are skipped
  untouched.  For a long watch list the kernel mirrors the blocker
  literals into contiguous numpy ``int32``/``int8`` buffers and the
  current assignment into an ``int8`` array (synced in bulk from the trail
  delta), and one vector expression

      ``assign[|blockers|] != sign(blockers)``

  yields the positions of the few entries the loop has to visit.  A
  blocker that is true at the start of a scan stays true for the whole
  pass (assignments are only added during propagation), so the filter
  skips exactly the entries the full scan would leave untouched and the
  search trajectory does not change.
* **Conflict-path assists.**  A per-variable decision-level mirror
  (``int32``, synced from the trail in :meth:`begin_analyze` -- levels
  are recomputed positionally from ``trail_lim`` with one
  ``searchsorted``, so the sync never touches the solver's Python-level
  ``_level`` list) backs three assists: :meth:`scan_reason` marks a reason
  clause's fresh variables into the ``seen`` buffer and classifies them by
  level in one gather, :meth:`redundant` evaluates the minimization
  predicate over a whole reason clause, and :meth:`compute_lbd` counts
  distinct levels with ``np.unique``.  VSIDS activities live in the
  solver's ``array('d')`` storage, so :meth:`rescale_activity` multiplies
  all of them through a transient zero-copy ``np.frombuffer`` view.  The
  solver calls these only for clauses at or above its length thresholds,
  where the numpy round-trip costs less than it saves; each reproduces the
  interpreted result literal for literal.

Consequently a ``vector`` solver and a ``pure`` solver fed the same
clauses take identical search trajectories: same models, same learned
clauses, same ``stats``.  The differential oracles (``repro.campaign``,
``repro.fuzz``) rely on this to compare the two kernels entry for entry,
not just verdict for verdict.

The kernel is optional: :func:`make_kernel` returns ``None`` when numpy is
not installed and the solver runs its loops without assists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via stubbed-import tests
    _np = None  # type: ignore[assignment]

from repro.sat.solver import _FALSE, _TRUE

if TYPE_CHECKING:
    from repro.sat.solver import Solver
    from repro.sat.types import Lit

HAVE_NUMPY = _np is not None

# Watch lists shorter than this many [cid, blocker] pairs are scanned in
# full: below it the fixed cost of the numpy round-trip (array build or
# cache lookup, gather, nonzero) exceeds the per-pair savings of the
# filter.
MIN_VECTOR_PAIRS = 24

# Trail deltas and unassign batches below this size are synced scalar-wise;
# np.fromiter only pays off once the batch amortizes its setup.
_MIN_BULK_SYNC = 8

# Adaptive filter governor.  The blocker filter only pays when it prunes:
# on conflict-heavy lists most blockers are unassigned, every scan mutates
# the list (killing the blocker cache), and the numpy round-trip is pure
# overhead.  A list whose filter prunes less than a quarter of its entries
# _FILTER_PATIENCE scans in a row is demoted to the full scan for
# _SCALAR_MODE_SCANS scans, then given another try.  The filter skips only
# entries whose blocker is true -- entries the full scan skips as well --
# so switching modes never changes the search trajectory.
_FILTER_PATIENCE = 4
_SCALAR_MODE_SCANS = 64


def make_kernel(solver: "Solver") -> "VectorKernel | None":
    """Build the vector kernel for ``solver``, or ``None`` without numpy."""
    if _np is None:
        return None
    return VectorKernel(solver)


class VectorKernel:
    """Numpy assists attached to one :class:`Solver`.

    The kernel owns two kinds of mirror state:

    * ``_assign`` — an ``int8`` copy of the solver's assignment array,
      synced lazily from the trail (``_trail_mark`` tracks the synced
      prefix) and zeroed in bulk on backtrack via :meth:`on_unassign`;
    * ``_cache`` — per-encoded-literal ``(|blocker|, sign)`` int arrays for
      long watch lists, so repeated scans of a hot list skip the
      list→ndarray conversion.  An entry is valid only while its length
      matches the live list; any change the length check cannot see
      (a scan that rewrote or removed entries, arena compaction) drops
      the entry instead (:meth:`forget`, :meth:`invalidate`).
    """

    def __init__(self, solver: "Solver") -> None:
        self._solver = solver
        cap = max(len(solver._assign), 16)
        self._assign = _np.zeros(cap, dtype=_np.int8)
        self._trail_mark = 0
        # Decision-level mirror for the conflict-path assists.  Synced
        # lazily (only when analysis runs) from its own trail mark; stale
        # values are never read because every consumer looks up variables
        # that are currently assigned, and those are always synced.
        self._levels = _np.zeros(cap, dtype=_np.int32)
        self._level_mark = 0
        # encoded literal -> (abs(blockers) int32, sign(blockers) int8)
        self._cache: dict[int, tuple["_np.ndarray", "_np.ndarray"]] = {}
        # Per-encoded-literal filter governor: >= 0 counts consecutive
        # low-prune filtered scans, < 0 counts remaining scalar-mode scans.
        self._filter_state: list[int] = []
        # The solver may be handed to the kernel mid-life (not the case
        # today, but cheap to be correct about): sync any existing trail.
        self._sync_assign()

    # ------------------------------------------------------------------
    # Mirror maintenance
    # ------------------------------------------------------------------

    def _ensure_capacity(self, n: int) -> "_np.ndarray":
        arr = self._assign
        if arr.shape[0] < n:
            cap = max(n, 2 * arr.shape[0])
            grown = _np.zeros(cap, dtype=_np.int8)
            grown[: arr.shape[0]] = arr
            self._assign = arr = grown
            grown_levels = _np.zeros(cap, dtype=_np.int32)
            grown_levels[: self._levels.shape[0]] = self._levels
            self._levels = grown_levels
        return arr

    def _sync_assign(self) -> None:
        """Fold the unsynced trail suffix into the assignment mirror."""
        trail = self._solver._trail
        mark = self._trail_mark
        n = len(trail)
        np_assign = self._ensure_capacity(len(self._solver._assign))
        if mark >= n:
            return
        if n - mark < _MIN_BULK_SYNC:
            for idx in range(mark, n):
                lit = trail[idx]
                if lit > 0:
                    np_assign[lit] = _TRUE
                else:
                    np_assign[-lit] = _FALSE
        else:
            lits = _np.fromiter(trail[mark:], dtype=_np.int32, count=n - mark)
            np_assign[_np.abs(lits)] = _np.sign(lits).astype(_np.int8)
        self._trail_mark = n

    def on_unassign(self, removed: Sequence["Lit"], new_length: int) -> None:
        """Zero the mirror for the trail suffix the solver is popping."""
        if removed:
            np_assign = self._ensure_capacity(len(self._solver._assign))
            if len(removed) < _MIN_BULK_SYNC:
                for lit in removed:
                    np_assign[lit if lit > 0 else -lit] = 0
            else:
                lits = _np.fromiter(removed, dtype=_np.int32,
                                    count=len(removed))
                np_assign[_np.abs(lits)] = 0
        if self._trail_mark > new_length:
            self._trail_mark = new_length
        if self._level_mark > new_length:
            self._level_mark = new_length

    def invalidate(self) -> None:
        """Drop all cached watch arrays (arena compaction reorders lists)."""
        self._cache.clear()

    def forget(self, e: int) -> None:
        """Drop the cached blocker arrays of watch list ``e``.

        The solver calls this after a scan that rewrote a blocker in place
        or removed entries: the length check cannot see the first, and a
        later append could restore the old length after the second.
        """
        self._cache.pop(e, None)

    # ------------------------------------------------------------------
    # Blocker prefilter
    # ------------------------------------------------------------------

    def unblocked(self, e: int, watch_list: list[int]) -> "list[int] | None":
        """Positions in ``watch_list`` of the entries whose blocker is not
        true, or ``None`` when the solver should scan the whole list.

        ``e`` is the encoded literal the list watches.  The answer is
        ``None`` for short lists and for lists the governor has demoted.
        Positions are flat indices of clause ids, in ascending order.
        """
        pairs = len(watch_list) >> 1
        if pairs < MIN_VECTOR_PAIRS:
            return None
        filter_state = self._filter_state
        if e >= len(filter_state):
            filter_state.extend(
                [0] * (len(self._solver._watches) - len(filter_state)))
        mode = filter_state[e]
        if mode < 0:
            filter_state[e] = mode + 1
            return None
        self._sync_assign()
        entry = self._cache.get(e)
        if entry is None or entry[0].shape[0] != pairs:
            blockers = _np.array(watch_list[1::2], dtype=_np.int32)
            entry = (_np.abs(blockers), _np.sign(blockers).astype(_np.int8))
            self._cache[e] = entry
        # A blocker is true exactly when its variable's value is its sign.
        survivors = _np.nonzero(self._assign.take(entry[0]) != entry[1])[0]
        if survivors.shape[0] * 4 > pairs * 3:
            # Pruned less than a quarter: another strike toward demoting
            # this list to the full scan.
            mode += 1
            filter_state[e] = (-_SCALAR_MODE_SCANS
                               if mode >= _FILTER_PATIENCE else mode)
        elif mode:
            filter_state[e] = 0
        return (survivors << 1).tolist()

    # ------------------------------------------------------------------
    # Conflict-analysis assists
    # ------------------------------------------------------------------

    def seen_buffer(self, num_vars: int) -> "_np.ndarray":
        """Zeroed per-conflict 'seen' marks (calloc beats a list build)."""
        return _np.zeros(num_vars + 1, dtype=bool)

    def begin_analyze(self) -> None:
        """Bring the decision-level mirror up to date with the trail.

        Levels are recomputed positionally instead of gathered from the
        solver's ``_level`` list: a trail entry at index ``i`` was assigned
        at the level equal to the number of ``trail_lim`` boundaries at or
        below ``i`` (``_enqueue`` sets ``level[var] = len(trail_lim)`` and
        then appends), so one ``searchsorted`` over the boundary array
        yields the whole delta without touching a Python list per literal.
        """
        solver = self._solver
        trail = solver._trail
        mark = self._level_mark
        n = len(trail)
        if mark >= n:
            return
        self._ensure_capacity(len(solver._assign))
        levels = self._levels
        if n - mark < _MIN_BULK_SYNC:
            level = solver._level
            for idx in range(mark, n):
                lit = trail[idx]
                var = lit if lit > 0 else -lit
                levels[var] = level[var]
        else:
            np = _np
            lits = np.fromiter(trail[mark:], dtype=np.int32, count=n - mark)
            lims = np.fromiter(solver._trail_lim, dtype=np.int64,
                               count=len(solver._trail_lim))
            levels[np.abs(lits)] = np.searchsorted(
                lims, np.arange(mark, n), side="right"
            ).astype(np.int32)
        self._level_mark = n

    def scan_reason(self, s: int, n: int, skip_lit: int, current_level: int,
                    seen: "_np.ndarray", learned: list, to_bump: list) -> int:
        """One first-UIP resolution step over the clause span ``[s, s+n)``.

        Marks the clause's fresh variables (unseen, level > 0, excluding
        ``skip_lit`` — the literal being resolved on; 0 for the conflict
        clause) into ``seen``, appends them to ``to_bump``, appends the
        below-current-level literals to ``learned``, and returns how many
        sit at the current decision level — exactly what the interpreted
        scan in ``Solver._analyze`` does, in the same clause order.
        """
        np = _np
        arr = np.array(self._solver._arena.lits[s:s + n], dtype=np.int32)
        variables = np.abs(arr)
        lvl = self._levels[variables]
        fresh = (lvl > 0) & ~seen[variables]
        if skip_lit:
            fresh &= arr != skip_lit
        marked = variables[fresh]
        if marked.shape[0] == 0:
            return 0
        seen[marked] = True
        to_bump.extend(marked.tolist())
        at_current = lvl[fresh] == current_level
        count = int(at_current.sum())
        if count != marked.shape[0]:
            learned.extend(arr[fresh][~at_current].tolist())
        return count

    def redundant(self, s: int, n: int, var: int,
                  seen: "_np.ndarray") -> bool:
        """The minimization predicate over the reason clause ``[s, s+n)``.

        True when every literal of the clause other than ``var``'s (the
        implied literal) is in the learned clause (``seen``) or assigned
        at level 0 — the test ``Solver._minimize`` runs per literal on
        short clauses.
        """
        variables = _np.abs(_np.array(self._solver._arena.lits[s:s + n],
                                      dtype=_np.int32))
        return bool((seen[variables] | (self._levels[variables] == 0)
                     | (variables == var)).all())

    def compute_lbd(self, clause: Sequence["Lit"]) -> int:
        """Distinct decision levels of ``clause`` via ``np.unique``.

        Gathers from the level mirror (valid: ``begin_analyze`` ran for
        this conflict and backtracking rewrites neither the mirror nor the
        solver's ``_level`` entries for popped variables).
        """
        arr = _np.array(clause, dtype=_np.int32)
        return int(_np.unique(self._levels[_np.abs(arr)]).shape[0])

    def rescale_activity(self, factor: float) -> None:
        """Multiply every variable activity by ``factor`` in one sweep.

        The solver stores activities in an ``array('d')``, so a transient
        ``np.frombuffer`` view rescales them zero-copy.  The view must not
        outlive this call: while it exists the buffer is pinned and
        ``array.append`` (``new_var``) would raise ``BufferError``.
        """
        view = _np.frombuffer(self._solver._activity, dtype=_np.float64)
        view *= factor
