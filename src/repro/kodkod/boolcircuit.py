"""Hash-consed boolean circuits over a flat gate arena.

The relational translator compiles expressions to matrices of circuit nodes
(:mod:`repro.kodkod.matrix`); this module provides the node factory with
structural sharing and simplification, plus the compilation of a circuit to
CNF.  It mirrors the role of Kodkod's ``BooleanFactory``.

Nodes are small integers.  ``TRUE`` and ``FALSE`` are pre-allocated; inputs
("free" boolean variables, one per undetermined relation tuple) and gates
are allocated on demand.  Negation is represented implicitly: the negation
of node ``n`` is ``-n``, so hash-consing covers complementation for free.

Storage is *flat*: instead of a dict of per-gate tuples, the factory keeps
parallel append-only lists indexed by node id — an opcode, plus a
(start, count) span into one shared children array.  This keeps every
lookup a couple of list indexings on the translation hot path and makes
the whole circuit cache-friendly and cheap to share across the repeated
translations of a campaign sweep.

Simplification happens at construction time: constant folding, absorption
of duplicate and complementary children, flattening of nested same-op
gates, and ITE/IFF rewriting against constant or equal branches.  A node,
once built, is therefore already in simplified form, and shared subformulas
are built exactly once.

CNF compilation is polarity-aware (Plaisted–Greenbaum): gates only ever
seen in one polarity under the roots emit one-sided implication clauses,
which preserves satisfiability per input assignment while cutting the
clause count roughly in half on ``check``-shaped (single-polarity)
problems.  The classic bipolar Tseitin encoding is kept selectable for
differential testing.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sat.cnf import CNF

# Node encoding: TRUE = 1, FALSE = -1; every other node is a positive id >= 2
# or its negation.  Node ids index the factory's flat arrays directly.
TRUE = 1
FALSE = -1

# Opcodes stored in the flat arena.
_NONE = 0
_CONST = 1
_INPUT = 2
_AND = 3
_OR = 4

# Polarity bitmask used during CNF compilation.
_POS = 1
_NEG = 2


class BooleanFactory:
    """Builds AND/OR/NOT circuits with structural sharing.

    The gate store is a flat, append-only arena: ``_op[n]`` is node ``n``'s
    opcode and ``_children[_start[n]:_start[n] + _count[n]]`` its children.
    """

    def __init__(self) -> None:
        # Index 0 is unused; index 1 is the TRUE constant.
        self._op: list[int] = [_NONE, _CONST]
        self._start: list[int] = [0, 0]
        self._count: list[int] = [0, 0]
        self._children: list[int] = []
        # (opcode, children tuple) -> node id (hash-consing).
        self._cache: dict[tuple[int, tuple[int, ...]], int] = {}
        self._num_gates = 0
        # Gate construction requests before simplification/sharing kicked
        # in: the size the circuit would have had with one gate per
        # constructor call ("gates before simplification").
        self.gate_requests = 0
        # Populated by :meth:`to_cnf`: clause-count savings of the
        # polarity-aware encoding relative to bipolar Tseitin.
        self.cnf_stats: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def fresh_input(self) -> int:
        """Allocate a free boolean input (one per undetermined tuple)."""
        node = len(self._op)
        self._op.append(_INPUT)
        self._start.append(len(self._children))
        self._count.append(0)
        return node

    def not_(self, node: int) -> int:
        """Negation (an involution thanks to signed node ids)."""
        return -node

    def _alloc(self, opcode: int, children: tuple[int, ...]) -> int:
        key = (opcode, children)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        node = len(self._op)
        self._op.append(opcode)
        self._start.append(len(self._children))
        self._count.append(len(children))
        self._children.extend(children)
        self._cache[key] = node
        self._num_gates += 1
        return node

    def and_(self, children: Iterable[int]) -> int:
        """N-ary conjunction with constant folding, dedup and flattening."""
        self.gate_requests += 1
        op = self._op
        flat: list[int] = []
        seen: set[int] = set()
        stack = list(children)
        while stack:
            child = stack.pop()
            if child == TRUE:
                continue
            if child == FALSE:
                return FALSE
            if -child in seen:
                return FALSE
            if child in seen:
                continue
            # Flatten nested conjunctions for better sharing.
            if child > 0 and op[child] == _AND:
                s = self._start[child]
                stack.extend(self._children[s:s + self._count[child]])
                continue
            seen.add(child)
            flat.append(child)
        if not flat:
            return TRUE
        if len(flat) == 1:
            return flat[0]
        flat.sort()
        return self._alloc(_AND, tuple(flat))

    def or_(self, children: Iterable[int]) -> int:
        """N-ary disjunction with constant folding, dedup and flattening."""
        self.gate_requests += 1
        op = self._op
        flat: list[int] = []
        seen: set[int] = set()
        stack = list(children)
        while stack:
            child = stack.pop()
            if child == FALSE:
                continue
            if child == TRUE:
                return TRUE
            if -child in seen:
                return TRUE
            if child in seen:
                continue
            if child > 0 and op[child] == _OR:
                s = self._start[child]
                stack.extend(self._children[s:s + self._count[child]])
                continue
            seen.add(child)
            flat.append(child)
        if not flat:
            return FALSE
        if len(flat) == 1:
            return flat[0]
        flat.sort()
        return self._alloc(_OR, tuple(flat))

    def and2(self, a: int, b: int) -> int:
        """Binary conjunction: the matrix layer's hot path.

        Skips the generic flatten/dedup loop; nested gates still hash-cons
        structurally, and the n-ary :meth:`and_` remains the entry point
        for formula-level conjunctions.
        """
        self.gate_requests += 1
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == FALSE or b == FALSE or a == -b:
            return FALSE
        if a == b:
            return a
        if a > b:
            a, b = b, a
        return self._alloc(_AND, (a, b))

    def or2(self, a: int, b: int) -> int:
        """Binary disjunction (dual of :meth:`and2`)."""
        self.gate_requests += 1
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a == TRUE or b == TRUE or a == -b:
            return TRUE
        if a == b:
            return a
        if a > b:
            a, b = b, a
        return self._alloc(_OR, (a, b))

    def implies(self, a: int, b: int) -> int:
        """Material implication."""
        return self.or2(-a, b)

    def iff(self, a: int, b: int) -> int:
        """Biconditional, rewritten against constant/equal operands."""
        if a == b:
            return TRUE
        if a == -b:
            return FALSE
        if a == TRUE:
            return b
        if a == FALSE:
            return -b
        if b == TRUE:
            return a
        if b == FALSE:
            return -a
        return self.and2(self.or2(-a, b), self.or2(a, -b))

    def ite(self, cond: int, then_node: int, else_node: int) -> int:
        """If-then-else, rewritten against constant/equal branches."""
        if cond == TRUE:
            return then_node
        if cond == FALSE:
            return else_node
        if then_node == else_node:
            return then_node
        if then_node == -else_node:
            return self.iff(cond, then_node)
        if then_node == TRUE:
            return self.or2(cond, else_node)
        if then_node == FALSE:
            return self.and2(-cond, else_node)
        if else_node == TRUE:
            return self.or2(-cond, then_node)
        if else_node == FALSE:
            return self.and2(cond, then_node)
        return self.or2(self.and2(cond, then_node),
                        self.and2(-cond, else_node))

    # ------------------------------------------------------------------
    # Evaluation (for tests and instance extraction)
    # ------------------------------------------------------------------

    def evaluate(self, node: int, inputs: dict[int, bool]) -> bool:
        """Evaluate ``node`` given values for every reachable input.

        Iterative (explicit stack): circuits produced by deep formula
        chains routinely exceed Python's recursion limit.
        """
        op, start, count, children = (
            self._op, self._start, self._count, self._children,
        )
        memo: dict[int, bool] = {TRUE: True}
        root = abs(node)
        stack = [root]
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            kind = op[n]
            if kind == _INPUT:
                memo[n] = inputs[n]
                stack.pop()
                continue
            s = start[n]
            kids = children[s:s + count[n]]
            pending = [abs(c) for c in kids if abs(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            if kind == _AND:
                value = True
                for c in kids:
                    if not (memo[c] if c > 0 else not memo[-c]):
                        value = False
                        break
            else:
                value = False
                for c in kids:
                    if memo[c] if c > 0 else not memo[-c]:
                        value = True
                        break
            memo[n] = value
            stack.pop()
        value = memo[root]
        return value if node > 0 else not value

    # ------------------------------------------------------------------
    # CNF compilation
    # ------------------------------------------------------------------

    def to_cnf(self, roots: Sequence[int],
               polarity_aware: bool = True) -> tuple[CNF, dict[int, int]]:
        """Compile the circuit to CNF, asserting every root true.

        With ``polarity_aware`` (the default) gates reachable in only one
        polarity emit one-sided Plaisted–Greenbaum clauses; pass ``False``
        for the classic bipolar Tseitin encoding (used by the differential
        encoding tests).  Returns the CNF and a map from circuit input node
        to CNF variable, used later to read relation tuples out of a SAT
        model.  Clause-count savings are recorded in :attr:`cnf_stats`.
        """
        op, start, count, children = (
            self._op, self._start, self._count, self._children,
        )

        # Pass 1: mark the polarity under which each node is reachable.
        polarity: dict[int, int] = {}
        stack: list[tuple[int, int]] = []
        for root in roots:
            base = abs(root)
            if base == TRUE:
                continue
            mark = (_POS if root > 0 else _NEG) if polarity_aware else (_POS | _NEG)
            old = polarity.get(base, 0)
            new = old | mark
            if new != old:
                polarity[base] = new
                stack.append((base, new & ~old))
        while stack:
            n, added = stack.pop()
            kind = op[n]
            if kind != _AND and kind != _OR:
                continue
            flipped = ((added & _POS) and _NEG) | ((added & _NEG) and _POS)
            s = start[n]
            for child in children[s:s + count[n]]:
                if child > 0:
                    base, mark = child, added
                else:
                    base, mark = -child, flipped
                old = polarity.get(base, 0)
                new = old | mark
                if new != old:
                    polarity[base] = new
                    stack.append((base, new & ~old))

        # Pass 2: allocate CNF variables in node order (deterministic) and
        # emit gate clauses according to the recorded polarities.
        cnf = CNF()
        new_var = cnf.new_var
        emit = cnf._append_clause
        node_var: dict[int, int] = {}
        marked = sorted(polarity)
        for n in marked:
            node_var[n] = new_var()
        saved = 0
        one_sided = 0
        for n in marked:
            kind = op[n]
            if kind != _AND and kind != _OR:
                continue
            var = node_var[n]
            pol = polarity[n]
            s = count[n]
            kids = children[start[n]:start[n] + s]
            lits = [node_var[c] if c > 0 else -node_var[-c] for c in kids]
            if kind == _AND:
                if pol & _POS:
                    # var -> every child.
                    for lit in lits:
                        emit((-var, lit))
                else:
                    saved += s
                if pol & _NEG:
                    # every child -> var.
                    big = [var]
                    big.extend(-lit for lit in lits)
                    emit(tuple(big))
                else:
                    saved += 1
            else:
                if pol & _POS:
                    # var -> some child.
                    big = [-var]
                    big.extend(lits)
                    emit(tuple(big))
                else:
                    saved += 1
                if pol & _NEG:
                    # every child's negation -> not var.
                    for lit in lits:
                        emit((var, -lit))
                else:
                    saved += s
            if pol != (_POS | _NEG):
                one_sided += 1

        # Assert the roots.
        true_var = 0
        for root in roots:
            base = abs(root)
            if base == TRUE:
                # Encode the constant with a dedicated always-true variable.
                # The defining unit already asserts a TRUE root, so only a
                # FALSE root needs its (contradicting) unit on top — a
                # trivially-true translation stays a single unit clause
                # instead of a duplicated pair.
                if not true_var:
                    true_var = new_var()
                    node_var[TRUE] = true_var
                    emit((true_var,))
                if root < 0:
                    emit((-true_var,))
            else:
                var = node_var[base]
                emit((var if root > 0 else -var,))

        self.cnf_stats = {
            "clauses_saved_by_polarity": saved,
            "one_sided_gates": one_sided,
        }
        input_map = {
            n: v for n, v in node_var.items()
            if n != TRUE and op[n] == _INPUT
        }
        return cnf, input_map

    def opcode_histogram(self) -> dict[str, int]:
        """Gate/input counts by opcode (a cheap fuzzing coverage signal)."""
        names = {_CONST: "const", _INPUT: "input", _AND: "and", _OR: "or"}
        histogram: dict[str, int] = {}
        for opcode in self._op[1:]:
            name = names.get(opcode)
            if name is not None:
                histogram[name] = histogram.get(name, 0) + 1
        return histogram

    @property
    def num_gates(self) -> int:
        """Number of gates allocated (excluding inputs and constants)."""
        return self._num_gates
