"""Sparse boolean matrices: the denotation of relational expressions.

Following Kodkod's translation (Torlak & Jackson, TACAS'07), an arity-``k``
expression over a universe of ``n`` atoms denotes an ``n^k`` matrix of
boolean circuit nodes; relational operators become matrix operations.  The
matrices are sparse: absent cells are FALSE, which keeps the translation
proportional to the relations' upper bounds rather than the full tuple
space.

Operators build their result cell dict directly (no intermediate matrices,
no per-cell validation — indices flow from already-validated operands) and
go through the factory's binary ``and2``/``or2`` fast paths, so a chain of
relational operators allocates exactly one result dict per operator.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.kodkod.boolcircuit import FALSE, TRUE, BooleanFactory

IndexTuple = tuple[int, ...]


class BoolMatrix:
    """A sparse matrix of circuit nodes indexed by atom-index tuples."""

    __slots__ = ("factory", "universe_size", "arity", "_cells")

    def __init__(
        self,
        factory: BooleanFactory,
        universe_size: int,
        arity: int,
        cells: dict[IndexTuple, int] | None = None,
    ) -> None:
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if universe_size < 1:
            raise ValueError("universe size must be >= 1")
        self.factory = factory
        self.universe_size = universe_size
        self.arity = arity
        self._cells: dict[IndexTuple, int] = {}
        if cells:
            for index, node in cells.items():
                self._set(index, node)

    @classmethod
    def _raw(cls, factory: BooleanFactory, universe_size: int, arity: int,
             cells: dict[IndexTuple, int]) -> "BoolMatrix":
        """Internal constructor taking ownership of a validated cell dict."""
        matrix = cls.__new__(cls)
        matrix.factory = factory
        matrix.universe_size = universe_size
        matrix.arity = arity
        matrix._cells = cells
        return matrix

    def _validate(self, index: IndexTuple) -> None:
        if len(index) != self.arity:
            raise ValueError(f"index {index!r} does not have arity {self.arity}")
        for component in index:
            if not 0 <= component < self.universe_size:
                raise IndexError(f"index component {component} out of range")

    def _set(self, index: IndexTuple, node: int) -> None:
        self._validate(index)
        if node == FALSE:
            self._cells.pop(index, None)
        else:
            self._cells[index] = node

    def get(self, index: IndexTuple) -> int:
        """Circuit node for a cell (FALSE when absent)."""
        self._validate(index)
        return self._cells.get(index, FALSE)

    def set(self, index: IndexTuple, node: int) -> None:
        """Assign a cell."""
        self._set(index, node)

    def cells(self) -> Iterator[tuple[IndexTuple, int]]:
        """Iterate over (index, node) for possibly-true cells."""
        return iter(self._cells.items())

    def density(self) -> int:
        """Number of possibly-true cells."""
        return len(self._cells)

    def _check_compatible(self, other: "BoolMatrix") -> None:
        if self.factory is not other.factory:
            raise ValueError("matrices belong to different factories")
        if self.universe_size != other.universe_size:
            raise ValueError("matrices range over different universes")

    def _same_shape(self, other: "BoolMatrix") -> None:
        self._check_compatible(other)
        if self.arity != other.arity:
            raise ValueError("matrices have different arities")

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------

    def union(self, other: "BoolMatrix") -> "BoolMatrix":
        """Pointwise OR."""
        self._same_shape(other)
        or2 = self.factory.or2
        cells = dict(self._cells)
        for index, node in other._cells.items():
            mine = cells.get(index)
            cells[index] = node if mine is None else or2(mine, node)
        return BoolMatrix._raw(self.factory, self.universe_size, self.arity,
                               cells)

    def intersection(self, other: "BoolMatrix") -> "BoolMatrix":
        """Pointwise AND."""
        self._same_shape(other)
        and2 = self.factory.and2
        other_cells = other._cells
        cells: dict[IndexTuple, int] = {}
        for index, node in self._cells.items():
            theirs = other_cells.get(index)
            if theirs is None:
                continue
            conj = and2(node, theirs)
            if conj != FALSE:
                cells[index] = conj
        return BoolMatrix._raw(self.factory, self.universe_size, self.arity,
                               cells)

    def difference(self, other: "BoolMatrix") -> "BoolMatrix":
        """Pointwise AND-NOT."""
        self._same_shape(other)
        and2 = self.factory.and2
        other_cells = other._cells
        cells: dict[IndexTuple, int] = {}
        for index, node in self._cells.items():
            theirs = other_cells.get(index)
            diff = node if theirs is None else and2(node, -theirs)
            if diff != FALSE:
                cells[index] = diff
        return BoolMatrix._raw(self.factory, self.universe_size, self.arity,
                               cells)

    def product(self, other: "BoolMatrix") -> "BoolMatrix":
        """Cartesian product; arities add."""
        self._check_compatible(other)
        and2 = self.factory.and2
        other_items = list(other._cells.items())
        cells: dict[IndexTuple, int] = {}
        for left_index, left_node in self._cells.items():
            for right_index, right_node in other_items:
                node = and2(left_node, right_node)
                if node != FALSE:
                    cells[left_index + right_index] = node
        return BoolMatrix._raw(self.factory, self.universe_size,
                               self.arity + other.arity, cells)

    def join(self, other: "BoolMatrix") -> "BoolMatrix":
        """Relational join: contract the last column of self with the first
        column of other."""
        self._check_compatible(other)
        arity = self.arity + other.arity - 2
        if arity < 1:
            raise ValueError("join would produce arity < 1")
        factory = self.factory
        and2 = factory.and2
        # Group other's cells by leading atom for the contraction.
        by_head: dict[int, list[tuple[IndexTuple, int]]] = {}
        for right_index, right_node in other._cells.items():
            by_head.setdefault(right_index[0], []).append(
                (right_index[1:], right_node)
            )
        accum: dict[IndexTuple, list[int]] = {}
        for left_index, left_node in self._cells.items():
            matches = by_head.get(left_index[-1])
            if not matches:
                continue
            prefix = left_index[:-1]
            for right_rest, right_node in matches:
                node = and2(left_node, right_node)
                if node == FALSE:
                    continue
                index = prefix + right_rest
                nodes = accum.get(index)
                if nodes is None:
                    accum[index] = [node]
                else:
                    nodes.append(node)
        or_ = factory.or_
        cells: dict[IndexTuple, int] = {}
        for index, nodes in accum.items():
            node = nodes[0] if len(nodes) == 1 else or_(nodes)
            if node != FALSE:
                cells[index] = node
        return BoolMatrix._raw(factory, self.universe_size, arity, cells)

    def transpose(self) -> "BoolMatrix":
        """Transpose (binary only)."""
        if self.arity != 2:
            raise ValueError("transpose requires a binary matrix")
        cells = {(b, a): node for (a, b), node in self._cells.items()}
        return BoolMatrix._raw(self.factory, self.universe_size, 2, cells)

    def closure(self) -> "BoolMatrix":
        """Transitive closure by iterative squaring (binary only)."""
        if self.arity != 2:
            raise ValueError("closure requires a binary matrix")
        current = self
        steps = 1
        while steps < self.universe_size:
            current = current.union(current.join(current))
            steps *= 2
        return current

    # ------------------------------------------------------------------
    # Comparison / multiplicity circuits
    # ------------------------------------------------------------------

    def subset_of(self, other: "BoolMatrix") -> int:
        """Circuit node asserting self ⊆ other."""
        self._same_shape(other)
        or2 = self.factory.or2
        other_cells = other._cells
        implications = [
            or2(-node, other_cells.get(index, FALSE))
            for index, node in self._cells.items()
        ]
        return self.factory.and_(implications)

    def equals(self, other: "BoolMatrix") -> int:
        """Circuit node asserting pointwise equality."""
        return self.factory.and2(self.subset_of(other), other.subset_of(self))

    def some(self) -> int:
        """Circuit node asserting at least one true cell."""
        return self.factory.or_(self._cells.values())

    def no(self) -> int:
        """Circuit node asserting emptiness."""
        return -self.some()

    def lone(self) -> int:
        """Circuit node asserting at most one true cell (pairwise)."""
        or2 = self.factory.or2
        nodes = list(self._cells.values())
        pair_exclusions = [
            or2(-a, -b) for a, b in itertools.combinations(nodes, 2)
        ]
        return self.factory.and_(pair_exclusions)

    def one(self) -> int:
        """Circuit node asserting exactly one true cell."""
        return self.factory.and2(self.some(), self.lone())

    def count_ge(self, n: int) -> int:
        """Circuit node asserting at least ``n`` true cells."""
        if n <= 0:
            return TRUE
        nodes = list(self._cells.values())
        if n > len(nodes):
            return FALSE
        choices = [
            self.factory.and_(combo) for combo in itertools.combinations(nodes, n)
        ]
        return self.factory.or_(choices)

    def count_eq(self, n: int) -> int:
        """Circuit node asserting exactly ``n`` true cells."""
        at_least = self.count_ge(n)
        more = self.count_ge(n + 1)
        return self.factory.and2(at_least, -more)

    def __repr__(self) -> str:
        return (
            f"BoolMatrix(arity={self.arity}, size={self.universe_size}, "
            f"density={self.density()})"
        )
