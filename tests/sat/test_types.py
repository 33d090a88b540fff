"""Unit tests for SAT core types."""

import random
from array import array

from repro.sat.types import (
    Model,
    VarOrderHeap,
    is_positive,
    negate,
    var_of,
)


class TestLiterals:
    def test_var_of_positive(self):
        assert var_of(5) == 5

    def test_var_of_negative(self):
        assert var_of(-7) == 7

    def test_negate_roundtrip(self):
        assert negate(negate(3)) == 3

    def test_negate_sign(self):
        assert negate(4) == -4
        assert negate(-4) == 4

    def test_is_positive(self):
        assert is_positive(2)
        assert not is_positive(-2)


class TestModel:
    def test_value_of_positive_literal(self):
        model = Model({1: True, 2: False})
        assert model.value_of(1)
        assert not model.value_of(2)

    def test_value_of_negative_literal(self):
        model = Model({1: True, 2: False})
        assert not model.value_of(-1)
        assert model.value_of(-2)

    def test_satisfies_clause(self):
        model = Model({1: False, 2: True})
        assert model.satisfies_clause([1, 2])
        assert not model.satisfies_clause([1, -2])

    def test_satisfies_formula(self):
        model = Model({1: True, 2: True})
        assert model.satisfies([[1], [2], [1, -2]])
        assert not model.satisfies([[-1]])

    def test_as_literals_sorted(self):
        model = Model({2: False, 1: True, 3: True})
        assert model.as_literals() == [1, -2, 3]

    def test_contains(self):
        model = Model({4: True})
        assert 4 in model
        assert 5 not in model


class TestVarOrderHeap:
    """The indexed max-heap behind VSIDS branching (decrease-key order)."""

    @staticmethod
    def _heap(n: int) -> tuple[VarOrderHeap, array]:
        activity = array("d", [0.0] * (n + 1))
        heap = VarOrderHeap(activity)
        for var in range(1, n + 1):
            heap.push(var)
        return heap, activity

    @staticmethod
    def _drain(heap: VarOrderHeap) -> list[int]:
        out = []
        while heap:
            out.append(heap.pop())
        return out

    def test_pop_order_activity_desc_ties_to_lower_var(self):
        heap, activity = self._heap(5)
        activity[2] = 3.0
        activity[4] = 3.0
        activity[5] = 9.0
        for var in (2, 4, 5):
            heap.update(var)
        assert self._drain(heap) == [5, 2, 4, 1, 3]

    def test_push_is_idempotent_no_duplicates(self):
        heap, _ = self._heap(4)
        heap.push(3)
        heap.push(3)
        assert len(heap) == 4
        assert sorted(self._drain(heap)) == [1, 2, 3, 4]

    def test_pop_removes_membership_and_reinsert(self):
        heap, activity = self._heap(3)
        top = heap.pop()
        assert top == 1  # all-zero activity: ties to the lowest var
        assert top not in heap
        heap.push(top)
        assert top in heap
        assert len(heap) == 3

    def test_pop_empty_returns_none(self):
        heap, _ = self._heap(0)
        assert not heap
        assert heap.pop() is None

    def test_update_after_bump_restores_order(self):
        heap, activity = self._heap(6)
        activity[6] = 1.0
        heap.update(6)
        assert heap.pop() == 6
        # Bumping a popped (absent) variable must be a harmless no-op.
        activity[6] = 50.0
        heap.update(6)
        assert 6 not in heap
        assert heap.pop() == 1

    def test_grow_extends_position_table(self):
        activity = array("d", [0.0] * 10)
        heap = VarOrderHeap(activity)
        heap.push(9)
        assert 9 in heap
        assert 3 not in heap

    def test_matches_sorted_reference_on_random_bumps(self):
        rng = random.Random(42)
        n = 40
        heap, activity = self._heap(n)
        for _ in range(300):
            var = rng.randint(1, n)
            activity[var] += rng.random()
            heap.update(var)
        expected = sorted(range(1, n + 1),
                          key=lambda v: (-activity[v], v))
        assert self._drain(heap) == expected

    def test_rescale_preserves_order_without_update(self):
        rng = random.Random(7)
        n = 20
        heap, activity = self._heap(n)
        for var in range(1, n + 1):
            activity[var] = rng.random() * 1e100
            heap.update(var)
        expected = sorted(range(1, n + 1),
                          key=lambda v: (-activity[v], v))
        # A uniform rescale (the solver's 1e-100 overflow guard) keeps
        # the relative order, so no re-heapify is required.
        for var in range(1, n + 1):
            activity[var] *= 1e-100
        assert self._drain(heap) == expected
