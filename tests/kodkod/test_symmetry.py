"""Tests for symmetry detection and lex-leader symmetry breaking."""

import itertools

import pytest

from repro import api
from repro.kodkod import Bounds, Universe, atom_partition, relation
from repro.kodkod import ast


@pytest.fixture
def four_atoms():
    return Universe(["a", "b", "c", "d"])


class TestAtomPartition:
    def test_fully_free_relation_makes_one_class(self, four_atoms):
        r = relation("r", 1)
        b = Bounds(four_atoms)
        b.bound(r, four_atoms.empty(1), four_atoms.all_tuples(1))
        assert atom_partition(b) == [[0, 1, 2, 3]]

    def test_lower_bound_pins_an_atom(self, four_atoms):
        r = relation("r", 1)
        b = Bounds(four_atoms)
        b.bound(r, four_atoms.tuple_set(1, [("a",)]), four_atoms.all_tuples(1))
        assert atom_partition(b) == [[0], [1, 2, 3]]

    def test_partial_upper_bound_splits_classes(self, four_atoms):
        r = relation("r", 1)
        b = Bounds(four_atoms)
        b.bound(r, four_atoms.empty(1),
                four_atoms.tuple_set(1, [("a",), ("b",)]))
        assert atom_partition(b) == [[0, 1], [2, 3]]

    def test_binary_relation_keeps_symmetric_atoms_together(self, four_atoms):
        edge = relation("edge", 2)
        b = Bounds(four_atoms)
        b.bound(edge, four_atoms.empty(2), four_atoms.all_tuples(2))
        assert atom_partition(b) == [[0, 1, 2, 3]]

    def test_asymmetric_constant_breaks_everything(self, four_atoms):
        edge = relation("edge", 2)
        b = Bounds(four_atoms)
        b.bound_exactly(edge, four_atoms.tuple_set(2, [("a", "b"), ("b", "c")]))
        assert atom_partition(b) == [[0], [1], [2], [3]]

    def test_multiple_relations_intersect_their_symmetries(self, four_atoms):
        r = relation("r", 1)
        s = relation("s", 1)
        b = Bounds(four_atoms)
        b.bound(r, four_atoms.empty(1),
                four_atoms.tuple_set(1, [("a",), ("b",), ("c",)]))
        b.bound(s, four_atoms.empty(1),
                four_atoms.tuple_set(1, [("c",), ("d",)]))
        # c is in both uppers; a, b only in r's; d only in s's.
        assert atom_partition(b) == [[0, 1], [2], [3]]


def _orbit_key(instance, bounds, classes):
    """Canonical form of an instance under permutations within classes."""
    universe = bounds.universe
    relations = sorted(bounds.relations(), key=lambda r: r.name)

    def rendered(mapping):
        out = []
        for rel in relations:
            tuples = frozenset(
                tuple(mapping[universe.index(a)] for a in t)
                for t in instance.value_of(rel)
            )
            out.append((rel.name, tuple(sorted(tuples))))
        return tuple(out)

    best = None
    multi = [cls for cls in classes if len(cls) > 1]
    per_class = [list(itertools.permutations(cls)) for cls in multi]
    for combo in itertools.product(*per_class) if per_class else [()]:
        mapping = {i: i for i in range(len(universe))}
        for cls, perm in zip(multi, combo):
            for src, dst in zip(cls, perm):
                mapping[src] = dst
        key = rendered(mapping)
        if best is None or key < best:
            best = key
    return best


class TestSymmetryBreaking:
    def _subset_problem(self):
        universe = Universe(["a", "b", "c"])
        r = relation("r", 1)
        bounds = Bounds(universe)
        bounds.bound(r, universe.empty(1), universe.all_tuples(1))
        return r, bounds

    def test_enumeration_counts_isomorphism_classes(self):
        _, bounds = self._subset_problem()
        # Subsets of 3 interchangeable atoms: 8 models, 4 sizes (classes).
        assert len(api.enumerate(ast.TrueF(), bounds).instances) == 8
        canonical = api.enumerate(ast.TrueF(), bounds, symmetry=20)
        assert len(canonical.instances) == 4

    def test_canonical_instances_cover_every_orbit(self):
        _, bounds = self._subset_problem()
        classes = atom_partition(bounds)
        full = {
            _orbit_key(i, bounds, classes)
            for i in api.enumerate(ast.TrueF(), bounds).instances
        }
        broken = {
            _orbit_key(i, bounds, classes)
            for i in api.enumerate(ast.TrueF(), bounds, symmetry=20).instances
        }
        assert broken == full  # every isomorphism class keeps a witness

    def test_canonical_instances_are_a_subset_of_all(self):
        r, bounds = self._subset_problem()
        all_values = {
            frozenset(i.value_of(r))
            for i in api.enumerate(ast.TrueF(), bounds).instances
        }
        broken_values = {
            frozenset(i.value_of(r))
            for i in api.enumerate(ast.TrueF(), bounds, symmetry=20).instances
        }
        assert broken_values <= all_values
        assert len(broken_values) < len(all_values)

    def test_sat_verdict_preserved(self):
        r, bounds = self._subset_problem()
        assert api.solve(r.count_eq(2), bounds, symmetry=20).satisfiable
        assert api.solve(r.count_eq(2), bounds, symmetry=0).satisfiable

    def test_unsat_verdict_preserved(self):
        r, bounds = self._subset_problem()
        formula = ast.And([r.some(), r.no()])
        assert not api.solve(formula, bounds, symmetry=20).satisfiable
        assert not api.solve(formula, bounds, symmetry=0).satisfiable

    def test_verdicts_agree_on_assorted_formulas(self):
        r, bounds = self._subset_problem()
        formulas = [
            r.one(),
            r.lone(),
            r.count_eq(3),
            r.count_eq(4),
            ast.Not(r.some()),
            ast.And([r.count_ge(2), r.lone()]),
        ]
        for formula in formulas:
            with_sbp = api.solve(formula, bounds, symmetry=20).satisfiable
            without = api.solve(formula, bounds, symmetry=0).satisfiable
            assert with_sbp == without, formula

    def test_interchangeable_agents_allocation_scenario(self):
        """The acceptance scenario: items allocated to interchangeable
        agents enumerate far fewer canonical instances."""
        agents = ["p0", "p1", "p2"]
        items = ["v0", "v1"]
        universe = Universe(agents + items)
        item_sig = relation("item", 1)
        alloc = relation("alloc", 2)
        bounds = Bounds(universe)
        bounds.bound_exactly(
            item_sig, universe.tuple_set(1, [(v,) for v in items])
        )
        bounds.bound(
            alloc,
            universe.empty(2),
            universe.tuple_set(2, [(v, p) for v in items for p in agents]),
        )
        from repro.kodkod import forall, variable

        x = variable("x")
        f = forall(x, item_sig, x.join(alloc).one())
        plain = len(api.enumerate(f, bounds).instances)
        broken = len(api.enumerate(f, bounds, symmetry=20).instances)
        assert plain == 9  # 3 agents per item, 2 items
        assert 0 < broken < plain
        classes = atom_partition(bounds)
        full_orbits = {
            _orbit_key(i, bounds, classes)
            for i in api.enumerate(f, bounds).instances
        }
        broken_orbits = {
            _orbit_key(i, bounds, classes)
            for i in api.enumerate(f, bounds, symmetry=20).instances
        }
        assert broken_orbits == full_orbits

    def test_symmetry_stats_populated(self):
        from repro.kodkod.engine import translate

        _, bounds = self._subset_problem()
        translation = translate(ast.TrueF(), bounds, symmetry=20)
        assert translation.symmetry is not None
        assert translation.symmetry.largest_class == 3
        assert translation.stats.num_sbp_predicates == 2
        plain = translate(ast.TrueF(), bounds)
        assert plain.symmetry is None
        assert plain.stats.num_sbp_predicates == 0
