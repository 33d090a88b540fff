"""Symmetry detection and lex-leader symmetry-breaking predicates.

Bounded relational problems are riddled with symmetry: atoms that appear
identically in every relation's lower and upper bounds are interchangeable,
so every model has up to ``k!`` isomorphic variants per class of ``k``
such atoms.  Real Kodkod detects these atom symmetries from the bounds and
conjoins *symmetry-breaking predicates* (SBPs) onto the translated formula,
shrinking the SAT search space without changing satisfiability.  This
module does the same for the mini-Kodkod stack:

* :func:`atom_partition` computes classes of interchangeable atoms.  Two
  atoms are in one class only when *transposing* them maps every relation's
  lower bound onto itself and every upper bound onto itself.  Because
  verified transpositions generate the full symmetric group on a class,
  every permutation within a class is a symmetry of the bounds — the
  soundness condition for lex-leader breaking.
* :func:`break_predicates` emits, for each adjacent transposition within a
  class, a length-limited lexicographic-leader constraint over the primary
  (free tuple) variables: the canonical solution in each orbit satisfies
  ``v <= pi(v)``.  Conjoining these preserves SAT/UNSAT (at least one
  representative of every orbit survives) while pruning isomorphic models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kodkod import ast
from repro.kodkod.boolcircuit import TRUE, BooleanFactory
from repro.kodkod.bounds import Bounds

# Kodkod's default predicate-length bound ("symmetry breaking" option).
DEFAULT_SBP_LENGTH = 20

IndexTuple = tuple[int, ...]


@dataclass(frozen=True)
class SymmetryInfo:
    """What the detector found and how much breaking was emitted."""

    classes: tuple[tuple[int, ...], ...]
    num_predicates: int

    @property
    def num_classes(self) -> int:
        """Number of atom classes (including singletons)."""
        return len(self.classes)

    @property
    def largest_class(self) -> int:
        """Size of the biggest interchangeable-atom class."""
        return max((len(c) for c in self.classes), default=0)


def _index_tuples(bounds: Bounds, rel: ast.Relation) -> tuple[frozenset, frozenset]:
    """Lower/upper bounds of ``rel`` as frozensets of atom-index tuples."""
    universe = bounds.universe
    lower = frozenset(
        tuple(universe.index(a) for a in t) for t in bounds.lower(rel)
    )
    upper = frozenset(
        tuple(universe.index(a) for a in t) for t in bounds.upper(rel)
    )
    return lower, upper


def _swap_preserves(tuples: frozenset, a: int, b: int) -> bool:
    """True when transposing atoms ``a``/``b`` maps ``tuples`` onto itself."""
    swap = {a: b, b: a}
    for t in tuples:
        if a in t or b in t:
            if tuple(swap.get(x, x) for x in t) not in tuples:
                return False
    return True


def atom_partition(bounds: Bounds) -> list[list[int]]:
    """Partition universe atom indices into interchangeable classes.

    Atoms are first pre-split by a cheap occurrence signature (per relation
    and tuple position, how often the atom appears in the lower and upper
    bounds), then grouped greedily: an atom joins a class when transposing
    it with the class representative preserves every bound.  Transpositions
    compose, so membership via the representative implies every pair within
    the class is interchangeable.
    """
    universe = bounds.universe
    relations = sorted(bounds.relations(), key=lambda r: r.name)
    bound_sets = [_index_tuples(bounds, rel) for rel in relations]

    # One scan over every bound tuple: counts[atom][slot][pos] is how often
    # ``atom`` sits at ``pos`` in the bound of slot (relation, lower/upper).
    slots = [(rel.arity, tuples) for (lower, upper), rel
             in zip(bound_sets, relations) for tuples in (lower, upper)]
    counts = [[[0] * arity for arity, _ in slots] for _ in range(len(universe))]
    for slot, (_, tuples) in enumerate(slots):
        for t in tuples:
            for pos, x in enumerate(t):
                counts[x][slot][pos] += 1

    by_signature: dict[tuple, list[int]] = {}
    for atom, atom_counts in enumerate(counts):
        signature = tuple(map(tuple, atom_counts))
        by_signature.setdefault(signature, []).append(atom)

    def interchangeable(a: int, b: int) -> bool:
        return all(
            _swap_preserves(lower, a, b) and _swap_preserves(upper, a, b)
            for lower, upper in bound_sets
        )

    classes: list[list[int]] = []
    for candidates in by_signature.values():
        subclasses: list[list[int]] = []
        for atom in candidates:
            for subclass in subclasses:
                if interchangeable(subclass[0], atom):
                    subclass.append(atom)
                    break
            else:
                subclasses.append([atom])
        classes.extend(subclasses)
    for cls in classes:
        cls.sort()
    classes.sort()
    return classes


def _permuted(index: IndexTuple, a: int, b: int) -> IndexTuple:
    swap = {a: b, b: a}
    return tuple(swap.get(x, x) for x in index)


def break_predicates(
    factory: BooleanFactory,
    bounds: Bounds,
    tuple_inputs: dict[tuple[ast.Relation, IndexTuple], int],
    classes: list[list[int]],
    max_length: int = DEFAULT_SBP_LENGTH,
) -> list[int]:
    """Build lex-leader circuit nodes for every adjacent transposition.

    For each class ``a0 < a1 < ... < ak`` and each transposition
    ``(ai, ai+1)``, the primary variables are laid out in a fixed order and
    the constraint ``v <= pi(v)`` is encoded with the standard equality
    -prefix chain, truncated at ``max_length`` variable pairs (longer
    suffixes break less and cost more, per Kodkod's default of 20).

    Only free cells can differ under a verified transposition (constants
    map to constants because the bounds are preserved), so each pair in
    the chain is a pair of circuit inputs.
    """
    if max_length <= 0:
        return []
    # Fixed global cell order: relation name, then tuple index order.
    ordered_cells: list[tuple[ast.Relation, IndexTuple]] = []
    for rel in sorted(bounds.relations(), key=lambda r: r.name):
        cells = [
            index for (r, index) in tuple_inputs if r is rel
        ]
        ordered_cells.extend((rel, index) for index in sorted(cells))

    predicates: list[int] = []
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            constraints: list[int] = []
            prev_eq = TRUE
            pairs = 0
            for rel, index in ordered_cells:
                permuted = _permuted(index, a, b)
                if permuted == index:
                    continue
                p = tuple_inputs[(rel, index)]
                q = tuple_inputs[(rel, permuted)]
                # prefix-equal -> (p <= q), with False < True.
                constraints.append(factory.or_([-prev_eq, -p, q]))
                prev_eq = factory.and_([prev_eq, factory.iff(p, q)])
                pairs += 1
                if pairs >= max_length:
                    break
            if constraints:
                predicates.append(factory.and_(constraints))
    return predicates
