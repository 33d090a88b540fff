"""Translation of relational formulas to boolean circuits and CNF.

The pipeline mirrors Kodkod: every bounded relation becomes a matrix whose
cells are TRUE (lower-bound tuples), FALSE (outside the upper bound) or a
fresh boolean input; expressions are evaluated over matrices; formulas
become circuit nodes; the root is compiled to CNF by Tseitin encoding.

Quantifiers are ground: ``all x: D | F`` unrolls over the atoms in the
upper bound of ``D``, guarding each instantiation by the atom's membership
circuit.  This is sound and complete for finite scopes, which is the whole
point of bounded verification.  A subterm that does not use every bound
variable is translated once per binding of the variables it does use
(Kodkod's translation cache), not once per instantiation.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Iterator

from repro.kodkod import ast
from repro.kodkod.boolcircuit import FALSE, TRUE, BooleanFactory
from repro.kodkod.bounds import Bounds
from repro.kodkod.matrix import BoolMatrix
from repro.kodkod.symmetry import SymmetryInfo, atom_partition, break_predicates
from repro.sat.cnf import CNF

Env = dict[ast.Variable, int]
Node = ast.Expr | ast.Formula


def _children(node: Node) -> tuple[Node, ...]:
    """Direct subterms of a non-binding node (leaves have none)."""
    if isinstance(node, (ast.And, ast.Or)):
        return tuple(node.parts)
    if isinstance(node, (ast.Transpose, ast.Closure, ast.Not)):
        return (node.inner,)
    if isinstance(node, (ast._MultiplicityFormula, ast.CardinalityEq,
                         ast.CardinalityGe)):
        return (node.expr,)
    if isinstance(node, ast.IfExpr):
        return (node.cond, node.then_expr, node.else_expr)
    if isinstance(node, (ast._BinaryExpr, ast.Product, ast.Join, ast.Subset,
                         ast.Equal)):
        return (node.left, node.right)
    return ()


@dataclass
class Translation:
    """The result of translating a formula within bounds."""

    cnf: CNF
    factory: BooleanFactory
    # (relation, atom-index tuple) -> circuit input node
    tuple_inputs: dict[tuple[ast.Relation, tuple[int, ...]], int]
    # circuit input node -> CNF variable (inputs absent from the CNF were
    # simplified away and may take either value)
    input_vars: dict[int, int]
    bounds: Bounds
    stats: "TranslationStats"
    symmetry: SymmetryInfo | None = None

    def primary_vars(self) -> list[int]:
        """Sorted CNF variables of the primary (free tuple) inputs."""
        return sorted(
            self.input_vars[node] for node in self.tuple_inputs.values()
        )

    def to_dimacs(self, comments: list[str] | None = None) -> str:
        """Render the translated CNF in DIMACS format.

        The header comments document the primary-variable mapping
        (``relation(atom indices) -> CNF variable``), so models found by an
        external solver can be read back as relation tuples.  Used by the
        ``python -m repro.sat.dimacs`` cross-checking CLI.
        """
        from repro.sat import dimacs

        lines = list(comments or [])
        lines.append(
            f"primary vars: {len(self.tuple_inputs)} of {self.cnf.num_vars}"
        )
        for (rel, index), node in sorted(
            self.tuple_inputs.items(), key=lambda kv: (kv[0][0].name, kv[0][1])
        ):
            var = self.input_vars[node]
            atoms = ",".join(str(i) for i in index)
            lines.append(f"primary {rel.name}({atoms}) -> {var}")
        return dimacs.dumps(self.cnf, comments=lines)


@dataclass
class TranslationStats:
    """Size/timing metrics of a translation (feeds the encoding benchmark)."""

    num_primary_vars: int = 0
    num_cnf_vars: int = 0
    num_clauses: int = 0
    num_gates: int = 0
    num_symmetry_classes: int = 0
    num_sbp_predicates: int = 0
    translation_seconds: float = 0.0
    # Gate constructions requested before hash-consing/simplification
    # collapsed them ("gates before simplification"; ``num_gates`` is the
    # count after).
    num_gates_raw: int = 0
    # Clauses the polarity-aware (Plaisted-Greenbaum) encoding avoided
    # emitting relative to bipolar Tseitin (0 under ``cnf_encoding="tseitin"``).
    num_clauses_saved_by_polarity: int = 0


class UnboundRelationError(KeyError):
    """A relation used in the formula has no bounds."""


class Translator:
    """Translates formulas to CNF within a :class:`Bounds`.

    ``symmetry`` bounds the length of the lex-leader symmetry-breaking
    predicates conjoined onto the root formula (0 disables symmetry
    breaking entirely).  Breaking preserves SAT/UNSAT but prunes models
    that only differ by a permutation of interchangeable atoms.

    ``cnf_encoding`` selects the circuit-to-CNF compilation: ``"pg"``
    (default) is polarity-aware Plaisted-Greenbaum, ``"tseitin"`` the
    classic bipolar encoding.  Both are equisatisfiable per input
    assignment; the differential encoding tests solve the same problem
    under each and compare verdicts and model projections.
    """

    def __init__(self, bounds: Bounds, symmetry: int = 0,
                 cnf_encoding: str = "pg") -> None:
        if cnf_encoding not in ("pg", "tseitin"):
            raise ValueError(
                f"cnf_encoding must be 'pg' or 'tseitin', got {cnf_encoding!r}"
            )
        self._bounds = bounds
        self._universe = bounds.universe
        self._symmetry = symmetry
        self._cnf_encoding = cnf_encoding
        self._factory = BooleanFactory()
        self._relation_matrices: dict[ast.Relation, BoolMatrix] = {}
        self._tuple_inputs: dict[tuple[ast.Relation, tuple[int, ...]], int] = {}
        # Per-translate() memo tables (emptied when translate() returns):
        # the free variables of every node visited under a binding, and
        # the translation of every node that ignores part of its binding,
        # keyed by (node, atoms bound to its free variables...).  Sharing
        # a cached matrix is safe: no matrix is mutated once built.
        self._free: dict[Node, tuple[ast.Variable, ...]] = {}
        self._memo: dict[tuple, BoolMatrix | int] = {}

    # ------------------------------------------------------------------
    # Relation leaves
    # ------------------------------------------------------------------

    def _relation_matrix(self, rel: ast.Relation) -> BoolMatrix:
        matrix = self._relation_matrices.get(rel)
        if matrix is not None:
            return matrix
        if rel not in self._bounds:
            raise UnboundRelationError(f"relation {rel.name!r} has no bounds")
        lower = self._bounds.lower(rel)
        upper = self._bounds.upper(rel)
        matrix = BoolMatrix(self._factory, len(self._universe), rel.arity)
        for tup in upper:
            index = tuple(self._universe.index(a) for a in tup)
            if tup in lower:
                matrix.set(index, TRUE)
            else:
                node = self._factory.fresh_input()
                matrix.set(index, node)
                self._tuple_inputs[(rel, index)] = node
        self._relation_matrices[rel] = matrix
        return matrix

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _expr(self, expr: ast.Expr, env: Env) -> BoolMatrix:
        if isinstance(expr, ast.Relation):
            return self._relation_matrix(expr)
        key = self._memo_key(expr, env) if env else None
        if key is not None:
            cached = self._memo.get(key)
            if cached is not None:
                return cached
        size = len(self._universe)
        if isinstance(expr, ast.Variable):
            try:
                atom_index = env[expr]
            except KeyError:
                raise ValueError(f"unbound variable {expr.name!r}") from None
            result = BoolMatrix(self._factory, size, 1)
            result.set((atom_index,), TRUE)
        elif isinstance(expr, ast.Univ):
            result = BoolMatrix(self._factory, size, 1)
            for i in range(size):
                result.set((i,), TRUE)
        elif isinstance(expr, ast.Iden):
            result = BoolMatrix(self._factory, size, 2)
            for i in range(size):
                result.set((i, i), TRUE)
        elif isinstance(expr, ast.NoneExpr):
            result = BoolMatrix(self._factory, size, expr.arity)
        elif isinstance(expr, ast.Union):
            result = self._expr(expr.left, env).union(
                self._expr(expr.right, env)
            )
        elif isinstance(expr, ast.Intersection):
            result = self._expr(expr.left, env).intersection(
                self._expr(expr.right, env)
            )
        elif isinstance(expr, ast.Difference):
            result = self._expr(expr.left, env).difference(
                self._expr(expr.right, env)
            )
        elif isinstance(expr, ast.Product):
            result = self._expr(expr.left, env).product(
                self._expr(expr.right, env)
            )
        elif isinstance(expr, ast.Join):
            result = self._expr(expr.left, env).join(
                self._expr(expr.right, env)
            )
        elif isinstance(expr, ast.Transpose):
            result = self._expr(expr.inner, env).transpose()
        elif isinstance(expr, ast.Closure):
            result = self._expr(expr.inner, env).closure()
        elif isinstance(expr, ast.IfExpr):
            cond = self._formula(expr.cond, env)
            then_matrix = self._expr(expr.then_expr, env)
            else_matrix = self._expr(expr.else_expr, env)
            result = BoolMatrix(self._factory, size, then_matrix.arity)
            indices = {i for i, _ in then_matrix.cells()}
            indices.update(i for i, _ in else_matrix.cells())
            for index in indices:
                result.set(
                    index,
                    self._factory.ite(
                        cond, then_matrix.get(index), else_matrix.get(index)
                    ),
                )
        elif isinstance(expr, ast.Comprehension):
            result = BoolMatrix(self._factory, size, expr.arity)
            for atoms, child_env, guards in self._bindings(expr.decls, env):
                body_node = self._formula(expr.body, child_env)
                result.set(atoms, self._factory.and_([*guards, body_node]))
        else:
            raise TypeError(f"unknown expression type: {type(expr).__name__}")
        if key is not None:
            self._memo[key] = result
        return result

    # ------------------------------------------------------------------
    # Formulas
    # ------------------------------------------------------------------

    def _formula(self, formula: ast.Formula, env: Env) -> int:
        key = self._memo_key(formula, env) if env else None
        if key is not None:
            cached = self._memo.get(key)
            if cached is not None:
                return cached
        if isinstance(formula, ast.TrueF):
            result = TRUE
        elif isinstance(formula, ast.FalseF):
            result = FALSE
        elif isinstance(formula, ast.Subset):
            result = self._expr(formula.left, env).subset_of(
                self._expr(formula.right, env)
            )
        elif isinstance(formula, ast.Equal):
            result = self._expr(formula.left, env).equals(
                self._expr(formula.right, env)
            )
        elif isinstance(formula, ast.Some):
            result = self._expr(formula.expr, env).some()
        elif isinstance(formula, ast.No):
            result = self._expr(formula.expr, env).no()
        elif isinstance(formula, ast.One):
            result = self._expr(formula.expr, env).one()
        elif isinstance(formula, ast.Lone):
            result = self._expr(formula.expr, env).lone()
        elif isinstance(formula, ast.CardinalityEq):
            result = self._expr(formula.expr, env).count_eq(formula.count)
        elif isinstance(formula, ast.CardinalityGe):
            result = self._expr(formula.expr, env).count_ge(formula.count)
        elif isinstance(formula, ast.Not):
            result = -self._formula(formula.inner, env)
        elif isinstance(formula, ast.And):
            result = self._factory.and_(
                [self._formula(part, env) for part in formula.parts]
            )
        elif isinstance(formula, ast.Or):
            result = self._factory.or_(
                [self._formula(part, env) for part in formula.parts]
            )
        elif isinstance(formula, ast.ForAll):
            # Each instantiation contributes guards -> body.
            result = self._factory.and_([
                self._factory.or_(
                    [-g for g in guards]
                    + [self._formula(formula.body, child_env)]
                )
                for _, child_env, guards in self._bindings(formula.decls, env)
            ])
        elif isinstance(formula, ast.Exists):
            result = self._factory.or_([
                self._factory.and_(
                    [*guards, self._formula(formula.body, child_env)]
                )
                for _, child_env, guards in self._bindings(formula.decls, env)
            ])
        else:
            raise TypeError(f"unknown formula type: {type(formula).__name__}")
        if key is not None:
            self._memo[key] = result
        return result

    def _bindings(
        self, decls: list[tuple[ast.Variable, ast.Expr]], env: Env,
        atoms: tuple[int, ...] = (), guards: tuple[int, ...] = (),
    ) -> Iterator[tuple[tuple[int, ...], Env, tuple[int, ...]]]:
        """Ground instantiations of ``decls`` under ``env``, in atom order.

        Yields ``(atoms, child_env, guards)``: the atoms bound to the
        declared variables, the extended environment, and the membership
        circuit of each atom in its domain.  A later domain is translated
        under the earlier declarations' bindings.  (A generator method
        rather than a self-recursive closure: the closure would hold a
        reference cycle through ``self`` and keep the translator alive
        until the cyclic collector runs.)
        """
        depth = len(atoms)
        if depth == len(decls):
            yield atoms, env, guards
            return
        var, domain = decls[depth]
        for (atom_index,), membership in list(self._expr(domain, env).cells()):
            child_env = dict(env)
            child_env[var] = atom_index
            yield from self._bindings(
                decls, child_env, atoms + (atom_index,), guards + (membership,)
            )

    # ------------------------------------------------------------------
    # Translation cache
    # ------------------------------------------------------------------

    def _memo_key(self, node: Node, env: Env) -> tuple | None:
        """Cache key of ``node`` under ``env``, or None when not cached.

        A node is cached only when ``env`` binds variables the node does
        not use: its translation is then shared by every binding that
        agrees on the node's own free variables, so the key is the node
        (AST nodes hash by identity) plus the atoms bound to them.  A free
        variable missing from ``env`` yields no key; translating the node
        reports it as unbound.
        """
        free = self._free_variables(node)
        if len(free) >= len(env):
            return None
        try:
            return (node, *[env[var] for var in free])
        except KeyError:
            return None

    def _free_variables(self, node: Node) -> tuple[ast.Variable, ...]:
        """The variables ``node`` uses that no quantifier inside it binds,
        in first-occurrence order (memoised for this translation; one
        frame per AST level, like the translation itself)."""
        free = self._free.get(node)
        if free is not None:
            return free
        found: dict[ast.Variable, None] = {}
        if isinstance(node, ast.Variable):
            found[node] = None
        elif isinstance(node, (ast._Quantified, ast.Comprehension)):
            bound: set[ast.Variable] = set()
            for var, domain in node.decls:
                found.update(dict.fromkeys(
                    v for v in self._free_variables(domain) if v not in bound))
                bound.add(var)
            found.update(dict.fromkeys(
                v for v in self._free_variables(node.body) if v not in bound))
        else:
            for child in _children(node):
                found.update(dict.fromkeys(self._free_variables(child)))
        free = self._free[node] = tuple(found)
        return free

    # ------------------------------------------------------------------
    # End-to-end translation
    # ------------------------------------------------------------------

    def translate(self, formula: ast.Formula) -> Translation:
        """Translate ``formula`` into CNF, collecting size statistics."""
        started = time.perf_counter()
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 100000))
        try:
            # Allocate primary variables for every bounded relation, whether
            # or not the formula mentions it: enumeration must distinguish
            # instances on all declared relations.
            for rel in self._bounds.relations():
                self._relation_matrix(rel)
            root = self._formula(formula, {})
            symmetry_info: SymmetryInfo | None = None
            if self._symmetry > 0:
                classes = atom_partition(self._bounds)
                sbp = break_predicates(
                    self._factory, self._bounds, self._tuple_inputs,
                    classes, self._symmetry,
                )
                root = self._factory.and_([root] + sbp)
                symmetry_info = SymmetryInfo(
                    classes=tuple(tuple(c) for c in classes),
                    num_predicates=len(sbp),
                )
            cnf, input_vars = self._factory.to_cnf(
                [root], polarity_aware=self._cnf_encoding == "pg"
            )
            # Inputs never mentioned by the root circuit still need CNF
            # variables so instances can be extracted deterministically.
            for node in self._tuple_inputs.values():
                if node not in input_vars:
                    input_vars[node] = cnf.new_var()
        finally:
            sys.setrecursionlimit(old_limit)
            self._free.clear()
            self._memo.clear()
        stats = TranslationStats(
            num_primary_vars=len(self._tuple_inputs),
            num_cnf_vars=cnf.num_vars,
            num_clauses=cnf.num_clauses,
            num_gates=self._factory.num_gates,
            num_symmetry_classes=(
                symmetry_info.num_classes if symmetry_info else 0
            ),
            num_sbp_predicates=(
                symmetry_info.num_predicates if symmetry_info else 0
            ),
            translation_seconds=time.perf_counter() - started,
            num_gates_raw=self._factory.gate_requests,
            num_clauses_saved_by_polarity=self._factory.cnf_stats.get(
                "clauses_saved_by_polarity", 0
            ),
        )
        return Translation(
            cnf=cnf,
            factory=self._factory,
            tuple_inputs=dict(self._tuple_inputs),
            input_vars=input_vars,
            bounds=self._bounds,
            stats=stats,
            symmetry=symmetry_info,
        )
