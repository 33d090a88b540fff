"""Seeded scenario generators: the randomized instance side of a campaign.

A :class:`ScenarioSpec` is a *pure description* of one randomized instance:
a family name, a seed and a flat parameter mapping.  Materialization is a
deterministic function of the spec alone — the same spec produces the same
façade problem in any process — which is what makes the campaign result
cache (:mod:`repro.campaign.runner`) safe to key by the spec's content
hash.

Four workload families mirror the repo's application domains (random MCA
auctions, economic-dispatch grids, UAV task sets, virtual-network
topologies) and materialize to :class:`~repro.api.ProtocolProblem`; a
fifth, ``relational``, generates random bounded
:class:`~repro.api.FormulaProblem` instances for the kodkod-level oracles.
New families register through :func:`register_family`; see the README's
campaign section.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.api.codec import problem_fingerprint
from repro.api.problems import FormulaProblem, Problem, ProtocolProblem
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.universe import Universe
from repro.mca.network import AgentNetwork
from repro.mca.policies import AgentPolicy, GeometricUtility, ResidualCapacityUtility
from repro.workloads.smartgrid import economic_dispatch
from repro.workloads.uav import uav_task_allocation
from repro.workloads.vnet import vn_embedding_workload

ParamValue = int | float | str | bool


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible description of one randomized scenario instance.

    ``params`` is stored as a sorted tuple of (name, value) pairs so that
    specs are hashable, order-insensitive and canonically serializable.
    """

    family: str
    seed: int
    params: tuple[tuple[str, ParamValue], ...] = ()

    @staticmethod
    def make(family: str, seed: int, **params: ParamValue) -> "ScenarioSpec":
        """Build a spec with canonically sorted parameters."""
        return ScenarioSpec(family, seed, tuple(sorted(params.items())))

    def param(self, name: str, default: ParamValue | None = None) -> ParamValue:
        """Look up one parameter (``default`` when absent)."""
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise KeyError(f"spec has no parameter {name!r}")
        return default

    def as_dict(self) -> dict:
        """JSON-able canonical form (the cache-key payload)."""
        return {
            "family": self.family,
            "seed": self.seed,
            "params": {k: v for k, v in self.params},
        }

    @staticmethod
    def from_dict(data: Mapping) -> "ScenarioSpec":
        """Inverse of :meth:`as_dict` (used by the process-pool worker)."""
        return ScenarioSpec.make(data["family"], data["seed"], **data["params"])

    def content_hash(self) -> str:
        """Stable sha256 over the canonical JSON form.

        Never uses Python's builtin ``hash`` (salted per process), so the
        value is identical across processes and runs — the property the
        result cache and the sharded runner rely on.
        """
        payload = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable identifier for tables and logs."""
        return f"{self.family}#{self.seed}"


# ----------------------------------------------------------------------
# Family registry
# ----------------------------------------------------------------------

FAMILIES: dict[str, Callable[[ScenarioSpec], Problem]] = {}


def register_family(name: str):
    """Decorator: register a generator under a family name."""

    def decorate(fn: Callable[[ScenarioSpec], Problem]):
        FAMILIES[name] = fn
        return fn

    return decorate


def materialize(spec: ScenarioSpec) -> Problem:
    """Deterministically build the façade problem a spec describes."""
    try:
        generator = FAMILIES[spec.family]
    except KeyError:
        raise KeyError(
            f"unknown scenario family {spec.family!r}; "
            f"known: {sorted(FAMILIES)}"
        ) from None
    return generator(spec)


@register_family("mca")
def _mca_family(spec: ScenarioSpec) -> ProtocolProblem:
    """Random connected networks with random sub-modular valuations.

    Sub-modular utilities plus honest rebidding is the regime where the
    paper proves convergence, so every engine/explorer oracle run on this
    family must converge — disagreement or divergence is a real bug.
    """
    rng = random.Random(spec.seed)
    num_agents = int(spec.param("num_agents", 4))
    num_items = int(spec.param("num_items", 5))
    target = int(spec.param("target", 2))
    items = [f"item{i}" for i in range(num_items)]
    topology = str(spec.param("topology", "random"))
    if topology == "random":
        network = AgentNetwork.random_connected(
            num_agents, extra_edge_prob=0.3, seed=rng.randrange(1 << 30)
        )
    elif topology == "ring" and num_agents >= 3:
        network = AgentNetwork.ring(num_agents)
    elif topology == "star":
        network = AgentNetwork.star(num_agents)
    elif topology == "line":
        network = AgentNetwork.line(num_agents)
    else:
        network = AgentNetwork.complete(num_agents)
    policies = {}
    for agent in range(num_agents):
        base = {j: round(rng.uniform(1.0, 100.0), 2) for j in items}
        growth = round(rng.uniform(0.3, 0.9), 2)  # strictly sub-modular
        policies[agent] = AgentPolicy(
            utility=GeometricUtility(base, growth=growth), target=target
        )
    return ProtocolProblem(network, items, policies)


@register_family("dispatch")
def _dispatch_family(spec: ScenarioSpec) -> ProtocolProblem:
    """Economic-dispatch grids (:func:`repro.workloads.economic_dispatch`)."""
    workload = economic_dispatch(
        num_units=int(spec.param("num_units", 5)),
        num_blocks=int(spec.param("num_blocks", 8)),
        capacity_blocks=int(spec.param("capacity_blocks", 3)),
        seed=spec.seed,
    )
    return ProtocolProblem(workload.network, workload.items, workload.policies)


@register_family("uav")
def _uav_family(spec: ScenarioSpec) -> ProtocolProblem:
    """UAV fleets (:func:`repro.workloads.uav_task_allocation`)."""
    workload = uav_task_allocation(
        num_uavs=int(spec.param("num_uavs", 4)),
        num_tasks=int(spec.param("num_tasks", 6)),
        comm_radius=float(spec.param("comm_radius", 60.0)),
        capacity=int(spec.param("capacity", 3)),
        seed=spec.seed,
    )
    return ProtocolProblem(workload.network, workload.items, workload.policies)


@register_family("vnet")
def _vnet_family(spec: ScenarioSpec) -> ProtocolProblem:
    """VN-embedding node auctions: physical nodes bid residual capacity.

    Materializes a grid substrate plus random requests and lifts the
    *first* request into an MCA auction exactly the way
    :func:`repro.vnm.embed.embed` does — the residual-capacity utility is
    sub-modular, so the convergence oracles apply.
    """
    workload = vn_embedding_workload(
        grid_width=int(spec.param("grid_width", 3)),
        grid_height=int(spec.param("grid_height", 3)),
        num_requests=int(spec.param("num_requests", 1)),
        request_size=int(spec.param("request_size", 3)),
        seed=spec.seed,
    )
    request = workload.requests[0]
    demands = request.demands()
    items = request.names()
    policies = {
        node.node_id: AgentPolicy(
            utility=ResidualCapacityUtility(node.cpu, demands),
            target=len(items),
        )
        for node in workload.physical.nodes()
    }
    network = AgentNetwork(
        ((a, b) for a, b, _ in workload.physical.links()),
        nodes=[n.node_id for n in workload.physical.nodes()],
    )
    return ProtocolProblem(network, items, policies)


@register_family("relational")
def _relational_family(spec: ScenarioSpec) -> FormulaProblem:
    """Random bounded relational problems over a small universe.

    A seeded port of the hypothesis strategy in
    ``tests/kodkod/test_translate_vs_evaluator.py``: two unary relations
    bounded by the whole universe, one binary relation with a sampled
    upper bound, and a random formula of bounded depth over them.  The
    free-variable count stays small enough that brute-force enumeration
    over the bounds (the evaluator oracle's reference path) is tractable.
    """
    rng = random.Random(spec.seed)
    num_atoms = int(spec.param("num_atoms", 3))
    depth = int(spec.param("depth", 2))
    max_edges = int(spec.param("max_edges", 4))
    atoms = [f"a{i}" for i in range(num_atoms)]
    universe = Universe(atoms)
    r_un = ast.Relation("r", 1)
    s_un = ast.Relation("s", 1)
    edge = ast.Relation("edge", 2)
    bounds = Bounds(universe)
    bounds.bound(r_un, universe.empty(1), universe.all_tuples(1))
    bounds.bound(s_un, universe.empty(1), universe.all_tuples(1))
    pairs = [(a, b) for a in atoms for b in atoms]
    upper = rng.sample(pairs, rng.randint(0, min(max_edges, len(pairs))))
    bounds.bound(edge, universe.empty(2), universe.tuple_set(2, upper))

    x = ast.Variable("x")
    y = ast.Variable("y")

    def expr(level: int) -> ast.Expr:
        choices = ["r", "s", "univ"]
        if level > 0:
            choices += ["union", "inter", "diff", "join_edge"]
        kind = rng.choice(choices)
        if kind == "r":
            return r_un
        if kind == "s":
            return s_un
        if kind == "univ":
            return ast.Univ()
        if kind == "join_edge":
            return ast.Join(expr(level - 1), edge)
        left, right = expr(level - 1), expr(level - 1)
        if kind == "union":
            return ast.Union(left, right)
        if kind == "inter":
            return ast.Intersection(left, right)
        return ast.Difference(left, right)

    def formula(level: int) -> ast.Formula:
        choices = ["some", "no", "one", "lone", "subset", "eq"]
        if level > 0:
            choices += ["and", "or", "not", "forall", "exists"]
        kind = rng.choice(choices)
        if kind == "some":
            return ast.Some(expr(1))
        if kind == "no":
            return ast.No(expr(1))
        if kind == "one":
            return ast.One(expr(1))
        if kind == "lone":
            return ast.Lone(expr(1))
        if kind == "subset":
            return ast.Subset(expr(1), expr(1))
        if kind == "eq":
            return ast.Equal(expr(1), expr(1))
        if kind == "and":
            return ast.And([formula(level - 1), formula(level - 1)])
        if kind == "or":
            return ast.Or([formula(level - 1), formula(level - 1)])
        if kind == "not":
            return ast.Not(formula(level - 1))
        var = x if kind == "forall" else y
        body_expr = ast.Join(var, edge) if rng.random() < 0.5 else r_un
        body = rng.choice([
            ast.Some(body_expr),
            ast.Subset(var, r_un),
            ast.No(ast.Intersection(var, s_un)),
        ])
        if kind == "forall":
            return ast.ForAll([(var, ast.Univ())], body)
        return ast.Exists([(var, ast.Univ())], body)

    return FormulaProblem(formula(depth), bounds)


# ----------------------------------------------------------------------
# Fingerprints (determinism guard for the result cache)
# ----------------------------------------------------------------------


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """Stable sha256 digest of the *materialized* problem.

    Two processes materializing the same spec must produce this exact
    digest — the determinism contract that makes the result cache's
    (spec hash, oracle) key sound.  Covered by a cross-process test.
    """
    return problem_fingerprint(materialize(spec))


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------


def grid_sweep(family: str, base_seed: int = 0, seeds_per_cell: int = 1,
               **param_lists: Sequence[ParamValue]) -> list[ScenarioSpec]:
    """Cartesian-product sweep: one spec per parameter cell per seed.

    Seeds are assigned deterministically by cell position, so the sweep is
    itself reproducible: ``grid_sweep("uav", num_uavs=[3, 4], num_tasks=[4])``
    produces the same specs everywhere.
    """
    names = sorted(param_lists)
    cells: list[dict[str, ParamValue]] = [{}]
    for name in names:
        cells = [
            {**cell, name: value}
            for cell in cells
            for value in param_lists[name]
        ]
    specs = []
    for index, cell in enumerate(cells):
        for offset in range(seeds_per_cell):
            seed = base_seed + index * seeds_per_cell + offset
            specs.append(ScenarioSpec.make(family, seed, **cell))
    return specs


def random_sweep(family: str, count: int, base_seed: int = 0,
                 **param_ranges: tuple[ParamValue, ParamValue] | Sequence[ParamValue]
                 ) -> list[ScenarioSpec]:
    """Randomized sweep: ``count`` specs with parameters drawn per spec.

    A range is either a ``(low, high)`` pair (ints sample inclusive
    integers, floats sample uniforms) or any other sequence, sampled
    uniformly.  Parameter draws come from a dedicated RNG seeded by
    ``(base_seed, index)``, independent of the scenario seed, so the sweep
    is reproducible and each spec stays self-describing.
    """
    specs = []
    for index in range(count):
        rng = random.Random(base_seed * 1_000_003 + index)
        params: dict[str, ParamValue] = {}
        for name in sorted(param_ranges):
            domain = param_ranges[name]
            if (isinstance(domain, tuple) and len(domain) == 2
                    and all(isinstance(v, (int, float)) for v in domain)
                    and not isinstance(domain[0], bool)):
                low, high = domain
                if isinstance(low, int) and isinstance(high, int):
                    params[name] = rng.randint(low, high)
                else:
                    params[name] = round(rng.uniform(float(low), float(high)), 4)
            else:
                params[name] = rng.choice(list(domain))
        specs.append(ScenarioSpec.make(family, base_seed + index, **params))
    return specs


def expand(specs: Iterable[ScenarioSpec],
           oracle_names: Iterable[str]) -> list[tuple[ScenarioSpec, str]]:
    """Pair every spec with every oracle name (the campaign task list)."""
    names = list(oracle_names)
    return [(spec, name) for spec in specs for name in names]
