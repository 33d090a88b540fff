"""The legacy call surface stays gone, and the façade warns nothing.

``repro.api`` is the one entry point per operation.  The kodkod,
alloylite and checking packages used to carry their own solve/check/
enumerate/explore functions beside it; these tests keep any of them from
coming back as a module attribute (``test_public_api.py`` pins only the
``__all__`` lists), and check that every façade operation runs without
emitting a warning of any kind.  The SAT layer has one kernel and one
model loop: the numpy kernel (``repro.sat.kernel``, the
``kodkod-vector`` backend, every ``kernel`` argument) and
``repro.sat.enumerate`` stay gone too.  A problem has one identity, its
codec tree: the second serialization (``problem_payload``) is gone, and
``Options`` keeps only fields that a single solve reads.  The tree and
its fingerprints live in ``repro.api.codec`` alone, whose decoder is the
one validity gate (no second relation walk).  Members that nothing
called stay gone, among them ``CNF``'s second Tseitin encoder.  An
external solver runs one way, ``dimacs:<command>``, one process per
solve: the ``dimacs-inc:`` backend, its client and the CLI's iCNF
server stay gone.
"""

import dataclasses
import importlib
import warnings

import pytest

from repro import api
from repro.alloylite import Module
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.engine import Session, Solution
from repro.kodkod.universe import Universe
from repro.mca.network import AgentNetwork
from repro.mca.policies import submodular_policy
from repro.sat.cnf import CNF
from repro.sat.dimacs import main as dimacs_main
from repro.sat.solver import Solver, solve_cnf

REMOVED_NAMES = [
    ("repro.kodkod", "solve"),
    ("repro.kodkod", "iter_solutions"),
    ("repro.kodkod", "count_solutions"),
    ("repro.kodkod.engine", "solve"),
    ("repro.kodkod.engine", "iter_solutions"),
    ("repro.kodkod.engine", "count_solutions"),
    ("repro.alloylite", "run"),
    ("repro.alloylite", "check"),
    ("repro.alloylite", "iter_instances"),
    ("repro.alloylite", "RunResult"),
    ("repro.alloylite", "CheckResult"),
    ("repro.checking", "explore_message_orders"),
    ("repro.checking.explorer", "explore_message_orders"),
    ("repro.api", "describe_verdict"),
    ("repro.api.result", "describe_verdict"),
    ("repro.kodkod", "DeltaSession"),
    ("repro.kodkod.engine", "DeltaSession"),
    ("repro.api.backends", "DimacsBackend"),
    ("repro.api.backends", "DimacsIncBackend"),
    ("repro.sat", "iter_models"),
    ("repro.sat", "count_models"),
    ("repro.sat", "Clause"),
    ("repro.sat", "clause"),
    ("repro.sat.types", "Clause"),
    ("repro.sat.types", "clause"),
    ("repro.api.problems", "problem_payload"),
    ("repro.api.problems", "_bounds_payload"),
    ("repro.api.problems", "_auction_payload"),
    ("repro.api.problems", "problem_fingerprint"),
    ("repro.api.problems", "tree_fingerprint"),
    ("repro.fuzz.codec", "subtree_at"),
    ("repro.fuzz.codec", "unbounded_relations"),
    ("repro.sat.external", "IncrementalExternalSolver"),
    ("repro.sat.external", "open_external"),
]

REMOVED_MEMBERS = [
    ("repro.sat.cnf", "CNF", "add_and_gate"),
    ("repro.sat.cnf", "CNF", "add_or_gate"),
    ("repro.sat.cnf", "CNF", "add_xor_gate"),
    ("repro.sat.cnf", "CNF", "add_ite_gate"),
    ("repro.sat.cnf", "CNF", "add_equiv"),
    ("repro.sat.cnf", "CNF", "add_implies"),
    ("repro.sat.cnf", "CNF", "add_at_most_one"),
    ("repro.sat.cnf", "CNF", "add_exactly_one"),
    ("repro.kodkod.matrix", "BoolMatrix", "identity_union"),
    ("repro.kodkod.boolcircuit", "BooleanFactory", "is_input"),
    ("repro.kodkod.boolcircuit", "BooleanFactory", "num_inputs"),
    ("repro.mca.agent", "Agent", "winning_items"),
    ("repro.mca.engine", "SynchronousEngine", "_global_signature"),
]

REMOVED_OPTIONS = ["memoize", "workers", "cache_dir", "max_paths"]


@pytest.mark.parametrize(
    "module_name, name", REMOVED_NAMES,
    ids=[f"{module}.{name}" for module, name in REMOVED_NAMES])
def test_removed_name_is_gone(module_name, name):
    module = importlib.import_module(module_name)
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())


@pytest.mark.parametrize(
    "module_name, owner, name", REMOVED_MEMBERS,
    ids=[f"{owner}.{name}" for _, owner, name in REMOVED_MEMBERS])
def test_removed_member_is_gone(module_name, owner, name):
    assert not hasattr(getattr(importlib.import_module(module_name), owner),
                       name)


@pytest.mark.parametrize("name", REMOVED_OPTIONS)
def test_removed_option_is_refused(name):
    """How a batch runs is a ``solve_many`` argument, the explorer
    always memoizes, and ``max_states`` bounds a protocol check in
    place of ``max_paths``: none of these is an option any more."""
    assert name not in {f.name for f in dataclasses.fields(api.Options)}
    with pytest.raises(ValueError, match=f"unknown option.*{name}"):
        api.Options.from_json({name: 1})
    with pytest.raises(TypeError, match=name):
        api.Options(**{name: 1})


@pytest.mark.parametrize("module_name", [
    "repro.alloylite.commands",
    "repro.sat.kernel",
    "repro.sat.enumerate",
])
def test_removed_module_is_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


def test_vector_backend_is_gone():
    assert "kodkod-vector" not in api.available_backends()
    with pytest.raises(ValueError, match="unknown backend 'kodkod-vector'"):
        api.solve(*_relational_problem(), solver="kodkod-vector")


KERNEL_ARGUMENT_CALLS = {
    "Solver": lambda: Solver(kernel="pure"),
    "solve_cnf": lambda: solve_cnf(CNF(), kernel="pure"),
    "Session": lambda: Session(*_relational_problem(), kernel="pure"),
}


@pytest.mark.parametrize("name", sorted(KERNEL_ARGUMENT_CALLS))
def test_kernel_argument_is_rejected(name):
    with pytest.raises(TypeError, match="kernel"):
        KERNEL_ARGUMENT_CALLS[name]()


def test_dimacs_solve_rejects_the_kernel_flag(tmp_path, capsys):
    path = tmp_path / "tiny.cnf"
    path.write_text("p cnf 1 1\n1 0\n", encoding="ascii")
    with pytest.raises(SystemExit) as exited:
        dimacs_main(["solve", str(path), "--kernel", "pure"])
    assert exited.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_incremental_backend_is_gone():
    with pytest.raises(ValueError, match="unknown backend 'dimacs-inc:x'"):
        api.get_backend("dimacs-inc:x")


def test_dimacs_solve_rejects_the_incremental_flag(tmp_path, capsys):
    """``solve`` requires its file again, and ``--incremental`` is no
    flag of it."""
    with pytest.raises(SystemExit) as exited:
        dimacs_main(["solve", "--incremental"])
    assert exited.value.code == 2
    assert "required: file" in capsys.readouterr().err
    path = tmp_path / "tiny.cnf"
    path.write_text("p cnf 1 1\n1 0\n", encoding="ascii")
    with pytest.raises(SystemExit) as exited:
        dimacs_main(["solve", str(path), "--incremental"])
    assert exited.value.code == 2
    assert "--incremental" in capsys.readouterr().err


def test_solution_has_no_unsatisfiable_property():
    assert not hasattr(Solution, "unsatisfiable")


def _relational_problem():
    universe = Universe(["a0", "a1", "a2"])
    bounds = Bounds(universe)
    rel = ast.Relation("r", 1)
    edge = ast.Relation("e", 2)
    bounds.bound(rel, universe.empty(1), universe.all_tuples(1))
    bounds.bound(edge, universe.empty(2),
                 universe.tuple_set(2, [("a0", "a1"), ("a1", "a2")]))
    return ast.And([ast.Some(rel), ast.Some(edge)]), bounds


def _module():
    module = Module("surface")
    node = module.sig("Node")
    module.fact(ast.Some(node.relation))
    return module, ast.CardinalityGe(node.relation, 1)


def _protocol():
    network = AgentNetwork.line(2)
    policies = {agent: submodular_policy({"x": 10.0 + agent}, target=1)
                for agent in network.agents()}
    return api.ProtocolProblem(network, ["x"], policies)


FACADE_CALLS = {
    "solve": lambda: api.solve(*_relational_problem()),
    "enumerate": lambda: api.enumerate(*_relational_problem()),
    "check": lambda: api.check(*_module()),
    "run_protocol": lambda: api.run_protocol(_protocol(), max_rounds=4,
                                             max_states=50),
    "solve_many": lambda: api.solve_many(
        [api.FormulaProblem(*_relational_problem()),
         api.ModuleProblem(_module()[0])], workers=1),
}


@pytest.mark.parametrize("operation", sorted(FACADE_CALLS))
def test_facade_operation_emits_no_warning(operation):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = FACADE_CALLS[operation]()
    assert [str(w.message) for w in caught] == []
    results = result if isinstance(result, list) else [result]
    assert all(r.verdict is not api.Verdict.ERROR for r in results)
