"""The legacy call surface stays gone, and the façade warns nothing.

``repro.api`` is the one entry point per operation.  The kodkod,
alloylite and checking packages used to carry their own solve/check/
enumerate/explore functions beside it; these tests keep any of them from
coming back as a module attribute (``test_public_api.py`` pins only the
``__all__`` lists), and check that every façade operation runs without
emitting a warning of any kind.
"""

import importlib
import warnings

import pytest

from repro import api
from repro.alloylite import Module
from repro.kodkod import ast
from repro.kodkod.bounds import Bounds
from repro.kodkod.engine import Solution
from repro.kodkod.universe import Universe
from repro.mca.network import AgentNetwork
from repro.mca.policies import submodular_policy

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
]


@pytest.mark.parametrize(
    "module_name, name", REMOVED_NAMES,
    ids=[f"{module}.{name}" for module, name in REMOVED_NAMES])
def test_removed_name_is_gone(module_name, name):
    module = importlib.import_module(module_name)
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())


def test_alloylite_commands_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.alloylite.commands")


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
                                             max_paths=50),
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
