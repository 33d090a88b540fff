"""Benchmark: 'push-button' consensus check scaling across scopes.

Paper (Section IV footnote): the consensus assertion at scope (3 pnodes,
2 vnodes) took ~2 hours on the optimized model (1.4 GHz i3, Alloy 4 +
MiniSat).  Absolute times are incomparable; we report how our translation
and check times scale with scope, which is the decision-relevant curve for
anyone extending the model.
"""

import copy

import pytest

from repro.analysis import render_table
from repro.checking import explore
from repro.mca import AgentNetwork, AgentPolicy, GeometricUtility
from repro.model import build_dynamic

SCOPES = [
    ("2p/1v", dict(num_pnodes=2, num_vnodes=1, max_value=3)),
    ("2p/2v", dict(num_pnodes=2, num_vnodes=2, max_value=4)),
    ("3p/1v", dict(num_pnodes=3, num_vnodes=1, max_value=3,
                   edges=[(0, 1), (1, 2)])),
    ("3p/2v", dict(num_pnodes=3, num_vnodes=2, max_value=3,
                   edges=[(0, 1), (1, 2)])),
]


@pytest.mark.parametrize("label,params", SCOPES, ids=[s[0] for s in SCOPES])
def test_consensus_check_at_scope(bench, report, label, params):
    def run():
        model = build_dynamic(**params)
        return model.check_consensus()

    solution = bench(run)
    assert not solution.satisfiable  # honest consensus holds at all scopes
    report.append(render_table(
        ["scope", "primary vars", "cnf vars", "clauses", "solve (s)",
         "conflicts", "learned", "db reductions"],
        [[label, solution.stats.num_primary_vars, solution.stats.num_cnf_vars,
          solution.stats.num_clauses, f"{solution.seconds:.3f}",
          solution.solver_stats.get("conflicts", 0),
          solution.solver_stats.get("learned", 0),
          solution.solver_stats.get("db_reductions", 0)]],
        title="check consensus scaling (paper at 3p/2v: <2h on Alloy 4)",
    ))


EXPLORER_SCOPES = [
    ("2 agents / 2 items", 2, ["A", "B"]),
    ("3 agents / 2 items", 3, ["A", "B"]),
    ("3 agents / 3 items", 3, ["A", "B", "C"]),
    ("6 agents / 2 items", 6, ["A", "B"]),
]


@pytest.mark.parametrize("label,agents,items", EXPLORER_SCOPES,
                         ids=[s[0] for s in EXPLORER_SCOPES])
def test_explorer_scaling_without_deepcopy(bench, report, monkeypatch,
                                           label, agents, items):
    """The snapshot/restore explorer never deep-copies on the branch hot
    path: covering every activation order at every depth runs on one
    engine with O(items) agent snapshots, one per receiver and sender
    order.  deepcopy is poisoned for the whole run to prove it.  The
    default ``max_states`` covers every scope, so each row is a full
    search."""
    def poisoned(*_args, **_kwargs):
        raise AssertionError("copy.deepcopy called on the explorer hot path")

    monkeypatch.setattr(copy, "deepcopy", poisoned)
    # One shared policy: all agents interchangeable, maximal memo sharing.
    policy = AgentPolicy(
        utility=GeometricUtility(
            {j: 10 + 2 * k for k, j in enumerate(items)}, growth=0.5
        ),
        target=2,
    )
    policies = {a: policy for a in range(agents)}
    network = AgentNetwork.complete(agents)

    def run():
        return explore(network, items, policies, max_rounds=10)

    result = bench(run)
    assert result.all_converged and not result.truncated
    report.append(render_table(
        ["scope", "paths", "worst rounds", "memo hits", "states memoized"],
        [[label, result.paths_explored, result.max_rounds_to_converge,
          result.memo_hits, result.states_memoized]],
        title="explorer scaling (per-receiver branching, deepcopy "
              "poisoned)",
    ))


def test_translation_size_grows_with_scope():
    small = build_dynamic(num_pnodes=2, num_vnodes=1,
                          max_value=3).translate_check()
    large = build_dynamic(num_pnodes=3, num_vnodes=2, max_value=3,
                          edges=[(0, 1), (1, 2)]).translate_check()
    assert large.stats.num_clauses > small.stats.num_clauses
    assert large.stats.num_primary_vars > small.stats.num_primary_vars
