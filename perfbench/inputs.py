"""Seeded inputs, known answers and the record of each workload.

Every generator is a pure function of its seed (and round index): the
same seed gives the same inputs in any process.  In-process inputs come
in *rounds* of fixed composition -- strata of similar cost, members and
order drawn from the seed -- so the share of cheap and expensive
problems, and with it the median and the 90th percentile, does not
depend on the seed.

Known answers never come from the solver under test:

* policy checks: a counterexample exists iff the combination is
  non-sub-modular with release-outbid, or a rebid attacker is present
  (the paper's Results 1 and 2); static ``uniqueID`` and capacity hold
  and conflict-free-init has a counterexample (Section IV);
* protocol scenarios hold: every family uses sub-modular utilities and
  honest rebidding, the regime where the paper proves convergence, and
  every exploration may run for the proven number of rounds
  (:func:`round_limit`; the default of 12 is too few for some bundles);
* relational specs: brute-force enumeration of every instance within the
  bounds with ``repro.kodkod.evaluator``;
* a re-check of an UNSAT anchor with narrowed bounds is UNSAT.
"""

from __future__ import annotations

import copy
import random

WORKLOADS = {
    "policy-checks": {
        "why": "the paper's push-button checks: both halves of the "
               "relational pipeline; counterexample cells are bound by "
               "translation, holds cells by search",
        "loop": "closed, in-process, one check at a time",
        "clients": 1,
        "mix": {"dynamic check consensus (model_for)": 23 / 29,
                "static assertions, naive and optimized": 6 / 29},
        "exercises": ["model", "api", "kodkod.translate",
                      "kodkod.boolcircuit", "sat.solver",
                      "kodkod.instance"],
        "bypasses": ["checking.explorer", "mca", "service"],
        "known_answer": "Results 1/2 policy rule; static uniqueID and "
                        "capacity hold, conflict-free-init fails",
    },
    "protocol-explore": {
        "why": "the second checking path: explicit-state exploration of "
               "the executable protocol; per-state cost and memo "
               "efficiency both show",
        "loop": "closed, in-process, one scenario at a time",
        "clients": 1,
        "mix": {"mca": 4 / 16, "dispatch": 4 / 16, "uav": 4 / 16,
                "vnet": 4 / 16},
        "exercises": ["api.problems", "api", "checking.explorer",
                      "mca.engine", "mca.agent"],
        "bypasses": ["kodkod", "sat.solver", "service"],
        "known_answer": "sub-modular utilities with honest rebidding "
                        "converge: every scenario HOLDS",
    },
    "service-stream": {
        "why": "per-job service overhead (codec, schema, journal fsyncs, "
               "dispatch, pool IPC, cache) dominates small jobs; cold "
               "jobs write the cache, re-checks read it or go warm",
        "loop": "closed, one client connection, one job in flight",
        "clients": 1,
        "mix": {"cold protocol spec, 2-3 agents": 5 / 16,
                "cold relational spec": 4 / 16,
                "cold policy check as codec tree": 3 / 16,
                "delta_of re-check, narrowed bounds": 2 / 16,
                "delta_of re-check, unchanged": 1 / 16,
                "verbatim resubmission": 1 / 16},
        "exercises": ["service.client", "service.schema", "fuzz.codec",
                      "service.queue", "service.workers",
                      "campaign.runner", "api.delta"],
        "bypasses": ["service.satellite"],
        "known_answer": "HOLDS for protocols, brute force for relational "
                        "specs, the policy rule, UNSAT for narrowed "
                        "re-checks of UNSAT anchors",
    },
    "satellite-drain": {
        "why": "the remote fabric: claim round trips, fsyncs per job and "
               "result-post latency of one satellite draining a backlog",
        "loop": "backlog drain: all jobs submitted before the satellite "
                "starts; completion seen by one healthz poll per 100 ms",
        "clients": 1,
        "mix": {"cold protocol spec, 4 agents": 3 / 4,
                "cold relational spec": 1 / 4},
        "exercises": ["service.satellite", "service.schema", "fuzz.codec",
                      "service.queue", "campaign.runner"],
        "bypasses": ["service.workers pool", "cache reads", "api.delta"],
        "known_answer": "HOLDS for protocols, brute force for relational "
                        "specs",
    },
}

# ----------------------------------------------------------------------
# policy-checks
# ----------------------------------------------------------------------

COMBOS = (  # (submodular, release_outbid, rebid_attacker)
    (True, False, False),
    (True, True, False),
    (False, False, False),
    (False, True, False),
    (True, False, True),
)
HOLDS_COMBOS = COMBOS[:3]
CEX_COMBOS = COMBOS[3:]

TOPOLOGIES = {
    "pair": [(0, 1)],
    "line": [(0, 1), (1, 2)],
    "triangle": [(0, 1), (1, 2), (0, 2)],
}

# (agents, topology, items, max_value slots): each round assigns the
# five combinations to a stratum's five slots, rotating by one slot per
# round, so every five rounds cover each (combination, slot) pair once.
DYNAMIC_STRATA = (
    (2, "pair", 1, (2, 3, 4, 5, 6)),
    (3, "triangle", 1, (2, 3, 4, 5, 6)),
    (3, "line", 1, (2, 2, 3, 3, 4)),
    (2, "pair", 2, (2, 2, 3, 3, 4)),
)
POLICY_PERIOD = len(COMBOS)
"""Rounds after which the dynamic cells repeat with the same costs."""

STATIC_SCOPE = (3, 2)
"""The paper's Section IV scope (3 pnodes, 2 vnodes)."""
STATIC_ASSERTIONS = (  # (method, counterexample expected)
    ("unique_id_assertion", False),
    ("capacity_assertion", False),
    ("conflict_free_init_assertion", True),
)


def counterexample_expected(combo) -> bool:
    """The paper's rule, independent of the solver under test."""
    submodular, release, attacker = combo
    return (not submodular and release) or attacker


def policy_round(seed: int, index: int) -> list[dict]:
    """One round: 23 dynamic checks and 6 static ones, in seeded order.

    The seed fixes the slot rotation's starting point and the order of
    the checks; a whole period of rounds is the same multiset of checks
    for every seed, which keeps medians independent of the seed.
    """
    rng = random.Random(f"policy-checks:{seed}:{index}")
    offset = random.Random(f"policy-checks:{seed}").randrange(POLICY_PERIOD)
    checks = []
    for stratum, (agents, topology, items, slots) in enumerate(
            DYNAMIC_STRATA):
        for position, combo in enumerate(COMBOS):
            max_value = slots[(position + index + offset + stratum)
                              % POLICY_PERIOD]
            checks.append({"kind": "dynamic", "agents": agents,
                           "topology": topology, "items": items,
                           "max_value": max_value, "combo": combo})
    # Three agents, two items: a holds cell (search-bound) and both
    # counterexample cells (translation-bound).
    for combo in (HOLDS_COMBOS[rng.randrange(len(HOLDS_COMBOS))],
                  *CEX_COMBOS):
        checks.append({"kind": "dynamic", "agents": 3,
                       "topology": "triangle", "items": 2, "max_value": 2,
                       "combo": combo})
    for encoding in ("naive", "optim"):
        for method, cex in STATIC_ASSERTIONS:
            checks.append({"kind": "static", "encoding": encoding,
                           "scope": STATIC_SCOPE, "assertion": method,
                           "counterexample": cex})
    rng.shuffle(checks)
    for check in checks:
        if check["kind"] == "dynamic":
            check["counterexample"] = counterexample_expected(check["combo"])
    return checks


def dynamic_problem(check: dict):
    """Build the ``check consensus`` problem of one dynamic cell."""
    from repro.api import FormulaProblem
    from repro.kodkod import ast
    from repro.model import PolicyCombination, model_for

    submodular, release, attacker = check["combo"]
    model = model_for(
        PolicyCombination(submodular, release, attacker),
        num_pnodes=check["agents"], num_vnodes=check["items"],
        max_value=check["max_value"], edges=TOPOLOGIES[check["topology"]])
    goal = ast.And([model.facts, ast.Not(model.consensus_assertion)])
    return FormulaProblem(goal, model.bounds)


def static_problem(check: dict):
    """Build one static assertion check (facts and not assertion)."""
    from repro.api import FormulaProblem
    from repro.kodkod import ast
    from repro.model import build_naive_static, build_optim_static

    if check["encoding"] == "naive":
        model = build_naive_static(max_int=7)
    else:
        model = build_optim_static(max_value=3)
    _, bounds, facts = model.compile(*check["scope"])
    assertion = getattr(model, check["assertion"])()
    return FormulaProblem(ast.And([facts, ast.Not(assertion)]), bounds)


# ----------------------------------------------------------------------
# protocol-explore
# ----------------------------------------------------------------------

# (family, fixed size params, seeded param ranges)
PROTOCOL_STRATA = (
    ("mca", {"num_agents": 3}, {"num_items": (2, 4), "target": (1, 3)}),
    ("mca", {"num_agents": 4}, {"num_items": (2, 4), "target": (1, 3)}),
    ("mca", {"num_agents": 4}, {"num_items": (2, 4), "target": (1, 3)}),
    ("mca", {"num_agents": 5}, {"num_items": (2, 4), "target": (1, 3)}),
    ("dispatch", {"num_units": 3}, {"num_blocks": (2, 5),
                                    "capacity_blocks": (1, 3)}),
    ("dispatch", {"num_units": 4}, {"num_blocks": (2, 5),
                                    "capacity_blocks": (1, 3)}),
    ("dispatch", {"num_units": 4}, {"num_blocks": (2, 5),
                                    "capacity_blocks": (1, 3)}),
    ("dispatch", {"num_units": 5}, {"num_blocks": (2, 5),
                                    "capacity_blocks": (1, 3)}),
    ("uav", {"num_uavs": 3}, {"num_tasks": (2, 4), "capacity": (1, 3)}),
    ("uav", {"num_uavs": 4}, {"num_tasks": (2, 4), "capacity": (1, 3)}),
    ("uav", {"num_uavs": 4}, {"num_tasks": (2, 4), "capacity": (1, 3)}),
    ("uav", {"num_uavs": 5}, {"num_tasks": (2, 4), "capacity": (1, 3)}),
    ("vnet", {"grid_width": 2, "grid_height": 2}, {"request_size": (2, 3)}),
    ("vnet", {"grid_width": 3, "grid_height": 2}, {"request_size": (2, 3)}),
    ("vnet", {"grid_width": 3, "grid_height": 2}, {"request_size": (2, 3)}),
    ("vnet", {"grid_width": 3, "grid_height": 2}, {"request_size": (2, 3)}),
)


def _draw_spec(rng: random.Random, family: str, fixed: dict, ranges: dict):
    from repro.campaign.specs import ScenarioSpec

    params = dict(fixed)
    for name, (low, high) in sorted(ranges.items()):
        params[name] = rng.randint(low, high)
    return ScenarioSpec.make(family, rng.randrange(1 << 30), **params)


def round_limit(problem) -> int:
    """Exploration depth under which HOLDS is the known answer: the
    rounds within which the protocol provably converges
    (``repro.mca.round_bound``), and never less than the default."""
    from repro.api import Options
    from repro.mca import round_bound

    targets = {agent: policy.target
               for agent, policy in problem.policies.items()}
    return max(Options().max_rounds,
               round_bound(problem.network, list(problem.items), targets))


def protocol_body(spec) -> dict:
    """A service submission of a protocol spec with its round limit."""
    from repro.api import problem_from_spec

    return {"spec": spec.as_dict(),
            "options": {"max_rounds": round_limit(problem_from_spec(spec))}}


def warm_up_spec():
    """The one small scenario every set-up solves before it is ready."""
    from repro.campaign.specs import ScenarioSpec

    return ScenarioSpec.make("mca", 0, num_agents=3, num_items=2, target=1)


def protocol_round(seed: int, index: int) -> list:
    """One round: a seeded scenario spec from each of the 16 strata."""
    rng = random.Random(f"protocol-explore:{seed}:{index}")
    specs = [_draw_spec(rng, *stratum) for stratum in PROTOCOL_STRATA]
    rng.shuffle(specs)
    return specs


# ----------------------------------------------------------------------
# service workloads
# ----------------------------------------------------------------------

DRAIN_PROTOCOLS = (
    ("mca", {"num_agents": 4}, {"num_items": (1, 3), "target": (1, 2)}),
    ("dispatch", {"num_units": 4}, {"num_blocks": (1, 3),
                                    "capacity_blocks": (1, 2)}),
    ("uav", {"num_uavs": 4}, {"num_tasks": (1, 3), "capacity": (1, 2)}),
)
"""Four agents: each drained job carries some solving, so a busy host
slows a drain in proportion instead of compounding over every process
hand-off of a pure round trip."""
STREAM_PROTOCOLS = (
    ("mca", {}, {"num_agents": (2, 3), "num_items": (1, 3),
                 "target": (1, 2)}),
    ("dispatch", {}, {"num_units": (2, 3), "num_blocks": (1, 3),
                      "capacity_blocks": (1, 2)}),
    ("uav", {}, {"num_uavs": (2, 3), "num_tasks": (1, 3),
                 "capacity": (1, 2)}),
)
"""Two or three agents: light jobs whose solve takes a few milliseconds."""
RELATIONAL = {"num_atoms": (3, 3), "depth": (1, 2), "max_edges": (0, 4)}

# Small dynamic scopes the service client sends as codec trees: (agents,
# topology, items, max_values).  Each scope comes with the paper's state
# bound and with one state more, and each such variant is sent once per
# run as its three distinct models, so every policy job is cold and
# every run sends the same multiset of policy checks.
SERVICE_POLICY_SCOPES = (
    (2, "pair", 1, (2, 4, 6)),
    (3, "triangle", 1, (2, 3, 4)),
    (3, "line", 1, (2, 3)),
)
LINE_LABELINGS = ([(0, 1), (1, 2)], [(1, 0), (0, 2)])
"""Two distinct problems per line scope: the centre node differs."""
DIAMETERS = {"pair": 1, "line": 2, "triangle": 1}

SERVICE_CYCLE = ("policy-holds", "protocol", "relational", "policy-deviant",
                 "protocol", "delta-narrowed", "relational", "protocol",
                 "policy-attacker", "relational", "delta-narrowed",
                 "protocol", "resubmit", "relational", "delta-same",
                 "protocol")
"""One cycle per scope variant: its three policy checks, re-checks
anchored on its holds check, and light cold jobs (the shares are
recorded in WORKLOADS).  With one client no job waits for another, so
the median lies among the light jobs and the 90th percentile among the
policy checks and first re-checks, a quarter of the mix."""
POLICY_MODELS = {"policy-holds": COMBOS[0], "policy-deviant": COMBOS[3],
                 "policy-attacker": COMBOS[4]}
"""``model_for`` builds one and the same model for the three honest
combinations, so a scope has three distinct models."""


def protocol_request(rng: random.Random, strata=STREAM_PROTOCOLS) -> dict:
    spec = _draw_spec(rng, *strata[rng.randrange(len(strata))])
    return {"kind": "protocol", "body": protocol_body(spec),
            "expected": "holds"}


def relational_request(rng: random.Random, seen: set) -> dict:
    """A relational spec whose problem differs from every one in ``seen``
    (small random formulas repeat often; a repeat would be idempotent at
    the queue instead of cold)."""
    from repro.campaign.specs import scenario_fingerprint

    while True:
        spec = _draw_spec(rng, "relational", {}, RELATIONAL)
        fingerprint = scenario_fingerprint(spec)
        if fingerprint not in seen:
            seen.add(fingerprint)
            return {"kind": "relational", "body": {"spec": spec.as_dict()},
                    "expected": None, "spec": spec}


def policy_scopes(seed: int) -> list[dict]:
    """Every service policy scope variant, in a seeded order."""
    scopes = [{"agents": agents, "edges": edges, "items": items,
               "max_value": max_value,
               "states": DIAMETERS[topology] * items + 1 + extra_state}
              for agents, topology, items, values in SERVICE_POLICY_SCOPES
              for edges in (LINE_LABELINGS if topology == "line"
                            else [TOPOLOGIES[topology]])
              for max_value in values
              for extra_state in (0, 1)]
    random.Random(f"policy-scopes:{seed}").shuffle(scopes)
    return scopes


def policy_tree(cell: dict) -> dict:
    """The cell's ``check consensus`` problem as a codec tree: the gating
    of :func:`repro.model.model_for` with an explicit state count."""
    from repro.api import FormulaProblem
    from repro.fuzz.codec import problem_to_json
    from repro.kodkod import ast
    from repro.model import build_dynamic

    submodular, release, attacker = cell["combo"]
    agents = cell["agents"]
    model = build_dynamic(
        num_pnodes=agents, num_vnodes=cell["items"],
        num_states=cell["states"], max_value=cell["max_value"],
        edges=cell["edges"],
        release_nonsub=(set(range(agents)) if not submodular and release
                        else set()),
        rebid_attackers={agents - 1} if attacker else set())
    goal = ast.And([model.facts, ast.Not(model.consensus_assertion)])
    return problem_to_json(FormulaProblem(goal, model.bounds))


def narrowed_tree(tree: dict, rng: random.Random) -> dict:
    """Drop 1-4 free tuples from the view relation's upper bound."""
    narrowed = copy.deepcopy(tree)
    for relation in narrowed["bounds"]["relations"]:
        if relation["name"] == "bidVector.triples":
            upper = relation["upper"]
            for _ in range(rng.randint(1, 4)):
                upper.pop(rng.randrange(len(upper)))
    return narrowed


def service_stream(seed: int) -> list[dict]:
    """The client's request list: one :data:`SERVICE_CYCLE` per policy
    scope variant.

    Delta re-checks and resubmissions refer to earlier requests by
    position (``"ref"``), so each reference is answered when it is sent.
    """
    rng = random.Random(f"service-stream:{seed}")
    seen: set = set()
    stream: list[dict] = []
    for scope in policy_scopes(seed):
        anchor = None
        for kind in SERVICE_CYCLE:
            if kind == "protocol":
                request = protocol_request(rng)
            elif kind == "relational":
                request = relational_request(rng, seen)
            elif kind in POLICY_MODELS:
                cell = {**scope, "combo": POLICY_MODELS[kind]}
                cex = counterexample_expected(cell["combo"])
                request = {"kind": "policy",
                           "body": {"problem": policy_tree(cell)},
                           "expected": "sat" if cex else "unsat"}
                if kind == "policy-holds":
                    anchor = len(stream)
            elif kind.startswith("delta"):
                tree = stream[anchor]["body"]["problem"]
                if kind == "delta-narrowed":
                    tree = narrowed_tree(tree, rng)
                request = {"kind": kind, "ref": anchor, "expected": "unsat",
                           "body": {"problem": tree}}
            else:  # resubmit an earlier cold job verbatim
                earlier = stream[rng.randrange(len(stream))]
                while earlier["kind"] not in ("protocol", "relational"):
                    earlier = stream[rng.randrange(len(stream))]
                request = {**earlier, "kind": "resubmit"}
            stream.append(request)
    return stream


def drain_backlog(seed: int, count: int) -> list[dict]:
    """Small cold jobs: three protocol specs to each relational one."""
    rng = random.Random(f"satellite-drain:{seed}")
    seen: set = set()
    return [protocol_request(rng, DRAIN_PROTOCOLS) if index % 4
            else relational_request(rng, seen) for index in range(count)]


def relational_expected(spec) -> str:
    """SAT/UNSAT of a relational spec by brute-force enumeration."""
    from repro.campaign.specs import materialize
    from repro.kodkod.evaluator import Evaluator, brute_force_instances

    scenario = materialize(spec)
    for instance in brute_force_instances(scenario.bounds):
        if Evaluator(instance).check(scenario.formula):
            return "sat"
    return "unsat"
