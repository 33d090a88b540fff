"""``repro.api`` — the unified verification façade.

One stable surface over the whole stack: describe a problem
(:class:`FormulaProblem`, :class:`ModuleProblem` or
:class:`ProtocolProblem`), tune one validated :class:`Options`, call
:func:`solve` / :func:`check` / :func:`enumerate` / :func:`run_protocol`
(or :func:`solve_many` for cached, sharded batches), and read one
uniform :class:`Result`.  Backends plug in behind the :class:`Backend`
protocol via :func:`register_backend`.

Quickstart::

    from repro import api
    from repro.kodkod import Bounds, Universe, ast

    u = Universe(["a", "b", "c"])
    r = ast.Relation("r", 1)
    bounds = Bounds(u)
    bounds.bound(r, u.empty(1), u.all_tuples(1))
    result = api.solve(ast.Some(r), bounds)
    assert result.satisfiable
    print(result.describe())
"""

from repro.api.options import Options
from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    ProtocolProblem,
    problem_from_spec,
    problem_kind,
)
from repro.api.codec import problem_fingerprint
from repro.api.result import (
    Result,
    Verdict,
    instance_payload,
    result_from_json,
    result_to_json,
)
from repro.api.backends import (
    Backend,
    ExplorerBackend,
    KodkodBackend,
    available_backends,
    backend_for,
    get_backend,
    register_backend,
)
from repro.api.facade import check, enumerate, run_protocol, solve
from repro.api.batch import (
    BATCH_SCHEMA,
    DEFAULT_TASK_TIMEOUT,
    batch_cache_key,
    solve_many,
)
# Imported last: the delta module imports the facade/backends modules above.
from repro.api.delta import (
    DeltaSession,
    ProblemDelta,
    diff_problems,
    solve_delta,
)

__all__ = [
    "BATCH_SCHEMA",
    "Backend",
    "DEFAULT_TASK_TIMEOUT",
    "DeltaSession",
    "ExplorerBackend",
    "FormulaProblem",
    "KodkodBackend",
    "ModuleProblem",
    "Options",
    "Problem",
    "ProblemDelta",
    "ProtocolProblem",
    "Result",
    "Verdict",
    "available_backends",
    "backend_for",
    "batch_cache_key",
    "check",
    "diff_problems",
    "enumerate",
    "get_backend",
    "instance_payload",
    "problem_fingerprint",
    "problem_from_spec",
    "problem_kind",
    "register_backend",
    "result_from_json",
    "result_to_json",
    "run_protocol",
    "solve",
    "solve_delta",
    "solve_many",
]
