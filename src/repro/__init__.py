"""repro: a full-stack reproduction of "An Alloy Verification Model for
Consensus-Based Auction Protocols" (Mirzaei & Esposito, ICDCS 2015).

Public API
----------
The :mod:`repro.api` façade, re-exported here, is the one entry point
for every operation: build a problem (:class:`FormulaProblem`,
:class:`ModuleProblem`, :class:`ProtocolProblem`), call :func:`solve` /
:func:`check` / :func:`enumerate` / :func:`run_protocol` (or
:func:`solve_many` for cached, sharded batches), and read the uniform
:class:`Result`.  Backends plug in via :func:`register_backend`.  The
subpackages below export the layers the façade is built from (sessions,
solvers, the raw explorer), not second ways to run an operation.

Subpackages
-----------
``repro.api``
    The unified verification façade (problems, options, results,
    pluggable backends, batch execution).
``repro.sat``
    A CDCL SAT solver -- the MiniSat role under the Alloy Analyzer.
``repro.kodkod``
    A bounded relational model finder -- the Kodkod role.
``repro.alloylite``
    An Alloy-style frontend: sigs, facts, scopes, ordering (its run and
    check commands are ``repro.api`` calls on a ``ModuleProblem``).
``repro.mca``
    The executable Max-Consensus Auction protocol with pluggable policies.
``repro.vnm``
    The virtual network mapping case study (Section II-B).
``repro.model``
    The paper's MCA Alloy model, in both the naive and optimized encodings.
``repro.checking``
    Explicit-state dynamic checking of the executable protocol.
``repro.campaign``
    Sharded randomized differential verification sweeps and the one
    registry of differential oracles.
``repro.jobs``
    The result cache and process pool the campaign, fuzz, batch and
    service paths share.
``repro.workloads``
    UAV / virtual-network / smart-grid workload generators.
``repro.analysis``
    Experiment drivers and report rendering.
"""

__version__ = "1.1.0"

# The façade is re-exported lazily (PEP 562) so that ``import repro``
# stays cheap and subpackage imports never cycle through the package
# root.  ``from repro import solve`` and ``repro.Options`` both work.
_API_EXPORTS = frozenset({
    "Backend",
    "DeltaSession",
    "FormulaProblem",
    "ModuleProblem",
    "Options",
    "Problem",
    "ProblemDelta",
    "ProtocolProblem",
    "Result",
    "Verdict",
    "available_backends",
    "check",
    "diff_problems",
    "enumerate",
    "problem_from_spec",
    "register_backend",
    "run_protocol",
    "solve",
    "solve_delta",
    "solve_many",
})

__all__ = ["__version__", "api", *sorted(_API_EXPORTS)]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    if name == "api":
        import repro.api as api

        return api
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
