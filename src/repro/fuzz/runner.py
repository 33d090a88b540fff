"""The coverage-guided differential fuzz loop.

Generation 0 draws fresh random inputs (seeded swarm specs); every input
is checked through each applicable differential oracle; inputs whose runs
produce coverage nobody has seen yet enter the corpus; later generations
mutate corpus members as well as drawing fresh inputs.  Checks fan out
over the campaign runner's generic process pool
(:func:`repro.campaign.runner.map_jobs`) and reuse its content-addressed
on-disk cache format, so a warm re-run of the same seeded sweep is pure
cache reads.

The oracles are the campaign's own differential checks, re-hosted on
façade problems, plus a CNF-encoding differential unique to the fuzzer:

==============  ========================================================
oracle          checks
==============  ========================================================
``encodings``   Plaisted-Greenbaum vs Tseitin vs DIMACS round-trip solve
``symmetry``    solve with lex-leader SBP vs ``symmetry=0``
``session``     incremental enumeration vs a fresh solver per model
``explorer``    memoized schedule exploration vs plain DFS
``engines``     synchronous vs asynchronous (fifo + random) convergence
``delta``       ``solve_delta`` on a mutated problem vs fresh solve
==============  ========================================================

Any disagreeing or crashing input is handed to the shrinker
(:mod:`repro.fuzz.shrink`) and re-emitted as a minimal corpus entry plus
a self-contained repro script.  ``python -m repro.fuzz`` is the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.api.backends import _relational_goal
from repro.api.problems import (
    FormulaProblem,
    ModuleProblem,
    Problem,
    ProtocolProblem,
)
from repro.campaign.oracles import ORACLES, OracleOutcome
from repro.campaign.runner import ResultCache, map_jobs
from repro.campaign.specs import (
    AuctionScenario,
    RelationalProblem,
    ScenarioSpec,
)
from repro.fuzz import codec
from repro.fuzz.faults import FAULTS, fault_matches
from repro.fuzz.generators import KINDS, FuzzSpec, generate
from repro.fuzz.mutators import coverage_signature, mutate_problem
from repro.fuzz.shrink import ShrinkResult, problem_size, shrink

FUZZ_SCHEMA = 3
"""Bump to invalidate every cached fuzz result (semantic change).

2: encodings oracle grew the vector-kernel arm (and the env-gated
   external-solver arm), changing detail keys and coverage signatures.
3: delta oracle added (solve_delta vs fresh solve), changing the task
   stream, coverage signatures and corpus evolution of every sweep."""

DEFAULT_CACHE_DIR = ".fuzz_cache"
DEFAULT_ARTIFACTS_DIR = ".fuzz_artifacts"

_SESSION_FREE_TUPLE_CAP = 6
"""Session oracle gate: the fresh-solver reference path rebuilds a whole
translation and solver per model, so the model space is capped at 2^6."""

_EXPLORER_AGENT_CAP = 3
_EXPLORER_ITEM_CAP = 2
"""Explorer oracle gates: schedule exploration is factorial in both."""

_GENERATION_SIZE = 12
"""Oracle checks per generation (shard-independent; see run_fuzz)."""


# ----------------------------------------------------------------------
# Oracles over façade problems
# ----------------------------------------------------------------------


def lift_module(problem: ModuleProblem) -> FormulaProblem:
    """Lower a module problem to its compiled goal formula + bounds.

    The goal is the kodkod backend's own lowering: ``run`` conjoins the
    facts with the optional predicate, ``check`` conjoins the facts with
    the negated assertion.  The lifted problem exercises the alloylite
    compilation layer while letting every formula-level oracle apply.
    """
    goal, bounds, _ = _relational_goal(problem, "fuzz")
    return FormulaProblem(goal, bounds)


@dataclass(frozen=True)
class FuzzOracle:
    """A differential oracle over one problem kind, with a size gate.

    ``problem_type`` is anything :func:`isinstance` accepts — a single
    problem class or a tuple of them (the ``delta`` oracle spans both
    formula and protocol problems).
    """

    name: str
    problem_type: type | tuple[type, ...]
    run: Callable[[Problem, int], OracleOutcome]
    gate: Callable[[Problem], bool]
    description: str = ""

    def applicable(self, problem: Problem) -> bool:
        """Whether this oracle can check the problem at its size."""
        return isinstance(problem, self.problem_type) and self.gate(problem)


def _encodings_oracle(problem: FormulaProblem, seed: int) -> OracleOutcome:
    """PG vs Tseitin vs DIMACS-round-trip vs vector kernel: one verdict.

    When ``REPRO_EXTERNAL_SOLVER`` names a SAT-competition-conformant
    binary, the PG CNF is additionally round-tripped through it as a
    fifth arm (the nightly CI job runs with picosat).  A value carrying
    the ``dimacs-inc:`` prefix routes that arm through the persistent
    incremental protocol instead (spawn once, stream the CNF over
    stdin), exercising the same path enumeration uses.
    """
    from repro.kodkod.translate import Translator
    from repro.sat import dimacs
    from repro.sat.solver import Solver
    from repro.sat.types import Status

    def decide(encoding: str, kernel: str = "pure"):
        translation = Translator(
            problem.bounds, cnf_encoding=encoding).translate(problem.formula)
        solver = Solver(kernel=kernel)
        loaded = solver.add_cnf(translation.cnf)
        status = solver.solve() if loaded else Status.UNSAT
        return translation, status is Status.SAT, solver.stats

    pg, pg_sat, pg_stats = decide("pg")
    _, tseitin_sat, _ = decide("tseitin")
    # The vector propagation kernel must preserve the verdict (it is
    # search-trajectory identical to the pure loop; without numpy it
    # falls back to "pure" and the arm degenerates to a re-run).
    _, vector_sat, _ = decide("pg", kernel="vector")
    # The DIMACS export path (used by repro scripts and the external
    # cross-checking CLI) must also preserve the verdict — this is the
    # round trip that hits the trivially-true/false translation edges.
    back = dimacs.loads(pg.to_dimacs())
    solver = Solver()
    loaded = solver.add_cnf(back)
    roundtrip_sat = (solver.solve() if loaded else Status.UNSAT) is Status.SAT
    external_command = os.environ.get("REPRO_EXTERNAL_SOLVER")
    external_sat = None
    if external_command:
        from repro.sat.external import ExternalSolver, IncrementalExternalSolver

        if external_command.startswith("dimacs-inc:"):
            inc_command = external_command[len("dimacs-inc:"):].strip()
            with IncrementalExternalSolver(inc_command, timeout=60) as inc:
                inc.load_cnf(pg.cnf)
                run = inc.solve()
        else:
            run = ExternalSolver(external_command, timeout=60).solve_cnf(pg.cnf)
        external_sat = run.status is Status.SAT
    agree = (pg_sat == tseitin_sat == roundtrip_sat == vector_sat
             and (external_sat is None or external_sat == pg_sat))
    detail_external = (
        {} if external_sat is None else {"sat_external": external_sat})
    return OracleOutcome(
        oracle="encodings",
        agree=agree,
        detail={
            "sat_pg": pg_sat,
            "sat_tseitin": tseitin_sat,
            "sat_dimacs_roundtrip": roundtrip_sat,
            "sat_vector_kernel": vector_sat,
            **detail_external,
            "pg_clauses": pg.stats.num_clauses,
            "clauses_saved_by_polarity": pg.stats.num_clauses_saved_by_polarity,
            "cnf_vars": pg.stats.num_cnf_vars,
            "gates": pg.factory.opcode_histogram(),
            "conflicts": pg_stats["conflicts"],
            "decisions": pg_stats["decisions"],
            "restarts": pg_stats["restarts"],
            "propagations": pg_stats["propagations"],
        },
    )


def _campaign_formula_oracle(name: str):
    def run(problem: FormulaProblem, seed: int) -> OracleOutcome:
        spec = ScenarioSpec.make("relational", seed)
        scenario = RelationalProblem(problem.formula, problem.bounds)
        return ORACLES[name].run(spec, scenario)

    return run


def _campaign_protocol_oracle(name: str):
    def run(problem: ProtocolProblem, seed: int) -> OracleOutcome:
        spec = ScenarioSpec.make("mca", seed)
        scenario = AuctionScenario(
            network=problem.network,
            items=list(problem.items),
            policies=dict(problem.policies),
        )
        return ORACLES[name].run(spec, scenario)

    return run


def _always(problem: Problem) -> bool:
    return True


def _session_gate(problem: FormulaProblem) -> bool:
    return problem.bounds.free_tuple_count() <= _SESSION_FREE_TUPLE_CAP


def _explorer_gate(problem: ProtocolProblem) -> bool:
    return (
        len(problem.network.agents()) <= _EXPLORER_AGENT_CAP
        and len(problem.items) <= _EXPLORER_ITEM_CAP
        and all(p.target <= 2 for p in problem.policies.values())
    )


def _delta_oracle_run(problem: Problem, seed: int) -> OracleOutcome:
    """Dispatch the campaign delta oracle by problem kind."""
    if isinstance(problem, ProtocolProblem):
        return _campaign_protocol_oracle("delta")(problem, seed)
    return _campaign_formula_oracle("delta")(problem, seed)


def _delta_gate(problem: Problem) -> bool:
    # Protocol mutants re-run the (factorial) explorer twice, so they
    # share the explorer's size gate; formula problems are always cheap.
    if isinstance(problem, ProtocolProblem):
        return _explorer_gate(problem)
    return True


FUZZ_ORACLES: dict[str, FuzzOracle] = {
    "encodings": FuzzOracle(
        "encodings", FormulaProblem, _encodings_oracle, _always,
        "PG vs Tseitin vs DIMACS round-trip: same verdict"),
    "symmetry": FuzzOracle(
        "symmetry", FormulaProblem, _campaign_formula_oracle("symmetry"),
        _always, "solve with lex-leader SBP vs solve(symmetry=0)"),
    "session": FuzzOracle(
        "session", FormulaProblem, _campaign_formula_oracle("enumeration"),
        _session_gate, "incremental enumeration vs fresh solver per model"),
    "explorer": FuzzOracle(
        "explorer", ProtocolProblem, _campaign_protocol_oracle("explorer"),
        _explorer_gate, "memoized schedule exploration vs plain DFS"),
    "engines": FuzzOracle(
        "engines", ProtocolProblem, _campaign_protocol_oracle("engines"),
        _always, "synchronous vs asynchronous convergence + consensus"),
    "delta": FuzzOracle(
        "delta", (FormulaProblem, ProtocolProblem), _delta_oracle_run,
        _delta_gate, "solve_delta on a mutated problem vs fresh solve"),
}


def oracles_for_problem(problem: Problem) -> list[str]:
    """Names of every oracle applicable to a problem (modules are lifted)."""
    if isinstance(problem, ModuleProblem):
        problem = lift_module(problem)
    return sorted(
        name for name, oracle in FUZZ_ORACLES.items()
        if oracle.applicable(problem)
    )


def run_oracle(name: str, problem: Problem, seed: int = 0,
               fault: str | None = None) -> OracleOutcome:
    """Run one named oracle on one problem (the repro scripts' entry point).

    Module problems are lowered first.  With ``fault`` armed (test-only),
    the outcome of a matching problem is forced to a disagreement.
    """
    try:
        oracle = FUZZ_ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown fuzz oracle {name!r}; known: {sorted(FUZZ_ORACLES)}"
        ) from None
    if isinstance(problem, ModuleProblem):
        problem = lift_module(problem)
    if not isinstance(problem, oracle.problem_type):
        accepted = (oracle.problem_type if isinstance(oracle.problem_type, tuple)
                    else (oracle.problem_type,))
        raise ValueError(
            f"oracle {name!r} checks {'/'.join(t.__name__ for t in accepted)}, "
            f"got {type(problem).__name__}"
        )
    outcome = oracle.run(problem, seed)
    if fault is not None and fault_matches(fault, problem):
        outcome = OracleOutcome(
            oracle=outcome.oracle,
            agree=False,
            detail={**outcome.detail, "injected_fault": fault},
        )
    return outcome


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------


@dataclass
class FuzzCheck:
    """One (input, oracle) verdict."""

    label: str
    kind: str
    oracle: str
    agree: bool
    detail: dict = field(default_factory=dict)
    coverage: tuple[str, ...] = ()
    seconds: float = 0.0
    cached: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the check completed and the oracle agreed."""
        return self.agree and self.error is None

    def to_json(self) -> dict:
        """JSON-able form (cache entry and artifact row)."""
        return {
            "label": self.label,
            "kind": self.kind,
            "oracle": self.oracle,
            "agree": self.agree,
            "detail": self.detail,
            "coverage": list(self.coverage),
            "seconds": self.seconds,
            "cached": self.cached,
            "error": self.error,
        }

    @staticmethod
    def from_json(data: Mapping) -> "FuzzCheck":
        """Inverse of :meth:`to_json`."""
        return FuzzCheck(
            label=data["label"],
            kind=data["kind"],
            oracle=data["oracle"],
            agree=data["agree"],
            detail=dict(data.get("detail", {})),
            coverage=tuple(data.get("coverage", ())),
            seconds=data.get("seconds", 0.0),
            cached=data.get("cached", False),
            error=data.get("error"),
        )


@dataclass
class Disagreement:
    """A caught failure, with its shrunk reproducer."""

    label: str
    kind: str
    oracle: str
    fault: str | None
    problem: dict
    """Codec payload of the original failing problem."""
    shrunk: dict
    """Codec payload of the minimized problem."""
    size_before: int
    size_after: int
    steps: list
    shrink_checks: int
    error: str | None = None
    """Set when the failure was a crash rather than a disagreement."""
    repro_path: str | None = None
    """Where the repro script was written (``artifacts_dir`` runs only)."""

    def to_json(self) -> dict:
        """JSON-able form (artifact row)."""
        return {
            "label": self.label,
            "kind": self.kind,
            "oracle": self.oracle,
            "fault": self.fault,
            "problem": self.problem,
            "shrunk": self.shrunk,
            "size_before": self.size_before,
            "size_after": self.size_after,
            "steps": list(self.steps),
            "shrink_checks": self.shrink_checks,
            "error": self.error,
            "repro_path": self.repro_path,
        }


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    checks: list[FuzzCheck]
    disagreements: list[Disagreement]
    seed: int
    budget: int
    generations: int
    coverage_points: int
    corpus_size: int
    wall_seconds: float
    cache_hits: int
    executed: int
    shards: int

    @property
    def total(self) -> int:
        """Number of oracle checks covered."""
        return len(self.checks)

    @property
    def errors(self) -> list[FuzzCheck]:
        """Checks that crashed or timed out instead of completing."""
        return [c for c in self.checks if c.error is not None]

    @property
    def clean(self) -> bool:
        """True when every check completed and every oracle agreed."""
        return not self.disagreements and not self.errors


# ----------------------------------------------------------------------
# Worker (module-level: picklable for the process pool)
# ----------------------------------------------------------------------


def _task_problem(task: Mapping) -> Problem:
    payload = task["payload"]
    if "spec" in payload:
        return generate(FuzzSpec.from_dict(payload["spec"]))
    return codec.problem_from_json(payload["problem"])


def execute_fuzz_check(task: dict) -> dict:
    """Run one oracle on one fuzz input; always returns a result dict.

    Exceptions are captured into the ``error`` field rather than raised:
    one crashing input must not abort the sweep — it becomes a shrink
    candidate instead.
    """
    started = time.perf_counter()
    try:
        problem = _task_problem(task)
        outcome = run_oracle(task["oracle"], problem, seed=task["seed"],
                             fault=task.get("fault"))
        coverage = coverage_signature(task["oracle"], outcome.detail)
    except Exception:
        return {
            "label": task["label"],
            "kind": task["kind"],
            "oracle": task["oracle"],
            "agree": False,
            "detail": {},
            "coverage": [],
            "seconds": time.perf_counter() - started,
            "cached": False,
            "error": traceback.format_exc(limit=8),
        }
    return {
        "label": task["label"],
        "kind": task["kind"],
        "oracle": task["oracle"],
        "agree": outcome.agree,
        "detail": outcome.detail,
        "coverage": list(coverage),
        "seconds": time.perf_counter() - started,
        "cached": False,
        "error": None,
    }


def fuzz_cache_key(task: Mapping) -> str:
    """Content hash identifying one (input, oracle) check."""
    payload = json.dumps(
        {
            "schema": FUZZ_SCHEMA,
            "input": task["payload"],
            "oracle": task["oracle"],
            "seed": task["seed"],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# The generational loop
# ----------------------------------------------------------------------


def _exception_head(trace: str) -> str:
    """The final ``Type: message`` line of a formatted traceback."""
    lines = [line for line in trace.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else ""


def _shrink_failure(row: FuzzCheck, task: dict,
                    inject: str | None,
                    max_checks: int) -> tuple[ShrinkResult, Problem]:
    """Build the failure predicate for a row and run the shrinker."""
    problem = _task_problem(task)
    if isinstance(problem, ModuleProblem):
        problem = lift_module(problem)
    oracle = task["oracle"]
    seed = task["seed"]
    if row.error is not None:
        expected = _exception_head(row.error)

        def still_fails(candidate: Problem) -> bool:
            try:
                run_oracle(oracle, candidate, seed=seed, fault=inject)
            except Exception:
                head = _exception_head(traceback.format_exc(limit=8))
                return head == expected
            return False
    else:
        def still_fails(candidate: Problem) -> bool:
            try:
                return not run_oracle(oracle, candidate, seed=seed,
                                      fault=inject).agree
            except Exception:
                return False
    return shrink(problem, still_fails, max_checks=max_checks), problem


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label)


def run_fuzz(
    seed: int = 0,
    budget: int = 200,
    *,
    kinds: Sequence[str] = KINDS,
    max_size: int = 4,
    shards: int = 1,
    task_timeout: float = 120.0,
    cache_dir: str | Path | None = DEFAULT_CACHE_DIR,
    artifacts_dir: str | Path | None = None,
    inject: str | None = None,
    mutation_rate: float = 0.5,
    max_shrink_checks: int = 150,
    progress: Callable[[FuzzCheck], None] | None = None,
) -> FuzzReport:
    """Run a coverage-guided differential fuzz sweep of ``budget`` checks.

    Deterministic in ``seed`` given the same budget/kinds/size — and
    independent of ``shards``: the same inputs are generated, the same
    corpus evolves, and any failure shrinks to the same reproducer, so a
    CI-found disagreement replays locally at any worker count.
    ``shards`` fans checks out over the
    campaign process pool; ``cache_dir`` enables the content-addressed
    result cache (ignored while a fault is injected, so test runs never
    poison real sweeps).  Disagreeing or crashing inputs are shrunk; with
    ``artifacts_dir`` set, each failure also gets a standalone repro
    script and a corpus-format JSON entry on disk.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    unknown = sorted(set(kinds) - set(KINDS))
    if unknown:
        raise ValueError(f"unknown kind(s) {unknown}; known kinds: {KINDS}")
    if not kinds:
        raise ValueError("at least one problem kind is required")
    if inject is not None and inject not in FAULTS:
        raise ValueError(
            f"unknown fault {inject!r}; registered faults: {sorted(FAULTS)}"
        )
    started = time.perf_counter()
    rng = random.Random(f"fuzz-run:{seed}")
    cache = (ResultCache(cache_dir)
             if cache_dir is not None and inject is None else None)
    coverage: set[str] = set()
    corpus: list[dict] = []
    corpus_labels: set[str] = set()
    rows: list[FuzzCheck] = []
    failures: list[tuple[FuzzCheck, dict]] = []
    input_counter = 0
    generation = 0
    cache_hits = 0
    executed = 0

    while len(rows) < budget:
        generation += 1
        remaining = budget - len(rows)
        # The generation size is a constant, NOT coupled to the shard
        # count: batch size changes corpus-evolution timing and mutation
        # RNG draws, and the input stream must be identical at any
        # --shards so failures reproduce and caches replay everywhere.
        gen_target = min(remaining, _GENERATION_SIZE)
        tasks: list[dict] = []
        attempts = 0
        while len(tasks) < gen_target and attempts < gen_target * 4:
            attempts += 1
            problem: Problem | None = None
            if corpus and rng.random() < mutation_rate:
                parent = corpus[rng.randrange(len(corpus))]
                try:
                    parent_problem = _task_problem({"payload": parent["payload"]})
                    if isinstance(parent_problem, ModuleProblem):
                        parent_problem = lift_module(parent_problem)
                    mutated = mutate_problem(parent_problem, rng)
                    if mutated is not None:
                        payload = {"problem": codec.problem_to_json(mutated[0])}
                        problem = mutated[0]
                        label = f"{parent['label']}+{mutated[1]}"
                except Exception:
                    problem = None
            if problem is None:
                spec = FuzzSpec.make(
                    kinds[input_counter % len(kinds)],
                    seed * 1_000_003 + input_counter,
                    size=rng.randint(1, max_size),
                )
                input_counter += 1
                try:
                    problem = generate(spec)
                except Exception:
                    continue
                label = spec.label()
                payload = {"spec": spec.as_dict()}
            kind = {
                FormulaProblem: "formula",
                ModuleProblem: "module",
                ProtocolProblem: "protocol",
            }[type(problem)]
            for oracle_name in oracles_for_problem(problem):
                tasks.append({
                    "label": label,
                    "kind": kind,
                    "payload": payload,
                    "oracle": oracle_name,
                    "seed": seed,
                    "fault": inject,
                })
        tasks = tasks[:remaining]
        if not tasks:
            break

        slots: list[FuzzCheck | None] = [None] * len(tasks)
        misses: list[tuple[int, tuple]] = []
        for index, task in enumerate(tasks):
            hit = cache.get(fuzz_cache_key(task)) if cache is not None else None
            # Never serve an error from cache: crashes may be environmental.
            if hit is not None and hit.get("error") is None:
                row = FuzzCheck.from_json(hit)
                row.cached = True
                slots[index] = row
                cache_hits += 1
            else:
                misses.append((index, (task,)))

        def record(index: int, payload_dict: dict) -> None:
            row = FuzzCheck.from_json(payload_dict)
            slots[index] = row
            if cache is not None and row.error is None:
                cache.put(fuzz_cache_key(tasks[index]), payload_dict)

        def failure_payload(index: int, error: str, seconds: float) -> dict:
            task = tasks[index]
            return {
                "label": task["label"],
                "kind": task["kind"],
                "oracle": task["oracle"],
                "agree": False,
                # Pool-level failures (stalls, killed workers) reflect the
                # environment, not the input: the marker keeps them out of
                # the shrink-and-emit pipeline.
                "detail": {"pool_failure": True},
                "coverage": [],
                "seconds": seconds,
                "cached": False,
                "error": error,
            }

        executed += len(misses)
        map_jobs(misses, execute_fuzz_check, record, failure_payload,
                 shards=shards, task_timeout=task_timeout)

        for index, row in enumerate(slots):
            assert row is not None
            rows.append(row)
            if progress:
                progress(row)
            task = tasks[index]
            new_points = set(row.coverage) - coverage
            if new_points:
                coverage.update(new_points)
                if task["label"] not in corpus_labels:
                    corpus_labels.add(task["label"])
                    corpus.append(
                        {"label": task["label"], "payload": task["payload"]})
            if not row.ok:
                failures.append((row, task))

    disagreements = _shrink_and_emit(
        failures, inject, max_shrink_checks, artifacts_dir, seed)
    return FuzzReport(
        checks=rows,
        disagreements=disagreements,
        seed=seed,
        budget=budget,
        generations=generation,
        coverage_points=len(coverage),
        corpus_size=len(corpus),
        wall_seconds=time.perf_counter() - started,
        cache_hits=cache_hits,
        executed=executed,
        shards=max(1, shards),
    )


def _shrink_and_emit(failures: list[tuple[FuzzCheck, dict]],
                     inject: str | None, max_shrink_checks: int,
                     artifacts_dir: str | Path | None,
                     seed: int) -> list[Disagreement]:
    disagreements: list[Disagreement] = []
    seen: set[str] = set()
    for row, task in failures:
        # A pool-level failure (stall, timeout, killed worker) has no
        # reproducible input behaviour to shrink; record it via
        # FuzzReport.errors only.
        if row.detail.get("pool_failure"):
            continue
        try:
            original = _task_problem(task)
            if isinstance(original, ModuleProblem):
                original = lift_module(original)
            original_payload = codec.problem_to_json(original)
        except Exception:
            continue
        dedup = json.dumps(
            {"oracle": task["oracle"], "problem": original_payload},
            sort_keys=True)
        key = hashlib.sha256(dedup.encode()).hexdigest()
        if key in seen:
            continue
        seen.add(key)
        # The key also disambiguates artifact filenames: labels are not
        # unique (two mutants of one parent can share a mutation name).
        artifact_stem = _safe_name(f"{row.label}-{row.oracle}-{key[:8]}")
        try:
            result, _ = _shrink_failure(row, task, inject, max_shrink_checks)
            shrunk_payload = codec.problem_to_json(result.problem)
        except Exception:
            # Shrinking itself failed: report the unshrunk input at its
            # real size (``original`` already round-tripped the codec,
            # so problem_size cannot raise here).
            size = problem_size(original)
            result = ShrinkResult(
                problem=original, size_before=size, size_after=size)
            shrunk_payload = original_payload
        entry = Disagreement(
            label=row.label,
            kind=row.kind,
            oracle=row.oracle,
            fault=inject,
            problem=original_payload,
            shrunk=shrunk_payload,
            size_before=result.size_before,
            size_after=result.size_after,
            steps=[list(step) for step in result.steps],
            shrink_checks=result.checks,
            error=row.error,
        )
        if artifacts_dir is not None:
            entry.repro_path = _write_artifacts(
                entry, artifacts_dir, artifact_stem, seed=seed)
        disagreements.append(entry)
    return disagreements


def _write_artifacts(entry: Disagreement, artifacts_dir: str | Path,
                     stem: str, seed: int) -> str:
    directory = Path(artifacts_dir)
    directory.mkdir(parents=True, exist_ok=True)
    script_path = directory / f"{stem}.repro.py"
    script_path.write_text(
        codec.problem_to_script(
            entry.shrunk, entry.oracle, label=entry.label, seed=seed,
            fault=entry.fault, filename=script_path.name),
        encoding="utf-8",
    )
    corpus_path = directory / f"{stem}.json"
    corpus_path.write_text(
        json.dumps(
            {
                "label": entry.label,
                "note": (f"shrunk from size {entry.size_before} to "
                         f"{entry.size_after}"),
                "oracles": [entry.oracle],
                "payload": {"problem": entry.shrunk},
            },
            sort_keys=True, indent=1,
        ) + "\n",
        encoding="utf-8",
    )
    return str(script_path)


# ----------------------------------------------------------------------
# Corpus replay
# ----------------------------------------------------------------------


def replay_corpus(directory: str | Path, *,
                  inject: str | None = None) -> FuzzReport:
    """Re-check every corpus entry (``*.json``) in a directory, inline.

    Each entry holds a ``payload`` (a generator spec or an explicit
    problem tree) and optionally the ``oracles`` to run; without the
    latter, every applicable oracle runs.  Returns a normal
    :class:`FuzzReport` (no shrinking: corpus entries are already
    minimal).
    """
    directory = Path(directory)
    started = time.perf_counter()
    rows: list[FuzzCheck] = []
    disagreements: list[Disagreement] = []
    coverage: set[str] = set()
    entries = sorted(directory.glob("*.json"))
    if not entries:
        # A typo'd path must fail loudly — an empty replay would let the
        # CI corpus gate go green while enforcing nothing.
        raise ValueError(f"no corpus entries (*.json) found in {directory}")
    for path in entries:
        data = json.loads(path.read_text(encoding="utf-8"))
        label = data.get("label", path.stem)
        payload = data["payload"]
        problem = _task_problem({"payload": payload})
        kind = payload.get("spec", {}).get("kind") or payload["problem"]["kind"]
        oracle_names = data.get("oracles") or oracles_for_problem(problem)
        for oracle_name in oracle_names:
            task = {"label": label, "kind": kind, "payload": payload,
                    "oracle": oracle_name, "seed": data.get("seed", 0),
                    "fault": inject}
            row = FuzzCheck.from_json(execute_fuzz_check(task))
            rows.append(row)
            coverage.update(row.coverage)
            if not row.ok:
                try:
                    original = _task_problem(task)
                    if isinstance(original, ModuleProblem):
                        original = lift_module(original)
                    original_payload = codec.problem_to_json(original)
                    size = problem_size(original)
                except Exception:
                    original_payload, size = {}, 0
                disagreements.append(Disagreement(
                    label=label, kind=kind, oracle=oracle_name, fault=inject,
                    problem=original_payload, shrunk=original_payload,
                    size_before=size, size_after=size, steps=[],
                    shrink_checks=0, error=row.error,
                ))
    return FuzzReport(
        checks=rows,
        disagreements=disagreements,
        seed=0,
        budget=len(rows),
        generations=0,
        coverage_points=len(coverage),
        corpus_size=len(entries),
        wall_seconds=time.perf_counter() - started,
        cache_hits=0,
        executed=len(rows),
        shards=1,
    )
