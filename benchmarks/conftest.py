"""The shared benchmark harness: timing, warmup, and the JSON artifacts.

Every ``bench_*.py`` script measures through the one ``bench`` fixture
defined here (replacing the pytest-benchmark plugin these scripts
previously used ad hoc): call ``bench(fn, *args)`` to get ``fn``'s result
back with the timing recorded, and optionally attach structured metadata
with ``bench.meta(key=value, ...)``.

Timing policy: one untimed warmup call, then repeated timed calls until
either three samples are taken or ~0.6 s of measuring time is spent
(slow subjects get one sample); the *minimum* is recorded, which is the
standard low-noise estimator for deterministic workloads.

At session end the rows are merged into the CI gate artifacts, keyed by
test id (merged, not overwritten, because CI writes
``BENCH_solver.json`` from two separate pytest steps):

* ``BENCH_encoding.json`` — translation-pipeline rows (circuit/CNF sizes,
  polarity savings, translate+solve end-to-end times),
* ``BENCH_solver.json``   — solver-centric rows (consensus checks,
  counterexample searches, search statistics),
* ``BENCH_delta.json``    — delta-verification rows (cold anchor solve,
  warm assumption re-solves, fallback cost),
* ``BENCH_service.json``  — verification-service rows (submit-to-result
  latency through the HTTP + journal + worker-pool stack, cache-hit
  fast path).

The gates in the ``bench_*.py`` modules compare ratios measured within
one run; the benchmark of record is ``BENCHMARK.json`` plus
``perfbench/``.  Protocol-engine rows (figure2, example1, convergence)
are timed and printed but not persisted; ``BENCH_campaign.json`` is
produced by ``python -m repro.campaign``.  Run with
``pytest benchmarks/ -q -s`` to see the report tables.
"""

import json
import time
from pathlib import Path

import pytest

# Which artifact each bench module's rows land in (None: print-only).
_ARTIFACT_BY_MODULE = {
    "bench_encoding": "encoding",
    "bench_ablation": "encoding",
    "bench_check_scaling": "solver",
    "bench_solver_kernels": "solver",
    "bench_delta": "delta",
    "bench_service": "service",
    "bench_policy_matrix": "solver",
    "bench_rebidding": "solver",
    "bench_example1": None,
    "bench_figure2": None,
    "bench_convergence_bound": None,
    "bench_campaign": None,
}

_ARTIFACT_FILES = {
    "encoding": "BENCH_encoding.json",
    "solver": "BENCH_solver.json",
    "delta": "BENCH_delta.json",
    "service": "BENCH_service.json",
}

_WARMUP = 1
_MAX_REPEATS = 3
_TIME_BUDGET_SECONDS = 0.6


class _Benchmark:
    """The callable handed to tests as the ``bench`` fixture."""

    def __init__(self, recorder, nodeid: str, artifact: str | None) -> None:
        self._recorder = recorder
        self._name = nodeid
        self._artifact = artifact
        self._row: dict | None = None

    def __call__(self, fn, *args, **kwargs):
        for _ in range(_WARMUP):
            result = fn(*args, **kwargs)
        times = []
        while len(times) < _MAX_REPEATS:
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            times.append(time.perf_counter() - started)
            if sum(times) >= _TIME_BUDGET_SECONDS:
                break
        self._row = {
            "seconds": round(min(times), 6),
            "runs": len(times),
        }
        if self._artifact is not None:
            self._recorder.add(self._artifact, self._name, self._row)
        return result

    def record(self, seconds: float) -> None:
        """Record one manually-timed sample as the row.

        For single-shot subjects the harness cannot call repeatedly —
        multi-process cluster drains, anything whose setup dwarfs the
        repeat budget.  The caller owns warmup and timing.
        """
        self._row = {"seconds": round(seconds, 6), "runs": 1}
        if self._artifact is not None:
            self._recorder.add(self._artifact, self._name, self._row)

    def meta(self, **fields) -> None:
        """Attach structured metadata to the recorded row."""
        if self._row is None:
            raise RuntimeError("bench.meta() called before bench()")
        self._row.setdefault("meta", {}).update(fields)


class _Recorder:
    def __init__(self) -> None:
        self.rows: dict[str, dict[str, dict]] = {
            artifact: {} for artifact in _ARTIFACT_FILES
        }

    def add(self, artifact: str, name: str, row: dict) -> None:
        self.rows[artifact][name] = row

    def flush(self, root: Path) -> None:
        for artifact, filename in _ARTIFACT_FILES.items():
            fresh = self.rows[artifact]
            if not fresh:
                continue
            target = root / filename
            payload = {"benchmark": artifact, "rows": {}}
            if target.exists():
                try:
                    previous = json.loads(target.read_text(encoding="utf-8"))
                    payload["rows"] = previous.get("rows", {})
                except (OSError, ValueError):
                    pass
            payload["rows"].update(fresh)
            target.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )


@pytest.fixture(scope="session")
def _bench_recorder():
    recorder = _Recorder()
    yield recorder
    recorder.flush(Path(__file__).resolve().parent.parent)


@pytest.fixture
def bench(_bench_recorder, request):
    """The shared timing harness; see the module docstring."""
    module = request.node.nodeid.split("/")[-1].split(".py")[0]
    artifact = _ARTIFACT_BY_MODULE.get(module)
    nodeid = request.node.nodeid.split("/")[-1]
    return _Benchmark(_bench_recorder, nodeid, artifact)


@pytest.fixture(scope="session")
def report():
    """Accumulate and emit report lines at the end of the session."""
    lines: list[str] = []
    yield lines
    if lines:
        print("\n" + "\n".join(lines))
