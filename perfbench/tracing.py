"""In-memory span tracer whose wrappers time the program's layer entry points.

The benchmark installs these wrappers from its own files; nothing under
``src/`` knows about them.  ``install_inprocess`` patches the relational
and protocol layers the in-process workloads cross, ``install_hub`` and
``install_satellite`` patch the service layers inside the processes the
launcher (``launch.py``) starts, and ``install_client`` patches the
benchmark's own client calls.

Every wrapped call is a span: name, start, end, the span that was open
when it started (its parent) and the job it belongs to.  A span's self
time is its duration minus the time its child spans cover.  Calls made
millions of times per job (agent steps, state snapshots, canonical keys)
are *hot*: they are folded into per-name totals (calls, total, self time)
instead of being kept one by one, which bounds memory without changing
the self-time arithmetic of their parents.  Everything stays in memory
and is written once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

clock = time.perf_counter
"""CLOCK_MONOTONIC on Linux, so span times compare across processes."""


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[dict] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "spans": [], "hot": {}, "counts": {},
                     "job": None}
            self._local.state = state
            self._states.append(state)  # list.append is atomic
        return state

    def set_job(self, job) -> None:
        """Attribute the calling thread's next spans to ``job``."""
        self._state()["job"] = job

    def _enter(self) -> list:
        state = self._state()
        stack = state["stack"]
        frame = [clock(), 0.0, next(self._ids),
                 stack[-1][2] if stack else None, state]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, hot: bool, job=None) -> None:
        end = clock()
        state = frame[4]
        stack = state["stack"]
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        self_s = duration - frame[1]
        if hot:
            totals = state["hot"].setdefault(name, [0, 0.0, 0.0])
            totals[0] += 1
            totals[1] += duration
            totals[2] += self_s
        else:
            state["spans"].append(
                (frame[2], frame[3], name, frame[0], end, self_s,
                 state["job"] if job is None else job))

    def _count(self, name: str, counts: dict) -> None:
        bucket = self._state()["counts"]
        for key, value in counts.items():
            full = f"{name}.{key}"
            bucket[full] = bucket.get(full, 0) + value

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, name, False)

    def wrap(self, owner, attr: str, name: str, *, hot: bool = False,
             before=None, after=None, job_of=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``before(args)`` runs first and returns a token; ``after(args,
        result, token)`` returns counts added under ``name``;
        ``job_of(args, result)`` names the job when the call carries it.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = tracer._enter()
            job = None
            try:
                result = original(*args, **kwargs)
                if job_of is not None:
                    job = job_of(args, result)
            finally:
                tracer._exit(frame, name, hot, job)
            if after is not None:
                tracer._count(name, after(args, result, token))
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped callable back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        spans, hot, counts = [], {}, {}
        for state in list(self._states):
            spans.extend(state["spans"])
            for name, (calls, total, self_s) in state["hot"].items():
                merged = hot.setdefault(name, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += self_s
            for key, value in state["counts"].items():
                counts[key] = counts.get(key, 0) + value
        spans.sort(key=lambda span: span[3])
        return {"spans": [list(span) for span in spans], "hot": hot,
                "counts": counts}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


# ----------------------------------------------------------------------
# Views over one or more snapshots
# ----------------------------------------------------------------------


class TraceView:
    """Per-name totals over the spans of one time window.

    ``snapshots`` may come from several processes (client, hub,
    satellite); span times share one monotonic clock.
    """

    def __init__(self, snapshots, start: float = float("-inf"),
                 end: float = float("inf")) -> None:
        self.spans = [span for snap in snapshots for span in snap["spans"]
                      if start <= span[3] and span[4] <= end]
        self.hot: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        for snap in snapshots:
            for name, values in snap["hot"].items():
                merged = self.hot.setdefault(name, [0, 0.0, 0.0])
                for index in range(3):
                    merged[index] += values[index]
            for key, value in snap["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value

    def self_s(self, *names: str) -> float:
        total = sum(span[5] for span in self.spans if span[2] in names)
        return total + sum(self.hot[name][2] for name in names
                           if name in self.hot)

    def calls(self, *names: str) -> int:
        total = sum(1 for span in self.spans if span[2] in names)
        return total + sum(self.hot[name][0] for name in names
                           if name in self.hot)

    def durations(self, name: str) -> list[float]:
        return [span[4] - span[3] for span in self.spans if span[2] == name]

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------

SOLVER_COUNTS = ("conflicts", "decisions", "propagations", "restarts",
                  "db_reductions")


def install_inprocess(tracer: Tracer) -> None:
    """Relational pipeline, explorer and MCA engine (benchmark process)."""
    import repro.api.backends as backends
    import repro.kodkod.engine as engine
    from repro.checking.explorer import StateCanonicalizer
    from repro.kodkod.boolcircuit import BooleanFactory
    from repro.kodkod.translate import Translator
    from repro.mca.agent import Agent
    from repro.mca.engine import SynchronousEngine
    from repro.sat.solver import Solver

    tracer.wrap(Translator, "translate", "kodkod.translate",
                after=lambda args, tr, _: {
                    "gates_raw": tr.stats.num_gates_raw,
                    "gates": tr.stats.num_gates})
    tracer.wrap(BooleanFactory, "to_cnf", "kodkod.boolcircuit",
                after=lambda args, out, _: {
                    "clauses": out[0].num_clauses,
                    "cnf_vars": out[0].num_vars})
    tracer.wrap(Solver, "add_cnf", "sat.solver.load")
    tracer.wrap(Solver, "solve", "sat.solver.search",
                before=lambda args: dict(args[0].stats),
                after=lambda args, _, before: {
                    key: args[0].stats[key] - before[key]
                    for key in SOLVER_COUNTS})
    # Bound by name in the engine module (``from ... import``).
    tracer.wrap(engine, "extract_instance", "kodkod.instance")
    tracer.wrap(backends, "explore", "checking.explorer",
                after=lambda args, res, _: {
                    "paths": res.paths_explored,
                    "memo_hits": res.memo_hits,
                    "states_memoized": res.states_memoized})
    tracer.wrap(StateCanonicalizer, "key", "checking.explorer.canonical_key",
                hot=True)
    tracer.wrap(SynchronousEngine, "snapshot", "mca.engine.state_copy",
                hot=True)
    tracer.wrap(SynchronousEngine, "restore", "mca.engine.state_copy",
                hot=True)
    tracer.wrap(SynchronousEngine, "global_signature", "mca.engine.signature",
                hot=True)
    tracer.wrap(Agent, "bid_phase", "mca.agent", hot=True)
    tracer.wrap(Agent, "outgoing_message", "mca.agent", hot=True)
    tracer.wrap(Agent, "receive", "mca.agent", hot=True,
                after=lambda args, _r, _t: {"messages": 1})


def _install_codec(tracer: Tracer) -> None:
    # Callers import these lazily at call time, so module attributes win.
    import repro.fuzz.codec as codec

    tracer.wrap(codec, "problem_to_json", "fuzz.codec.encode")
    tracer.wrap(codec, "problem_from_json", "fuzz.codec.decode")


def install_hub(tracer: Tracer) -> None:
    """Wire decode, result cache and delta sessions inside the hub."""
    import repro.service.app as app
    from repro.api.delta import DeltaSession
    from repro.campaign.runner import ResultCache

    _install_codec(tracer)
    tracer.wrap(app, "decode_submission", "service.schema.decode",
                job_of=lambda args, sub: sub.job_id)
    tracer.wrap(ResultCache, "put", "campaign.runner.cache_put",
                job_of=lambda args, _: args[1])
    tracer.wrap(DeltaSession, "solve", "api.delta",
                after=lambda args, res, _: {
                    "reused": int((res.delta or {}).get("path") == "reused"),
                    "solves": 1})


def install_satellite(tracer: Tracer) -> None:
    """Claim and result-post round trips inside the satellite."""
    from repro.service.client import ServiceClient

    _install_codec(tracer)
    tracer.wrap(ServiceClient, "claim", "service.satellite.claim",
                after=lambda args, body, _: {
                    "jobs": len(body["claims"]),
                    "nonempty": int(bool(body["claims"]))})
    tracer.wrap(ServiceClient, "post_result", "service.satellite.post",
                job_of=lambda args, _: args[1])


def install_client(tracer: Tracer) -> None:
    """The benchmark's own submit and poll calls."""
    from repro.service.client import ServiceClient

    tracer.wrap(ServiceClient, "submit", "service.client.submit",
                job_of=lambda args, body: body["id"])
    tracer.wrap(ServiceClient, "job", "service.client.poll",
                job_of=lambda args, _: args[1])
