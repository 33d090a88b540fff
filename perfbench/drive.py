"""One start-up or one measured run of one workload, in a fresh interpreter.

    python3 perfbench/drive.py WORKLOAD --seed N --setup-only
    python3 perfbench/drive.py WORKLOAD --seed N --seconds S --trace 0|1

Prints ``READY`` once set-up is done (``run.py`` times fresh start-ups
by it).  A measured run then prints one JSON line: the verdict counts
and the end-to-end metrics except ``setup_s`` in reference seconds
(``calibration.py``) with the wall-time values alongside (``--trace
0``), or the per-layer metrics (``--trace 1``: an untraced
timed phase, then a traced pass over a fixed set of inputs -- the same
inputs as that phase on the service workloads, the first round on the
in-process ones -- so per-layer counts repeat exactly for one seed and
``trace.overhead_ratio`` compares like with like).  The program is
driven only through ``repro.api``,
``repro.model``, ``repro.campaign.specs``, the ``python -m
repro.service`` hub and satellite CLIs and ``ServiceClient``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

MIN_VERDICTS = 100
"""Every run yields at least this many verdicts, so ten lie beyond p90."""

POLL_INTERVAL = 0.01
"""Client poll period; verdict latency uses the hub's ``finished_at``,
so the period only bounds closed-loop throughput, not the latency."""

# Runs do a fixed amount of work sized from --seconds by the rates below
# (measured on a 2-core machine), so that every run of every seed
# measures the same mix; time-bounded runs would let the machine's speed
# of the moment decide which inputs are measured.  A service-stream run
# is one pass over its distinct policy scope variants (about 20 s).
POLICY_PERIOD_SECONDS = 18.0
"""Duration of one full period of policy-checks rounds."""

PROTOCOL_ROUND_SECONDS = 1.35
"""Duration of one protocol-explore round."""

DRAIN_JOBS_PER_SECOND = 30
"""Backlog jobs per measured second for satellite-drain."""

TRACED_SERVICE_REQUESTS = 96
"""Requests of a traced service-stream run (6 cycles), sent once
untraced and once traced."""

TRACED_DRAIN_JOBS = 200
"""Backlog of a traced satellite-drain run, drained once untraced and
once traced."""

clock = tracing.clock


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def request_errors() -> tuple:
    """What a refused or failed service call raises (URLError is an
    OSError; a body that is not JSON is a ValueError)."""
    from repro.service.client import ServiceError

    return (ServiceError, OSError, TimeoutError, ValueError)


def p50(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Verdict(NamedTuple):
    """One answered (or failed) problem."""

    seconds: float
    """Time to verdict in reference seconds (``calibration``)."""
    wall_s: float
    failed: bool
    correct: bool


def verdict(wall_s: float, speed: float, failed: bool,
            correct: bool) -> Verdict:
    """A verdict timed next to speed sample ``speed``."""
    return Verdict(calibration.to_reference(wall_s, speed), wall_s, failed,
                   correct)


def peak_rss_mb(pids) -> float:
    """Summed VmHWM (peak resident set) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def child_pids(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children",
                      encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


class InProcess:
    """Closed loop, one problem at a time, in this process."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer: tracing.Tracer | None = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def prepare(self, seconds: float, trace: bool) -> None:
        pass  # rounds are generated as they run

    def run_round(self, index: int) -> list[Verdict]:
        """One verdict per problem of one round, each timed right after
        a speed sample."""
        records = []
        for item in self.round(index):
            if self.tracer:
                self.tracer.set_job(self.label(item))
            speed = calibration.speed_sample()
            started = clock()
            try:
                answer = self.solve(item)
            except Exception as exc:  # a crash is a failed operation
                print(f"perfbench: {self.label(item)} failed: {exc!r}",
                      file=sys.stderr)
                records.append(verdict(clock() - started, speed, True, True))
                continue
            records.append(verdict(clock() - started, speed, False,
                                   answer == self.expected(item)))
        return records

    def timed(self, seconds: float) -> dict:
        records, index = [], 0
        rounds = self.rounds_for(seconds)
        while index < rounds or len(records) < MIN_VERDICTS:
            records.extend(self.run_round(index))
            index += 1
        # Busy time of the loop: verdict times only.
        return {"records": records,
                "elapsed": sum(record.seconds for record in records),
                "wall_elapsed": sum(record.wall_s for record in records),
                "rss_mb": peak_rss_mb([os.getpid()])}

    def traced(self) -> tuple[dict, list, list]:
        """Round 0 again, untraced and then traced.  The timed phase
        already ran it once, so both repeats find the process equally
        warm and their ratio is the tracing overhead."""
        untraced = self.run_round(0)
        self.tracer = tracing.Tracer()
        tracing.install_inprocess(self.tracer)
        records = self.run_round(0)
        self.tracer.uninstall()
        snapshots = [self.tracer.snapshot()]
        layers = layer_metrics_inprocess(tracing.TraceView(snapshots))
        layers["trace.overhead_ratio"] = (
            sum(record.seconds for record in records)
            / sum(record.seconds for record in untraced))
        return layers, untraced + records, snapshots

    def teardown(self) -> None:
        pass


class PolicyChecks(InProcess):
    def setup(self) -> None:
        import repro.api  # noqa: F401
        import repro.model  # noqa: F401

        warm = {"kind": "dynamic", "agents": 2, "topology": "pair",
                "items": 1, "max_value": 2, "combo": inputs.COMBOS[0],
                "counterexample": False}
        if self.solve(warm) != self.expected(warm):
            fail("warm-up policy check gave a wrong verdict")

    def round(self, index: int):
        return inputs.policy_round(self.seed, index)

    def rounds_for(self, seconds: float) -> int:
        periods = max(1, round(seconds / POLICY_PERIOD_SECONDS))
        return periods * inputs.POLICY_PERIOD

    def label(self, check: dict) -> str:
        return json.dumps(check, sort_keys=True)

    def expected(self, check: dict) -> bool:
        return check["counterexample"]

    def solve(self, check: dict) -> bool:
        from repro import api

        with self.span("model"):
            problem = (inputs.dynamic_problem(check)
                       if check["kind"] == "dynamic"
                       else inputs.static_problem(check))
        with self.span("api"):
            result = api.solve(problem)
        return result.satisfiable


class ProtocolExplore(InProcess):
    def setup(self) -> None:
        import repro.api  # noqa: F401
        import repro.campaign.specs  # noqa: F401

        if not self.solve(inputs.warm_up_spec()):
            fail("warm-up protocol scenario did not hold")

    def round(self, index: int):
        return inputs.protocol_round(self.seed, index)

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / PROTOCOL_ROUND_SECONDS))

    def label(self, spec) -> str:
        return spec.label()

    def expected(self, spec) -> bool:
        return True

    def solve(self, spec) -> bool:
        from repro import api

        with self.span("api.problems"):
            problem = api.problem_from_spec(spec)
        rounds = inputs.round_limit(problem)
        with self.span("api"):
            result = api.run_protocol(problem, max_rounds=rounds)
        return result.holds


def layer_metrics_inprocess(view: tracing.TraceView) -> dict:
    hits = view.count("checking.explorer.memo_hits")
    memoized = view.count("checking.explorer.states_memoized")
    return {
        "model.busy_s": view.self_s("model"),
        "api.problems.busy_s": view.self_s("api.problems"),
        "api.self_s": view.self_s("api"),
        "kodkod.translate.busy_s": view.self_s("kodkod.translate"),
        "kodkod.translate.gates_raw": view.count("kodkod.translate.gates_raw"),
        "kodkod.translate.gates": view.count("kodkod.translate.gates"),
        "kodkod.boolcircuit.busy_s": view.self_s("kodkod.boolcircuit"),
        "kodkod.boolcircuit.clauses": view.count("kodkod.boolcircuit.clauses"),
        "kodkod.boolcircuit.cnf_vars": view.count(
            "kodkod.boolcircuit.cnf_vars"),
        "sat.solver.load_busy_s": view.self_s("sat.solver.load"),
        "sat.solver.search_busy_s": view.self_s("sat.solver.search"),
        **{f"sat.solver.{key}": view.count(f"sat.solver.search.{key}")
           for key in tracing.SOLVER_COUNTS},
        "kodkod.instance.busy_s": view.self_s("kodkod.instance"),
        "kodkod.instance.calls": view.calls("kodkod.instance"),
        "checking.explorer.busy_s": view.self_s("checking.explorer"),
        "checking.explorer.canonical_key_busy_s": view.self_s(
            "checking.explorer.canonical_key"),
        "checking.explorer.paths": view.count("checking.explorer.paths"),
        "checking.explorer.memo_hits": hits,
        "checking.explorer.states_memoized": memoized,
        "checking.explorer.memo_hit_ratio": (
            hits / (hits + memoized) if hits + memoized else 0.0),
        "mca.engine.state_copy_busy_s": view.self_s("mca.engine.state_copy"),
        "mca.engine.signature_busy_s": view.self_s("mca.engine.signature"),
        "mca.agent.busy_s": view.self_s("mca.agent"),
        "mca.agent.messages": view.count("mca.agent.messages"),
    }


# ----------------------------------------------------------------------
# service processes
# ----------------------------------------------------------------------


class Service:
    """One ``python -m repro.service`` process (hub or satellite).

    Traced processes go through ``launch.py`` instead, which installs the
    layer wrappers before handing over to the same CLI entry point.
    """

    def __init__(self, role: str, args: list[str], banner: str,
                 trace_out: Path | None = None) -> None:
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service", *args]
        else:
            command = [sys.executable, str(HERE / "launch.py"), role,
                       str(trace_out), "--", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.trace_out = trace_out
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline().strip()
        if not line.startswith(banner):
            self.stop()
            fail(f"{role} did not start (first line {line!r})")
        self.banner = line
        self.lines: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))

    def pids(self) -> list[int]:
        return [self.process.pid] + child_pids(self.process.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then wait; kill if stuck."""
        if self.process.poll() is None:
            orphans = child_pids(self.process.pid)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
                for pid in orphans:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
        if getattr(self, "_reader", None) is not None:
            self._reader.join(timeout=10)

    def trace(self) -> dict:
        with open(self.trace_out, encoding="utf-8") as handle:
            return json.load(handle)


def start_hub(state_dir: Path, *, local_dispatch: bool,
              trace_out: Path | None = None) -> Service:
    args = ["--port", "0", "--workers", "1",
            "--queue-dir", str(state_dir / "queue"),
            "--cache-dir", str(state_dir / "cache")]
    if not local_dispatch:
        args.append("--no-local-dispatch")
    return Service("hub", args, "serving on ", trace_out)


def start_satellite(url: str, trace_out: Path | None = None) -> Service:
    return Service("satellite", ["--satellite", url], "satellite ",
                   trace_out)


def read_journal(state_dir: Path) -> list[dict]:
    with open(state_dir / "queue" / "journal.jsonl",
              encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def journal_jobs(events: list[dict], since: float) -> dict[str, dict]:
    """Per job submitted at or after ``since``: submit, lease and done
    times and the number of journal events (one fsync each)."""
    jobs: dict[str, dict] = {}
    for event in events:
        job = jobs.get(event["id"])
        if event["event"] == "submit":
            if event["t"] >= since:
                jobs[event["id"]] = {"submit": event["t"], "events": 1}
            continue
        if job is None:
            continue
        job["events"] += 1
        if event["event"] == "lease":
            job.setdefault("first_lease", event["t"])
            job["lease"] = event["t"]
        elif event["event"] == "done":
            job["done"] = event["t"]
    return jobs


class RelationalAnswers:
    """Brute-force verdicts, memoized by spec (computed after timing)."""

    def __init__(self) -> None:
        self._known: dict[str, str] = {}

    def expected(self, request: dict) -> str:
        if request["expected"] is not None:
            return request["expected"]
        spec = request["spec"]
        key = spec.content_hash()
        if key not in self._known:
            self._known[key] = inputs.relational_expected(spec)
        return self._known[key]


class ServiceWorkload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.state_root = ROOT / ".perfbench_runs" / "state" / (
            f"{os.getpid()}")
        self.services: list[Service] = []
        self.answers = RelationalAnswers()
        self.starts = 0

    def fresh_dir(self) -> Path:
        self.starts += 1
        path = self.state_root / str(self.starts)
        path.mkdir(parents=True)
        return path

    def client(self, url: str):
        from repro.service.client import ServiceClient

        return ServiceClient(url, timeout=60.0)

    def submit_and_wait(self, client, body: dict) -> tuple[dict, dict, float]:
        sent = time.time()
        envelope = client.submit(body)
        final = envelope
        if envelope["state"] not in ("done", "error"):
            final = client.wait(envelope["id"], timeout=120.0,
                                poll_interval=POLL_INTERVAL)
        return envelope, final, sent

    def warm_up(self, url: str, start_worker=None) -> None:
        """One untimed protocol job.  ``start_worker`` runs once the job
        is queued, so a satellite started there claims it at once rather
        than at its next idle poll (every 0.25 s)."""
        client = self.client(url)
        envelope = client.submit(
            inputs.protocol_body(inputs.warm_up_spec()))
        if start_worker is not None:
            start_worker()
        final = client.wait(envelope["id"], timeout=120.0,
                            poll_interval=POLL_INTERVAL)
        if final["state"] != "done" or final["result"]["verdict"] != "holds":
            fail(f"warm-up job did not hold: {final}")

    def teardown(self) -> None:
        for service in reversed(self.services):
            service.stop()
        self.services.clear()
        shutil.rmtree(self.state_root, ignore_errors=True)

    def stop(self, service: Service) -> None:
        service.stop()
        self.services.remove(service)

    def verify(self, request: dict, final: dict) -> tuple[bool, bool]:
        """(failed, correct) for one answered request."""
        if final.get("state") != "done" or not final.get("result"):
            return True, True
        verdict = final["result"].get("verdict")
        return False, verdict == self.answers.expected(request)


class ServiceStream(ServiceWorkload):
    def setup(self) -> None:
        import repro.service.client  # noqa: F401

        self.hub_dir = self.fresh_dir()
        self.hub = start_hub(self.hub_dir, local_dispatch=True)
        self.services.append(self.hub)
        self.url = self.hub.banner.removeprefix("serving on ")
        self.warm_up(self.url)

    def prepare(self, seconds: float, trace: bool) -> None:
        self.stream = inputs.service_stream(self.seed)
        if trace:  # the untraced phase sends what the traced pass sends
            self.stream = self.stream[:TRACED_SERVICE_REQUESTS]

    def closed_loop(self, url: str, stream,
                    tracer: tracing.Tracer | None = None) -> dict:
        """Send each request once the previous one is answered, each
        right after a speed sample (between jobs the hub idles)."""
        client = self.client(url)
        rows, ids = [], []
        elapsed = wall_elapsed = 0.0
        for request in stream:
            speed = calibration.speed_sample()
            began = clock()
            body = dict(request["body"])
            if request.get("ref") is not None:
                body["delta_of"] = ids[request["ref"]]
            if tracer:
                tracer.set_job(len(ids))
            try:
                envelope, final, sent = self.submit_and_wait(client, body)
            except request_errors() as exc:
                print(f"perfbench: request failed: {exc!r}",
                      file=sys.stderr)
                ids.append(None)
                rows.append((request, None, {}, 0.0, speed))
            else:
                seen = time.time()
                ids.append(envelope["id"])
                if envelope.get("created") and final.get("finished_at"):
                    latency = final["finished_at"] - sent
                else:  # idempotent resubmission: answered by the POST
                    latency = seen - sent
                rows.append((request, envelope, final, latency, speed))
            duration = clock() - began
            wall_elapsed += duration
            elapsed += calibration.to_reference(duration, speed)
        return {"rows": rows, "elapsed": elapsed,
                "wall_elapsed": wall_elapsed}

    def score(self, phase: dict) -> list[Verdict]:
        records = []
        for request, envelope, final, latency, speed in phase["rows"]:
            if envelope is None:
                records.append(verdict(0.0, speed, True, True))
                continue
            records.append(verdict(latency, speed,
                                   *self.verify(request, final)))
        return records

    def timed(self, seconds: float) -> dict:
        phase = self.closed_loop(self.url, self.stream)
        # The hub and its solver process; read before score() runs the
        # brute-force reference answers in this process.
        rss = peak_rss_mb(self.hub.pids())
        self.untraced_rate = len(phase["rows"]) / phase["elapsed"]
        return {"records": self.score(phase), "elapsed": phase["elapsed"],
                "wall_elapsed": phase["wall_elapsed"], "rss_mb": rss}

    def traced(self) -> tuple[dict, list, list]:
        """The same requests again on a traced hub (fresh state)."""
        self.stop(self.hub)
        state = self.fresh_dir()
        hub = start_hub(state, local_dispatch=True,
                        trace_out=state / "hub-trace.json")
        self.services.append(hub)
        url = hub.banner.removeprefix("serving on ")
        self.warm_up(url)
        client = self.client(url)
        before = client.metrics()
        tracer = tracing.Tracer()
        tracing.install_client(tracer)
        wall_start, started = time.time(), clock()
        phase = self.closed_loop(url, self.stream, tracer)
        ended = clock()
        tracer.uninstall()
        after = client.metrics()
        self.stop(hub)
        snapshots = [tracer.snapshot(), hub.trace()]
        view = tracing.TraceView(snapshots, started, ended)
        jobs = journal_jobs(read_journal(state), wall_start)
        layers = service_layers(view, jobs, len(phase["rows"]))
        layers.update(worker_layers(before, after, jobs, phase["rows"]))
        delta_solves = view.count("api.delta.solves")
        layers["api.delta.busy_s"] = view.self_s("api.delta")
        layers["api.delta.reused_ratio"] = (
            view.count("api.delta.reused") / delta_solves
            if delta_solves else 0.0)
        layers["trace.overhead_ratio"] = self.untraced_rate / (
            len(phase["rows"]) / phase["elapsed"])
        return layers, self.score(phase), snapshots


class SatelliteDrain(ServiceWorkload):
    def setup(self) -> None:
        import repro.service.client  # noqa: F401

        self.hub_dir = self.fresh_dir()
        self.hub = start_hub(self.hub_dir, local_dispatch=False)
        self.services.append(self.hub)
        self.url = self.hub.banner.removeprefix("serving on ")
        self.warm_up(self.url, self.start_satellite)

    def start_satellite(self) -> None:
        self.satellite = start_satellite(self.url)
        self.services.append(self.satellite)

    def prepare(self, seconds: float, trace: bool) -> None:
        # Traced, the untraced drain is as long as the traced one.
        count = (TRACED_DRAIN_JOBS if trace else
                 max(MIN_VERDICTS, int(DRAIN_JOBS_PER_SECOND * seconds)))
        self.backlog = inputs.drain_backlog(self.seed, count)

    def drain(self, hub: Service, state: Path, backlog: list[dict],
              trace_out: Path | None = None) -> dict:
        """Submit the backlog, then start one satellite and wait for it."""
        url = hub.banner.removeprefix("serving on ")
        client = self.client(url)
        submitted_at, submitting = time.time(), clock()
        ids = []
        for request in backlog:
            try:
                ids.append(client.submit(request["body"])["id"])
            except request_errors() as exc:
                print(f"perfbench: submission failed: {exc!r}",
                      file=sys.stderr)
                ids.append(None)
        started = clock()
        satellite = start_satellite(url, trace_out)
        self.services.append(satellite)
        while True:  # one light poll per 100 ms; never per job
            counts = client.healthz()["jobs"]
            if counts["pending"] + counts["running"] == 0:
                break
            if clock() - started > 150:
                fail("satellite drain did not finish")
            time.sleep(0.1)
        ended = clock()
        rss = peak_rss_mb([*hub.pids(), *satellite.pids()])
        self.stop(satellite)
        jobs = journal_jobs(read_journal(state), submitted_at)
        rows = []
        for request, job_id in zip(backlog, ids):
            final = client.job(job_id) if job_id is not None else {}
            job = jobs.get(job_id, {})
            latency = (job["done"] - job["lease"]
                       if "done" in job and "lease" in job else 0.0)
            rows.append((request, final, latency))
        first = min(job["first_lease"] for job in jobs.values()
                    if "first_lease" in job)
        last = max(job["done"] for job in jobs.values() if "done" in job)
        return {"rows": rows, "elapsed": last - first, "rss": rss,
                "jobs": jobs, "satellite": satellite,
                "window": (submitting, ended)}

    def score(self, drained: dict) -> list[Verdict]:
        """Wall times (see ``calibration``)."""
        return [Verdict(latency, latency, *self.verify(request, final))
                for request, final, latency in drained["rows"]]

    def timed(self, seconds: float) -> dict:
        self.stop(self.satellite)
        drained = self.drain(self.hub, self.hub_dir, self.backlog)
        self.untraced_rate = len(drained["rows"]) / drained["elapsed"]
        return {"records": self.score(drained),
                "elapsed": drained["elapsed"],
                "wall_elapsed": drained["elapsed"],
                "rss_mb": drained["rss"]}

    def traced(self) -> tuple[dict, list, list]:
        """The same backlog again on a traced hub and satellite."""
        self.stop(self.hub)
        state = self.fresh_dir()
        hub = start_hub(state, local_dispatch=False,
                        trace_out=state / "hub-trace.json")
        self.services.append(hub)
        tracer = tracing.Tracer()
        tracing.install_client(tracer)
        drained = self.drain(hub, state, self.backlog,
                             trace_out=state / "satellite-trace.json")
        tracer.uninstall()
        satellite = drained["satellite"]
        self.stop(hub)
        snapshots = [tracer.snapshot(), hub.trace(), satellite.trace()]
        view = tracing.TraceView(snapshots, *drained["window"])
        jobs = drained["jobs"]
        layers = service_layers(view, jobs, len(drained["rows"]))
        stats = {}
        for line in satellite.lines:
            if " stats: " in line:
                stats = json.loads(line.split(" stats: ", 1)[1])
        done = max(1, sum(1 for job in jobs.values() if "done" in job))
        layers.update({
            "service.satellite.claim_rtt_p50_s": p50(
                view.durations("service.satellite.claim")),
            "service.satellite.post_rtt_p50_s": p50(
                view.durations("service.satellite.post")),
            "service.satellite.claims_per_job": view.count(
                "service.satellite.claim.nonempty") / done,
            "service.satellite.heartbeats": stats.get("heartbeats", 0),
            "service.satellite.lost_leases": stats.get("lost_leases", 0),
            "trace.overhead_ratio": self.untraced_rate / (
                len(drained["rows"]) / drained["elapsed"]),
        })
        return layers, self.score(drained), snapshots


def service_layers(view: tracing.TraceView, jobs: dict,
                   requests: int) -> dict:
    waits = [job["first_lease"] - job["submit"] for job in jobs.values()
             if "first_lease" in job]
    runs = [job["done"] - job["lease"] for job in jobs.values()
            if "done" in job and "lease" in job]
    return {
        "fuzz.codec.encode_busy_s": view.self_s("fuzz.codec.encode"),
        "fuzz.codec.decode_busy_s": view.self_s("fuzz.codec.decode"),
        "service.client.submit_p50_s": p50(
            view.durations("service.client.submit")),
        "service.client.polls_per_job": (
            view.calls("service.client.poll") / requests if requests
            else 0.0),
        "service.schema.decode_busy_s": view.self_s("service.schema.decode"),
        "service.queue.journal_events_per_job": (
            sum(job["events"] for job in jobs.values()) / len(jobs)
            if jobs else 0.0),
        "service.queue.wait_p50_s": p50(waits),
        "service.queue.run_p50_s": p50(runs),
        "campaign.runner.cache_put_busy_s": view.self_s(
            "campaign.runner.cache_put"),
    }


def worker_layers(before: dict, after: dict, jobs: dict, rows) -> dict:
    busy = [snap["worker_utilization"] * snap["uptime_seconds"]
            for snap in (before, after)]
    window = after["uptime_seconds"] - before["uptime_seconds"]
    overheads = []
    for request, envelope, final, *_ in rows:
        if (envelope is None or not envelope.get("created")
                or request["kind"] not in ("protocol", "relational",
                                           "policy")):
            continue
        job = jobs.get(envelope["id"], {})
        if "done" in job and final.get("result"):
            overheads.append(job["done"] - job["lease"]
                             - final["result"]["seconds"])
    return {
        "service.workers.solves": after["solves"] - before["solves"],
        "service.workers.cache_hits": (after["cache_hits"]
                                       - before["cache_hits"]),
        "service.workers.utilization": ((busy[1] - busy[0]) / window
                                        if window > 0 else 0.0),
        "service.workers.pool_overhead_p50_s": p50(overheads),
    }


WORKLOADS = {
    "policy-checks": PolicyChecks,
    "protocol-explore": ProtocolExplore,
    "service-stream": ServiceStream,
    "satellite-drain": SatelliteDrain,
}

def summarize(latencies: list[float], elapsed: float) -> dict:
    return {
        "verdict_p50_s": p50(latencies),
        "verdict_p90_s": p90(latencies),
        "problems_per_s": len(latencies) / elapsed if elapsed > 0 else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/drive.py")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Services stop on SIGINT.  A shell starts background jobs with
    # SIGINT ignored, and an ignored signal stays ignored across exec,
    # so a hub started from such a job would never stop; a handled
    # signal reverts to its default in the child instead.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    workload = WORKLOADS[args.workload](args.seed)
    try:
        if not args.setup_only:
            workload.prepare(args.seconds, bool(args.trace))
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        timed = workload.timed(args.seconds)
        records = list(timed["records"])
        answered = [record for record in records if not record.failed]
        metrics = {**summarize([record.seconds for record in answered],
                               timed["elapsed"]),
                   "peak_rss_mb": timed["rss_mb"]}
        wall = summarize([record.wall_s for record in answered],
                         timed["wall_elapsed"])
        if args.trace:
            metrics, traced_records, snapshots = workload.traced()
            records.extend(traced_records)
            # Spans of every traced process, kept in memory until now.
            spans_out = ROOT / ".perfbench_runs" / (
                f"{args.workload}-seed{args.seed}-spans.json")
            spans_out.parent.mkdir(exist_ok=True)
            spans_out.write_text(json.dumps(snapshots))
    finally:
        workload.teardown()
    print(json.dumps({
        "correct": all(record.correct for record in records),
        "attempted": len(records),
        "failed": sum(1 for record in records if record.failed),
        "metrics": metrics,
        "wall": wall,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
