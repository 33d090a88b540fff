"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it reports every
end-to-end metric of ``BENCHMARK.json``: ``setup_s`` is the median of
several fresh start-ups (after one untimed start-up that pays bytecode
compilation and a cold page cache), the rest come from a timed phase in
another fresh interpreter (``drive.py``).  Times are in reference
seconds, each scaled by a speed sample taken next to it
(``calibration.py``); the report keeps the wall times.  With ``--trace
1`` it reports every per-layer metric instead; layers a workload does
not cross read 0.

The last line of standard output is the result object; a fuller report
-- machine block, seed, workload record, the result -- is written under
``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = (3, 4)
"""Timed fresh start-ups before and after the measured phase; ``setup_s``
is their median.  Splitting them spreads the samples over the run, so
one slow spell of a shared machine moves fewer of them."""

RUN_LIMIT_S = 170.0
"""Whole-run budget; a child still running at the deadline is killed."""


def machine_block() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # a plain checkout carries no git metadata
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "platform": platform.platform()}


def drive_command(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "drive.py"), args.workload,
            "--seed", str(args.seed), *extra]


def kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Child:
    """``drive.py`` in a session of its own, killed with everything it
    started (hub, satellite, solver processes) if the deadline passes."""

    def __init__(self, command: list[str], deadline: float) -> None:
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        self._watchdog = threading.Timer(
            max(1.0, deadline - time.monotonic()), kill_group,
            [self.process])
        self._watchdog.start()

    def __enter__(self) -> subprocess.Popen:
        return self.process

    def __exit__(self, *exc_info) -> None:
        self._watchdog.cancel()
        if self.process.poll() is None:
            kill_group(self.process)
        self.process.wait()
        kill_group(self.process)  # anything the child left behind


def startup_seconds(args, deadline: float) -> float:
    """Wall time from spawning a fresh interpreter to its READY line."""
    started = time.perf_counter()
    with Child(drive_command(args, "--setup-only"), deadline) as process:
        line = process.stdout.readline().strip()
        ready = time.perf_counter()
        process.stdout.read()
        code = process.wait()
    if line != "READY" or code != 0:
        raise RuntimeError(f"start-up failed (exit {code}, {line!r})")
    return ready - started


def measured_run(args, deadline: float) -> dict:
    command = drive_command(args, "--seconds", str(args.seconds),
                            "--trace", str(args.trace))
    with Child(command, deadline) as process:
        lines = process.stdout.read().strip().splitlines()
        code = process.wait()
    if code != 0 or not lines:
        raise RuntimeError(f"measured run failed (exit {code})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(HERE))
    import calibration
    from inputs import WORKLOADS

    deadline = time.monotonic() + RUN_LIMIT_S
    samples, scaled = [], []

    def timed_startups(count: int) -> None:
        for _ in range(count):
            before = calibration.speed_sample()
            samples.append(startup_seconds(args, deadline))
            speed = (before + calibration.speed_sample()) / 2
            scaled.append(calibration.to_reference(samples[-1], speed))

    try:
        if not args.trace:
            startup_seconds(args, deadline)  # pays compilation, cold cache
            timed_startups(SETUP_SAMPLES[0])
        result = measured_run(args, deadline)
        measured = result["metrics"]
        if not args.trace:
            timed_startups(SETUP_SAMPLES[1])
            measured["setup_s"] = statistics.median(scaled)
            result["wall"]["setup_s"] = statistics.median(samples)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted
               if m["name"] not in measured and not args.trace]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    wall = result.pop("wall")
    result["metrics"] = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted}

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_block(),
              "record": WORKLOADS[args.workload], "result": result,
              "wall": wall}
    if not args.trace:
        report["setup_samples_s"] = samples
        report["setup_reference_s"] = scaled
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"machine": report["machine"], "seed": args.seed,
                      "workload": args.workload}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
