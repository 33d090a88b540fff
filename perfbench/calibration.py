"""Machine-speed normalisation of measured times.

The benchmark's host is a shared virtual machine whose speed moves
between levels every few seconds: consecutive fresh start-ups agree
within 2% while start-ups 20 s apart differ by up to 75%, and the
program's solves move with them, whether or not the hypervisor reports
stolen time.  Wall times therefore spread from run to run by whatever
levels each run happened to meet.

So each timed measurement is paired with :func:`speed_sample`, a fixed
interpreter-bound kernel timed right next to it while the program under
test is idle: before each in-process problem and each service request,
around each start-up.  Each time is reported in reference seconds --
the seconds it would have taken at the speed the kernel has on the
machine the bounds were set on.  A change to the program moves its
times but not the kernel's, so it shows in full.  Wall times stay in
the run report.

A satellite drain's times stay wall times: the drain keeps the program
busy from start to end, and samples taken meanwhile in the idle client
over-corrected it by up to 1.7x in fast spells, because a drain is
partly bound by fsyncs and round trips that do not speed up with the
interpreter.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0015
"""Median :func:`speed_sample` on the 2-core machine the benchmark's
bounds were set on."""


def _kernel() -> int:
    table: dict[int, int] = {}
    for value in range(7000):
        key = value % 997
        table[key] = table.get(key, 0) + (value ^ key)
    return len(table)


def speed_sample() -> float:
    """Seconds of one kernel pass, the median of three (about 5 ms in
    all), so one preemption does not decide a sample."""
    passes = []
    for _ in range(3):
        started = time.perf_counter()
        _kernel()
        passes.append(time.perf_counter() - started)
    return statistics.median(passes)


def to_reference(seconds: float, sample: float) -> float:
    """``seconds`` measured next to ``sample``, in reference seconds."""
    return seconds * REFERENCE_S / sample
