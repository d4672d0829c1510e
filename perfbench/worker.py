"""One workload in one fresh interpreter; prints a JSON report line.

Started by run.py with BLAS threads pinned to 1 and the repository's ``src``
on PYTHONPATH.  It pins itself to one CPU and samples the host's speed
(speed.py) while it sets up and while the timed rounds run.  With
``--setup-only`` it stops when the workload is ready, which is how run.py
samples set-up time in fresh interpreters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

DIGEST_ROUNDS = 1  # the digest covers the rounds every run completes


class SeedClock:
    """CPU time of each solve_critical call, on the thread that ran it.

    This is the only patch in an untraced run; it adds two clock reads to a
    call that takes about a second.  The clock leaves out the speed probe's
    reference slices.  CPU time, not wall time, because under
    two solver threads a seed's wall time depends on what runs beside it.
    """

    def __init__(self, work_time):
        from tracing import resolve

        self._owner, _ = resolve("horizon.geodesics", "solve_critical")
        self._original = original = self._owner.solve_critical
        self.times = []
        times = self.times

        def timed(*args, **kwargs):
            w0, t0 = perf_counter(), work_time()
            try:
                return original(*args, **kwargs)
            finally:  # list.append is atomic
                times.append((work_time() - t0, w0, perf_counter()))

        self._owner.solve_critical = timed

    def take(self):
        out = list(self.times)
        self.times.clear()
        return out

    def close(self):
        self._owner.solve_critical = self._original


def run_rounds(workload, clock, seconds, count=None, probe=None):
    """Rounds back to back, or exactly `count` rounds.

    After the workload's minimum number of rounds, a round starts only while
    a median round still fits in `seconds`, so the run ends near its budget
    whatever the round size.  With a speed probe, each round's wall time
    leaves out the probe's slices, the round records its speed factor, and
    each timed sample is scaled to reference speed by the factor of its own
    interval (speed.py).
    """
    rounds = []
    t0 = perf_counter()
    while True:
        if count is not None:
            if len(rounds) >= count:
                break
        elif len(rounds) >= workload.min_rounds:
            typical = statistics.median(rnd.wall for rnd in rounds)
            if perf_counter() - t0 + typical > seconds:
                break
        spent, start = (probe.spent if probe else 0.0), perf_counter()
        rnd = workload.run_round(len(rounds))
        rnd.task_cpu.extend(clock.take())
        if probe:
            rnd.wall -= probe.spent - spent
            rnd.speed = probe.factor(start, perf_counter())
            rnd.task_cpu = [cpu * probe.factor(w0, w1) for cpu, w0, w1 in rnd.task_cpu]
        else:
            rnd.task_cpu = [cpu for cpu, _, _ in rnd.task_cpu]
        rounds.append(rnd)
    return rounds


def pin_to_one_cpu():
    """Run this process on one CPU; return (CPUs it was allowed, the one kept).

    With two CPUs, the two solver threads of ladder hand the interpreter lock
    across cores, which cost a quarter more CPU time than on one core, by an
    amount that changed from run to run and that the speed probe, sampling
    one thread, cannot see.  On one CPU the probe samples the core the work
    runs on.  No workload runs Python in parallel: the lock serializes it.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    return len(allowed), allowed[-1]


def environment(allowed, cpu):
    import numpy
    import scipy
    import sympy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": allowed,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def round_summary(rounds):
    return [{"wall": r.wall, "speed": r.speed, "tasks": r.tasks, "ok": r.ok, "ops": r.ops,
             "ops_failed": r.ops_failed, "task_cpu": r.task_cpu, "notes": r.notes}
            for r in rounds]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    allowed, cpu = pin_to_one_cpu()

    from speed import SpeedProbe  # imports numpy, which the reference slice needs

    probe = SpeedProbe()
    probe.start()  # sample the host while horizon is imported and set up
    start = perf_counter()
    import horizon
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](horizon, args.seed, ROOT)
    probe.stop()
    ready = time.monotonic() - probe.spent
    print(json.dumps({"ready": ready, "speed": probe.factor(start, perf_counter())}), flush=True)
    if args.setup_only:
        return 0

    workload.warm_up()
    workload.work_time = probe.work_time
    clock = SeedClock(probe.work_time)
    probe.start()
    try:
        rounds = run_rounds(workload, clock, args.seconds, probe=probe)
    finally:
        probe.stop()
    out = {"rounds": round_summary(rounds), "digest": digest(rounds, DIGEST_ROUNDS),
           "speed_samples": len(probe.samples)}

    if args.trace:
        from tracing import Tracer

        tracer = Tracer(horizon)
        try:
            traced = run_rounds(workload, clock, None, count=len(rounds))
        finally:
            tracer.close()
        out["traced_rounds"] = round_summary(traced)
        out["trace"] = summary = tracer.summary()
    clock.close()

    errors, facts = workload.check(rounds)
    if args.trace:
        if digest(traced, DIGEST_ROUNDS) != out["digest"]:
            errors.append("the traced rounds computed different outputs")
        for name in workload.traced_layers:
            if summary["spans"].get(name, [0])[0] == 0:
                errors.append(f"tracing saw no call to {name}; its patch point may have moved")
    out["errors"] = errors
    out["facts"] = facts
    out["environment"] = environment(allowed, cpu)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, default=str), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
