"""horizon benchmark: one workload, end-to-end or traced, one JSON result line.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workloads (ladder, floor, steer_lift) are
described in workloads.py and README.md.  With ``--trace 0`` the result holds
every end-to-end metric of BENCHMARK.json, with ``--trace 1`` every per-layer
metric.  The last line of standard output is the result; the lines before it
say how each metric was formed.  Exit status: 0 on a correct run, 1 when an
output failed its correctness gate, 2 on bad arguments or a checkout without
the program, 3 when a workload process crashed or overran.

The parent imports neither numpy nor horizon.  It starts every workload
process itself with BLAS threads pinned to 1 and with the checkout's ``src``
first on PYTHONPATH, so that set-up is sampled in fresh interpreters.  Each
workload process pins itself to one CPU and reports its times at reference
speed: scaled by the host speed sampled while they were measured
(speed.py), so that the shared host's drift does not read as a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "floor", "steer_lift")
SETUP_PROBES = 1  # extra fresh interpreters timed to ready; the workload process is one more
RUN_LIMIT_S = 170.0  # the whole run, every child included, stays under 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailure(Exception):
    """A workload process failed; the run prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles src the same way
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    return env


def run_child(args, deadline):
    """Run worker.py; return (spawn to ready at reference speed, its last JSON line)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailure(f"worker {' '.join(args)} overran the run limit") from None
    finally:
        if proc.poll() is None:  # timed out, or this process was told to stop
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunFailure(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-4000:]}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    try:
        first = json.loads(lines[0])
        return (first["ready"] - t0) * first["speed"], json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as exc:
        raise RunFailure(f"worker {' '.join(args)} printed no report: {exc!r}") from None


def tail_percentile(values):
    """Highest percentile with at least 10 samples beyond it: (value, label, n).

    Below 21 samples that percentile would not exceed the median, so the
    maximum is given instead.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], f"maximum of {n} (fewer than 21 samples)", n
    k = n - 11
    return xs[k], f"p{100.0 * (k + 1) / n:.1f} of {n} (10 samples beyond it)", n


def end_to_end(report, setups):
    """The end-to-end metrics; times are at reference speed (speed.py)."""
    rounds = report["rounds"]
    walls = [r["wall"] * r["speed"] for r in rounds]
    tasks = sum(r["tasks"] for r in rounds)
    ok = sum(r["ok"] for r in rounds)
    cpu_ms = [1000.0 * x for r in rounds for x in r["task_cpu"]]
    tail, label, n = tail_percentile(cpu_ms)
    speed = (f"; host ran at {1 / statistics.median(r['speed'] for r in rounds):.3f}x "
             f"reference time, {report['speed_samples']} speed samples")
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh interpreters, spawn to ready, "
                    "at reference speed"),
        "wall_s": (statistics.median(walls), "s",
                   f"median wall time of {len(walls)} rounds at reference speed; unscaled "
                   f"{statistics.median(r['wall'] for r in rounds):.6g} s{speed}"),
        "ok_per_s": (statistics.median(r["ok"] / w for r, w in zip(rounds, walls)), "1/s",
                     f"median over {len(rounds)} rounds of successful tasks per second "
                     "at reference speed"),
        "ok_frac": (ok / tasks, "ratio", f"{ok} successful of {tasks} tasks"),
        "task_p50_ms": (statistics.median(cpu_ms), "ms",
                        f"median of {n} timed samples (CPU, at reference speed)"),
        "task_tail_ms": (tail, "ms", f"{label} timed samples (CPU, at reference speed)"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", "peak resident memory, workload process"),
    }


def per_layer(report):
    tr = report["trace"]
    spans, counts = tr["spans"], tr["counts"]
    metrics = {}

    def span(name, *fields):
        calls, _total, self_s = spans.get(name, (0, 0.0, 0.0))
        if "calls" in fields:
            metrics[f"{name}.calls"] = (calls, "count")
        if "self_s" in fields:
            metrics[f"{name}.self_s"] = (self_s, "s")

    span("systems.field_values", "calls", "self_s")
    span("systems.field_jacobians", "calls", "self_s")
    span("systems.dynamics_jacobian", "self_s")
    span("systems.field_values_batch", "calls")
    span("signals.concatenate_rescaled", "calls", "self_s")
    span("endpoint.integrate", "calls", "self_s")
    metrics["endpoint.integrate.rk4_steps"] = (counts.get("endpoint.integrate.rk4_steps", 0), "count")
    metrics["endpoint.integrate.fund_steps"] = (counts.get("endpoint.integrate.fund_steps", 0), "count")
    span("endpoint.differential", "calls", "self_s")
    span("geodesics.solve_critical", "calls")
    solves = tr.get("solves", {"p50_s": 0.0, "max_s": 0.0, "max_seed": None})
    metrics["geodesics.solve_critical.p50_s"] = (solves["p50_s"], "s", "wall time per seed")
    metrics["geodesics.solve_critical.max_s"] = (
        solves["max_s"], "s", f"slowest seed: number {solves['max_seed']} in run order")
    span("geodesics.gmres", "calls", "self_s")
    for key in ("matvecs", "exhausted", "differentials"):
        metrics[f"geodesics.gmres.{key}"] = (counts.get(f"geodesics.gmres.{key}", 0), "count")
    failed = {"not_converged": 0, "domain_escape": 0, "other": 0}
    for r in report["traced_rounds"]:
        for kind, c in r["notes"].get("failed", {}).items():
            failed[kind] += c
    for kind, c in failed.items():
        metrics[f"geodesics.failed.{kind}"] = (c, "count")
    span("geodesics.multistart", "self_s")
    span("steering.cross_section", "calls", "self_s")
    span("steering.cross_section_drift", "calls", "self_s")
    span("steering.build_chart", "self_s")
    span("steering.solve_chart_coordinates", "calls", "self_s")
    span("steering.compose", "calls", "self_s")
    metrics["steering.rk4_steps"] = (counts.get("steering.rk4_steps", 0), "count")
    metrics["steering.chart_radius_errors"] = (
        sum(c for k, c in counts.items() if k.endswith(".ChartRadiusError")), "count")
    span("lifting.lift_path", "self_s")
    metrics["lifting.samples"] = (counts.get("lifting.samples", 0), "count")
    metrics["lifting.reanchors"] = (counts.get("lifting.reanchors", 0), "count")
    untraced = sum(r["wall"] for r in report["rounds"])
    traced = sum(r["wall"] for r in report["traced_rounds"])
    metrics["trace_overhead"] = (traced / untraced, "ratio")
    return metrics


def select(metrics, declared):
    """Order the metrics as BENCHMARK.json declares them; refuse a mismatch."""
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            raise RunFailure(f"BENCHMARK.json names {m['name']}, which this run did not measure")
        value, unit = metrics[m["name"]][:2]
        if unit != m["unit"]:
            raise RunFailure(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit so the running child is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    missing = [p for p in (ROOT / "src" / "horizon" / "__init__.py", ROOT / "BENCHMARK.json",
                           ROOT / "tests" / "data" / "heisenberg_shooting.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [run_child(base + ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        ready, report = run_child(
            base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)], deadline)
        setups.append(ready)
        if args.trace:
            metrics = per_layer(report)
            result = select(metrics, declared["per_layer"])
        else:
            metrics = end_to_end(report, setups)
            result = select(metrics, declared["end_to_end"])
    except RunFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    rounds = report["rounds"]
    attempted = sum(r["ops"] for r in rounds)
    errors = report["errors"]
    failed = min(attempted, sum(r["ops_failed"] for r in rounds) + len(errors))
    correct = not errors and failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  digest {report['digest']}")
    for name, entry in metrics.items():
        how = f"  ({entry[2]})" if len(entry) > 2 else ""
        print(f"  {name} = {entry[0]:.6g} {entry[1]}{how}")
    print("facts " + json.dumps(report["facts"], sort_keys=True))
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for e in errors[:20]:
        print(f"WRONG: {e}")
    for e in [e for r in rounds for e in r["notes"].get("errors", [])][:20]:
        print(f"FAILED: {e}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
