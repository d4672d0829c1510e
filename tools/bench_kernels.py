"""Kernel timings of two horizon checkouts, alternated in one process.

    python3 tools/bench_kernels.py --base ../horizon-parent --repeats 15 --out BENCH.json

Loads the base checkout's package as ``horizon_base`` and this checkout's as
``horizon_change`` (both from their ``src/horizon``), then times, on the
same inputs and alternately, the solver's kernels on the two multistart
shapes of perfbench and one system evaluated on numpy scalars:

* ``ladder``: Heisenberg, m = 64, target (0, 0, 0.5), the criterion-7 seed 0;
* ``floor``: agrachev_lee(3), m = 24, target (0, -0.1), the criterion-5 seed 2;
* ``fallback``: the tests' fractional_power_drift system (x1/5 + u0,
  x0^(1/2) + u1 x0^(3/2)), whose runs go on numpy scalars, m = 64, from
  (1, 0) to (1.2, 1.5), on a seed whose states keep x0 > 0.

and one steer through a commutator chart on each system of perfbench's
steer_lift (``steer.heisenberg``, ``steer.unicycle``, ``steer.martinet``
with ``cross_section``, ``steer.heis_drift``, Heisenberg with the drift
(0, 0, x0/10), with ``cross_section_drift`` at p = 1.5), from one fixed
point to a target 0.07 away, at each side's default chart-flow substeps.

The kernels are the state run (``integrate``), ``differential``,
``EndpointDifferential.hessian``, one ``solve_critical`` from the seed, and
``gmres``.  The first four run at the RK4 substeps per segment each side's
own solver takes on the shape by default (``GeodesicOptions.substeps_for``
where the side has it, else ``GeodesicOptions.substeps``).  ``gmres`` is
the first KKT solve of the change side's ``solve_critical``: its operator,
preconditioner, right-hand side and forcing are captured once and handed
to each side's ``geodesics.gmres``.  Each sample times a batch of calls (at
least --sample-s seconds) and records the time per call; base and change
take turns, in ABBA order over the repeats.  The result gives, per kernel
and side, the median and quartiles in milliseconds, the ratio of the
medians, the share of repeats in which the change was faster, the work per
call (the substeps, the RK4 state steps, for ``hessian`` how often one call
evaluates the second-derivative stack, for ``solve_critical`` its KKT
iterations and, where the side's records carry ``diagnostics["work"]``, its
state runs, tangent passes and KKT trials rejected on their endpoint alone,
for ``gmres`` its matvecs and info,
for a steer its flow substeps, its ``ControlSystem.field_values`` calls,
which are the driftless chart flows' RK4 stages, its state runs' RK4 steps
(on the system and, where the side has one, on the system with its drift as
a controlled field, which the chart Jacobian's differential runs on), its
``SteeringChart.compose`` calls and its chart Newton steps, one
``SteeringChart.jacobian`` call each), and how far the two sides' outputs
differ (the state run's at the signal's breakpoints, a steer's chart
coordinates).  A cold-import probe
then starts a fresh interpreter per side and sample, in the same ABBA
order, and reports how long ``import horizon`` took, how long the first use
after it took (``catalog_load("unicycle")`` and its first ``field_values``
and ``field_jacobians``, which compile its field stacks), the interpreter's
peak resident memory after both, whether any scipy module was loaded and
whether ``numpy.f2py`` was.  Without --base the checkout is compared with itself, which
shows the noise floor.  BLAS runs on one thread and the process pins itself
to one CPU where the platform allows it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import sympy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load(root: Path, name: str):
    """Import root/src/horizon as the package `name`."""
    pkg = root / "src" / "horizon"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    if spec is None:
        sys.exit(f"no horizon package under {root}")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def shapes(h):
    """name -> (system, x, y, seed signal, options, seed index)."""
    out = {}
    heis = h.catalog_load("heisenberg")
    seeds = h.geodesics.generate_seeds(0, 8, 64, heis.d, 0.5)
    out["ladder"] = (heis, np.zeros(3), np.array([0.0, 0.0, 0.5]),
                     h.ControlSignal(np.linspace(0.0, 1.0, 65), seeds[0]), h.GeodesicOptions(), 0)
    al3 = h.catalog_load("agrachev_lee(3)")
    seeds = h.geodesics.generate_seeds(3, 16, 24, al3.d, 1.0)
    opts = h.GeodesicOptions(raise_on_failure=False, feas_iter=60, max_iter=60)
    out["floor"] = (al3, np.zeros(2), np.array([0.0, -0.1]),
                    h.ControlSignal(np.linspace(0.0, 1.0, 25), seeds[2]), opts, 2)
    x = h.state_symbols(2)
    frac = h.ControlSystem(
        "fractional_power_drift",
        [h.SymbolicField([1, 0], coords=x), h.SymbolicField([0, x[0] ** sympy.Rational(3, 2)], coords=x)],
        drift=h.SymbolicField([x[1] / 5, x[0] ** sympy.Rational(1, 2)], coords=x))
    seeds = h.geodesics.generate_seeds(1, 8, 64, frac.d, 0.3)
    out["fallback"] = (frac, np.array([1.0, 0.0]), np.array([1.2, 1.5]),
                       h.ControlSignal(np.linspace(0.0, 1.0, 65), seeds[1]), opts, 1)
    return out


def solver_substeps(opts, system):
    """The substeps a solve with opts takes on system, on either side."""
    rule = getattr(opts, "substeps_for", None)
    return rule(system) if rule else opts.substeps


def rk4_steps(system, call, *more):
    """call()'s output and the RK4 steps of the state runs it made on system
    and on the systems in more."""
    systems, steps = (system, *more), []
    reals = [s.state_run for s in systems]

    def counter(real):
        def counted(z, bps, U, s, *rest):
            steps.append(len(U) * s)
            return real(z, bps, U, s, *rest)
        return counted

    for s, real in zip(systems, reals):
        s.state_run = counter(real)
    try:
        out = call()
    finally:
        for s, real in zip(systems, reals):
            s.state_run = real
    return out, sum(steps)


def chart_work(h, call):
    """call()'s output and its SteeringChart.compose calls and chart Newton
    steps (SteeringChart.jacobian calls)."""
    chart, work = h.steering.SteeringChart, {"compose_calls": 0, "newton_steps": 0}
    reals = {"compose": chart.compose, "jacobian": chart.jacobian}

    def counter(name, key):
        def counted(self, phi):
            work[key] += 1
            return reals[name](self, phi)
        return counted

    chart.compose = counter("compose", "compose_calls")
    chart.jacobian = counter("jacobian", "newton_steps")
    try:
        out = call()
    finally:
        chart.compose, chart.jacobian = reals["compose"], reals["jacobian"]
    return out, work


def stack_evaluations(system, call):
    """call()'s output and how often it evaluated the second-derivative stack."""
    real, calls = system.field_second_derivatives, []
    system.field_second_derivatives = lambda pts: calls.append(len(pts)) or real(pts)
    try:
        out = call()
    finally:
        del system.field_second_derivatives
    return out, len(calls)


def first_kkt_solve(h, shape):
    """(A, b, keyword arguments) of the first geodesics.gmres call of h's
    solve_critical on shape."""
    system, x, y, sig, opts, idx = shape
    real, calls = h.geodesics.gmres, []

    def capture(A, b, **kwargs):
        calls.append((A, b.copy(), kwargs))
        return real(A, b, **kwargs)

    h.geodesics.gmres = capture
    try:
        h.solve_critical(system, x, y, u_init=sig, opts=opts, seed_index=idx)
    finally:
        h.geodesics.gmres = real
    return calls[0]


def counted_gmres(h, kkt):
    """x, info and matvecs of h's geodesics.gmres on the captured solve."""
    A, b, kwargs = kkt
    matvecs = []
    op = SimpleNamespace(shape=A.shape, dtype=A.dtype,
                         matvec=lambda z: matvecs.append(1) or A.matvec(z))
    x, info = h.geodesics.gmres(op, b, **kwargs)
    return x, {"matvecs": len(matvecs), "info": int(info)}


def kernels(h, shape, kkt):
    """kernel name -> (zero-argument call, its output as an array, work per call);
    kkt is first_kkt_solve's capture, the same for both sides."""
    system, x, y, sig, opts, idx = shape
    s = solver_substeps(opts, system)
    diff = h.differential(system, x, sig, substeps=s)
    lam = np.linspace(1.0, -0.5, system.n)
    steps = sig.segments * s
    hess, evaluations = stack_evaluations(system, lambda: diff.hessian(lam))

    def solve():
        return h.solve_critical(system, x, y, u_init=sig, opts=opts, seed_index=idx)

    rec, solve_steps = rk4_steps(system, solve)
    out = {
        "state": (lambda: h.integrate(system, x, sig, substeps=s),
                  h.integrate(system, x, sig, substeps=s).states[::s],  # at the breakpoints
                  {"substeps": s, "rk4_steps": steps}),
        "differential": (lambda: h.differential(system, x, sig, substeps=s), diff.matrix,
                         {"substeps": s, "rk4_steps": steps, "tangent_steps": steps}),
        "hessian": (lambda: diff.hessian(lam), hess,
                    {"substeps": s, "rk4_steps": 0,
                     "second_derivative_evaluations": evaluations}),
        "solve_critical": (solve, np.array([rec.energy]),
                           {"substeps": s, "rk4_steps": solve_steps,
                            "kkt_iterations": rec.iterations, "converged": bool(rec.converged),
                            "feasibilization_steps": len(rec.diagnostics.get("feas_log", [])),
                            **rec.diagnostics.get("work", {})}),
    }
    A, b, kwargs = kkt
    out["gmres"] = (lambda: h.geodesics.gmres(A, b, **kwargs), *counted_gmres(h, kkt))
    return out


def steer_kernels(h):
    """kernel name -> (zero-argument call, its chart coordinates, work per
    call) of one steer on each steer_lift system, at h's default flow substeps."""
    heis = h.catalog_load("heisenberg")
    x = h.state_symbols(3)
    drift = h.SymbolicField([sympy.Float(0), sympy.Float(0), sympy.Rational(1, 10) * x[0]],
                            coords=x)
    base, step = np.array([0.1, -0.2, 0.15]), np.array([0.04, -0.03, 0.05])
    out = {}
    for name, system in (("heisenberg", heis), ("unicycle", h.catalog_load("unicycle")),
                         ("martinet", h.catalog_load("martinet")),
                         ("heis_drift", h.ControlSystem("heis_drift", heis.fields, drift=drift))):
        def steer(system=system):
            if system.is_driftless:
                return h.cross_section(system, base, base + step)
            return h.cross_section_drift(system, base, base + step, p=1.5)

        # the side's chart Jacobian runs here, where it has the drift as a field
        twin = [system._drift_controlled] if hasattr(type(system), "_drift_controlled") else []
        real, calls = system.field_values, []
        system.field_values = lambda pts: calls.append(1) or real(pts)
        try:
            (plan, steps), work = chart_work(h, lambda: rk4_steps(system, steer, *twin))
        finally:
            del system.field_values
        substeps = getattr(plan, "substeps", h.steering.DEFAULT_FLOW_SUBSTEPS)
        out[name] = (steer, plan.phi, {"flow_substeps": substeps, "field_values_calls": len(calls),
                                       "state_run_rk4_steps": steps, **work})
    return out


def time_kernels(result, shape, ks, repeats, sample_s):
    """Time each kernel of ks (side -> kernels()) in ABBA order into result."""
    sides = tuple(ks)
    for name in ks["base"]:
        fns = {side: ks[side][name][0] for side in sides}
        reps = batch_size(fns["base"], sample_s)
        ms = {side: [] for side in sides}
        for r in range(repeats):
            for side in (("base", "change") if r % 2 == 0 else ("change", "base")):
                ms[side].append(1e3 * timed(fns[side], reps))
        ref, new = ks["base"][name][1], ks["change"][name][1]
        gap = float(np.max(np.abs(new - ref)) / max(float(np.max(np.abs(ref))), 1e-300))
        result["kernels"][f"{shape}.{name}"] = {
            "base": quartiles(ms["base"]), "change": quartiles(ms["change"]),
            "ratio": round(float(np.median(ms["change"]) / np.median(ms["base"])), 4),
            "change_faster": f"{sum(c < b for b, c in zip(ms['base'], ms['change']))}/{repeats}",
            "calls_per_sample": reps,
            "work_per_call": {side: ks[side][name][2] for side in sides},
            "bitwise_equal": bool(new.tobytes() == ref.tobytes()),
            "max_relative_difference": gap,
        }
        print(f"{shape}.{name}: " + json.dumps(result["kernels"][f"{shape}.{name}"]),
              file=sys.stderr)


def batch_size(fn, sample_s):
    reps, t = 1, 0.0
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        t = perf_counter() - t0
        if t >= sample_s:
            return reps
        reps = max(reps + 1, int(reps * 1.5 * sample_s / max(t, 1e-9)))


def timed(fn, reps):
    t0 = perf_counter()
    for _ in range(reps):
        fn()
    return (perf_counter() - t0) / reps


def quartiles(ms):
    q1, med, q3 = np.percentile(ms, [25, 50, 75])
    return {"median_ms": round(float(med), 4), "q1_ms": round(float(q1), 4),
            "q3_ms": round(float(q3), 4)}


def commit(root: Path):
    try:
        out = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


# getrusage's ru_maxrss would keep the forking process's peak across exec;
# VmHWM is the new image's own
_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import horizon
t1 = time.perf_counter()
system = horizon.catalog_load("unicycle")
system.field_values([0.1, -0.2, 0.3])
system.field_jacobians([0.1, -0.2, 0.3])
t2 = time.perf_counter()
try:
    with open("/proc/self/status") as f:
        hwm = next(int(line.split()[1]) / 1024 for line in f if line.startswith("VmHWM"))
except (OSError, StopIteration):
    hwm = None
print(json.dumps({"import_s": t1 - t0, "first_use_s": t2 - t1, "peak_rss_mb": hwm,
                  "scipy_loaded": any(m.split(".")[0] == "scipy" for m in sys.modules),
                  "f2py_loaded": "numpy.f2py" in sys.modules}))
"""


def cold_import(roots, repeats):
    """Per side: `import horizon` and its first use in a fresh interpreter,
    repeats times in ABBA order."""
    runs = {side: [] for side in roots}
    for r in range(repeats):
        for side in (("base", "change") if r % 2 == 0 else ("change", "base")):
            out = subprocess.run([sys.executable, "-c", _PROBE, str(roots[side] / "src")],
                                 capture_output=True, text=True, check=True, timeout=120)
            runs[side].append(json.loads(out.stdout))
    result = {}
    for side, rs in runs.items():
        result[side] = {"peak_rss_mb": (None if rs[0]["peak_rss_mb"] is None else
                                        round(float(np.median([r["peak_rss_mb"] for r in rs])), 1)),
                        "scipy_loaded": any(r["scipy_loaded"] for r in rs),
                        "f2py_loaded": any(r["f2py_loaded"] for r in rs)}
        for key, prefix in (("import_s", ""), ("first_use_s", "first_use_")):
            q1, med, q3 = np.percentile([1e3 * r[key] for r in rs], [25, 50, 75])
            result[side].update({f"{prefix}median_ms": round(float(med), 1),
                                 f"{prefix}q1_ms": round(float(q1), 1),
                                 f"{prefix}q3_ms": round(float(q3), 1)})
    for key, prefix in (("import_s", ""), ("first_use_s", "first_use_")):
        result[f"{prefix}ratio"] = round(result["change"][f"{prefix}median_ms"]
                                         / result["base"][f"{prefix}median_ms"], 4)
        faster = sum(c[key] < b[key] for b, c in zip(runs["base"], runs["change"]))
        result[f"{prefix}change_faster"] = f"{faster}/{repeats}"
    return result


def environment():
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count(),
            "blas_threads": 1}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, default=ROOT,
                    help="checkout root of the base side (default: this checkout)")
    ap.add_argument("--repeats", type=int, default=15, help="samples per kernel and side")
    ap.add_argument("--sample-s", type=float, default=0.05, help="least seconds per sample")
    ap.add_argument("--out", type=Path, help="write the JSON result here as well")
    args = ap.parse_args(argv)
    if args.repeats < 1 or not args.sample_s > 0:
        ap.error("--repeats must be >= 1 and --sample-s > 0")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[-1]})

    roots = {"base": args.base.resolve(), "change": ROOT}
    sides = {"base": load(roots["base"], "horizon_base"),
             "change": load(ROOT, "horizon_change")}
    result = {"script": "tools/bench_kernels.py", "environment": environment(),
              "base": {"commit": commit(args.base)}, "change": {"commit": commit(ROOT)},
              "repeats": args.repeats, "kernels": {}}
    for shape in ("ladder", "floor", "fallback"):
        kkt = first_kkt_solve(sides["change"], shapes(sides["change"])[shape])
        ks = {side: kernels(h, shapes(h)[shape], kkt) for side, h in sides.items()}
        time_kernels(result, shape, ks, args.repeats, args.sample_s)
    time_kernels(result, "steer", {side: steer_kernels(h) for side, h in sides.items()},
                 args.repeats, args.sample_s)
    result["cold_import"] = cold_import(roots, args.repeats)
    print("cold_import: " + json.dumps(result["cold_import"]), file=sys.stderr)
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
