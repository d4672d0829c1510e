"""Outside-in layer tracing for the benchmark.

The tracer replaces functions of the horizon modules with wrappers that time
each call and count its work.  Every name is patched where its consumers look
it up (``horizon.geodesics.differential``, not only the defining module), and
modules are reached through ``sys.modules``, because ``import horizon.endpoint``
yields the *function* ``endpoint`` that shadows the module.  A missing patch
target raises ``TraceError``: a renamed function must break the traced run,
not silently report zero.

Spans nest per thread (the ladder workload runs two solver threads).  Span
times are CPU time of the calling thread: each span adds its duration to its
parent's child time, and a layer's self time is its duration minus the time
of the spans it caused.  Wall-clock spans would charge the time a thread
waits for the interpreter lock to whatever call released it (LAPACK and BLAS
calls do), which inflates ``differential`` and ``dynamics_jacobian`` under
two threads.  Seed solve times (``solve_critical``) are wall-clock latencies.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter, thread_time

from scipy.sparse.linalg import LinearOperator


class TraceError(RuntimeError):
    """A patch target is missing."""


def resolve(modname: str, attr: str):
    """(owner, attribute) for "module" + "name" or "Class.method"; raises TraceError."""
    try:
        owner = sys.modules[modname]
    except KeyError:
        raise TraceError(f"module {modname} is not imported; cannot trace {attr}") from None
    if "." in attr:  # Class.method
        cls_name, attr = attr.split(".", 1)
        owner = getattr(owner, cls_name, None)
        if owner is None:
            raise TraceError(f"{modname}.{cls_name} is missing")
    if not callable(getattr(owner, attr, None)):
        raise TraceError(f"{modname}.{attr} is missing or not callable")
    return owner, attr


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames: [name, cpu_start, child_cpu, wall_start]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.solves = []  # (wall seconds, run-wide seed number)
        self.gmres_depth = 0


class Tracer:
    """Patches horizon's layers, aggregates spans, restores on ``close``."""

    def __init__(self, horizon):
        self._horizon = horizon
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patched = []  # (owner, attr, original)
        self._seed_base = 0  # run-wide number of seed 0 of the current multistart
        self._seeds_started = 0
        self._install()

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _enter(self, name):
        st = self._state()
        parent = st.stack[-1][0] if st.stack else None
        frame = [name, thread_time(), 0.0, perf_counter()]
        st.stack.append(frame)
        return st, frame, parent

    @staticmethod
    def _exit(st, frame):
        end = thread_time()
        st.stack.pop()
        dur = end - frame[1]
        if st.stack:
            st.stack[-1][2] += dur
        agg = st.stats.get(frame[0])
        if agg is None:
            agg = st.stats[frame[0]] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[2]

    # -- patching ------------------------------------------------------------

    def _patch(self, targets, make_wrapper):
        """Wrap the original behind every (module, attr) consumer in targets."""
        resolved = [resolve(m, a) for m, a in targets]
        original = getattr(*resolved[0])
        for owner, attr in resolved[1:]:
            if getattr(owner, attr) is not original:
                raise TraceError(f"{owner.__name__}.{attr} is not the same function as "
                                 f"{targets[0][0]}.{targets[0][1]}")
        wrapper = make_wrapper(original)
        for owner, attr in resolved:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _span(self, name, errors=(), on_call=None, on_return=None):
        """Wrapper factory: time a span, count escaping errors, run hooks."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                st, frame, parent = tracer._enter(name)
                if on_call is not None:
                    on_call(st, parent, args, kwargs)
                try:
                    result = fn(*args, **kwargs)
                except errors as exc:
                    st.counts[f"{name}.{type(exc).__name__}"] += 1
                    raise
                finally:
                    tracer._exit(st, frame)
                if on_return is not None:
                    on_return(st, frame, args, kwargs, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _install(self):
        h = self._horizon
        H, SY, SG, EP, ST, LF, GE = (
            "horizon", "horizon.systems", "horizon.signals", "horizon.endpoint",
            "horizon.steering", "horizon.lifting", "horizon.geodesics",
        )
        for meth in ("field_values", "field_jacobians", "dynamics_jacobian", "field_values_batch"):
            self._patch([(SY, f"ControlSystem.{meth}")], self._span(f"systems.{meth}"))

        self._patch([(SG, "concatenate_rescaled"), (LF, "concatenate_rescaled")],
                    self._span("signals.concatenate_rescaled"))

        bind = inspect.signature(sys.modules[EP].integrate).bind

        def integrate_call(st, parent, args, kwargs):
            ba = bind(*args, **kwargs)
            ba.apply_defaults()
            a = ba.arguments
            steps = a["signal"].segments * a["substeps"]
            st.counts["endpoint.integrate.rk4_steps"] += steps
            if a["with_fundamental"]:
                st.counts["endpoint.integrate.fund_steps"] += steps
            if parent is not None and parent.startswith("steering."):
                st.counts["steering.rk4_steps"] += steps

        self._patch([(EP, "integrate")], self._span("endpoint.integrate", on_call=integrate_call))

        def differential_call(st, parent, args, kwargs):
            if st.gmres_depth:
                st.counts["geodesics.gmres.differentials"] += 1

        self._patch([(EP, "differential"), (GE, "differential")],
                    self._span("endpoint.differential", on_call=differential_call))

        self._patch([(GE, "gmres")], self._gmres_wrapper)

        def solve_return(st, frame, args, kwargs, result):
            wall = perf_counter() - frame[3]
            st.solves.append((wall, self._seed_base + kwargs["seed_index"]))

        self._patch([(GE, "solve_critical")],
                    self._span("geodesics.solve_critical", on_return=solve_return))

        bind_ms = inspect.signature(sys.modules[GE].multistart).bind

        def multistart_call(st, parent, args, kwargs):
            ba = bind_ms(*args, **kwargs)
            ba.apply_defaults()
            self._seed_base = self._seeds_started
            self._seeds_started += ba.arguments["n_seeds"]

        # seeds run in pool threads are not children of this span, and the
        # calling thread spends no CPU while it waits for them
        self._patch([(H, "multistart"), (GE, "multistart")],
                    self._span("geodesics.multistart", on_call=multistart_call))

        chart_error = h.ChartRadiusError
        for fn in ("cross_section", "cross_section_drift"):
            self._patch([(H, fn), (ST, fn), (LF, fn)],
                        self._span(f"steering.{fn}", errors=(chart_error,)))
        for fn in ("build_chart", "solve_chart_coordinates", "SteeringChart.compose"):
            self._patch([(ST, fn)], self._span(f"steering.{fn.split('.')[-1]}"))

        def lift_return(st, frame, args, kwargs, result):
            st.counts["lifting.samples"] += result.K
            st.counts["lifting.reanchors"] += sum(ev["reanchors"] for ev in result.reanchor_events)

        self._patch([(H, "lift_path"), (LF, "lift_path")],
                    self._span("lifting.lift_path", on_return=lift_return))

    def _gmres_wrapper(self, fn):
        tracer = self

        def wrapper(A, b, *args, **kwargs):
            st, frame, _ = tracer._enter("geodesics.gmres")
            matvecs = [0]

            def counted(z):
                matvecs[0] += 1
                return A.matvec(z)

            st.gmres_depth += 1
            try:
                x, info = fn(LinearOperator(A.shape, matvec=counted, dtype=A.dtype),
                             b, *args, **kwargs)
            finally:
                st.gmres_depth -= 1
                tracer._exit(st, frame)
                st.counts["geodesics.gmres.matvecs"] += matvecs[0]
            if info > 0:
                st.counts["geodesics.gmres.exhausted"] += 1
            return x, info

        wrapper.__wrapped__ = fn
        return wrapper

    def close(self):
        """Restore every patched name, last patch first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def _all_states(self):
        with self._lock:
            return list(self._states)

    def summary(self) -> dict:
        """Merged per-layer numbers: span calls/total/self, counters, solves."""
        stats, counts, solves = {}, Counter(), []
        for st in self._all_states():
            for name, (calls, total, self_s) in st.stats.items():
                agg = stats.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            counts.update(st.counts)
            solves.extend(st.solves)
        out = {"spans": stats, "counts": dict(counts)}
        if solves:
            slowest = max(solves, key=lambda s: s[0])
            out["solves"] = {
                "p50_s": statistics.median(s[0] for s in solves),
                "max_s": slowest[0],
                "max_seed": slowest[1],
            }
        return out
