"""The benchmark's layer tracer must find every name it patches.

perfbench/tracing.py wraps horizon functions where their consumers look them
up and raises TraceError when one is missing, so renaming or re-binding a
traced function breaks the traced benchmark run.  Building the tracer here
makes that failure show in the test suite as well.
"""

import pathlib
import sys

import numpy as np

import horizon

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402
from workloads import Ladder, SteerLift  # noqa: E402

# what one differential reaches of the ladder's required layers, and the
# batched field evaluation of its tangent blocks
DIFFERENTIAL_LAYERS = ("systems.field_jacobians", "systems.dynamics_jacobian",
                       "endpoint.integrate", "endpoint.differential",
                       "systems.field_values_batch")


def test_tracer_patches_and_restores_every_target():
    before = (horizon.cross_section, horizon.steering.solve_chart_coordinates)
    tracer = Tracer(horizon)
    try:
        assert horizon.cross_section is not before[0]
        assert horizon.cross_section is horizon.steering.cross_section
        assert horizon.steering.solve_chart_coordinates is not before[1]
    finally:
        tracer.close()
    assert (horizon.cross_section, horizon.steering.solve_chart_coordinates) == before


def test_tracer_counts_rk4_steps_of_traced_calls():
    # the tracer binds integrate's signature to count RK4 steps, so a call
    # shape it cannot bind, or a miscount, shows here
    heis = horizon.catalog_load("heisenberg")
    u = horizon.ControlSignal(np.array([0.0, 0.25, 0.6, 1.0]), np.ones((3, 2)))
    steps = u.segments * 4
    tracer = Tracer(horizon)
    try:
        horizon.differential(heis, np.zeros(3), u, substeps=4)
        counts = tracer.summary()["counts"]
        assert counts["endpoint.integrate.rk4_steps"] == steps
        assert counts["endpoint.integrate.fund_steps"] == steps
        horizon.endpoint(heis, np.zeros(3), u, substeps=4)
        counts = tracer.summary()["counts"]
        assert counts["endpoint.integrate.rk4_steps"] == 2 * steps
        assert counts["endpoint.integrate.fund_steps"] == steps
        assert tracer.summary()["spans"]["endpoint.integrate"][0] == 2
    finally:
        tracer.close()


def test_tracer_counts_the_solver_own_matvecs():
    # the solver counts GMRES matvecs inside its own operator; the tracer
    # counts them around the gmres call, and the two must agree
    heis = horizon.catalog_load("heisenberg")
    seed = horizon.geodesics.generate_seeds(0, 1, 16, 2, 0.5)[0]
    u = horizon.ControlSignal(np.linspace(0.0, 1.0, 17), seed)
    tracer = Tracer(horizon)
    try:
        rec = horizon.solve_critical(heis, np.zeros(3), np.array([0.0, 0.0, 0.5]), u_init=u)
        summary = tracer.summary()
    finally:
        tracer.close()
    solves = rec.diagnostics["gmres"]
    assert solves
    assert summary["counts"]["geodesics.gmres.matvecs"] == sum(s["matvecs"] for s in solves)
    assert summary["counts"].get("geodesics.gmres.exhausted", 0) == sum(s["info"] > 0 for s in solves)
    assert summary["spans"]["geodesics.gmres"][0] == len(solves)


def test_one_differential_reaches_its_traced_layers_once():
    # the benchmark's traced ladder and floor runs exit 1 when a required
    # layer sees no call; a refactor that stops calling one fails here first
    assert set(Ladder.traced_layers) - set(DIFFERENTIAL_LAYERS) == {
        "geodesics.gmres", "geodesics.solve_critical", "geodesics.multistart"}
    heis = horizon.catalog_load("heisenberg")
    u = horizon.ControlSignal(np.array([0.0, 0.3, 1.0]), np.ones((2, 2)))
    tracer = Tracer(horizon)
    try:
        horizon.geodesics.differential(heis, np.zeros(3), u, substeps=2)  # the solver's route
        spans = tracer.summary()["spans"]
    finally:
        tracer.close()
    assert {name: spans.get(name, [0])[0] for name in DIFFERENTIAL_LAYERS} == dict.fromkeys(
        DIFFERENTIAL_LAYERS, 1)


def test_steers_and_a_lift_reach_every_steer_lift_layer():
    # the traced steer_lift run exits 1 when a required layer sees no call;
    # a refactor that takes a layer out of the chart flows fails here first
    heis = horizon.catalog_load("heisenberg")
    x = horizon.state_symbols(3)
    drift = horizon.SymbolicField([0, 0, x[0] / 10], coords=x)
    hd = horizon.ControlSystem("heis_drift", heis.fields, drift=drift)
    y = np.array([0.03, -0.02, 0.01])
    path = horizon.TargetPath.from_function(lambda s: np.array([1.0, 0.1 * s, 0.02 * s]),
                                            [0.0, 0.5, 1.0])
    anchor = horizon.ControlSignal(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
    tracer = Tracer(horizon)
    try:
        horizon.cross_section(heis, np.zeros(3), y)
        horizon.cross_section_drift(hd, np.zeros(3), y, p=1.5)
        horizon.lift_path(heis, np.zeros(3), anchor, path)
        spans = tracer.summary()["spans"]
    finally:
        tracer.close()
    assert [name for name in SteerLift.traced_layers if spans.get(name, [0])[0] < 1] == []


def test_tracer_sees_every_state_run_and_differential_of_a_solve():
    # the solver's state runs go through endpoint.integrate and its
    # differentials through geodesics.differential, the names the tracer
    # wraps, so its counts are the solve's own
    al3 = horizon.catalog_load("agrachev_lee(3)")
    seed = horizon.geodesics.generate_seeds(3, 16, 24, al3.d, 1.0)[6]
    u = horizon.ControlSignal(np.linspace(0.0, 1.0, 25), seed)
    opts = horizon.GeodesicOptions(raise_on_failure=False, feas_iter=60, max_iter=60)
    tracer = Tracer(horizon)
    try:
        rec = horizon.solve_critical(al3, np.zeros(2), np.array([0.0, -0.1]), u_init=u,
                                     opts=opts, seed_index=6)
        spans = tracer.summary()["spans"]
    finally:
        tracer.close()
    work = rec.diagnostics["work"]
    assert spans["endpoint.integrate"][0] == work["state_runs"]
    assert spans["endpoint.differential"][0] == work["tangent_passes"] < work["state_runs"]
