"""One rule per kind of argument, at every public entry.

A state is an array of shape (n,) with finite entries (the run entries
integrate, endpoint and differential check the shape alone: a non-finite
start escapes at t = 0); a count is an integer of at least its least value;
a tolerance is positive and finite; a real number (an exponent alpha or
beta, a horizon T) is finite, and T nonnegative; p is what
conjugate_exponent accepts; a signal time is a number in [0, T]; an energy
mode is "vector" or "component".  A bad argument is a ConfigError whose message starts with the
argument's name.
"""

import json
from functools import cache

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from horizon import (
    ConfigError,
    ControlSignal,
    ControlSystem,
    DomainEscapeError,
    EnergyParams,
    GeodesicOptions,
    SymbolicField,
    TargetPath,
    bracket_frame,
    build_chart,
    catalog_load,
    check_admissibility,
    concatenate_rescaled,
    coincidence_check,
    critical_exponent,
    cross_section,
    cross_section_drift,
    differential,
    displacement,
    dual_map,
    endpoint,
    energy,
    energy_gradient,
    flow_segment,
    integrate,
    lagrange_residual,
    lift_path,
    multistart,
    solve_critical,
    state_symbols,
    system_from_json,
    system_to_json,
    zero_signal,
)
from horizon.cli import main
from horizon.signals import energy_of_values, gradient_density, hessian_density
from horizon.steering import solve_chart_coordinates

HEIS = catalog_load("heisenberg")
AL3 = catalog_load("agrachev_lee(3)")
X, Y = np.zeros(3), np.array([0.0, 0.0, 0.2])
U = ControlSignal(np.linspace(0.0, 1.0, 5), np.full((4, 2), 0.1))


@cache
def heis_with_drift():
    x0, x1, x2 = state_symbols(3)
    drift = SymbolicField([sp.Float(0), sp.Float(0), sp.Rational(1, 10) * x0], coords=(x0, x1, x2))
    return ControlSystem("heis_drift", HEIS.fields, drift=drift)


@cache
def converged_record():
    bps = np.linspace(0.0, 1.0, 17)
    mids = 0.5 * (bps[:-1] + bps[1:])
    r = np.sqrt(4.0 * np.pi * 0.2)  # the circle of control radius r encloses area 0.2
    turn = 2.0 * np.pi * mids
    u = ControlSignal(bps, r * np.column_stack([np.cos(turn), np.sin(turn)]))
    return solve_critical(HEIS, X, Y, u_init=u)


def _lift(x0=X, lift_tol=1e-8, steer_tol=1e-9, substeps=4, alpha=None):
    # one sample: no steer runs, so lift_path must check steer_tol and alpha itself
    path = TargetPath(np.array([0.0]), np.array([X]))
    return lift_path(HEIS, x0, zero_signal(2), path, lift_tol=lift_tol, steer_tol=steer_tol,
                     substeps=substeps, alpha=alpha)


def _steer_drift(x=X, y=(0.01, 0.0, 0.0), p=1.5, steer_tol=1e-9, flow_substeps=None, alpha=None):
    return cross_section_drift(heis_with_drift(), x, y, p=p, alpha=alpha, steer_tol=steer_tol,
                               flow_substeps=flow_substeps)


# no solver iterations: a valid call returns at once.  A p given beside opts
# must equal opts.p, so a call with p takes the default options.
_SOLVE = GeodesicOptions(max_iter=0, feas_iter=0, raise_on_failure=False)

# entry -> a call with valid defaults; a keyword replaces one argument
ENTRIES = {
    "integrate": lambda x0=X, substeps=2: integrate(HEIS, x0, U, substeps),
    "endpoint": lambda x0=X, substeps=2: endpoint(HEIS, x0, U, substeps),
    "differential": lambda x0=X, substeps=2: differential(HEIS, x0, U, substeps),
    "differential(trajectory=)": lambda x0=X: differential(
        HEIS, x0, U, 2, trajectory=integrate(HEIS, X, U, 2, with_fundamental=True)),
    "displacement": lambda a=X, b=Y: displacement(HEIS, a, b),
    "bracket_frame": lambda point=X, max_depth=4: bracket_frame(HEIS, point, max_depth),
    "build_chart": lambda x=X, max_depth=4, flow_substeps=None, alpha=None: build_chart(
        HEIS, x, max_depth=max_depth, alpha=alpha, flow_substeps=flow_substeps),
    "solve_chart_coordinates": lambda y=(0.0, 0.0, 0.01), steer_tol=None: solve_chart_coordinates(
        build_chart(HEIS, X), y, steer_tol),
    "cross_section": lambda x=X, y=(0.0, 0.0, 0.01), steer_tol=1e-9, flow_substeps=None: (
        cross_section(HEIS, x, y, steer_tol=steer_tol, flow_substeps=flow_substeps)),
    "cross_section_drift": _steer_drift,
    "critical_exponent": lambda x=X: critical_exponent(HEIS, x),
    "check_admissibility": lambda x=np.zeros(2), p=1.2: check_admissibility(AL3, x, p),
    "lift_path": _lift,
    "GeodesicOptions": lambda **kw: GeodesicOptions(**kw),
    "solve_critical": lambda x=X, y=Y, p=None: solve_critical(HEIS, x, y, p, u_init=U,
                                                               opts=None if p else _SOLVE),
    "multistart": lambda x=X, y=Y, p=None, n_seeds=1, m_seed=4, workers=1: multistart(
        HEIS, x, y, p, n_seeds=n_seeds, m_seed=m_seed, workers=workers,
        opts=None if p else _SOLVE),
    "lagrange_residual": lambda x=X, y=Y, p=2.0, substeps=None, mode="vector": lagrange_residual(
        HEIS, x, y, U, np.zeros(3), p, mode, substeps),
    "lagrange_residual(empty)": lambda mode="vector": lagrange_residual(
        HEIS, X, Y, zero_signal(2), np.zeros(3), 2.0, mode),
    "coincidence_check": lambda x=X, y=Y: coincidence_check(converged_record(), HEIS, x, y),
    "EnergyParams": lambda p=2.0, beta=1.0: EnergyParams(p=p, beta=beta),
    "energy": lambda p=2.0, mode="component": energy(U, p, mode),
    "energy_gradient": lambda p=2.0, mode="component": energy_gradient(U, p, mode),
    "energy(empty)": lambda mode="component": energy(zero_signal(2), 2.0, mode),
    "energy_gradient(empty)": lambda mode="component": energy_gradient(zero_signal(2), 2.0, mode),
    "energy_of_values": lambda mode="vector": energy_of_values(U.values, U.durations, 2.0, mode),
    "gradient_density": lambda mode="vector": gradient_density(U.values, 2.0, mode),
    "hessian_density": lambda mode="vector": hessian_density(U.values, 2.0, mode),
    "dual_map": lambda p=2.0: dual_map(U, p),
    "flow_segment": lambda j=1: flow_segment([0.2, 0.3], j, EnergyParams()),
    "ControlSignal.value_at": lambda t=0.5: U.value_at(t),
    "concatenate_rescaled": lambda T=0.5: concatenate_rescaled(U, U, T),
}

# entries whose states are checked for shape alone: the runs, and displacement
SHAPE_ONLY = {"integrate", "endpoint", "differential", "differential(trajectory=)",
              "displacement"}


def bad_states(n):
    """No state of dimension n: the wrong shapes (one entry, which broadcasts),
    then non-finite entries."""
    return [[0.5], [0.0] * (n - 1), [[0.0] * n], 0.0,
            [np.nan] + [0.0] * (n - 1), [0.0] * (n - 1) + [np.inf]]


BAD_COUNTS = {1: [0, -1, 1.5, 2.0, "2", True], 0: [-1, 2.5, False]}  # least value -> bad values
BAD_TOLERANCES = [0.0, -1e-9, np.inf, np.nan, "1e-9"]
BAD_P = [1.0, 0.5, np.inf, np.nan, 1e308, "2"]
BAD_MODES = ["Vector", "components", "", None, 2]
BAD_REALS = [np.nan, np.inf, -np.inf, "1.0", [1.0]]

STATES = {
    "integrate": ["x0"], "endpoint": ["x0"], "differential": ["x0"],
    "differential(trajectory=)": ["x0"], "displacement": ["a", "b"], "bracket_frame": ["point"],
    "build_chart": ["x"], "solve_chart_coordinates": ["y"], "cross_section": ["x", "y"],
    "cross_section_drift": ["x", "y"], "critical_exponent": ["x"], "check_admissibility": ["x"],
    "lift_path": ["x0"], "solve_critical": ["x", "y"], "multistart": ["x", "y"],
    "lagrange_residual": ["x", "y"], "coincidence_check": ["x", "y"],
}
DIMENSION = {e: 2 if e == "check_admissibility" else 3 for e in STATES}
COUNTS = {  # entry -> (argument, least value)
    "integrate": [("substeps", 1)], "endpoint": [("substeps", 1)],
    "differential": [("substeps", 1)], "bracket_frame": [("max_depth", 1)],
    "build_chart": [("max_depth", 1), ("flow_substeps", 1)],
    "cross_section": [("flow_substeps", 1)], "cross_section_drift": [("flow_substeps", 1)],
    "lift_path": [("substeps", 1)],
    "GeodesicOptions": [("substeps", 1), ("max_iter", 0), ("feas_iter", 0)],
    "multistart": [("n_seeds", 1), ("m_seed", 1), ("workers", 1)],
    "lagrange_residual": [("substeps", 1)], "flow_segment": [("j", 1)],
}
TOLERANCES = {
    "solve_chart_coordinates": ["steer_tol"], "cross_section": ["steer_tol"],
    "cross_section_drift": ["steer_tol"], "lift_path": ["lift_tol", "steer_tol"],
    "GeodesicOptions": ["end_tol", "stat_tol"],
}
MODES = ["GeodesicOptions", "energy", "energy_gradient", "energy(empty)", "energy_gradient(empty)",
         "energy_of_values", "gradient_density", "hessian_density", "lagrange_residual",
         "lagrange_residual(empty)"]
REALS = {
    "build_chart": ["alpha"], "cross_section_drift": ["alpha"], "lift_path": ["alpha"],
    "EnergyParams": ["beta"], "concatenate_rescaled": ["T"],
}
EXPONENTS = ["check_admissibility", "cross_section_drift", "GeodesicOptions", "solve_critical",
             "multistart", "lagrange_residual", "EnergyParams", "energy", "energy_gradient",
             "dual_map"]

CASES = (
    [(e, a, v) for e, args in STATES.items() for a in args
     for v in bad_states(DIMENSION[e])[:4 if e in SHAPE_ONLY else 6]]
    + [(e, a, v) for e, args in COUNTS.items() for a, least in args for v in BAD_COUNTS[least]]
    + [(e, a, v) for e, args in TOLERANCES.items() for a in args for v in BAD_TOLERANCES]
    + [(e, a, v) for e, args in REALS.items() for a in args for v in BAD_REALS]
    + [(e, "p", v) for e in EXPONENTS for v in BAD_P]
    + [(e, "mode", v) for e in MODES for v in BAD_MODES]
    + [("ControlSignal.value_at", "t", v) for v in (np.nan, -0.1, 1.5, "0.5", None)]
)


@pytest.mark.parametrize("entry, arg, value", CASES)
def test_a_bad_argument_is_a_config_error_that_names_it(entry, arg, value):
    with pytest.raises(ConfigError, match=rf"^{arg} must"):
        ENTRIES[entry](**{arg: value})


@pytest.mark.parametrize("key", ["n", "d"])
def test_the_counts_of_a_system_follow_the_count_rule(key):
    doc = json.loads(system_to_json(HEIS))
    doc[key] = 0
    with pytest.raises(ConfigError, match=rf"^{key} must be at least 1"):
        system_from_json(json.dumps(doc))
    with pytest.raises(ConfigError, match="^agrachev_lee's k must be at least 3"):
        catalog_load("agrachev_lee(2)")


@pytest.mark.parametrize("key", ["n", "d"])
def test_a_system_count_is_an_integer_written_as_one(key):
    doc = json.loads(system_to_json(HEIS))
    count = doc[key]
    for bad in (count + 0.7, str(count), True, None, [count]):
        doc[key] = bad
        with pytest.raises(ConfigError, match=rf"^{key} must be at least 1 and an integer"):
            system_from_json(json.dumps(doc))
    for good in (count, float(count)):  # 3 and 3.0 are the same count
        doc[key] = good
        system = system_from_json(json.dumps(doc))
        assert (system.n, system.d) == (HEIS.n, HEIS.d)


def test_every_entry_runs_on_its_defaults():
    # the table's defaults are valid, so each case above fails on its one bad argument
    for call in ENTRIES.values():
        call()


@st.composite
def drawn_bad_states(draw, n):
    """An array that is no state of dimension n: the wrong shape, or a
    non-finite entry."""
    if draw(st.booleans()):
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
                     .filter(lambda s: s != (n,)))
        return draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    v = draw(hnp.arrays(float, (n,), elements=st.floats(-1.0, 1.0)))
    v[draw(st.integers(0, n - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return v


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_state_of_the_wrong_shape_or_not_finite_is_refused(data):
    entry = data.draw(st.sampled_from(sorted(STATES)))
    arg = data.draw(st.sampled_from(STATES[entry]))
    n = DIMENSION[entry]
    v = data.draw(drawn_bad_states(n))
    if entry in SHAPE_ONLY and v.shape == (n,):
        if entry == "displacement":
            assert not np.isfinite(ENTRIES[entry](**{arg: v})).all()
        elif entry == "differential(trajectory=)":
            with pytest.raises(ConfigError, match="not the recorded run"):
                ENTRIES[entry](**{arg: v})
        else:  # a run starts anywhere of the right shape: a non-finite start escapes at t = 0
            with pytest.raises(DomainEscapeError) as exc:
                ENTRIES[entry](**{arg: v})
            assert exc.value.t == 0.0
        return
    with pytest.raises(ConfigError, match=rf"^{arg} must") as exc:
        ENTRIES[entry](**{arg: v})
    if v.shape != (n,):
        assert f"state dimension {n}" in str(exc.value)


@pytest.mark.parametrize("command, flag", [
    ("endpoint", "--x"), ("jacobian", "--x"), ("steer", "--x"), ("steer", "--y"),
    ("lift", "--x0"), ("geodesics", "--x"), ("geodesics", "--y"),
])
def test_the_cli_names_the_flag_of_a_state_of_the_wrong_size(command, flag, capsys, tmp_path):
    control = tmp_path / "u.json"
    control.write_text(U.to_json())
    path = tmp_path / "path.json"
    path.write_text('{"samples": [0.0, 1.0], "targets": [[0, 0, 0], [0.01, 0, 0]]}')
    good = {"--x": "0,0,0", "--y": "0,0,0.01", "--x0": "0,0,0", "--control": str(control),
            "--path": str(path)}
    flags = {"endpoint": "--x --control", "jacobian": "--x --control", "steer": "--x --y",
             "lift": "--x0 --path", "geodesics": "--x --y"}[command]
    argv = [command, "--system", "heisenberg"]
    for f in flags.split():
        argv += [f, "0,0" if f == flag else good[f]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must have shape (3,)") and "state dimension 3" in err
