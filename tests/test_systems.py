import dis
import json

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizon import (
    BracketWord,
    ConfigError,
    ControlSignal,
    ControlSystem,
    NotBracketGeneratingError,
    SymbolicField,
    UnsupportedRepresentationError,
    bracket_frame,
    catalog_load,
    catalog_names,
    differential,
    displacement,
    integrate,
    lie_bracket,
    polynomial_field,
    state_symbols,
    system_from_json,
    system_to_json,
)
from test_endpoint import _FALLBACK_SYSTEMS
from test_steering import heis_with_drift


def test_symbolic_field_eval():
    x0, x1, x2 = state_symbols(3)
    f = SymbolicField([x1 * x2, -x0, sp.Float(2)], coords=(x0, x1, x2))
    pt = np.array([1.0, 2.0, 3.0])
    assert np.allclose(f.value(pt), [6.0, -1.0, 2.0])


def test_second_derivative_symmetric():
    x0, x1 = state_symbols(2)
    f = SymbolicField([x0**2 * x1, x0 * x1**2], coords=(x0, x1))
    pt = np.array([0.7, -1.3])
    # the system's second-derivative stack: the zero drift, then the one field
    D = ControlSystem("quadratic", [f]).field_second_derivatives(pt[None])[0, 1]
    assert np.allclose(D, np.swapaxes(D, 1, 2))
    # check one entry by hand: d^2 f_0 / dx0 dx1 = 2 x0
    assert np.isclose(D[0, 0, 1], 2 * 0.7)


def test_control_system_takes_symbolic_fields_only():
    x = state_symbols(2)
    f = SymbolicField([1, 0], coords=x)
    with pytest.raises(ConfigError, match="SymbolicField"):
        ControlSystem("opaque", [f, lambda z: np.array([0.0, z[0]])])
    with pytest.raises(ConfigError, match="SymbolicField"):
        ControlSystem("opaque_drift", [f], drift=lambda z: np.array([0.0, 1.0]))


def test_polynomial_field():
    f = polynomial_field(
        [
            [{"coef": 2.0, "exponents": [1, 0]}],
            [{"coef": -1.0, "exponents": [0, 2]}],
        ],
        n=2,
    )
    pt = np.array([3.0, 2.0])
    assert np.allclose(f.value(pt), [6.0, -4.0])


def test_heisenberg_brackets():
    heis = catalog_load("heisenberg")
    X1, X2 = heis.fields
    b = lie_bracket(X1, X2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        pt = rng.normal(size=3)
        assert np.allclose(b.value(pt), [0.0, 0.0, 1.0])


def test_martinet_deep_bracket():
    mart = catalog_load("martinet")
    X1, X2 = mart.fields
    w = lie_bracket(X1, lie_bracket(X1, X2))
    assert np.allclose(w.value(np.zeros(3)), [0.0, 0.0, 2.0])


def test_word_field_right_normed():
    mart = catalog_load("martinet")
    w = mart.word_field(BracketWord((1, 1, 2)))
    assert np.allclose(w.value(np.zeros(3)), [0.0, 0.0, 2.0])
    assert str(BracketWord((1, 1, 2))) == "[[1,[1,2]]]"


def test_commutator_flow_slope():
    # e^{-tY} e^{-tX} e^{tY} e^{tX} x = x + t^2 [X,Y](x) + O(t^3)
    heis = catalog_load("heisenberg")
    X1, X2 = heis.fields

    def flow(field, x, t, steps=64):
        h = t / steps
        for _ in range(steps):
            k1 = field.value(x)
            k2 = field.value(x + 0.5 * h * k1)
            k3 = field.value(x + 0.5 * h * k2)
            k4 = field.value(x + h * k3)
            x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        return x

    x = np.array([0.3, -0.2, 0.1])
    br = lie_bracket(X1, X2).value(x)
    for t in [0.1, 0.05]:
        y = flow(X2, flow(X1, flow(X2, flow(X1, x, t), t), -t), -t)
        assert np.allclose((y - x) / t**2, br, atol=5 * t)


def test_bracket_frames():
    heis = catalog_load("heisenberg")
    words, step = bracket_frame(heis, np.zeros(3))
    assert [str(w) for w in words] == ["[1]", "[2]", "[[1,2]]"]
    assert step == 2

    mart = catalog_load("martinet")
    words, step = bracket_frame(mart, np.zeros(3))
    assert step == 3
    assert str(words[-1]) == "[[1,[1,2]]]"

    uni = catalog_load("unicycle")
    _, step = bracket_frame(uni, np.zeros(3))
    assert step == 2

    al = catalog_load("agrachev_lee(3)")
    _, step = bracket_frame(al, np.zeros(2))
    assert step == 3


def test_bracket_frame_deterministic():
    heis = catalog_load("heisenberg")
    w1, _ = bracket_frame(heis, np.array([0.2, -0.1, 0.3]))
    w2, _ = bracket_frame(heis, np.array([0.2, -0.1, 0.3]))
    assert [w.leaves for w in w1] == [w.leaves for w in w2]


def test_not_bracket_generating():
    x0, x1 = state_symbols(2)
    f = SymbolicField([sp.Float(1), sp.Float(0)], coords=(x0, x1))
    sys2 = ControlSystem("flat", [f])
    with pytest.raises(NotBracketGeneratingError):
        bracket_frame(sys2, np.zeros(2), max_depth=3)


def test_catalog():
    names = catalog_names()
    assert "heisenberg" in names and "martinet" in names
    assert catalog_load("heisenberg") is catalog_load("heisenberg")
    al = catalog_load("agrachev_lee(4)")
    assert al.n == 2 and al.d == 2 and not al.is_driftless
    with pytest.raises(ConfigError):
        catalog_load("nope")


def test_dynamics_and_jacobian():
    al = catalog_load("agrachev_lee(3)")
    x = np.array([0.5, 0.2])
    u = np.array([1.0, 2.0])

    def rhs(z):
        return np.concatenate([[1.0], u]) @ al.field_values(z)

    # drift (0, x1^2) + u1 (1,0) + u2 (0, x1^3)
    assert np.allclose(rhs(x), [1.0, 0.25 + 2 * 0.125])
    eps = 1e-6
    J = al.dynamics_jacobian(x[None], u[None])[0]
    for j in range(2):
        ep, em = x.copy(), x.copy()
        ep[j] += eps
        em[j] -= eps
        col = (rhs(ep) - rhs(em)) / (2 * eps)
        assert np.allclose(J[:, j], col, atol=1e-7)


def _assert_matches_numpy_scalar_reference(system, x):
    # the fast path (Python-float evaluation) must reproduce the plain
    # numpy-scalar evaluation; dynamics_jacobian takes point stacks only and
    # is checked by _assert_batch_matches_numpy_reference
    x = np.asarray(x, dtype=float)
    for stack, got in (
        (system._values, system.field_values(x)),
        (system._jacobians, system.field_jacobians(x)),
    ):
        ref = np.asarray(stack._fn(*x), dtype=float).reshape(stack._shape)
        assert np.array_equal(got, ref)


_point = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3)


@pytest.mark.parametrize(
    "name", [name.replace("(k)", "(3)") for name in catalog_names()]
)
@settings(max_examples=40, deadline=None)
@given(x=_point)
def test_catalog_evaluation_is_bitwise_numpy(name, x):
    system = catalog_load(name)
    _assert_matches_numpy_scalar_reference(system, x[: system.n])


@st.composite
def _polynomial_system(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    term = st.fixed_dictionaries(
        {
            "coef": st.floats(-3.0, 3.0, allow_nan=False),
            "exponents": st.lists(st.integers(0, 4), min_size=n, max_size=n),
        }
    )
    field = st.lists(st.lists(term, max_size=3), min_size=n, max_size=n)
    obj = {"n": n, "d": d, "fields": draw(st.lists(field, min_size=d, max_size=d))}
    if draw(st.booleans()):
        obj["drift"] = draw(field)
    return system_from_json(json.dumps(obj))


@settings(max_examples=40, deadline=None)
@given(system=_polynomial_system(), x=_point)
def test_polynomial_evaluation_is_bitwise_numpy(system, x):
    _assert_matches_numpy_scalar_reference(system, x[: system.n])


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _assert_batch_matches_numpy_reference(system, X, U):
    # a point stack is one vectorised call of the compiled Jacobian stack, and
    # row i of the batched dynamics Jacobian is the one-point formula at row i;
    # row i of a batched value or Jacobian stack has the bits of the one-point
    # (Python float) evaluation at row i, so the tangent blocks and the second
    # derivatives see the stage values that the state run computed
    X = np.asarray(X, dtype=float)[:, : system.n]
    U = np.asarray(U, dtype=float)[:, : system.d]
    stack = system._jacobians
    out = stack._fn(*(X[:, i] for i in range(system.n)))
    cols = [np.broadcast_to(np.asarray(o, dtype=float), (len(X),)) for o in out]
    J = system.field_jacobians(X)
    assert np.array_equal(J, np.stack(cols, axis=1).reshape((len(X),) + stack._shape))
    V = system.field_values_batch(X)
    A = system.dynamics_jacobian(X, U)
    assert A.shape == (len(X), system.n, system.n)
    for i in range(len(X)):
        assert _same_bits(V[i], system.field_values(X[i]))
        assert _same_bits(J[i], system.field_jacobians(X[i]))
        assert np.array_equal(A[i], J[i, 0] + np.tensordot(U[i], J[i, 1:], axes=(0, 0)))


_stack_of_points = st.lists(_point, min_size=1, max_size=6)


@pytest.mark.parametrize(
    "name", [name.replace("(k)", "(3)") for name in catalog_names()]
)
@settings(max_examples=40, deadline=None)
@given(X=_stack_of_points, U=_stack_of_points)
# agrachev_lee(3)'s x0**3 here was 3.854760583946203 as a Python float power
# and 3.8547605839462027 as a numpy array power
@example(X=[[1.567950940122659, 2.9868622904415214, 0.0]], U=[[1.0, 1.0, 1.0]])
def test_catalog_batch_evaluation_is_bitwise_numpy(name, X, U):
    U = (U * len(X))[: len(X)]
    _assert_batch_matches_numpy_reference(catalog_load(name), X, U)


@settings(max_examples=40, deadline=None)
@given(system=_polynomial_system(), X=_stack_of_points, U=_stack_of_points)
def test_polynomial_batch_evaluation_is_bitwise_numpy(system, X, U):
    U = (U * len(X))[: len(X)]
    _assert_batch_matches_numpy_reference(system, X, U)


def test_power_of_a_function_evaluates_the_function_once(monkeypatch):
    # cos(x1)**2 prints as ((_b := cos(x1))*_b): one cos per evaluation in the
    # value stack and per stage of each step of the generated state run, which
    # prints the stack's expressions, and the float, batch and state-run paths
    # still agree bit for bit
    from test_endpoint import _reference_states

    x = state_symbols(2)
    system = ControlSystem("cos_squared", [SymbolicField([1, 0], coords=x),
                                           SymbolicField([0, sp.cos(x[1]) ** 2], coords=x)])
    scope = system._values._fn.__globals__
    real_cos, calls = scope["cos"], []

    def cos(a):
        calls.append(a)
        return real_cos(a)

    monkeypatch.setitem(scope, "cos", cos)  # before state_run copies the scope
    X = np.array([[0.3, 0.7], [-1.1, 2.5], [0.0, -0.4]])
    V = system.field_values_batch(X)
    assert len(calls) == 1
    for i in range(len(X)):
        assert _same_bits(system.field_values(X[i]), V[i])
    assert len(calls) == 1 + len(X)
    rows, escaped = system.state_run([0.3, 0.7], [0.0, 0.1], [[1.0, -0.5]], 1, 1e6, None)
    assert len(rows) == 4 and not escaped  # x0 and one step
    assert len(calls) == 1 + len(X) + 4
    system.state_run([0.3, 0.7], [0.0, 0.1, 0.3], [[1.0, -0.5], [0.2, 0.7]], 3, 1e6, None)
    assert len(calls) == 1 + len(X) + 4 + 2 * 3 * 4
    u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([[1.0, -0.5], [0.2, 0.7]]))
    states = integrate(system, [0.3, 0.7], u, substeps=3).states
    assert states.tobytes() == _reference_states(system, [0.3, 0.7], u, 3).tobytes()


# float-safe catalog systems, and systems whose runs need numpy scalars
_RUN_SYSTEMS = [*map(catalog_load, ("heisenberg", "unicycle", "agrachev_lee(3)")),
                *_FALLBACK_SYSTEMS.values()]


def test_state_run_never_calls_field_values(monkeypatch):
    # every stage prints the stack's expressions, also where Python floats
    # are unsafe: a fractional power runs on numpy scalars from the start, and
    # a rational field at its pole runs once more on them
    class Reached(Exception):
        pass

    def reached(self, x):
        raise Reached

    monkeypatch.setattr(ControlSystem, "field_values", reached)
    u = ControlSignal(np.array([0.0, 0.3, 1.0]), np.array([[1.0, -0.5], [0.2, 0.7]]))
    for system in _RUN_SYSTEMS:
        for x0 in ([1.1] * system.n, [0.0] * system.n):
            with np.errstate(all="ignore"):
                system.state_run(x0, u.breakpoints.tolist(), u.values.tolist(), 3, 1e6, [])
        differential(system, np.full(system.n, 1.1), u, substeps=3)


@pytest.mark.parametrize("system", _RUN_SYSTEMS, ids=[system.name for system in _RUN_SYSTEMS])
def test_generated_state_run_has_one_retry(system):
    # one handler for the whole run, none per stage, and no call back into
    # the value stack's evaluation
    loads = [i.argval for i in dis.get_instructions(system.state_run) if i.opname == "LOAD_GLOBAL"]
    assert loads.count("ArithmeticError") == 1
    assert loads.count("run") == 1 and "values" not in loads


def test_field_evaluation_keeps_numpy_inf_and_nan():
    # where Python-float arithmetic would raise or go complex, the value is
    # the numpy one: inf for 0 ** -1 and an overflowing power, nan for a
    # fractional power of a negative base
    x = state_symbols(2)
    f = SymbolicField([1 / x[0] + x[1] ** 9, x[0] ** sp.Rational(3, 2) + sp.cos(x[1])], coords=x)
    with np.errstate(all="ignore"):
        assert f.value([0.0, 1.0])[0] == np.inf
        assert f.value([1.0, 1e40])[0] == np.inf
        assert np.isnan(f.value([-1.0, 0.3])[1])


def test_constant_stack_returns_fresh_copies():
    heis = catalog_load("heisenberg")
    J = heis.field_jacobians(np.zeros(3))
    ref = J.copy()
    J[:] = 7.0
    assert np.array_equal(heis.field_jacobians(np.ones(3)), ref)


def test_non_polynomial_system_has_no_json_form():
    with pytest.raises(UnsupportedRepresentationError, match="non-polynomial"):
        system_to_json(catalog_load("unicycle"))


def test_system_json_roundtrip():
    heis = catalog_load("heisenberg")
    text = system_to_json(heis)
    back = system_from_json(text)
    rng = np.random.default_rng(1)
    for _ in range(5):
        pt = rng.normal(size=3)
        assert np.allclose(back.field_values(pt), heis.field_values(pt))
    assert system_to_json(back) == text  # deterministic


def test_displacement_wraps_periodic():
    uni = catalog_load("unicycle")
    a = np.array([0.0, 0.0, 3.1])
    b = np.array([0.0, 0.0, -3.1])
    d = displacement(uni, a, b)
    assert abs(d[2] - (2 * np.pi - 6.2)) < 1e-12
    heis = catalog_load("heisenberg")
    assert np.allclose(displacement(heis, a, b), b - a)


# name -> (fixed-slope, moving, moving on fixed-slope coordinates alone, one step exact)
_SLOPE_SPLITS = {
    "heisenberg": ((0, 1), (2,), (2,), True),
    "martinet": ((0, 1), (2,), (2,), True),
    "grushin": ((0,), (1,), (1,), True),
    "free_step2_rank2": ((0, 1), (2,), (2,), True),
    "agrachev_lee(3)": ((0,), (1,), (1,), True),
    "heis_drift": ((0, 1), (2,), (2,), True),
    "agrachev_lee(4)": ((0,), (1,), (1,), False),  # x0^4: Simpson's rule misses a quartic
    "agrachev_lee(7)": ((0,), (1,), (1,), False),
    "unicycle": ((2,), (0, 1), (0, 1), False),  # cos, sin of the heading
}


def test_slope_split_classifies_the_catalog():
    # read from the expressions alone; every catalog family is covered
    assert {name.split("(")[0] for name in catalog_names()} <= {
        name.split("(")[0] for name in _SLOPE_SPLITS}
    for name, split in _SLOPE_SPLITS.items():
        system = heis_with_drift() if name == "heis_drift" else catalog_load(name)
        assert tuple(system.slope_split) == split, name


def test_slope_split_needs_a_cubic_in_fixed_slope_coordinates_alone():
    x = state_symbols(3)

    def split(a, b, c):  # fields (1, 0, a), (0, 1, b), drift (0, 0, c)
        fields = [SymbolicField([1, 0, a], coords=x), SymbolicField([0, 1, b], coords=x)]
        return ControlSystem("s", fields, drift=SymbolicField([0, 0, c], coords=x)).slope_split

    assert split(x[0] * x[1] ** 2, x[0] ** 3 - 2, 0.5 * x[0] * x[1]).exact  # total degree 3
    assert not split(x[0] ** 2 * x[1] ** 2, 0, 0).exact  # total degree 4
    assert not split(sp.sqrt(1 + x[0] ** 2), 0, 0).exact  # not a polynomial
    assert split(x[2], 0, 0) == ((0, 1), (2,), (), False)  # the third reads itself
    # a coordinate whose slope is the drift's constant alone is fixed-slope too
    drifting = ControlSystem("d", [SymbolicField([0, 1], coords=x[:2])],
                             drift=SymbolicField([1, x[0] ** 3], coords=x[:2])).slope_split
    assert drifting == ((0,), (1,), (1,), True)


def test_unicycle_fields_flow_exactly_though_its_system_does_not():
    # under X_1 = (cos x2, sin x2, 0) the heading x2 is still, so the position
    # slopes are constants; a mixed control turns the heading under them
    uni = catalog_load("unicycle")
    assert uni.field_flow_exact == (True, True)
    assert not uni.slope_split.exact


def test_field_flow_exact_reads_the_drift_and_one_field():
    x = state_symbols(2)
    drift = SymbolicField([0, x[0] ** 2], coords=x)
    # X_1 moves x0, so x1's slope x0^2 + c x0^4 is a quartic in t; X_2 leaves
    # x0 still, so x1's slope x0^2 + c x0^5 is a constant
    system = ControlSystem("s", [SymbolicField([1, x[0] ** 4], coords=x),
                                 SymbolicField([0, x[0] ** 5], coords=x)], drift=drift)
    assert system.field_flow_exact == (False, True)
    # a coefficient may be any expression in the still coordinates (x1 here),
    # but not in a moving one (x1 reads itself there)
    x3 = state_symbols(3)
    scaled = ControlSystem("u", [SymbolicField([1, 0, sp.exp(x3[1]) * x3[0] ** 3], coords=x3)])
    assert scaled.field_flow_exact == (True,)
    moving = ControlSystem("t", [SymbolicField([1, sp.exp(x[1]) * x[0] ** 3], coords=x)])
    assert moving.field_flow_exact == (False,)


def test_third_stage_slope_of_a_component_on_fixed_coordinates_is_its_second(monkeypatch):
    # the unicycle's position slopes read only the heading, a fixed-slope
    # coordinate whose second and third stage points coincide: cos is taken at
    # stages 1, 2 and 4 of a step, and the run is still plain RK4 bit for bit
    from test_endpoint import _reference_states

    x = state_symbols(3)
    system = ControlSystem("unicycle", [SymbolicField([sp.cos(x[2]), sp.sin(x[2]), 0], coords=x),
                                        SymbolicField([0, 0, 1], coords=x)])
    scope = system._values._fn.__globals__
    real_cos, calls = scope["cos"], []
    monkeypatch.setitem(scope, "cos", lambda a: calls.append(a) or real_cos(a))
    u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([[1.0, -0.5], [0.2, 0.7]]))
    states = integrate(system, [0.3, 0.7, 0.1], u, substeps=3).states
    assert len(calls) == 3 * 2 * 3
    assert states.tobytes() == _reference_states(system, [0.3, 0.7, 0.1], u, 3).tobytes()


def _mixed_slopes():
    # x0 has a fixed slope, x1's slope reads x0 alone, x2's reads x2: the third
    # stage slope reads x2's third stage point and not x1's
    x = state_symbols(3)
    return ControlSystem("mixed_slopes", [SymbolicField([1, x[0] ** 2, x[2] ** 2 / 4], coords=x),
                                          SymbolicField([0, 1, x[0]], coords=x)])


@pytest.mark.parametrize("system, late, early", [
    (catalog_load("heisenberg"), ["c2"], []),
    (catalog_load("agrachev_lee(3)"), ["c1"], []),
    (_mixed_slopes(), ["c1"], ["c2"]),
])
def test_third_stage_points_no_slope_reads_are_formed_for_the_stage_record_alone(system, late,
                                                                                   early):
    ins = list(dis.get_instructions(system.state_run))
    stores = {i.argval: j for j, i in enumerate(ins) if i.opname == "STORE_FAST"}
    last_slope = max(j for name, j in stores.items() if name.startswith("k"))
    rec_loads = [j for j, i in enumerate(ins) if i.opname == "LOAD_FAST" and i.argval == "rec"]
    for name in late:  # after the step's last slope, behind a test of rec
        assert any(last_slope < j < stores[name] for j in rec_loads)
    for name in early:  # before the third stage slope that reads it
        assert stores[name] < stores[f"k2_{name[1:]}"]
    # the stage record is RK4's four stage points, as before
    assert system.d == 2
    u = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([[1.0, -0.5], [0.2, 0.7]]))
    x0 = np.linspace(0.3, -0.2, system.n)
    traj = integrate(system, x0, u, substeps=3, with_fundamental=True)
    ref = []
    for k in range(u.segments):
        h = (u.breakpoints[k + 1] - u.breakpoints[k]) / 3

        def f(z, uk=u.values[k]):  # the state run's sum, for two controls
            V = system.field_values(z)
            return V[0] + (uk[0] * V[1] + uk[1] * V[2])

        for z in traj.states[3 * k:3 * k + 3]:  # the state entering each step
            k1 = f(z)
            k2 = f(z + 0.5 * h * k1)
            k3 = f(z + 0.5 * h * k2)
            ref += [z, z + 0.5 * h * k1, z + 0.5 * h * k2, z + h * k3]
    assert traj.stages.tobytes() == np.array(ref).tobytes()
