import importlib
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horizon import (
    RANK_TOL,
    ConfigError,
    ControlSignal,
    DomainEscapeError,
    NotBracketGeneratingError,
    SingularFiberError,
    SymbolicField,
    ControlSystem,
    bracket_frame,
    catalog_load,
    catalog_names,
    constant_signal,
    differential,
    endpoint,
    fiber_project,
    integrate,
    regular_value_test,
    state_symbols,
    system_from_json,
    system_to_json,
    zero_signal,
)
import sympy as sp

from horizon.endpoint import BLOWUP_BOUND, EndpointDifferential
from horizon.steering import _single_field_flow
from oracle_hessian import reference_hessian
from test_steering import _driftless_system, heis_with_drift


def random_signal(rng, d, m=6):
    cuts = np.sort(rng.uniform(0.1, 0.9, size=m - 1))
    bps = np.concatenate([[0.0], cuts, [1.0]])
    return ControlSignal(bps, rng.normal(size=(m, d)))


def test_heisenberg_line():
    heis = catalog_load("heisenberg")
    u = constant_signal(np.array([1.0, 0.0]), 1.0)
    y = endpoint(heis, np.zeros(3), u)
    assert np.allclose(y, [1.0, 0.0, 0.0], atol=1e-13)


def test_heisenberg_square_loop():
    # unit square in (x, y) picks up exactly the enclosed area in z
    heis = catalog_load("heisenberg")
    bps = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    vals = 4.0 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    y = endpoint(heis, np.zeros(3), ControlSignal(bps, vals), substeps=32)
    assert np.allclose(y, [0.0, 0.0, 1.0], atol=1e-12)


def test_agrachev_drift_endpoint():
    al = catalog_load("agrachev_lee(3)")
    u = constant_signal(np.array([1.0, 0.0]), 1.0)
    y = endpoint(al, np.zeros(2), u)
    # x2' = x1^2 = t^2, exactly integrated by RK4
    assert np.allclose(y, [1.0, 1.0 / 3.0], atol=1e-14)


def test_endpoint_does_not_pin_the_trajectory():
    # the trajectory's endpoint is a view of its whole state array; endpoint()
    # returns a copy, so a kept endpoint keeps no trajectory alive
    heis = catalog_load("heisenberg")
    u = random_signal(np.random.default_rng(3), 2)
    traj = integrate(heis, np.zeros(3), u, substeps=4)
    assert traj.endpoint.base is not None
    y = endpoint(heis, np.zeros(3), u, substeps=4)
    assert y.base is None
    assert y.tobytes() == traj.endpoint.tobytes()


def test_zero_length_signal_returns_start():
    heis = catalog_load("heisenberg")
    x0 = np.array([0.3, -0.2, 0.5])
    assert np.allclose(endpoint(heis, x0, zero_signal(2)), x0)
    # an empty signal checks x0 like any other
    with pytest.raises(ConfigError, match=r"x0 must have shape \(3,\)"):
        endpoint(heis, [1.0, 2.0], zero_signal(2))


def test_rk4_step_halving():
    uni = catalog_load("unicycle")
    rng = np.random.default_rng(0)
    u = random_signal(rng, 2)
    ref = endpoint(uni, np.zeros(3), u, substeps=512)
    errs = [np.linalg.norm(endpoint(uni, np.zeros(3), u, substeps=s) - ref) for s in (4, 8, 16)]
    assert errs[0] / errs[1] > 8.0
    assert errs[1] / errs[2] > 8.0


def test_trajectory_csv():
    heis = catalog_load("heisenberg")
    traj = integrate(heis, np.zeros(3), constant_signal(np.array([1.0, 0.0]), 1.0), substeps=2)
    lines = traj.to_csv().strip().splitlines()
    assert lines[0] == "t,x_1,x_2,x_3"
    assert len(lines) == 4  # node rows


def test_differential_matches_fd():
    rng = np.random.default_rng(1)
    for name, n in [("heisenberg", 3), ("martinet", 3), ("unicycle", 3), ("agrachev_lee(3)", 2)]:
        system = catalog_load(name)
        for _ in range(3):
            u = random_signal(rng, system.d, m=5)
            x0 = np.zeros(n)
            diff = differential(system, x0, u, substeps=16)
            for _ in range(4):
                v = ControlSignal(u.breakpoints, rng.normal(size=u.values.shape))
                eps = 1e-6
                up = ControlSignal(u.breakpoints, u.values + eps * v.values)
                um = ControlSignal(u.breakpoints, u.values - eps * v.values)
                fd = (endpoint(system, x0, up, substeps=16) - endpoint(system, x0, um, substeps=16)) / (2 * eps)
                dv = diff.apply(v)
                assert np.linalg.norm(dv - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_remainder_is_second_order():
    heis = catalog_load("heisenberg")
    rng = np.random.default_rng(2)
    u = random_signal(rng, 2)
    v = ControlSignal(u.breakpoints, rng.normal(size=u.values.shape))
    diff = differential(heis, np.zeros(3), u, substeps=32)
    F0 = endpoint(heis, np.zeros(3), u, substeps=32)
    dv = diff.apply(v)
    eps = np.logspace(-5, -2, 7)
    rem = []
    for e in eps:
        ue = ControlSignal(u.breakpoints, u.values + e * v.values)
        rem.append(np.linalg.norm(endpoint(heis, np.zeros(3), ue, substeps=32) - F0 - e * dv))
    slope = np.polyfit(np.log(eps), np.log(rem), 1)[0]
    assert slope >= 1.9


def _richardson_jacobian(system, x0, u, substeps, eps=1e-3):
    # central differences of the RK4 endpoint at steps eps, eps/2, eps/4,
    # extrapolated twice, one control entry at a time
    J = np.empty((system.n, u.values.size))
    for k in range(u.values.size):
        D = []
        for e in (eps, eps / 2, eps / 4):
            step = np.zeros_like(u.values)
            step.flat[k] = e
            up = ControlSignal(u.breakpoints, u.values + step)
            um = ControlSignal(u.breakpoints, u.values - step)
            D.append((endpoint(system, x0, up, substeps) - endpoint(system, x0, um, substeps)) / (2 * e))
        R1, R2 = (4 * D[1] - D[0]) / 3, (4 * D[2] - D[1]) / 3
        J[:, k] = (16 * R2 - R1) / 15
    return J


def _jacobian_gap(system, x0, u, substeps):
    # (max |dF - FD|, max |FD|, max |F|)
    diff = differential(system, x0, u, substeps=substeps)
    fd = _richardson_jacobian(system, x0, u, substeps)
    return np.abs(diff.matrix - fd).max(), np.abs(fd).max(), np.abs(diff.endpoint).max()


_POLY_WITH_DRIFT = json.dumps({
    "name": "poly_drift",
    "n": 3,
    "d": 2,
    "fields": [
        [[{"coef": 1.0, "exponents": [0, 0, 0]}],
         [{"coef": 0.5, "exponents": [1, 0, 0]}],
         [{"coef": 1.0, "exponents": [0, 2, 0]}, {"coef": -0.4, "exponents": [1, 1, 1]}]],
        [[{"coef": 0.7, "exponents": [0, 0, 1]}],
         [{"coef": 1.0, "exponents": [0, 0, 0]}, {"coef": 0.3, "exponents": [2, 0, 0]}],
         [{"coef": -1.0, "exponents": [1, 0, 0]}]],
    ],
    "drift": [[{"coef": 0.3, "exponents": [0, 1, 0]}], [], [{"coef": -0.2, "exponents": [1, 1, 0]}]],
})


@pytest.mark.parametrize("substeps", [1, 2, 16])
@pytest.mark.parametrize(
    "name", ["heisenberg", "martinet", "unicycle", "grushin", "agrachev_lee(3)", "poly_drift"]
)
def test_differential_is_the_exact_rk4_jacobian(name, substeps):
    # the differential is the Jacobian of the discrete map itself, at every
    # substep count, not an approximation of the ODE's
    system = system_from_json(_POLY_WITH_DRIFT) if name == "poly_drift" else catalog_load(name)
    rng = np.random.default_rng(substeps)
    for _ in range(2):
        u = random_signal(rng, system.d, m=5)
        x0 = 0.3 * rng.normal(size=system.n)
        gap, scale, _ = _jacobian_gap(system, x0, u, substeps)
        assert gap <= 1e-9 * scale


def _monomials(n, degree=3):
    return [list(e) for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]


@st.composite
def _small_polynomial_system(draw, drift=st.booleans(), degree=3, fixed=False):
    # n <= 3, d <= 2, total degree <= degree, a drift where drift draws True;
    # with fixed, one component is constant in the drift and every field
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    coef = st.integers(-8, 8).map(lambda k: k / 4)
    term = st.fixed_dictionaries({"coef": coef, "exponents": st.sampled_from(_monomials(n, degree))})
    field = st.lists(st.lists(term, max_size=3), min_size=n, max_size=n)
    if fixed:
        i = draw(st.integers(0, n - 1))
        const = st.lists(st.fixed_dictionaries({"coef": coef, "exponents": st.just([0] * n)}), max_size=3)
        field = st.tuples(field, const).map(lambda fc: fc[0][:i] + [fc[1]] + fc[0][i + 1:])
    obj = {"n": n, "d": d, "fields": draw(st.lists(field, min_size=d, max_size=d))}
    if draw(drift):
        obj["drift"] = draw(field)
    return system_from_json(json.dumps(obj))


@st.composite
def _short_signal(draw, d, max_m=4):
    m = draw(st.integers(1, max_m))
    durations = draw(st.lists(st.floats(0.05, 0.3), min_size=m, max_size=m))
    values = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d), min_size=m, max_size=m))
    return ControlSignal(np.concatenate([[0.0], np.cumsum(durations)]), np.array(values))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), system=_small_polynomial_system(), substeps=st.sampled_from([1, 2, 4]))
def test_random_polynomial_differential_is_exact(data, system, substeps):
    u = data.draw(_short_signal(system.d))
    x0 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 8
    try:
        endpoint(system, x0, u, substeps)
    except DomainEscapeError:
        assume(False)
    # the FD reference rounds at about eps_mach |F| / 1e-3, so a Jacobian far
    # smaller than the endpoint is measured against the endpoint's size
    gap, scale, size = _jacobian_gap(system, x0, u, substeps)
    assert gap <= 1e-9 * max(scale, size)


def _hessian_gap(system, x0, u, substeps, lam, eps=5e-4, halvings=3):
    # (max |H - FD|, max |FD|, max |dF| |lam|_1): the reference differentiates
    # dF^T lam by five-point central differences (Richardson on steps e and
    # 2 e) at e = eps / 2^j, j = 0..halvings, extrapolates each neighbouring
    # pair once more as their step^4 errors dictate, and, one control entry at
    # a time, keeps the extrapolate that moves least from the one before it
    # (Ridders' choice of step): near a finite-time blow-up the higher
    # derivatives leave eps alone a step^6 error above the bound.  It rounds
    # at about eps_mach 2^halvings / eps times the size of the terms of dF^T lam
    def grad(values):
        return differential(system, x0, ControlSignal(u.breakpoints, values), substeps).matrix.T @ lam

    diff = differential(system, x0, u, substeps)
    H = diff.hessian(lam)
    assert np.array_equal(H, H.T)
    fd = np.empty_like(H)
    for k in range(u.values.size):
        R = []
        for e in eps / 2.0 ** np.arange(halvings + 1):
            step = np.zeros_like(u.values)
            step.flat[k] = e
            g = [grad(u.values + c * step) for c in (-2, -1, 1, 2)]
            R.append((8 * (g[2] - g[1]) - (g[3] - g[0])) / (12 * e))
        E = [(16 * R[j + 1] - R[j]) / 15 for j in range(halvings)]
        moves = [np.abs(E[j + 1] - E[j]).max() for j in range(halvings - 1)]
        fd[:, k] = E[int(np.argmin(moves)) + 1]
    return np.abs(H - fd).max(), np.abs(fd).max(), np.abs(diff.matrix).max() * np.abs(lam).sum()


@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("name", [name.replace("(k)", "(3)") for name in catalog_names()] + ["poly_drift"])
def test_hessian_is_the_exact_second_derivative(name, substeps):
    # lam . F differentiated twice through the recorded RK4 stages, on
    # non-uniform breakpoints
    system = system_from_json(_POLY_WITH_DRIFT) if name == "poly_drift" else catalog_load(name)
    rng = np.random.default_rng(10 + substeps)
    for _ in range(2):
        u = random_signal(rng, system.d, m=4)
        x0 = 0.3 * rng.normal(size=system.n)
        gap, scale, size = _hessian_gap(system, x0, u, substeps, rng.normal(size=system.n))
        assert gap <= 1e-9 * max(scale, size)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), system=_small_polynomial_system(), substeps=st.integers(1, 3))
def test_random_polynomial_hessian_is_exact(data, system, substeps):
    u = data.draw(_short_signal(system.d))
    x0 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 8
    lam = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 4
    try:
        endpoint(system, x0, u, substeps)
    except DomainEscapeError:
        assume(False)
    gap, scale, size = _hessian_gap(system, x0, u, substeps, lam)
    assert gap <= 1e-9 * max(scale, size)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), system=_small_polynomial_system(drift=st.just(True)),
       substeps=st.integers(1, 4))
def test_hessian_matches_the_forward_second_order_reference(data, system, substeps):
    # the stage-adjoint Hessian against the second-order forward tangent
    # recursion of tests/oracle_hessian.py, on the same recorded stages and
    # non-uniform breakpoints
    u = data.draw(_short_signal(system.d, max_m=8))
    x0 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 8
    lam = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 4
    try:
        diff = differential(system, x0, u, substeps)
    except DomainEscapeError:
        assume(False)
    # the two sum the same terms in different orders, so they agree to rounding
    # in the size of those terms, which can cancel to an exact 0 in ref
    H, ref = diff.hessian(lam), reference_hessian(diff, lam)
    terms = reference_hessian(diff, lam, magnitudes=True)
    assert np.array_equal(H, H.T)
    assert np.abs(H - ref).max() <= 1e-12 * terms.max()


def test_hessian_integrates_nothing_and_evaluates_second_derivatives_once(monkeypatch):
    # everything hessian needs beyond the stage states, the kept stage
    # tangents and the transitions is one Jacobian and one second-derivative
    # evaluation at the recorded stages
    system = system_from_json(_POLY_WITH_DRIFT)
    u = random_signal(np.random.default_rng(3), system.d, m=5)
    diff = differential(system, np.full(3, 0.1), u, substeps=2)
    lam = np.array([0.5, -1.0, 2.0])
    first = diff.hessian(lam)

    def refused(*args, **kwargs):
        raise AssertionError("hessian ran an integration or a tangent pass")

    module = importlib.import_module("horizon.endpoint")
    for name in ("integrate", "differential", "_tangent_blocks", "rk4_step"):
        monkeypatch.setattr(module, name, refused)

    class Counted:
        def __init__(self, stack):
            self.stack, self.calls = stack, 0

        def batch(self, pts):
            self.calls += 1
            return self.stack.batch(pts)

    stack = Counted(system._second_derivatives)
    monkeypatch.setattr(system, "_second_derivatives", stack)
    assert np.array_equal(diff.hessian(lam), first)
    assert stack.calls == 1


def _counted_second_derivatives():
    # counts ControlSystem.field_second_derivatives calls on any system
    real = ControlSystem.field_second_derivatives
    return mock.patch.object(ControlSystem, "field_second_derivatives", autospec=True, side_effect=real)


def _assert_matches_reference_hessian(diff, H, lam):
    assert np.array_equal(H, H.T)
    terms = reference_hessian(diff, lam, magnitudes=True)
    assert np.abs(H - reference_hessian(diff, lam)).max() <= 1e-12 * terms.max()


@pytest.mark.parametrize("name, evaluations", [("heisenberg", 0), ("agrachev_lee(3)", 1)])
def test_second_derivatives_are_evaluated_only_where_they_are_not_all_zero(name, evaluations):
    # Heisenberg's fields are affine, so hessian has no curvature pass;
    # agrachev_lee(3)'s are not, and its stack is evaluated once per call
    system = catalog_load(name)
    u = random_signal(np.random.default_rng(8), system.d, m=5)
    diff = differential(system, np.full(system.n, 0.2), u, substeps=2)
    lam = np.linspace(1.0, -0.5, system.n)
    with _counted_second_derivatives() as stack:
        H = diff.hessian(lam)
    assert stack.call_count == evaluations
    _assert_matches_reference_hessian(diff, H, lam)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), system=_small_polynomial_system(degree=1), substeps=st.integers(1, 3))
def test_affine_fields_skip_the_curvature_pass(data, system, substeps):
    u = data.draw(_short_signal(system.d, max_m=6))
    x0 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 8
    lam = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 4
    with _counted_second_derivatives() as stack:
        try:
            diff = differential(system, x0, u, substeps)
        except DomainEscapeError:
            assume(False)
        H = diff.hessian(lam)
    assert stack.call_count == 0
    _assert_matches_reference_hessian(diff, H, lam)


@pytest.mark.parametrize("entry", ["hessian", "dual_signal", "apply"])
def test_differential_refuses_wrongly_shaped_multipliers_and_directions(entry):
    heis = catalog_load("heisenberg")
    u = random_signal(np.random.default_rng(4), heis.d, m=3)
    diff = differential(heis, np.zeros(3), u, substeps=2)
    if entry == "apply":
        for v in (np.ones(6), np.ones((3, 3)), ControlSignal(u.breakpoints, np.ones((3, 1)))):
            with pytest.raises(ConfigError, match=r"direction must have shape \(3, 2\)"):
                diff.apply(v)
        return
    for lam in (np.ones(4), np.ones((3, 1)), 1.0):
        with pytest.raises(ConfigError, match=r"lam must have shape \(3,\), got"):
            getattr(diff, entry)(lam)


def _reference_states(system, x0, u, substeps):
    # RK4 on numpy arrays with elementwise operations only: the control sum is
    # V[0] + (u[0]*V[1] + u[1]*V[2]), left to right, with no @ or dot.  A
    # state outside |x_i| <= BLOWUP_BOUND (NaN included), x0 or a step's,
    # raises DomainEscapeError at its time, t0 + (j + 1) h for step j
    def f(x, uk):
        V = system.field_values(x)
        acc = uk[0] * V[1]
        for i in range(1, system.d):
            acc = acc + uk[i] * V[i + 1]
        return V[0] + acc

    def checked(z, t):
        if not np.all(np.abs(z) <= BLOWUP_BOUND):
            raise DomainEscapeError(f"trajectory left |x|_inf <= {BLOWUP_BOUND:g} at t={t:.6g}",
                                    t=float(t), state=z)
        return z

    z = checked(np.asarray(x0, dtype=float), 0.0)
    rows = [z]
    for k in range(u.segments):
        uk = u.values[k]
        h = (u.breakpoints[k + 1] - u.breakpoints[k]) / substeps
        for j in range(substeps):
            k1 = f(z, uk)
            k2 = f(z + 0.5 * h * k1, uk)
            k3 = f(z + 0.5 * h * k2, uk)
            k4 = f(z + h * k3, uk)
            z = checked(z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), u.breakpoints[k] + (j + 1) * h)
            rows.append(z)
    return np.array(rows)


def _assert_states_match_reference(system, x0, u, substeps):
    try:
        states = integrate(system, x0, u, substeps).states
    except DomainEscapeError:
        assume(False)
    assert states.tobytes() == _reference_states(system, x0, u, substeps).tobytes()


@pytest.mark.parametrize("name", [name.replace("(k)", "(3)") for name in catalog_names()])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), substeps=st.integers(1, 4))
def test_catalog_states_are_plain_elementwise_rk4(name, data, substeps):
    # the state run's arithmetic, summation order included, is pinned: no
    # BLAS-dependent control sum
    system = catalog_load(name)
    u = data.draw(_short_signal(system.d))
    x0 = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=system.n, max_size=system.n))
    _assert_states_match_reference(system, x0, u, substeps)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), system=_small_polynomial_system(), substeps=st.integers(1, 4))
def test_random_polynomial_states_are_plain_elementwise_rk4(data, system, substeps):
    u = data.draw(_short_signal(system.d))
    x0 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 8
    _assert_states_match_reference(system, x0, u, substeps)


def _fractional_power_drift_system():
    x = state_symbols(2)
    fields = [SymbolicField([1, 0], coords=x), SymbolicField([0, x[0] ** sp.Rational(3, 2)], coords=x)]
    drift = SymbolicField([x[1] / 5, x[0] ** sp.Rational(1, 2)], coords=x)
    return ControlSystem("fractional_power_drift", fields, drift=drift)


def _fractional_power_fixed_first_system():
    # the first component's slope is free of the coordinates
    x = state_symbols(2)
    fields = [SymbolicField([1, 0], coords=x), SymbolicField([0, x[0] ** sp.Rational(3, 2)], coords=x)]
    drift = SymbolicField([sp.Rational(1, 5), x[0] ** sp.Rational(1, 2)], coords=x)
    return ControlSystem("fractional_power_fixed_first", fields, drift=drift)


def _rational_system():
    # negative integer powers: float-safe, but Python floats raise
    # ZeroDivisionError at the pole x0 = 0, where numpy gives inf
    x = state_symbols(2)
    fields = [SymbolicField([1, 0], coords=x), SymbolicField([0, 1 / x[0] + x[1] ** 3], coords=x)]
    drift = SymbolicField([x[1] / (1 + x[0] ** 2), 0], coords=x)
    return ControlSystem("rational", fields, drift=drift)


_FALLBACK_SYSTEMS = {
    "fractional_power_drift": _fractional_power_drift_system(),
    "fractional_power_fixed_first": _fractional_power_fixed_first_system(),
    "rational": _rational_system(),
}


@pytest.mark.parametrize("name", sorted(_FALLBACK_SYSTEMS))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), substeps=st.integers(1, 4))
def test_fallback_states_are_plain_elementwise_rk4(name, data, substeps):
    # systems whose field values cannot be taken on Python floats are pinned
    # to the same elementwise arithmetic
    system = _FALLBACK_SYSTEMS[name]
    u = data.draw(_short_signal(system.d))
    x0 = data.draw(st.lists(st.floats(1.0, 2.0), min_size=system.n, max_size=system.n))
    _assert_states_match_reference(system, x0, u, substeps)


@pytest.mark.parametrize("drift", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), substeps=st.integers(1, 4))
def test_components_with_a_fixed_slope_are_plain_elementwise_rk4(drift, data, substeps):
    # a component whose slope is free of the coordinates is formed once per
    # segment, with the same operations as at every stage
    system = data.draw(_small_polynomial_system(drift=st.just(drift), fixed=True))
    u = data.draw(_short_signal(system.d))
    x0 = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=system.n, max_size=system.n))) / 8
    _assert_states_match_reference(system, x0, u, substeps)


# t0 + 3 h = 0.30000000000000004 on the last segment, short of the exact 0.3
_SHORT_LAST_STEP = ControlSignal(np.array([0.0, 0.1, 0.3]), np.array([[0.0], [1.0]]))


@settings(max_examples=40, deadline=None)
@given(u=_short_signal(2, max_m=6), substeps=st.integers(1, 5))
@example(u=ControlSignal(_SHORT_LAST_STEP.breakpoints, np.ones((2, 2))), substeps=3)
def test_times_are_the_step_grid_with_the_exact_final_time(u, substeps):
    bps = u.breakpoints.tolist()
    ref = [0.0] + [bps[k] + (j + 1) * ((bps[k + 1] - bps[k]) / substeps)
                   for k in range(u.segments) for j in range(substeps)]
    ref[-1] = u.total_time
    times = integrate(catalog_load("heisenberg"), np.zeros(3), u, substeps).times
    assert times.tobytes() == np.array(ref).tobytes()


def _square_system():
    x = state_symbols(1)
    return ControlSystem("square", [SymbolicField([x[0] ** 2], coords=x)])


def _nan_second_system():
    # (1, x0^400 x1) from x0 = 10: the power overflows to inf and inf * 0 is nan
    x = state_symbols(2)
    return ControlSystem("nan_second", [SymbolicField([1, x[0] ** 400 * x[1]], coords=x)])


def _bits(x):
    # the bytes, with every NaN as one NaN: IEEE 754 leaves the sign of a NaN
    # result open, and numpy's array add returns the first NaN of NaN + NaN
    # where its scalar add returns the second
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _outcome(run, *args):
    # the states' bytes, or the escape's message, time and state bytes
    try:
        with np.errstate(all="ignore"):
            return _bits(run(*args))
    except DomainEscapeError as exc:
        return str(exc), exc.t, _bits(exc.state)


@st.composite
def _escaping_runs(draw):
    # quiet and violent segments, and a rational field's pole, so that runs
    # escape at any step, the first of a later segment included, or not at all
    system = draw(st.sampled_from([_square_system(), _nan_second_system(), _FALLBACK_SYSTEMS["rational"]])
                  | _small_polynomial_system())
    m = draw(st.integers(1, 4))
    bps = np.concatenate([[0.0], np.cumsum(draw(st.lists(st.floats(0.05, 0.5), min_size=m, max_size=m)))])
    scale = st.sampled_from([0.0, 1.0, 1e2, 1e4])
    values = [[draw(scale) * draw(st.floats(-1.0, 1.0)) for _ in range(system.d)] for _ in range(m)]
    x0 = draw(st.lists(st.sampled_from([0.0, 1e-200, 0.5, -3.0, 10.0, 1e3, 2e6, np.nan]),
                       min_size=system.n, max_size=system.n))
    return system, x0, ControlSignal(bps, np.array(values))


_LATER_SEGMENT = (_square_system(), [1e3],
                  ControlSignal(np.array([0.0, 0.3, 0.8]), np.array([[0.0], [1e3]])))
_NAN_SECOND = (_nan_second_system(), [10.0, 0.0], constant_signal(np.array([1.0]), 1.0))
# the rational field's pole at the start: the run goes on numpy scalars from z
_POLE = (_FALLBACK_SYSTEMS["rational"], [0.0, 0.5], constant_signal(np.array([1.0, 1.0]), 1.0))
# x' = u crosses the bound at the run's last step, whose grid time is not the final time
_LAST_STEP = (ControlSystem("line", [SymbolicField([1], n=1)]), [BLOWUP_BOUND - 0.15], _SHORT_LAST_STEP)


@settings(max_examples=300, deadline=None)
@given(run=_escaping_runs(), substeps=st.integers(1, 4))
@example(run=_LATER_SEGMENT, substeps=2)
@example(run=_NAN_SECOND, substeps=4)
@example(run=_POLE, substeps=2)
@example(run=_LAST_STEP, substeps=3)
def test_escapes_match_the_step_by_step_reference(run, substeps):
    # the same DomainEscapeError (message, t, state) or the same states
    system, x0, u = run
    assert (_outcome(lambda: integrate(system, x0, u, substeps).states)
            == _outcome(_reference_states, system, x0, u, substeps))


class _Record(list):
    # a stage record that notes its length whenever entries are cut from it
    cuts = ()

    def __delitem__(self, key):
        self.cuts += (len(self),)
        super().__delitem__(key)


def test_retry_on_numpy_scalars_restarts_the_run_and_the_stage_record():
    # x0' = -1 from 0.5 in steps of 1/8: three steps run on Python floats,
    # then the fourth step's last stage sits at the pole x0 = 0 and raises;
    # the run starts again from z on numpy scalars and cuts the record back
    # to its length at entry, so both equal a run started on numpy scalars
    run = _FALLBACK_SYSTEMS["rational"].state_run
    args = ([0.0, 1.0], [[-1.0, 0.0]], 8, BLOWUP_BOUND)
    rec, ref = _Record([7.0]), [7.0]
    with np.errstate(all="ignore"):
        out, escaped = run([0.5, 0.0], *args, rec)
        ref_out, ref_escaped = run([np.float64(0.5), np.float64(0.0)], *args, ref)
    assert rec.cuts == (1 + 3 * 4 * 2,)
    assert escaped and ref_escaped and len(out) == 2 * 5
    assert np.array(out).tobytes() == np.array(ref_out).tobytes()
    assert np.array(rec).tobytes() == np.array(ref).tobytes()


def test_the_retry_on_numpy_scalars_happens_at_most_once(monkeypatch):
    # with numpy's errors raised, the retry raises too, and that propagates
    run, calls = _FALLBACK_SYSTEMS["rational"].state_run, []

    def counted(z, *args):
        calls.append([type(c) for c in z])
        return run(z, *args)

    monkeypatch.setitem(run.__globals__, "run", counted)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        run([0.0, 0.5], [0.0, 1.0], [[1.0, 0.0]], 2, BLOWUP_BOUND, None)
    assert calls == [[np.float64, np.float64]]


@pytest.mark.parametrize("run, substeps, t", [(_LATER_SEGMENT, 2, 0.3 + 1 * ((0.8 - 0.3) / 2)),
                                               (_LAST_STEP, 3, 0.1 + 3 * ((0.3 - 0.1) / 3))])
def test_escape_time_is_the_escaping_steps_grid_time(run, substeps, t):
    # the first step of a later segment, and the last step of the run
    system, x0, u = run
    with pytest.raises(DomainEscapeError, match=f"at t={t:.6g}$") as exc:
        endpoint(system, x0, u, substeps)
    assert exc.value.t == t
    assert not np.abs(exc.value.state[0]) <= BLOWUP_BOUND


@settings(max_examples=100, deadline=None)
@given(system=_small_polynomial_system(), x=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_random_polynomial_json_roundtrip(system, x):
    back = system_from_json(system_to_json(system))
    pt = np.array(x[: system.n])
    assert np.array_equal(back.field_values(pt), system.field_values(pt))


def test_semigroup_identity():
    # F(x, C(u,v,T)) == F(F(x,u), v) for the rescaled concatenation
    from horizon import concatenate_rescaled

    heis = catalog_load("heisenberg")
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        u = random_signal(rng, 2, m=4)
        T = rng.uniform(0.2, 3.0)
        cuts = np.sort(rng.uniform(0.1 * T, 0.9 * T, size=3))
        v = ControlSignal(np.concatenate([[0.0], cuts, [T]]), rng.normal(size=(4, 2)))
        w = concatenate_rescaled(u, v, T)
        lhs = endpoint(heis, np.zeros(3), w, substeps=64)
        mid = endpoint(heis, np.zeros(3), u, substeps=64)
        rhs = endpoint(heis, mid, v, substeps=64)
        worst = max(worst, np.linalg.norm(lhs - rhs))
    assert worst <= 1e-8


def test_regular_value_and_singular_control():
    heis = catalog_load("heisenberg")
    rng = np.random.default_rng(5)
    u = random_signal(rng, 2)
    rep = regular_value_test(differential(heis, np.zeros(3), u, substeps=16))
    assert rep.regular and rep.rank == 3

    u0 = constant_signal(np.array([0.0, 0.0]), 1.0)
    rep0 = regular_value_test(differential(heis, np.zeros(3), u0, substeps=16))
    assert not rep0.regular and rep0.rank == 2


def test_fiber_project():
    heis = catalog_load("heisenberg")
    rng = np.random.default_rng(6)
    u = random_signal(rng, 2)
    diff = differential(heis, np.zeros(3), u, substeps=32)
    h = ControlSignal(u.breakpoints, rng.normal(size=u.values.shape))
    vert = fiber_project(diff, h)
    assert np.linalg.norm(diff.apply(vert)) <= 1e-9 * max(1.0, np.linalg.norm(diff.apply(h)))
    # a purely horizontal direction projects to ~0
    lam = rng.normal(size=3)
    horiz = diff.dual_signal(lam)
    assert np.linalg.norm(fiber_project(diff, horiz).values) <= 1e-8 * np.linalg.norm(horiz.values)


def test_fiber_project_singular():
    heis = catalog_load("heisenberg")
    u0 = constant_signal(np.array([0.0, 0.0]), 1.0)
    diff = differential(heis, np.zeros(3), u0, substeps=16)
    with pytest.raises(SingularFiberError):
        fiber_project(diff, constant_signal(np.array([1.0, 1.0]), 1.0))


def _differential_with_ratio(rng, ratio, n=3, m=6, d=2):
    # a differential whose L^2-scaled matrix has the singular values
    # geomspace(1, ratio, n) in a random orientation, on random durations
    h = rng.uniform(0.5, 1.5, size=m)
    sig = ControlSignal(np.concatenate([[0.0], np.cumsum(h / h.sum())]), np.zeros((m, d)))
    left = np.linalg.qr(rng.normal(size=(n, n)))[0]
    right = np.linalg.qr(rng.normal(size=(m * d, n)))[0]
    scaled = left @ np.diag(np.geomspace(1.0, ratio, n)) @ right.T
    matrix = scaled * np.repeat(np.sqrt(sig.durations), d)
    w_bar = matrix.reshape(n, m, d).transpose(1, 0, 2) / sig.durations[:, None, None]
    return EndpointDifferential(None, None, sig, 1, None, matrix, w_bar, transitions=None)


@pytest.mark.parametrize("ratio", [3e-9, 6e-9, 9e-9, 1.1e-8, 1.5e-8])
def test_fiber_project_refuses_exactly_the_values_that_are_not_regular(ratio):
    # near RANK_TOL a Gram-matrix test, which squares the condition number,
    # projected some singular differentials and refused some regular ones
    for seed in range(200):
        rng = np.random.default_rng(seed)
        diff = _differential_with_ratio(rng, ratio)
        v = ControlSignal(diff.signal.breakpoints, rng.normal(size=diff.signal.values.shape))
        regular = regular_value_test(diff).regular
        try:
            fiber_project(diff, v)
            refused = False
        except SingularFiberError as exc:
            refused = True
            assert "sigma_min/sigma_max" in str(exc) and "RANK_TOL" in str(exc)
        assert refused != regular, (ratio, seed)


def _l2_norm(h, values):
    return float(np.sqrt(np.sum(h[:, None] * values**2)))


@settings(max_examples=30, deadline=None)
@given(system=_driftless_system(), seed=st.integers(0, 2**16), m=st.integers(1, 4))
def test_random_fiber_projection_follows_the_rank_rule(system, seed, m):
    rng = np.random.default_rng(seed)
    x0 = 0.2 * rng.normal(size=system.n)
    try:
        words, _ = bracket_frame(system, x0, max_depth=3)
    except NotBracketGeneratingError:
        words = []
    if words:
        frame = np.stack([system.word_field(w).value(x0) for w in words])
        svals = np.linalg.svd(frame, compute_uv=False)
        assert svals[-1] > RANK_TOL * svals[0]

    u = random_signal(rng, system.d, m)
    diff = differential(system, x0, u, substeps=4)
    v = ControlSignal(u.breakpoints, rng.normal(size=u.values.shape))
    report = regular_value_test(diff)
    if not report.regular:
        with pytest.raises(SingularFiberError):
            fiber_project(diff, v)
        return
    # rounding bound: a backward-stable SVD is exact for a matrix within
    # O(size * eps) of the input, so both defects are O(m d eps)
    h = u.durations
    bound = 10 * u.values.size * np.finfo(float).eps * _l2_norm(h, v.values)
    proj = fiber_project(diff, v)
    assert np.linalg.norm(diff.apply(proj)) <= bound * report.sigma_max
    assert _l2_norm(h, fiber_project(diff, proj).values - proj.values) <= bound


def test_domain_escape():
    x0s = state_symbols(1)
    with pytest.raises(DomainEscapeError) as exc:
        endpoint(_square_system(), np.array([2.0]), constant_signal(np.array([1.0]), 1.0), substeps=256)
    assert exc.value.t is not None and exc.value.t < 1.0
    # a high power overflows inside an RK4 stage; that is a blow-up too
    f9 = SymbolicField([x0s[0] ** 9], coords=x0s)
    with np.errstate(over="ignore"), pytest.raises(DomainEscapeError):
        endpoint(ControlSystem("blowup9", [f9]), np.array([1e5]), constant_signal(np.array([1.0]), 1.0), substeps=4)


def test_blowup_check_sees_nan_behind_a_finite_component():
    # X = (1, x0^400 x1) from (10, 0): the power overflows to inf, and
    # inf * 0 = nan.  The first component stays finite, so a check built on
    # max() would miss the nan.
    with np.errstate(all="ignore"), pytest.raises(DomainEscapeError) as exc:
        endpoint(*_NAN_SECOND, substeps=4)
    assert exc.value.t == 0.25
    assert np.isfinite(exc.value.state[0]) and np.isnan(exc.value.state[1])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e6 * (1 + 1e-15)])
def test_blowup_bound_rejects(value):
    heis = catalog_load("heisenberg")
    with pytest.raises(DomainEscapeError, match=r"left \|x\|_inf <= 1e\+06 at t=0"):
        endpoint(heis, [0.0, value, 0.0], zero_signal(2))


def test_blowup_bound_is_inclusive():
    heis = catalog_load("heisenberg")
    x0 = np.array([0.0, -1e6, 0.0])
    assert np.array_equal(endpoint(heis, x0, zero_signal(2)), x0)


def test_stage_that_raises_on_floats_falls_back_to_numpy():
    # exp(-1/x0^2) divides by zero on Python floats at x0 = 0, where numpy
    # gives exp(-inf) = 0; x0 stays 0, so the run goes once more on numpy
    # scalars, and the reference evaluates every stage on them
    x = state_symbols(2)
    system = ControlSystem("flat", [SymbolicField([0, 1], coords=x),
                                    SymbolicField([sp.exp(-1 / x[0] ** 2), x[0] + 1], coords=x)])
    u = ControlSignal(np.array([0.0, 0.3, 1.0]), np.array([[1.0, -0.5], [0.2, 0.7]]))
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_states_match_reference(system, [0.0, 0.25], u, 3)
        plain = integrate(system, [0.0, 0.25], u, substeps=3)
        traj = integrate(system, [0.0, 0.25], u, substeps=3, with_fundamental=True)
    assert traj.states.tobytes() == plain.states.tobytes()
    assert traj.stages.shape == (2 * 4 * 3, 2)


def test_fundamental_run_keeps_states_bitwise():
    # the state run that records the stage states is the plain run
    rng = np.random.default_rng(7)
    for name in ("heisenberg", "unicycle", "agrachev_lee(3)"):
        system = catalog_load(name)
        u = random_signal(rng, system.d, m=5)
        x0 = 0.3 * rng.normal(size=system.n)
        plain = integrate(system, x0, u, substeps=8)
        joint = integrate(system, x0, u, substeps=8, with_fundamental=True)
        assert joint.states.tobytes() == plain.states.tobytes()


@pytest.mark.parametrize("name", ["heisenberg", "agrachev_lee(3)", "martinet", "unicycle", "grushin"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), substeps=st.integers(1, 4))
def test_tangent_blocks_do_not_mix_segments(name, seed, m, substeps):
    # all segments' blocks advance as one batch; each must equal, bit for bit,
    # the block of its segment integrated alone from the recorded start state
    system = catalog_load(name)
    rng = np.random.default_rng(seed)
    u = random_signal(rng, system.d, m=m)
    x0 = 0.5 * rng.normal(size=system.n)
    traj = integrate(system, x0, u, substeps=substeps, with_fundamental=True)
    for k in range(m):
        alone = ControlSignal(np.array([0.0, u.durations[k]]), u.values[k : k + 1])
        start = traj.states[k * substeps]
        block = integrate(system, start, alone, substeps=substeps, with_fundamental=True)
        assert block.fundamental[0].tobytes() == traj.fundamental[k].tobytes()


def test_single_field_flow_is_one_hot_endpoint():
    # a chart factor e^{c X_b} is the one-segment signal sign(c) e_b on [0, |c|]
    driftless = [catalog_load(name) for name in catalog_names() if "(" not in name]
    assert len(driftless) == 5 and all(system.is_driftless for system in driftless)
    for system in driftless:
        x = np.array([0.3, -0.2, 0.4])[: system.n]
        for b in range(1, system.d + 1):
            for c in (0.37, -0.21):
                row = np.zeros(system.d)
                row[b - 1] = np.sign(c)
                sig = ControlSignal(np.array([0.0, abs(c)]), row[None, :])
                flow = _single_field_flow(system, x, b, c, 16)
                assert flow.tobytes() == endpoint(system, x, sig, substeps=16).tobytes()


# -- one RK4 step per segment where it is exact ------------------------------------


def _one_vs_eight_substeps(system, x0, u, lam):
    # the relative gaps of the endpoint, the differential and hessian(lam)
    one, eight = differential(system, x0, u, 1), differential(system, x0, u, 8)
    pairs = ((one.endpoint, eight.endpoint), (one.matrix, eight.matrix),
             (one.hessian(lam), eight.hessian(lam)))
    return [np.abs(a - b).max() / max(1.0, np.abs(b).max()) for a, b in pairs]


def _exact_systems():
    names = ("heisenberg", "martinet", "grushin", "free_step2_rank2", "agrachev_lee(3)")
    return [*map(catalog_load, names), heis_with_drift()]


@pytest.mark.parametrize("system", _exact_systems(), ids=lambda system: system.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), m=st.integers(1, 8))
def test_one_step_is_exact_where_slope_split_says_so(system, data, m):
    # the fixed-slope coordinates are linear in t and the others' slopes
    # cubics in them, so one RK4 step and eight agree to rounding, and so do
    # the derivatives of the two maps
    assert system.slope_split.exact
    unit = st.floats(-1.0, 1.0)
    durations = data.draw(st.lists(st.floats(0.05, 0.5), min_size=m, max_size=m))
    values = data.draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=system.d,
                                         max_size=system.d), min_size=m, max_size=m))
    u = ControlSignal(np.concatenate([[0.0], np.cumsum(durations)]), np.array(values))
    x0 = np.array(data.draw(st.lists(unit, min_size=system.n, max_size=system.n)))
    lam = np.array(data.draw(st.lists(unit, min_size=system.n, max_size=system.n)))
    assert max(_one_vs_eight_substeps(system, x0, u, lam)) <= 1e-13


@pytest.mark.parametrize("name, x0, u", [
    # x0^4 along a line in x0: Simpson's rule misses a quartic
    ("agrachev_lee(4)", [0.5, 0.0],
     ControlSignal(np.array([0.0, 0.6, 1.0]), np.array([[1.5, -1.0], [-1.0, 0.5]]))),
    # turning while driving: cos and sin of a linear heading
    ("unicycle", [0.0, 0.0, 0.0], constant_signal(np.array([1.0, 1.5]), 1.0)),
])
def test_one_step_is_not_exact_where_slope_split_says_not(name, x0, u):
    system = catalog_load(name)
    assert not system.slope_split.exact
    gaps = _one_vs_eight_substeps(system, np.array(x0), u, np.linspace(1.0, -0.5, system.n))
    assert min(gaps) > 1e-4


# -- a recorded run, differentiated later ---------------------------------------


@pytest.mark.parametrize("name", ["heisenberg", "agrachev_lee(3)", "martinet", "unicycle", "grushin"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), substeps=st.integers(1, 3))
def test_differential_of_a_recorded_run_is_the_differential(name, seed, m, substeps):
    system = catalog_load(name)
    rng = np.random.default_rng(seed)
    u = random_signal(rng, system.d, m=m)
    x0 = 0.5 * rng.normal(size=system.n)
    lam = rng.normal(size=system.n)
    run = integrate(system, x0, u, substeps=substeps, with_fundamental=True)
    given_run = differential(system, x0, u, substeps, trajectory=run)
    fresh = differential(system, x0, u, substeps)
    assert given_run.trajectory is run
    for a, b in ((given_run.matrix, fresh.matrix), (given_run.w_bar, fresh.w_bar),
                 (np.stack(given_run.transitions), np.stack(fresh.transitions)),
                 (given_run.hessian(lam), fresh.hessian(lam))):
        assert a.tobytes() == b.tobytes()


def test_differential_refuses_a_run_of_other_inputs():
    heis = catalog_load("heisenberg")
    u = random_signal(np.random.default_rng(5), 2, m=3)
    x0 = np.array([0.1, -0.2, 0.3])
    run = integrate(heis, x0, u, substeps=2, with_fundamental=True)
    other_u = ControlSignal(u.breakpoints, u.values + 1.0)
    other_grid = ControlSignal(np.array([0.0, 0.2, 0.6, 1.0]), u.values)
    for args in ((heis, x0 + 1.0, u, 2), (heis, x0, other_u, 2), (heis, x0, other_grid, 2),
                 (heis, x0, u, 3), (ControlSystem("heis2", heis.fields), x0, u, 2)):
        with pytest.raises(ConfigError, match="not the recorded run"):
            differential(*args, trajectory=run)
    plain = integrate(heis, x0, u, substeps=2)
    with pytest.raises(ConfigError, match="not the recorded run"):
        differential(heis, x0, u, 2, trajectory=plain)


def test_blocks_are_formed_on_first_use_only(monkeypatch):
    # a recorded run forms no tangent block until one is read, then once
    heis = catalog_load("heisenberg")
    u = random_signal(np.random.default_rng(2), 2, m=4)
    module = importlib.import_module("horizon.endpoint")
    real, calls = module._tangent_blocks, []
    monkeypatch.setattr(module, "_tangent_blocks", lambda *a: calls.append(1) or real(*a))
    run = integrate(heis, np.zeros(3), u, substeps=2, with_fundamental=True)
    assert calls == []
    assert run.tangents is not None and run.fundamental.shape == (4, 5, 3)
    differential(heis, np.zeros(3), u, 2, trajectory=run)
    assert calls == [1]
    assert integrate(heis, np.zeros(3), u, substeps=2).fundamental is None


def _grid_times(u, substeps):
    # the step grid as one numpy expression: (j + 1) h after each segment's start
    bps = u.breakpoints
    steps = np.arange(1, substeps + 1) * (np.diff(bps) / substeps)[:, None]
    return np.concatenate([[0.0], (bps[:-1, None] + steps).ravel()])


@settings(max_examples=200, deadline=None)
@given(run=_escaping_runs(), substeps=st.integers(1, 4))
@example(run=_LATER_SEGMENT, substeps=2)
@example(run=_LAST_STEP, substeps=3)
def test_times_and_escape_times_are_the_vectorized_grid(run, substeps):
    # the escape's t is the grid time of the step the state run stopped at;
    # a run that stays in bounds has the grid with the exact final time last
    system, x0, u = run
    grid = _grid_times(u, substeps)
    try:
        with np.errstate(all="ignore"):
            times = integrate(system, x0, u, substeps).times
    except DomainEscapeError as exc:
        with np.errstate(all="ignore"):
            rows, escaped = system.state_run(list(map(float, x0)), u.breakpoints.tolist(),
                                             u.values.tolist(), substeps, BLOWUP_BOUND, None)
        assert escaped
        assert np.float64(exc.t).tobytes() == grid[len(rows) // system.n - 1].tobytes()
    else:
        grid[-1] = u.total_time
        assert times.tobytes() == grid.tobytes()
