"""geodesics.gmres against scipy.sparse.linalg.gmres, whose iteration it
repeats operation for operation: the same x, bit for bit, the same info and
the same matvecs.  scipy is a test dependency only."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dlartg
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import gmres as scipy_gmres

from horizon import geodesics
from horizon.geodesics import (GMRES_RESTARTS, GeodesicOptions, _lartg, _Operator,
                               generate_seeds, gmres, solve_critical)
from horizon.signals import ControlSignal
from horizon.systems import catalog_load


def _kkt_like(seed, md, n, coupling):
    """A nonsymmetric (md + n) system [[L, -A^T], [A, 0]] with L = D + coupling
    * noise, and the solver's block preconditioner on diag(D) and A."""
    rng = np.random.default_rng(seed)
    Hdd = rng.uniform(0.5, 4.0, md)
    L = np.diag(Hdd) + coupling * rng.standard_normal((md, md)) / np.sqrt(md)
    A = rng.standard_normal((n, md))
    S = (A / Hdd) @ A.T
    S += 1e-10 * (np.trace(S) / n + 1.0) * np.eye(n)

    def matvec(z):
        return np.concatenate([L @ z[:md] - A.T @ z[md:], A @ z[:md]])

    def precond(z):
        t = z[:md] / Hdd
        dlam = np.linalg.solve(S, z[md:] - A @ t)
        return np.concatenate([(z[:md] + A.T @ dlam) / Hdd, dlam])

    shape = (md + n, md + n)
    return _Operator(shape, float, matvec), _Operator(shape, float, precond), \
        rng.standard_normal(md + n)


def _counted(op):
    """(op with a counted matvec, the list its calls append to)."""
    calls = []
    counted = _Operator(op.shape, op.dtype, lambda z: calls.append(1) or op.matvec(z))
    return counted, calls


def _assert_same_as_scipy(A, b, rtol, maxiter, M):
    """gmres and scipy's gmres agree on x's bits, info and matvecs; returns
    (info, matvecs)."""
    ours, ours_calls = _counted(A)
    theirs, their_calls = _counted(A)
    x, info = gmres(ours, b, rtol=rtol, maxiter=maxiter, M=M)
    x_ref, info_ref = scipy_gmres(theirs, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=M)
    assert x.tobytes() == x_ref.tobytes()
    assert info == info_ref
    assert len(ours_calls) == len(their_calls)
    return info, len(ours_calls)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), md=st.integers(1, 48), n=st.integers(1, 6),
       coupling=st.floats(0.0, 4.0), rtol=st.floats(1e-12, 0.1),
       maxiter=st.integers(1, GMRES_RESTARTS))
def test_matches_scipy_on_kkt_like_systems(seed, md, n, coupling, rtol, maxiter):
    A, M, b = _kkt_like(seed, md, n, coupling)
    _assert_same_as_scipy(A, b, rtol, maxiter, M)


def test_matches_scipy_when_the_budget_runs_out():
    # a strongly coupled system that one cycle of 20 steps cannot solve to 1e-10
    A, M, b = _kkt_like(5, 60, 4, 4.0)
    info, matvecs = _assert_same_as_scipy(A, b, 1e-10, 2, M)
    assert info == 2
    assert matvecs == 2 * (20 + 1)


def test_matches_scipy_over_many_restarts():
    # coupling 1.8: at rtol 1e-10 this system takes 17 cycles (2.0 exhausts 25)
    A, M, b = _kkt_like(0, 60, 4, 1.8)
    info, matvecs = _assert_same_as_scipy(A, b, 1e-10, GMRES_RESTARTS, M)
    assert info == 0
    assert matvecs > 10 * (20 + 1)  # ten cycles or more, with their ptol adaptation


def test_matches_scipy_on_a_happy_breakdown():
    # on 2 I the first Arnoldi vector spans the Krylov space: its successor
    # is exactly zero, and the one-step solution is exact to rounding
    shape = (5, 5)
    A = _Operator(shape, float, lambda z: 2.0 * z)
    M = _Operator(shape, float, lambda z: z.copy())
    b = np.array([1.0, -2.0, 0.5, 3.0, 0.25])
    info, matvecs = _assert_same_as_scipy(A, b, 1e-12, GMRES_RESTARTS, M)
    assert (info, matvecs) == (0, 2)  # one Arnoldi step, one true residual


def test_matches_scipy_on_a_breakdown_that_does_not_solve():
    # the zero map: the Krylov space stops at once with a zero pivot, x stays
    # 0, and the true residual check fails, so info is the budget
    shape = (4, 4)
    A = _Operator(shape, float, lambda z: np.zeros(4))
    M = _Operator(shape, float, lambda z: z.copy())
    info, matvecs = _assert_same_as_scipy(A, np.ones(4), 0.1, 3, M)
    assert (info, matvecs) == (3, 2)


@pytest.mark.parametrize("b", [np.zeros(7), -np.zeros(7)])
def test_matches_scipy_on_a_zero_right_hand_side(b):
    A, M, _ = _kkt_like(1, 5, 2, 1.0)
    info, matvecs = _assert_same_as_scipy(A, b, 0.1, GMRES_RESTARTS, M)
    assert (info, matvecs) == (0, 0)


def test_matches_scipy_through_a_scipy_linear_operator():
    # the benchmark tracer hands gmres a scipy LinearOperator around the KKT
    # operator, to count its matvecs; the result must not depend on it
    A, M, b = _kkt_like(3, 30, 3, 2.0)
    wrapped = LinearOperator(A.shape, matvec=A.matvec, dtype=A.dtype)
    x, info = gmres(wrapped, b, rtol=1e-6, maxiter=GMRES_RESTARTS, M=M)
    x_plain, info_plain = gmres(A, b, rtol=1e-6, maxiter=GMRES_RESTARTS, M=M)
    x_ref, info_ref = scipy_gmres(wrapped, b, rtol=1e-6, atol=0.0, maxiter=GMRES_RESTARTS, M=M)
    assert x.tobytes() == x_plain.tobytes() == x_ref.tobytes()
    assert info == info_plain == info_ref == 0


@pytest.mark.parametrize("name, y, m, scale, seed, opts", [
    ("heisenberg", [0, 0, 0.5], 16, 0.5, 1, GeodesicOptions()),  # a ladder seed
    ("agrachev_lee(3)", [0, -0.1], 24, 1.0, 2,  # a floor seed: drift, n = 2
     GeodesicOptions(raise_on_failure=False, feas_iter=60, max_iter=60)),
])
def test_every_kkt_solve_of_a_solve_matches_scipy(monkeypatch, name, y, m, scale, seed, opts):
    # the solver's own operators: each KKT solve is also run by scipy on the
    # same operator, preconditioner, right-hand side and forcing
    real, solves = geodesics.gmres, []

    def both(A, b, **kwargs):
        x, info = real(A, b, **kwargs)
        x_ref, info_ref = scipy_gmres(A, b, atol=0.0, **kwargs)
        solves.append(x.tobytes() == x_ref.tobytes() and info == info_ref)
        return x, info

    monkeypatch.setattr(geodesics, "gmres", both)
    system = catalog_load(name)
    u0 = ControlSignal(np.linspace(0.0, 1.0, m + 1),
                       generate_seeds(3, seed + 1, m, system.d, scale)[seed])
    rec = solve_critical(system, np.zeros(system.n), y, u_init=u0, opts=opts)
    assert len(solves) == len(rec.diagnostics["gmres"]) > 1
    assert all(solves)


_EXTREMES = [0.0, -0.0, 5e-324, 2.0 ** -1022, 2.0 ** -511, 2.0 ** -510, 1e-200, 1.0, 3.0,
             2.0 ** 510, 2.0 ** 510.5, 2.0 ** 511, 1e200, 1.7e308]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES),
       st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES),
       st.booleans(), st.booleans())
def test_rotation_is_lapacks(f, g, neg_f, neg_g):
    f, g = (-f if neg_f else f), (-g if neg_g else g)
    assert np.array(_lartg(f, g)).tobytes() == np.array(dlartg(f, g)).tobytes()
