import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon import (
    ConfigError,
    ControlSignal,
    EnergyParams,
    concatenate_rescaled,
    constant_signal,
    dual_map,
    energy,
    energy_gradient,
    flow_segment,
    zero_signal,
)
from horizon.signals import gradient_density, hessian_density


def random_signal(rng, d=2, m=5, total=1.0):
    cuts = np.sort(rng.uniform(0.05, 0.95, size=m - 1))
    bps = np.concatenate([[0.0], cuts, [1.0]]) * total
    vals = rng.normal(size=(m, d))
    return ControlSignal(bps, vals)


def dense_lp(sig, p, samples=200001):
    # midpoint Riemann oracle, independent of the closed form
    ts = np.linspace(0.0, sig.total_time, samples)
    mids = 0.5 * (ts[:-1] + ts[1:])
    h = np.diff(ts)
    acc = 0.0
    for t, w in zip(mids, h):
        acc += w * np.sum(np.abs(sig.value_at(t)) ** p)
    return acc ** (1.0 / p)


def test_validation():
    with pytest.raises(ConfigError):
        ControlSignal(np.array([0.0, 0.5, 0.5]), np.zeros((2, 1)))
    with pytest.raises(ConfigError):
        ControlSignal(np.array([0.1, 0.5]), np.zeros((1, 1)))
    with pytest.raises(ConfigError):
        ControlSignal(np.array([0.0, 1.0]), np.zeros((2, 1)))


def test_zero_signal():
    z = zero_signal(3)
    assert z.segments == 0
    assert z.total_time == 0.0
    assert z.lp_norm(2.0) == 0.0


def test_value_at_right_continuous():
    sig = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([[1.0], [-2.0]]))
    assert sig.value_at(0.4)[0] == -2.0
    assert sig.value_at(0.4 - 1e-12)[0] == 1.0
    assert sig.value_at(1.0)[0] == -2.0  # final value extends


def test_lp_norm_against_quadrature():
    rng = np.random.default_rng(0)
    for p in [1.5, 2.0, 3.0]:
        sig = random_signal(rng, d=2, m=6)
        assert np.isclose(sig.lp_norm(p), dense_lp(sig, p), rtol=1e-3)


@pytest.mark.parametrize("value", [0.4, 5.0])
def test_lp_norm_of_a_constant_survives_large_p(value):
    # |v|^1000 leaves the floating-point range (0.4 underflows, 5.0
    # overflows), but the norm of a constant on [0, 1] is |v| itself
    sig = constant_signal(np.array([value]), 1.0)
    assert sig.lp_norm(1000.0) == pytest.approx(value, rel=1e-12)


def test_subtract_on_union_grid():
    rng = np.random.default_rng(1)
    u = random_signal(rng, d=2, m=4)
    v = random_signal(rng, d=2, m=7)
    w = u.subtract(v)
    for t in rng.uniform(0.0, 1.0, size=40):
        assert np.allclose(w.value_at(t), u.value_at(t) - v.value_at(t))
    assert u.subtract(u).lp_norm(2.0) == 0.0


def test_subtract_different_lengths():
    u = constant_signal(np.array([1.0]), 1.0)
    v = constant_signal(np.array([1.0]), 0.5)
    w = u.subtract(v)
    # v extends by zero past 0.5
    assert np.isclose(w.lp_norm(2.0), np.sqrt(0.5))


def test_energy_modes_agree_at_p2():
    rng = np.random.default_rng(2)
    sig = random_signal(rng, d=3, m=5)
    assert np.isclose(energy(sig, 2.0, "component"), energy(sig, 2.0, "vector"))


def test_energy_gradient_matches_fd():
    rng = np.random.default_rng(3)
    for mode in ["component", "vector"]:
        for p in [2.0, 3.0]:
            sig = random_signal(rng, d=2, m=4)
            grad = energy_gradient(sig, p, mode)
            h = sig.durations
            eps = 1e-6
            for k in [0, 2]:
                for i in [0, 1]:
                    vp = sig.values.copy()
                    vm = sig.values.copy()
                    vp[k, i] += eps
                    vm[k, i] -= eps
                    jp = energy(ControlSignal(sig.breakpoints, vp), p, mode)
                    jm = energy(ControlSignal(sig.breakpoints, vm), p, mode)
                    fd = (jp - jm) / (2 * eps)
                    # gradient is a density; the FD sees it through the duration
                    assert np.isclose(grad.values[k, i] * h[k], fd, rtol=1e-5)


@pytest.mark.parametrize("mode", ["component", "vector"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_hessian_density_is_the_derivative_of_the_gradient_density(mode, p):
    # a central difference of the gradient density, column by column; for
    # p >= 2 the values hold a zero row and a zero entry, where at p = 2 the
    # second derivative is 2 on the diagonal (0^0 = 1)
    rng = np.random.default_rng(7)
    U = rng.normal(size=(4, 3))
    if p >= 2.0:
        U[1] = 0.0
        U[2, 0] = 0.0
    blocks = hessian_density(U, p, mode)
    eps = 1e-6
    for k in range(4):
        for i in range(3):
            up, um = U.copy(), U.copy()
            up[k, i] += eps
            um[k, i] -= eps
            fd = (gradient_density(up, p, mode) - gradient_density(um, p, mode)) / (2 * eps)
            assert np.allclose(np.delete(fd, k, axis=0), 0.0)  # block diagonal
            assert np.allclose(blocks[k, :, i], fd[k], rtol=1e-6, atol=1e-5)
    if p == 2.0:
        assert np.array_equal(blocks[1], 2.0 * np.eye(3))
        assert blocks[2, 0, 0] == 2.0


def test_dual_map_inverts_gradient_density():
    rng = np.random.default_rng(4)
    for p in [1.5, 2.0, 3.0]:
        sig = random_signal(rng, d=2, m=5)
        g = energy_gradient(sig, p)
        scaled = ControlSignal(g.breakpoints, g.values / p)
        back = dual_map(scaled, p)
        assert np.allclose(back.values, sig.values, rtol=1e-12)


def test_dual_map_pointwise():
    z = ControlSignal(np.array([0.0, 1.0]), np.array([[-4.0]]))
    out = dual_map(z, 3.0)
    assert np.isclose(out.values[0, 0], -2.0)  # -4 * 4^(-1/2)


def test_flow_segment_geometry():
    params = EnergyParams(p=2.0, beta=1.0)
    r = np.array([0.5, -0.25])
    seg = flow_segment(r, 2, params)
    # support starts at |r_1|^beta and lasts |r_2|^beta
    assert np.isclose(seg.breakpoints[1], 0.5)
    assert np.isclose(seg.breakpoints[2], 0.75)
    assert np.isclose(seg.values[1, 0], -1.0)  # r|r|^(-beta)
    assert flow_segment(np.array([0.3, 0.0]), 2, params).segments == 0


@pytest.mark.parametrize("p,beta", [(2.0, 1.0), (3.0, 1.0), (1.5, 2.0)])
def test_flow_segment_norm_law(p, beta):
    # log-log slope of the norm vs |r_j| must match (beta + p - beta p)/p
    params = EnergyParams(p=p, beta=beta)
    rs = np.logspace(-3, -1, 9)
    norms = [flow_segment(np.array([0.2, r]), 2, params).lp_norm(p) for r in rs]
    slope = np.polyfit(np.log(rs), np.log(norms), 1)[0]
    expected = (beta + p - beta * p) / p
    assert abs(slope - expected) <= 0.01 * abs(expected)


def test_concatenate_identity_at_zero_horizon():
    rng = np.random.default_rng(5)
    u = random_signal(rng)
    assert concatenate_rescaled(u, zero_signal(2), 0.0) is u


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.floats(0.05, 4.0),
    st.integers(0, 2**31 - 1),
)
def test_concatenate_norm_identity(mu, mv, T, seed):
    rng = np.random.default_rng(seed)
    u = random_signal(rng, d=2, m=mu, total=1.0)
    v = random_signal(rng, d=2, m=mv, total=T)
    w = concatenate_rescaled(u, v, T)
    p = 2.0 + 1.5 * rng.random()
    lhs = w.lp_norm(p) ** p
    rhs = (T + 1.0) ** (p - 1.0) * (u.lp_norm(p) ** p + v.lp_norm(p) ** p)
    assert np.isclose(lhs, rhs, rtol=1e-12)
    assert w.total_time == 1.0


def test_concatenate_drops_tail():
    u = constant_signal(np.array([1.0]), 1.0)
    v = ControlSignal(np.array([0.0, 0.5, 2.0]), np.array([[2.0], [7.0]]))
    w = concatenate_rescaled(u, v, 0.5)  # the 7.0 tail starts exactly at T
    assert np.isclose(w.lp_norm(2.0) ** 2, 1.5 * (1.0 + 2.0), rtol=1e-12)


def test_concatenate_survives_ulp_segments():
    # rescaling by 1/(T+1) can merge breakpoints that differ by one ULP;
    # the collapsed zero-width segment must be dropped, not rejected
    u = constant_signal(np.array([1.0, 0.0]), 1.0)
    T = 0.25
    t1 = 0.0125
    v = ControlSignal(
        np.array([0.0, t1, np.nextafter(t1, 1.0), T]),
        np.array([[2.0, 0.0], [5.0, 5.0], [0.0, 2.0]]),
    )
    w = concatenate_rescaled(u, v, T)
    assert np.all(np.diff(w.breakpoints) > 0)
    lhs = w.lp_norm(2.0) ** 2
    rhs = (T + 1.0) * (u.lp_norm(2.0) ** 2 + v.lp_norm(2.0) ** 2)
    assert np.isclose(lhs, rhs, rtol=1e-12)


def test_energy_params_validation():
    with pytest.raises(ConfigError):
        EnergyParams(p=1.0)
    with pytest.raises(ConfigError):
        EnergyParams(p=2.0, beta=2.0)  # beta must stay below p/(p-1)
    with pytest.raises(ConfigError):
        EnergyParams(p=2.0, beta=0.0)
    # p = 1e308 gives p/(p-1) == 1.0 in floats
    for p in (np.inf, 1e308, np.nan):
        with pytest.raises(ConfigError, match="p must be finite"):
            EnergyParams(p=p)
    assert EnergyParams(p=2.0).q == 2.0
    assert np.isclose(EnergyParams(p=3.0).q, 1.5)


# p = 1e308 gives p/(p-1) == 1.0 in floats, as in EnergyParams
@pytest.mark.parametrize("p", [np.nan, np.inf, 1e308, 1.0, -2.0])
@pytest.mark.parametrize("fn", [energy, energy_gradient, dual_map], ids=lambda fn: fn.__name__)
def test_p_is_checked_as_conjugate_exponent_checks_it(fn, p):
    with pytest.raises(ConfigError, match="p must be finite"):
        fn(random_signal(np.random.default_rng(0)), p)


@pytest.mark.parametrize("T", [np.nan, np.inf, -0.5])
def test_concatenate_rejects_a_non_finite_or_negative_horizon(T):
    u = random_signal(np.random.default_rng(0))
    with pytest.raises(ConfigError, match="T must be nonnegative and finite"):
        concatenate_rescaled(u, constant_signal([1.0, 0.0], 2.0), T)


def test_json_roundtrip():
    rng = np.random.default_rng(6)
    sig = random_signal(rng, d=2, m=3)
    back = ControlSignal.from_json(sig.to_json())
    assert np.array_equal(back.breakpoints, sig.breakpoints)
    assert np.array_equal(back.values, sig.values)
    # deterministic serialization
    assert sig.to_json() == ControlSignal(sig.breakpoints, sig.values).to_json()
    assert list(json.loads(sig.to_json()).keys()) == sorted(json.loads(sig.to_json()).keys())


def test_csv_format():
    sig = ControlSignal(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = sig.to_csv().strip().splitlines()
    assert lines[0] == "t_start,t_end,u_1,u_2"
    assert len(lines) == 3
