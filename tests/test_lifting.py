import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon import (
    AdmissibilityError,
    ChartRadiusError,
    ConfigError,
    ConvergenceError,
    EnergyParams,
    catalog_load,
    constant_signal,
    displacement,
    endpoint,
    zero_signal,
)
from horizon.lifting import TargetPath, continuity_report, lift_path


def arc_path(samples):
    g = lambda s: np.array([0.4 * s, 0.1 * np.sin(np.pi * s), 0.05 * s])
    return TargetPath.from_function(g, samples)


def test_target_path_validation():
    with pytest.raises(ConfigError):
        TargetPath(np.array([0.0, 0.0]), np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        TargetPath(np.array([0.0, 1.0]), np.zeros((3, 3)))
    with pytest.raises(ConfigError):  # samples-inf
        TargetPath(np.array([0.0, np.inf]), np.zeros((2, 3)))
    with pytest.raises(ConfigError):  # targets-nan
        TargetPath(np.array([0.0, 1.0]), np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]))


def test_lift_reaches_every_sample():
    heis = catalog_load("heisenberg")
    path = arc_path(np.linspace(0.0, 1.0, 11))
    res = lift_path(heis, np.zeros(3), zero_signal(2), path)
    assert res.residuals.max() <= 1e-6
    for k in [3, 7, 10]:
        end = endpoint(heis, np.zeros(3), res.controls[k], substeps=64)
        assert np.linalg.norm(end - path.targets[k]) <= 1e-6
    assert all(abs(c.total_time - 1.0) < 1e-12 for c in res.controls)


def test_anchor_mismatch_rejected():
    heis = catalog_load("heisenberg")
    path = TargetPath(np.array([0.0, 1.0]), np.array([[1.0, 0.0, 0.0], [1.0, 0.1, 0.0]]))
    with pytest.raises(ConfigError):
        lift_path(heis, np.zeros(3), zero_signal(2), path)


def test_constant_path_is_bit_exact():
    heis = catalog_load("heisenberg")
    u = constant_signal(np.array([1.0, 0.0]), 1.0)
    end0 = endpoint(heis, np.zeros(3), u, substeps=64)
    path = TargetPath(np.linspace(0, 1, 5), np.tile(end0, (5, 1)))
    res = lift_path(heis, np.zeros(3), u, path)
    assert all(c is u for c in res.controls)
    assert res.moduli().max() == 0.0


def test_refinement_reduces_modulus():
    heis = catalog_load("heisenberg")
    coarse = lift_path(heis, np.zeros(3), zero_signal(2), arc_path(np.linspace(0, 1, 11)))
    fine = lift_path(heis, np.zeros(3), zero_signal(2), arc_path(np.linspace(0, 1, 21)))
    assert fine.moduli().max() < coarse.moduli().max()


def test_straight_path_modulus_halves():
    # pure first-order displacement: refining by 2 halves the modulus
    heis = catalog_load("heisenberg")
    u0 = constant_signal(np.array([1.0, 0.0]), 1.0)
    g = lambda s: np.array([1.0 + 0.2 * s, 0.0, 0.0])
    coarse = lift_path(heis, np.zeros(3), u0, TargetPath.from_function(g, np.linspace(0, 1, 11)))
    fine = lift_path(heis, np.zeros(3), u0, TargetPath.from_function(g, np.linspace(0, 1, 21)))
    assert coarse.residuals.max() <= 1e-6 and fine.residuals.max() <= 1e-6
    ratio = coarse.lp_modulus / fine.lp_modulus
    assert 1.5 <= ratio <= 3.0


def test_multisegment_anchor_near_zero_chart_coordinate():
    # an L-shaped anchor makes one chart coordinate ~1e-18 at the first hop;
    # the concatenation must tolerate the resulting ULP-width plan segment
    heis = catalog_load("heisenberg")
    from horizon import ControlSignal

    u0 = ControlSignal(np.array([0.0, 0.5, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    end0 = endpoint(heis, np.zeros(3), u0, substeps=64)
    g = lambda s: end0 + np.array([0.1 * s, 0.0, 0.0])
    res = lift_path(heis, np.zeros(3), u0, TargetPath.from_function(g, np.linspace(0, 1, 9)))
    assert res.residuals.max() <= 1e-6
    assert all(np.all(np.diff(c.breakpoints) > 0) for c in res.controls)


def test_continuity_report_shape():
    heis = catalog_load("heisenberg")
    res = lift_path(heis, np.zeros(3), zero_signal(2), arc_path(np.linspace(0, 1, 6)))
    rep = continuity_report(res)
    assert rep["p"] == 2.0
    assert len(rep["rows"]) == 5
    assert rep["max_residual"] <= 1e-6
    assert rep["reanchor_count"] == 0


def test_reanchor_mechanism(monkeypatch):
    # force one chart failure and check the lift recovers by re-anchoring
    import horizon.lifting as lifting

    heis = catalog_load("heisenberg")
    real = lifting.cross_section
    fails = {"n": 0}

    def flaky(system, base, target, params=None, **kw):
        if fails["n"] == 0 and np.linalg.norm(target - np.array([0.08, 0.0, 0.0])) < 1e-9:
            fails["n"] += 1
            raise ChartRadiusError("forced")
        return real(system, base, target, params, **kw)

    monkeypatch.setattr(lifting, "cross_section", flaky)
    path = TargetPath.from_function(
        lambda s: np.array([0.2 * s, 0.0, 0.0]), np.array([0.0, 0.2, 0.4, 0.7, 1.0])
    )
    res = lift_path(heis, np.zeros(3), zero_signal(2), path)
    assert res.residuals.max() <= 1e-6
    assert sum(ev["reanchors"] for ev in res.reanchor_events) >= 1


def test_drift_obstruction():
    al = catalog_load("agrachev_lee(3)")
    path = TargetPath(np.array([0.0, 1.0]), np.array([[0.0, 0.0], [0.0, -0.1]]))
    with pytest.raises(AdmissibilityError):
        lift_path(al, np.zeros(2), zero_signal(2), path, EnergyParams(p=2.0, beta=1.0))


def test_drift_lift_below_critical():
    # below the critical exponent the drift lift goes through
    import sympy as sp

    from horizon import ControlSystem, SymbolicField, state_symbols

    x0s, x1s, x2s = state_symbols(3)
    drift = SymbolicField([sp.Float(0), sp.Float(0), sp.Rational(1, 10) * x0s], coords=(x0s, x1s, x2s))
    hd = ControlSystem("heis_drift", catalog_load("heisenberg").fields, drift=drift)
    path = TargetPath.from_function(
        lambda s: np.array([0.1 * s, 0.05 * s, 0.0]), np.linspace(0, 1, 4)
    )
    res = lift_path(hd, np.zeros(3), zero_signal(2), path, EnergyParams(p=1.5, beta=1.0))
    assert res.residuals.max() <= 1e-6


def test_drift_lift_takes_every_plan_the_chart_solve_accepts():
    # the chart solve stops at 1e-10 (1 + |d|); the default steer_tol is
    # above that, so no steer Newton accepts is refused and the lift does not
    # re-anchor
    import sympy as sp

    from horizon import ControlSystem, SymbolicField, state_symbols

    x0s, x1s, x2s = state_symbols(3)
    drift = SymbolicField([sp.Float(0), sp.Float(0), sp.Rational(1, 10) * x0s], coords=(x0s, x1s, x2s))
    hd = ControlSystem("heis_drift", catalog_load("heisenberg").fields, drift=drift)
    path = TargetPath.from_function(
        lambda s: np.array([0.3 * s, 0.1 * np.sin(s), 0.05 * s]), np.linspace(0, 1, 5)
    )
    res = lift_path(hd, np.zeros(3), zero_signal(2), path, EnergyParams(p=1.5))
    assert continuity_report(res)["reanchor_count"] == 0
    assert res.residuals.max() <= 1e-9
    assert res.lp_modulus < 4.0


def test_refused_first_hop_bisects_without_repeating_the_steer(monkeypatch):
    # at k = 1 the anchor is the previous sample's control, so re-anchoring
    # there changes nothing: the refused pair is not steered a second time
    import horizon.lifting as lifting

    heis = catalog_load("heisenberg")
    real = lifting.cross_section
    calls, refused = [], []

    def refusing(system, base, target, params=None, **kw):
        calls.append(target)
        if np.linalg.norm(base) < 1e-12 and np.linalg.norm(target - [0.2, 0.0, 0.0]) < 1e-12:
            refused.append(target)
            raise ChartRadiusError("refused")
        return real(system, base, target, params, **kw)

    monkeypatch.setattr(lifting, "cross_section", refusing)
    path = TargetPath(np.array([0.0, 1.0]), np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0]]))
    res = lift_path(heis, np.zeros(3), zero_signal(2), path)
    assert res.residuals.max() <= 1e-6
    assert len(refused) == 1
    assert len(calls) == 3
    assert continuity_report(res)["reanchor_count"] == 1


def test_refused_hop_from_the_previous_control_bisects_from_it(monkeypatch):
    # at k = 2 the chart refuses the anchor's steer and the re-anchored steer
    # from the previous control; the lift bisects from the previous control:
    # one stone at the midpoint, then the sample, two re-anchors in all
    import horizon.lifting as lifting

    heis = catalog_load("heisenberg")
    real = lifting.cross_section
    t1, t2 = np.array([0.1, 0.0, 0.0]), np.array([0.2, 0.0, 0.0])
    calls, refused = [], []

    def refusing(system, base, target, params=None, **kw):
        calls.append((np.array(base), np.array(target)))
        if np.linalg.norm(target - t2) < 1e-12 and len(refused) < 2:
            refused.append(base)
            raise ChartRadiusError("refused")
        return real(system, base, target, params, **kw)

    monkeypatch.setattr(lifting, "cross_section", refusing)
    path = TargetPath(np.array([0.0, 1.0, 2.0]), np.array([np.zeros(3), t1, t2]))
    res = lift_path(heis, np.zeros(3), zero_signal(2), path)
    end1 = endpoint(heis, np.zeros(3), res.controls[1], substeps=64)
    mid = end1 + 0.5 * displacement(heis, end1, t2)
    steered = [target for _, target in calls]
    assert len(steered) == 5
    for got, want in zip(steered, [t1, t2, t2, mid, t2]):
        assert np.linalg.norm(got - want) <= 1e-12
    assert np.linalg.norm(refused[0]) <= 1e-12
    assert np.array_equal(refused[1], end1)
    assert np.linalg.norm(calls[4][0] - mid) <= 1e-6
    assert continuity_report(res)["reanchor_count"] == 2
    assert res.reanchor_events == [{"sample_index": 2, "reanchors": 2}]
    assert res.residuals.max() <= 1e-6


@pytest.mark.parametrize("refuse_last", [False, True])
def test_every_reanchor_counts_against_the_budget(monkeypatch, refuse_last):
    # K = 3 allows 12 re-anchors.  Sample 1 (x = 0.16) takes 12 bisections:
    # every hop longer than 0.03 is refused, and so are the 0.02 hops up to
    # x = 0.1, five of the eight.  Refusing the anchor's steer at sample 3
    # then takes a 13th re-anchor, at the previous sample's control
    import horizon.lifting as lifting

    heis = catalog_load("heisenberg")
    real = lifting.cross_section

    def refusing(system, base, target, params=None, **kw):
        length = np.linalg.norm(target - base)
        if target[0] <= 0.16 + 1e-6 and (length > 0.03 or (length > 0.015 and target[0] <= 0.1 + 1e-6)):
            raise ChartRadiusError("refused")
        if refuse_last and abs(base[0] - 0.16) < 1e-6 and abs(target[0] - 0.24) < 1e-6:
            raise ChartRadiusError("refused")
        return real(system, base, target, params, **kw)

    monkeypatch.setattr(lifting, "cross_section", refusing)
    path = TargetPath(np.arange(4.0), np.array([[x, 0.0, 0.0] for x in (0.0, 0.16, 0.2, 0.24)]))
    if refuse_last:
        with pytest.raises(ConvergenceError, match="12 re-anchors"):
            lift_path(heis, np.zeros(3), zero_signal(2), path)
        return
    res = lift_path(heis, np.zeros(3), zero_signal(2), path)
    assert res.reanchor_events == [{"sample_index": 1, "reanchors": 12}]
    assert res.residuals.max() <= 1e-6


def test_stepping_stone_takes_the_short_way_around_a_periodic_coordinate(monkeypatch):
    # theta runs from pi - 0.05 to -pi + 0.05, a 0.1 turn across the wrap;
    # with the first steer refused, the bisection stone must sit at theta =
    # pi, not at the coordinate midpoint theta = 0 half a turn away
    import horizon.lifting as lifting

    uni = catalog_load("unicycle")
    u0 = constant_signal(np.array([0.0, np.pi - 0.05]), 1.0)
    start = endpoint(uni, np.zeros(3), u0, substeps=64)
    real = lifting.cross_section
    targets = []

    def refuse_first(system, base, target, params=None, **kw):
        targets.append(target)
        if len(targets) == 1:
            raise ChartRadiusError("refused")
        return real(system, base, target, params, **kw)

    monkeypatch.setattr(lifting, "cross_section", refuse_first)
    path = TargetPath(np.array([0.0, 1.0]), np.array([start, [0.0, 0.0, -np.pi + 0.05]]))
    res = lift_path(uni, np.zeros(3), u0, path)
    assert len(targets) == 3
    assert abs(displacement(uni, targets[1], [0.0, 0.0, np.pi])[2]) <= 1e-12
    assert res.residuals.max() <= 1e-8
    assert res.lp_modulus < 1.0


def test_alpha_on_a_driftless_lift_is_a_config_error():
    heis = catalog_load("heisenberg")
    with pytest.raises(ConfigError, match="alpha"):
        lift_path(heis, np.zeros(3), zero_signal(2), arc_path([0.0, 1.0]), alpha=1.2)


@settings(max_examples=12, deadline=None)
@given(
    a=st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
    b=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
    K=st.integers(1, 3),
    refuse_first=st.booleans(),
)
def test_lift_residuals_are_the_controls_own_endpoints(a, b, K, refuse_first):
    # residuals[k] is the distance of controls[k]'s endpoint, bit for bit,
    # also when a refused steer sends the lift through a bisection
    import horizon.lifting as lifting

    heis = catalog_load("heisenberg")
    a, b = np.array(a), np.array(b)
    path = TargetPath.from_function(lambda s: s * a + s * s * b, np.linspace(0.0, 1.0, K + 1))
    real = lifting.cross_section
    calls = []

    def refusing(system, base, target, params=None, **kw):
        calls.append(target)
        if refuse_first and len(calls) == 1:
            raise ChartRadiusError("refused")
        return real(system, base, target, params, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting, "cross_section", refusing)
        res = lift_path(heis, np.zeros(3), zero_signal(2), path, substeps=16)
    for k, u in enumerate(res.controls):
        end = endpoint(heis, np.zeros(3), u, substeps=16)
        assert res.residuals[k] == float(np.linalg.norm(displacement(heis, end, path.targets[k])))
        assert u.breakpoints[0] == 0.0 and abs(u.total_time - 1.0) <= 1e-12
