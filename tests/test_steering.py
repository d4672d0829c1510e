import json

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horizon import (
    AdmissibilityError,
    ChartRadiusError,
    ConfigError,
    ControlSignal,
    ControlSystem,
    DomainEscapeError,
    EnergyParams,
    NotBracketGeneratingError,
    SymbolicField,
    UnsupportedStepError,
    catalog_load,
    concatenate_rescaled,
    displacement,
    TargetPath,
    endpoint,
    lift_path,
    state_symbols,
    system_from_json,
)
import horizon.steering as steering
from horizon.cli import main
from horizon.steering import (
    DEFAULT_FLOW_SUBSTEPS,
    build_chart,
    check_admissibility,
    critical_exponent,
    cross_section,
    cross_section_drift,
    solve_chart_coordinates,
)


def heis_with_drift():
    x0, x1, x2 = state_symbols(3)
    drift = SymbolicField([sp.Float(0), sp.Float(0), sp.Rational(1, 10) * x0], coords=(x0, x1, x2))
    heis = catalog_load("heisenberg")
    return ControlSystem("heis_drift", heis.fields, drift=drift)


def test_factor_counts():
    heis = catalog_load("heisenberg")
    ch = build_chart(heis, np.zeros(3))
    assert ch.factor_count == 6  # 1 + 1 + 4

    mart = catalog_load("martinet")
    chm = build_chart(mart, np.zeros(3))
    assert chm.factor_count == 12  # 1 + 1 + 10


def test_zero_coordinates_give_identity():
    heis = catalog_load("heisenberg")
    ch = build_chart(heis, np.array([0.4, -0.2, 0.1]))
    assert np.allclose(ch.compose(np.zeros(3)), ch.base)
    assert ch.plan_signal(np.zeros(3)).segments == 0


def test_heisenberg_vertical_coordinate():
    # the bracket coordinate of a vertical target equals its height exactly
    heis = catalog_load("heisenberg")
    ch = build_chart(heis, np.zeros(3))
    for c in [0.3, -0.25, 0.05]:
        phi, _ = solve_chart_coordinates(ch, np.array([0.0, 0.0, c]))
        assert np.allclose(phi, [0.0, 0.0, c], atol=1e-8)


def test_martinet_vertical_coordinate():
    # [X1,[X1,X2]] = 2 dz, so the depth-3 coordinate is half the height
    mart = catalog_load("martinet")
    ch = build_chart(mart, np.zeros(3))
    for c in [0.2, -0.15]:
        phi, _ = solve_chart_coordinates(ch, np.array([0.0, 0.0, c]))
        assert abs(phi[2] - c / 2) < 1e-6


@pytest.mark.parametrize("name", ["heisenberg", "unicycle"])
def test_steering_random_targets(name):
    system = catalog_load(name)
    rng = np.random.default_rng(7)
    x = np.zeros(3)
    for _ in range(15):
        y = x + 0.1 * rng.uniform(-1, 1, size=3)
        plan = cross_section(system, x, y)
        assert plan.residual <= 1e-6
        end = endpoint(system, x, plan.sigma, substeps=32) if plan.sigma.segments else x
        assert np.linalg.norm(displacement(system, end, y)) <= 1e-6


def test_steering_identity_is_exact_zero():
    heis = catalog_load("heisenberg")
    x = np.array([0.2, 0.1, -0.3])
    plan = cross_section(heis, x, x.copy())
    assert plan.T == 0.0
    assert plan.sigma.segments == 0
    assert plan.residual == 0.0


def test_steering_shrinks_with_target():
    # ||sigma||_p + T decreases monotonically along shrinking directions
    heis = catalog_load("heisenberg")
    params = EnergyParams(p=2.0, beta=1.0)
    rng = np.random.default_rng(8)
    x = np.zeros(3)
    for _ in range(5):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        sizes = []
        for t in [0.1, 0.05, 0.025, 0.0125]:
            plan = cross_section(heis, x, x + t * v, params)
            sizes.append(plan.sigma.lp_norm(2.0) + plan.T)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_chart_radius_error():
    # targets far outside the chart make Newton stall
    uni = catalog_load("unicycle")
    with pytest.raises((ChartRadiusError,)):
        cross_section(uni, np.zeros(3), np.array([40.0, -35.0, 2.0]))


def test_periodic_steering():
    # theta wraps: steering across the pi boundary stays short
    uni = catalog_load("unicycle")
    x = np.array([0.0, 0.0, 3.1])
    y = np.array([0.02, 0.0, -3.12])
    plan = cross_section(uni, x, y)
    assert plan.residual <= 1e-6
    assert plan.T < 1.0


def test_critical_exponents():
    assert critical_exponent(catalog_load("heisenberg"), np.zeros(3)) == float("inf")
    assert critical_exponent(catalog_load("martinet"), np.zeros(3)) == float("inf")
    assert np.isclose(critical_exponent(catalog_load("agrachev_lee(3)"), np.zeros(2)), 1.5)
    assert np.isclose(critical_exponent(heis_with_drift(), np.zeros(3)), 2.0)


def test_a_drift_frame_of_step_one_admits_every_p():
    # agrachev_lee(3) away from x0 = 0: the controlled fields span, the frame
    # has step 1, and the bound sigma/(sigma - 1) is inf, as without drift
    al3, x = catalog_load("agrachev_lee(3)"), np.array([0.5, 0.1])
    assert critical_exponent(al3, x) == float("inf")
    assert check_admissibility(al3, x, 3.0) == float("inf")
    assert cross_section_drift(al3, x, [0.51, 0.1], p=1.5).residual <= 1e-9
    u0 = ControlSignal(np.array([0.0, 1.0]), np.zeros((1, 2)))
    start = endpoint(al3, x, u0, substeps=8)
    path = TargetPath.from_function(lambda s: start + s * np.array([0.01, -0.005]), [0.0, 0.5, 1.0])
    assert lift_path(al3, x, u0, path, EnergyParams(p=3.0), substeps=8).residuals.max() <= 1e-8


def test_admissibility_gate():
    al = catalog_load("agrachev_lee(3)")
    with pytest.raises(AdmissibilityError) as exc:
        check_admissibility(al, np.zeros(2), 1.6)
    assert "3/2" in str(exc.value)
    assert check_admissibility(al, np.zeros(2), 1.4) == 1.5
    # driftless systems accept any p > 1
    heis = catalog_load("heisenberg")
    for p in [1.5, 2.0, 3.0, 10.0]:
        assert check_admissibility(heis, np.zeros(3), p) == float("inf")


def test_drift_steering_end_to_end():
    hd = heis_with_drift()
    x = np.zeros(3)
    y = np.array([0.1, 0.05, 0.02])
    plan = cross_section_drift(hd, x, y, p=1.5)
    assert plan.residual <= 1e-9
    end = endpoint(hd, x, plan.sigma, substeps=64)
    assert np.linalg.norm(end - y) <= 1e-8
    assert plan.alpha is not None


def test_drift_error_precedence():
    al = catalog_load("agrachev_lee(3)")
    # inadmissible p is reported before the unsupported chart step
    with pytest.raises(AdmissibilityError):
        cross_section_drift(al, np.zeros(2), np.array([0.3, 0.1]), p=1.6)
    with pytest.raises(UnsupportedStepError):
        cross_section_drift(al, np.zeros(2), np.array([0.3, 0.1]), p=1.4)


def test_drift_rejects_bad_alpha():
    hd = heis_with_drift()
    with pytest.raises(AdmissibilityError):
        cross_section_drift(hd, np.zeros(3), np.array([0.1, 0.0, 0.0]), p=1.5, alpha=0.9)
    # a non-finite alpha is a config error, not an inadmissible exponent
    with pytest.raises(ConfigError, match="alpha must be finite"):
        cross_section_drift(hd, np.zeros(3), np.array([0.1, 0.0, 0.0]), p=1.5,
                            alpha=float("nan"))


@pytest.mark.parametrize("substeps", [0, -1])
def test_chart_flows_need_a_substep(substeps, capsys):
    # a 0-substep flow is the identity, so the chart Newton could only stall
    heis = catalog_load("heisenberg")
    y = np.array([0.0, 0.0, 0.01])
    with pytest.raises(ConfigError, match="flow_substeps"):
        build_chart(heis, np.zeros(3), flow_substeps=substeps)
    with pytest.raises(ConfigError, match="flow_substeps"):
        cross_section(heis, np.zeros(3), y, flow_substeps=substeps)
    with pytest.raises(ConfigError, match="flow_substeps"):
        cross_section_drift(heis_with_drift(), np.zeros(3), y, p=1.5, flow_substeps=substeps)
    code = main(["steer", "--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.01",
                 "--substeps", str(substeps)])
    assert code == 2
    assert "flow_substeps" in capsys.readouterr().err


def test_plan_norm_scales_with_drift_exponent():
    # segment norms follow |c|^((2 alpha + p - 2 p alpha)/p)
    hd = heis_with_drift()
    p, alpha = 1.5, 1.2
    cs = np.logspace(-2.5, -1.5, 5)
    norms = []
    for c in cs:
        plan = cross_section_drift(hd, np.zeros(3), np.array([0.0, 0.0, c]), p=p, alpha=alpha)
        norms.append(plan.sigma.lp_norm(p))
    slope = np.polyfit(np.log(cs), np.log(norms), 1)[0]
    # vertical coordinate enters through a depth-2 word: |phi|^(1/2) per factor
    expected = 0.5 * (2 * alpha + p - 2 * p * alpha) / p
    assert abs(slope - expected) < 0.05


STEP5_DRIFT_JSON = json.dumps(
    {
        "name": "step5_drift",
        "n": 2,
        "d": 2,
        "fields": [
            [[{"coef": 1.0, "exponents": [0, 0]}], []],
            [[], [{"coef": 1.0, "exponents": [4, 0]}]],
        ],
        "drift": [[], [{"coef": 1.0, "exponents": [4, 0]}]],
    }
)


def test_drift_step5_is_unsupported_not_degenerate(tmp_path, capsys):
    # at the origin the drift frame has step 5, so p = 1.2 < 5/4 is admissible,
    # but the controlled fields only span at bracket depth 5
    system = system_from_json(STEP5_DRIFT_JSON)
    assert check_admissibility(system, np.zeros(2), 1.2) == 1.25
    with pytest.raises(UnsupportedStepError):
        cross_section_drift(system, np.zeros(2), np.array([0.01, 0.0]), p=1.2)
    path = tmp_path / "step5.json"
    path.write_text(STEP5_DRIFT_JSON)
    code = main(["steer", "--system", str(path), "--x", "0,0", "--y", "0.01,0", "--p", "1.2"])
    assert code == 2
    assert "step <= 2" in capsys.readouterr().err


@pytest.mark.parametrize("drift", [False, True], ids=["driftless", "drift"])
def test_checked_residual_above_steer_tol_is_refused(drift, capsys):
    # steer_tol bounds the one check of the plan's reached state, and Newton
    # stops no later than steer_tol: a steer_tol below rounding, which no
    # plan meets, is refused with an error naming it
    y = np.array([0.01, 0.02, 0.03])
    if drift:
        system = heis_with_drift()
        steer = lambda tol: cross_section_drift(system, np.zeros(3), y, p=1.5, steer_tol=tol)
    else:
        system = catalog_load("heisenberg")
        steer = lambda tol: cross_section(system, np.zeros(3), y, steer_tol=tol)
    plan = steer(1e-9)
    end = endpoint(system, np.zeros(3), plan.sigma, substeps=plan.substeps)
    assert 0.0 < plan.residual == float(np.linalg.norm(displacement(system, end, y)))
    with pytest.raises(ChartRadiusError, match="steer_tol"):
        steer(1e-20)
    if not drift:
        code = main(["steer", "--system", "heisenberg", "--x", "0,0,0", "--y", "0.01,0.02,0.03",
                     "--steer-tol", "1e-20"])
        assert code == 4
        assert "steer_tol" in capsys.readouterr().err


@pytest.mark.parametrize("drift", [False, True], ids=["driftless", "drift"])
def test_chart_solves_against_its_anchor(drift):
    # the chart carries the anchor (x0, u) its plan is appended to, and its
    # one check runs that composed control: plan.reached is its endpoint.
    # With drift Newton inverts the composed map, and the plan run from u's
    # endpoint alone misses y, since appending rescales u's drift time;
    # without drift rescaling commutes with the flow, so it reaches y too
    system = heis_with_drift() if drift else catalog_load("heisenberg")
    x0 = np.array([0.1, -0.05, 0.0])
    u = ControlSignal(np.array([0.0, 0.5, 1.0]), np.array([[0.4, -0.2], [0.3, 0.5]]))
    end = endpoint(system, x0, u, substeps=16)
    y = end + np.array([0.02, -0.01, 0.01])
    if drift:
        plan = cross_section_drift(system, end, y, p=1.5, flow_substeps=16, anchor=(x0, u))
    else:
        plan = cross_section(system, end, y, flow_substeps=16, anchor=(x0, u))
    composed = endpoint(system, x0, concatenate_rescaled(u, plan.sigma, plan.T), substeps=16)
    np.testing.assert_array_equal(plan.reached, composed)
    assert plan.residual == float(np.linalg.norm(composed - y)) <= 1e-9
    alone = endpoint(system, end, plan.sigma, substeps=16)
    if drift:
        assert np.linalg.norm(alone - y) > 1e-4
    else:
        assert np.linalg.norm(alone - y) <= 1e-9


def test_chart_newton_rejects_a_trial_step_that_escapes_the_domain():
    # a damped trial whose composed flow blows up is rejected like one that
    # does not lower the residual: Newton halves the step and still solves
    hd = heis_with_drift()
    x, y = np.zeros(3), np.array([0.05, 0.02, 0.01])
    chart = build_chart(hd, x, EnergyParams(p=1.5), max_depth=2, alpha=1.25)
    compose, calls = chart.compose, []
    first_trial = 2  # after the start's residual; the exact Jacobian runs no compose

    def escaping_once(phi):
        calls.append(phi)
        if len(calls) == first_trial:
            raise DomainEscapeError("trial step left the domain")
        return compose(phi)

    chart.compose = escaping_once
    phi, _ = solve_chart_coordinates(chart, y)
    assert len(calls) > first_trial
    assert np.linalg.norm(compose(phi) - y) <= 1e-10 * (1.0 + np.linalg.norm(y))


def test_a_steer_whose_jacobian_escapes_is_refused():
    # Newton accepts the start, but the Jacobian's integration of the laid-out
    # plan leaves the 1e6 state bound (at t = 317): a refusal, not a failure
    x = [2.9667836273267948e-06, 0.7158438515433346, 0.06652728116922192]
    y = [0.0359861182320848, 0.6717147001649596, 0.13278424380718418]
    with pytest.raises(ChartRadiusError, match="stalled"):
        cross_section(catalog_load("martinet"), x, y)


def test_a_plan_whose_check_escapes_is_refused():
    # a driftless solve runs the flow product; only the check runs the plan
    chart = build_chart(catalog_load("heisenberg"), np.zeros(3))

    def escaping(sig):
        raise DomainEscapeError("trajectory left the state bound", t=0.5)

    chart.plan_endpoint = escaping
    with pytest.raises(ChartRadiusError, match="^plan check escaped"):
        steering._steer_on_chart(chart, np.array([0.0, 0.0, 0.01]), 1e-9)


@pytest.mark.parametrize("name, y", [
    ("heisenberg", [0.071, -0.093, 0.046]),  # 4.3e-12 with a central-difference Jacobian
    ("unicycle", [0.28, 0.15, -0.1]),  # 9.7e-11 under the 1e-10 (1 + |d|) stop alone
])
def test_explicit_steer_tol_below_the_newton_stop_is_met(name, y):
    # Newton stops at min(1e-10 (1 + |d|), steer_tol), so a plan that would
    # stop above an explicit steer_tol of 1e-12 is driven below it
    system, y = catalog_load(name), np.array(y)
    plan = cross_section(system, np.zeros(3), y, steer_tol=1e-12)
    end = endpoint(system, np.zeros(3), plan.sigma, substeps=plan.substeps)
    assert plan.residual == float(np.linalg.norm(displacement(system, end, y))) <= 1e-12


def _richardson_chart_jacobian(chart, phi):
    # central differences of compose at steps e, e/2, e/4 with e = |phi_k|/50
    # (so phi_k keeps its sign), extrapolated twice
    J = np.empty((chart.system.n, len(phi)))
    for k in range(len(phi)):
        D = []
        for e in np.array([1.0, 0.5, 0.25]) * abs(phi[k]) / 50:
            ep, em = phi.copy(), phi.copy()
            ep[k] += e
            em[k] -= e
            D.append((chart.compose(ep) - chart.compose(em)) / (2 * e))
        R1, R2 = (4 * D[1] - D[0]) / 3, (4 * D[2] - D[1]) / 3
        J[:, k] = (16 * R2 - R1) / 15
    return J


def _nonzero_phi(rng, n):
    return rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.02, 0.1, size=n)


@pytest.mark.parametrize("name", ["heisenberg", "martinet", "unicycle", "grushin", "free_step2_rank2"])
def test_driftless_chart_jacobian_is_exact(name):
    # one differential of the laid-out plan gives the Jacobian of the flow
    # product, to the Richardson reference's own error
    # a plain central difference (step 1e-6 |phi_k|) misses by about 1e-9
    system = catalog_load(name)
    rng = np.random.default_rng(5)
    for base in (np.zeros(system.n), 0.2 * rng.normal(size=system.n)):
        chart = build_chart(system, base)
        phi = _nonzero_phi(rng, system.n)
        fd = _richardson_chart_jacobian(chart, phi)
        assert np.abs(chart.jacobian(phi) - fd).max() <= 1e-10 * np.abs(fd).max()


_DRIFT_BASES = {"heis_drift": (np.zeros(3), 0.2), "agrachev_lee(3)": (np.array([0.5, 0.1]), 0.05)}


@pytest.mark.parametrize("anchored", [False, True], ids=["standalone", "anchored"])
@pytest.mark.parametrize("name", sorted(_DRIFT_BASES))
def test_drift_chart_jacobian_is_exact(name, anchored):
    # the segments' drift weights, and with an anchor (x0, u) the rescaling
    # 1 + T of every segment, enter through the same one differential
    # central differences of compose (step 1e-6 |phi_k|) missed by up to 1.5e-6 anchored
    system = heis_with_drift() if name == "heis_drift" else catalog_load(name)
    centre, spread = _DRIFT_BASES[name]
    rng = np.random.default_rng(7)
    for _ in range(10):
        base, anchor = centre + spread * rng.normal(size=system.n), None
        if anchored:
            u = ControlSignal(np.array([0.0, 0.4, 1.0]), 0.2 * rng.normal(size=(2, system.d)))
            anchor, base = (base, u), endpoint(system, base, u, substeps=4)
        chart = build_chart(system, base, EnergyParams(p=1.4), max_depth=2, alpha=1.2,
                            flow_substeps=4)
        chart.anchor = anchor
        phi = _nonzero_phi(rng, system.n)
        fd = _richardson_chart_jacobian(chart, phi)
        assert np.abs(chart.jacobian(phi) - fd).max() <= 1e-9 * np.abs(fd).max()


def _linear_terms(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def _driftless_system(draw):
    # n = 2 or 3, d = 2: X_i = e_i plus constant and linear terms in every
    # entry, which is bracket generating for most draws
    n = draw(st.integers(2, 3))
    term = st.fixed_dictionaries({
        "coef": st.integers(-4, 4).map(lambda k: k / 4),
        "exponents": st.sampled_from([[0] * n] + _linear_terms(n)),
    })
    field = st.lists(st.lists(term, max_size=2), min_size=n, max_size=n)
    fields = draw(st.lists(field, min_size=2, max_size=2))
    for i in range(2):
        fields[i][i].append({"coef": 1.0, "exponents": [0] * n})
    return system_from_json(json.dumps({"n": n, "d": 2, "fields": fields}))


@settings(max_examples=25, deadline=None)
@given(system=_driftless_system(), seed=st.integers(0, 2**16))
def test_random_driftless_chart_jacobian_is_exact(system, seed):
    rng = np.random.default_rng(seed)
    try:
        chart = build_chart(system, 0.2 * rng.normal(size=system.n), max_depth=3, flow_substeps=4)
    except NotBracketGeneratingError:
        assume(False)
    phi = _nonzero_phi(rng, system.n)
    fd = _richardson_chart_jacobian(chart, phi)
    size = np.abs(chart.compose(phi)).max()
    assert np.abs(chart.jacobian(phi) - fd).max() <= 1e-10 * max(np.abs(fd).max(), size)


def test_steer_from_a_zero_leading_order_coordinate_converges():
    # the start phi = (0.05, 0, 0.01) lays out no segment for word 2: its
    # Jacobian column is the bracket field at the base
    heis = catalog_load("heisenberg")
    y = np.array([0.05, 0.0, 0.01])
    chart = build_chart(heis, np.zeros(3))
    start = np.linalg.lstsq(chart.frame_matrix(), y, rcond=None)[0]
    assert start[1] == 0.0
    np.testing.assert_array_equal(chart.jacobian(start)[:, 1], chart.frame_matrix()[:, 1])
    plan = cross_section(heis, np.zeros(3), y)
    end = endpoint(heis, np.zeros(3), plan.sigma, substeps=plan.substeps)
    assert plan.residual == float(np.linalg.norm(end - y)) <= 1e-9


def test_subnormal_coordinate_lays_out_a_finite_plan():
    # a factor of subnormal duration would get the height |c|^(-beta) = inf;
    # the plan leaves it out like a factor too short to advance the clock
    heis = catalog_load("heisenberg")
    y = np.array([0.0, np.finfo(float).tiny / 10, 0.03125])
    sig = build_chart(heis, np.zeros(3)).plan_signal(y)
    assert np.isfinite(sig.values).all() and sig.segments == 4
    plan = cross_section(heis, np.zeros(3), y)
    assert plan.residual <= 1e-9


@pytest.mark.parametrize("z", [np.finfo(float).tiny, 1e-40])
def test_tiny_coordinate_takes_the_leading_order_column(z):
    # word 3's factors, of duration sqrt(z), are too short to advance the
    # plan's clock after words 1 and 2, so the plan has no segment for it: its
    # column is the bracket field at the base, as at phi_3 = 0, not zero
    heis = catalog_load("heisenberg")
    y = np.array([0.03125, 0.0625, z])
    chart = build_chart(heis, np.zeros(3))
    np.testing.assert_array_equal(chart.jacobian(y)[:, 2], chart.frame_matrix()[:, 2])
    assert cross_section(heis, np.zeros(3), y).residual <= 1e-9


def test_driftless_solve_takes_one_differential_per_newton_step(monkeypatch):
    # compose runs once at the start and once per line-search trial; the
    # Jacobian costs one differential per step and no compose
    chart = build_chart(catalog_load("unicycle"), np.zeros(3))
    calls = {"compose": 0, "differential": 0, "steps": 0, "trials": 0}
    compose, differential, backtrack = chart.compose, steering.differential, steering._backtrack

    def counted_compose(phi):
        calls["compose"] += 1
        return compose(phi)

    def counted_differential(*args, **kwargs):
        calls["differential"] += 1
        return differential(*args, **kwargs)

    def counted_backtrack(trial, accept):
        calls["steps"] += 1

        def counted_trial(damping):
            calls["trials"] += 1
            return trial(damping)

        return backtrack(counted_trial, accept)

    chart.compose = counted_compose
    monkeypatch.setattr(steering, "differential", counted_differential)
    monkeypatch.setattr(steering, "_backtrack", counted_backtrack)
    phi, reached = solve_chart_coordinates(chart, np.array([0.06, -0.03, 0.02]))
    assert calls["steps"] >= 2
    assert calls["differential"] == calls["steps"]
    assert calls["compose"] == 1 + calls["trials"]
    np.testing.assert_array_equal(reached, compose(phi))


# -- chart flow substeps ---------------------------------------------------------

_FLOW_SYSTEMS = ["heisenberg", "martinet", "unicycle", "grushin", "free_step2_rank2",
                 "agrachev_lee(3)", "agrachev_lee(4)", "heis_drift"]


def _flow_chart(system, base, substeps):
    if system.is_driftless:
        return build_chart(system, base, flow_substeps=substeps)
    return build_chart(system, base, EnergyParams(p=1.4), max_depth=2, alpha=1.2,
                       flow_substeps=substeps)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(_FLOW_SYSTEMS), seed=st.integers(0, 2**16))
def test_one_flow_substep_is_exact_where_field_flow_exact_holds(name, seed):
    # drift + c X_b for every field a factor uses: one RK4 step and 256 give
    # the same product of flows, to rounding
    system = heis_with_drift() if name == "heis_drift" else catalog_load(name)
    rng = np.random.default_rng(seed)
    base = 0.3 * rng.normal(size=system.n)
    try:
        one = _flow_chart(system, base, 1)
    except NotBracketGeneratingError:
        assume(False)
    assume(all(system.field_flow_exact[f.field_index - 1] for f in one.factors))
    phi = rng.uniform(-0.3, 0.3, size=system.n)
    many = _flow_chart(system, base, 256).compose(phi)
    assert np.abs(one.compose(phi) - many).max() <= 1e-12 * np.abs(many).max()


@pytest.mark.parametrize("field", ["quartic", "rotation"])
def test_one_flow_substep_is_not_exact_where_field_flow_exact_fails(field):
    # X_1 = (1, x0^4): x1's slope is a quartic in t; X_1 = (-x1, x0): a
    # rotation, whose coordinates read each other
    x = state_symbols(2)
    X1 = {"quartic": [1, x[0] ** 4], "rotation": [-x[1], x[0]]}[field]
    system = ControlSystem(field, [SymbolicField(X1, coords=x), SymbolicField([0, 1], coords=x)])
    assert system.field_flow_exact == (False, True)
    base, phi = np.array([0.3, 0.2]), np.array([0.5, 0.0])
    assert build_chart(system, base).flow_substeps == DEFAULT_FLOW_SUBSTEPS
    one = build_chart(system, base, flow_substeps=1).compose(phi)
    many = build_chart(system, base, flow_substeps=256).compose(phi)
    assert np.abs(one - many).max() > 1e-8


def test_explicit_flow_substeps_are_used_as_given():
    heis, y = catalog_load("heisenberg"), np.array([0.03, -0.02, 0.01])
    assert build_chart(heis, np.zeros(3)).flow_substeps == 1
    assert cross_section(heis, np.zeros(3), y).substeps == 1
    for substeps in (2, DEFAULT_FLOW_SUBSTEPS):
        assert build_chart(heis, np.zeros(3), flow_substeps=substeps).flow_substeps == substeps
        plan = cross_section(heis, np.zeros(3), y, flow_substeps=substeps)
        end = endpoint(heis, np.zeros(3), plan.sigma, substeps=substeps)
        assert plan.substeps == substeps
        assert plan.residual == float(np.linalg.norm(end - y))
    plan = cross_section_drift(heis_with_drift(), np.zeros(3), y, p=1.5, flow_substeps=3)
    assert plan.substeps == 3
    assert "substeps" not in json.loads(plan.to_json())


@pytest.mark.parametrize("drift", [False, True], ids=["driftless", "drift"])
def test_plan_reached_state_pins_no_trajectory(drift):
    y = np.array([0.03, -0.02, 0.01])
    if drift:
        plan = cross_section_drift(heis_with_drift(), np.zeros(3), y, p=1.5)
    else:
        plan = cross_section(catalog_load("heisenberg"), np.zeros(3), y)
    assert plan.sigma.segments and plan.reached.base is None


def _steer_with(kind, x=(0.0, 0.0, 0.0), y=(0.01, 0.0, 0.0), flow_substeps=None):
    if kind == "build_chart":
        return build_chart(catalog_load("heisenberg"), x, flow_substeps=flow_substeps)
    if kind == "cross_section":
        return cross_section(catalog_load("heisenberg"), x, y, flow_substeps=flow_substeps)
    return cross_section_drift(heis_with_drift(), x, y, p=1.5, flow_substeps=flow_substeps)


@pytest.mark.parametrize("kind, arg, value", [
    (kind, arg, value)
    for kind in ("build_chart", "cross_section", "cross_section_drift")
    for arg, value in (("x", [np.nan, 0.0, 0.0]), ("x", [0.0, 0.0]), ("y", [0.01, np.nan, 0.0]),
                       ("y", [0.01, 0.0]), ("y", [np.inf, 0.0, 0.0]), ("flow_substeps", 2.5))
    if not (kind == "build_chart" and arg == "y")
])
def test_steering_names_a_bad_argument(kind, arg, value):
    # a state of the wrong shape or with a non-finite entry, or a fractional
    # substep count, is a ConfigError that names the argument
    with pytest.raises(ConfigError, match=rf"^{arg} must"):
        _steer_with(kind, **{arg: value})
