import json

import numpy as np
import pytest
import sympy as sp

from horizon import (
    AdmissibilityError,
    ChartRadiusError,
    ConfigError,
    ControlSystem,
    DomainEscapeError,
    EnergyParams,
    SymbolicField,
    UnsupportedStepError,
    bracket_frame,
    catalog_load,
    displacement,
    endpoint,
    state_symbols,
    system_from_json,
)
from horizon.cli import main
from horizon.steering import (
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
        phi = solve_chart_coordinates(ch, np.array([0.0, 0.0, c]))
        assert np.allclose(phi, [0.0, 0.0, c], atol=1e-8)


def test_martinet_vertical_coordinate():
    # [X1,[X1,X2]] = 2 dz, so the depth-3 coordinate is half the height
    mart = catalog_load("martinet")
    ch = build_chart(mart, np.zeros(3))
    for c in [0.2, -0.15]:
        phi = solve_chart_coordinates(ch, np.array([0.0, 0.0, c]))
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
    # steer_tol bounds the one check of the plan's reached state: a plan
    # that misses it is refused, never re-solved
    y = np.array([0.01, 0.02, 0.03])
    if drift:
        system = heis_with_drift()
        steer = lambda tol: cross_section_drift(system, np.zeros(3), y, p=1.5, steer_tol=tol)
    else:
        system = catalog_load("heisenberg")
        steer = lambda tol: cross_section(system, np.zeros(3), y, steer_tol=tol)
    plan = steer(1e-9)
    end = endpoint(system, np.zeros(3), plan.sigma, substeps=16)
    assert 0.0 < plan.residual == float(np.linalg.norm(displacement(system, end, y)))
    with pytest.raises(ChartRadiusError, match="steer_tol"):
        steer(plan.residual / 2)
    if not drift:
        code = main(["steer", "--system", "heisenberg", "--x", "0,0,0", "--y", "0.01,0.02,0.03",
                     "--steer-tol", repr(plan.residual / 2)])
        assert code == 4
        assert "steer_tol" in capsys.readouterr().err


def test_drift_chart_solves_against_its_verify_endpoint():
    # the chart carries the map a plan is judged by, and Newton inverts that
    # map: an endpoint shifted by c is met exactly, so the plain plan misses
    # y by c
    hd = heis_with_drift()
    x, y = np.zeros(3), np.array([0.05, 0.02, 0.01])
    shift = np.array([1e-3, 0.0, -2e-3])
    plan = cross_section_drift(
        hd, x, y, p=1.5, verify_endpoint=lambda sig: endpoint(hd, x, sig, substeps=16) + shift
    )
    assert plan.residual <= 1e-9
    plain = endpoint(hd, x, plan.sigma, substeps=16)
    assert np.linalg.norm(plain + shift - y) <= 1e-9


def test_chart_newton_rejects_a_trial_step_that_escapes_the_domain():
    # a damped trial whose composed flow blows up is rejected like one that
    # does not lower the residual: Newton halves the step and still solves
    hd = heis_with_drift()
    x, y = np.zeros(3), np.array([0.05, 0.02, 0.01])
    words, _ = bracket_frame(hd, x, max_depth=2, controlled_only=True)
    chart = build_chart(hd, x, EnergyParams(p=1.5), words=words, alpha=1.25)
    compose, calls = chart.compose, []
    first_trial = 2 * hd.n + 2  # after the start's residual and the Jacobian's 2n columns

    def escaping_once(phi):
        calls.append(phi)
        if len(calls) == first_trial:
            raise DomainEscapeError("trial step left the domain")
        return compose(phi)

    chart.compose = escaping_once
    phi = solve_chart_coordinates(chart, y)
    assert len(calls) > first_trial
    assert np.linalg.norm(compose(phi) - y) <= 1e-10 * (1.0 + np.linalg.norm(y))
