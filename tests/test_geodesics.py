import importlib
import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon import geodesics
from horizon.endpoint import differential, endpoint, regular_value_test
from horizon.errors import ConfigError, ConvergenceError
from horizon.geodesics import (
    RIDGE,
    GeodesicOptions,
    _fails_on_endpoint,
    _feasibilize,
    _kkt_residual,
    _lambda_least_squares,
    _Workspace,
    coincidence_check,
    generate_seeds,
    lagrange_residual,
    multistart,
    solve_critical,
)
from horizon.signals import ControlSignal, energy, gradient_density
from horizon.systems import ControlSystem, catalog_load, displacement, polynomial_field


ORACLE_PATH = pathlib.Path(__file__).parent / "data" / "heisenberg_shooting.json"


def translation_system(n=2):
    fields = []
    for i in range(n):
        comps = [[] for _ in range(n)]
        comps[i] = [{"coef": 1.0, "exponents": [0] * n}]
        fields.append(polynomial_field(comps, n))
    return ControlSystem(f"translation{n}", fields)


def circle_control(k, m=64, radius=None):
    # discrete loop control winding k times; lands near the k-th ladder point
    if radius is None:
        radius = np.sqrt(2.0 * np.pi * k)
    bps = np.linspace(0.0, 1.0, m + 1)
    mids = 0.5 * (bps[:-1] + bps[1:])
    vals = radius * np.column_stack(
        [np.cos(2.0 * np.pi * k * mids), np.sin(2.0 * np.pi * k * mids)]
    )
    return ControlSignal(bps, vals)


def test_translation_minimum_is_straight_segment():
    sys2 = translation_system(2)
    bps = np.linspace(0.0, 1.0, 9)
    u0 = ControlSignal(bps, np.tile([0.4, -0.2], (8, 1)))
    rec = solve_critical(sys2, [0.0, 0.0], [1.0, 2.0], u_init=u0)
    assert rec.converged
    assert rec.energy == pytest.approx(5.0, rel=1e-8)  # |y-x|^2
    assert np.allclose(rec.control.values, [1.0, 2.0], atol=1e-7)
    assert rec.speed_variation <= 1e-8


def test_translation_multistart_single_cluster():
    sys2 = translation_system(2)
    rep = multistart(sys2, [0.0, 0.0], [1.0, 0.5], p=2.0, n_seeds=6, rng_seed=3, m_seed=8)
    assert rep.seeds_tried == 6
    assert not rep.failed_seeds
    assert len(rep.energy_clusters) == 1
    assert rep.energy_clusters[0]["energy"] == pytest.approx(1.25, rel=1e-6)


def test_heisenberg_line_p2():
    heis = catalog_load("heisenberg")
    bps = np.linspace(0.0, 1.0, 17)
    rng = np.random.default_rng(1)
    u0 = ControlSignal(bps, np.tile([1.0, 0.0], (16, 1)) + 0.05 * rng.standard_normal((16, 2)))
    rec = solve_critical(heis, [0, 0, 0], [1.0, 0, 0], u_init=u0)
    assert rec.converged
    assert rec.energy == pytest.approx(1.0, abs=1e-3)
    assert rec.endpoint_residual <= 1e-8
    assert rec.stationarity_residual <= 1e-6 * rec.stationarity_scale
    assert rec.lam[0] == pytest.approx(2.0, abs=1e-6)
    assert abs(rec.lam[1]) <= 1e-6 and abs(rec.lam[2]) <= 1e-5


def test_ladder_matches_frozen_table():
    table = json.loads(ORACLE_PATH.read_text())
    heis = catalog_load("heisenberg")
    for k, row in enumerate(table["records"][:3], start=1):
        rec = solve_critical(heis, [0, 0, 0], [0, 0, 0.5], u_init=circle_control(k))
        assert rec.converged
        assert abs(rec.energy - row["energy"]) / row["energy"] < 0.01
        assert rec.speed_variation <= 1e-3


def test_gmres_reaches_the_forcing_term_asked_on_ladder_seed_5():
    # ladder seed 5 (criterion 7): the Eisenstat-Walker forcing
    # min(0.1, sqrt(merit / merit_0)) falls below 10 sqrt(eps) = 1.49e-7 in
    # its last solve; GMRES reaches every forcing term within its budget, and
    # the whole solve stays within 100 matvecs
    heis = catalog_load("heisenberg")
    u0 = ControlSignal(np.linspace(0.0, 1.0, 65), generate_seeds(0, 8, 64, 2, 0.5)[5])
    rec = solve_critical(heis, [0, 0, 0], [0, 0, 0.5], u_init=u0)
    assert rec.converged
    solves = rec.diagnostics["gmres"]
    assert len(solves) == rec.iterations
    assert all(s["info"] == 0 for s in solves)
    assert sum(s["matvecs"] for s in solves) <= 100
    assert min(s["rtol"] for s in solves) < 10.0 * np.sqrt(np.finfo(float).eps)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["heisenberg", "agrachev_lee(3)"]), seed=st.integers(0, 2**32 - 1),
       m=st.integers(2, 12), scale=st.floats(0.1, 1.0))
def test_normal_equations_are_l2_least_squares(name, seed, m, scale):
    # the multiplier fit and the first feasibilization direction against
    # lstsq of the L^2-scaled problems, where the L^2 inner product on the
    # segment basis is sum h_k u_k . v_k, so B = A / sqrt(h) is the scaled
    # differential.  Both solve normal equations shifted by delta = RIDGE (tr
    # G / n + 1), which moves the solution by at most delta / sigma_min(G)
    # relative, in the scaled norm; rounding is far below that.
    system = catalog_load(name)
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.5, 1.5, m)
    bps = np.concatenate([[0.0], np.cumsum(widths) / np.sum(widths)])
    bps[-1] = 1.0
    U = scale * rng.standard_normal((m, system.d))
    opts = GeodesicOptions(feas_iter=1)
    ws = _Workspace(system, np.zeros(system.n), ControlSignal(bps, U), opts.substeps_for(system))
    diff = ws.assemble(U)
    sq = np.sqrt(ws.h_dof)
    B = diff.matrix / sq
    G = B @ B.T
    tol = 2.0 * RIDGE * (np.trace(G) / system.n + 1.0) / np.linalg.eigvalsh(G)[0]

    g = gradient_density(U, opts.p, opts.mode).ravel()
    lam_ref = np.linalg.lstsq(B.T, sq * g, rcond=None)[0]
    lam = _lambda_least_squares(ws, U, opts)
    assert np.linalg.norm(lam - lam_ref) <= tol * np.linalg.norm(lam_ref)

    y = diff.endpoint + 1e-3 * rng.standard_normal(system.n)  # a short step stays in the domain
    r = displacement(system, diff.endpoint, y)
    v_ref = np.linalg.lstsq(B, r, rcond=None)[0] / sq  # min sum h v^2 subject to A v = r
    steps = []

    def first_step(trial, accept):
        steps.append(trial(1.0)[0] - U)
        return None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesics, "_backtrack", first_step)
        _feasibilize(ws, U, y, opts, [])
    (v,) = steps
    rounding = 4.0 * np.finfo(float).eps * np.linalg.norm(sq * U.ravel())  # of (U + v) - U
    assert np.linalg.norm(sq * (v.ravel() - v_ref)) <= tol * np.linalg.norm(sq * v_ref) + rounding


def test_feasibilization_stops_where_the_differential_vanishes():
    # fields x_i e_i vanish at the origin, so from x = 0 the state stays there
    # and A = 0: the ridged Gram is RIDGE I, the step is 0, no damped step
    # lowers the residual, and feasibilization stops at the seed
    fields = []
    for i in range(2):
        comps = [[] for _ in range(2)]
        comps[i] = [{"coef": 1.0, "exponents": [int(j == i) for j in range(2)]}]
        fields.append(polynomial_field(comps, 2))
    radial = ControlSystem("radial2", fields)
    u0 = ControlSignal(np.linspace(0.0, 1.0, 5), np.ones((4, 2)))
    rec = solve_critical(radial, [0.0, 0.0], [1.0, 0.0], u_init=u0,
                         opts=GeodesicOptions(max_iter=0, raise_on_failure=False))
    assert rec.diagnostics["feas_log"] == [1.0]
    assert np.array_equal(rec.control.values, u0.values)
    assert np.array_equal(rec.lam, [0.0, 0.0])
    assert not rec.converged


@pytest.mark.parametrize("a", [1e-5, 1e-6, 1e-7, 1e-9])
def test_rank_warning_follows_the_rank_rule(a):
    # grushin from 0 with u = (a, 0): the L^2-scaled differential's
    # sigma_min / sigma_max is about 0.58 a, so the record warns exactly where
    # regular_value_test finds it not regular, here only at a = 1e-9
    grushin = catalog_load("grushin")
    u = ControlSignal(np.linspace(0.0, 1.0, 9), np.tile([a, 0.0], (8, 1)))
    y = endpoint(grushin, [0.0, 0.0], u, substeps=2)
    rec = solve_critical(grushin, [0.0, 0.0], y, u_init=u,
                         opts=GeodesicOptions(feas_iter=0, max_iter=0, raise_on_failure=False))
    report = regular_value_test(differential(grushin, np.zeros(2), u, substeps=2))
    assert report.regular == (a > 1e-8)
    assert rec.rank_warning == (not report.regular)


def test_lagrange_residual_perturbation_scales_linearly():
    heis = catalog_load("heisenberg")
    rec = solve_critical(
        heis, [0, 0, 0], [1.0, 0, 0], u_init=ControlSignal(np.linspace(0, 1, 17), np.tile([1.0, 0.0], (16, 1)))
    )
    base = lagrange_residual(heis, [0, 0, 0], [1, 0, 0], rec.control, rec.lam, 2.0)
    rng = np.random.default_rng(5)
    V = rng.standard_normal(rec.control.values.shape)
    V /= np.linalg.norm(V)
    res = []
    for delta in (1e-3, 2e-3):
        u_pert = ControlSignal(rec.control.breakpoints, rec.control.values + delta * V)
        res.append(lagrange_residual(heis, [0, 0, 0], [1, 0, 0], u_pert, rec.lam, 2.0))
    assert res[0] > 50 * max(base, 1e-12)
    assert 1.5 < res[1] / res[0] < 2.5


def test_lagrange_residual_refuses_a_wrongly_shaped_multiplier():
    heis = catalog_load("heisenberg")
    u = ControlSignal(np.linspace(0.0, 1.0, 4), np.ones((3, 2)))
    for lam in (np.ones(4), np.ones((3, 1))):
        with pytest.raises(ConfigError, match=r"lam must have shape \(3,\), got"):
            lagrange_residual(heis, np.zeros(3), [1.0, 0.0, 0.0], u, lam, 2.0)


def test_coincidence_p2_and_p3():
    heis = catalog_load("heisenberg")
    bps = np.linspace(0.0, 1.0, 17)
    for p in (2.0, 3.0):
        u0 = ControlSignal(bps, np.tile([1.0, 0.0], (16, 1)))
        rec = solve_critical(heis, [0, 0, 0], [1.0, 0, 0], p=p, u_init=u0)
        assert rec.converged
        rep = coincidence_check(rec, heis, [0, 0, 0], [1.0, 0, 0])
        assert rep.passed
        assert rep.mean_speed == pytest.approx(1.0, abs=1e-6)
        assert not rep.indeterminate


@settings(max_examples=20, deadline=None)
@given(
    p=st.floats(1.2, 5.0),
    speed=st.floats(0.1, 2.0),
    angle=st.floats(0.0, 2.0 * np.pi),
    weights=st.lists(st.integers(1, 10), min_size=2, max_size=8),
)
def test_constant_control_is_critical_and_coincides(p, speed, angle, weights):
    # a constant Heisenberg control is a straight line: J_p-critical on the
    # fiber over its own endpoint at every p, so the solver accepts it as it
    # stands and it passes the p = 2 coincidence check
    heis = catalog_load("heisenberg")
    bps = np.concatenate([[0.0], np.cumsum(weights) / sum(weights)])
    ab = speed * np.array([np.cos(angle), np.sin(angle)])
    u = ControlSignal(bps, np.tile(ab, (len(weights), 1)))
    y = endpoint(heis, np.zeros(3), u, substeps=GeodesicOptions().substeps_for(heis))
    rec = solve_critical(heis, np.zeros(3), y, p=p, u_init=u)
    assert rec.converged and rec.iterations == 0
    assert coincidence_check(rec, heis, np.zeros(3), y).passed


def test_coincidence_on_curved_record():
    heis = catalog_load("heisenberg")
    rec = solve_critical(heis, [0, 0, 0], [0, 0, 0.5], p=2.0, u_init=circle_control(1, m=32))
    rep = coincidence_check(rec, heis, [0, 0, 0], [0, 0, 0.5])
    assert rep.passed
    assert rep.eta == pytest.approx(rec.lam / 2.0)


@pytest.fixture(scope="module")
def inexact_p3_record():
    # agrachev_lee(4)'s RK4 maps move with the substep count (x0^4 is not a
    # cubic; Heisenberg's and martinet's are exact), so a record's residuals
    # depend on its grid
    al4 = catalog_load("agrachev_lee(4)")
    x = np.array([0.0, 0.5])
    y = x + np.array([0.3, 0.05])
    rep = multistart(al4, x, y, n_seeds=2, m_seed=8, opts=GeodesicOptions(p=3.0, substeps=3))
    return al4, x, y, rep.records[0]


def test_record_carries_the_substeps_it_was_solved_on(inexact_p3_record):
    al4, x, y, rec = inexact_p3_record
    assert rec.substeps == 3 and "substeps" not in rec.to_dict()
    args = (al4, x, y, rec.control, rec.lam, rec.p, rec.mode)
    assert lagrange_residual(*args, rec.substeps) == rec.stationarity_residual
    assert lagrange_residual(*args, 2) != rec.stationarity_residual
    rep = coincidence_check(rec, al4, x, y)
    assert rep.residual_2 == lagrange_residual(al4, x, y, rec.control, 2.0 * rep.eta, 2.0,
                                               "vector", rec.substeps)


def test_record_energy_is_the_energy_in_its_mode(inexact_p3_record):
    _, _, _, rec = inexact_p3_record
    assert rec.mode == "vector"
    assert energy(rec.control, rec.p, rec.mode) == rec.energy
    assert energy(rec.control, rec.p) != rec.energy  # the default mode is "component"


def test_multistart_deterministic_across_workers():
    heis = catalog_load("heisenberg")
    kw = dict(p=2.0, n_seeds=6, rng_seed=11, m_seed=16)
    rep1 = multistart(heis, [0, 0, 0], [0, 0, 0.2], workers=1, **kw)
    rep2 = multistart(heis, [0, 0, 0], [0, 0, 0.2], workers=3, **kw)
    assert rep1.to_json() == rep2.to_json()
    assert rep1.to_csv() == rep2.to_csv()


@pytest.mark.parametrize("bad", [{"m_seed": 0}, {"m_seed": -3}, {"workers": 0}, {"n_seeds": 0}])
def test_multistart_rejects_counts_below_one(bad):
    kw = dict(p=2.0, n_seeds=2, rng_seed=0, m_seed=8, workers=1)
    kw.update(bad)
    with pytest.raises(ConfigError, match="at least 1"):
        multistart(catalog_load("heisenberg"), [0, 0, 0], [0, 0, 0.2], **kw)


def test_failed_seeds_logged_not_fatal():
    heis = catalog_load("heisenberg")
    opts = GeodesicOptions(max_iter=1, feas_iter=1, raise_on_failure=False)
    rep = multistart(heis, [0, 0, 0], [0, 0, 0.4], n_seeds=4, rng_seed=2, m_seed=8, opts=opts)
    assert rep.seeds_tried == 4
    assert len(rep.records) + len(rep.failed_seeds) == 4
    assert rep.failed_seeds  # the budget above is too small to converge
    for f in rep.failed_seeds:
        assert set(f) == {"seed_index", "reason"}


def test_diverging_seed_is_logged_as_domain_escape():
    # seeds a million times too large leave the state bound during the first
    # integration; the reason names the error class, which failure counts read
    heis = catalog_load("heisenberg")
    rep = multistart(heis, [0, 0, 0], [0, 0, 0.1], n_seeds=2, m_seed=8, seed_scale=1e7)
    assert rep.records == []
    assert [f["seed_index"] for f in rep.failed_seeds] == [0, 1]
    assert all(f["reason"].startswith("DomainEscapeError") for f in rep.failed_seeds)


@pytest.mark.parametrize("seed_scale", [np.inf, np.nan, 1e308, 5e-324, 0.0, -1.0])
def test_seed_scale_must_leave_finite_amplitudes(seed_scale):
    # amplitudes span [0.5, 20] * scale: both ends must be positive and finite
    with pytest.raises(ConfigError, match="seed scale"):
        multistart(catalog_load("heisenberg"), [0, 0, 0], [0, 0, 0.1], n_seeds=1, m_seed=4,
                   seed_scale=seed_scale)


@pytest.mark.parametrize("p", [1.0000001, 1.0001])
def test_stationarity_near_p_one_is_not_lost_to_underflow(p):
    # q = p/(p-1) is 1e7 or 1e4, so |density|^q underflows; a converged
    # record must still report its stationarity and meet stat_tol
    heis = catalog_load("heisenberg")
    opts = GeodesicOptions(p=p)
    rep = multistart(heis, [0, 0, 0], [0, 0, 0.3], n_seeds=6, m_seed=8, opts=opts)
    assert rep.records
    for rec in rep.records:
        w_bar = differential(heis, np.zeros(3), rec.control, substeps=rec.substeps).w_bar
        dens = gradient_density(rec.control.values, p, rec.mode) - np.einsum(
            "j,kjd->kd", rec.lam, w_bar)
        worst = float(np.abs(dens).max())
        # the L^q norm on the 1/8 grid is at least (1/8)^(1/q) max |density|
        assert rec.stationarity_residual >= (1.0 - 1e-9) * 0.125 ** (1.0 / opts.q) * worst
        assert worst <= (1.0 + 1e-6) * opts.stat_tol * rec.stationarity_scale


def test_solver_raises_on_exhausted_budget():
    heis = catalog_load("heisenberg")
    u0 = circle_control(1, m=16)
    with pytest.raises(ConvergenceError):
        solve_critical(
            heis, [0, 0, 0], [0, 0, 0.5], u_init=u0,
            opts=GeodesicOptions(max_iter=0, feas_iter=1),
        )


def test_kkt_phase_ends_when_no_damped_step_helps(monkeypatch):
    # a KKT line search that refuses every step ends the Lagrange-Newton
    # phase at its first iterate: no other step is tried
    import horizon.geodesics as geodesics

    real = geodesics._backtrack

    def refuse_kkt_steps(trial, accept):
        found = real(trial, accept)
        # KKT trials give (U, lam, residual), feasibilization's (U, |r|)
        return None if found is None or len(found) == 3 else found

    monkeypatch.setattr(geodesics, "_backtrack", refuse_kkt_steps)
    heis = catalog_load("heisenberg")
    seed = generate_seeds(0, 1, 16, 2, 0.5)[0]
    u0 = ControlSignal(np.linspace(0.0, 1.0, 17), seed)
    rec = solve_critical(heis, [0, 0, 0], [0, 0, 0.5], u_init=u0,
                         opts=GeodesicOptions(raise_on_failure=False))
    assert not rec.converged
    assert rec.iterations == 0
    assert len(rec.diagnostics["kkt_log"]) == 1
    assert len(rec.diagnostics["gmres"]) == 1


def test_options_validation():
    with pytest.raises(ConfigError):
        GeodesicOptions(p=1.0)
    with pytest.raises(ConfigError):
        GeodesicOptions(mode="taxicab")
    with pytest.raises(ConfigError, match="p must be finite"):
        GeodesicOptions(p=1e308)
    for bad in ({"substeps": 0}, {"max_iter": -1}, {"feas_iter": -1}):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be at least"):
            GeodesicOptions(**bad)
    with pytest.raises(ConfigError):
        solve_critical(catalog_load("heisenberg"), [0, 0, 0], [1, 0, 0], u_init=None)


def test_p_beside_opts_must_agree():
    heis = catalog_load("heisenberg")
    rep = multistart(heis, [0, 0, 0], [0, 0, 0.1], n_seeds=1, m_seed=8,
                     opts=GeodesicOptions(p=3.0))
    assert rep.p == 3.0 and all(r.p == 3.0 for r in rep.records)
    with pytest.raises(ConfigError, match="disagrees"):
        multistart(heis, [0, 0, 0], [0, 0, 0.1], p=2.0, n_seeds=1, m_seed=8,
                   opts=GeodesicOptions(p=3.0))
    with pytest.raises(ConfigError, match="disagrees"):
        solve_critical(heis, [0, 0, 0], [0, 0, 0.5], p=2.0, u_init=circle_control(1, m=16),
                       opts=GeodesicOptions(p=3.0))


def test_seed_generation_deterministic_and_scaled():
    a = generate_seeds(9, 5, 16, 2, 0.5)
    b = generate_seeds(9, 5, 16, 2, 0.5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert all(s.shape == (16, 2) for s in a)
    amps = [np.sqrt(np.mean(s**2)) for s in a]
    assert min(amps) >= 0.2 and max(amps) <= 12.0


def test_report_serialization_shape():
    sys2 = translation_system(2)
    rep = multistart(sys2, [0, 0], [0.5, 0.5], n_seeds=3, rng_seed=1, m_seed=8)
    obj = json.loads(rep.to_json())
    assert obj["dedup_clusters"] == len(obj["records"])
    assert obj["seeds_tried"] == 3
    for row in obj["records"]:
        assert set(row) >= {
            "energy", "endpoint_residual", "stationarity_residual",
            "control", "lambda", "cluster_id", "converged",
        }
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "seed,energy,endpoint_residual,stationarity_residual,speed_variation,cluster_id"
    assert len(lines) == 1 + len(obj["records"])


def test_discretization_refinement_approaches_continuum():
    heis = catalog_load("heisenberg")
    target = 2.0 * np.pi
    errs = []
    for m in (32, 64, 128):
        rec = solve_critical(heis, [0, 0, 0], [0, 0, 0.5], u_init=circle_control(1, m=m))
        errs.append(abs(rec.energy - target) / target)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-4


def test_rank_warning_is_read_at_the_returned_control():
    # Martinet's straight line u = (0, 1) is abnormal: seeds that end on it
    # return a differential of rank 2 (seed 6: sigma_min/sigma_max = 2.8e-12),
    # however regular the feasibilized seed was
    mart, x, y = catalog_load("martinet"), np.zeros(3), np.array([0.0, 1.0, 0.0])
    rep = multistart(mart, x, y, p=2.0, n_seeds=32, rng_seed=0, m_seed=32)
    flags = {rec.seed_index: rec.rank_warning for rec in rep.records}
    for rec in rep.records:
        diff = differential(mart, x, rec.control, substeps=rec.substeps)
        assert rec.rank_warning == (not regular_value_test(diff).regular), rec.seed_index
    assert flags[6] and not all(flags.values())


@pytest.mark.parametrize("name, x, y", [("unicycle", [0.0, 0.0, 0.0], [0.2, 0.1, 0.3]),
                                        ("agrachev_lee(4)", [0.0, 0.5], [0.3, 0.55])])
def test_default_solve_is_the_two_substep_solve_where_one_step_is_not_exact(name, x, y):
    system = catalog_load(name)
    assert not system.slope_split.exact
    sig = ControlSignal(np.linspace(0.0, 1.0, 9), generate_seeds(1, 1, 8, system.d, 0.3)[0])
    records = [solve_critical(system, x, y, u_init=sig, opts=GeodesicOptions(**kw))
               for kw in ({}, {"substeps": 2})]
    assert [rec.substeps for rec in records] == [2, 2]
    default, explicit = (json.dumps(rec.to_dict(), sort_keys=True) for rec in records)
    assert default == explicit
    assert records[0].diagnostics == records[1].diagnostics


def test_default_substeps_follow_slope_split():
    # 1 where one RK4 step is exact, 2 elsewhere; an explicit count is kept
    for name, substeps in (("heisenberg", 1), ("agrachev_lee(3)", 1), ("agrachev_lee(4)", 2),
                           ("unicycle", 2)):
        system = catalog_load(name)
        assert GeodesicOptions().substeps_for(system) == substeps, name
        assert GeodesicOptions(substeps=3).substeps_for(system) == 3
    heis = catalog_load("heisenberg")
    rec = solve_critical(heis, np.zeros(3), [0.0, 0.0, 0.5], p=2.0, u_init=circle_control(1, m=16))
    assert rec.substeps == 1


def _radial_system():
    # fields x_i e_i: at x = 0 the state stays put and the differential is 0
    fields = []
    for i in range(2):
        comps = [[] for _ in range(2)]
        comps[i] = [{"coef": 1.0, "exponents": [int(j == i) for j in range(2)]}]
        fields.append(polynomial_field(comps, 2))
    return ControlSystem("radial2", fields)


def test_singular_feasibilized_control_skips_the_kkt_phase():
    # with A = 0 the KKT system has no Newton step: the solve returns the
    # feasibilized control, not converged and warned, without a GMRES solve
    # or a line search, so no floating-point warning is raised
    u0 = ControlSignal(np.linspace(0.0, 1.0, 5), np.ones((4, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = solve_critical(_radial_system(), [0.0, 0.0], [1.0, 0.0], u_init=u0,
                             opts=GeodesicOptions(raise_on_failure=False))
    assert rec.diagnostics["gmres"] == []
    assert rec.diagnostics["kkt_log"] == []
    assert rec.rank_warning and not rec.converged
    assert rec.iterations == 0
    assert np.array_equal(rec.control.values, u0.values)
    assert rec.endpoint_residual == 1.0


# agrachev_lee(3) toward (0, -0.1) from the benchmark floor's seed 6: a solve
# that fails, with KKT trials rejected on their endpoint alone
def _floor_solve():
    system = catalog_load("agrachev_lee(3)")
    seed = generate_seeds(3, 16, 24, system.d, 1.0)[6]
    opts = GeodesicOptions(raise_on_failure=False, feas_iter=60, max_iter=60)
    return lambda: solve_critical(system, np.zeros(2), [0.0, -0.1], u_init=ControlSignal(
        np.linspace(0.0, 1.0, 25), seed), opts=opts, seed_index=6), system


def test_work_counters_count_the_runs_and_passes_made(monkeypatch):
    solve, system = _floor_solve()
    endpoint_module = importlib.import_module("horizon.endpoint")
    runs, passes, rejects = [], [], []
    real_run, real_blocks = system.state_run, endpoint_module._tangent_blocks
    real_fails = geodesics._fails_on_endpoint

    def run(z, bps, U, *rest):
        runs.append(json.dumps(U))
        return real_run(z, bps, U, *rest)

    def blocks(*args):
        passes.append(1)
        return real_blocks(*args)

    def fails(*args):
        rejects.append(real_fails(*args))
        return rejects[-1]

    monkeypatch.setattr(system, "state_run", run)
    monkeypatch.setattr(endpoint_module, "_tangent_blocks", blocks)
    monkeypatch.setattr(geodesics, "_fails_on_endpoint", fails)
    rec = solve()
    assert rec.diagnostics["work"] == {"state_runs": len(runs), "tangent_passes": len(passes),
                                       "endpoint_rejects": sum(rejects)}
    assert len(set(runs)) == len(runs)  # no control is integrated twice
    assert sum(rejects) > 0 and len(passes) < len(runs)


def test_trials_rejected_on_their_endpoint_fail_the_full_merit_test(monkeypatch):
    # with the endpoint test consulted but never obeyed, every KKT trial forms
    # its merit; each the endpoint test rejects must fail the merit test, and
    # the solve must be the one that obeys it, bit for bit
    solve, _ = _floor_solve()
    obeyed = solve()
    real_fails, real_backtrack = geodesics._fails_on_endpoint, geodesics._backtrack
    endpoint_verdicts, merit_verdicts = [], []

    def consulted(*args):
        endpoint_verdicts.append(real_fails(*args))
        return False

    def backtrack(trial, accept):
        def judged(alpha, cand):
            verdict = accept(alpha, cand)
            if len(cand) == 3:  # a KKT trial's (U, lam, residual)
                merit_verdicts.append(verdict)
            return verdict

        return real_backtrack(trial, judged)

    monkeypatch.setattr(geodesics, "_fails_on_endpoint", consulted)
    monkeypatch.setattr(geodesics, "_backtrack", backtrack)
    full = solve()
    assert len(endpoint_verdicts) == len(merit_verdicts)
    assert sum(endpoint_verdicts) == obeyed.diagnostics["work"]["endpoint_rejects"] > 0
    assert not any(e and m for e, m in zip(endpoint_verdicts, merit_verdicts))
    assert json.dumps(full.to_dict()) == json.dumps(obeyed.to_dict())
    assert full.diagnostics["kkt_log"] == obeyed.diagnostics["kkt_log"]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["heisenberg", "agrachev_lee(3)", "unicycle"]),
       seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), fit=st.booleans())
def test_endpoint_test_rejects_only_what_the_merit_rejects(name, seed, m, fit):
    # at the bound equal to a residual's merit the endpoint test never
    # rejects, and just below 1/2 |r2|^2 it always does, with the merit above;
    # a least-squares multiplier makes the stationarity term small
    system = catalog_load(name)
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(m, system.d))
    opts = GeodesicOptions()
    ws = _Workspace(system, np.zeros(system.n), ControlSignal(np.linspace(0.0, 1.0, m + 1), U),
                    opts.substeps_for(system))
    lam = _lambda_least_squares(ws, U, opts) if fit else rng.normal(size=system.n)
    res = _kkt_residual(ws, U, lam, rng.normal(size=system.n), opts)
    assert not _fails_on_endpoint(res.r2, res.merit)
    below = np.nextafter(0.5 * np.dot(res.r2, res.r2), -np.inf)
    assert _fails_on_endpoint(res.r2, below) and res.merit > below
