"""Steering charts built from commutator flows of the controlled fields.

A chart at a base point picks a frame of bracket words, expands each word
into a sequence of elementary single-field flows (the group-commutator
recursion: doubling plus inverses, so a length-nu word costs 3*2^(nu-1) - 2
factors), and parametrizes the k-th word by the signed fractional root of a
coordinate phi_k.  One damped Newton inversion of the composed flow then
yields controls steering the base point to a nearby target, with exact
per-factor L^p norms that shrink as the target approaches the base.

Newton's Jacobian is exact on every chart (SteeringChart.jacobian): RK4
sees a segment only through its weights h (1, u), so one differential on the
system with its drift as a controlled field gives the derivative in every
weight, and phi moves each factor's weights in closed form.

A chart's flows take chart.flow_substeps RK4 steps per factor: the factor
product, and the laid-out plan's integration and differential (one segment
per factor).  build_chart takes a given count as it is (lift_path gives its
own substeps); by default it takes 1 where one RK4 step is the exact
flow of drift + c X_b for every field X_b a factor uses
(ControlSystem.field_flow_exact, read from the expressions: true for every
field of the catalog), and DEFAULT_FLOW_SUBSTEPS elsewhere.  A plan records
the count it was solved and checked on (SteeringPlan.substeps).

Each steer checks once the state its plan reaches (integrated from the base,
or appended to a drift chart's anchor control), and steer_tol is the largest
residual that check accepts; Newton stops no later than steer_tol, so a plan
it accepts passes the check up to the rounding between the flow product and
the plan's integration.  The working radius of a chart is empirical:
callers get a ChartRadiusError when Newton stalls or the check fails, and
should then re-anchor or subdivide.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .endpoint import _backtrack, differential, endpoint as _endpoint, rk4_step
from .errors import (
    AdmissibilityError,
    ChartRadiusError,
    ConfigError,
    DomainEscapeError,
    NotBracketGeneratingError,
    UnsupportedStepError,
)
from .signals import (ControlSignal, EnergyParams, _as_count, _as_real, _as_tolerance,
                      concatenate_rescaled, conjugate_exponent, zero_signal)
from .systems import BracketWord, ControlSystem, _as_state, bracket_frame, displacement

__all__ = [
    "ChartFactor",
    "SteeringChart",
    "SteeringPlan",
    "build_chart",
    "solve_chart_coordinates",
    "cross_section",
    "cross_section_drift",
    "critical_exponent",
    "check_admissibility",
]

DEFAULT_FLOW_SUBSTEPS = 16


@dataclass(frozen=True)
class ChartFactor:
    """One elementary flow e^{c X_b} inside the expanded product.

    word_index selects the chart coordinate driving the factor; sign is the
    +/-1 from the commutator expansion; carries_sign marks the single factor
    per word that absorbs the sign of the coordinate (and the parity of the
    word length), so that the leading-order displacement is exactly
    phi_k times the word's bracket field.
    """

    word_index: int
    field_index: int
    sign: float
    carries_sign: bool


def _expand_positions(nu: int):
    """Chronological (m, sign) expansion of the commutator recursion."""
    if nu == 1:
        return [(1, 1.0)]
    inner = _expand_positions(nu - 1)
    inverse = [(m, -s) for (m, s) in reversed(inner)]
    return inverse + [(nu, -1.0)] + inner + [(nu, 1.0)]


def _word_factors(k: int, word: BracketWord):
    # position m of the recursion acts with the (nu-m)-th leaf: the innermost
    # right leaf enters first, the outermost last
    nu = word.length
    return [ChartFactor(k, word.leaves[nu - m], s, m == 1) for m, s in _expand_positions(nu)]


def _factor_coefficient(phi_k: float, nu: int, factor: ChartFactor) -> float:
    if phi_k == 0.0:
        return 0.0
    c = factor.sign * abs(phi_k) ** (1.0 / nu)
    if factor.carries_sign:
        c *= np.sign(phi_k) * (-1.0) ** (nu - 1)
    return c


@dataclass
class SteeringChart:
    system: ControlSystem
    base: np.ndarray
    words: list
    factors: list
    params: EnergyParams
    alpha: float | None = None  # set for drift charts
    flow_substeps: int = DEFAULT_FLOW_SUBSTEPS
    # (x0, u) with u on [0, 1] reaching the base from x0: a drift chart's plan
    # then runs appended to u (concatenate_rescaled) from x0; None runs it from the base
    anchor: tuple | None = None

    @property
    def factor_count(self) -> int:
        return len(self.factors)

    def coefficients(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        out = np.empty(len(self.factors))
        for j, f in enumerate(self.factors):
            out[j] = _factor_coefficient(phi[f.word_index], self.words[f.word_index].length, f)
        return out

    def frame_matrix(self) -> np.ndarray:
        """Columns are the word bracket fields evaluated at the base."""
        cols = [self.system.word_field(w).value(self.base) for w in self.words]
        return np.stack(cols, axis=1)

    # -- executing the flow product --------------------------------------

    def compose(self, phi) -> np.ndarray:
        """Endpoint of the factor product applied to the base point.

        Driftless charts run pure single-field flows; drift charts run the
        laid-out plan through plan_endpoint, so the drift acts throughout.
        """
        if self.alpha is not None:
            return self.plan_endpoint(self.plan_signal(phi))
        x = self.base.copy()
        coeffs = self.coefficients(phi)
        for f, c in zip(self.factors, coeffs):
            if c == 0.0:
                continue
            x = _single_field_flow(self.system, x, f.field_index, c, self.flow_substeps)
        return x

    def plan_signal(self, phi) -> ControlSignal:
        """Realize the factor product as a piecewise-constant control.

        A factor with coefficient c becomes one segment on component b:
        duration |c|^beta, height c |c|^(-beta) (drift charts use the
        exponent 2*alpha instead of beta), so the time integral is exactly c.
        Zero coefficients are skipped; factors are laid out strictly in
        product order.
        """
        return self._layout(phi)[0]

    @property
    def _expo(self) -> float:
        # a factor with coefficient c lays out a segment of duration |c|^_expo
        return self.params.beta if self.alpha is None else 2.0 * self.alpha

    def _layout(self, phi):
        # (plan signal, index into factors of each of its segments): the one
        # place that decides which factors become segments
        expo, tiny = self._expo, np.finfo(float).tiny
        coeffs = self.coefficients(phi)
        durations = []
        values = []
        seg_factors = []
        d = self.system.d
        t = 0.0
        for j, (f, c) in enumerate(zip(self.factors, coeffs)):
            dur = abs(c) ** expo
            if t + dur <= t or dur < tiny:
                continue  # c = 0, or invisible: cannot advance the clock, or |c|^(-expo) overflows
            t += dur
            row = np.zeros(d)
            row[f.field_index - 1] = c * abs(c) ** (-expo)
            durations.append(dur)
            values.append(row)
            seg_factors.append(j)
        if not durations:
            return zero_signal(d), seg_factors
        bps = np.concatenate([[0.0], np.cumsum(durations)])
        return ControlSignal(bps, np.vstack(values)), seg_factors

    def jacobian(self, phi) -> np.ndarray:
        """Newton's Jacobian dF/dphi of compose at phi, exact on every chart.

        RK4 sees a segment only through its weights h (1, u), so one
        differential on system._drift_controlled, of unit segments valued
        (H/s, H u), gives dF/dw for every weight: column 0 the drift's.  H is
        a duration before concatenate_rescaled divides the anchor's and the
        plan's by s = 1 + T (s = 1 without an anchor).  phi moves factor j's
        field weight c_j, dc_j/dphi_k = c_j / (nu_k phi_k), and through
        H_j = |c_j|^expo its drift weight and s.  Without drift column 0 is 0.
        A word that lays out no segment (phi_k = 0, or factors too short for
        the plan) takes its bracket field at the base (frame_matrix), the
        leading-order derivative of the flow product.
        """
        phi = np.asarray(phi, dtype=float)
        J = np.zeros((self.system.n, len(phi)))
        sig, seg_factors = self._layout(phi)
        # each laid-out factor's word index k, field index b and word length nu
        k, b, nu = np.array([(f.word_index, f.field_index, self.words[f.word_index].length)
                             for f in map(self.factors.__getitem__, seg_factors)]).reshape(-1, 3).T
        lead = sorted(set(range(len(phi))) - set(k.tolist()))
        if lead:
            J[:, lead] = self.frame_matrix()[:, lead]
        if not seg_factors:
            return J
        s, x0, H, V = 1.0, self.base, sig.durations, sig.values
        if self.anchor:  # the anchor's segments run first, and 1 + T divides every duration
            (x0, u), s = self.anchor, 1.0 + sig.total_time
            H, V = np.concatenate([u.durations, H]), np.vstack([u.values, V])
        W = H[:, None] * V  # the field weights; a factor's is its coefficient c_j
        unit = ControlSignal(np.arange(len(H) + 1.0), np.column_stack([H / s, W]))
        D = differential(self.system._drift_controlled, x0, unit, substeps=self.flow_substeps)
        D = D.matrix.reshape(self.system.n, len(H), self.system.d + 1)
        drag = (D[:, :, 0] @ H)[:, None] / s**2 if self.anchor else 0.0  # -dF/ds
        seg = np.arange(len(H) - sig.segments, len(H))
        # c_j dF/dc_j: field weight c_j, and drift weight H_j / s with c_j dH_j/dc_j = expo H_j
        dF = W[seg, b - 1] * D[:, seg, b] + self._expo * H[seg] * (D[:, seg, 0] / s - drag)
        np.add.at(J.T, k, (dF / (nu * phi[k])).T)  # dc_j/dphi_k = c_j / (nu_k phi_k)
        return J

    def plan_endpoint(self, sig: ControlSignal) -> np.ndarray:
        """State sig reaches: appended to the anchor (x0, u) and run from x0, or from the base."""
        if self.anchor is None:
            return _endpoint(self.system, self.base, sig, substeps=self.flow_substeps)
        x0, u = self.anchor
        return _endpoint(self.system, x0, concatenate_rescaled(u, sig, sig.total_time),
                         substeps=self.flow_substeps)


def _field_value(x, system, field_index):
    return system.field_values(x)[field_index].tolist()


def _single_field_flow(system, x, field_index, time, substeps):
    """RK4 flow along one controlled field for a signed time."""
    h = float(time) / substeps
    z = np.asarray(x, dtype=float).tolist()
    for _ in range(substeps):
        z = rk4_step(_field_value, z, h, system, field_index)
    return np.array(z)


def build_chart(
    system: ControlSystem,
    x,
    params: EnergyParams | None = None,
    max_depth: int = 4,
    alpha: float | None = None,
    flow_substeps: int | None = None,
) -> SteeringChart:
    """Expand a bracket frame at x into an elementary factor sequence.

    The words are the bracket frame at x up to max_depth, built from
    controlled-field words only: drift never enters a chart word.  The
    factor layout depends only on the words, never on the target; with
    phi = 0 every coefficient vanishes and the product is the identity.
    flow_substeps, the RK4 steps per factor flow, is used as given; None
    takes 1 where one step is exact on every field a factor uses
    (ControlSystem.field_flow_exact), and DEFAULT_FLOW_SUBSTEPS elsewhere.
    """
    x = _as_state(system, x, "x")
    if flow_substeps is not None:
        _as_count(flow_substeps, "flow_substeps", 1)
    if alpha is not None:
        _as_real(alpha, "alpha")
    if params is None:
        params = EnergyParams()
    words, _ = bracket_frame(system, x, max_depth, controlled_only=True)
    factors = []
    for k, w in enumerate(words):
        factors.extend(_word_factors(k, w))
    if flow_substeps is None:
        exact = all(system.field_flow_exact[f.field_index - 1] for f in factors)
        flow_substeps = 1 if exact else DEFAULT_FLOW_SUBSTEPS
    return SteeringChart(
        system=system,
        base=x,
        words=words,
        factors=factors,
        params=params,
        alpha=alpha,
        flow_substeps=flow_substeps,
    )


def solve_chart_coordinates(chart: SteeringChart, y, steer_tol: float | None = None):
    """Damped Newton inversion of the chart's composed flow.

    Starts from the frame coordinates of the displacement (the leading-order
    answer), with chart.jacobian, exact on every chart (one endpoint
    differential per step, and no compose).  Each step is damped by the
    shared halving line search (endpoint._backtrack), which takes the first
    damping that strictly lowers the residual and rejects one whose composed
    flow raises DomainEscapeError; Newton ends when no damping helps or a start or
    Jacobian flow escapes.  It stops at |compose(phi) - y| <=
    min(1e-10 (1 + |d|), steer_tol) for the displacement d.  Returns phi and
    the state compose(phi) reached.
    Raises ChartRadiusError when the target resists, which callers treat as
    "outside the working radius": re-anchor closer and retry.
    """
    y = _as_state(chart.system, y, "y")
    target_disp = displacement(chart.system, chart.base, y)
    with np.errstate(over="ignore"):  # a far target's norm overflows to inf, refused here
        dist = float(np.linalg.norm(target_disp))
    if dist == np.inf:
        raise ChartRadiusError("target's distance overflows: outside the chart's working radius")
    tol, stop = 1e-10 * (1.0 + dist), "tol"
    if steer_tol is not None and _as_tolerance(steer_tol, "steer_tol") < tol:
        tol, stop = steer_tol, "steer_tol"

    phi = np.linalg.lstsq(chart.frame_matrix(), target_disp, rcond=None)[0]
    best = np.inf
    with suppress(DomainEscapeError):  # an escaping flow ends Newton as a stall does
        reached = chart.compose(phi)
        best = np.linalg.norm(reached - y)
        for _ in range(60):
            if best <= tol:
                break
            J = chart.jacobian(phi)
            try:
                step = np.linalg.solve(J, y - reached)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(J, y - reached, rcond=None)[0]

            def trial(damping):
                cand = phi + damping * step
                state = chart.compose(cand)
                return cand, state, np.linalg.norm(state - y)

            found = _backtrack(trial, lambda damping, c: c[2] < best)
            if found is None:
                break  # no damping lowered the residual
            phi, reached, best = found
    if best <= tol:
        return phi, reached
    raise ChartRadiusError(
        f"chart Newton stalled at |residual| = {best:.3e} ({stop} {tol:.1e}); "
        "target likely outside the chart's working radius"
    )


@dataclass
class SteeringPlan:
    """Control realizing a chart solution: run sigma for time T from x.

    reached is the state the chart's plan_endpoint gives for sigma (the base
    for the zero plan), and substeps the chart's flow_substeps, on which the
    plan was solved and checked; neither is part of to_json.
    """

    phi: np.ndarray
    T: float
    sigma: ControlSignal
    residual: float
    factor_count: int
    base: np.ndarray
    target: np.ndarray
    substeps: int
    alpha: float | None = None
    reached: np.ndarray | None = None

    def to_json(self) -> str:
        sigma = {"breakpoints": self.sigma.breakpoints.tolist(),
                 "values": self.sigma.values.tolist()}
        return json.dumps({"phi": self.phi.tolist(), "T": self.T, "sigma": sigma,
                           "residual": self.residual, "factor_count": self.factor_count},
                          sort_keys=True)


def _steer_on_chart(chart: SteeringChart, y, steer_tol) -> SteeringPlan:
    """Plan from the chart's base to y, shared by both cross sections.

    One chart solve, then one check of the plan through chart.plan_endpoint;
    a checked residual above steer_tol, or an escaping check, raises
    ChartRadiusError.  A drift chart's compose is plan_endpoint of the plan,
    so the state the solve's last compose reached is checked as it is; a
    driftless plan is integrated once, since the flow product matches it
    only to rounding.
    """
    _as_tolerance(steer_tol, "steer_tol")
    system, x = chart.system, chart.base
    disp = displacement(system, x, y)
    with np.errstate(over="ignore"):  # a far target's norm overflows to inf, refused by the solve
        still = np.linalg.norm(disp) == 0.0
    if still:
        phi, sig, reached, res = np.zeros(system.n), zero_signal(system.d), x, 0.0
    else:
        # steer to the wrap-nearest representative of the target
        phi, reached = solve_chart_coordinates(chart, x + disp, steer_tol)
        sig = chart.plan_signal(phi)
        if chart.alpha is None:
            try:
                reached = chart.plan_endpoint(sig)
            except DomainEscapeError as exc:
                raise ChartRadiusError(f"plan check escaped: {exc}") from exc
        res = float(np.linalg.norm(displacement(system, reached, y)))
        if res > steer_tol:
            raise ChartRadiusError(
                f"plan misses the target by {res:.3e}, above steer_tol {steer_tol:.1e}"
            )
    return SteeringPlan(
        phi=phi,
        T=sig.total_time,
        sigma=sig,
        residual=res,
        factor_count=chart.factor_count,
        base=x,
        target=y,
        substeps=chart.flow_substeps,
        alpha=chart.alpha,
        reached=reached,
    )


def cross_section(
    system: ControlSystem,
    x,
    y,
    params: EnergyParams | None = None,
    steer_tol: float = 1e-9,
    flow_substeps: int | None = None,
) -> SteeringPlan:
    """Steer a driftless system from x to y; returns the realized plan.

    Solves the chart coordinates against the factor flow product, lays the
    plan, and integrates it from x once, all on the chart's flow_substeps
    (build_chart's rule): steer_tol is the largest distance between that
    endpoint and y that is accepted, and a larger one raises
    ChartRadiusError.  Steering a point to itself returns the zero plan
    exactly.
    """
    if not system.is_driftless:
        raise ConfigError("cross_section requires a driftless system; use cross_section_drift")
    x, y = _as_state(system, x, "x"), _as_state(system, y, "y")
    chart = build_chart(system, x, params, flow_substeps=flow_substeps)
    return _steer_on_chart(chart, y, steer_tol)


# -- drift admissibility ------------------------------------------------------


def _step_bound(system: ControlSystem, x, p: float | None = None):
    """(sigma, sigma/(sigma-1)) for the drift bracket frame at x.

    sigma is the step of the frame built to depth 6 with the drift allowed
    inside words; driftless systems give (None, inf), and sigma = 1 (the
    controlled fields span at x) gives (1, inf).  With p, raises
    ConfigError unless conjugate_exponent takes it, and AdmissibilityError
    unless p is below the bound.
    """
    x = _as_state(system, x, "x")
    if p is not None:
        conjugate_exponent(p)
    if system.is_driftless:
        return None, float("inf")
    _, step = bracket_frame(system, x, max_depth=6)
    bound = step / (step - 1.0) if step > 1 else float("inf")  # step 1: no bound, as without drift
    if p is not None and p >= bound:
        raise AdmissibilityError(
            f"p={p:g} is not admissible for {system.name} at this point: "
            f"the step-{step} bracket structure requires p < {Fraction(step, step - 1)} "
            f"(= {bound:g})"
        )
    return step, bound


def critical_exponent(system: ControlSystem, x) -> float:
    """Lower bound sigma/(sigma-1) for the critical exponent at x.

    Driftless systems return inf (all p in (1, inf) are admissible); with
    drift, sigma is the step of the bracket frame at x with the drift allowed
    inside words, and sigma = 1 returns inf as well.
    """
    return _step_bound(system, x)[1]


def check_admissibility(system: ControlSystem, x, p: float) -> float:
    """Raise AdmissibilityError unless p is below the critical bound at x."""
    return _step_bound(system, x, p)[1]


def cross_section_drift(
    system: ControlSystem,
    x,
    y,
    p: float,
    alpha: float | None = None,
    steer_tol: float = 1e-9,
    flow_substeps: int | None = None,
    anchor=None,
) -> SteeringPlan:
    """Steering with drift: factor segments of duration |c|^(2 alpha).

    Admissibility is checked first (p below the step bound, and alpha inside
    (step/2, p/(2(p-1))) so the segment norms still vanish near the base);
    then the factor layout, which is only implemented for charts whose
    controlled fields span within bracket depth 2, is solved against the
    integrated plan so the drift's contribution is absorbed by Newton.
    steer_tol is the largest distance between the plan's reached state and
    y that is accepted; a larger one raises ChartRadiusError.

    anchor, when given, is (x0, u): a control u on [0, 1] that reaches x
    from x0.  The plan is then appended to it, and the state reached is
    endpoint(x0, concatenate_rescaled(u, plan, T)) on the chart's flow
    substeps; the chart carries the anchor, so Newton, its exact Jacobian
    and the check all use that map.  Lifting passes its anchor control here,
    because time compression does not commute with the drift term: the
    standalone plan endpoint and the appended one differ at order T * drift.
    """
    if system.is_driftless:
        raise ConfigError("system has no drift; use cross_section")
    x, y = _as_state(system, x, "x"), _as_state(system, y, "y")
    if alpha is not None:
        _as_real(alpha, "alpha")
    sigma_step, _ = _step_bound(system, x, p)

    alpha_hi = p / (2.0 * (p - 1.0))
    alpha_lo = sigma_step / 2.0
    if alpha is None:
        alpha = 0.5 * (alpha_lo + alpha_hi)
    if not (alpha_lo < alpha < alpha_hi):
        raise AdmissibilityError(
            f"alpha={alpha:g} outside the admissible interval "
            f"({alpha_lo:g}, {alpha_hi:g}) for p={p:g} (step {sigma_step})"
        )

    try:
        chart = build_chart(
            system, x, EnergyParams(p=p), max_depth=2, alpha=alpha, flow_substeps=flow_substeps
        )
    except NotBracketGeneratingError as exc:
        raise UnsupportedStepError(
            f"{system.name}: drift steering is implemented for controlled frames of "
            f"step <= 2 only ({exc})"
        ) from exc
    chart.anchor = anchor
    return _steer_on_chart(chart, y, steer_tol)
