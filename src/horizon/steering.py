"""Steering charts built from commutator flows of the controlled fields.

A chart at a base point picks a frame of bracket words, expands each word
into a sequence of elementary single-field flows (the group-commutator
recursion: doubling plus inverses, so a length-nu word costs 3*2^(nu-1) - 2
factors), and parametrizes the k-th word by the signed fractional root of a
coordinate phi_k.  One damped Newton inversion of the composed flow then
yields controls steering the base point to a nearby target, with exact
per-factor L^p norms that shrink as the target approaches the base.

Newton's Jacobian depends on the chart kind.  Without drift it is exact: a
segment's RK4 steps see its duration and value only through their product,
the factor's coefficient, so one endpoint differential of the laid-out plan
gives every column (SteeringChart.jacobian).  With drift the durations enter
the map on their own, so drift charts keep central differences of compose.

A chart's flows take chart.flow_substeps RK4 steps per factor: the factor
product, and the laid-out plan's integration and differential (one segment
per factor).  build_chart takes a given count as it is (lift_path gives its
own substeps); by default it takes 1 where one RK4 step is the exact
flow of drift + c X_b for every field X_b a factor uses
(ControlSystem.field_flow_exact, read from the expressions: true for every
field of the catalog), and DEFAULT_FLOW_SUBSTEPS elsewhere.  A plan records
the count it was solved and checked on (SteeringPlan.substeps).

Each steer checks once the state its plan reaches (integrated from the base,
or the chart's verify_endpoint), and steer_tol is the largest residual that
check accepts; Newton stops no later than steer_tol, so a plan it accepts
passes the check up to the rounding between the flow product and the plan's
integration.  The working radius of a chart is empirical: callers get a
ChartRadiusError when Newton stalls or the check fails, and should then
re-anchor or subdivide.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .endpoint import _backtrack, differential, endpoint as _endpoint, rk4_step
from .errors import (
    AdmissibilityError,
    ChartRadiusError,
    ConfigError,
    NotBracketGeneratingError,
    UnsupportedStepError,
)
from .signals import (ControlSignal, EnergyParams, _as_count, _as_tolerance, conjugate_exponent,
                      zero_signal)
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
    nu = word.length
    leaves = word.leaves
    out = []
    for m, s in _expand_positions(nu):
        # position m of the recursion acts with the (nu-m)-th leaf: the
        # innermost right leaf enters first, the outermost last
        out.append(ChartFactor(k, leaves[nu - m], s, m == 1))
    return out


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
    # plan signal -> reached state; None integrates the plan from the base
    verify_endpoint: Callable | None = None

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

        Driftless charts run pure single-field flows; drift charts evaluate
        the realized plan through plan_endpoint, so the drift acts throughout.
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

    def _layout(self, phi):
        # (plan signal, index into factors of each of its segments): the one
        # place that decides which factors become segments
        expo = self.params.beta if self.alpha is None else 2.0 * self.alpha
        coeffs = self.coefficients(phi)
        durations = []
        values = []
        seg_factors = []
        d = self.system.d
        t = 0.0
        for j, (f, c) in enumerate(zip(self.factors, coeffs)):
            if c == 0.0:
                continue
            dur = abs(c) ** expo
            if t + dur <= t or dur < np.finfo(float).tiny:
                continue  # invisible: cannot advance the clock, or |c|^(-expo) overflows
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
        """Newton's Jacobian dF/dphi of compose at phi.

        Driftless: exact, from one differential of plan_signal(phi).  A
        segment's RK4 steps see its duration and value only through their
        product c_j, so dF/dc_j is its w_bar column for field b_j, and
        dc_j/dphi_k = c_j / (nu_k phi_k).  A word that lays out no segment
        (phi_k = 0, where the root has no derivative, or factors too short
        for the plan) takes its bracket field at the base (frame_matrix),
        the leading-order derivative of the flow product.  Drift: central
        differences of compose (2n flows), because the durations |c|^(2 alpha)
        enter the map on their own and a lift's compose also rescales the
        anchor control.
        """
        phi = np.asarray(phi, dtype=float)
        n = len(phi)
        if self.alpha is not None:
            J = np.empty((self.system.n, n))
            for k in range(n):
                delta = 1e-6 * max(abs(phi[k]), 1e-2)
                ep, em = phi.copy(), phi.copy()
                ep[k] += delta
                em[k] -= delta
                J[:, k] = (self.compose(ep) - self.compose(em)) / (2.0 * delta)
            return J
        J = np.zeros((self.system.n, n))
        sig, seg_factors = self._layout(phi)
        laid = {self.factors[j].word_index for j in seg_factors}
        lead = [k for k in range(n) if k not in laid]
        if lead:
            J[:, lead] = self.frame_matrix()[:, lead]
        if not seg_factors:
            return J
        w_bar = differential(self.system, self.base, sig, substeps=self.flow_substeps).w_bar
        coeffs = self.coefficients(phi)
        for seg, j in enumerate(seg_factors):
            f = self.factors[j]
            k = f.word_index
            J[:, k] += w_bar[seg, :, f.field_index - 1] * (coeffs[j] / (self.words[k].length * phi[k]))
        return J

    def plan_endpoint(self, sig: ControlSignal) -> np.ndarray:
        """State sig reaches: verify_endpoint(sig), or sig integrated from the base."""
        if self.verify_endpoint is not None:
            return self.verify_endpoint(sig)
        return _endpoint(self.system, self.base, sig, substeps=self.flow_substeps)


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
    answer), with chart.jacobian: exact on driftless charts (one endpoint
    differential per step), central differences on drift charts (2n
    composes per step).  Each step is damped by the shared halving line
    search (endpoint._backtrack), which takes the first damping that
    strictly lowers the residual and rejects one whose composed flow raises
    DomainEscapeError; Newton ends when no damping helps.  It stops at
    |compose(phi) - y| <= min(1e-10 (1 + |d|), steer_tol) for the
    displacement d.  Returns phi and the state compose(phi) reached.
    Raises ChartRadiusError when the target resists, which callers treat as
    "outside the working radius": re-anchor closer and retry.
    """
    y = _as_state(chart.system, y, "y")
    target_disp = displacement(chart.system, chart.base, y)
    tol, stop = 1e-10 * (1.0 + float(np.linalg.norm(target_disp))), "tol"
    if steer_tol is not None and _as_tolerance(steer_tol, "steer_tol") < tol:
        tol, stop = steer_tol, "steer_tol"

    phi = np.linalg.lstsq(chart.frame_matrix(), target_disp, rcond=None)[0]
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
        import json

        return json.dumps(
            {
                "phi": self.phi.tolist(),
                "T": self.T,
                "sigma": {
                    "breakpoints": self.sigma.breakpoints.tolist(),
                    "values": self.sigma.values.tolist(),
                },
                "residual": self.residual,
                "factor_count": self.factor_count,
            },
            sort_keys=True,
        )


def _steer_on_chart(chart: SteeringChart, y, steer_tol) -> SteeringPlan:
    """Plan from the chart's base to y, shared by both cross sections.

    One chart solve, then one check of the plan through chart.plan_endpoint;
    a checked residual above steer_tol raises ChartRadiusError.  A drift
    chart's compose is plan_endpoint of the plan, so the state the solve's
    last compose reached is checked as it is; a driftless plan is
    integrated once, since the flow product matches it only to rounding.
    """
    _as_tolerance(steer_tol, "steer_tol")
    system, x = chart.system, chart.base
    disp = displacement(system, x, y)
    if np.linalg.norm(disp) == 0.0:
        phi, sig, reached, res = np.zeros(system.n), zero_signal(system.d), x, 0.0
    else:
        # steer to the wrap-nearest representative of the target
        phi, reached = solve_chart_coordinates(chart, x + disp, steer_tol)
        sig = chart.plan_signal(phi)
        if chart.alpha is None:
            reached = chart.plan_endpoint(sig)
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


def _format_bound(step: int) -> str:
    fr = Fraction(step, step - 1)
    return f"{fr.numerator}/{fr.denominator}"


def _step_bound(system: ControlSystem, x, p: float | None = None):
    """(sigma, sigma/(sigma-1)) for the drift bracket frame at x.

    sigma is the step of the frame built to depth 6 with the drift allowed
    inside words; driftless systems give (None, inf).  With p, raises
    ConfigError unless conjugate_exponent takes it, and AdmissibilityError
    unless p is below the bound.
    """
    x = _as_state(system, x, "x")
    if p is not None:
        conjugate_exponent(p)
    if system.is_driftless:
        return None, float("inf")
    _, step = bracket_frame(system, x, max_depth=6)
    bound = step / (step - 1.0)
    if p is not None and p >= bound:
        raise AdmissibilityError(
            f"p={p:g} is not admissible for {system.name} at this point: "
            f"the step-{step} bracket structure requires p < {_format_bound(step)} "
            f"(= {bound:g})"
        )
    return step, bound


def critical_exponent(system: ControlSystem, x) -> float:
    """Lower bound sigma/(sigma-1) for the critical exponent at x.

    Driftless systems return inf (all p in (1, inf) are admissible); with
    drift, sigma is the step of the bracket frame at x with the drift allowed
    inside words.
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
    verify_endpoint=None,
) -> SteeringPlan:
    """Steering with drift: factor segments of duration |c|^(2 alpha).

    Admissibility is checked first (p below the step bound, and alpha inside
    (step/2, p/(2(p-1))) so the segment norms still vanish near the base);
    then the factor layout, which is only implemented for charts whose
    controlled fields span within bracket depth 2, is solved against the
    integrated plan so the drift's contribution is absorbed by Newton.
    steer_tol is the largest distance between the plan's reached state and
    y that is accepted; a larger one raises ChartRadiusError.

    verify_endpoint, when given, is a callable mapping a candidate plan
    signal to the reached state; the chart carries it, so Newton and the
    check both use that map instead of plain integration from x.  Lifting
    passes the composed (concatenated) endpoint here, because time
    compression does not commute with the drift term, so the standalone plan
    endpoint and the in-context endpoint differ at order T * drift.
    """
    if system.is_driftless:
        raise ConfigError("system has no drift; use cross_section")
    x, y = _as_state(system, x, "x"), _as_state(system, y, "y")
    if alpha is not None and not np.isfinite(alpha):
        raise ConfigError(f"alpha must be finite, got {alpha}")
    sigma_step, _ = _step_bound(system, x, p)

    alpha_hi = p / (2.0 * (p - 1.0))
    alpha_lo = sigma_step / 2.0
    if alpha is None:
        alpha = 0.5 * (alpha_lo + alpha_hi)
    if not (alpha_lo < alpha < alpha_hi):
        raise AdmissibilityError(
            f"alpha={alpha:g} outside the admissible interval "
            f"({alpha_lo:g}, {alpha_hi:g}) for p={p:g} (bound {_format_bound(sigma_step)})"
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
    chart.verify_endpoint = verify_endpoint
    return _steer_on_chart(chart, y, steer_tol)
