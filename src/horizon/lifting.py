"""Lifting sampled state paths to continuously varying controls.

Given a control u0 reaching the first sample of a path, every later sample
is reached by appending a steering correction: the chart at the current
anchor endpoint produces a short plan sigma_k of duration T_k, and the new
control is the rescaled concatenation of the anchor control with sigma_k,
living again on [0, 1].  The p-norm of the correction shrinks with the
sample spacing, so consecutive controls stay close in L^p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .endpoint import DEFAULT_SUBSTEPS, endpoint as _endpoint
from .errors import ChartRadiusError, ConfigError, ConvergenceError
from .signals import ControlSignal, EnergyParams, _as_real, _as_tolerance, concatenate_rescaled
from .steering import check_admissibility, cross_section, cross_section_drift
from .systems import ControlSystem, _as_state, displacement

__all__ = ["TargetPath", "LiftResult", "lift_path", "continuity_report"]

# deepest midpoint subdivision of one hop before a lift gives up
MAX_BISECT = 6


@dataclass(frozen=True)
class TargetPath:
    """A path sampled as parameter values and target states."""

    samples: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        t = np.asarray(self.targets, dtype=float)
        if s.ndim != 1 or t.ndim != 2 or t.shape[0] != s.shape[0]:
            raise ConfigError("samples (K+1,) and targets (K+1, n) must align")
        if s.shape[0] < 1:
            raise ConfigError("path needs at least one sample")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(t))):
            raise ConfigError("path samples and targets must be finite")
        if np.any(np.diff(s) <= 0):
            raise ConfigError("samples must be strictly increasing")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "targets", t)
        s.setflags(write=False)
        t.setflags(write=False)

    @property
    def K(self) -> int:
        return self.samples.shape[0] - 1

    @classmethod
    def from_function(cls, g, samples) -> "TargetPath":
        samples = np.asarray(samples, dtype=float)
        targets = np.stack([np.asarray(g(s), dtype=float) for s in samples])
        return cls(samples, targets)


@dataclass
class LiftResult:
    path: TargetPath
    controls: list
    residuals: np.ndarray
    params: EnergyParams
    reanchor_events: list = field(default_factory=list)
    alpha: float | None = None

    @property
    def K(self) -> int:
        return len(self.controls) - 1

    @property
    def lp_modulus(self) -> float:
        """Largest L^p distance between consecutive lifted controls."""
        mods = self.moduli()
        return float(mods.max()) if len(mods) else 0.0

    def moduli(self) -> np.ndarray:
        """L^p distances between consecutive lifted controls, p = params.p."""
        out = np.empty(self.K)
        for k in range(self.K):
            out[k] = self.controls[k + 1].subtract(self.controls[k]).lp_norm(self.params.p)
        return out


def lift_path(
    system: ControlSystem,
    x0,
    u0: ControlSignal,
    path: TargetPath,
    params: EnergyParams | None = None,
    lift_tol: float = 1e-8,
    steer_tol: float = 1e-9,
    substeps: int = DEFAULT_SUBSTEPS,
    alpha: float | None = None,
) -> LiftResult:
    """Lift a sampled path to controls, anchored at u0.

    The control for the first sample is u0 itself (bit for bit); u0 must
    actually reach the first target within lift_tol.  Systems with drift are
    gated by the admissibility check before any steering is attempted;
    alpha, their chart duration exponent, is refused on driftless systems.

    Every later sample first takes one steer from the fixed anchor, so
    consecutive controls differ by one shrinking correction.  When the chart
    refuses, the lift re-anchors at the previous sample's control and reaches
    the sample from there, bisecting into midpoint stepping stones whenever a
    hop is refused; if that control is the anchor, it bisects from the anchor
    at once rather than repeat the refused steer.  The control reached becomes
    the anchor.  Bisection stops at depth MAX_BISECT, and the lift
    re-anchors at most 4 * max(K, 1) times in all; either limit raises
    ConvergenceError.
    """
    if params is None:
        params = EnergyParams()
    _as_tolerance(lift_tol, "lift_tol")
    _as_tolerance(steer_tol, "steer_tol")  # also where no sample needs a steer
    x0 = _as_state(system, x0, "x0")
    _as_state(system, path.targets[0], "path targets")  # TargetPath gave all rows its shape
    if u0.segments == 0:
        # promote the empty signal to the zero control on [0, 1]; same
        # element of L^p, but concatenation needs an actual unit interval
        u0 = ControlSignal(np.array([0.0, 1.0]), np.zeros((1, system.d)))
    elif abs(u0.total_time - 1.0) > 1e-12:
        raise ConfigError("anchor control must live on [0, 1]")
    if alpha is not None:
        _as_real(alpha, "alpha")
        if system.is_driftless:
            raise ConfigError(f"alpha is a drift-chart exponent; {system.name} has no drift")
    if not system.is_driftless:
        check_admissibility(system, path.targets[0], params.p)
    max_reanchors = 4 * max(path.K, 1)
    reanchors = 0

    def hop(u, end, y):
        """Steer end -> y once; the composed control and its endpoint."""
        # the plan must be solved on the same per-segment grid the lift
        # will integrate it with, or the check sees the discretization gap
        if system.is_driftless:
            plan = cross_section(system, end, y, params, steer_tol=steer_tol,
                                 flow_substeps=substeps)
            u_new = concatenate_rescaled(u, plan.sigma, plan.T)
            return u_new, _endpoint(system, x0, u_new, substeps=substeps)

        # with drift, time compression skews the anchor's drift exposure, so
        # the chart steers the plan appended to its anchor (x0, u), which it
        # runs and differentiates as one control
        plan = cross_section_drift(
            system, end, y, p=params.p, alpha=alpha, steer_tol=steer_tol,
            flow_substeps=substeps, anchor=(x0, u),
        )
        # the drift chart's plan reached the appended control's endpoint: this control
        return concatenate_rescaled(u, plan.sigma, plan.T), plan.reached

    def reanchor():  # the one place that counts and checks re-anchors
        nonlocal reanchors
        if reanchors >= max_reanchors:
            raise ConvergenceError(f"lift used all {max_reanchors} re-anchors")
        reanchors += 1

    def bisect(u, end, y, depth):
        """Re-anchor at the midpoint of end -> y and reach both halves."""
        if depth >= MAX_BISECT:
            raise ConvergenceError("steering failed after max subdivision while lifting")
        reanchor()
        mid = end + 0.5 * displacement(system, end, y)
        u_mid, end_mid = reach(u, end, mid, depth + 1)
        return reach(u_mid, end_mid, y, depth + 1)

    def reach(u, end, y, depth):
        """hop end -> y, bisecting whenever the chart refuses."""
        try:
            return hop(u, end, y)
        except (ChartRadiusError, ConvergenceError):
            return bisect(u, end, y, depth)

    anchor_u = u0
    anchor_end = _endpoint(system, x0, u0, substeps=substeps)
    with np.errstate(over="ignore"):  # a far first sample's norm overflows to inf, refused below
        first_res = float(np.linalg.norm(displacement(system, anchor_end, path.targets[0])))
    if first_res > lift_tol:
        raise ConfigError(
            f"anchor control misses the first path sample by {first_res:.3e} "
            f"(lift_tol {lift_tol:.1e})"
        )

    controls, residuals, events = [u0], [first_res], []
    end_k = anchor_end  # endpoint of controls[-1]

    for k in range(1, path.K + 1):
        target = path.targets[k]
        before = reanchors
        try:
            u_k, end_k = hop(anchor_u, anchor_end, target)
        except (ChartRadiusError, ConvergenceError):
            if controls[-1] is anchor_u:
                # re-anchoring there would repeat the steer that just failed
                u_k, end_k = bisect(anchor_u, anchor_end, target, 0)
            else:
                reanchor()
                u_k, end_k = reach(controls[-1], end_k, target, 0)
            anchor_u, anchor_end = u_k, end_k
        if reanchors > before:
            events.append({"sample_index": k, "reanchors": reanchors - before})
        res_k = float(np.linalg.norm(displacement(system, end_k, target)))
        if res_k > lift_tol:
            raise ConvergenceError(
                f"lift residual {res_k:.3e} at sample {k} exceeds lift_tol {lift_tol:.1e}"
            )
        controls.append(u_k)
        residuals.append(res_k)

    return LiftResult(path=path, controls=controls, residuals=np.array(residuals),
                      params=params, reanchor_events=events, alpha=alpha)


def continuity_report(result: LiftResult) -> dict:
    """Tabulate consecutive L^p moduli (p = result.params.p) against sample spacing."""
    mods = result.moduli()
    gaps = np.diff(result.path.samples)
    rows = [
        {
            "sample_index": k + 1,
            "gap": float(gaps[k]),
            "modulus": float(mods[k]),
            "residual": float(result.residuals[k + 1]),
        }
        for k in range(result.K)
    ]
    return {
        "p": result.params.p,
        "max_modulus": float(mods.max()) if len(mods) else 0.0,
        "max_residual": float(result.residuals.max()) if len(result.residuals) else 0.0,
        "reanchor_count": sum(ev["reanchors"] for ev in result.reanchor_events),
        "rows": rows,
    }
