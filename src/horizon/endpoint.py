"""Trajectory integration and the first-order endpoint differential.

Everything runs on a fixed-step RK4 grid: each signal segment is cut into
`substeps` equal steps.  The differential is the exact tangent of that
discrete map, not of the ODE: the same RK4 stages that advance the state
advance its derivatives with respect to the segment's start and control, so
the Jacobian the solver uses is the Jacobian of the map it constrains, to
rounding.  No adaptive stepping.  Second-order terms are never assembled
here.

`rk4_step` is the one RK4 step function.  The state run and the steering
charts' single-field flows advance n Python floats through it, the state run
on ControlSystem.float_rhs (no BLAS call per stage, and numpy scalars only
where Python floats are unsafe); the tangent blocks, all segments' as one
batch on the state run's recorded stages, advance as the one-component list
[Z].  This module alone decides what an empty signal reaches (its start) and
when a state has blown up (|x|_inf > BLOWUP_BOUND, raised as
DomainEscapeError).  `_backtrack`, the halving line search of every damped
Newton loop (feasibilization, the KKT phase, the chart solve), lives here
because it rejects a trial step whose state blows up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainEscapeError, SingularFiberError
from .signals import ControlSignal
from .systems import RANK_TOL, ControlSystem

__all__ = [
    "Trajectory",
    "EndpointDifferential",
    "RegularityReport",
    "rk4_step",
    "integrate",
    "endpoint",
    "differential",
    "regular_value_test",
    "fiber_project",
]

DEFAULT_SUBSTEPS = 64
BLOWUP_BOUND = 1e6


@dataclass
class Trajectory:
    """States on the full substep grid, plus the generating data."""

    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, n)
    signal: ControlSignal
    substeps: int
    # (m, n + d, n) when requested: per segment k the tangent block
    # [P_k^T; S_k^T] of its RK4 steps, all segments advanced together on the
    # recorded stage states (see integrate)
    fundamental: np.ndarray | None = None

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def to_csv(self) -> str:
        header = "t," + ",".join(f"x_{i+1}" for i in range(self.n))
        lines = [header]
        for t, x in zip(self.times, self.states):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in x]))
        return "\n".join(lines) + "\n"


def _check_state(x, t):
    # NaN compares False, so this one test also rejects NaN and inf in every
    # component (max() would skip a NaN that is not first)
    if not all(map(BLOWUP_BOUND.__ge__, map(abs, x))):
        raise DomainEscapeError(
            f"trajectory left |x|_inf <= {BLOWUP_BOUND:g} at t={t:.6g}", t=t, state=np.array(x)
        )


def _backtrack(trial, accept):
    """Halving line search: the first of trial(1), trial(1/2), ..., trial(1/512)
    that accept(alpha, result) takes, or None.  A DomainEscapeError rejects alpha."""
    alpha = 1.0
    for _ in range(10):
        try:
            cand = trial(alpha)
        except DomainEscapeError:
            pass
        else:
            if accept(alpha, cand):
                return cand
        alpha *= 0.5
    return None


def rk4_step(f, z, h, *args):
    """One classical RK4 step of z' = f(z, *args) with step h.

    z and f's value are lists of components (floats or arrays), each advanced
    with the same elementwise stage arithmetic.
    """
    k1 = f(z, *args)
    k2 = f([a + 0.5 * h * b for a, b in zip(z, k1)], *args)
    k3 = f([a + 0.5 * h * b for a, b in zip(z, k2)], *args)
    k4 = f([a + h * b for a, b in zip(z, k3)], *args)
    return [a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(z, k1, k2, k3, k4)]


def _block_rhs(z, lin):
    # one RK4 stage of every segment's block Z = [P^T; S^T]: Z A^T + [0; B^T],
    # with A^T and B^T = (X_1..X_d)^T the next recorded stage's linearization
    (Z,) = z
    At, Bt = next(lin)
    W = np.matmul(Z, At)
    W[:, Z.shape[2]:] += Bt
    return [W]


def _tangent_blocks(system, signal, substeps, stages):
    # the (m, n + d, n) blocks from [I; 0] on the recorded stage states: one
    # Jacobian and one field evaluation at every stage point, then 4 * substeps
    # batched matmuls
    m, n, d = signal.segments, system.n, system.d
    per = 4 * substeps  # stage points per segment
    X = np.array(stages).reshape(m * per, n)
    U = np.repeat(signal.values, per, axis=0)
    At = system.dynamics_jacobian(X, U).reshape(m, per, n, n).transpose(1, 0, 3, 2)
    Bt = system.field_values_batch(X)[:, 1:].reshape(m, per, d, n).transpose(1, 0, 2, 3)
    lin = zip(At, Bt)  # stage linearizations of all segments, in stage order
    h = (np.diff(signal.breakpoints) / substeps)[:, None, None]
    z = [np.repeat(np.eye(n + d, n)[None], m, axis=0)]
    for _ in range(substeps):
        z = rk4_step(_block_rhs, z, h, lin)
    return z[0]


def integrate(
    system: ControlSystem,
    x0,
    signal: ControlSignal,
    substeps: int = DEFAULT_SUBSTEPS,
    with_fundamental: bool = False,
) -> Trajectory:
    """RK4 integration of dx/dt = drift(x) + sum u_i X_i(x) along a signal.

    With with_fundamental=True each segment k also gets its tangent block
    [P_k^T; S_k^T]: P_k the state transition and S_k the sensitivity to u_k,
    both restarted from [I; 0] at the segment's start.  The state run records
    the four stage states of every step; afterwards all m blocks advance
    together through rk4_step on the linearizations at those states.  The
    block is therefore the derivative of the segment's RK4 steps themselves,
    to rounding, and the states are the plain run's bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (system.n,):
        raise ConfigError(f"x0 must have shape ({system.n},)")
    if signal.segments > 0 and signal.d != system.d:
        raise ConfigError(f"signal has d={signal.d}, system expects {system.d}")
    if substeps < 1:
        raise ConfigError("substeps must be >= 1")

    m, n = signal.segments, system.n
    z = x0.tolist()
    _check_state(z, 0.0)
    f = rhs = system.float_rhs
    if with_fundamental:
        stages = []  # every stage state, in evaluation order

        def f(x, u):
            stages.append(x)
            return rhs(x, u)

    times, rows = [0.0], [z]
    bps = signal.breakpoints.tolist()
    for k in range(m):
        u = signal.values[k].tolist()
        t0 = bps[k]
        h = (bps[k + 1] - t0) / substeps
        for j in range(substeps):
            z = rk4_step(f, z, h, u)
            t = t0 + (j + 1) * h
            _check_state(z, t)
            times.append(t)
            rows.append(z)
    times[-1] = signal.total_time  # exact final time
    times, states = np.array(times), np.array(rows)
    fund = np.empty((0, n + system.d, n)) if with_fundamental else None
    if with_fundamental and m:
        fund = _tangent_blocks(system, signal, substeps, stages)
    return Trajectory(times=times, states=states, signal=signal, substeps=substeps, fundamental=fund)


def endpoint(system, x0, signal, substeps=DEFAULT_SUBSTEPS):
    """Final state of the controlled trajectory; an empty signal stays at x0."""
    return integrate(system, x0, signal, substeps).endpoint


@dataclass
class EndpointDifferential:
    """First-order differential of the endpoint map over the segment basis.

    matrix has shape (n, m*d), column k*d + i holding the derivative of the
    RK4 endpoint with respect to u_k[i].  w_bar (m, n, d) holds the dual rows
    projected onto the segment basis: w_bar[k] is segment k's columns over
    its duration h_k.
    """

    system: ControlSystem
    x0: np.ndarray
    signal: ControlSignal
    substeps: int
    trajectory: Trajectory
    matrix: np.ndarray
    w_bar: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.trajectory.endpoint

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, v) -> np.ndarray:
        """Differential applied to a segment-basis direction.

        v is an (m, d) array or a ControlSignal sharing the breakpoints.
        """
        if isinstance(v, ControlSignal):
            if not np.array_equal(v.breakpoints, self.signal.breakpoints):
                raise ConfigError("direction must share the signal's breakpoints")
            v = v.values
        v = np.asarray(v, dtype=float)
        return self.matrix @ v.ravel()

    def dual_signal(self, lam) -> ControlSignal:
        """Covector pullback sum_j lam_j w_j as a segment-basis dual signal."""
        lam = np.asarray(lam, dtype=float)
        vals = np.einsum("j,kjd->kd", lam, self.w_bar)
        return ControlSignal(self.signal.breakpoints, vals)


def differential(
    system: ControlSystem,
    x0,
    signal: ControlSignal,
    substeps: int = DEFAULT_SUBSTEPS,
) -> EndpointDifferential:
    """The exact Jacobian of the RK4 endpoint map in the segment values.

    Segment k's columns are Psi_k S_k, where Psi_k = P_{m-1} ... P_{k+1} is
    the transition from the segment's end to T.  One backward sweep over the
    tangent blocks of integrate(with_fundamental=True) forms them:
    [P_k^T; S_k^T] Psi_k^T stacks Psi_{k-1}^T on segment k's columns,
    transposed.
    """
    if signal.segments == 0:
        raise ConfigError("differential needs a signal with at least one segment")
    traj = integrate(system, x0, signal, substeps=substeps, with_fundamental=True)
    m, d, n = signal.segments, signal.d, system.n

    rows = np.empty((m, d, n))  # rows[k] = (Psi_k S_k)^T
    psi_t = np.eye(n)
    for k in range(m - 1, -1, -1):
        G = traj.fundamental[k] @ psi_t
        rows[k] = G[n:]
        psi_t = G[:n]

    matrix = rows.reshape(m * d, n).T
    w_bar = np.transpose(rows, (0, 2, 1)) / signal.durations[:, None, None]  # (m, n, d)

    return EndpointDifferential(
        system=system,
        x0=np.asarray(x0, dtype=float),
        signal=signal,
        substeps=substeps,
        trajectory=traj,
        matrix=matrix,
        w_bar=w_bar,
    )


@dataclass
class RegularityReport:
    """Rank of the differential on L^2; regular means rank n by the RANK_TOL rule."""

    regular: bool
    rank: int
    sigma_min: float
    sigma_max: float


def _l2_svd(diff: EndpointDifferential):
    # the report, the column scale 1/sqrt(h_k) to L^2-orthonormal control
    # coordinates, and the right singular vectors of the scaled matrix
    scale = np.repeat(1.0 / np.sqrt(diff.signal.durations), diff.signal.d)
    _, svals, vt = np.linalg.svd(diff.matrix * scale, full_matrices=False)
    rank = int(np.sum(svals > RANK_TOL * svals[0]))
    return RegularityReport(rank == diff.n, rank, float(svals[-1]), float(svals[0])), scale, vt


def regular_value_test(diff: EndpointDifferential) -> RegularityReport:
    """Full-rank test of the differential in the L^2 operator geometry: regular
    when it has n singular values and sigma_min > RANK_TOL * sigma_max."""
    return _l2_svd(diff)[0]


def fiber_project(diff: EndpointDifferential, h_signal: ControlSignal) -> ControlSignal:
    """L^2-orthogonal projection onto the kernel of the differential.

    The input must share the signal's breakpoints; the projection removes the
    span of the dual rows w_j, the right singular vectors of the SVD that
    regular_value_test reads, so the result is tangent to the fiber through
    the base control.  Raises SingularFiberError exactly where that test
    says the value is not regular.
    """
    if not np.array_equal(h_signal.breakpoints, diff.signal.breakpoints):
        raise ConfigError("signal to project must share breakpoints with the base control")
    report, scale, vt = _l2_svd(diff)
    if not report.regular:
        raise SingularFiberError(
            f"differential has rank {report.rank} < {diff.n}: sigma_min/sigma_max = "
            f"{report.sigma_min:.3e}/{report.sigma_max:.3e} is not above RANK_TOL = "
            f"{RANK_TOL:g}; fiber tangent undefined"
        )
    v = h_signal.values.ravel() / scale  # L^2-orthonormal coordinates
    v = v - vt.T @ (vt @ v)
    return ControlSignal(diff.signal.breakpoints, (v * scale).reshape(h_signal.values.shape))
