"""Trajectory integration, the endpoint differential and its curvature.

Everything runs on a fixed-step RK4 grid: each signal segment is cut into
`substeps` equal steps.  The differential is the exact tangent of that
discrete map, not of the ODE: the same RK4 stages that advance the state
advance its derivatives with respect to the segment's start and control, so
the Jacobian the solver uses is the Jacobian of the map it constrains, to
rounding.  EndpointDifferential.hessian(lam) goes one order further on the
same recorded stages: the exact Hessian of lam . F, for the solver's Newton
steps.  No adaptive stepping.

The state run advances n Python floats by ControlSystem.float_step, one
generated straight-line RK4 step (no BLAS call per stage, and numpy scalars
only where Python floats are unsafe).  `rk4_step` is the generic RK4 step
with the same arithmetic: the steering charts' single-field flows advance
through it, and so do the tangent blocks, all segments' as one batch on the
state run's recorded stages, as the one-component list [Z].  This module
alone decides what an empty signal reaches (its start) and when a state has
blown up (|x|_inf > BLOWUP_BOUND, raised as DomainEscapeError).
`_backtrack`, the halving line search of every damped Newton loop
(feasibilization, the KKT phase, the chart solve), lives here because it
rejects a trial step whose state blows up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainEscapeError, SingularFiberError
from .signals import ControlSignal
from .systems import RANK_TOL, ControlSystem, _with_controls

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
    # (m * 4 * substeps, n) with the blocks: every RK4 stage state of the run,
    # in evaluation order
    stages: np.ndarray | None = None

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
    # with A^T and B^T = (X_1..X_d)^T the next recorded stage's linearization.
    # When the stage also brings H, the right-hand side's second derivative
    # in zeta = (x, u), Z has second-order rows after the first n + d, and
    # row (p, q) also gains H[a, b, c] T[p, b] T[q, c] in component a, with
    # T = [Z | E] the stage's tangent of zeta (E, the tangent of u, is fixed).
    (Z,) = z
    At, Bt, *H = next(lin)
    m, d, n = len(Z), Bt.shape[1], Z.shape[2]
    W = np.matmul(Z, At)
    W[:, n:n + d] += Bt
    if H:
        P = n + d
        T = np.concatenate([Z[:, :P], np.broadcast_to(np.eye(P, d, -n), (m, P, d))], axis=2)
        HT = np.matmul(H[0].reshape(m, n * P, P), T.transpose(0, 2, 1)).reshape(m, n, P, P)
        W[:, P:] += np.matmul(T[:, None], HT).reshape(m, n, P * P).transpose(0, 2, 1)
    return [W]


def _tangent_blocks(system, signal, substeps, X, second=False):
    # the (m, n + d, n) blocks from [I; 0] on the recorded stage states X: one
    # Jacobian and one field evaluation at every stage point, then 4 * substeps
    # batched matmuls.  With second=True, (n + d)^2 rows follow, from 0: row
    # n + d + p (n + d) + q holds the second derivative of the segment's end
    # state in its start and value, directions p and q of zeta = (x, u).
    m, n, d = signal.segments, system.n, system.d
    P, per = n + d, 4 * substeps  # stage points per segment
    U = np.repeat(signal.values, per, axis=0)

    def by_stage(a):  # (m * per, ...) -> (per, m, ...): all segments, stage by stage
        return a.reshape((m, per) + a.shape[1:]).swapaxes(0, 1)

    # the second pass also needs the fields' own Jacobians: one stack serves both
    J = system.field_jacobians(X) if second else None
    A = system.dynamics_jacobian(X, U) if J is None else _with_controls(J, U)
    lin = [by_stage(A).swapaxes(2, 3), by_stage(system.field_values_batch(X)[:, 1:])]
    z = np.eye(P, n)
    if second:
        # d^2 f / dzeta^2: the fields' second derivatives in x, and X_i's
        # Jacobian in the (u_i, x) and (x, u_i) blocks
        H = np.zeros((len(X), n, P, P))
        H[:, :, :n, :n] = system.dynamics_hessian(X, U)
        H[:, :, n:, :n] = J[:, 1:].transpose(0, 2, 1, 3)
        H[:, :, :n, n:] = J[:, 1:].transpose(0, 2, 3, 1)
        lin.append(by_stage(H))
        z = np.vstack([z, np.zeros((P * P, n))])
    lin = zip(*lin)
    h = (np.diff(signal.breakpoints) / substeps)[:, None, None]
    z = [np.repeat(z[None], m, axis=0)]
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
    step = system.float_step
    stages = [] if with_fundamental else None  # every stage state's coordinates, in order
    times, rows = [0.0], [z]
    bps = signal.breakpoints.tolist()
    for k in range(m):
        u = signal.values[k].tolist()
        t0 = bps[k]
        h = (bps[k + 1] - t0) / substeps
        for j in range(substeps):
            z = step(z, h, u, stages)
            t = t0 + (j + 1) * h
            _check_state(z, t)
            times.append(t)
            rows.append(z)
    times[-1] = signal.total_time  # exact final time
    times, states = np.array(times), np.array(rows)
    fund = X = None
    if with_fundamental:
        X = np.array(stages, dtype=float).reshape(-1, n)
        fund = _tangent_blocks(system, signal, substeps, X) if m else np.empty((0, n + system.d, n))
    return Trajectory(times=times, states=states, signal=signal, substeps=substeps,
                      fundamental=fund, stages=X)


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

    def hessian(self, lam) -> np.ndarray:
        """The exact Hessian of lam . F in the segment values, (m*d, m*d),
        ordered as matrix's columns.

        With x_{k+1} = Phi_k(x_k, u_k) the segment maps, H = sum_k J_k^T Q_k J_k:
        Q_k = mu_{k+1} . D^2 Phi_k, contracted with the adjoint
        mu_{k+1} = Psi_k^T lam, and J_k = d(x_k, u_k)/dU.  One second-order
        pass of the tangent recursion over the recorded stages gives every
        D^2 Phi_k, all segments together; one backward sweep then carries the
        second derivative of lam . F in x_{k+1} (W) and in x_{k+1} and the
        later values (V) from segment to segment.
        """
        traj, sig = self.trajectory, self.signal
        m, d, n = sig.segments, sig.d, self.n
        P = n + d
        D2 = _tangent_blocks(self.system, sig, self.substeps, traj.stages, second=True)[:, P:]
        H = np.zeros((m, d, m, d))
        W, V = np.zeros((n, n)), np.zeros((n, m, d))
        mu = np.asarray(lam, dtype=float)
        for k in range(m - 1, -1, -1):
            F = traj.fundamental[k]  # d x_{k+1} / d(x_k, u_k), transposed
            M = F @ W @ F.T + (D2[k] @ mu).reshape(P, P)  # in (x_k, u_k)
            G = (F @ V.reshape(n, m * d)).reshape(P, m, d)
            H[k] = G[n:]
            H[k, :, k] = 0.5 * M[n:, n:]
            V, W = G[:n], M[:n, :n]
            V[:, k] = M[:n, n:]
            mu = F[:n] @ mu
        H = H.reshape(m * d, m * d)
        return H + H.T


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
