"""Trajectory integration, the endpoint differential and its curvature.

Everything runs on a fixed-step RK4 grid: each signal segment is cut into
`substeps` equal steps.  The differential is the exact tangent of that
discrete map, not of the ODE: the same RK4 stages that advance the state
advance its derivatives with respect to the segment's start and control, so
the Jacobian the solver uses is the Jacobian of the map it constrains, to
rounding.  EndpointDifferential.hessian(lam) goes one order further on the
same recorded stages: the exact Hessian of lam . F, for the solver's Newton
steps, by the discrete second-order adjoint of the RK4 steps (stage
adjoints run backward over the stage tangents the first-order pass kept);
where the fields are affine its curvature term is 0 and is not formed.
No adaptive stepping.

The state run is one call of ControlSystem.state_run, generated code that
runs every segment's RK4 steps with the field expressions inlined (no call
or BLAS per stage), on Python floats or, where those are unsafe, on numpy
scalars, by the value stack's rule, and tests each step's state against the
bound this module passes it.  `rk4_step` is the generic RK4 step with the
same arithmetic: the steering charts' single-field flows advance through
it, and so do the tangent blocks, all segments' as one batch on the state
run's recorded stages, as the one-component list [Z].  A run recorded for
differentiation (integrate's with_fundamental=True) keeps its stages and
forms the blocks on first use, and differential takes such a run
(trajectory=): a control whose endpoint is judged first is integrated once,
and one rejected on its endpoint costs no tangent pass.  This module alone
decides what an empty signal reaches (its start) and when a state has
blown up (|x|_inf > BLOWUP_BOUND, raised as DomainEscapeError).
`_backtrack`, the halving line search of every damped Newton loop
(feasibilization, the KKT phase, the chart solve), lives here because it
rejects a trial step whose state blows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainEscapeError, SingularFiberError
from .signals import ControlSignal, _as_count
from .systems import RANK_TOL, ControlSystem, _as_state, _with_controls

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
    """States on the full substep grid, plus the generating data.

    A run recorded for differentiation (integrate's with_fundamental=True)
    keeps every RK4 stage state; its tangent blocks are formed from them on
    first use of fundamental or tangents, so a run whose differential is
    never needed costs no tangent pass.
    """

    states: np.ndarray  # (K+1, n)
    signal: ControlSignal
    substeps: int
    system: ControlSystem | None = field(default=None, repr=False)  # the run's, for the blocks
    # in a recorded run: every RK4 stage state's coordinates, flat, in
    # evaluation order, as the state run appended them
    recorded: list | None = field(default=None, repr=False)

    @cached_property
    def stages(self) -> np.ndarray | None:
        """(m * 4 * substeps, n) in a recorded run, else None: every RK4 stage
        state of the run, in evaluation order."""
        if self.recorded is None:
            return None
        return np.array(self.recorded, dtype=float).reshape(-1, self.n)

    @cached_property
    def times(self) -> np.ndarray:
        """(K+1,) the step grid: (j + 1) h after each segment's start, and the
        exact final time last."""
        bps, s = self.signal.breakpoints, self.substeps
        steps = np.arange(1, s + 1) * (np.diff(bps) / s)[:, None]  # (j + 1) h per segment
        times = np.concatenate([[0.0], (bps[:-1, None] + steps).ravel()])
        times[-1] = self.signal.total_time
        return times

    @cached_property
    def _blocks(self):
        if self.recorded is None:
            return None, None
        m, n, d = self.signal.segments, self.n, self.system.d
        if not m:
            return np.empty((0, n + d, n)), []
        return _tangent_blocks(self.system, self.signal, self.substeps, self.stages)

    @property
    def fundamental(self) -> np.ndarray | None:
        """(m, n + d, n) in a recorded run, else None: per segment k the tangent
        block [P_k^T; S_k^T] of its RK4 steps, all segments advanced together
        on the recorded stage states (see integrate)."""
        return self._blocks[0]

    @property
    def tangents(self) -> list | None:
        """With fundamental: the 4 * substeps (m, n + d, n) blocks entering the stages."""
        return self._blocks[1]

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


def _shaped(a, shape, what):
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ConfigError(f"{what} must have shape {shape}, got {a.shape}")
    return a


def _backtrack(trial, accept):
    """Halving line search: the first of trial(1), trial(1/2), ..., trial(1/512)
    that accept(alpha, result) takes, or None.  A DomainEscapeError rejects
    alpha, and so does a trial that returns None, before accept is asked."""
    alpha = 1.0
    for _ in range(10):
        try:
            cand = trial(alpha)
        except DomainEscapeError:
            pass
        else:
            if cand is not None and accept(alpha, cand):
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


def _block_rhs(z, lin, tangents):
    # one RK4 stage of every segment's block Z = [P^T; S^T]: Z A^T + [0; B^T],
    # with A^T and B^T = (X_1..X_d)^T the next recorded stage's linearization;
    # tangents keeps the stage's input Z
    (Z,) = z
    tangents.append(Z)
    At, Bt = next(lin)
    W = np.matmul(Z, At)
    W[:, Z.shape[2]:] += Bt
    return [W]


def _tangent_blocks(system, signal, substeps, X):
    # the (m, n + d, n) blocks from [I; 0] on the recorded stage states X: one
    # Jacobian and one field evaluation at every stage point, then 4 * substeps
    # batched matmuls.  Also returns the blocks entering the stages, in order.
    m, n, d = signal.segments, system.n, system.d
    per = 4 * substeps  # stage points per segment
    U = np.repeat(signal.values, per, axis=0)

    def by_stage(a):  # (m * per, ...) -> (per, m, ...): all segments, stage by stage
        return a.reshape((m, per) + a.shape[1:]).swapaxes(0, 1)

    lin = zip(by_stage(system.dynamics_jacobian(X, U)).swapaxes(2, 3),
              by_stage(system.field_values_batch(X)[:, 1:]))
    h = (np.diff(signal.breakpoints) / substeps)[:, None, None]
    z, tangents = [np.repeat(np.eye(n + d, n)[None], m, axis=0)], []
    for _ in range(substeps):
        z = rk4_step(_block_rhs, z, h, lin, tangents)
    return z[0], tangents


def integrate(
    system: ControlSystem,
    x0,
    signal: ControlSignal,
    substeps: int = DEFAULT_SUBSTEPS,
    with_fundamental: bool = False,
) -> Trajectory:
    """RK4 integration of dx/dt = drift(x) + sum u_i X_i(x) along a signal.

    The states come from one ControlSystem.state_run call; the first outside
    |x|_inf <= BLOWUP_BOUND raises DomainEscapeError at its step's time.
    With with_fundamental=True the run is recorded for differentiation: it
    keeps the four stage states of every step, and on first use of
    Trajectory.fundamental each segment k gets its tangent block
    [P_k^T; S_k^T], P_k the state transition and S_k the sensitivity to u_k,
    both restarted from [I; 0] at the segment's start.  All m blocks advance
    together through rk4_step on the linearizations at the recorded stages,
    so the block is the derivative of the segment's RK4 steps themselves, to
    rounding, and the states are the plain run's bit for bit.
    """
    x0 = _as_state(system, x0, "x0", finite=False)  # a non-finite x0 escapes at t = 0
    if signal.segments > 0 and signal.d != system.d:
        raise ConfigError(f"signal has d={signal.d}, system expects {system.d}")
    _as_count(substeps, "substeps", 1)

    n, bps = system.n, signal.breakpoints.tolist()
    stages = [] if with_fundamental else None  # every stage state's coordinates, in order
    rows, escaped = system.state_run(x0.tolist(), bps, signal.values.tolist(), substeps,
                                     BLOWUP_BOUND, stages)
    states = np.array(rows).reshape(-1, n)
    if escaped:
        # the time of step i >= 1, as Trajectory.times forms it: (j + 1) h into segment k
        k, j = divmod(len(states) - 2, substeps)
        t = bps[k] + (j + 1) * ((bps[k + 1] - bps[k]) / substeps) if len(states) > 1 else 0.0
        raise DomainEscapeError(f"trajectory left |x|_inf <= {BLOWUP_BOUND:g} at t={t:.6g}",
                                t=t, state=states[-1])
    return Trajectory(states=states, signal=signal, substeps=substeps, system=system,
                      recorded=stages)


def endpoint(system, x0, signal, substeps=DEFAULT_SUBSTEPS):
    """Final state of the controlled trajectory; an empty signal stays at x0.

    A copy: the trajectory's endpoint is a view that would keep its whole
    state array alive."""
    return integrate(system, x0, signal, substeps).endpoint.copy()


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
    transitions: np.ndarray  # (m, n, n): Psi_k^T per segment k, from differential's sweep

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
        return self.matrix @ _shaped(v, self.signal.values.shape, "direction").ravel()

    def dual_signal(self, lam) -> ControlSignal:
        """Covector pullback sum_j lam_j w_j as a segment-basis dual signal."""
        vals = np.einsum("j,kjd->kd", _shaped(lam, (self.n,), "lam"), self.w_bar)
        return ControlSignal(self.signal.breakpoints, vals)

    def hessian(self, lam) -> np.ndarray:
        """The exact Hessian of lam . F in the segment values, (m*d, m*d),
        ordered as matrix's columns.

        With x_{k+1} = Phi_k(x_k, u_k) the segment maps, H = sum_k J_k^T Q_k J_k:
        Q_k = mu_{k+1} . D^2 Phi_k, contracted with the adjoint
        mu_{k+1} = Psi_k^T lam, and J_k = d(x_k, u_k)/dU.  Q_k is the discrete
        second-order adjoint of the segment's RK4 steps (Hager, Numer. Math.
        87 (2000)): stage adjoints nu_s run back from mu_{k+1}, all segments
        together, and Q_k = sum_s T_s (nu_s . D^2 f_s) T_s^T, T_s = [Z_s | E]
        the stage tangent the first-order pass kept.  With G_k = dx_k/dU from
        a forward sweep, one gemm and Q_k's (x, u) blocks give H; no
        integration runs.  Where the system's second derivatives are all 0,
        Q_k's (x, x) block is 0 and neither it nor its gemm is formed.
        """
        lam = _shaped(lam, (self.n,), "lam")
        traj, sig, system, per = self.trajectory, self.signal, self.system, 4 * self.substeps
        m, d, n, N = sig.segments, sig.d, self.n, len(traj.stages)
        X, U = traj.stages, np.repeat(sig.values, per, axis=0)
        J = system.field_jacobians(X)
        A = _with_controls(J, U).reshape(m, per, n, n)
        # RK4's weights b and offsets a.  Adjoints start from mu / 2: H + H^T at the end
        # doubles Q's x and u blocks, and the (x, u) block, set above H's diagonal, is 2 Q_xu
        b, a = (1 / 6, 1 / 3, 1 / 3, 1 / 6), (0.5, 0.5, 1.0, 0.0)
        ybar, h = 0.5 * (self.transitions @ lam), (sig.durations / self.substeps)[:, None]
        nu = np.empty((m, per, 1, n))
        for j in range(per - 4, -1, -4):  # each step from the last; ybar: its end's adjoint
            g, start = 0.0, ybar  # g: A^T nu of the later stage; start: the step start's adjoint
            for t in (3, 2, 1, 0):
                nu[:, j + t, 0] = h * (b[t] * ybar + a[t] * g)
                g = np.matmul(nu[:, j + t], A[:, j + t])[:, 0]
                start = start + g
            ybar = start
        nu = nu.reshape(N, 1, n)
        Cxu = np.matmul(nu, J[:, 1:].transpose(0, 2, 3, 1).reshape(N, n, n * d))
        Z = np.stack(traj.tangents, axis=2)  # (m, n + d, per, n)
        curved = system._second_derivatives is not None  # else Q's curvature term is 0
        if curved:
            w = (np.hstack([np.ones((N, 1)), U])[:, :, None] * nu).reshape(N, 1, (d + 1) * n)
            Cxx = np.matmul(w, system.field_second_derivatives(X).reshape(N, (d + 1) * n, n * n))
            Y = np.matmul(Z[..., None, :], Cxx.reshape(m, 1, per, n, n)).reshape(m, n + d, per * n)
        Z = Z.reshape(m, n + d, per * n)
        Q = np.matmul(Y, Z.transpose(0, 2, 1)) if curved else np.zeros((m, n + d, n + d))
        R = np.matmul(Z, Cxu.reshape(m, per * n, d))
        Q[:, :, n:] += R
        Q[:, n:] += R.transpose(0, 2, 1)
        F = traj.fundamental  # G_{k+1} = P_k G_k + S_k in u_k's columns
        G = np.zeros((m, n, m * d))
        G.reshape(m, n, m, d)[range(1, m), :, range(m - 1)] = F[:-1, n:].transpose(0, 2, 1)
        for k in range(1, m - 1):
            np.matmul(F[k, :n].T, G[k, :, :k * d], out=G[k + 1, :, :k * d])
        H = (G.reshape(m * n, m * d).T @ np.matmul(Q[:, :n, :n], G).reshape(m * n, m * d)
             if curved else np.zeros((m * d, m * d)))
        C = np.matmul(G.transpose(0, 2, 1), 2 * Q[:, :n, n:])  # G_k^T Q_xu, in u_k's columns
        H.reshape(m * d, m, d)[:] += C.transpose(1, 0, 2)
        H.reshape(m, d, m, d)[range(m), :, range(m)] += Q[:, n:, n:]
        return H + H.T


def differential(
    system: ControlSystem,
    x0,
    signal: ControlSignal,
    substeps: int = DEFAULT_SUBSTEPS,
    trajectory: Trajectory | None = None,
) -> EndpointDifferential:
    """The exact Jacobian of the RK4 endpoint map in the segment values.

    Segment k's columns are Psi_k S_k, where Psi_k = P_{m-1} ... P_{k+1} is
    the transition from the segment's end to T.  One backward sweep over the
    tangent blocks of integrate(with_fundamental=True) forms them:
    [P_k^T; S_k^T] Psi_k^T stacks Psi_{k-1}^T on segment k's columns,
    transposed.  trajectory, when given, is that recorded run, already made,
    and nothing is integrated; ConfigError when it is not a recorded run of
    system from x0 along signal at substeps.
    """
    if signal.segments == 0:
        raise ConfigError("differential needs a signal with at least one segment")
    if trajectory is None:
        traj = integrate(system, x0, signal, substeps=substeps, with_fundamental=True)
    else:
        traj, x0 = trajectory, _as_state(system, x0, "x0", finite=False)
        same_signal = traj.signal is signal or (
            np.array_equal(traj.signal.breakpoints, signal.breakpoints)
            and np.array_equal(traj.signal.values, signal.values))
        if not (traj.system is system and traj.recorded is not None and same_signal
                and traj.substeps == substeps and traj.states[0].tolist() == x0.tolist()):
            raise ConfigError("trajectory is not the recorded run of this system, x0, "
                              "signal and substeps")
    m, d, n = signal.segments, signal.d, system.n

    rows, F = np.empty((m, d, n)), traj.fundamental  # rows[k] = (Psi_k S_k)^T
    transitions, psi_t = np.empty((m, n, n)), np.eye(n)  # psi_t: Psi_k^T, from k = m - 1 down
    for k in range(m - 1, -1, -1):
        transitions[k] = psi_t
        G = F[k] @ psi_t
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
        transitions=transitions,
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
