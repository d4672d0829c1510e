"""Critical points of the p-energy on endpoint fibers.

The solver works on the segment basis of a fixed signal grid.  A run has
three stages: (a) feasibilization, damped minimal-norm Newton steps toward
the fiber (these move perpendicular to the fiber, so the seed's homotopy
content survives); (b) a multiplier estimate by weighted least squares
against the dual rows; (c) a Lagrange-Newton phase on the full first-order
system.  Each of its steps forms the Lagrangian's Hessian in the controls
once, exactly (the energy's, minus the curvature lam . D^2F that
EndpointDifferential.hessian assembles from the recorded RK4 stages), and
solves the KKT system by the module's own restarted GMRES (gmres, scipy's
iteration repeated bit for bit, so the library needs no scipy), with the
no-curvature KKT block as left preconditioner, then takes a line search on
the residual norm.
Stages (a) and (c) damp their steps with the halving line search
endpoint._backtrack, and each ends when no damped step helps.  A trial pays
only for its verdict.  Every control is integrated once (_Workspace): a
trial is one state run, recorded for differentiation, and the accepted
trial's run is the next iterate's.  A feasibilization trial is judged on
its endpoint.  A KKT trial whose endpoint residual alone already fails the
merit test is rejected before its tangent pass (exactly: the merit is at
least 1/2 |r2|^2); only the others form a differential and the merit, and
the stationarity norms are formed for accepted residuals alone.  Stage (c)
converges to critical points of any index, which matters because on
compact-fiber problems most of the ladder consists of saddles; pure descent
would collapse every seed onto the lowest cluster.
"""

from __future__ import annotations

import importlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .endpoint import (EndpointDifferential, Trajectory, _backtrack, _shaped, differential,
                       regular_value_test)
from .errors import ConfigError, ConvergenceError, HorizonError
from .signals import (ControlSignal, _abs_power, _as_count, _as_tolerance, _lp_norm_of_values,
                      conjugate_exponent, energy_of_values, gradient_density)
from .systems import ControlSystem, _as_state, displacement

# the endpoint module (in the package namespace `endpoint` is the function of
# that name); state runs look up _ep.integrate at each call, so that a layer
# tracer wrapping endpoint.integrate sees them
_ep = importlib.import_module(".endpoint", __package__)

__all__ = [
    "GeodesicOptions",
    "GeodesicRecord",
    "MultistartReport",
    "CoincidenceReport",
    "lagrange_residual",
    "solve_critical",
    "multistart",
    "coincidence_check",
]

# relative Tikhonov shift of every weighted Gram (_gram): RIDGE (tr / n + 1)
RIDGE = 1e-10
# two converged records are one critical point when their energies agree to
# DEDUP_ENERGY_TOL and their energy-normalized multipliers to DEDUP_LAMBDA_TOL
# (both relative)
DEDUP_ENERGY_TOL = 1e-3
DEDUP_LAMBDA_TOL = 1e-2
# gmres runs cycles of GMRES_CYCLE Arnoldi steps (scipy's default restart)
# and restarts at most GMRES_RESTARTS times, so a Newton step takes up to 500
# matvecs, plus one true residual per cycle
GMRES_CYCLE = 20
GMRES_RESTARTS = 25
# seed rotations draw their frequency from 1..SEED_BANDWIDTH
SEED_BANDWIDTH = 5
# coincidence_check passes at J_2 stationarity <= COINCIDENCE_TOL * its scale
COINCIDENCE_TOL = 1e-6


@dataclass
class GeodesicOptions:
    p: float = 2.0
    mode: str = "vector"  # energy aggregation: "vector" or "component"
    substeps: int | None = None  # RK4 substeps per segment; None: substeps_for's rule
    end_tol: float = 1e-8
    stat_tol: float = 1e-6  # relative to max(1, ||energy gradient||_q)
    max_iter: int = 40
    feas_iter: int = 30
    raise_on_failure: bool = True

    def __post_init__(self):
        conjugate_exponent(self.p)
        if self.substeps is not None:
            _as_count(self.substeps, "substeps", 1)
        _as_count(self.max_iter, "max_iter", 0)
        _as_count(self.feas_iter, "feas_iter", 0)
        _as_tolerance(self.end_tol, "end_tol")
        _as_tolerance(self.stat_tol, "stat_tol")
        if self.mode not in ("vector", "component"):
            raise ConfigError(f"unknown energy mode {self.mode!r}")

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)

    def substeps_for(self, system: ControlSystem) -> int:
        """The substeps a solve on system takes: substeps as given, else 1
        where one RK4 step is the exact flow (ControlSystem.slope_split), so
        that the endpoint map, its differential and its curvature are the
        exact flow's, and 2 elsewhere."""
        if self.substeps is not None:
            return self.substeps
        return 1 if system.slope_split.exact else 2


@dataclass
class GeodesicRecord:
    control: ControlSignal
    lam: np.ndarray
    p: float
    mode: str
    substeps: int  # RK4 substeps per segment the solve took; not part of to_dict
    energy: float
    stationarity_residual: float
    stationarity_scale: float
    endpoint_residual: float
    speed_profile: np.ndarray
    iterations: int
    converged: bool
    seed_index: int | None = None
    rank_warning: bool = False
    # feas_log: endpoint residual per feasibilization step; kkt_log:
    # (stationarity, endpoint residual) per KKT iteration; gmres: per KKT GMRES
    # solve, its forcing term rtol, its matvecs and gmres's info (> 0: the
    # budget ran out); work: the solve's state runs, tangent passes and KKT
    # trials rejected on their endpoint alone.  Not part of to_dict.
    diagnostics: dict = field(default_factory=dict)

    @property
    def speed_variation(self) -> float:
        """Max relative deviation of |u(t)| from its time average."""
        sp = self.speed_profile
        h = self.control.durations
        mean = float(np.sum(sp * h) / np.sum(h))
        if mean == 0.0:
            return 0.0
        return float(np.max(np.abs(sp - mean)) / mean)

    def to_dict(self) -> dict:
        return {
            "seed_index": self.seed_index,
            "energy": self.energy,
            "endpoint_residual": self.endpoint_residual,
            "stationarity_residual": self.stationarity_residual,
            "stationarity_scale": self.stationarity_scale,
            "speed_variation": self.speed_variation,
            "iterations": self.iterations,
            "converged": self.converged,
            "rank_warning": self.rank_warning,
            "lambda": self.lam.tolist(),
            "control": {
                "breakpoints": self.control.breakpoints.tolist(),
                "values": self.control.values.tolist(),
            },
        }


# -- densities of the energy and its derivatives ------------------------------


def _hess_density_blocks(U, p, mode):
    """Second derivative of the energy density at each row of U: (m, d, d)."""
    m, d = U.shape
    if mode == "component":
        blocks = np.zeros((m, d, d))
        blocks[:, range(d), range(d)] = p * (p - 1.0) * _abs_power(U, p - 2.0)
        return blocks
    speeds = np.linalg.norm(U, axis=1)
    s2, s4 = _abs_power(speeds, p - 2.0), _abs_power(speeds, p - 4.0)
    return (p * s2[:, None, None] * np.eye(d)
            + p * (p - 2.0) * s4[:, None, None] * U[:, :, None] * U[:, None, :])


# -- stationarity -------------------------------------------------------------


def _same(U, V):
    """U and V hold the same values, bit for bit (the cache's key test)."""
    return U is V or (U.shape == V.shape and U.tobytes() == V.tobytes())


class _Workspace:
    """The solver's evaluations of F at its controls U, each run once.

    run(U) is the state run at U, recorded for differentiation; assemble(U)
    the EndpointDifferential, on that run when it is at hand.  Each keeps
    its last entry: every trial point of a line search is a run, and the
    accepted one is the last run, so the next iterate differentiates it
    without integrating again, while the iterate's differential outlives a
    search that accepts nothing.  work counts the state runs and tangent
    passes made, and the KKT trials rejected on their endpoint alone.
    """

    def __init__(self, system, x0, u: ControlSignal, substeps):
        self.system = system
        self.x0 = x0
        self.signal = u
        self.substeps = substeps
        self.h = u.durations
        self.h_dof = np.repeat(self.h, u.d)
        self.work = {"state_runs": 0, "tangent_passes": 0, "endpoint_rejects": 0}
        self._traj = self._diff = None

    def run(self, U) -> Trajectory:
        """The recorded state run at U (DomainEscapeError where it blows up)."""
        if self._traj is None or not _same(U, self._traj.signal.values):
            sig = self.signal.with_values(U)
            self._traj = _ep.integrate(self.system, self.x0, sig, self.substeps,
                                       with_fundamental=True)
            self.work["state_runs"] += 1
        return self._traj

    def assemble(self, U) -> EndpointDifferential:
        """The EndpointDifferential at U, assembled once per control."""
        if self._diff is None or not _same(U, self._diff.signal.values):
            traj = self.run(U)
            self._diff = differential(self.system, self.x0, traj.signal, self.substeps,
                                      trajectory=traj)
            self.work["tangent_passes"] += 1
        return self._diff


class _Residual:
    """The KKT residual at (U, lam); stat and scale are formed on first use."""

    def __init__(self, R1, r2, merit, diff, dens, g, h, q):
        self.R1 = R1  # h-weighted stationarity density, flattened
        self.r2 = r2  # F - y in wrapped coordinates
        self.merit = merit  # 1/2 (R1 . R1 / h + r2 . r2), the line-search merit
        self.diff = diff  # the differential at the residual's control
        self._dens, self._g, self._h, self._q = dens, g, h, q

    @cached_property
    def stat(self) -> float:
        """L^q norm of the stationarity density."""
        return _lp_norm_of_values(self._dens, self._h, self._q)

    @cached_property
    def scale(self) -> float:
        """max(1, L^q norm of the energy gradient)."""
        return max(1.0, _lp_norm_of_values(self._g, self._h, self._q))


def _endpoint_gap(ws, U, y):
    """r2 = F(U) - y in wrapped coordinates, from U's run (as _kkt_residual forms it)."""
    return -displacement(ws.system, ws.run(U).endpoint, y)


def _fails_on_endpoint(r2, bound) -> bool:
    """True when a residual with endpoint gap r2 has merit > bound, read
    from r2 alone: 1/2 r2 . r2 > bound.  Exact in floating point: the merit
    is 1/2 (a + r2 . r2) with a = sum (R1_i / h_i) R1_i >= 0, and rounding is
    monotone, so it is at least 1/2 r2 . r2 as computed.  False says nothing."""
    return 0.5 * np.dot(r2, r2) > bound


def _kkt_residual(ws, U, lam, y, opts) -> _Residual:
    diff = ws.assemble(U)
    g = gradient_density(U, opts.p, opts.mode)
    dens = g - np.einsum("j,kjd->kd", lam, diff.w_bar)
    r2 = -displacement(ws.system, diff.endpoint, y)
    R1 = (ws.h[:, None] * dens).ravel()
    merit = 0.5 * (np.dot(R1 / ws.h_dof, R1) + np.dot(r2, r2))
    return _Residual(R1, r2, merit, diff, dens, g, ws.h, opts.q)


def _converged(res: _Residual, opts) -> bool:
    return bool(res.stat <= opts.stat_tol * res.scale and np.linalg.norm(res.r2) <= opts.end_tol)


def lagrange_residual(system, x, y, u: ControlSignal, lam, p, mode="vector", substeps=None):
    """L^q distance between the pulled-back covector and the energy gradient.

    Assembles lambda o d_uF as the dual signal sum_j lambda_j w_j and measures
    its L^q distance to the p-energy gradient density, on substeps RK4 steps
    per segment (by default the solver's, GeodesicOptions.substeps_for).
    """
    x, y = _as_state(system, x, "x"), _as_state(system, y, "y")
    lam = _shaped(lam, (system.n,), "lam")
    if u.segments == 0:
        return 0.0 if np.allclose(lam, 0.0) else float("inf")
    opts = GeodesicOptions(p=p, mode=mode, substeps=substeps)
    ws = _Workspace(system, x, u, opts.substeps_for(system))
    return _kkt_residual(ws, u.values, lam, y, opts).stat


# -- the solver ---------------------------------------------------------------


def _gram(A, w):
    """A diag(1/w) A^T + RIDGE (tr / n + 1) I: the weighted normal matrix of
    the rows of A, positive definite for every A, A = 0 included."""
    G = (A / w) @ A.T
    n = G.shape[0]
    return G + RIDGE * (np.trace(G) / n + 1.0) * np.eye(n)


def _feasibilize(ws, U, y, opts, log):
    """Damped minimal-L^2-norm Newton onto the fiber."""
    for _ in range(opts.feas_iter):
        diff = ws.assemble(U)
        A = diff.matrix
        r = displacement(ws.system, diff.endpoint, y)
        rn = np.linalg.norm(r)
        log.append(rn)
        if rn <= 0.5 * opts.end_tol:
            return U
        # the minimal-L^2-norm solution of A v = r
        v = (A.T @ np.linalg.solve(_gram(A, ws.h_dof), r) / ws.h_dof).reshape(U.shape)

        def trial(alpha):
            cand = U + alpha * v
            return cand, np.linalg.norm(_endpoint_gap(ws, cand, y))

        found = _backtrack(trial, lambda alpha, c: c[1] < (1.0 - 1e-4 * alpha) * rn)
        if found is None:
            break  # no damped step reduced the residual
        U = found[0]
    return U


def _lambda_least_squares(ws, U, opts):
    """Weighted LS fit of the multiplier to the gradient density: the lam
    minimizing the L^2 norm of g - lam . w_bar, from its normal equations."""
    A = ws.assemble(U).matrix
    g = gradient_density(U, opts.p, opts.mode).ravel()
    return np.linalg.solve(_gram(A, ws.h_dof), A @ g)


class _Operator(NamedTuple):
    """A square linear map as gmres reads it (and a tracer can wrap it)."""

    shape: tuple[int, int]
    dtype: type
    matvec: Callable[[np.ndarray], np.ndarray]


# LAPACK's safe range for dlartg: 2^-1022 .. 2^1022, and the square roots
# inside which f*f + g*g neither overflows nor underflows
_SAFMIN, _SAFMAX = 2.0 ** -1022, 2.0 ** 1022
_RTMIN, _RTMAX = math.sqrt(_SAFMIN), math.sqrt(_SAFMAX / 2)
_EPS = float(np.finfo(float).eps)


def _lartg(f, g):
    """LAPACK dlartg's plane rotation (c, s, r): c f + s g = r, c g - s f = 0."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:  # -0.0 included: r = |g|
        return 0.0, math.copysign(1.0, g), abs(g)
    if _RTMIN < abs(f) < _RTMAX and _RTMIN < abs(g) < _RTMAX:
        r = math.copysign(math.sqrt(f * f + g * g), f)
        return f / r, g / r, r
    u = min(_SAFMAX, max(_SAFMIN, abs(f), abs(g)))
    f, g = f / u, g / u
    r = math.copysign(math.sqrt(f * f + g * g), f)
    return f / r, g / r, r * u


def _norm(v):
    """numpy.linalg.norm of a vector, by its operations."""
    return math.sqrt(v.dot(v))


def gmres(A, b, rtol, maxiter, M):
    """Left-preconditioned restarted GMRES(GMRES_CYCLE) from x = 0, stopped at
    |b - A x| <= rtol |b|; returns (x, info), info = maxiter when maxiter
    cycles did not reach it, else 0.  A and M need only .matvec.

    It repeats scipy 1.17's scipy.sparse.linalg.gmres(A, b, rtol=rtol,
    atol=0, maxiter=maxiter, M=M) operation for operation, so x is the same
    bits: Arnoldi by modified Gram-Schmidt on M A, Givens rotations by
    LAPACK's dlartg, a cycle that ends when the rotated estimate of |M r|
    falls below ptol or the Krylov space stops growing, one true residual
    b - A x per cycle, and ptol adapted between cycles by scipy's gh-8400
    rule.  The Hessenberg and rotation scalars are Python floats, the vectors
    numpy arrays.  Two cases the solver never meets are left out: scipy
    returns x = 0 at once for rtol > 1, and where M r is 0 it goes on in
    nan, while here 1 / |M r| raises ZeroDivisionError.
    """
    matvec, psolve = A.matvec, M.matvec
    bnrm2 = _norm(b)
    if bnrm2 == 0.0:
        return b.copy(), 0
    atol = rtol * bnrm2
    n = len(b)
    x = np.zeros(n)
    restart = min(GMRES_CYCLE, n)
    v = np.empty((restart + 1, n))
    ptol, ptol_max_factor = _norm(psolve(b)) * min(1.0, atol / bnrm2), 1.0
    r, rnorm = b, bnrm2
    for _ in range(maxiter):
        w = psolve(r)
        S = [_norm(w)]  # the rotated right-hand side of the Hessenberg problem
        v[0] = w * (1 / S[0])
        H, rotations = [], []  # H[j]: column j of the rotated Hessenberg matrix
        for col in range(restart):
            w = psolve(matvec(v[col]))
            h0 = _norm(w)
            h = []
            for k in range(col + 1):
                t = float(v[k].dot(w))
                h.append(t)
                w -= t * v[k]
            h1 = _norm(w)
            breakdown = h1 <= _EPS * h0  # the Krylov space stopped growing
            if not breakdown:
                v[col + 1] = w * (1 / h1)
            h.append(0.0 if breakdown else h1)
            for k, (c, s) in enumerate(rotations):
                h[k], h[k + 1] = c * h[k] + s * h[k + 1], -s * h[k] + c * h[k + 1]
            c, s, h[col] = _lartg(h[col], h[col + 1])
            rotations.append((c, s))
            H.append(h)
            S[col:] = c * S[col], -s * S[col]
            presid = abs(S[col + 1])
            if presid <= ptol or breakdown:
                break
        if H[col][col] == 0.0:
            S[col] = 0.0
        y = S[:col + 1]  # back substitution in H's upper triangle
        for k in range(col, 0, -1):
            if y[k] != 0.0:
                y[k] /= H[k][k]
                for j in range(k):
                    y[j] -= y[k] * H[k][j]
        if y[0] != 0.0:
            y[0] /= H[0][0]
        x += np.array(y) @ v[:col + 1]
        r = b - matvec(x)
        rnorm = _norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(_EPS, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, 0 if rnorm <= atol else maxiter


def _solve_kkt_newton(ws, U, lam, y, opts, log, gmres_log):
    """Lagrange-Newton iterations; returns the last (U, lam), its residual and
    the iteration index.  gmres_log gets one entry per GMRES solve."""
    (m, d), md = U.shape, U.size
    n = len(lam)
    it = 0
    res = _kkt_residual(ws, U, lam, y, opts)
    phi0 = res.merit
    for it in range(opts.max_iter):
        log.append((res.stat, np.linalg.norm(res.r2)))
        if _converged(res, opts):
            break

        diff = res.diff
        A = diff.matrix
        # the Lagrangian's Hessian in U: the energy's, block diagonal, minus
        # the exact curvature of lam . F
        blocks = ws.h[:, None, None] * _hess_density_blocks(U, opts.p, opts.mode)
        L = -diff.hessian(lam)
        L.reshape(m, d, m, d)[range(m), :, range(m)] += blocks
        Hdiag = np.diagonal(blocks, axis1=1, axis2=2).ravel()
        mu = 1e-8 * (np.mean(np.abs(Hdiag)) + 1.0)
        Hdd = Hdiag + mu
        S = _gram(A, Hdd)  # the Schur complement of the preconditioner

        def precond(z):
            a, b = z[:md], z[md:]
            dlam = np.linalg.solve(S, b - A @ (a / Hdd))
            du = (a + A.T @ dlam) / Hdd
            return np.concatenate([du, dlam])

        matvecs = 0

        def matvec(z):
            nonlocal matvecs
            matvecs += 1
            du, dlam = z[:md], z[md:]
            return np.concatenate([L @ du - A.T @ dlam, A @ du])

        R = np.concatenate([res.R1, res.r2])
        op = _Operator((md + n, md + n), float, matvec)
        M = _Operator((md + n, md + n), float, precond)
        rtol = min(0.1, float(np.sqrt(res.merit / phi0))) if phi0 > 0 else 0.1
        step, info = gmres(op, -R, rtol=rtol, maxiter=GMRES_RESTARTS, M=M)
        gmres_log.append({"rtol": rtol, "matvecs": matvecs, "info": int(info)})

        def bound(alpha):  # the largest merit the line search accepts at alpha
            return (1.0 - 1e-4 * alpha) * res.merit

        def trial(alpha):  # one that fails on its endpoint alone forms no differential
            Uc = U + alpha * step[:md].reshape(U.shape)
            if _fails_on_endpoint(_endpoint_gap(ws, Uc, y), bound(alpha)):
                ws.work["endpoint_rejects"] += 1
                return None
            lc = lam + alpha * step[md:]
            return Uc, lc, _kkt_residual(ws, Uc, lc, y, opts)

        found = _backtrack(trial, lambda alpha, c: c[2].merit <= bound(alpha))
        if found is None:
            break  # no damped step reduced the merit
        U, lam, res = found
    return U, lam, res, it


def _options(p: float | None, opts: GeodesicOptions | None) -> GeodesicOptions:
    """opts (default GeodesicOptions()) with p; an explicit p must equal opts.p."""
    if opts is None:
        return GeodesicOptions() if p is None else GeodesicOptions(p=p)
    if p is not None and p != opts.p:
        raise ConfigError(f"p={p} disagrees with opts.p={opts.p}; pass one of them")
    return opts


def solve_critical(
    system: ControlSystem,
    x,
    y,
    p: float | None = None,
    u_init: ControlSignal | None = None,
    opts: GeodesicOptions | None = None,
    seed_index: int | None = None,
) -> GeodesicRecord:
    """Drive u_init to a critical point of J_p on the fiber over y.

    Feasibilization moves minimally (perpendicular to the fiber), and the
    Lagrange-Newton phase solves the full stationarity system, converging to
    critical points of any Morse index.  Raises ConvergenceError when
    opts.raise_on_failure and the tolerances were not met.  The exponent is
    opts.p; a p given beside opts must equal it (ConfigError otherwise).
    """
    opts = _options(p, opts)
    if u_init is None:
        raise ConfigError("solve_critical needs an initial control signal")
    x, y = _as_state(system, x, "x"), _as_state(system, y, "y")

    ws = _Workspace(system, x, u_init, opts.substeps_for(system))
    U = u_init.values.copy()
    diagnostics = {"feas_log": [], "kkt_log": [], "gmres": [], "work": ws.work}

    U = _feasibilize(ws, U, y, opts, diagnostics["feas_log"])

    lam = _lambda_least_squares(ws, U, opts)
    if regular_value_test(ws.assemble(U)).regular:
        U, lam, res, iters = _solve_kkt_newton(
            ws, U, lam, y, opts, diagnostics["kkt_log"], diagnostics["gmres"])
    else:  # without full-rank constraints the KKT system has no Newton step
        res, iters = _kkt_residual(ws, U, lam, y, opts), 0
    converged = _converged(res, opts)
    rank_warning = not regular_value_test(res.diff).regular  # at the control returned
    end_res = float(np.linalg.norm(res.r2))
    record = GeodesicRecord(
        control=ws.signal.with_values(U),
        lam=lam,
        p=opts.p,
        mode=opts.mode,
        substeps=ws.substeps,
        energy=energy_of_values(U, ws.h, opts.p, opts.mode),
        stationarity_residual=res.stat,
        stationarity_scale=res.scale,
        endpoint_residual=end_res,
        speed_profile=np.linalg.norm(U, axis=1),
        iterations=iters,
        converged=converged,
        seed_index=seed_index,
        rank_warning=rank_warning,
        diagnostics=diagnostics,
    )
    if not converged and opts.raise_on_failure:
        raise ConvergenceError(
            f"geodesic solve stalled: stationarity {res.stat:.3e} (scale {res.scale:.3e}), "
            f"endpoint residual {end_res:.3e}"
        )
    return record


# -- multistart ---------------------------------------------------------------


@dataclass
class MultistartReport:
    system_name: str
    x: np.ndarray
    y: np.ndarray
    p: float
    mode: str
    n_seeds: int
    m_seed: int
    rng_seed: int
    records: list
    seeds_tried: int
    failed_seeds: list
    cluster_ids: list
    energy_clusters: list

    @property
    def dedup_clusters(self) -> int:
        return len(self.records)

    def to_json(self) -> str:
        payload = {
            "system": self.system_name,
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "p": self.p,
            "mode": self.mode,
            "n_seeds": self.n_seeds,
            "m_seed": self.m_seed,
            "rng_seed": self.rng_seed,
            "seeds_tried": self.seeds_tried,
            "failed_seeds": self.failed_seeds,
            "dedup_clusters": self.dedup_clusters,
            "energy_clusters": self.energy_clusters,
            "records": [
                {**rec.to_dict(), "cluster_id": cid}
                for rec, cid in zip(self.records, self.cluster_ids)
            ],
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["seed,energy,endpoint_residual,stationarity_residual,speed_variation,cluster_id"]
        for rec, cid in zip(self.records, self.cluster_ids):
            lines.append(
                f"{rec.seed_index},{rec.energy!r},{rec.endpoint_residual!r},"
                f"{rec.stationarity_residual!r},{rec.speed_variation!r},{cid}"
            )
        return "\n".join(lines) + "\n"


def generate_seeds(rng_seed, n_seeds, m_seed, d, scale):
    """Random piecewise-constant seed controls, amplitudes over a log range.

    Each seed is one rotating Fourier mode in a random 2-plane of control
    space (random frequency up to SEED_BANDWIDTH, random phase and orientation)
    plus a constant offset and white noise, rescaled to the drawn amplitude.
    The rotation carries coherent circulation, which white noise lacks, so
    the family reaches critical points of every index; the orientation flip
    is explicit because the QR factor's handedness is deterministic.

    All seeds are drawn from one generator before any solving starts, so
    the set is identical regardless of worker count.
    """
    rng = np.random.default_rng(rng_seed)
    mids = (np.arange(m_seed) + 0.5) / m_seed
    seeds = []
    for _ in range(n_seeds):
        amp = 10.0 ** rng.uniform(np.log10(0.5 * scale), np.log10(20.0 * scale))
        f = int(rng.integers(1, SEED_BANDWIDTH + 1))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = np.cos(2.0 * np.pi * f * mids + phase)
        s = np.sin(2.0 * np.pi * f * mids + phase)
        if d >= 2:
            Q, _ = np.linalg.qr(rng.standard_normal((d, 2)))
            if rng.random() < 0.5:
                Q = Q[:, ::-1].copy()
            U = np.outer(c, Q[:, 0]) + np.outer(s, Q[:, 1])
        else:
            U = c[:, None]
        U = U + 0.3 * rng.standard_normal(d)[None, :] * np.ones((m_seed, 1))
        U = U + 0.2 * rng.standard_normal((m_seed, d))
        rms = float(np.sqrt(np.mean(U * U)))
        seeds.append(U * (amp / max(rms, 1e-12)))
    return seeds


def multistart(
    system: ControlSystem,
    x,
    y,
    p: float | None = None,
    n_seeds: int = 32,
    rng_seed: int = 0,
    m_seed: int = 32,
    opts: GeodesicOptions | None = None,
    workers: int = 1,
    seed_scale: float | None = None,
) -> MultistartReport:
    """Run solve_critical from deterministic random seeds and deduplicate.

    Failed seeds (non-convergence, domain escape) are logged, never fatal.
    The reduction is a deterministic sorted merge, so reports are identical
    for any worker count.  seed_scale overrides the amplitude reference
    (default: distance from x to y), useful when the sought controls do not
    shrink with the displacement, as on fibers with an energy floor.  p and
    opts combine as in solve_critical.
    """
    for name, count in (("n_seeds", n_seeds), ("m_seed", m_seed), ("workers", workers)):
        _as_count(count, name, 1)
    x, y = _as_state(system, x, "x"), _as_state(system, y, "y")
    opts = _options(p, opts)
    run_opts = replace(opts, raise_on_failure=False)

    disp = displacement(system, x, y)
    with np.errstate(over="ignore"):  # a far target's norm overflows to inf, refused below
        scale = seed_scale if seed_scale is not None else max(float(np.linalg.norm(disp)), 0.1)
    # generate_seeds draws amplitudes log-uniformly from [0.5, 20] * scale
    if not (0.5 * scale > 0.0 and 20.0 * scale < np.inf):
        raise ConfigError(f"seed scale {scale} puts seed amplitudes outside (0, inf)")
    seeds = generate_seeds(rng_seed, n_seeds, m_seed, system.d, scale)
    bps = np.linspace(0.0, 1.0, m_seed + 1)

    def run(idx):
        sig = ControlSignal(bps, seeds[idx])
        try:
            return solve_critical(system, x, y, u_init=sig, opts=run_opts, seed_index=idx), None
        except HorizonError as exc:
            return None, f"{type(exc).__name__}: {exc}"

    if workers == 1:
        results = list(map(run, range(n_seeds)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(n_seeds)))

    converged = []
    failed = []
    for idx, (rec, err) in enumerate(results):
        if rec is not None and rec.converged:
            converged.append(rec)
        else:
            failed.append({"seed_index": idx, "reason": err or "not converged"})

    records, cluster_ids, energy_clusters = _dedup(converged)
    return MultistartReport(
        system_name=system.name,
        x=x,
        y=y,
        p=opts.p,
        mode=opts.mode,
        n_seeds=n_seeds,
        m_seed=m_seed,
        rng_seed=rng_seed,
        records=records,
        seeds_tried=n_seeds,
        failed_seeds=failed,
        cluster_ids=cluster_ids,
        energy_clusters=energy_clusters,
    )


def _dedup(records):
    """Joint (energy, normalized lambda) dedup plus energy-only clustering."""
    ordered = sorted(records, key=lambda r: (r.energy, r.seed_index))
    kept = []
    for rec in ordered:
        lam_n = rec.lam / max(rec.energy, 1e-12)
        duplicate = False
        for pos, other in enumerate(kept):
            if abs(rec.energy - other.energy) > DEDUP_ENERGY_TOL * max(abs(other.energy), 1e-12):
                continue
            lam_o = other.lam / max(other.energy, 1e-12)
            lam_scale = max(np.linalg.norm(lam_o), 1e-12)
            if np.linalg.norm(lam_n - lam_o) <= DEDUP_LAMBDA_TOL * lam_scale:
                duplicate = True
                if rec.stationarity_residual < other.stationarity_residual:
                    kept[pos] = rec
                break
        if not duplicate:
            kept.append(rec)
    kept.sort(key=lambda r: (r.energy, r.seed_index))

    energy_clusters = []
    cluster_ids = []
    for rec in kept:
        for cid, cl in enumerate(energy_clusters):
            if abs(rec.energy - cl["energy"]) <= max(10 * DEDUP_ENERGY_TOL * cl["energy"], 1e-9):
                cl["count"] += 1
                cluster_ids.append(cid)
                break
        else:
            energy_clusters.append({"cluster_id": len(energy_clusters), "energy": rec.energy, "count": 1})
            cluster_ids.append(len(energy_clusters) - 1)
    return kept, cluster_ids, energy_clusters


# -- coincidence of J_p and J_2 critical points -------------------------------


@dataclass
class CoincidenceReport:
    eta: np.ndarray
    mean_speed: float
    residual_p: float
    residual_2: float
    passed: bool
    indeterminate: bool = False


def coincidence_check(
    record: GeodesicRecord,
    system: ControlSystem,
    x,
    y,
) -> CoincidenceReport:
    """Check that the record's control is also J_2-stationary after rescaling.

    With constant speed c, the rescaled multiplier eta = lambda / (p c^(p-2))
    satisfies eta o d_uF = u, which is the p = 2 condition up to the factor 2.
    The residual is taken on record.substeps and judged at COINCIDENCE_TOL.
    """
    if not record.converged:
        raise ConfigError("coincidence_check needs a converged record")
    x, y = _as_state(system, x, "x"), _as_state(system, y, "y")
    u = record.control
    c = float(np.sum(record.speed_profile * u.durations) / np.sum(u.durations))
    if c == 0.0:
        passed = bool(np.allclose(record.lam, 0.0))
        return CoincidenceReport(
            eta=record.lam.copy(),
            mean_speed=0.0,
            residual_p=record.stationarity_residual,
            residual_2=0.0 if passed else float("inf"),
            passed=passed,
            indeterminate=not passed,
        )
    eta = record.lam / (record.p * c ** (record.p - 2.0))
    lam2 = 2.0 * eta
    res2 = lagrange_residual(system, x, y, u, lam2, 2.0, "vector", record.substeps)
    g2 = 2.0 * np.linalg.norm(u.values, axis=1)
    scale2 = max(1.0, _lp_norm_of_values(g2, u.durations, 2.0))
    return CoincidenceReport(
        eta=eta,
        mean_speed=c,
        residual_p=record.stationarity_residual,
        residual_2=res2,
        passed=bool(res2 <= COINCIDENCE_TOL * scale2),
    )
