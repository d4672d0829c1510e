"""Piecewise-constant control signals and the L^p energy algebra.

Signals are stored with explicit breakpoints so that norms, energies,
concatenations and time rescalings are evaluated in closed form; nothing
here resamples onto a uniform grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError

__all__ = [
    "ControlSignal",
    "EnergyParams",
    "zero_signal",
    "constant_signal",
    "energy",
    "energy_gradient",
    "energy_of_values",
    "gradient_density",
    "hessian_density",
    "dual_map",
    "flow_segment",
    "concatenate_rescaled",
]


@dataclass(frozen=True)
class ControlSignal:
    """A piecewise-constant map [0, T] -> R^d.

    breakpoints : (m+1,) strictly increasing, starting at 0.0
    values      : (m, d) constant value of the signal on each interval
                  [breakpoints[k], breakpoints[k+1]).

    m = 0 (breakpoints == [0.0], empty values) is the zero-length signal
    produced e.g. by steering a point to itself.  Instances are treated as
    immutable; do not write into the arrays.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ConfigError("values must be a 2-d array of shape (m, d)")
        if bp.ndim != 1 or bp.shape[0] != vals.shape[0] + 1:
            raise ConfigError("breakpoints must have one more entry than value rows")
        if bp[0] != 0.0:
            raise ConfigError("signal must start at t = 0")
        if vals.shape[0] > 0 and not np.all(np.diff(bp) > 0.0):
            raise ConfigError("breakpoints must be strictly increasing (no zero-length segments)")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ConfigError("signal contains non-finite entries")
        bp.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    # -- basic geometry -------------------------------------------------

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def segments(self) -> int:
        return self.values.shape[0]

    @property
    def total_time(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def with_values(self, values) -> "ControlSignal":
        """The signal on these breakpoints with other values of the same shape.

        The breakpoints were validated with this signal and are shared, so only
        the values' shape and finiteness are checked (ConfigError as in the
        constructor); like the constructor, it makes the values read-only.
        """
        vals = np.asarray(values, dtype=float)
        if vals.shape != self.values.shape:
            raise ConfigError(f"values must have shape {self.values.shape}, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ConfigError("signal contains non-finite entries")
        vals.setflags(write=False)
        sig = object.__new__(ControlSignal)
        object.__setattr__(sig, "breakpoints", self.breakpoints)
        object.__setattr__(sig, "values", vals)
        return sig

    def value_at(self, t: float) -> np.ndarray:
        """Right-continuous evaluation; t == total_time returns the last value."""
        if self.segments == 0:
            raise ConfigError("zero-length signal has no values")
        if not (isinstance(t, Real) and 0.0 <= t <= self.total_time):
            raise ConfigError(f"t must be a number in [0, {self.total_time}], got {t!r}")
        k = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        k = min(k, self.segments - 1)
        return self.values[k]

    # -- norms -----------------------------------------------------------

    def lp_norm(self, p: float) -> float:
        """Exact L^p norm, componentwise over all entries: (sum_k h_k sum_i |v_ki|^p)^(1/p)."""
        if self.segments == 0:
            return 0.0
        return _lp_norm_of_values(self.values, self.durations, p)

    # -- algebra ----------------------------------------------------------

    def subtract(self, other: "ControlSignal") -> "ControlSignal":
        """Pointwise difference on the union of breakpoint grids.

        Both signals must share d; the result lives on [0, max(T1, T2)] with
        the shorter signal extended by zero.
        """
        if self.d != other.d:
            raise ConfigError("signal dimensions differ")
        grid = np.union1d(self.breakpoints, other.breakpoints)
        if grid[0] != 0.0:
            grid = np.concatenate([[0.0], grid])
        if len(grid) < 2:
            return zero_signal(self.d)
        mids = 0.5 * (grid[:-1] + grid[1:])
        vals = np.zeros((len(mids), self.d))
        for sig, sign in ((self, 1.0), (other, -1.0)):
            if sig.segments == 0:
                continue
            inside = mids < sig.total_time
            idx = np.searchsorted(sig.breakpoints, mids[inside], side="right") - 1
            vals[inside] += sign * sig.values[idx]
        return ControlSignal(grid, vals)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"breakpoints": self.breakpoints.tolist(), "values": self.values.tolist()},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "ControlSignal":
        try:
            obj = json.loads(text)
            bp = np.asarray(obj["breakpoints"], dtype=float)
            vals = np.asarray(obj["values"], dtype=float)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad signal JSON: {exc}") from exc
        if vals.ndim == 1:
            vals = vals.reshape(0, 1) if vals.size == 0 else vals.reshape(len(vals), 1)
        return ControlSignal(bp, vals)

    def to_csv(self) -> str:
        """Rows t_start,t_end,u_1..u_d, one per segment."""
        header = "t_start,t_end," + ",".join(f"u_{i+1}" for i in range(self.d))
        lines = [header]
        for k in range(self.segments):
            cells = [repr(float(self.breakpoints[k])), repr(float(self.breakpoints[k + 1]))]
            cells += [repr(float(v)) for v in self.values[k]]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def zero_signal(d: int) -> ControlSignal:
    return ControlSignal(np.array([0.0]), np.zeros((0, d)))


def constant_signal(value, duration: float) -> ControlSignal:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    if duration == 0.0:
        return zero_signal(len(value))
    return ControlSignal(np.array([0.0, float(duration)]), value[None, :])


def conjugate_exponent(p: float) -> float:
    """q = p/(p-1).  Raises ConfigError unless p is a finite number, exceeds 1 and
    leaves q above 1 in floating point; at q == 1 the L^q norms that
    measure stationarity degenerate."""
    q = p / (p - 1.0) if isinstance(p, Real) and 1.0 < p < np.inf else 1.0
    if not q > 1.0:
        raise ConfigError(
            f"p must be finite and exceed 1 so that p/(p-1) > 1 in floating point, got {p}"
        )
    return q


def _as_count(value, name: str, least: int):
    """value, an integer (not a bool) of at least least, or a ConfigError that names it."""
    if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= least):
        raise ConfigError(f"{name} must be at least {least} and an integer, got {value!r}")
    return value


def _as_tolerance(value, name: str):
    """value, a positive finite number, or a ConfigError that names it."""
    if not (isinstance(value, Real) and 0.0 < value < np.inf):
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


def _as_real(value, name: str, nonnegative: bool = False):
    """value, a finite number (and nonnegative if asked), or a ConfigError that names it."""
    if not (isinstance(value, Real) and abs(value) < np.inf and (value >= 0.0 or not nonnegative)):
        raise ConfigError(f"{name} must be {'nonnegative and ' * nonnegative}finite, got {value!r}")
    return value


@dataclass(frozen=True)
class EnergyParams:
    """Integrability exponent p and reparametrization exponent beta.

    Requires p as in conjugate_exponent and 0 < beta < q = p/(p-1).
    """

    p: float = 2.0
    beta: float = 1.0

    def __post_init__(self):
        q = conjugate_exponent(self.p)
        if not 0.0 < _as_real(self.beta, "beta") < q:
            raise ConfigError(f"beta must lie in (0, p/(p-1)) = (0, {q}), got {self.beta}")

    @property
    def q(self) -> float:
        return conjugate_exponent(self.p)


def energy(u: ControlSignal, p: float, mode: str = "component") -> float:
    """p-energy of a signal.

    mode="component" (canonical): sum_i ||u_i||_p^p, exact per segment.
    mode="vector": integral of |u(t)|_2^p, the vector-norm variant used by
    the constant-speed diagnostics and GeodesicOptions' default: for d >= 2
    and p != 2, rec.energy is energy(rec.control, rec.p, rec.mode), not the
    default-mode energy(rec.control, rec.p).
    """
    conjugate_exponent(p)
    return energy_of_values(u.values, u.durations, p, mode)


def energy_gradient(u: ControlSignal, p: float, mode: str = "component") -> ControlSignal:
    """Derivative of the p-energy, as a dual (L^q) signal on the same grid:
    gradient_density, p s^(p-2) u for the mode's speeds s (0 where u = 0).
    Pass rec.mode to match a geodesic record ("vector" by default, as in energy).
    """
    conjugate_exponent(p)
    return u.with_values(gradient_density(u.values, p, mode))


def _speeds(values: np.ndarray, mode: str) -> np.ndarray:
    """The speeds s of the segment values (m, d), whose energy is sum_k h_k sum s^p:
    the entry magnitudes |u_ki| (mode "component", (m, d)) or each row's
    2-norm (mode "vector", (m, 1)).  The mode decides nothing else."""
    if mode == "component":
        return np.abs(values)
    if mode == "vector":
        return np.linalg.norm(values, axis=1, keepdims=True)
    raise ConfigError(f"mode must be 'vector' or 'component', got {mode!r}")


def energy_of_values(values: np.ndarray, h: np.ndarray, p: float, mode: str) -> float:
    """p-energy of the segment values (m, d) held for the durations h (m,)."""
    return float(np.sum(h[:, None] * _speeds(values, mode) ** p))


def gradient_density(values: np.ndarray, p: float, mode: str) -> np.ndarray:
    """Energy gradient density of the segment values (m, d): p s^(p-2) u."""
    return p * _abs_power(_speeds(values, mode), p - 2.0) * values


def hessian_density(values: np.ndarray, p: float, mode: str) -> np.ndarray:
    """Second derivative of the energy density at each row of values, (m, d, d):
    diagonal p (p-1) s^(p-2) with a speed per entry (component mode, or d = 1),
    else p s^(p-2) I + p (p-2) s^(p-4) u u^T."""
    s = _speeds(values, mode)
    m, d = values.shape
    if s.shape[1] == d:
        blocks = np.zeros((m, d, d))
        blocks[:, range(d), range(d)] = p * (p - 1.0) * _abs_power(s, p - 2.0)
        return blocks
    s = s[:, :, None]
    return (p * _abs_power(s, p - 2.0) * np.eye(d)
            + p * (p - 2.0) * _abs_power(s, p - 4.0) * values[:, :, None] * values[:, None, :])


def _abs_power(a: np.ndarray, e: float) -> np.ndarray:
    """|a|^e with 0^0 := 1 and 0^e := 0 for every other exponent, negative ones too."""
    out = np.full(np.shape(a), 1.0 if e == 0.0 else 0.0)
    nz = a != 0.0
    out[nz] = np.abs(a[nz]) ** e
    return out


def _lp_norm_of_values(values: np.ndarray, h: np.ndarray, p: float) -> float:
    """(sum_k h_k sum_i |v_ki|^p)^(1/p) of the segment values (m, d) or (m,).

    When the sum leaves the normal floating-point range, as it does for large
    p, the values are first divided by their largest magnitude, so the norm
    neither underflows to 0 nor overflows to inf.
    """
    a = np.abs(values).reshape(len(h), -1)
    with np.errstate(over="ignore"):
        total = float(np.sum(h[:, None] * a**p))
    peak = float(a.max()) if a.size else 0.0
    if np.finfo(float).tiny <= total < np.inf or not 0.0 < peak < np.inf:
        return total ** (1.0 / p)
    return peak * float(np.sum(h[:, None] * (a / peak) ** p)) ** (1.0 / p)


def dual_map(z: ControlSignal, p: float) -> ControlSignal:
    """Inverse of u -> u|u|^(p-2): maps an L^q dual signal back to L^p.

    Entrywise z -> z|z|^((2-p)/(p-1)); satisfies
    dual_map(energy_gradient(u, p)/p, p) == u exactly for p > 1.
    """
    conjugate_exponent(p)
    return z.with_values(z.values * _abs_power(z.values, (2.0 - p) / (p - 1.0)))


def flow_segment(r, j: int, params: EnergyParams) -> ControlSignal:
    """Scalar control realizing the j-th coordinate flow of a tuple r.

    With beta = params.beta, the segment has height r_j |r_j|^(-beta) and
    support [|r_(j-1)|^beta, |r_(j-1)|^beta + |r_j|^beta] (r_0 := 0); it is
    the zero-length signal when r_j == 0.  Its exact L^p norm is
    |r_j|^((beta + p - beta p)/p), which tends to 0 with r_j as long as
    beta < p/(p-1).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not 1 <= _as_count(j, "j", 1) <= len(r):
        raise ConfigError(f"index j={j} outside 1..{len(r)}")
    beta = params.beta
    rj = float(r[j - 1])
    if rj == 0.0:
        return zero_signal(1)
    start = abs(float(r[j - 2])) ** beta if j >= 2 else 0.0
    width = abs(rj) ** beta
    height = rj * abs(rj) ** (-beta)
    if start == 0.0:
        return ControlSignal(np.array([0.0, width]), np.array([[height]]))
    return ControlSignal(
        np.array([0.0, start, start + width]), np.array([[0.0], [height]])
    )


def concatenate_rescaled(u: ControlSignal, v: ControlSignal, T: float) -> ControlSignal:
    """Compress `u` (on [0,1]) and `v` (on [0,T]) into a single signal on [0,1].

    The result runs (T+1) u(t(T+1)) on [0, 1/(T+1)) followed by
    (T+1) v((T+1)t - 1); integrating it for unit time from x reproduces the
    time-(1+T) evolution of u followed by v.  Closed-form norm identity:
    ||result||_p^p = (T+1)^(p-1) (||u||_p^p + ||v||_p^p).

    T == 0 returns `u` itself (same object), so anchors are preserved
    bit-exactly.  `v` must be defined at least on [0, T]; any tail past T is
    dropped.
    """
    if u.d != v.d:
        raise ConfigError("signal dimensions differ")
    _as_real(T, "T", nonnegative=True)
    if abs(u.total_time - 1.0) > 1e-12:
        raise ConfigError("first signal must live on [0, 1]")
    if T == 0.0:
        return u
    if v.total_time < T - 1e-12:
        raise ConfigError(f"second signal defined on [0, {v.total_time}], needs [0, {T}]")
    scale = T + 1.0

    new_bp = [u.breakpoints / scale]
    new_vals = [scale * u.values]
    # keep v's breakpoints strictly below T, then close at T exactly
    keep = v.breakpoints < T - 1e-15 * max(1.0, T)
    vb = np.concatenate([v.breakpoints[keep], [T]])
    kmax = int(np.sum(keep)) - 1  # number of v segments kept
    vvals = v.values[: kmax + 1]
    new_bp.append((1.0 + vb[1:]) / scale)
    new_vals.append(scale * vvals)

    bp = np.concatenate([new_bp[0], new_bp[1]])
    bp[-1] = 1.0  # exact endpoint
    vals = np.vstack(new_vals)
    # rescaling can collapse ULP-separated breakpoints; zero-width segments
    # carry no mass, so dropping them keeps the norm identity exact
    widths = np.diff(bp)
    if np.any(widths <= 0.0):
        mask = widths > 0.0
        bp = np.concatenate([bp[:1], bp[1:][mask]])
        vals = vals[mask]
    return ControlSignal(bp, vals)
