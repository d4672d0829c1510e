"""Affine control systems: vector fields, catalogs, brackets, frames.

Fields are held as sympy expressions so that Jacobians, Hessians and Lie
brackets are exact.  Each compiled quantity (a field's values or Jacobian;
a system's value, Jacobian or second-derivative stack) is one lambdified
evaluator, built once on first use and called directly; a second-derivative
stack whose entries are all 0 (affine fields) is not built.  The state run
ControlSystem.state_run is generated code, segment and step loops included,
that prints the value stack's expressions, with the control sum, into each
stage, and evaluates by the stack's rule.  Fields are symbolic only, and the
generated code prints a positive integer power as a product (its base
evaluated once), so Python floats and numpy arrays evaluate it with the same
IEEE multiplications.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np
import sympy as sp
from sympy.printing.numpy import NumPyPrinter
from sympy.printing.precedence import precedence

from .errors import (
    ConfigError,
    NotBracketGeneratingError,
    UnsupportedRepresentationError,
)
from .signals import _as_count

__all__ = [
    "SymbolicField",
    "ControlSystem",
    "SlopeSplit",
    "BracketWord",
    "polynomial_field",
    "lie_bracket",
    "bracket_frame",
    "catalog_names",
    "catalog_load",
    "system_from_json",
    "system_to_json",
    "displacement",
    "RANK_TOL",
]

# the one numerical-rank rule (bracket frames, the L^2 endpoint differential):
# full rank when the smallest singular value exceeds RANK_TOL times the largest
RANK_TOL = 1e-8


def state_symbols(n: int):
    return sp.symbols(f"x0:{n}", real=True)


class _ProductPrinter(NumPyPrinter):
    """lambdify's numpy printer, except that x**k for a positive integer k is
    the parenthesized product (x*x*...*x), multiplied left to right; a base
    that is not a symbol or a number is evaluated once: ((_b := cos(x1))*_b)."""

    def _print_Pow(self, expr, rational=False):
        if expr.exp.is_integer and expr.exp.is_positive:
            factors = [self.parenthesize(expr.base, precedence(expr))] * int(expr.exp)
            if not expr.base.is_Atom:  # evaluated once
                factors = [f"(_b := {factors[0]})"] + ["_b"] * (len(factors) - 1)
            return "(" + "*".join(factors) + ")"
        return super()._print_Pow(expr, rational=rational)


class _LambdifiedStack:
    """Flat list of sympy expressions compiled once, reshaped on call.

    lambdify returns scalars for constant entries, which a batch broadcasts
    against its length.  A point is evaluated by the one rule that the
    generated state run (ControlSystem.state_run) follows too: on Python
    floats, several times faster than numpy scalars and rounded alike
    (positive integer powers print as products); if that raises
    ArithmeticError (a division by zero, `**` overflowing or at a zero base),
    once more on numpy float64 scalars, whose inf/nan the blow-up check
    relies on; and on numpy scalars from the start for a stack with a
    fractional power, which gives a Python float a complex value at a
    negative base.  The namespace holds only the numpy names the printer
    prints (sin, pi, ...): lambdify's "numpy" would star-import numpy and
    load its lazy submodules (f2py, testing, ~200 modules in all) unused.
    """

    def __init__(self, coords, exprs, shape):
        self.exprs = list(exprs)
        self._shape = shape
        # the settings lambdify gives its own numpy printer
        self.printer = _ProductPrinter({"fully_qualified_modules": False, "inline": True,
                                        "allow_unknown_functions": True})
        self._fn = sp.lambdify(coords, self.exprs, [{}], printer=self.printer)
        self._floats = all(p.exp.is_integer for e in self.exprs for p in e.atoms(sp.Pow))

    def __call__(self, x):
        try:
            out = self._fn(*(x.tolist() if self._floats else x))
        except ArithmeticError:
            out = self._fn(*x)
        return np.asarray(out, dtype=float).reshape(self._shape)

    def batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        flat = np.empty((len(pts), len(self.exprs)))
        for j, col in enumerate(self._fn(*pts.T)):
            flat[:, j] = col
        return flat.reshape((len(pts),) + self._shape)


class SymbolicField:
    def __init__(self, exprs, coords=None, n=None):
        if coords is None:
            if n is None:
                raise ConfigError("SymbolicField needs coords or n")
            coords = state_symbols(n)
        exprs = [sp.sympify(e) for e in exprs]
        self.coords = tuple(coords)
        self.n = len(self.coords)
        if len(exprs) != self.n:
            raise ConfigError(f"field has {len(exprs)} components, state dim is {self.n}")
        self.exprs = tuple(sp.expand(e) for e in exprs)

    @cached_property
    def _values(self):
        return _LambdifiedStack(self.coords, self.exprs, (self.n,))

    def value(self, x):
        return self._values(np.asarray(x, dtype=float))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.exprs)

    def __repr__(self):
        return f"SymbolicField({list(self.exprs)})"


def polynomial_field(component_terms, n: int) -> SymbolicField:
    """Build a field from per-component term lists.

    component_terms: n lists, each of {"coef": float, "exponents": [int]*n}.
    """
    if not isinstance(component_terms, list) or len(component_terms) != n:
        raise ConfigError(f"expected a list of {n} component term lists, got {component_terms!r}")
    coords = state_symbols(n)
    exprs = []
    for comp in component_terms:
        if not isinstance(comp, list):
            raise ConfigError(f"component terms must be a list, got {comp!r}")
        e = sp.Integer(0)
        for term in comp:
            try:
                coef = float(term["coef"])
                exps = list(term["exponents"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad polynomial term {term!r}") from exc
            if not np.isfinite(coef):
                raise ConfigError(f"polynomial coefficient must be finite, got {coef}")
            if len(exps) != n:
                raise ConfigError(f"term exponents {exps} need length {n}")
            if any((not isinstance(k, int)) or k < 0 for k in exps):
                raise ConfigError(f"exponents must be nonnegative ints, got {exps}")
            mono = sp.Float(coef)
            for c, k in zip(coords, exps):
                mono *= c**k
            e += mono
        exprs.append(e)
    return SymbolicField(exprs, coords=coords)


def lie_bracket(f: SymbolicField, g: SymbolicField) -> SymbolicField:
    """Commutator [f, g] = (dg) f - (df) g, computed symbolically."""
    if f.coords != g.coords:
        raise ConfigError("fields live on different coordinate tuples")
    coords = f.coords
    exprs = []
    for i in range(f.n):
        e = sp.Integer(0)
        for j in range(f.n):
            e += sp.diff(g.exprs[i], coords[j]) * f.exprs[j]
            e -= sp.diff(f.exprs[i], coords[j]) * g.exprs[j]
        exprs.append(sp.expand(e))
    return SymbolicField(exprs, coords=coords)


@dataclass(frozen=True)
class BracketWord:
    """Right-normed bracket word over field indices.

    leaves (l1, ..., lk) denotes [X_l1, [X_l2, [... [X_l(k-1), X_lk] ...]]];
    index 0 is the drift field, 1..d the controlled fields.  Length-1 words
    are the fields themselves.
    """

    leaves: tuple

    @property
    def length(self) -> int:
        return len(self.leaves)

    def __str__(self):
        def nest(ls):
            if len(ls) == 1:
                return str(ls[0])
            return f"[{ls[0]},{nest(ls[1:])}]"

        return f"[{nest(self.leaves)}]" if self.length > 1 else f"[{self.leaves[0]}]"


class SlopeSplit(NamedTuple):
    """ControlSystem.slope_split: component indices and one verdict."""

    fixed: tuple  # slope free of the coordinates
    moving: tuple  # the rest
    on_fixed: tuple  # moving, with a slope that reads fixed-slope coordinates alone
    exact: bool  # one RK4 step is the exact flow for every constant control


class ControlSystem:
    """State dim n, d controlled fields, optional drift, periodic flags."""

    def __init__(self, name, fields, drift=None, periodic=None):
        if not fields:
            raise ConfigError("need at least one controlled field")
        self.name = str(name)
        self.fields = list(fields)
        given = self.fields if drift is None else self.fields + [drift]
        if not all(isinstance(f, SymbolicField) for f in given):
            raise ConfigError(f"{self.name}: the fields and the drift must be SymbolicField instances")
        self.n = self.fields[0].n
        self.d = len(self.fields)
        for f in self.fields:
            if f.n != self.n:
                raise ConfigError("controlled fields disagree on state dimension")
        if drift is None:
            drift = SymbolicField([0] * self.n, n=self.n)
        if drift.n != self.n:
            raise ConfigError("drift disagrees on state dimension")
        self.drift = drift
        if periodic is None:
            periodic = (False,) * self.n
        if not isinstance(periodic, (list, tuple)) or len(periodic) != self.n:
            raise ConfigError(f"periodic flags must be a list of length n, got {periodic!r}")
        self.periodic = tuple(bool(b) for b in periodic)
        self._words = {}  # bracket word leaves -> SymbolicField

    # -- structure -------------------------------------------------------

    @property
    def is_driftless(self) -> bool:
        return self.drift.is_zero()

    def field_by_index(self, i: int) -> SymbolicField:
        """0 is the drift, 1..d the controlled fields."""
        if i == 0:
            return self.drift
        if 1 <= i <= self.d:
            return self.fields[i - 1]
        raise ConfigError(f"field index {i} outside 0..{self.d}")

    # -- compiled evaluation -----------------------------------------------

    @cached_property
    def _values(self):
        # (d+1, n) stack of the drift and the fields
        exprs = [e for f in [self.drift] + self.fields for e in f.exprs]
        return _LambdifiedStack(self.drift.coords, exprs, (self.d + 1, self.n))

    @cached_property
    def _jacobians(self):
        # (d+1, n, n) stack of their Jacobians
        coords = self.drift.coords
        exprs = [sp.diff(e, c) for f in [self.drift] + self.fields for e in f.exprs for c in coords]
        return _LambdifiedStack(coords, exprs, (self.d + 1, self.n, self.n))

    @cached_property
    def _second_derivatives(self):
        # (d+1, n, n, n) stack of their second derivatives; None, and nothing
        # compiled, when every entry is 0 (affine fields)
        coords = self.drift.coords
        exprs = [sp.diff(e, a, b) for f in [self.drift] + self.fields for e in f.exprs
                 for a in coords for b in coords]
        if not any(e != 0 for e in exprs):
            return None
        return _LambdifiedStack(coords, exprs, (self.d + 1, self.n, self.n, self.n))

    @cached_property
    def _drift_controlled(self) -> "ControlSystem":
        # the same fields with the drift moved in as controlled field 1, and no
        # drift: a segment of duration 1 and values (h, h u) takes the RK4 steps
        # of duration h and values u here, so its differential is dF/d(h, h u)
        return ControlSystem(self.name, [self.drift] + self.fields, periodic=self.periodic)

    def field_values(self, x) -> np.ndarray:
        """(d+1, n) stack: row 0 drift, rows 1..d controlled fields at x."""
        return self._values(np.asarray(x, dtype=float))

    def field_values_batch(self, pts) -> np.ndarray:
        return self._values.batch(pts)

    def field_jacobians(self, x) -> np.ndarray:
        """(d+1, n, n) Jacobians at x; (N, d+1, n, n) at an (N, n) point stack."""
        x = np.asarray(x, dtype=float)
        return self._jacobians(x) if x.ndim == 1 else self._jacobians.batch(x)

    @cached_property
    def slope_split(self) -> SlopeSplit:
        """The coordinates as RK4 sees them, read from the expressions alone.

        A fixed-slope coordinate's drift and field entries are all free of the
        coordinates; every other coordinate is moving.  One RK4 step is the
        exact flow for every constant control when each moving coordinate's
        entries are polynomials of degree <= 3 in the fixed-slope coordinates
        alone: those are linear in t, and RK4's update of the moving ones is
        Simpson's rule on a cubic (their second and third stage slopes
        coincide).
        """
        entries = [[f.exprs[i] for f in [self.drift] + self.fields] for i in range(self.n)]
        return _coordinate_split(self.drift.coords, entries)

    @cached_property
    def field_flow_exact(self) -> tuple:
        """Per controlled field X_b: whether one RK4 step is the exact flow of
        drift + c X_b for every constant c, read from the expressions alone.

        slope_split's test on the drift's and X_b's entries, with one more
        rule: a coordinate whose two entries are both 0 is still (it never
        moves), so an entry that reads still coordinates alone is a constant
        slope, and a moving coordinate's entries may be any expression in the
        still ones times a polynomial of degree <= 3 in the other fixed-slope
        coordinates.  The unicycle's X_1 = (cos x2, sin x2, 0) passes: x2 is
        still under it.
        """
        out = []
        for f in self.fields:
            entries = [[self.drift.exprs[i], f.exprs[i]] for i in range(self.n)]
            still = tuple(i for i, es in enumerate(entries) if all(e == 0 for e in es))
            out.append(_coordinate_split(self.drift.coords, entries, still).exact)
        return tuple(out)

    @cached_property
    def state_run(self):
        """The RK4 state run of x' = drift(x) + sum_i u_i X_i(x) through a
        signal, s steps per segment, as generated straight-line code:
        run(z, bps, U, s, bound, rec) -> (coordinates, escaped).

        The arithmetic is endpoint.rk4_step's, operation for operation.  A
        stage forms V[i] + (u0*V[n+i] + u1*V[2n+i] + ...) left to right, with
        no call, BLAS or list: each V[j] is the value stack's expression as
        the stack prints it, parenthesized, on the stage point's names.  h,
        h/2 and h/6 are formed once per segment, and so are the slope and
        increment of a fixed-slope component (slope_split; its third stage
        point is its second); a moving component that reads fixed-slope
        coordinates alone takes its second stage slope as its third, and a
        third stage point that no slope reads is formed for the stage record
        alone.  The run evaluates by the stack's rule: a run on Python floats
        that raises ArithmeticError runs once more from z on numpy scalars.
        It returns the coordinates of z and of every step's state, flat, and
        stops at the first of these outside |x_i| <= bound (NaN included) with
        escaped True.  When rec is a list, each step appends its four stage
        points' coordinates to it.
        """
        stack, n, d, coords = self._values, self.n, self.d, self.drift.coords
        names = {str(c): i for i, c in enumerate(coords)}
        coord = re.compile(r"(?<![\w.])(" + "|".join(map(re.escape, names)) + r")(?!\w)")
        texts = [stack.printer.doprint(e) for e in stack.exprs]
        scope = dict(stack._fn.__globals__, float64=np.float64)  # the stack's functions
        fixed, moving, on_fixed, _ = self.slope_split  # fixed slopes are formed once per segment
        # the four stage points; a fixed component's third, a + (h/2) k, is its second
        pts = [[f"{'b' if c == 'c' and i in fixed else c}{i}" for i in range(n)] for c in "abce"]

        def k(s, i):  # component i's slope at stage s (on_fixed: the third is the second)
            return f"k_{i}" if i in fixed else f"k{1 if s == 2 and i in on_fixed else s}_{i}"

        def slopes(s, pt, comps):  # the slope lines of comps from the stack's entries at pt
            V = [f"({coord.sub(lambda c: pt[names[c[0]]], t)})" for t in texts]
            return [f"{k(s, i)} = {V[i]} + ("
                    + " + ".join(f"u{j} * {V[(j + 1) * n + i]}" for j in range(d)) + ")"
                    for i in comps]

        def increment(i):  # h/6 (k0 + 2 k1 + 2 k2 + k3)
            return f"h6 * ({k(0, i)} + 2.0 * {k(1, i)} + 2.0 * {k(2, i)} + {k(3, i)})"

        def tab(block):
            return ["    " + line for line in block]

        a, inside = ", ".join(pts[0]), " and ".join(f"lo <= a{i} <= bound" for i in range(n))
        third = [i for i in moving if i not in on_fixed]  # the components with a third stage slope
        read = {names[c] for i in third for t in texts[i::n] for c in coord.findall(t)}
        step, late = [], []  # late: third stage points that only the stage record reads
        for s, pt in enumerate(pts):
            if s:  # the stage point a + (h/2 or h) * the previous stage's slope
                for i in range(n):
                    if pt[i] != pts[s - 1][i]:
                        line = f"{pt[i]} = a{i} + {'h' if s == 3 else 'hh'} * {k(s - 1, i)}"
                        (late if s == 2 and i not in read else step).append(line)
            step += slopes(s, pt, third if s == 2 else moving)
        step += ["if rec is not None:", *tab(late), f"    rec += ({', '.join(sum(pts, []))})",
                 *(f"a{i} = a{i} + {f'd_{i}' if i in fixed else increment(i)}" for i in range(n)),
                 f"out += ({a},)", f"if not ({inside}):", "    return out, True"]
        segment = ["h = (t1 - t0) / s", "hh = 0.5 * h", "h6 = h / 6.0",
                   *slopes(0, pts[0], fixed), *(f"d_{i} = {increment(i)}" for i in fixed),
                   "for _ in range(s):", *tab(step)]
        us = ", ".join(f"u{j}" for j in range(d))
        run = ["lo = -bound", f"{a}, = z" if stack._floats else f"{a}, = map(float64, z)",
               f"out = [{a}]", f"if not ({inside}):", "    return out, True",
               "r = len(rec or ())", "try:",
               *tab([f"for t0, t1, ({us},) in zip(bps, bps[1:], U):", *tab(segment)]),
               "except ArithmeticError:",  # once more from z, on numpy scalars
               "    if isinstance(out[0], float64):", "        raise",
               "    if rec is not None:", "        del rec[r:]",
               "    return run(list(map(float64, z)), bps, U, s, bound, rec)",
               "return out, False"]
        exec("\n".join(["def run(z, bps, U, s, bound, rec):", *tab(run)]) + "\n", scope)
        return scope["run"]

    def dynamics_jacobian(self, x, u) -> np.ndarray:
        """State Jacobians of the right-hand side: (N, n, n) at (N, n) points, (N, d) controls."""
        return _with_controls(self.field_jacobians(x), u)

    def field_second_derivatives(self, pts) -> np.ndarray:
        """(N, d+1, n, n, n) second derivatives at (N, n) points, [.., i, j, k] =
        d^2 X_i / dx_j dx_k; the stack is compiled on first use."""
        if self._second_derivatives is None:
            return np.zeros((len(pts), self.d + 1, self.n, self.n, self.n))
        return self._second_derivatives.batch(pts)

    # -- bracket evaluation ------------------------------------------------

    def word_field(self, word: BracketWord) -> SymbolicField:
        leaves = word.leaves
        got = self._words.get(leaves)
        if got is None:
            if len(leaves) == 1:
                got = self.field_by_index(leaves[0])
            else:
                inner = self.word_field(BracketWord(leaves[1:]))
                got = lie_bracket(self.field_by_index(leaves[0]), inner)
            self._words[leaves] = got
        return got

    def __repr__(self):
        kind = "driftless" if self.is_driftless else "drift"
        return f"ControlSystem({self.name!r}, n={self.n}, d={self.d}, {kind})"


def _with_controls(S, u):
    # S[:, 0] + sum_i u_i S[:, i]: an (N, d+1, ...) stack of the drift's and
    # the fields' quantities at N points, weighted by the (N, d) controls
    N, d = len(S), S.shape[1] - 1
    uS = np.matmul(np.reshape(u, (N, 1, d)), S[:, 1:].reshape(N, d, int(np.prod(S.shape[2:]))))
    return S[:, 0] + uS.reshape(S[:, 0].shape)


def _coordinate_split(coords, entries, still=()) -> SlopeSplit:
    """The SlopeSplit of a constant-control flow whose i-th coordinate has the
    slope entries entries[i], with the coordinates in still held constant.

    A coordinate is fixed when its entries read still coordinates alone, and
    moving otherwise; the flow's one RK4 step is exact when every moving
    coordinate's entries read fixed coordinates alone and are polynomials of
    degree <= 3 in the fixed ones that are not still, their coefficients any
    expression in the still ones.
    """
    held = {coords[i] for i in still}
    reads = [set().union(*(e.free_symbols for e in es)) & set(coords) for es in entries]
    fixed = tuple(i for i, r in enumerate(reads) if r <= held)
    moving = tuple(i for i in range(len(coords)) if i not in fixed)
    on_fixed = tuple(i for i in moving if reads[i] <= {coords[j] for j in fixed})
    free = [coords[j] for j in fixed if j not in still]
    exact = on_fixed == moving and all(
        e.is_polynomial(*free) and sp.Poly(e, *free).total_degree() <= 3
        for i in moving for e in entries[i])
    return SlopeSplit(fixed, moving, on_fixed, exact)


def _word_candidates(d: int, with_drift: bool, length: int):
    """Right-normed candidate words of a given length, lexicographic order.

    Drift systems enumerate over {0..d} but never the bare drift word (0,):
    forward drift time is not a signed chart direction.  Words whose innermost
    pair repeats a field are identically zero and skipped.
    """
    alphabet = range(0, d + 1) if with_drift else range(1, d + 1)
    for leaves in product(alphabet, repeat=length):
        if length == 1:
            if leaves[0] == 0:
                continue
        elif leaves[-1] == leaves[-2]:
            continue
        yield BracketWord(leaves)


def bracket_frame(
    system: ControlSystem,
    point,
    max_depth: int = 4,
    controlled_only: bool = False,
):
    """Greedy frame of bracket words spanning the tangent space at a point.

    Words are taken in (length, lexicographic) order; a candidate is kept when
    adding its evaluated field keeps the smallest singular value of the
    selected stack above RANK_TOL times the largest.  Words of drift systems
    may contain the drift unless controlled_only.  Returns (words, step)
    with step the maximal selected word length.
    """
    point = _as_state(system, point, "point")
    _as_count(max_depth, "max_depth", 1)
    with_drift = not (system.is_driftless or controlled_only)
    selected_words = []
    selected_vecs = []
    step = 0
    for length in range(1, max_depth + 1):
        for word in _word_candidates(system.d, with_drift, length):
            vec = system.word_field(word).value(point)
            trial = np.vstack(selected_vecs + [vec]) if selected_vecs else vec[None, :]
            svals = np.linalg.svd(trial, compute_uv=False)
            if svals[-1] > RANK_TOL * svals[0]:
                selected_words.append(word)
                selected_vecs.append(vec)
                step = length
                if len(selected_words) == system.n:
                    return selected_words, step
    raise NotBracketGeneratingError(
        f"{system.name}: brackets up to depth {max_depth} span only "
        f"{len(selected_words)} of {system.n} directions at {point.tolist()}"
    )


# -- catalog ---------------------------------------------------------------

_AGRACHEV_RE = re.compile(r"^agrachev_lee\((\d+)\)$")


def catalog_names():
    return [
        "heisenberg",
        "martinet",
        "unicycle",
        "grushin",
        "free_step2_rank2",
        "agrachev_lee(k)",
    ]


@lru_cache(maxsize=None)
def catalog_load(name: str) -> ControlSystem:
    """Built-in systems by name; agrachev_lee takes its exponent inline."""
    key = name.strip()
    if key == "heisenberg":
        x = state_symbols(3)
        return ControlSystem(
            "heisenberg",
            fields=[
                SymbolicField([1, 0, -x[1] / 2], coords=x),
                SymbolicField([0, 1, x[0] / 2], coords=x),
            ],
        )
    if key == "martinet":
        x = state_symbols(3)
        return ControlSystem(
            "martinet",
            fields=[
                SymbolicField([1, 0, 0], coords=x),
                SymbolicField([0, 1, x[0] ** 2], coords=x),
            ],
        )
    if key == "unicycle":
        x = state_symbols(3)
        return ControlSystem(
            "unicycle",
            fields=[
                SymbolicField([sp.cos(x[2]), sp.sin(x[2]), 0], coords=x),
                SymbolicField([0, 0, 1], coords=x),
            ],
            periodic=(False, False, True),
        )
    if key == "grushin":
        x = state_symbols(2)
        return ControlSystem(
            "grushin",
            fields=[
                SymbolicField([1, 0], coords=x),
                SymbolicField([0, x[0]], coords=x),
            ],
        )
    if key == "free_step2_rank2":
        x = state_symbols(3)
        return ControlSystem(
            "free_step2_rank2",
            fields=[
                SymbolicField([1, 0, 0], coords=x),
                SymbolicField([0, 1, x[0]], coords=x),
            ],
        )
    m = _AGRACHEV_RE.match(key)
    if m:
        k = _as_count(int(m.group(1)), "agrachev_lee's k", 3)
        x = state_symbols(2)
        return ControlSystem(
            f"agrachev_lee({k})",
            fields=[
                SymbolicField([1, 0], coords=x),
                SymbolicField([0, x[0] ** k], coords=x),
            ],
            drift=SymbolicField([0, x[0] ** 2], coords=x),
        )
    raise ConfigError(f"unknown catalog system {name!r}")


# -- JSON schema -------------------------------------------------------------


def _json_count(value, name: str) -> int:
    """A count read from JSON, written 3 or 3.0; _as_count's rule otherwise."""
    integral = isinstance(value, float) and value.is_integer()
    return _as_count(int(value) if integral else value, name, 1)


def system_from_json(text: str) -> ControlSystem:
    """Parse {"name", "n", "d", "drift", "fields", "periodic"}.

    "fields" holds d entries; each entry (and "drift", when present) is a list
    of n per-component term lists, a term being {"coef": float,
    "exponents": [int]*n}.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad system JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("system JSON must be an object")
    try:
        n, d = _json_count(obj["n"], "n"), _json_count(obj["d"], "d")
        fields_spec = obj["fields"]
    except KeyError as exc:
        raise ConfigError(f"system JSON missing required keys: {exc}") from exc
    if not isinstance(fields_spec, list) or len(fields_spec) != d:
        raise ConfigError(f"'fields' must list exactly d={d} fields")
    fields = [polynomial_field(fs, n) for fs in fields_spec]
    drift_spec = obj.get("drift")
    drift = polynomial_field(drift_spec, n) if drift_spec else None
    periodic = obj.get("periodic")
    return ControlSystem(
        obj.get("name", "custom"), fields=fields, drift=drift, periodic=periodic
    )


def _field_to_terms(f: SymbolicField):
    comps = []
    for e in f.exprs:
        poly = sp.Poly(e, *f.coords) if e != 0 else None
        terms = []
        if poly is not None:
            for exps, coef in poly.terms():
                terms.append({"coef": float(coef), "exponents": [int(k) for k in exps]})
        comps.append(terms)
    return comps


def system_to_json(system: ControlSystem) -> str:
    """Serialize a polynomial system back to the JSON schema."""
    for f in [system.drift] + list(system.fields):
        for e in f.exprs:
            if not e.is_polynomial(*f.coords):
                raise UnsupportedRepresentationError(
                    f"{system.name}: non-polynomial component {e} has no JSON form"
                )
    obj = {
        "name": system.name,
        "n": system.n,
        "d": system.d,
        "fields": [_field_to_terms(f) for f in system.fields],
        "periodic": list(system.periodic),
    }
    if not system.is_driftless:
        obj["drift"] = _field_to_terms(system.drift)
    return json.dumps(obj, sort_keys=True)


def _as_state(system: ControlSystem, v, name: str, finite: bool = True) -> np.ndarray:
    """v as a state of system: a float array of shape (n,), with finite entries
    unless finite=False, or a ConfigError that names the argument and n."""
    v = np.asarray(v, dtype=float)
    if v.shape != (system.n,):
        raise ConfigError(f"{name} must have shape ({system.n},), got {v.shape}: "
                          f"{system.name} has state dimension {system.n}")
    if finite and not np.isfinite(v).all():
        raise ConfigError(f"{name} must be finite, got {v.tolist()!r}")
    return v


def displacement(system: ControlSystem, a, b) -> np.ndarray:
    """b - a for states a, b of shape (n,), periodic coordinates wrapped into (-pi, pi]."""
    delta = _as_state(system, b, "b", finite=False) - _as_state(system, a, "a", finite=False)
    for i, per in enumerate(system.periodic):
        if per:
            delta[i] = (delta[i] + np.pi) % (2.0 * np.pi) - np.pi
    return delta
