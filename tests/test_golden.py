"""Golden outputs: solver, steering and lifting results pinned to stored JSON.

Each case recomputes one public result and compares it with the copy in
tests/data/golden_<case>.json.  Numbers are compared at a relative tolerance
of 1e-12 (absolute floor 1e-12 for rounding-level quantities such as
residuals), not byte for byte, so that a different BLAS still passes;
strings, integers and booleans must match exactly.

Regenerate only when a change is meant to alter these results:

    PYTHONPATH=src python tests/test_golden.py

It lists every changed leaf of a case as old -> new before rewriting that
case's file, and leaves the files of unchanged cases as they are.
"""

import json
import math
import pathlib

import numpy as np
import pytest
import sympy as sp

from horizon import (
    ControlSignal,
    ControlSystem,
    SymbolicField,
    catalog_load,
    continuity_report,
    cross_section,
    cross_section_drift,
    lift_path,
    multistart,
    solve_critical,
    state_symbols,
    zero_signal,
)
from horizon.geodesics import GeodesicOptions
from horizon.lifting import TargetPath

DATA = pathlib.Path(__file__).parent / "data"
RTOL = 1e-12
ATOL = 1e-12


def _heis_drift():
    x0, x1, x2 = state_symbols(3)
    drift = SymbolicField([sp.Float(0), sp.Float(0), sp.Rational(1, 10) * x0], coords=(x0, x1, x2))
    return ControlSystem("heis_drift", catalog_load("heisenberg").fields, drift=drift)


def _wobbly_circle(m):
    # one loop around the vertical fiber, perturbed off constant speed so the
    # Newton phase has to work
    bps = np.linspace(0.0, 1.0, m + 1)
    t = 2.0 * np.pi * 0.5 * (bps[:-1] + bps[1:])
    r = np.sqrt(2.0 * np.pi) * (1.0 + 0.2 * np.sin(3.0 * t))
    return ControlSignal(bps, np.column_stack([r * np.cos(t), r * np.sin(t)]))


def _plan(plan):
    return json.loads(plan.to_json())


def case_multistart():
    rep = multistart(catalog_load("heisenberg"), [0, 0, 0], [0, 0, 0.2],
                     p=2.0, n_seeds=6, rng_seed=11, m_seed=16, workers=1)
    return json.loads(rep.to_json())


def case_solve_p3():
    heis = catalog_load("heisenberg")
    out = {}
    for mode in ("vector", "component"):
        rec = solve_critical(heis, [0, 0, 0], [0, 0, 0.5], u_init=_wobbly_circle(16),
                             opts=GeodesicOptions(p=3.0, mode=mode))
        out[mode] = rec.to_dict()
    return out


def case_cross_section():
    out = {}
    for name, y in (("heisenberg", [0.05, -0.02, 0.01]), ("unicycle", [0.04, 0.03, -0.05])):
        out[name] = _plan(cross_section(catalog_load(name), np.zeros(3), np.array(y)))
    return out


def case_cross_section_drift():
    plan = cross_section_drift(_heis_drift(), np.zeros(3), np.array([0.1, 0.05, 0.02]), p=1.5)
    return {**_plan(plan), "alpha": plan.alpha}


def case_floor():
    # the criterion-5 search at s = 0.1: 12 of its 16 seeds fail, so this
    # pins the damped Newton loops where no step helps
    opts = GeodesicOptions(raise_on_failure=False, feas_iter=60, max_iter=60)
    rep = multistart(catalog_load("agrachev_lee(3)"), [0.0, 0.0], [0.0, -0.1], p=2.0,
                     n_seeds=16, rng_seed=3, m_seed=24, opts=opts, seed_scale=1.0)
    return json.loads(rep.to_json())


def case_lift():
    heis = catalog_load("heisenberg")
    g = lambda s: np.array([0.4 * s, 0.1 * np.sin(np.pi * s), 0.05 * s])
    path = TargetPath.from_function(g, np.linspace(0.0, 1.0, 6))
    return continuity_report(lift_path(heis, np.zeros(3), zero_signal(2), path))


CASES = {
    "multistart": case_multistart,
    "solve_p3": case_solve_p3,
    "cross_section": case_cross_section,
    "cross_section_drift": case_cross_section_drift,
    "lift": case_lift,
    "floor": case_floor,
}


def _compare(got, want, where="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), f"{where}: {got!r} is not a number"
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = json.loads((DATA / f"golden_{name}.json").read_text())
    _compare(json.loads(json.dumps(CASES[name]())), want)


def _changed_leaves(old, new, where="$"):
    """(path, old, new) for every leaf that differs; a missing side is None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _changed_leaves(old.get(key), new.get(key), f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from _changed_leaves(o, n, f"{where}[{i}]")
    elif old != new or type(old) is not type(new):
        yield where, old, new


if __name__ == "__main__":
    # rewrite only the files whose content changes, after listing each
    # changed leaf as old -> new
    for name, fn in CASES.items():
        path = DATA / f"golden_{name}.json"
        text = json.dumps(fn(), indent=1, sort_keys=True) + "\n"
        old_text = path.read_text() if path.exists() else "null"
        if text == old_text:
            print(f"golden_{name}.json unchanged")
            continue
        for where, old, new in _changed_leaves(json.loads(old_text), json.loads(text)):
            print(f"  {where}: {old!r} -> {new!r}")
        path.write_text(text)
        print(f"wrote golden_{name}.json")
