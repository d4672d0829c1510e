"""Command-line front end.

Subcommands: endpoint, jacobian, steer, lift, geodesics, catalog.  Every
command prints one JSON document to stdout and, when --out DIR is given,
writes the same data plus CSV companions into DIR.  All output is
deterministic for a fixed configuration, including the worker count.

Exit codes: 0 success, 2 config error, 3 domain escape, 4 solver
non-convergence, 5 admissibility rejection.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

import numpy as np

from .endpoint import DEFAULT_SUBSTEPS, differential, integrate, regular_value_test
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DomainEscapeError,
    HorizonError,
)
from .geodesics import GeodesicOptions, multistart
from .lifting import TargetPath, continuity_report, lift_path
from .signals import ControlSignal, EnergyParams, zero_signal
from .steering import (
    DEFAULT_FLOW_SUBSTEPS,
    check_admissibility,
    cross_section,
    cross_section_drift,
)
from .systems import catalog_load, catalog_names, system_from_json


def _parse_vector(text: str) -> np.ndarray:
    text = text.strip()
    try:
        if text.startswith("["):
            vals = json.loads(text)
        else:
            vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        out = np.asarray(vals, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"cannot parse vector {text!r}: {exc}") from exc
    if out.ndim != 1 or out.size == 0:
        raise ConfigError(f"vector {text!r} must be a flat, nonempty list")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"vector {text!r} has non-finite entries")
    return out


def _load_system(spec: str):
    if pathlib.Path(spec).is_file():
        return system_from_json(_read_text(spec))
    return catalog_load(spec)


def _read_text(path_str: str) -> str:
    path = pathlib.Path(path_str)
    if not path.is_file():
        raise ConfigError(f"file not found: {path_str}")
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path_str} is not a text file: {exc}") from exc


def _read_signal(path_str: str) -> ControlSignal:
    return ControlSignal.from_json(_read_text(path_str))


def _read_target_path(path_str: str) -> TargetPath:
    text = _read_text(path_str)
    try:
        obj = json.loads(text)
        samples = np.asarray(obj["samples"], dtype=float)
        targets = np.asarray(obj["targets"], dtype=float)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad path JSON ({path_str}): {exc}") from exc
    return TargetPath(samples, targets)


def _check_state(system, vec, label) -> np.ndarray:
    if vec.size != system.n:
        raise ConfigError(
            f"{label} has {vec.size} entries but {system.name} has state dimension {system.n}"
        )
    return vec


def _out_dir(args) -> pathlib.Path | None:
    if args.out is None:
        return None
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(out: pathlib.Path | None, name: str, text: str):
    if out is not None:
        (out / name).write_text(text)


# -- subcommands ---------------------------------------------------------


def cmd_catalog(args) -> int:
    rows = []
    for name in catalog_names():
        if "(" in name:
            rows.append({"name": name, "parameter": "k >= 3 (integer)"})
            continue
        system = catalog_load(name)
        rows.append(
            {
                "name": name,
                "n": system.n,
                "d": system.d,
                "driftless": system.is_driftless,
                "periodic": list(system.periodic),
            }
        )
    doc = json.dumps({"systems": rows}, sort_keys=True)
    print(doc)
    _emit(_out_dir(args), "catalog.json", doc + "\n")
    return 0


def cmd_endpoint(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    u = _read_signal(args.control)
    substeps = args.substeps if args.substeps is not None else DEFAULT_SUBSTEPS
    traj = integrate(system, x, u, substeps=substeps)
    doc = json.dumps(
        {
            "system": system.name,
            "x": x.tolist(),
            "endpoint": traj.endpoint.tolist(),
            "final_time": float(u.total_time),
            "substeps": substeps,
        },
        sort_keys=True,
    )
    print(doc)
    out = _out_dir(args)
    _emit(out, "endpoint.json", doc + "\n")
    _emit(out, "trajectory.csv", traj.to_csv())
    return 0


def cmd_jacobian(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    u = _read_signal(args.control)
    substeps = args.substeps if args.substeps is not None else DEFAULT_SUBSTEPS
    diff = differential(system, x, u, substeps=substeps)
    report = regular_value_test(diff)
    doc = json.dumps(
        {
            "system": system.name,
            "endpoint": diff.endpoint.tolist(),
            "shape": list(diff.matrix.shape),
            "rank": report.rank,
            "regular": report.regular,
            "sigma_min": report.sigma_min,
            "sigma_max": report.sigma_max,
        },
        sort_keys=True,
    )
    print(doc)
    out = _out_dir(args)
    _emit(out, "jacobian.json", doc + "\n")
    if out is not None:
        header = "segment,component," + ",".join(f"dF_{j + 1}" for j in range(system.n))
        lines = [header]
        for k in range(u.segments):
            for i in range(u.d):
                col = diff.matrix[:, k * u.d + i]
                cells = [str(k), str(i + 1)] + [repr(float(v)) for v in col]
                lines.append(",".join(cells))
        _emit(out, "jacobian.csv", "\n".join(lines) + "\n")
    return 0


def cmd_steer(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    y = _check_state(system, _parse_vector(args.y), "--y")
    params = EnergyParams(p=args.p, beta=args.beta)
    substeps = args.substeps if args.substeps is not None else DEFAULT_FLOW_SUBSTEPS
    if system.is_driftless:
        plan = cross_section(
            system, x, y, params=params, steer_tol=args.steer_tol, flow_substeps=substeps
        )
    else:
        plan = cross_section_drift(
            system, x, y, p=args.p, alpha=args.alpha,
            steer_tol=args.steer_tol, flow_substeps=substeps,
        )
    doc = plan.to_json()
    print(doc)
    out = _out_dir(args)
    _emit(out, "plan.json", doc + "\n")
    _emit(out, "plan_control.csv", plan.sigma.to_csv())
    return 0


def cmd_lift(args) -> int:
    system = _load_system(args.system)
    x0 = _check_state(system, _parse_vector(args.x0), "--x0")
    path = _read_target_path(args.path)
    u0 = _read_signal(args.anchor_control) if args.anchor_control else zero_signal(system.d)
    params = EnergyParams(p=args.p, beta=args.beta)
    substeps = args.substeps if args.substeps is not None else DEFAULT_SUBSTEPS
    result = lift_path(
        system, x0, u0, path, params=params,
        lift_tol=args.lift_tol, steer_tol=args.steer_tol,
        substeps=substeps, alpha=args.alpha,
    )
    report = continuity_report(result)
    doc = json.dumps(report, sort_keys=True)
    print(doc)
    out = _out_dir(args)
    _emit(out, "lift_report.json", doc + "\n")
    if out is not None:
        lines = ["sample_index,gap,modulus,residual"]
        for row in report["rows"]:
            lines.append(
                f"{row['sample_index']},{row['gap']!r},{row['modulus']!r},{row['residual']!r}"
            )
        _emit(out, "moduli.csv", "\n".join(lines) + "\n")
        for k, control in enumerate(result.controls):
            _emit(out, f"control_{k:04d}.json", control.to_json() + "\n")
    return 0


def cmd_geodesics(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    y = _check_state(system, _parse_vector(args.y), "--y")
    check_admissibility(system, x, args.p)
    opts = GeodesicOptions(
        p=args.p,
        substeps=args.substeps if args.substeps is not None else GeodesicOptions.substeps,
        stat_tol=args.stat_tol,
        end_tol=args.end_tol,
    )
    report = multistart(
        system, x, y, p=args.p,
        n_seeds=args.n_seeds, rng_seed=args.seed, m_seed=args.m_seed,
        opts=opts, workers=args.workers,
    )
    doc = report.to_json()
    print(doc)
    out = _out_dir(args)
    _emit(out, "report.json", doc + "\n")
    _emit(out, "ladder.csv", report.to_csv())
    return 0


# -- parser --------------------------------------------------------------

# argparse reads any token that starts with "-" and is not a plain number as
# an option, so `--y -0.01,0,0` would lack its value; such a token right after
# a vector option is glued to it (`--y=-0.01,0,0`) before parsing
_VECTOR_OPTIONS = ("--x", "--y", "--x0")
_NEGATIVE_START = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        argv = []
        for tok in sys.argv[1:] if args is None else args:
            if argv and argv[-1] in _VECTOR_OPTIONS and _NEGATIVE_START.match(tok):
                argv[-1] += "=" + tok
            else:
                argv.append(tok)
        return super().parse_known_args(argv, namespace)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--p", type=float, default=2.0, help="integrability exponent (p > 1)")
    shared.add_argument("--beta", type=float, default=1.0,
                        help="reparametrization exponent in (0, p/(p-1))")
    shared.add_argument("--alpha", type=float, default=None,
                        help="drift-chart duration exponent (default: midpoint of valid range)")
    shared.add_argument("--substeps", type=int, default=None,
                        help="integrator substeps per segment (default per command)")
    shared.add_argument("--seed", type=int, default=0, help="rng seed for multistart")
    shared.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    shared.add_argument("--out", default=None, help="output directory for files")
    shared.add_argument("--steer-tol", type=float, default=1e-9, dest="steer_tol")
    shared.add_argument("--lift-tol", type=float, default=1e-8, dest="lift_tol")
    shared.add_argument("--stat-tol", type=float, default=1e-6, dest="stat_tol")
    shared.add_argument("--end-tol", type=float, default=1e-8, dest="end_tol")

    parser = _Parser(
        prog="horizon",
        description="Endpoint maps, bracket steering, homotopy lifts, and L^p geodesics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", parents=[shared], help="list built-in systems")
    p_cat.set_defaults(func=cmd_catalog)

    p_end = sub.add_parser("endpoint", parents=[shared], help="integrate a control signal")
    p_end.add_argument("--system", required=True, help="catalog name or system JSON file")
    p_end.add_argument("--x", required=True, help="initial state, comma-separated")
    p_end.add_argument("--control", required=True, help="control signal JSON file")
    p_end.set_defaults(func=cmd_endpoint)

    p_jac = sub.add_parser("jacobian", parents=[shared],
                           help="endpoint differential and rank test")
    p_jac.add_argument("--system", required=True)
    p_jac.add_argument("--x", required=True)
    p_jac.add_argument("--control", required=True)
    p_jac.set_defaults(func=cmd_jacobian)

    p_steer = sub.add_parser("steer", parents=[shared],
                             help="steer x to y through a commutator chart")
    p_steer.add_argument("--system", required=True)
    p_steer.add_argument("--x", required=True)
    p_steer.add_argument("--y", required=True)
    p_steer.set_defaults(func=cmd_steer)

    p_lift = sub.add_parser("lift", parents=[shared],
                            help="lift a target path to control space")
    p_lift.add_argument("--system", required=True)
    p_lift.add_argument("--x0", required=True, help="base state for the endpoint map")
    p_lift.add_argument("--anchor-control", default=None, dest="anchor_control",
                        help="anchor control JSON file (default: zero control)")
    p_lift.add_argument("--path", required=True, help='JSON file {"samples", "targets"}')
    p_lift.set_defaults(func=cmd_lift)

    p_geo = sub.add_parser("geodesics", parents=[shared],
                           help="multistart search for fiber-critical controls")
    p_geo.add_argument("--system", required=True)
    p_geo.add_argument("--x", required=True)
    p_geo.add_argument("--y", required=True)
    p_geo.add_argument("--n-seeds", type=int, default=32, dest="n_seeds")
    p_geo.add_argument("--m-seed", type=int, default=32, dest="m_seed")
    p_geo.set_defaults(func=cmd_geodesics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AdmissibilityError as exc:
        print(f"error: admissibility: {exc}", file=sys.stderr)
        return 5
    except DomainEscapeError as exc:
        print(f"error: domain escape: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: no convergence: {exc}", file=sys.stderr)
        return 4
    except (HorizonError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
