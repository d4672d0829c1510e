"""Command-line front end.

Subcommands: endpoint, jacobian, steer, lift, geodesics, catalog.  Every
command prints one JSON document to stdout and, when --out DIR is given,
writes the same data plus CSV companions into DIR.  All output is
deterministic for a fixed configuration, including the worker count.

Each subcommand accepts only the flags it reads (`_COMMANDS`, drawn from the
one flag table `_FLAGS`) and sets its own --substeps default; any other flag
is an argparse error.

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
from .systems import RANK_TOL, catalog_load, catalog_names, system_from_json


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


def _chart_params(args, system) -> EnergyParams:
    """EnergyParams for steer and lift, refusing the flag the system's branch
    never reads: --alpha on a driftless system, --beta on a drift system."""
    flag, value = ("--alpha", args.alpha) if system.is_driftless else ("--beta", args.beta)
    if value is not None:
        raise ConfigError(f"{flag} does not apply to {system.name}")
    return EnergyParams(p=args.p, beta=EnergyParams.beta if args.beta is None else args.beta)


def _publish(args, name: str, doc: str, companions=dict) -> int:
    """Print the JSON document; with --out, also write it to DIR/name and
    write each (file name -> text) entry of companions() beside it."""
    print(doc)
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(doc + "\n")
        for file_name, text in companions().items():
            (out / file_name).write_text(text)
    return 0


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
    return _publish(args, "catalog.json", json.dumps({"systems": rows}, sort_keys=True))


def cmd_endpoint(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    u = _read_signal(args.control)
    traj = integrate(system, x, u, substeps=args.substeps)
    doc = json.dumps(
        {
            "system": system.name,
            "x": x.tolist(),
            "endpoint": traj.endpoint.tolist(),
            "final_time": float(u.total_time),
            "substeps": args.substeps,
        },
        sort_keys=True,
    )
    return _publish(args, "endpoint.json", doc, lambda: {"trajectory.csv": traj.to_csv()})


def cmd_jacobian(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    u = _read_signal(args.control)
    diff = differential(system, x, u, substeps=args.substeps)
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

    def csv():
        lines = ["segment,component," + ",".join(f"dF_{j + 1}" for j in range(system.n))]
        for k in range(u.segments):
            for i in range(u.d):
                col = diff.matrix[:, k * u.d + i]
                lines.append(",".join([str(k), str(i + 1)] + [repr(float(v)) for v in col]))
        return {"jacobian.csv": "\n".join(lines) + "\n"}

    return _publish(args, "jacobian.json", doc, csv)


def cmd_steer(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    y = _check_state(system, _parse_vector(args.y), "--y")
    params = _chart_params(args, system)
    if system.is_driftless:
        plan = cross_section(
            system, x, y, params=params, steer_tol=args.steer_tol, flow_substeps=args.substeps
        )
    else:
        plan = cross_section_drift(
            system, x, y, p=args.p, alpha=args.alpha,
            steer_tol=args.steer_tol, flow_substeps=args.substeps,
        )
    return _publish(args, "plan.json", plan.to_json(),
                    lambda: {"plan_control.csv": plan.sigma.to_csv()})


def cmd_lift(args) -> int:
    system = _load_system(args.system)
    x0 = _check_state(system, _parse_vector(args.x0), "--x0")
    path = _read_target_path(args.path)
    u0 = _read_signal(args.anchor_control) if args.anchor_control else zero_signal(system.d)
    params = _chart_params(args, system)
    result = lift_path(
        system, x0, u0, path, params=params,
        lift_tol=args.lift_tol, steer_tol=args.steer_tol,
        substeps=args.substeps, alpha=args.alpha,
    )
    report = continuity_report(result)

    def files():
        lines = ["sample_index,gap,modulus,residual"]
        for row in report["rows"]:
            lines.append(
                f"{row['sample_index']},{row['gap']!r},{row['modulus']!r},{row['residual']!r}"
            )
        out = {"moduli.csv": "\n".join(lines) + "\n"}
        for k, control in enumerate(result.controls):
            out[f"control_{k:04d}.json"] = control.to_json() + "\n"
        return out

    return _publish(args, "lift_report.json", json.dumps(report, sort_keys=True), files)


def cmd_geodesics(args) -> int:
    system = _load_system(args.system)
    x = _check_state(system, _parse_vector(args.x), "--x")
    y = _check_state(system, _parse_vector(args.y), "--y")
    check_admissibility(system, x, args.p)
    opts = GeodesicOptions(
        p=args.p, substeps=args.substeps, stat_tol=args.stat_tol, end_tol=args.end_tol
    )
    report = multistart(
        system, x, y,
        n_seeds=args.n_seeds, rng_seed=args.seed, m_seed=args.m_seed,
        opts=opts, workers=args.workers,
    )
    return _publish(args, "report.json", report.to_json(),
                    lambda: {"ladder.csv": report.to_csv()})


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


# every flag of the CLI; a subcommand takes the ones its cmd_* reads
_FLAGS = {
    "--system": dict(required=True, help="catalog name or system JSON file"),
    "--x": dict(required=True, help="initial state, comma-separated"),
    "--y": dict(required=True, help="target state, comma-separated"),
    "--x0": dict(required=True, help="base state for the endpoint map"),
    "--control": dict(required=True, help="control signal JSON file"),
    "--anchor-control": dict(help="anchor control JSON file (default: zero control)"),
    "--path": dict(required=True, help='JSON file {"samples", "targets"}'),
    "--n-seeds": dict(type=int, default=32, help="multistart seeds"),
    "--m-seed": dict(type=int, default=32, help="segments per seed control"),
    "--p": dict(type=float, default=2.0, help="integrability exponent (p > 1)"),
    "--beta": dict(type=float, help="reparametrization exponent in (0, p/(p-1)); driftless "
                                    "systems only (default 1)"),
    "--alpha": dict(type=float, help="drift-chart duration exponent; drift systems only "
                                     "(default: midpoint of valid range)"),
    "--substeps": dict(type=int, help="integrator substeps per segment (default %(default)s)"),
    "--seed": dict(type=int, default=0, help="rng seed for multistart"),
    "--workers": dict(type=int, default=1, help="parallel workers (default 1)"),
    "--steer-tol": dict(type=float, default=1e-9),
    "--lift-tol": dict(type=float, default=1e-8),
    "--stat-tol": dict(type=float, default=1e-6),
    "--end-tol": dict(type=float, default=1e-8),
    "--out": dict(help="output directory for files"),
}

# --substeps defaults that are rules the library applies when the flag is
# left out: GeodesicOptions.substeps_for's, and build_chart's for the chart flows
_SOLVER_SUBSTEPS = "1 where one RK4 step is exact, else 2"
_CHART_SUBSTEPS = (f"1 where one RK4 step is exact on every chart field, "
                   f"else {DEFAULT_FLOW_SUBSTEPS}")

# name: (handler, help, flags, --substeps default: a number, or a rule above)
_COMMANDS = {
    "catalog": (cmd_catalog, "list built-in systems", "--out", None),
    "endpoint": (cmd_endpoint, "integrate a control signal",
                 "--system --x --control --substeps --out", DEFAULT_SUBSTEPS),
    "jacobian": (cmd_jacobian, "endpoint differential and rank test: regular means all n "
                 f"L^2 singular values exceed RANK_TOL = {RANK_TOL:g} times the largest",
                 "--system --x --control --substeps --out", DEFAULT_SUBSTEPS),
    "steer": (cmd_steer, "steer x to y through a commutator chart",
              "--system --x --y --p --beta --alpha --substeps --steer-tol --out",
              _CHART_SUBSTEPS),
    "lift": (cmd_lift, "lift a target path to control space",
             "--system --x0 --anchor-control --path --p --beta --alpha --substeps "
             "--steer-tol --lift-tol --out", DEFAULT_SUBSTEPS),
    "geodesics": (cmd_geodesics, "multistart search for fiber-critical controls",
                  "--system --x --y --n-seeds --m-seed --p --substeps --seed --workers "
                  "--stat-tol --end-tol --out", _SOLVER_SUBSTEPS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horizon",
        description="Endpoint maps, bracket steering, homotopy lifts, and L^p geodesics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, substeps) in _COMMANDS.items():
        # allow_abbrev=False: a flag is read only under its own name, so that
        # `lift --x` is not taken for `--x0`
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        rule = isinstance(substeps, str)  # None on the command line: the library's rule
        for flag in flags.split():
            kwargs = _FLAGS[flag]
            if flag == "--substeps" and rule:
                kwargs = dict(kwargs, help=f"integrator substeps per segment (default {substeps})")
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=func, substeps=None if rule else substeps)
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
