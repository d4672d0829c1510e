import contextlib
import io
import json
import pathlib
import shlex
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizon.cli import _CHART_SUBSTEPS, _COMMANDS, _SOLVER_SUBSTEPS, build_parser, main
from horizon.endpoint import differential, integrate, regular_value_test
from horizon.geodesics import GeodesicOptions, multistart
from horizon.signals import ControlSignal
from horizon.steering import cross_section, cross_section_drift
from horizon.systems import catalog_load, system_from_json


@pytest.fixture
def line_control(tmp_path):
    sig = ControlSignal(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
    path = tmp_path / "line.json"
    path.write_text(sig.to_json())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_lists_systems(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    doc = json.loads(out)
    names = [row["name"] for row in doc["systems"]]
    assert "heisenberg" in names and "unicycle" in names
    heis = next(r for r in doc["systems"] if r["name"] == "heisenberg")
    assert heis["n"] == 3 and heis["d"] == 2 and heis["driftless"]


def test_endpoint_writes_outputs(capsys, tmp_path, line_control):
    out_dir = tmp_path / "run"
    code, out, _ = run(
        capsys, "endpoint", "--system", "heisenberg", "--x", "0,0,0",
        "--control", line_control, "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["endpoint"] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert json.loads((out_dir / "endpoint.json").read_text()) == doc
    csv = (out_dir / "trajectory.csv").read_text()
    assert csv.startswith("t,x_1,x_2,x_3")


def test_endpoint_zero_control(capsys, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(ControlSignal(np.array([0.0, 1.0]), np.zeros((1, 2))).to_json())
    code, out, _ = run(
        capsys, "endpoint", "--system", "heisenberg", "--x", "0.3,-0.2,0.1",
        "--control", str(zero),
    )
    assert code == 0
    assert json.loads(out)["endpoint"] == pytest.approx([0.3, -0.2, 0.1], abs=1e-14)


def test_endpoint_domain_escape_exit_3(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(ControlSignal(np.array([0.0, 1.0]), np.array([[1e4, 0.0]])).to_json())
    code, _, err = run(
        capsys, "endpoint", "--system", "agrachev_lee(3)", "--x", "0,0",
        "--control", str(big),
    )
    assert code == 3
    assert "domain escape" in err


def test_config_errors_exit_2(capsys, line_control):
    code, _, err = run(capsys, "endpoint", "--system", "moebius", "--x", "0,0",
                       "--control", line_control)
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "endpoint", "--system", "heisenberg", "--x", "0,0",
                       "--control", line_control)
    assert code == 2 and "state dimension" in err
    code, _, err = run(capsys, "endpoint", "--system", "heisenberg", "--x", "0,0,0",
                       "--control", "/nonexistent/u.json")
    assert code == 2 and "file not found" in err


def test_argparse_failure_exit_2(capsys):
    assert main([]) == 2
    assert main(["steer", "--system", "heisenberg", "--x", "0,0,0"]) == 2  # missing --y


def test_jacobian_matches_library(capsys, line_control):
    code, out, _ = run(capsys, "jacobian", "--system", "heisenberg", "--x", "0,0,0",
                       "--control", line_control)
    assert code == 0
    doc = json.loads(out)
    heis = catalog_load("heisenberg")
    sig = ControlSignal(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
    rep = regular_value_test(differential(heis, [0, 0, 0], sig))
    assert doc["rank"] == rep.rank
    assert doc["sigma_max"] == pytest.approx(rep.sigma_max)
    assert doc["shape"] == [3, 2]


def test_jacobian_csv_holds_the_matrix_column_by_column(capsys, tmp_path):
    sig = ControlSignal(np.array([0.0, 0.4, 1.0]), np.array([[1.0, 0.5], [-0.3, 2.0]]))
    control = tmp_path / "u.json"
    control.write_text(sig.to_json())
    code, _, _ = run(capsys, "jacobian", "--system", "heisenberg", "--x", "0.1,0,0",
                     "--control", str(control), "--out", str(tmp_path / "out"))
    assert code == 0
    matrix = differential(catalog_load("heisenberg"), [0.1, 0, 0], sig).matrix
    lines = (tmp_path / "out" / "jacobian.csv").read_text().splitlines()
    assert lines[0] == "segment,component,dF_1,dF_2,dF_3"
    assert len(lines) == 1 + matrix.shape[1]
    for col, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[:2] == [str(col // 2), str(col % 2 + 1)]
        assert [float(c) for c in cells[2:]] == matrix[:, col].tolist()


def test_steer_zero_plan(capsys):
    code, out, _ = run(capsys, "steer", "--system", "heisenberg",
                       "--x", "0.2,0.1,0", "--y", "0.2,0.1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == 0.0 and doc["residual"] == 0.0


def test_steer_small_target_residual(capsys, tmp_path):
    out_dir = tmp_path / "steer"
    code, out, _ = run(capsys, "steer", "--system", "heisenberg",
                       "--x", "0,0,0", "--y", "0,0,0.01", "--out", str(out_dir))
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] < 1e-6
    assert (out_dir / "plan.json").exists()
    assert (out_dir / "plan_control.csv").read_text().startswith("t_start,t_end,u_1,u_2")


HEIS_DRIFT_JSON = json.dumps(
    {
        "name": "heis_drift",
        "n": 3,
        "d": 2,
        "fields": [
            [[{"coef": 1.0, "exponents": [0, 0, 0]}], [],
             [{"coef": -0.5, "exponents": [0, 1, 0]}]],
            [[], [{"coef": 1.0, "exponents": [0, 0, 0]}],
             [{"coef": 0.5, "exponents": [1, 0, 0]}]],
        ],
        "drift": [[], [], [{"coef": 0.1, "exponents": [1, 0, 0]}]],
    }
)


def test_steer_default_substeps_match_library(capsys, tmp_path):
    # without --substeps the CLI plans with the library's chart-flow default
    x, y = np.array([0.1, 0.0, 0.0]), np.array([0.12, 0.01, 0.005])
    code, out, _ = run(capsys, "steer", "--system", "heisenberg",
                       "--x", "0.1,0,0", "--y", "0.12,0.01,0.005")
    assert code == 0
    assert out.strip() == cross_section(catalog_load("heisenberg"), x, y).to_json()

    path = tmp_path / "heis_drift.json"
    path.write_text(HEIS_DRIFT_JSON)
    code, out, _ = run(capsys, "steer", "--system", str(path),
                       "--x", "0.1,0,0", "--y", "0.12,0.01,0.005", "--p", "1.5")
    assert code == 0
    plan = cross_section_drift(system_from_json(HEIS_DRIFT_JSON), x, y, p=1.5)
    assert out.strip() == plan.to_json()
    # --help states build_chart's rule
    help_text = " ".join(_subparsers()["steer"].format_help().split())
    assert f"(default {_CHART_SUBSTEPS})" in help_text


@pytest.mark.parametrize("name, substeps", [("heisenberg", 1), ("unicycle", 2)])
def test_geodesics_default_substeps_match_library(capsys, name, substeps):
    # without --substeps the CLI solves as the library does, on
    # GeodesicOptions.substeps_for's rule, which --help states
    system, y = catalog_load(name), np.array([0.1, 0.05, 0.1])
    assert GeodesicOptions().substeps_for(system) == substeps
    argv = ["geodesics", "--system", name, "--x", "0,0,0", "--y", "0.1,0.05,0.1",
            "--n-seeds", "2", "--m-seed", "8"]
    code, out, _ = run(capsys, *argv)
    report = multistart(system, np.zeros(3), y, n_seeds=2, m_seed=8)
    assert code == 0 and out.strip() == report.to_json()
    assert report.records and all(rec.substeps == substeps for rec in report.records)
    code, explicit, _ = run(capsys, *argv, "--substeps", str(substeps))
    assert code == 0 and explicit == out
    help_text = " ".join(_subparsers()["geodesics"].format_help().split())
    assert f"(default {_SOLVER_SUBSTEPS})" in help_text


def test_vector_starting_with_minus_is_a_value(capsys):
    # `--y -0.01,0,0` reads like `--y=-0.01,0,0`, not like an unknown option
    code, out, _ = run(capsys, "steer", "--system", "heisenberg",
                       "--x", "0,0,0", "--y", "-0.01,0,0")
    assert code == 0
    code_eq, out_eq, _ = run(capsys, "steer", "--system", "heisenberg",
                             "--x", "0,0,0", "--y=-0.01,0,0")
    assert code_eq == 0 and out == out_eq
    args = build_parser().parse_args(["geodesics", "--system", "heisenberg",
                                      "--x", "-.1,0,0", "--y", "-1,0,0.5"])
    assert (args.x, args.y) == ("-.1,0,0", "-1,0,0.5")


def test_steer_admissibility_exit_5(capsys):
    code, _, err = run(capsys, "steer", "--system", "agrachev_lee(3)",
                       "--x", "0,0", "--y", "0.1,0.1", "--p", "1.6")
    assert code == 5
    assert "3/2" in err


def test_steer_unreachable_chart_exit_4(capsys):
    code, _, err = run(capsys, "steer", "--system", "unicycle",
                       "--x", "0,0,0", "--y", "40,-35,2")
    assert code == 4
    assert "no convergence" in err


def test_bad_p_exit_2(capsys):
    code, _, err = run(capsys, "steer", "--system", "heisenberg",
                       "--x", "0,0,0", "--y", "0,0,0.01", "--p", "1.0")
    assert code == 2


def test_lift_outputs(capsys, tmp_path, line_control):
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps({
        "samples": [0.0, 0.5, 1.0],
        "targets": [[1, 0, 0], [1.1, 0, 0], [1.2, 0, 0]],
    }))
    out_dir = tmp_path / "lift"
    code, out, _ = run(
        capsys, "lift", "--system", "heisenberg", "--x0", "0,0,0",
        "--anchor-control", line_control, "--path", str(path_file),
        "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_residual"] < 1e-8
    assert len(doc["rows"]) == 2
    for k in range(3):
        assert (out_dir / f"control_{k:04d}.json").exists()
    moduli = (out_dir / "moduli.csv").read_text().strip().split("\n")
    assert moduli[0] == "sample_index,gap,modulus,residual"
    assert len(moduli) == 3


def test_lift_anchor_mismatch_exit_2(capsys, tmp_path, line_control):
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps({
        "samples": [0.0, 1.0],
        "targets": [[5, 5, 5], [5.1, 5, 5]],
    }))
    code, _, err = run(capsys, "lift", "--system", "heisenberg", "--x0", "0,0,0",
                       "--anchor-control", line_control, "--path", str(path_file))
    assert code == 2


def test_geodesics_deterministic_rerun(capsys, tmp_path):
    out_dir = tmp_path / "run"
    args = ["geodesics", "--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.1",
            "--n-seeds", "3", "--m-seed", "8", "--seed", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--workers", "2", "--out", str(out_dir))
    assert code1 == 0 and code2 == 0
    assert out1 == out2  # byte-identical across worker counts
    doc = json.loads(out1)
    assert doc["seeds_tried"] == 3
    assert doc["records"]
    assert (out_dir / "ladder.csv").read_text().startswith(
        "seed,energy,endpoint_residual,stationarity_residual,speed_variation,cluster_id"
    )


@pytest.mark.parametrize("flag", ["--m-seed", "--workers", "--n-seeds"])
def test_geodesics_counts_below_one_exit_2(capsys, flag):
    code, _, err = run(capsys, "geodesics", "--system", "heisenberg", "--x", "0,0,0",
                       "--y", "0,0,0.1", "--n-seeds", "2", "--m-seed", "8", flag, "0")
    assert code == 2
    assert "must be at least 1" in err


def test_geodesics_far_target_exit_2(capsys):
    # |y| overflows to inf, and so would the seed amplitudes drawn from it
    code, _, err = run(capsys, "geodesics", "--system", "heisenberg", "--x", "0,0,0",
                       "--y", "0,0,1e200", "--n-seeds", "1", "--m-seed", "4")
    assert code == 2
    assert "seed scale" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [("geodesics", "--p", "inf"), ("geodesics", "--stat-tol", "nan"),
     ("geodesics", "--end-tol", "-1"), ("lift", "--lift-tol", "nan"),
     ("steer", "--steer-tol", "nan")],
)
def test_convergence_numbers_must_be_finite_exit_2(capsys, tmp_path, line_control,
                                                    command, flag, value):
    # a tolerance that no residual can pass or fail decides nothing
    if command == "geodesics":
        argv = ["--x", "0,0,0", "--y", "0,0,0.1", "--n-seeds", "1", "--m-seed", "8"]
    elif command == "lift":
        path_file = tmp_path / "path.json"
        path_file.write_text(json.dumps({"samples": [0.0, 1.0],
                                         "targets": [[1, 0, 0], [1.1, 0, 0]]}))
        argv = ["--x0", "0,0,0", "--anchor-control", line_control, "--path", str(path_file)]
    else:
        argv = ["--x", "0,0,0", "--y", "0,0,0.01"]
    code, _, err = run(capsys, command, "--system", "heisenberg", *argv, flag, value)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "name, argv",
    [("p", ["steer", "--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.01",
            "--p", "inf"]),
     ("p", ["geodesics", "--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.1",
            "--n-seeds", "1", "--m-seed", "8", "--p", "1e308"]),
     ("alpha", ["steer", "--system", "agrachev_lee(3)", "--x", "0,0", "--y", "0.01,0.01",
                "--p", "1.4", "--alpha", "nan"]),
     ("substeps", ["geodesics", "--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.1",
                   "--n-seeds", "1", "--m-seed", "8", "--substeps", "0"])],
    ids=["steer-p-inf", "geodesics-p-1e308", "steer-alpha-nan", "geodesics-substeps-0"],
)
def test_bad_option_exit_2_names_it(capsys, name, argv):
    # p = 1e308 has p/(p-1) == 1.0 in floats, so no L^q norm can be formed
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {name} must")


def test_geodesics_gate_on_drift_system(capsys):
    # step-3 drift structure rejects p=2 up front
    code, _, err = run(capsys, "geodesics", "--system", "agrachev_lee(3)",
                       "--x", "0,0", "--y", "0.1,0.1", "--p", "2")
    assert code == 5
    assert "3/2" in err


# -- malformed input never ends in a traceback --------------------------------


def _system_with(**changes):
    obj = json.loads(HEIS_DRIFT_JSON)
    obj.update(changes)
    return obj


def _argv_for(tmp_path, line_control, kind, payload):
    """endpoint/steer/lift command line that feeds `payload` in as the given input."""
    if kind == "x":
        return ["endpoint", "--system", "heisenberg", f"--x={payload}", "--control", line_control]
    if kind == "steer-x":
        return ["steer", "--system", "heisenberg", f"--x={payload}", "--y", "0,0,0.01"]
    path = tmp_path / f"{kind}.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    if kind == "signal":
        return ["endpoint", "--system", "heisenberg", "--x", "0,0,0", "--control", str(path)]
    if kind == "path":
        return ["lift", "--system", "heisenberg", "--x0", "0,0,0", "--path", str(path)]
    if kind == "steer-system":
        return ["steer", "--system", str(path), "--x", "0,0,0", "--y", "0,0,0.01"]
    return ["endpoint", "--system", str(path), "--x", "0,0,0", "--control", line_control]


BAD_COEF_FIELDS = _system_with()["fields"]
BAD_COEF_FIELDS[0][0][0]["coef"] = "abc"
NAN_COEF_FIELDS = _system_with()["fields"]
NAN_COEF_FIELDS[0][0][0]["coef"] = float("nan")


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("x", "[{}]"),
        ("x", "[1e999, 0, 0]"),
        ("steer-x", "nan,0,0"),
        ("signal", {"breakpoints": [0.0, 1.0], "values": "abc"}),
        ("signal", {"breakpoints": [0.0, 1.0], "values": [[{}]]}),
        ("path", {"samples": "x", "targets": [[0.0, 0.0, 0.0]]}),
        ("path", {"samples": [0.0, 1.0], "targets": [[0, 0], [1, 0]]}),
        ("path", {"samples": [2158], "targets": [[]]}),
        ("path", {"samples": [0.0, 1e309], "targets": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]}),
        ("path", {"samples": [0.0, 1.0], "targets": [[0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0]]}),
        ("system", _system_with(fields=BAD_COEF_FIELDS)),
        ("system", _system_with(periodic=5)),
        ("signal", b"\xb8\xff not utf-8"),
        ("system", b"\xb8\xff not utf-8"),
        ("steer-system", _system_with(drift=[], fields=NAN_COEF_FIELDS)),
    ],
    ids=["x-dict", "x-inf", "steer-x-nan", "values-str", "values-dict", "samples-str",
         "targets-narrow", "targets-empty", "samples-inf", "targets-nan",
         "coef-str", "periodic-int", "signal-bytes", "system-bytes", "coef-nan"],
)
def test_malformed_input_exit_2(capsys, tmp_path, line_control, kind, payload):
    code, _, err = run(capsys, *_argv_for(tmp_path, line_control, kind, payload))
    assert code == 2
    assert err.startswith("error:")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=10,
)
NUMBER_LISTS = st.lists(st.floats() | st.integers(), max_size=3)


def _fuzz_exit_code(kind, payload):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        line = tmp_path / "line.json"
        line.write_text(ControlSignal(np.array([0.0, 1.0]), np.array([[1.0, 0.0]])).to_json())
        argv = _argv_for(tmp_path, str(line), kind, payload)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


@settings(max_examples=60, deadline=None)
@given(st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=12)))
def test_fuzz_vector_flag(text):
    assert _fuzz_exit_code("x", text) in (0, 2, 3, 4, 5)


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES | st.fixed_dictionaries(
    {"breakpoints": JSON_VALUES | NUMBER_LISTS,
     "values": JSON_VALUES | st.lists(NUMBER_LISTS, max_size=3)}))
def test_fuzz_signal_file(payload):
    assert _fuzz_exit_code("signal", payload) in (0, 2, 3, 4, 5)


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES | st.fixed_dictionaries(
    {"samples": JSON_VALUES | NUMBER_LISTS,
     "targets": JSON_VALUES | st.lists(NUMBER_LISTS, max_size=3)}))
@example({"samples": [0.0], "targets": [[0.0, 0.0, 1.3407807929942597e+154]]})  # |x| overflows
def test_fuzz_path_file(payload):
    assert _fuzz_exit_code("path", payload) in (0, 2, 3, 4, 5)


@settings(max_examples=60, deadline=None)
@given(JSON_VALUES | st.fixed_dictionaries(
    {"n": JSON_VALUES, "d": JSON_VALUES, "fields": JSON_VALUES},
    optional={"drift": JSON_VALUES, "periodic": JSON_VALUES, "name": JSON_VALUES}))
def test_fuzz_system_file(payload):
    assert _fuzz_exit_code("system", payload) in (0, 2, 3, 4, 5)


@pytest.mark.parametrize("command, code", [("lift", 2), ("steer", 4)])
def test_a_target_whose_distance_overflows_is_refused(command, code, capsys, tmp_path):
    # |target| overflows to inf: the lift's first sample is missed by inf
    # (exit 2), the steer's target lies outside the chart (exit 4); no warning
    far = [0.0, 0.0, 1.3407807929942597e+154]
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"samples": [0.0], "targets": [far]}))
    flags = {"lift": ["--x0", "0,0,0", "--path", str(path)],
             "steer": ["--x", "0,0,0", "--y", ",".join(map(repr, far))]}[command]
    code_, out, err = run(capsys, command, "--system", "heisenberg", *flags)
    assert code_ == code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, flags", [
    ("geodesics", ["--n-seeds", "2", "--m-seed", "4"]),
    ("steer", ["--p", "1.5"]),
])
def test_a_drift_frame_of_step_one_runs(command, flags, capsys):
    # agrachev_lee(3) at x0 != 0: the controlled fields span, every p > 1 is
    # admissible, and the sigma/(sigma - 1) bound must not divide by zero
    code, out, err = run(capsys, command, "--system", "agrachev_lee(3)", "--x", "0.5,0.1",
                         "--y", "0.51,0.1", *flags)
    assert code == 0 and err == ""
    json.loads(out)


# -- option table ---------------------------------------------------------------

OPTIONS = {
    "catalog": "--out",
    "endpoint": "--system --x --control --substeps --out",
    "jacobian": "--system --x --control --substeps --out",
    "steer": "--system --x --y --p --beta --alpha --substeps --steer-tol --out",
    "lift": "--system --x0 --anchor-control --path --p --beta --alpha --substeps "
            "--steer-tol --lift-tol --out",
    "geodesics": "--system --x --y --n-seeds --m-seed --p --substeps --seed --workers "
                 "--stat-tol --end-tol --out",
}
# a command line each subcommand parses; the files need not exist
BASE_ARGV = {
    "catalog": [],
    "endpoint": ["--system", "heisenberg", "--x", "0,0,0", "--control", "u.json"],
    "jacobian": ["--system", "heisenberg", "--x", "0,0,0", "--control", "u.json"],
    "steer": ["--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.01"],
    "lift": ["--system", "heisenberg", "--x0", "0,0,0", "--path", "path.json"],
    "geodesics": ["--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.1"],
}
ALL_FLAGS = sorted(set(" ".join(OPTIONS.values()).split()))


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def test_each_subcommand_takes_only_the_flags_it_reads():
    subparsers = _subparsers()
    assert set(subparsers) == set(OPTIONS)
    slots = 0
    for name, flags in OPTIONS.items():
        options = [s for a in subparsers[name]._actions for s in a.option_strings
                   if s not in ("-h", "--help")]
        assert options == flags.split(), name
        slots += len(options)
    assert slots == 43


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in OPTIONS for f in ALL_FLAGS if f not in OPTIONS[c].split()]
    # a prefix of a flag is not that flag
    + [("endpoint", "--sub"), ("geodesics", "--work"), ("lift", "--x")],
)
def test_flag_the_subcommand_never_reads_exit_2(capsys, command, flag):
    code, out, err = run(capsys, command, *BASE_ARGV[command], flag, "7")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 7" in err
    assert "Traceback" not in err


# -- README examples ----------------------------------------------------------


def test_readme_cli_examples_parse():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("horizon ")]
    assert len(examples) >= 6
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: horizon {' '.join(argv)}")


def test_readme_flag_table_matches_parser():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in readme.splitlines() if line.startswith("| `")]
    subparsers = _subparsers()
    assert sorted(row[0] for row in rows) == sorted(subparsers)
    for name, flags, substeps in rows:
        assert flags.split() == OPTIONS[name].split(), name
        default = subparsers[name].get_default("substeps")
        if default is None and "--substeps" in flags.split():  # the library's rule
            default = _COMMANDS[name][3]
        assert str(default or "") == substeps, name


# Heisenberg with the drift (0, 0, x0 / 10): controlled fields of step 2
HEIS_DRIFT_JSON = json.dumps({
    "name": "heis_drift", "n": 3, "d": 2,
    "fields": [
        [[{"coef": 1.0, "exponents": [0, 0, 0]}], [], [{"coef": -0.5, "exponents": [0, 1, 0]}]],
        [[], [{"coef": 1.0, "exponents": [0, 0, 0]}], [{"coef": 0.5, "exponents": [1, 0, 0]}]],
    ],
    "drift": [[], [], [{"coef": 0.1, "exponents": [1, 0, 0]}]],
})


@pytest.mark.parametrize("command", ["steer", "lift"])
@pytest.mark.parametrize("drift", [False, True], ids=["driftless-alpha", "drift-beta"])
def test_flag_the_system_branch_never_reads_exit_2(capsys, tmp_path, command, drift):
    # --alpha sizes drift-chart segments and --beta driftless ones; the other
    # branch would drop the value without a word
    system, flag = "heisenberg", "--alpha"
    if drift:
        system, flag = str(tmp_path / "heis_drift.json"), "--beta"
        pathlib.Path(system).write_text(HEIS_DRIFT_JSON)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps({"samples": [0.0, 1.0],
                                     "targets": [[0, 0, 0], [0.01, 0, 0]]}))
    argv = {"steer": ["--x", "0,0,0", "--y", "0.01,0,0"],
            "lift": ["--x0", "0,0,0", "--path", str(path_file)]}[command]
    code, out, err = run(capsys, command, "--system", system, *argv, "--p", "1.5", flag, "1.1")
    assert code == 2 and out == ""
    assert flag in err and "Traceback" not in err
    # without the flag the same command runs
    code, _, _ = run(capsys, command, "--system", system, *argv, "--p", "1.5")
    assert code == 0
