import json

import numpy as np
import pytest

from horizon.cli import main
from horizon.endpoint import differential, integrate, regular_value_test
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
    args = ["geodesics", "--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.1",
            "--n-seeds", "3", "--m-seed", "8", "--seed", "4"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--workers", "2")
    assert code1 == 0 and code2 == 0
    assert out1 == out2  # byte-identical across worker counts
    doc = json.loads(out1)
    assert doc["seeds_tried"] == 3
    assert doc["records"]


def test_geodesics_env_workers(capsys, monkeypatch, tmp_path):
    out_a = tmp_path / "a"
    args = ["geodesics", "--system", "heisenberg", "--x", "0,0,0", "--y", "0,0,0.1",
            "--n-seeds", "2", "--m-seed", "8", "--seed", "9"]
    code, base, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setenv("HORIZON_WORKERS", "2")
    code, out, _ = run(capsys, *args, "--out", str(out_a))
    assert code == 0
    assert out == base
    assert (out_a / "ladder.csv").read_text().startswith(
        "seed,energy,endpoint_residual,stationarity_residual,speed_variation,cluster_id"
    )


def test_geodesics_gate_on_drift_system(capsys):
    # step-3 drift structure rejects p=2 up front
    code, _, err = run(capsys, "geodesics", "--system", "agrachev_lee(3)",
                       "--x", "0,0", "--y", "0.1,0.1", "--p", "2")
    assert code == 5
    assert "3/2" in err
