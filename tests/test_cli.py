import json
import math

import numpy as np
import pytest

from kernelcex.cli import main
from kernelcex.serialize import counterexample_to_json, scalar_kernel_to_json
from kernelcex.counterexample import build_unitary
from kernelcex.kernels import CircleExpCos
from kernelcex.spaces import Circle
from kernelcex.symmetry import CircleRotation


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_suites(capsys):
    assert main(["list-suites"]) == 0
    out = capsys.readouterr().out
    assert "circle-example1" in out
    assert "abelian-strictness" in out


def test_verify_fast_suite_text(capsys):
    code = main(["verify", "abelian-roundtrip", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_verify_json_format(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"trials": 2, "projection_trials": 3, "n_points": 5})
    code = main(["verify", "circle-example1", "--config", config, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["schema_version"] == 1
    assert all("claim" in r for r in data["records"])


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_failing_record_exits_1(tmp_path, capsys):
    # an impossible residual tolerance turns the invariance record into a failure
    config = _write(
        tmp_path,
        "cfg.json",
        {"resid_tol": 1e-30, "trials": 1, "projection_trials": 1, "n_points": 4},
    )
    code = main(["verify", "circle-example1", "--config", config])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_verify_bad_config_field_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"bogus": True})
    assert main(["verify", "circle-example1", "--config", config]) == 2


def test_gram_command_reports_degenerate_verdict(tmp_path, capsys):
    cex = build_unitary(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0))
    kernel_file = _write(tmp_path, "kernel.json", counterexample_to_json(cex))
    points_file = _write(tmp_path, "points.json", [0.0, 1.0])
    assert main(["gram", "--kernel", kernel_file, "--points", points_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 4
    assert data["verdict"]["kind"] == "positive_semidefinite_degenerate"
    assert data["verdict"]["numeric_rank"] == 3
    entry = data["gram"][0][0]
    assert entry[0] == pytest.approx(math.e)


def test_gram_scalar_kernel(tmp_path, capsys):
    kernel_file = _write(tmp_path, "kernel.json", scalar_kernel_to_json(CircleExpCos(Circle())))
    points_file = _write(tmp_path, "points.json", {"points": [0.0, 1.5, -2.0]})
    assert main(["gram", "--kernel", kernel_file, "--points", points_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"]["kind"] == "positive_definite"


def test_orbit_command(tmp_path, capsys):
    map_file = _write(
        tmp_path,
        "map.json",
        {
            "space": {"kind": "euclidean", "dim": 1},
            "action_kind": "euclidean_translation",
            "parameters": {"offset": [1.0]},
        },
    )
    points_file = _write(tmp_path, "points.json", [[0.0], [1.0], [2.0], [5.0]])
    assert main(["orbit", "--map", map_file, "--points", points_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["F"] == [0, 1]
    assert data["tau"] == {"0": 1, "1": 2}
    assert data["m"] == 2 and data["p"] == 2
    np.testing.assert_allclose([z[0] for z in data["z_points"]], [1, 2, 3, 6, 0, 5])


def test_orbit_periodic_map_exits_2(tmp_path, capsys):
    map_file = _write(
        tmp_path,
        "map.json",
        {
            "space": {"kind": "circle"},
            "action_kind": "circle_rotation",
            "parameters": {"angle": math.pi},
        },
    )
    points_file = _write(tmp_path, "points.json", [0.0, math.pi])
    assert main(["orbit", "--map", map_file, "--points", points_file]) == 2


def test_fourier_analyze_and_synthesize_roundtrip(tmp_path, capsys):
    values_file = _write(tmp_path, "psi.json", [1.0, 0.0])
    assert main(["fourier", "analyze", "--group", "2", "--input", values_file]) == 0
    spectrum = json.loads(capsys.readouterr().out)
    assert spectrum["coefficients"] == pytest.approx([0.5, 0.5])

    spectrum_file = _write(tmp_path, "spec.json", spectrum)
    assert main(["fourier", "synthesize", "--group", "2", "--input", spectrum_file]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert values[0] == pytest.approx([1.0, 0.0])
    assert values[1] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_fourier_group_mismatch_exits_2(tmp_path, capsys):
    spectrum_file = _write(
        tmp_path, "spec.json", {"group": [3], "coefficients": [1.0, 0.0, 0.0]}
    )
    assert main(["fourier", "synthesize", "--group", "2", "--input", spectrum_file]) == 2


def test_missing_file_exits_2(capsys):
    assert main(["gram", "--kernel", "/nonexistent.json", "--points", "/nope.json"]) == 2


def test_gram_with_non_positive_sigma_exits_2(tmp_path, capsys):
    kernel = {"form": "gaussian", "space": {"kind": "euclidean", "dim": 2}, "sigma": -1.0}
    kernel_file = _write(tmp_path, "kernel.json", kernel)
    points_file = _write(tmp_path, "points.json", [[0.0, 0.0], [1.0, 0.0]])
    assert main(["gram", "--kernel", kernel_file, "--points", points_file]) == 2
    assert "sigma" in capsys.readouterr().err


def test_verify_config_with_mistyped_field_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"n_points": "x"})
    assert main(["verify", "circle-example1", "--config", config]) == 2
    assert "n_points" in capsys.readouterr().err
