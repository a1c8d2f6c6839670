import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_gram_near_the_float_limit_gets_a_finite_verdict(tmp_path, capsys):
    # exp(26.64^2) is about 1.6e308: the Gram is finite, its sum A + A^H is not.
    kernel = _write(tmp_path, "k.json", {"form": "dot_exp", "space": {"kind": "euclidean", "dim": 1}})
    points = _write(tmp_path, "p.json", [[26.64], [-26.64]])
    assert main(["gram", "--kernel", kernel, "--points", points]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict["kind"] == "positive_definite"
    assert verdict["numeric_rank"] == 2
    assert math.isfinite(verdict["min_eigenvalue"]) and math.isfinite(verdict["scale"])
    assert verdict["min_eigenvalue"] > 1e308


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


def test_orbit_empty_point_list_exits_2(tmp_path, capsys):
    map_file = _write(
        tmp_path,
        "map.json",
        {
            "space": {"kind": "circle"},
            "action_kind": "circle_rotation",
            "parameters": {"angle": 1.0},
        },
    )
    points_file = _write(tmp_path, "points.json", [])
    assert main(["orbit", "--map", map_file, "--points", points_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: points: must be nonempty\n"


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


# Malformed documents: each exits 2 with a one-line message, never a traceback.
CIRCLE_GRID = {
    "variant": "unitary",
    "base": {"form": "circle_exp_cos", "space": {"kind": "circle"}},
    "map": {
        "space": {"kind": "circle"},
        "action_kind": "circle_rotation",
        "parameters": {"angle": 1.0},
    },
}


def _exits_2(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize(
    "space",
    [
        {"kind": "euclidean", "dim": 2.7},
        {"kind": "euclidean", "dim": "3"},
        {"kind": "euclidean", "dim": True},
        {"kind": "euclidean", "dim": 2, "eq_tol": "1e-3"},
    ],
    ids=["dim-2.7", "dim-string", "dim-true", "eq_tol-string"],
)
def test_gram_with_a_converted_number_exits_2(tmp_path, capsys, space):
    kernel = _write(tmp_path, "k.json", {"form": "gaussian", "space": space})
    points = _write(tmp_path, "p.json", [[0.0, 0.0], [1.0, 0.0]])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "expected a")


@pytest.mark.parametrize("eq_tol", [math.nan, -1.0], ids=["nan", "negative"])
def test_gram_on_a_space_with_a_bad_eq_tol_exits_2(tmp_path, capsys, eq_tol):
    space = {"kind": "circle", "eq_tol": eq_tol}
    kernel = _write(tmp_path, "k.json", {"form": "circle_exp_cos", "space": space})
    points = _write(tmp_path, "p.json", [0.0, 1.0])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "eq_tol")
    phi = _write(tmp_path, "m.json", {"space": space, "action_kind": "circle_rotation",
                                      "parameters": {"angle": 1.0}})
    _exits_2(capsys, ["orbit", "--map", phi, "--points", points], "eq_tol")


def test_gram_with_boolean_coefficients_exits_2(tmp_path, capsys):
    config = {
        "form": "group_fourier",
        "space": {"kind": "finite_abelian", "orders": [2]},
        "coefficients": [True, [False, True]],
    }
    kernel = _write(tmp_path, "k.json", config)
    points = _write(tmp_path, "p.json", [[0], [1]])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "complex_from_json")


def test_gram_kernel_without_dim_exits_2(tmp_path, capsys):
    kernel = _write(tmp_path, "k.json", {"form": "gaussian", "space": {"kind": "euclidean"}})
    points = _write(tmp_path, "p.json", [[0.0, 0.0], [1.0, 0.0]])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "dim")


def test_gram_kernel_with_string_sigma_exits_2(tmp_path, capsys):
    config = {"form": "gaussian", "space": {"kind": "euclidean", "dim": 2}, "sigma": "x"}
    kernel = _write(tmp_path, "k.json", config)
    points = _write(tmp_path, "p.json", [[0.0, 0.0], [1.0, 0.0]])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "sigma: expected a number")


def test_gram_map_with_string_angle_exits_2(tmp_path, capsys):
    config = copy.deepcopy(CIRCLE_GRID)
    config["map"]["parameters"]["angle"] = "a"
    kernel = _write(tmp_path, "k.json", config)
    points = _write(tmp_path, "p.json", [0.0, 2.0])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "angle: expected a number")


def test_orbit_map_without_parameters_exits_2(tmp_path, capsys):
    config = {"space": {"kind": "circle"}, "action_kind": "circle_rotation", "parameters": {}}
    phi = _write(tmp_path, "m.json", config)
    points = _write(tmp_path, "p.json", [0.0, 2.0])
    _exits_2(capsys, ["orbit", "--map", phi, "--points", points], "angle")


def test_fourier_analyze_with_a_triple_value_exits_2(tmp_path, capsys):
    values = _write(tmp_path, "psi.json", [1, 2, [1, 2, 3]])
    _exits_2(capsys, ["fourier", "analyze", "--group", "3", "--input", values], "complex_from_json")


def test_fourier_analyze_with_an_object_input_exits_2(tmp_path, capsys):
    # Iterating the object would hand its keys to complex_from_json.
    values = _write(tmp_path, "psi.json", {"12": 1, "34": 2})
    _exits_2(capsys, ["fourier", "analyze", "--group", "2", "--input", values], "list of values")


def test_points_object_without_points_key_exits_2(tmp_path, capsys):
    kernel = _write(tmp_path, "k.json", scalar_kernel_to_json(CircleExpCos(Circle())))
    points = _write(tmp_path, "p.json", {"pts": [0.1]})
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "points")


def test_verify_config_list_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", [1, 2])
    _exits_2(capsys, ["verify", "circle-example1", "--config", config], "JSON object")


@pytest.mark.parametrize("mode", ["analyze", "synthesize"])
@pytest.mark.parametrize("group", ["1", "0", "-3", "2,1", "2,x"])
def test_fourier_group_with_an_order_below_2_exits_2(tmp_path, capsys, mode, group):
    values = _write(tmp_path, "f.json", [1, 2])
    _exits_2(capsys, ["fourier", mode, "--group", group, "--input", values], "group")


def test_verify_negative_seed_exits_2(tmp_path, capsys):
    _exits_2(capsys, ["verify", "negative-controls", "--seed", "-1"], "seed")
    config = _write(tmp_path, "cfg.json", {"seed": -1})
    _exits_2(capsys, ["verify", "negative-controls", "--config", config], "seed")


@pytest.mark.parametrize("group", [[], 5, [1]])
def test_verify_empty_group_exits_2(tmp_path, capsys, group):
    config = _write(tmp_path, "cfg.json", {"group": group})
    _exits_2(capsys, ["verify", "abelian-roundtrip", "--config", config], "group")


@pytest.mark.parametrize(
    "argv, files",
    [
        (["fourier", "analyze", "--group", "4097", "--input", "{f}"], {"f": [1.0] * 4097}),
        (["verify", "abelian-roundtrip", "--config", "{f}"], {"f": {"group": [1000, 1000]}}),
    ],
    ids=["analyze", "verify"],
)
def test_a_group_over_the_table_cap_exits_2(tmp_path, capsys, argv, files):
    paths = {"{" + name + "}": _write(tmp_path, f"{name}.json", payload) for name, payload in files.items()}
    _exits_2(capsys, [paths.get(arg, arg) for arg in argv], "exceeds the 4096 cap")


def test_synthesize_a_non_hermitian_matrix_spectrum_exits_2(tmp_path, capsys):
    # The coefficient [[1, 5i], [0, 1]] as [re, im] pairs.
    spectrum = {"coefficients": [[[[1, 0], [0, 5]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    _exits_2(capsys, ["fourier", "synthesize", "--group", "2", "--input", _write(tmp_path, "s.json", spectrum)],
             "config error: coefficients: matrix 0: asymmetry 5.000e+00")


def test_gram_with_non_integral_group_points_exits_2(tmp_path, capsys):
    config = {
        "form": "group_fourier",
        "space": {"kind": "finite_abelian", "orders": [4]},
        "coefficients": [1.0, 0.5, 0.25, 0.125],
    }
    kernel = _write(tmp_path, "k.json", config)
    points = _write(tmp_path, "p.json", [[0.5], [1.5], [2.9]])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "non-integral")
    # Integral floats name group elements as before.
    points = _write(tmp_path, "p.json", [[0.0], [1.0], [2]])
    assert main(["gram", "--kernel", kernel, "--points", points]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3


# JSON integers too large for a float: each command exits 2, never 1 with an
# OverflowError traceback.
HUGE = 10**400
PLANE_GAUSSIAN = {"form": "gaussian", "space": {"kind": "euclidean", "dim": 2}}


def test_gram_with_a_huge_point_coordinate_exits_2(tmp_path, capsys):
    kernel = _write(tmp_path, "k.json", PLANE_GAUSSIAN)
    points = _write(tmp_path, "p.json", [[HUGE, 0.0], [1.0, 0.0]])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "coordinates")
    kernel = _write(tmp_path, "k.json", scalar_kernel_to_json(CircleExpCos(Circle())))
    points = _write(tmp_path, "p.json", [HUGE, 1.0])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "circle angle")


def test_gram_with_a_huge_sigma_exits_2(tmp_path, capsys):
    kernel = _write(tmp_path, "k.json", {**PLANE_GAUSSIAN, "sigma": HUGE})
    points = _write(tmp_path, "p.json", [[0.0, 0.0], [1.0, 0.0]])
    _exits_2(capsys, ["gram", "--kernel", kernel, "--points", points], "sigma: int too large")


def test_orbit_with_a_huge_angle_exits_2(tmp_path, capsys):
    config = {"space": {"kind": "circle"}, "action_kind": "circle_rotation", "parameters": {"angle": HUGE}}
    phi = _write(tmp_path, "m.json", config)
    points = _write(tmp_path, "p.json", [0.0, 2.0])
    _exits_2(capsys, ["orbit", "--map", phi, "--points", points], "angle: int too large")


def test_verify_config_with_a_huge_min_sep_exits_2(tmp_path, capsys):
    config = _write(tmp_path, "cfg.json", {"min_sep": HUGE})
    _exits_2(capsys, ["verify", "circle-example1", "--config", config], "min_sep")


def test_fourier_analyze_with_a_huge_value_exits_2(tmp_path, capsys):
    values = _write(tmp_path, "psi.json", [HUGE, 0])
    _exits_2(capsys, ["fourier", "analyze", "--group", "2", "--input", values], "complex_from_json")


# Valid inputs for the mutation property: (argv with {file} placeholders,
# files, the file to mutate). Generated integers stay small, so that no
# mutation is a well-formed request for an enormous computation.
MUTATION_CASES = [
    (["gram", "--kernel", "{k}", "--points", "{p}"], {"k": CIRCLE_GRID, "p": [0.0, 1.0, 2.5]}, "k"),
    (["gram", "--kernel", "{k}", "--points", "{p}"], {"k": CIRCLE_GRID, "p": [0.0, 1.0, 2.5]}, "p"),
    (
        ["gram", "--kernel", "{k}", "--points", "{p}"],
        {
            "k": {"form": "gaussian", "space": {"kind": "euclidean", "dim": 2}, "sigma": 0.5},
            "p": {"points": [[0.0, 0.0], [1.0, 0.5]]},
        },
        "p",
    ),
    (
        ["orbit", "--map", "{m}", "--points", "{p}"],
        {
            "m": {
                "space": {"kind": "euclidean", "dim": 1},
                "action_kind": "euclidean_translation",
                "parameters": {"offset": [1.0]},
                "adjoint": "inverse",
            },
            "p": [[0.0], [1.0], [5.0]],
        },
        "m",
    ),
    (
        ["fourier", "synthesize", "--group", "2,3", "--input", "{s}"],
        {"s": {"group": [2, 3], "coefficients": [0.5, 0.25, 0.125, 1.0, 0.75, 0.0625]}},
        "s",
    ),
    (
        ["fourier", "synthesize", "--group", "2", "--input", "{s}"],
        {"s": {"coefficients": [[[[1.0, 0.0], [0.5, 0.5]], [[0.5, -0.5], [1.0, 0.0]]], [[1, 0], [0, 1]]]}},
        "s",
    ),
    (["fourier", "analyze", "--group", "2,2", "--input", "{v}"], {"v": [[2.0, 0.0], 0.5, [0.5, 0.1], 1.0]}, "v"),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


# A key that no document of MUTATION_CASES has as a field.
STRAY_KEY = "stray"


@st.composite
def mutated_inputs(draw):
    """A valid case with one value of one document replaced or deleted, or
    with a key that names no field inserted into one of its objects, and
    the kind of that mutation."""
    argv, files, target = draw(st.sampled_from(MUTATION_CASES))
    files = copy.deepcopy(files)
    objects = [p for p in _paths(files[target]) if isinstance(_at(files[target], p), dict)]
    if objects and draw(st.booleans()):
        _at(files[target], draw(st.sampled_from(objects)))[STRAY_KEY] = draw(JSON_VALUES)
        return argv, files, "insert"
    path = draw(st.sampled_from(list(_paths(files[target]))))
    if not path:
        files[target] = draw(JSON_VALUES)
        return argv, files, "replace"
    parent = _at(files[target], path[:-1])
    if draw(st.booleans()):
        del parent[path[-1]]
        return argv, files, "delete"
    parent[path[-1]] = draw(JSON_VALUES)
    return argv, files, "replace"


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@given(mutated_inputs())
@settings(max_examples=500, deadline=None)
def test_mutated_documents_exit_0_or_2(case):
    argv, files, kind = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, payload in files.items():
            paths["{" + name + "}"] = str(Path(tmp) / f"{name}.json")
            Path(paths["{" + name + "}"]).write_text(json.dumps(payload))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    if kind == "insert":
        assert code == 2
        assert repr(STRAY_KEY) in err.getvalue()
    else:
        assert code in (0, 2)
