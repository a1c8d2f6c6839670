"""One table of malformed numbers, run through every reader of a number: suite
configs, each public ``*_from_json`` decoder, point lists on each space, and the
CLI. Each refusal is a ``ConfigError`` (exit 2 on the CLI, without a traceback)
whose message names the field as the document spells it."""

import contextlib
import io
import json
import math

import pytest

from kernelcex import serialize
from kernelcex.cli import main
from kernelcex.errors import ConfigError
from kernelcex.harness import SuiteConfig
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian

# (id, value, the field types that refuse it). An integral float is an
# integer, and an int beyond the float range is refused only as a float.
MALFORMED = [
    ("non-integral", 2.5, {int}),
    ("string", "2", {int, float}),
    ("bool", True, {int, float}),
    ("nan", math.nan, {int, float}),
    ("infinity", math.inf, {int, float}),
    ("-infinity", -math.inf, {int, float}),
    ("huge", 10**400, {float}),
]

CIRCLE = {"kind": "circle"}
PLANE = {"kind": "euclidean", "dim": 2}
Z4 = {"kind": "finite_abelian", "orders": [4]}
CIRCLE_KERNEL = {"form": "circle_exp_cos", "space": CIRCLE}
PLANE_GAUSSIAN = {"form": "gaussian", "space": PLANE}
GROUP_KERNEL = {"form": "group_fourier", "space": Z4, "coefficients": [1.0, 0.5, 0.25, 0.125]}


def _rotation(angle):
    return {"space": CIRCLE, "action_kind": "circle_rotation", "parameters": {"angle": angle}}


CIRCLE_GRID = {"variant": "unitary", "base": CIRCLE_KERNEL, "map": _rotation(1.0)}
SHIFTED_DOT = {
    "variant": "shifted_adjoint",
    "base": {"form": "dot_exp", "space": PLANE},
    "map": {"space": PLANE, "action_kind": "euclidean_scaling", "parameters": {"ratio": 2.0}},
}


def _config(field, value, suite="negative-controls"):
    return SuiteConfig.from_dict({"suite": suite, field: value})


def _map(action_kind, space, **parameters):
    return serialize.map_from_json({"space": space, "action_kind": action_kind, "parameters": parameters})


# Every reader of a number: id -> (field type, the field its error names, a
# call that decodes the value v in place). An id starts with the reader.
DECODER_SITES = {
    **{
        f"SuiteConfig.from_dict-{name}": (int, name, lambda v, name=name: _config(name, v))
        for name in ("seed", "n_points", "trials", "projection_trials", "m_max", "probes",
                     "orbit_instances", "spectra")
    },
    **{
        f"SuiteConfig.from_dict-{name}": (float, name, lambda v, name=name: _config(name, v))
        for name in ("min_sep", "radius", "pd_tol", "resid_tol", "strict_tol")
    },
    "SuiteConfig.from_dict-group": (int, "group", lambda v: _config("group", [2, v], "abelian-roundtrip")),
    "space_from_json-dim": (int, "dim", lambda v: serialize.space_from_json({"kind": "euclidean", "dim": v})),
    "space_from_json-orders": (
        int, "orders", lambda v: serialize.space_from_json({"kind": "finite_abelian", "orders": [v, 3]})
    ),
    "space_from_json-eq_tol": (float, "eq_tol", lambda v: serialize.space_from_json({**CIRCLE, "eq_tol": v})),
    "scalar_kernel_from_json-sigma": (
        float, "sigma", lambda v: serialize.scalar_kernel_from_json({**PLANE_GAUSSIAN, "sigma": v})
    ),
    "scalar_kernel_from_json-space-dim": (
        int, "space: dim",
        lambda v: serialize.scalar_kernel_from_json({**PLANE_GAUSSIAN, "space": {**PLANE, "dim": v}}),
    ),
    "scalar_kernel_from_json-shift": (
        float, "shift", lambda v: serialize.scalar_kernel_from_json({"form": "dot_exp", "space": PLANE, "shift": v})
    ),
    "scalar_kernel_from_json-coefficients": (
        float, "coefficients",
        lambda v: serialize.scalar_kernel_from_json({**GROUP_KERNEL, "coefficients": [1.0, [0.5, v], 0.25, 0.0]}),
    ),
    "map_from_json-angle": (float, "angle", lambda v: serialize.map_from_json(_rotation(v))),
    "map_from_json-offset": (float, "offset", lambda v: _map("euclidean_translation", PLANE, offset=[1.0, v])),
    "map_from_json-ratio": (float, "ratio", lambda v: _map("euclidean_scaling", PLANE, ratio=v)),
    "map_from_json-element": (int, "element", lambda v: _map("group_translation", Z4, element=[v])),
    "matrix_kernel_from_json-ell": (
        int, "ell",
        lambda v: serialize.matrix_kernel_from_json(
            {"space": CIRCLE, "ell": v, "entries": [[CIRCLE_KERNEL] * 2] * 2}
        ),
    ),
    "counterexample_from_json-ell": (
        int, "ell", lambda v: serialize.counterexample_from_json({**CIRCLE_GRID, "ell": v})
    ),
    "counterexample_from_json-origin": (
        float, "coordinates", lambda v: serialize.counterexample_from_json({**SHIFTED_DOT, "origin": [0.0, v]})
    ),
    "kernel_from_json-ell": (int, "ell", lambda v: serialize.kernel_from_json({**CIRCLE_GRID, "ell": v})),
    "spectrum_from_json-group": (
        int, "group", lambda v: serialize.spectrum_from_json({"group": [v], "coefficients": [0.5, 0.5]})
    ),
    "spectrum_from_json-coefficients": (
        float, "coefficients", lambda v: serialize.spectrum_from_json({"group": [2], "coefficients": [0.5, v]})
    ),
    "spectrum_from_json-analysis_residual": (
        float, "analysis_residual",
        lambda v: serialize.spectrum_from_json({"group": [2], "coefficients": [0.5, 0.5], "analysis_residual": v}),
    ),
    "complex_from_json-pair": (float, "complex_from_json", lambda v: serialize.complex_from_json([1.0, v])),
    "matrix_from_json-entry": (float, "complex_from_json", lambda v: serialize.matrix_from_json([[1.0, v]])),
    "point_from_json-circle": (float, "circle angle", lambda v: serialize.point_from_json(Circle(), v)),
    "point_from_json-euclidean": (float, "coordinates", lambda v: serialize.point_from_json(Euclidean(2), [v, 0.0])),
    "point_from_json-complex-sphere": (
        float, "coordinates", lambda v: serialize.point_from_json(ComplexSphere(1), [[1.0, v]])
    ),
    "point_from_json-group": (int, "group element", lambda v: serialize.point_from_json(FiniteAbelian((4,)), v)),
    "point_from_json-group-pair": (
        int, "group element", lambda v: serialize.point_from_json(FiniteAbelian((2, 3)), [1, v])
    ),
}


def _cases(sites):
    return [
        pytest.param(site, value, id=f"{site_id}-{value_id}")
        for site_id, site in sites.items()
        for value_id, value, refused_by in MALFORMED
        if site[0] in refused_by
    ]


def test_the_table_reaches_every_public_decoder():
    public = {n for n in dir(serialize) if n.endswith("_from_json") and not n.startswith("_")}
    assert {site_id.split("-")[0] for site_id in DECODER_SITES} == public | {"SuiteConfig.from_dict"}


@pytest.mark.parametrize("site, value", _cases(DECODER_SITES))
def test_a_malformed_number_is_a_config_error_naming_its_field(site, value):
    _, field, decode = site
    with pytest.raises(ConfigError) as info:
        decode(value)
    assert f"{field}: " in str(info.value)


@pytest.mark.parametrize("site_id", DECODER_SITES)
def test_each_site_takes_a_well_formed_number(site_id):
    # So that a refusal above is the value's, not the document's.
    if site_id.endswith(("eq_tol", "origin", "complex-sphere")):
        good = 0.0
    elif site_id.endswith(("pd_tol", "resid_tol")):
        good = 0.5  # a relative tolerance, in (0, 1)
    else:
        good = 2
    DECODER_SITES[site_id][2](good)


def test_an_integral_float_is_an_integer_everywhere():
    config = SuiteConfig.from_dict({"suite": "abelian-roundtrip", "trials": 2.0, "seed": 7.0, "group": [2.0, 3]})
    assert config == SuiteConfig(suite="abelian-roundtrip", trials=2, seed=7, group=(2, 3))
    assert type(config.trials) is int and type(config.seed) is int
    assert serialize.counterexample_from_json({**CIRCLE_GRID, "ell": 3.0}).as_matrix.ell == 3
    assert serialize.spectrum_from_json({"group": [2.0], "coefficients": [1, 0.5]}).group == FiniteAbelian((2,))
    assert serialize.point_from_json(FiniteAbelian((2, 3)), [1.0, 5]) == (1, 2)
    assert serialize.point_from_json(FiniteAbelian((4,)), 6) == (2,)


def test_a_lone_number_for_a_config_group_is_a_config_error():
    with pytest.raises(ConfigError, match="group"):
        _config("group", 6, "abelian-roundtrip")


GRAM = ["gram", "--kernel", "{k}", "--points", "{p}"]
ORBIT = ["orbit", "--map", "{m}", "--points", "{p}"]
SYNTHESIZE = ["fourier", "synthesize", "--group", "2", "--input", "{s}"]

# id -> (field type, the field its error names, argv with {file} placeholders,
# the files given the value v, a well-formed value).
CLI_SITES = {
    "verify-trials": (int, "trials", ["verify", "negative-controls", "--config", "{c}"],
                      lambda v: {"c": {"trials": v}}, 1),
    "verify-pd_tol": (float, "pd_tol", ["verify", "negative-controls", "--config", "{c}"],
                      lambda v: {"c": {"pd_tol": v}}, 1e-10),
    "verify-group": (int, "group", ["verify", "abelian-roundtrip", "--config", "{c}"],
                     lambda v: {"c": {"group": [2, v], "spectra": 3}}, 3),
    "gram-sigma": (float, "sigma", GRAM,
                   lambda v: {"k": {**PLANE_GAUSSIAN, "sigma": v}, "p": [[0.0, 0.0], [1.0, 0.0]]}, 0.5),
    "gram-ell": (int, "ell", GRAM, lambda v: {"k": {**CIRCLE_GRID, "ell": v}, "p": [0.0, 1.0]}, 3),
    "gram-circle-points": (float, "circle angle", GRAM, lambda v: {"k": CIRCLE_KERNEL, "p": [v, 1.0]}, 0.5),
    "gram-euclidean-points": (float, "coordinates", GRAM,
                              lambda v: {"k": PLANE_GAUSSIAN, "p": [[v, 0.0], [0.0, 0.0]]}, 1),
    "gram-group-points": (int, "group element", GRAM, lambda v: {"k": GROUP_KERNEL, "p": [v, 2]}, 1),
    "orbit-angle": (float, "angle", ORBIT, lambda v: {"m": _rotation(v), "p": [0.0, 2.0]}, 1.0),
    "orbit-points": (float, "circle angle", ORBIT, lambda v: {"m": _rotation(1.0), "p": [0.0, v]}, 2.5),
    "analyze-values": (float, "complex_from_json", ["fourier", "analyze", "--group", "2", "--input", "{v}"],
                       lambda v: {"v": [v, 0.5]}, 1.0),
    "synthesize-coefficients": (float, "coefficients", SYNTHESIZE,
                                lambda v: {"s": {"coefficients": [0.5, v]}}, 0.75),
    "synthesize-analysis_residual": (
        float, "analysis_residual", SYNTHESIZE,
        lambda v: {"s": {"coefficients": [0.5, 0.25], "analysis_residual": v}}, 0.0,
    ),
    "synthesize-group": (int, "group", SYNTHESIZE, lambda v: {"s": {"group": [v], "coefficients": [0.5, 0.25]}}, 2),
}


def _run(tmp_path, argv, files):
    paths = {}
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths["{" + name + "}"] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("site, value", _cases(CLI_SITES))
def test_a_malformed_number_exits_2_naming_its_field(tmp_path, site, value):
    _, field, argv, files, _ = site
    code, err = _run(tmp_path, argv, files(value))
    assert code == 2
    assert "Traceback" not in err
    assert f"{field}: " in err


@pytest.mark.parametrize("site_id", CLI_SITES)
def test_each_cli_site_takes_a_well_formed_number(tmp_path, site_id):
    _, _, argv, files, good = CLI_SITES[site_id]
    assert _run(tmp_path, argv, files(good)) == (0, "")


# Inputs each command once read as some other number, or as NaN, and exited 0 on.
MISREAD = [
    pytest.param(["fourier", "analyze", "--group", "2", "--input", "{v}"], {"v": [math.nan, 0.5]},
                 "complex_from_json", id="analyze-nan"),
    pytest.param(SYNTHESIZE, {"s": {"coefficients": ["0.5", True]}}, "coefficients", id="synthesize-coefficients"),
    pytest.param(SYNTHESIZE, {"s": {"coefficients": [0.5, 0.5], "analysis_residual": "0.1"}},
                 "analysis_residual", id="synthesize-residual"),
    pytest.param(SYNTHESIZE, {"s": {"group": [2.5], "coefficients": [0.5, 0.5]}}, "group", id="synthesize-group"),
    *(
        pytest.param(GRAM, {"k": {**CIRCLE_GRID, "ell": ell}, "p": [0.0, 1.0]}, "ell", id=f"gram-ell-{ell}")
        for ell in (3.7, 2.5, "3")
    ),
    pytest.param(GRAM, {"k": CIRCLE_KERNEL, "p": ["0.5", True]}, "circle angle", id="gram-circle-points"),
    pytest.param(GRAM, {"k": PLANE_GAUSSIAN, "p": [["1", "2"], ["0", "0"]]}, "coordinates",
                 id="gram-euclidean-points"),
    pytest.param(GRAM, {"k": GROUP_KERNEL, "p": [True, 2]}, "group element", id="gram-group-points"),
    pytest.param(ORBIT, {"m": _rotation(math.inf), "p": [0.0, 2.0]}, "angle", id="orbit-infinite-angle"),
]


@pytest.mark.parametrize("argv, files, field", MISREAD)
def test_a_misread_input_exits_2_naming_its_field(tmp_path, argv, files, field):
    code, err = _run(tmp_path, argv, files)
    assert code == 2
    assert "Traceback" not in err
    assert f"{field}: " in err
