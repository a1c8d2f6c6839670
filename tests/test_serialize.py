import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcex.counterexample import build_shifted, build_unitary, embed
from kernelcex.errors import ConfigError
from kernelcex.fourier import FourierSpectrum
from kernelcex import serialize
from kernelcex.kernels import (
    CircleExpCos,
    Composed,
    DotExp,
    Gaussian,
    GroupFourier,
    OffsetKernel,
    TorusProduct,
    ZeroKernel,
)
from kernelcex.serialize import (
    complex_to_json,
    counterexample_from_json,
    counterexample_to_json,
    dumps,
    kernel_from_json,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    point_from_json,
    point_to_json,
    scalar_kernel_from_json,
    scalar_kernel_to_json,
    space_from_json,
    space_to_json,
    spectrum_from_json,
    spectrum_to_json,
)
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian
from kernelcex.symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
)


# One example per entry of each tag table; test_examples_cover_every_tag
# fails when a table gains a class without one. Field values differ from
# the defaults, so that a dropped default shows.
SPACES = [Circle(eq_tol=1e-8), Euclidean(3, eq_tol=1e-7), ComplexSphere(2, eq_tol=1e-6), FiniteAbelian((2, 3))]
MAPS = [
    CircleRotation(Circle(), 1.0),
    EuclideanTranslation(Euclidean(2), (1.0, -0.5), adjoint_kind="inverse"),
    EuclideanScaling(Euclidean(2), 2.0),
    ComplexSphereRotation(ComplexSphere(2), 0.7),
    GroupTranslation(FiniteAbelian((2, 3)), (1, 2)),
    EuclideanTranslation(Euclidean(1), (2.5,)),
]
KERNELS = [
    CircleExpCos(Circle()),
    Gaussian(Euclidean(3), sigma=0.5),
    # DotExp and TorusProduct declare a union of spaces; each member round-trips.
    DotExp(ComplexSphere(2), scale=0.5),
    DotExp(Euclidean(2), scale=2.0, shift=1.0),
    OffsetKernel(DotExp(Euclidean(2)), -1.0),
    Composed(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0), None),
    TorusProduct(Circle(eq_tol=1e-8)),
    TorusProduct(Euclidean(2)),
    GroupFourier(FiniteAbelian((2, 2)), (1.0, 0.5 + 0.25j, 0.25, 0.0)),
    ZeroKernel(ComplexSphere(2)),
    Composed(Gaussian(Euclidean(2)), None, EuclideanScaling(Euclidean(2), 2.0)),
    Composed(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0), CircleRotation(Circle(), -0.5)),
]
TABLES = [
    (SPACES, serialize._SPACES, "kind", space_to_json),
    (MAPS, serialize._MAPS, "action_kind", map_to_json),
    (KERNELS, serialize._KERNELS, "form", scalar_kernel_to_json),
]


@pytest.mark.parametrize("examples, table, key, encode", TABLES, ids=["space", "map", "kernel"])
def test_examples_cover_every_tag(examples, table, key, encode):
    assert {type(obj) for obj in examples} == set(table.values())
    for obj in examples:
        assert table[encode(obj)[key]] is type(obj)


@pytest.mark.parametrize("space", SPACES)
def test_space_roundtrip(space):
    assert space_from_json(space_to_json(space)) == space


def test_point_roundtrips():
    circle = Circle()
    assert point_from_json(circle, point_to_json(circle, 7.0)) == circle.canonicalize(7.0)
    plane = Euclidean(2)
    np.testing.assert_allclose(
        point_from_json(plane, point_to_json(plane, (0.5, -1.0))), [0.5, -1.0]
    )
    sphere = ComplexSphere(2)
    x = np.array([0.6 + 0.8j, 0.0])
    np.testing.assert_allclose(point_from_json(sphere, point_to_json(sphere, x)), x)
    group = FiniteAbelian((2, 3))
    assert point_from_json(group, point_to_json(group, (1, 5))) == (1, 2)


def test_complex_matrix_roundtrip():
    m = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, -1.0]])
    np.testing.assert_allclose(matrix_from_json(matrix_to_json(m)), m)


@pytest.mark.parametrize("phi", MAPS)
def test_map_roundtrip(phi):
    assert map_from_json(map_to_json(phi)) == phi


@pytest.mark.parametrize("kernel", KERNELS)
def test_scalar_kernel_roundtrip(kernel):
    assert scalar_kernel_from_json(scalar_kernel_to_json(kernel)) == kernel


def _field_cases():
    """(decoder, example, document, field) for every field of the last
    example of each space and kernel class."""
    for decode, examples, encode in (
        (space_from_json, SPACES, space_to_json),
        (scalar_kernel_from_json, KERNELS, scalar_kernel_to_json),
    ):
        for obj in {type(obj): obj for obj in examples}.values():
            for field in dataclasses.fields(obj):
                yield pytest.param(
                    decode, obj, encode(obj), field, id=f"{type(obj).__name__}-{field.name}"
                )


@pytest.mark.parametrize("decode, obj, doc, field", list(_field_cases()))
def test_left_out_field_takes_its_default_or_is_required(decode, obj, doc, field):
    del doc[field.name]
    if field.default is dataclasses.MISSING:
        with pytest.raises(ConfigError, match=f"KeyError: '{field.name}'"):
            decode(doc)
    else:
        assert decode(doc) == dataclasses.replace(obj, **{field.name: field.default})


@pytest.mark.parametrize("phi", MAPS)
def test_every_map_parameter_is_required(phi):
    doc = map_to_json(phi)
    assert doc["parameters"]
    for name in list(doc["parameters"]):
        params = {k: v for k, v in doc["parameters"].items() if k != name}
        with pytest.raises(ConfigError, match=f"KeyError: '{name}'"):
            map_from_json({**doc, "parameters": params})


def test_offset_is_a_float_on_a_kernel_and_a_tuple_on_a_translation():
    kernel = scalar_kernel_from_json(
        {"form": "offset", "base": {"form": "dot_exp", "space": {"kind": "euclidean", "dim": 1}},
         "offset": 2}
    )
    assert kernel.offset == 2.0 and isinstance(kernel.offset, float)
    phi = map_from_json(
        {"space": {"kind": "euclidean", "dim": 1}, "action_kind": "euclidean_translation",
         "parameters": {"offset": [2]}}
    )
    assert phi.offset == (2.0,)


def test_composed_reads_a_null_map_as_none():
    base = {"form": "circle_exp_cos", "space": {"kind": "circle"}}
    doc = {"form": "composed", "base": base, "left": None, "right": None}
    assert scalar_kernel_from_json(doc) == Composed(CircleExpCos(Circle()), None, None)


@pytest.mark.parametrize("falsy", [0, False, "", [], {}], ids=["0", "false", "empty-str", "empty-list", "empty-dict"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_composed_rejects_a_falsy_map(side, falsy):
    doc = scalar_kernel_to_json(Composed(CircleExpCos(Circle()), None, None))
    doc[side] = falsy
    with pytest.raises(ConfigError):
        scalar_kernel_from_json(doc)


def test_map_without_adjoint_roundtrips():
    phi = EuclideanTranslation(Euclidean(1), (2.5,))
    doc = map_to_json(phi)
    assert doc["adjoint"] is None
    del doc["adjoint"]
    assert map_from_json(doc) == phi


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "euclidean", "dim": 2.7},
        {"kind": "euclidean", "dim": "3"},
        {"kind": "euclidean", "dim": True},
        {"kind": "euclidean", "dim": 2, "eq_tol": "1e-3"},
        {"kind": "euclidean", "dim": 2, "eq_tol": False},
        {"kind": "finite_abelian", "orders": [2.5, 3]},
        {"kind": "finite_abelian", "orders": ["3"]},
        {"kind": "euclidean", "dim": math.nan},
        {"kind": "euclidean", "dim": 2, "eq_tol": math.inf},
        {"kind": "euclidean", "dim": 2, "eq_tol": 10**400},
    ],
    ids=["int-non-integral", "int-string", "int-bool", "float-string", "float-bool",
         "int-entry-non-integral", "int-entry-string", "int-nan", "float-infinity", "float-huge"],
)
def test_numeric_fields_reject_strings_bools_and_fractions(doc):
    # The error names the field as the document spells it.
    field = "orders" if "orders" in doc else "eq_tol" if "eq_tol" in doc else "dim"
    with pytest.raises(ConfigError, match=f"^{field}: "):
        space_from_json(doc)


@pytest.mark.parametrize("kind", ["circle", "euclidean", "complex_sphere"])
@pytest.mark.parametrize("eq_tol", [math.nan, -1.0, -1e-12, math.inf])
def test_space_with_a_nan_negative_or_infinite_eq_tol_is_a_config_error(kind, eq_tol):
    doc = {"kind": kind, "eq_tol": eq_tol, **({} if kind == "circle" else {"dim": 2})}
    with pytest.raises(ConfigError, match="eq_tol"):
        space_from_json(doc)
    cls = type(space_from_json({**doc, "eq_tol": 0.0}))
    with pytest.raises(ConfigError, match="eq_tol"):
        cls(**{k: v for k, v in doc.items() if k != "kind"})


@pytest.mark.parametrize("value", [True, False, [False, True], [1.0, True], [True, 0.0], "1"])
def test_complex_from_json_rejects_booleans_and_strings(value):
    with pytest.raises(ConfigError, match="complex_from_json"):
        serialize.complex_from_json(value)


def test_group_fourier_with_boolean_coefficients_is_a_config_error():
    doc = {
        "form": "group_fourier",
        "space": {"kind": "finite_abelian", "orders": [2]},
        "coefficients": [True, [False, True]],
    }
    with pytest.raises(ConfigError):
        scalar_kernel_from_json(doc)
    doc["coefficients"] = [1, [0, 1]]
    assert scalar_kernel_from_json(doc).coefficients == (1 + 0j, 1j)


def test_numeric_fields_accept_ints_and_integral_floats():
    assert space_from_json({"kind": "euclidean", "dim": 2.0, "eq_tol": 1}) == Euclidean(2, eq_tol=1.0)
    assert space_from_json({"kind": "finite_abelian", "orders": [3.0, 2]}) == FiniteAbelian((3, 2))
    phi = map_from_json(
        {"space": {"kind": "euclidean", "dim": 1}, "action_kind": "euclidean_translation",
         "parameters": {"offset": 2}}
    )
    assert phi.offset == (2.0,)
    with pytest.raises(ConfigError):
        map_from_json({**map_to_json(phi), "parameters": {"offset": "2"}})


@pytest.mark.parametrize(
    "name", sorted(n for n in dir(serialize) if n.endswith("_from_json") and not n.startswith("_"))
)
def test_every_public_decoder_fails_closed(name):
    assert hasattr(getattr(serialize, name), "__wrapped__"), f"{name} is not wrapped by _decoder"


def test_counterexample_roundtrip_unitary():
    cex = build_unitary(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0))
    rebuilt = counterexample_from_json(counterexample_to_json(cex))
    assert rebuilt.as_matrix == cex.as_matrix


def test_counterexample_roundtrip_shifted():
    plane = Euclidean(2)
    cex = build_shifted(DotExp(plane), EuclideanScaling(plane, 2.0), (0.0, 0.0))
    config = counterexample_to_json(cex)
    rebuilt = counterexample_from_json(config)
    x, y = np.array([0.3, 0.4]), np.array([-0.2, 1.0])
    np.testing.assert_allclose(rebuilt.as_matrix.eval(x, y), cex.as_matrix.eval(x, y))


def test_counterexample_config_with_embedding():
    cex = build_unitary(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0))
    config = counterexample_to_json(cex)
    config["ell"] = 3
    padded = counterexample_from_json(config).as_matrix
    assert padded.ell == 3
    # default filler is the base kernel
    assert padded.entries[2][2] == CircleExpCos(Circle())


@pytest.mark.parametrize("ell", [3, 4])
def test_counterexample_roundtrip_keeps_the_embedding(ell):
    plane = Euclidean(2)
    cex = build_unitary(Gaussian(plane), EuclideanTranslation(plane, (1.0, 0.0)))
    filler = Gaussian(plane, sigma=0.5)
    embedded = dataclasses.replace(cex, as_matrix=embed(cex.as_matrix, ell, filler))
    config = json.loads(dumps(counterexample_to_json(embedded)))
    assert config["ell"] == ell
    assert config["filler"] == scalar_kernel_to_json(filler)
    rebuilt = counterexample_from_json(config)
    assert rebuilt.as_matrix == embedded.as_matrix
    assert counterexample_to_json(rebuilt) == config


def test_kernel_from_json_dispatch():
    scalar = kernel_from_json(scalar_kernel_to_json(CircleExpCos(Circle())))
    assert scalar == CircleExpCos(Circle())
    cex = build_unitary(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0))
    matrix = kernel_from_json(counterexample_to_json(cex))
    assert matrix.ell == 2
    with pytest.raises(ConfigError):
        kernel_from_json({})


def test_spectrum_roundtrip_scalar_and_matrix():
    group = FiniteAbelian((2, 2))
    scalar = FourierSpectrum(group=group, coefficients=np.array([1.0, 0.5, 0.25, 0.0]))
    back = spectrum_from_json(spectrum_to_json(scalar))
    np.testing.assert_allclose(back.coefficients, scalar.coefficients)
    rng = np.random.default_rng(0)
    stack = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    stack = 0.5 * (stack + np.conj(np.transpose(stack, (0, 2, 1))))
    matrix = FourierSpectrum(group=group, coefficients=stack)
    back = spectrum_from_json(spectrum_to_json(matrix))
    np.testing.assert_allclose(back.coefficients, stack)


def test_map_without_adjoint_key_decodes_to_no_adjoint():
    data = {"space": {"kind": "circle"}, "action_kind": "circle_rotation", "parameters": {"angle": 1.0}}
    phi = map_from_json(data)
    assert phi == CircleRotation(Circle(), 1.0, adjoint_kind=None)
    assert phi.adjoint is None


@pytest.mark.parametrize(
    "data",
    [
        # a missing parameter never falls back to the dataclass default
        {"space": {"kind": "circle"}, "action_kind": "circle_rotation", "parameters": {}},
        {"space": {"kind": "circle"}, "action_kind": "circle_rotation"},
        {"space": {"kind": "circle"}, "action_kind": "circle_rotation", "parameters": {"angle": "a"}},
        {"space": {"kind": "euclidean", "dim": 2}, "action_kind": "euclidean_scaling",
         "parameters": {"ratio": 2.0}, "adjoint": "sideways"},
        {"space": {"kind": "circle"}, "action_kind": "reflection", "parameters": {}},
    ],
)
def test_malformed_map_raises_config_error(data):
    with pytest.raises(ConfigError, match="map_from_json|action kind|angle: expected a number"):
        map_from_json(data)


@pytest.mark.parametrize(
    "decode, data",
    [
        (space_from_json, {"kind": "euclidean"}),
        (scalar_kernel_from_json, {"form": "gaussian", "space": {"kind": "circle"}, "sigma": [1]}),
        (matrix_from_json, [[[1.0, 2.0, 3.0]]]),
        (spectrum_from_json, {"coefficients": [1.0]}),
        (counterexample_from_json, []),
    ],
)
def test_decoders_report_malformed_documents_as_config_errors(decode, data):
    # A refused field value names the field instead of the decoder.
    with pytest.raises(ConfigError, match=r"_from_json: malformed input|^sigma: expected a number"):
        decode(data)


# ---------------------------------------------------------------------------
# dumps against json.dumps(indent=2, sort_keys=True)


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _assert_same_or_both_type_error(doc):
    try:
        want = _reference(doc)
    except TypeError:
        with pytest.raises(TypeError):
            dumps(doc)
        return
    assert dumps(doc) == want


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1.5, math.nan, math.inf, -math.inf]
# Non-ASCII text, control characters, quotes, backslashes and surrogates.
TEXT = st.text(st.characters(exclude_categories=()), max_size=8) | st.sampled_from(
    ["", "\u00e9t\u00e9", '"q"', "back\\slash", "\n\t\x00", "\ud800", "\U0001f600", "\u2028"]
)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from(SPECIAL_FLOATS)
    | st.builds(np.float64, st.floats(allow_nan=True, allow_infinity=True))
    | TEXT
)
# Types json rejects; each must make both encoders raise TypeError.
UNSERIALIZABLE = st.sampled_from([object(), {1, 2}, np.int64(3), np.float32(0.5), b"bytes", 1j])
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=25,
)


@given(DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_dumps_matches_json(doc):
    assert dumps(doc) == _reference(doc)


@given(
    st.recursive(
        LEAVES | UNSERIALIZABLE,
        lambda children: st.lists(children, max_size=3) | st.dictionaries(TEXT, children, max_size=3),
        max_leaves=10,
    )
)
@settings(max_examples=200, deadline=None)
def test_dumps_matches_json_or_both_raise_type_error(doc):
    _assert_same_or_both_type_error(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {1: "int", 2.5: "float", -3: "negative"},
        {True: 1, False: 0},
        {None: "null"},
        {math.inf: 1, -math.inf: 2, 0.1: 3},
        {"a": 1, 2: "mixed keys do not sort"},
        {(1, 2): "tuple key"},
        {"x": {"nested": [(), [], {}, ("t",)]}},
        {"value": np.float64(0.1), "tiny": np.float64(5e-324), "nan": np.float64(math.nan)},
        [np.float64(-0.0), np.float64(1e16)],
        np.float64(2.0),
        "top-level \u00e9",
    ],
)
def test_dumps_matches_json_on_key_types_and_numpy_scalars(doc):
    _assert_same_or_both_type_error(doc)


def _nested_pairs(arr):
    """The parent encoder's form of a complex array."""
    if arr.ndim == 1:
        return [complex_to_json(z) for z in arr]
    if arr.ndim == 2:
        return matrix_to_json(arr)
    return [_nested_pairs(a) for a in arr]


@pytest.mark.parametrize(
    "shape", [(0, 0), (0, 3), (3, 0), (1, 1), (5, 7), (6,), (0,), (2, 3, 4), (2, 0, 3)]
)
@pytest.mark.parametrize("special", [None, -0.0, math.nan, math.inf])
def test_dumps_writes_complex_arrays_as_nested_pairs(shape, special):
    rng = np.random.default_rng(len(shape))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if special is not None and arr.size:
        arr.flat[0] = complex(special, -0.0)
        arr.flat[-1] = complex(1.0, -special)
    want = _nested_pairs(arr)
    assert dumps(arr) == _reference(want)
    assert dumps({"k": [arr, 1], "z": arr}) == _reference({"k": [want, 1], "z": want})


def test_dumps_writes_a_transposed_view_in_its_logical_order():
    arr = (np.arange(12.0) - 1j * np.arange(12.0)).reshape(3, 4)
    assert dumps(arr.T) == _reference(matrix_to_json(arr.T))


def test_dumps_rejects_a_real_array():
    with pytest.raises(TypeError):
        dumps({"values": np.zeros(3)})
