import numpy as np
import pytest

from kernelcex.counterexample import build_shifted, build_unitary
from kernelcex.errors import ConfigError
from kernelcex.fourier import FourierSpectrum
from kernelcex.kernels import CircleExpCos, Composed, DotExp, Gaussian, OffsetKernel
from kernelcex.serialize import (
    counterexample_from_json,
    counterexample_to_json,
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


@pytest.mark.parametrize(
    "space",
    [Circle(), Euclidean(3), ComplexSphere(2), FiniteAbelian((2, 3))],
)
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


@pytest.mark.parametrize(
    "phi",
    [
        CircleRotation(Circle(), 1.0),
        EuclideanTranslation(Euclidean(2), (1.0, -0.5), adjoint_kind="inverse"),
        EuclideanScaling(Euclidean(2), 2.0),
        ComplexSphereRotation(ComplexSphere(2), 0.7),
        GroupTranslation(FiniteAbelian((2, 3)), (1, 2)),
    ],
)
def test_map_roundtrip(phi):
    assert map_from_json(map_to_json(phi)) == phi


@pytest.mark.parametrize(
    "kernel",
    [
        CircleExpCos(Circle()),
        Gaussian(Euclidean(3), sigma=0.5),
        DotExp(Euclidean(2), scale=2.0, shift=1.0),
        OffsetKernel(DotExp(Euclidean(2)), -1.0),
        Composed(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0), None),
    ],
)
def test_scalar_kernel_roundtrip(kernel):
    assert scalar_kernel_from_json(scalar_kernel_to_json(kernel)) == kernel


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
    with pytest.raises(ConfigError, match="map_from_json|action kind"):
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
    with pytest.raises(ConfigError, match=r"_from_json: malformed input"):
        decode(data)
