"""One table of the numeric parameters of the public constructors: the spaces,
kernels and maps the JSON codec names, ``MatrixKernel`` and ``FourierSpectrum``.
A NaN or an infinity in any of them is refused when the object is built, with a
typed error whose message names the parameter, as its JSON decoder refuses the
same value (``tests/test_number_rule.py``); so a Python-built object never
carries garbage to a later, unrelated failure."""

import math
import typing

import numpy as np
import pytest

from kernelcex import serialize
from kernelcex.errors import ConfigError, NonFiniteValue
from kernelcex.fourier import FourierSpectrum
from kernelcex.kernels import CircleExpCos, DotExp, Gaussian, GroupFourier, MatrixKernel, OffsetKernel
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, field_types
from kernelcex.symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
)

CIRCLE = Circle()
PLANE = Euclidean(2)
SPHERE = ComplexSphere(2)
Z2 = FiniteAbelian((2,))
Z4 = FiniteAbelian((4,))
EXPCOS = CircleExpCos(CIRCLE)

# (class, field) -> (a call that builds the object with the value v, the error
# type, the fragment of its message that names the field).
SITES = {
    (Circle, "eq_tol"): (lambda v: Circle(eq_tol=v), ConfigError, "eq_tol: "),
    (Euclidean, "dim"): (lambda v: Euclidean(v), ConfigError, "dim: "),
    (Euclidean, "eq_tol"): (lambda v: Euclidean(2, eq_tol=v), ConfigError, "eq_tol: "),
    (ComplexSphere, "dim"): (lambda v: ComplexSphere(v), ConfigError, "dim: "),
    (ComplexSphere, "eq_tol"): (lambda v: ComplexSphere(2, eq_tol=v), ConfigError, "eq_tol: "),
    (FiniteAbelian, "orders"): (lambda v: FiniteAbelian((v, 3)), ConfigError, "orders: "),
    (Gaussian, "sigma"): (lambda v: Gaussian(PLANE, v), ConfigError, "sigma: "),
    (DotExp, "scale"): (lambda v: DotExp(SPHERE, scale=v), ConfigError, "scale: "),
    (DotExp, "shift"): (lambda v: DotExp(PLANE, shift=v), ConfigError, "shift: "),
    (GroupFourier, "coefficients"): (
        lambda v: GroupFourier(Z4, (1.0, v, 0.25, 0.125)), ConfigError, "coefficients: "
    ),
    (OffsetKernel, "offset"): (lambda v: OffsetKernel(EXPCOS, v), ConfigError, "offset: "),
    (MatrixKernel, "ell"): (lambda v: MatrixKernel(CIRCLE, v, ((EXPCOS,) * 2,) * 2), ConfigError, "ell: "),
    (CircleRotation, "angle"): (lambda v: CircleRotation(CIRCLE, v), ConfigError, "angle: "),
    (EuclideanTranslation, "offset"): (lambda v: EuclideanTranslation(PLANE, (1.0, v)), ConfigError, "offset: "),
    (EuclideanScaling, "ratio"): (lambda v: EuclideanScaling(PLANE, v), ConfigError, "ratio: "),
    (ComplexSphereRotation, "angle"): (lambda v: ComplexSphereRotation(SPHERE, v), ConfigError, "angle: "),
    (GroupTranslation, "element"): (lambda v: GroupTranslation(Z4, (v,)), ConfigError, "element: "),
    (FourierSpectrum, "coefficients"): (
        lambda v: FourierSpectrum(Z2, np.array([0.5, v])), NonFiniteValue, "coefficient spectrum"
    ),
    (FourierSpectrum, "analysis_residual"): (
        lambda v: FourierSpectrum(Z2, np.array([0.5, 0.5]), analysis_residual=v), ConfigError, "analysis_residual: "
    ),
}

NON_FINITE = [("nan", math.nan), ("infinity", math.inf), ("-infinity", -math.inf)]


def _numeric(tp) -> bool:
    """Whether a declared field type holds numbers."""
    if typing.get_origin(tp) is tuple:
        return typing.get_args(tp)[0] in (int, float, complex)
    return tp in (int, float, np.ndarray)


def test_the_table_reaches_every_numeric_parameter():
    classes = [*serialize._SPACES.values(), *serialize._KERNELS.values(), *serialize._MAPS.values(),
               MatrixKernel, FourierSpectrum]
    numeric = {(cls, name) for cls in classes for name, tp in field_types(cls).items() if _numeric(tp)}
    assert numeric == set(SITES)


@pytest.mark.parametrize(
    "site, value",
    [pytest.param(SITES[key], value, id=f"{key[0].__name__}.{key[1]}-{value_id}")
     for key in SITES for value_id, value in NON_FINITE],
)
def test_a_non_finite_parameter_is_refused_at_construction_by_name(site, value):
    build, error, name = site
    with pytest.raises(error) as info:
        build(value)
    assert name in str(info.value)


@pytest.mark.parametrize("key", SITES, ids=[f"{cls.__name__}.{name}" for cls, name in SITES])
def test_each_site_takes_a_well_formed_number(key):
    # So that a refusal above is the value's, not the call's.
    SITES[key][0](2)


# The integer parameters. A bool, a non-integral number and a string are
# refused by name, as the JSON decoder refuses them ("dim: expected an
# integer"); an integral float or a numpy integer builds, stored as an int.
INTEGER_SITES = [(Euclidean, "dim"), (ComplexSphere, "dim"), (MatrixKernel, "ell")]
NOT_INTEGERS = [("true", True), ("false", False), ("2.5", 2.5), ("numpy-1.5", np.float64(1.5)), ("string", "2")]


@pytest.mark.parametrize(
    "key, value",
    [pytest.param(key, value, id=f"{key[0].__name__}.{key[1]}-{value_id}")
     for key in INTEGER_SITES for value_id, value in NOT_INTEGERS],
)
def test_a_bool_or_non_integral_count_is_refused_at_construction_by_name(key, value):
    build, error, name = SITES[key]
    with pytest.raises(error, match=f"^{name}must be an integer of at least 1"):
        build(value)


@pytest.mark.parametrize("key", INTEGER_SITES, ids=[f"{cls.__name__}.{name}" for cls, name in INTEGER_SITES])
@pytest.mark.parametrize("value", [2.0, np.int64(2)], ids=["float", "numpy-int"])
def test_an_integral_count_is_stored_as_an_int(key, value):
    cls, field = key
    built = SITES[key][0](value)
    assert type(getattr(built, field)) is int and built == SITES[key][0](2)
