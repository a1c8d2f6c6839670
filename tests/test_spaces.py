import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcex.errors import SpaceMismatch, TooManyPoints, WrongSpaceKind
from kernelcex.spaces import (
    Circle,
    ComplexSphere,
    Euclidean,
    FiniteAbelian,
    group_elements,
    sample_distinct,
)


def test_circle_wraparound_identity():
    s = Circle()
    assert s.points_equal(0.0, 2 * math.pi - 1e-15)


def test_circle_canonical_range():
    s = Circle()
    for raw in (7.0, -9.0, 123.456):
        assert -math.pi <= s.canonicalize(raw) < math.pi


def test_euclidean_points_differ():
    s = Euclidean(2)
    assert not s.points_equal((0.0, 0.0), (0.0, 1.0))


def test_finite_abelian_equality_accepts_bare_int():
    s = FiniteAbelian((3,))
    assert s.points_equal(2, 2)
    assert s.points_equal(2, 5)  # mod 3
    assert not s.points_equal(2, 1)


def test_finite_abelian_rejects_non_integral_coordinates():
    s = FiniteAbelian((4, 3))
    for x in ([2.7, 0], (0, 0.5), np.array([1.5, 2.0]), [1, 1 + 1e-12]):
        with pytest.raises(SpaceMismatch, match="non-integral"):
            s.canonicalize(x)
    for x in ([6, -1], (np.int64(6), np.int32(2)), [2.0, 5.0], np.array([6.0, 2.0]), np.array([6, 2])):
        assert s.canonicalize(x) == (2, 2)
    assert FiniteAbelian((3,)).canonicalize(np.int64(5)) == (2,)


def test_complex_sphere_rejects_non_unit_points():
    s = ComplexSphere(2)
    with pytest.raises(SpaceMismatch):
        s.canonicalize([1.0, 1.0])
    s.canonicalize(np.array([1.0, 1.0]) / math.sqrt(2))


def test_sample_exhausts_finite_group():
    s = FiniteAbelian((2, 3))
    pts = sample_distinct(s, 6, seed=0)
    assert sorted(pts) == group_elements(s)
    with pytest.raises(TooManyPoints):
        sample_distinct(s, 7, seed=0)


def test_sample_circle_min_sep():
    s = Circle()
    pts = sample_distinct(s, 10, min_sep=0.05, seed=42)
    assert len(pts) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            assert s.distance(pts[i], pts[j]) > 0.05


def test_sample_single_point_is_vacuously_distinct():
    pts = sample_distinct(Euclidean(3), 1, seed=1)
    assert len(pts) == 1


def test_sample_is_deterministic_given_seed():
    a = sample_distinct(Euclidean(2), 5, min_sep=0.1, seed=7)
    b = sample_distinct(Euclidean(2), 5, min_sep=0.1, seed=7)
    np.testing.assert_array_equal(np.array(a), np.array(b))


@pytest.mark.parametrize(
    "orders,expected",
    [
        ((2,), [(0,), (1,)]),
        ((2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)]),
    ],
)
def test_group_elements_small(orders, expected):
    assert group_elements(FiniteAbelian(orders)) == expected


def test_group_elements_lexicographic_product():
    elems = group_elements(FiniteAbelian((3, 4)))
    assert len(elems) == 12
    assert elems == sorted(elems)
    assert len(set(elems)) == 12


def test_group_elements_wrong_space():
    with pytest.raises(WrongSpaceKind):
        group_elements(Circle())


@given(st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_circle_equality_reflexive_and_symmetric(a, b):
    s = Circle()
    assert s.points_equal(a, a)
    assert s.points_equal(a, b) == s.points_equal(b, a)


def test_sampled_points_pass_points_equal_false():
    for space in (Circle(), Euclidean(2), ComplexSphere(2)):
        pts = sample_distinct(space, 6, min_sep=0.2, seed=5)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert not space.points_equal(pts[i], pts[j])


@pytest.mark.parametrize(
    "operation",
    [
        lambda: Euclidean(2).stack(np.array([[1j, 0]])),
        lambda: Circle().canonicalize(np.complex128(2 + 1j)),
        lambda: Circle().stack(np.array([2 + 1j])),
        lambda: Euclidean(2).canonicalize(np.array([1j, 0])),
    ],
    ids=["euclidean-stack", "circle-canonicalize", "circle-stack", "euclidean-canonicalize"],
)
def test_complex_numpy_points_of_a_real_space_are_rejected(operation):
    # A cast to float would keep the real part and return a different point.
    with pytest.raises(SpaceMismatch):
        operation()
