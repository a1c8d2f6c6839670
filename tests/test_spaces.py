import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcex.errors import ConfigError, SpaceMismatch, TooLarge, TooManyPoints
from kernelcex.spaces import (
    MAX_TABLE_ORDER,
    Circle,
    ComplexSphere,
    Euclidean,
    FiniteAbelian,
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
    assert sorted(pts) == s.elements()
    with pytest.raises(TooManyPoints):
        sample_distinct(s, 7, seed=0)


def test_sample_circle_min_sep():
    s = Circle()
    pts = sample_distinct(s, 10, min_sep=0.05, seed=42)
    assert len(pts) == 10
    for i in range(10):
        for j in range(i + 1, 10):
            assert s.distance(pts[i], pts[j]) > 0.05


@pytest.mark.parametrize(
    "space, n, min_sep, field",
    [(Circle(), -1, 0.1, "n"), (FiniteAbelian((2, 3)), -1, 0.1, "n"),
     (Circle(), 2, 0.0, "min_sep"), (Euclidean(2), 2, -1.0, "min_sep"),
     (Circle(), 2.5, 0.1, "n"), (FiniteAbelian((2, 3)), 2.5, 0.1, "n"), (Circle(), 2, math.nan, "min_sep")],
)
def test_sample_distinct_refuses_a_bad_request_naming_its_field(space, n, min_sep, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        sample_distinct(space, n, min_sep=min_sep, seed=0)


def _rejection_loop(space, n, min_sep, seed):
    """The loop ``sample_distinct`` ran before it drew through the separated-point
    search: one draw and one distance test per attempt, for at most 1000 n
    attempts (None if those did not place n points)."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(1000 * max(n, 1)):
        if len(points) == n:
            break
        cand = space.canonicalize(space.random_point(rng))
        if all(space.distance(cand, p) > min_sep for p in points):
            points.append(cand)
    return points if len(points) == n else None


# Every continuous request the tests make of sample_distinct: (space, n, min_sep).
SAMPLED = [
    (Circle(), 6, 0.35), (Circle(), 5, 0.3), (Circle(), 12, 0.25), (Circle(), 10, 0.05),
    (Circle(), 6, 0.2), (Euclidean(3), 12, 0.4), (Euclidean(2), 12, 0.3), (Euclidean(3), 1, 1e-3),
    (Euclidean(2), 5, 0.1), (Euclidean(2), 6, 0.2), (ComplexSphere(2), 6, 0.2),
]


@pytest.mark.parametrize("space, n, min_sep", SAMPLED)
def test_sample_distinct_draws_the_points_of_the_rejection_loop(space, n, min_sep):
    for seed in range(300):
        got = sample_distinct(space, n, min_sep=min_sep, seed=seed)
        want = _rejection_loop(space, n, min_sep, seed)
        assert len(got) == len(want) == n
        for a, b in zip(got, want):
            assert type(a) is type(b)
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_sample_distinct_restarts_where_the_rejection_loop_gave_up():
    # 15 circle points 0.35 apart fill 5.25 of 2 pi: the loop runs out of its
    # 15 000 attempts, while the search restarts the set after a dead end.
    s = Circle()
    assert _rejection_loop(s, 15, 0.35, 0) is None
    pts = sample_distinct(s, 15, min_sep=0.35, seed=0)
    assert len(pts) == 15
    assert all(s.distance(a, b) > 0.35 for i, a in enumerate(pts) for b in pts[i + 1 :])


def test_a_difference_table_over_the_cap_fails_closed():
    big = FiniteAbelian((1000, 1000))
    with pytest.raises(TooLarge, match=f"order 1000000 exceeds the {MAX_TABLE_ORDER} cap"):
        big.difference_indices(big.stack([(0, 1)]), big.stack([(2, 3)]))
    small = FiniteAbelian((16, 16))
    assert small.difference_indices(small.stack([(0, 1)]), small.stack([(2, 3)])).tolist() == [[14 * 16 + 14]]


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
    assert FiniteAbelian(orders).elements() == expected


def test_group_elements_lexicographic_product():
    elems = FiniteAbelian((3, 4)).elements()
    assert len(elems) == 12
    assert elems == sorted(elems)
    assert len(set(elems)) == 12


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
