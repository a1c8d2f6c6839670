"""The stacked probe loops against the scalar loops they replaced.

``check_aperiodic`` iterates ``apply_many`` over all probes at once and
``check_center`` maps all probes once per generator; ``_probe_pairs`` draws
its points in one block. ``_check_aperiodic_per_probe``,
``_check_center_per_probe`` and ``_probe_pairs_per_draw`` are the scalar
loops, kept here as references: the violations, their order, their powers
and the drawn pairs must be the same, and so must the center distances.

Every scalar operation of a space or map is the one-row view of its stacked
form, except ``Circle`` and ``Euclidean`` ``canonicalize`` and ``distance``:
those stay as a fast path for callers that compare one pair at a time, and
they round exactly as ``stack`` and ``distances`` do. So scalar and stacked
results agree bit for bit on every space and map, and the structural test
below pins the four kept overrides.
"""

import math

import numpy as np
import pytest

from kernelcex.errors import NonFiniteValue, SpaceMismatch
from kernelcex.harness import _draw, _probe_pairs
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, Space
from kernelcex.symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
    SymmetryMap,
    check_aperiodic,
    check_center,
)

CIRCLE = Circle()
E2, E3 = Euclidean(2), Euclidean(3)
SPHERE = ComplexSphere(2)


def _check_aperiodic_per_probe(phi, probes, m_max):
    space = phi.space
    violations = []
    for x in probes:
        x = space.canonicalize(x)
        y = x
        for m in range(1, m_max + 1):
            y = phi.apply(y)
            if space.points_equal(x, y):
                violations.append((x, m))
                break
    return violations


def _check_center_per_probe(phi, generators, probes):
    space = phi.space
    violations = []
    for psi in generators:
        for x in probes:
            left = phi.apply(psi.apply(x))
            right = psi.apply(phi.apply(x))
            if not space.points_equal(left, right):
                violations.append((psi, x, space.distance(left, right)))
    return violations


def _probe_pairs_per_draw(space, rng, count, radius=None):
    return [
        (space.canonicalize(_draw(space, rng, radius)), space.canonicalize(_draw(space, rng, radius)))
        for _ in range(count)
    ]


def _probes(space, seed, count=24):
    rng = np.random.default_rng(seed)
    probes = list(space.random_points(rng, count))
    if isinstance(space, Euclidean):
        # The origin is the one point that a scaling fixes.
        probes.insert(count // 2, np.zeros(space.dim))
    return probes


APERIODIC_CASES = [
    *(CircleRotation(CIRCLE, 2 * math.pi / k) for k in (1, 2, 3, 5, 7)),
    CircleRotation(CIRCLE, 1.0),
    *(ComplexSphereRotation(SPHERE, 2 * math.pi / k) for k in (2, 3, 6)),
    ComplexSphereRotation(SPHERE, 1.0),
    *(EuclideanScaling(space, r) for space in (E2, E3) for r in (-1.0, 0.5, 1.0, 2.0)),
    *(EuclideanTranslation(space, (0.5,) * space.dim) for space in (E2, E3)),
]


@pytest.mark.parametrize("phi", APERIODIC_CASES, ids=repr)
@pytest.mark.parametrize("m_max", [1, 5, 50])
def test_check_aperiodic_matches_the_scalar_loop(phi, m_max):
    for seed in range(3):
        probes = _probes(phi.space, seed)
        got = check_aperiodic(phi, probes, m_max)
        want = _check_aperiodic_per_probe(phi, probes, m_max)
        assert got.n_probes == len(probes)
        assert [m for _, m in got.violations] == [m for _, m in want]
        for (x, _), (y, _) in zip(got.violations, want):
            assert type(x) is type(y)
            np.testing.assert_array_equal(x, y)


def test_check_aperiodic_reports_each_probe_at_its_first_return():
    # A rotation by 2 pi / 5 brings every probe back at m = 5; a scaling by
    # -1 brings the origin back at m = 1 and every other point at m = 2.
    ev = check_aperiodic(CircleRotation(CIRCLE, 2 * math.pi / 5), [0.1, 2.0, -3.0], 50)
    assert [m for _, m in ev.violations] == [5, 5, 5]
    probes = [(1.0, 0.0), (0.0, 0.0), (0.5, -2.0)]
    ev = check_aperiodic(EuclideanScaling(E2, -1.0), probes, 50)
    assert [m for _, m in ev.violations] == [2, 1, 2]
    assert check_aperiodic(CircleRotation(CIRCLE, 2 * math.pi / 7), [0.1, 2.0], 6).ok
    assert check_aperiodic(CircleRotation(CIRCLE, 0.3), [], 5).n_probes == 0


def _generators(space, seed):
    rng = np.random.default_rng(seed)
    if isinstance(space, Circle):
        return [CircleRotation(space, a) for a in rng.uniform(-math.pi, math.pi, 4)]
    if isinstance(space, ComplexSphere):
        return [ComplexSphereRotation(space, a) for a in rng.uniform(-math.pi, math.pi, 4)]
    # Scalings by 2 and 0.5 do not commute with a translation; a scaling by 1
    # and the translations do.
    return [
        EuclideanScaling(space, 2.0),
        EuclideanTranslation(space, tuple(rng.uniform(-1.0, 1.0, space.dim))),
        EuclideanScaling(space, 0.5),
        EuclideanScaling(space, 1.0),
    ]


CENTER_CASES = [
    CircleRotation(CIRCLE, 1.0),
    ComplexSphereRotation(SPHERE, 1.0),
    EuclideanTranslation(E2, (0.8, -0.3)),
    EuclideanTranslation(E3, (1.0, 0.0, 0.0)),
    EuclideanScaling(E2, 3.0),
]


@pytest.mark.parametrize("phi", CENTER_CASES, ids=repr)
def test_check_center_matches_the_scalar_loop(phi):
    for seed in range(3):
        probes = _probes(phi.space, seed)
        generators = _generators(phi.space, seed)
        got = check_center(phi, generators, probes)
        want = _check_center_per_probe(phi, generators, probes)
        assert (got.n_generators, got.n_probes) == (len(generators), len(probes))
        assert len(got.violations) == len(want)
        for (psi, x, d), (psi_ref, x_ref, d_ref) in zip(got.violations, want):
            assert psi is psi_ref and x is x_ref
            assert d == d_ref


def test_check_center_flags_the_non_commuting_generators():
    translation = EuclideanTranslation(E2, (0.8, -0.3))
    probes = _probes(E2, 0)
    ev = check_center(translation, _generators(E2, 0), probes)
    # Scaling by 2 misses by |t|, scaling by 0.5 by |t| / 2, at every probe.
    assert [psi.ratio for psi, _, _ in ev.violations] == [2.0] * len(probes) + [0.5] * len(probes)
    assert [d for _, _, d in ev.violations] == pytest.approx(
        [math.hypot(0.8, 0.3)] * len(probes) + [math.hypot(0.8, 0.3) / 2] * len(probes)
    )
    with pytest.raises(SpaceMismatch):
        check_center(translation, [EuclideanScaling(E3, 2.0)], probes)


@pytest.mark.parametrize(
    "space,radius", [(CIRCLE, None), (E3, 1.5), (E2, None), (SPHERE, None)], ids=repr
)
def test_probe_pairs_match_the_per_draw_pairs(space, radius):
    for seed in range(4):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _probe_pairs(space, rng, 17, radius)
        want = _probe_pairs_per_draw(space, ref_rng, 17, radius)
        assert len(got) == len(want)
        for pair, ref in zip(got, want):
            for a, b in zip(pair, ref):
                assert type(a) is type(b)
                np.testing.assert_array_equal(a, b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _space_and_maps():
    yield CIRCLE, [CircleRotation(CIRCLE, 0.7), CircleRotation(CIRCLE, -2 * math.pi / 3)]
    for dim in (1, 2, 3, 5, 8):
        space = Euclidean(dim)
        offset = tuple(np.linspace(-1.5, 2.5, dim))
        yield space, [EuclideanTranslation(space, offset), EuclideanScaling(space, -1.5)]
    for dim in (1, 2, 3, 5, 8):
        space = ComplexSphere(dim)
        yield space, [ComplexSphereRotation(space, 0.7)]
    for orders in ((5,), (3, 4)):
        space = FiniteAbelian(orders)
        yield space, [GroupTranslation(space, tuple(range(1, len(orders) + 1)))]


def _raw(space, rows):
    """Draws moved off their canonical form, so canonicalization has work."""
    if isinstance(space, (Circle, Euclidean)):
        return rows * 3.0
    return rows - 5 if isinstance(space, FiniteAbelian) else rows


SCALAR_CASES = list(_space_and_maps())


@pytest.mark.parametrize("space,maps", SCALAR_CASES, ids=[repr(space) for space, _ in SCALAR_CASES])
def test_scalar_operations_are_bit_identical_to_stacked(space, maps):
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = space.random_points(rng, 60)
        drawn = [space.random_point(ref_rng) for _ in range(60)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert all(type(x) is type(y) for x, y in zip(drawn, space.unstack(rows)))
        np.testing.assert_array_equal(np.array(drawn), rows)
        raw = list(_raw(space, rows))
        X = space.stack(raw)
        canonical = [space.canonicalize(x) for x in raw]
        assert all(type(x) is type(y) for x, y in zip(canonical, space.unstack(X)))
        np.testing.assert_array_equal(np.array(canonical), X)
        for phi in maps:
            images = [phi.apply(x) for x in raw]
            assert all(type(x) is type(y) for x, y in zip(images, canonical))
            np.testing.assert_array_equal(np.array(images), phi.apply_many(raw))
        D = space.distances(X, X[::-1])
        want = np.array([[space.distance(x, y) for y in X[::-1]] for x in X])
        np.testing.assert_array_equal(want, D)


# Scalar operations a space or map class could define for itself.
SCALAR_OPERATIONS = {"canonicalize", "distance", "points_equal", "random_point", "apply"}


def test_only_the_circle_and_euclidean_metric_fast_paths_are_scalar_overrides():
    classes = [
        cls
        for base in (Space, SymmetryMap)
        for cls in base.__subclasses__()
        if cls.__module__.startswith("kernelcex.")
    ]
    assert len(classes) == 9
    overrides = {(cls.__name__, name) for cls in classes for name in SCALAR_OPERATIONS & vars(cls).keys()}
    assert overrides == {
        ("Circle", "canonicalize"),
        ("Circle", "distance"),
        ("Euclidean", "canonicalize"),
        ("Euclidean", "distance"),
    }


@pytest.mark.parametrize(
    "space,mismatched,non_finite",
    [
        (CIRCLE, ["x", [1.0], [[1.0]], 10**400], [math.nan, math.inf]),
        (E2, [[1.0, 0.0, 0.0], [], 1.0, [[1.0, 0.0]], [1.0, "x"], [1j, 0.0], [10**400, 0.0]], [[math.nan, 0.0]]),
        (SPHERE, [[1.0, 0.0, 0.0], [], 1.0, [[1.0, 0.0]], [1.0, "x"], [2.0, 0.0]], [[math.nan, 0.0]]),
    ],
    ids=["circle", "euclidean", "complex-sphere"],
)
def test_canonicalize_keeps_its_typed_errors(space, mismatched, non_finite):
    # The one-point form raises what the stacked form raises for that point.
    for bad in mismatched:
        for operation in (space.canonicalize, lambda x: space.stack([x])):
            with pytest.raises(SpaceMismatch):
                operation(bad)
    for bad in non_finite:
        for operation in (space.canonicalize, lambda x: space.stack([x])):
            with pytest.raises(NonFiniteValue):
                operation(bad)


def test_canonical_forms_and_distances_of_single_points():
    x = SPHERE.canonicalize([0.6, 0.8j])
    assert x.dtype == np.complex128 and x.shape == (2,)
    assert SPHERE.distance([1.0, 0.0], [0.0, 1.0]) == math.sqrt(2.0)
    y = E2.canonicalize([3, 4])
    assert y.dtype == np.float64 and y.shape == (2,)
    assert E2.distance(y, [0.0, 0.0]) == 5.0


@pytest.mark.parametrize("space", [CIRCLE, E3, SPHERE], ids=repr)
def test_paired_distances_are_the_diagonal_of_distances(space):
    rng = np.random.default_rng(5)
    for n in (0, 1, 63, 64, 65, 200):
        X, Y = space.stack(space.random_points(rng, n)), space.stack(space.random_points(rng, n))
        got = space.paired_distances(X, Y)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, np.diagonal(space.distances(X, Y)))


@pytest.mark.parametrize("space", [CIRCLE, E3, SPHERE, FiniteAbelian((3, 4))], ids=repr)
def test_distances_over_stack_axes_are_the_per_slice_matrices(space):
    # The (1, 1) slices are the form paired_distances takes.
    rng = np.random.default_rng(11)
    for T, a, b in [(1, 1, 1), (9, 1, 1), (5, 3, 10), (4, 10, 1), (2, 7, 7), (3, 0, 2)]:
        X, Y = (space.stack(space.random_points(rng, T * k)) for k in (a, b))
        X, Y = X.reshape((T, a) + X.shape[1:]), Y.reshape((T, b) + Y.shape[1:])
        D = space.distances(X, Y)
        assert D.shape == (T, a, b)
        for t in range(T):
            np.testing.assert_array_equal(D[t], space.distances(X[t], Y[t]))
