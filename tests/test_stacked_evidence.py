"""The stacked probe loops against the scalar loops they replaced.

``check_aperiodic`` iterates ``apply_many`` over all probes at once and
``check_center`` maps all probes once per generator; ``_probe_pairs`` draws
its points in one block. ``_check_aperiodic_per_probe``,
``_check_center_per_probe`` and ``_probe_pairs_per_draw`` are the scalar
loops, kept here as references: the violations, their order, their powers
and the drawn pairs must be the same. The complex sphere's scalar
operations are one-row views of the stacked ones, so the two agree bit for
bit.
"""

import math

import numpy as np
import pytest

from kernelcex.errors import NonFiniteValue, SpaceMismatch
from kernelcex.harness import _draw, _probe_pairs
from kernelcex.spaces import Circle, ComplexSphere, Euclidean
from kernelcex.symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
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
            # The scalar Euclidean distance sums its squares in another order.
            assert d == pytest.approx(d_ref, rel=1e-15)


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


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_complex_sphere_scalar_operations_are_bit_identical_to_stacked(dim):
    space = ComplexSphere(dim)
    rotation = ComplexSphereRotation(space, 0.7)
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = space.random_points(rng, 60)
        drawn = np.array([space.random_point(ref_rng) for _ in range(60)])
        np.testing.assert_array_equal(drawn, rows)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        X = space.stack(rows)
        np.testing.assert_array_equal(np.array([space.canonicalize(x) for x in rows]), X)
        np.testing.assert_array_equal(np.array([rotation.apply(x) for x in X]), rotation.apply_many(X))
        D = space.distances(X, X[::-1])
        want = np.array([[space.distance(x, y) for y in X[::-1]] for x in X])
        np.testing.assert_array_equal(want, D)


def test_complex_sphere_canonicalize_keeps_its_typed_errors():
    space = ComplexSphere(2)
    for bad in ([1.0, 0.0, 0.0], [], 1.0, [[1.0, 0.0]], [1.0, "x"]):
        with pytest.raises(SpaceMismatch):
            space.canonicalize(bad)
    with pytest.raises(SpaceMismatch):
        space.canonicalize([2.0, 0.0])
    with pytest.raises(NonFiniteValue):
        space.canonicalize([math.nan, 0.0])
    x = space.canonicalize([0.6, 0.8j])
    assert x.dtype == np.complex128 and x.shape == (2,)
    assert space.distance([1.0, 0.0], [0.0, 1.0]) == math.sqrt(2.0)


@pytest.mark.parametrize("space", [CIRCLE, E3, SPHERE], ids=repr)
def test_paired_distances_are_the_diagonal_of_distances(space):
    rng = np.random.default_rng(5)
    for n in (0, 1, 63, 64, 65, 200):
        X, Y = space.stack(space.random_points(rng, n)), space.stack(space.random_points(rng, n))
        got = space.paired_distances(X, Y)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, np.diagonal(space.distances(X, Y)))
