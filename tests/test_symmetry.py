import math

import numpy as np
import pytest

from kernelcex.counterexample import build_adjoint
from kernelcex.errors import (
    ConfigError,
    InjectivityViolation,
    KernelCexError,
    MissingAdjoint,
    NonFiniteValue,
    PeriodicityDetected,
)
from kernelcex.kernels import CircleExpCos
from kernelcex.spaces import Circle, Euclidean, FiniteAbelian
from kernelcex.symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
    check_aperiodic,
    check_center,
    check_injective_on,
    orbit_decompose,
)
from kernelcex.spaces import ComplexSphere


def test_apply_examples():
    circle = Circle()
    assert CircleRotation(circle, 1.0).apply(0.0) == pytest.approx(1.0)
    plane = Euclidean(2)
    np.testing.assert_allclose(
        EuclideanTranslation(plane, (1.0, 0.0)).apply((0.0, 0.0)), [1.0, 0.0]
    )
    np.testing.assert_allclose(EuclideanScaling(plane, 2.0).apply((1.0, 1.0)), [2.0, 2.0])


def test_apply_preserves_space_invariants():
    sphere = ComplexSphere(2)
    rot = ComplexSphereRotation(sphere, 0.7)
    x = np.array([1.0, 0.0], dtype=complex)
    for _ in range(60):
        x = rot.apply(x)
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    circle = Circle()
    theta = 0.0
    for _ in range(60):
        theta = CircleRotation(circle, 2.5).apply(theta)
        assert -math.pi <= theta < math.pi


def test_group_translation_wraps():
    g = FiniteAbelian((2, 3))
    t = GroupTranslation(g, (1, 2))
    assert t.apply((1, 2)) == (0, 1)


def test_adjoint_involution():
    plane = Euclidean(2)
    t = EuclideanTranslation(plane, (1.0, -2.0), adjoint_kind="inverse")
    assert t.adjoint.adjoint == t
    np.testing.assert_allclose(t.adjoint.apply((0.0, 0.0)), [-1.0, 2.0])
    s = EuclideanScaling(plane, 3.0)
    assert s.adjoint is s


def test_aperiodic_rotation_by_pi_violates_at_m_2():
    ev = check_aperiodic(CircleRotation(Circle(), math.pi), [0.0], m_max=4)
    assert not ev.ok
    (probe, m), = ev.violations
    assert m == 2


def test_aperiodic_rotation_by_one_no_violation():
    # oracle: m * 1.0 is never within eq_tol of a multiple of 2*pi for m <= 50
    for m in range(1, 51):
        assert abs((m * 1.0 + math.pi) % (2 * math.pi) - math.pi) > 1e-9
    probes = np.random.default_rng(0).uniform(-math.pi, math.pi, 8)
    ev = check_aperiodic(CircleRotation(Circle(), 1.0), probes, m_max=50)
    assert ev.ok


@pytest.mark.parametrize("m_max", [0, -1])
def test_aperiodic_power_bound_below_one_is_a_config_error(m_max):
    with pytest.raises(ConfigError, match="^m_max: "):
        check_aperiodic(CircleRotation(Circle(), 1.0), [0.0], m_max)


def test_aperiodic_scaling_no_violation_away_from_origin():
    ev = check_aperiodic(EuclideanScaling(Euclidean(2), 2.0), [(1.0, 0.0)], m_max=30)
    assert ev.ok


def test_injectivity_examples():
    circle = Circle()
    pts = [0.0, 1.0, 2.0, -2.0, -1.0]
    assert check_injective_on(CircleRotation(circle, 0.9), pts)
    plane = Euclidean(2)
    assert not check_injective_on(EuclideanScaling(plane, 0.0), [(1.0, 0.0), (2.0, 0.0)])
    g = FiniteAbelian((6,))
    assert check_injective_on(GroupTranslation(g, (2,)), [(i,) for i in range(6)])


def test_center_rotations_commute():
    circle = Circle()
    gens = [CircleRotation(circle, a) for a in (0.3, 1.2, -2.0)]
    ev = check_center(CircleRotation(circle, 0.8), gens, [0.0, 1.0, 2.5])
    assert ev.ok


def test_center_translation_vs_reflection_violation():
    plane = Euclidean(2)
    translation = EuclideanTranslation(plane, (1.0, 0.0))
    reflection = EuclideanScaling(plane, -1.0)
    # composing in the two orders at probe (1, 0) gives (0, 0) vs (-2, 0)
    left = translation.apply(reflection.apply((1.0, 0.0)))
    right = reflection.apply(translation.apply((1.0, 0.0)))
    np.testing.assert_allclose(left, [0.0, 0.0])
    np.testing.assert_allclose(right, [-2.0, 0.0])
    ev = check_center(translation, [reflection], [(1.0, 0.0)])
    assert not ev.ok


def test_orbit_translation_example():
    line = Euclidean(1)
    phi = EuclideanTranslation(line, (1.0,))
    dec = orbit_decompose(phi, [[0.0], [1.0], [2.0], [5.0]])
    assert dec.F == (0, 1)
    assert dec.tau == {0: 1, 1: 2}
    assert (dec.m, dec.p) == (2, 2)
    np.testing.assert_allclose([z[0] for z in dec.z_points], [1, 2, 3, 6, 0, 5])


def test_orbit_rotation_example_empty_f():
    circle = Circle()
    dec = orbit_decompose(CircleRotation(circle, 1.0), [0.0, 2.0])
    assert dec.F == ()
    assert (dec.m, dec.p) == (0, 2)
    np.testing.assert_allclose(dec.z_points, [1.0, 3.0, 0.0, 2.0])


def test_orbit_scaling_example():
    line = Euclidean(1)
    dec = orbit_decompose(EuclideanScaling(line, 2.0), [[1.0], [2.0], [4.0]])
    assert dec.F == (0, 1)
    assert dec.tau == {0: 1, 1: 2}
    assert (dec.m, dec.p) == (2, 1)
    np.testing.assert_allclose([z[0] for z in dec.z_points], [2, 4, 8, 1])


def test_orbit_periodicity_detected_for_identity():
    line = Euclidean(1)
    with pytest.raises(PeriodicityDetected):
        orbit_decompose(EuclideanTranslation(line, (0.0,)), [[0.0], [1.0]])


def test_orbit_periodicity_detected_for_rotation_cycle():
    circle = Circle()
    phi = CircleRotation(circle, 2 * math.pi / 3)
    pts = [0.0, phi.apply(0.0), phi.apply(phi.apply(0.0))]
    with pytest.raises(PeriodicityDetected):
        orbit_decompose(phi, pts)


def test_orbit_injectivity_violation():
    plane = Euclidean(2)
    with pytest.raises(InjectivityViolation):
        orbit_decompose(EuclideanScaling(plane, 0.0), [(1.0, 0.0), (2.0, 0.0)])


def _oracle(phi, pts):
    space = phi.space
    images = [phi.apply(p) for p in pts]
    F, tau = [], {}
    for mu, img in enumerate(images):
        for nu, p in enumerate(pts):
            if space.points_equal(img, p):
                F.append(mu)
                tau[mu] = nu
                break
    merged = []
    for cand in images + [space.canonicalize(p) for p in pts]:
        if not any(space.points_equal(cand, q) for q in merged):
            merged.append(cand)
    return F, tau, merged


def _random_instance(idx, rng):
    family = idx % 3
    n = int(rng.integers(2, 11))
    if family == 0:
        space = Euclidean(1)
        phi = EuclideanTranslation(space, (float(rng.uniform(0.4, 1.6)),))
        draw = lambda: rng.uniform(-8, 8, 1)
    elif family == 1:
        space = Euclidean(1)
        phi = EuclideanScaling(space, float(rng.choice([2.0, -2.0, 1.5])))
        draw = lambda: np.array([rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])])
    else:
        space = Circle()
        phi = CircleRotation(space, float(rng.uniform(0.3, 2.6)))
        draw = lambda: rng.uniform(-math.pi, math.pi)
    pts = [space.canonicalize(draw())]
    guard = 0
    while len(pts) < n and guard < 400:
        guard += 1
        cand = phi.apply(pts[int(rng.integers(len(pts)))]) if rng.random() < 0.5 else draw()
        cand = space.canonicalize(cand)
        if all(space.distance(cand, p) > 1e-3 for p in pts):
            pts.append(cand)
    return phi, pts


def test_orbit_matches_oracle_on_random_instances():
    for idx in range(200):
        rng = np.random.default_rng((99, idx))
        phi, pts = _random_instance(idx, rng)
        space = phi.space
        F, tau, merged = _oracle(phi, pts)
        dec = orbit_decompose(phi, pts)
        assert list(dec.F) == F
        assert dec.tau == tau
        assert dec.m + 2 * dec.p == len(merged)
        assert dec.m <= len(pts) - 1
        # set equality of z_points with the brute-force union
        assert all(any(space.points_equal(z, q) for q in merged) for z in dec.z_points)
        assert all(any(space.points_equal(q, z) for z in dec.z_points) for q in merged)
        # tau injective
        assert len(set(dec.tau.values())) == len(dec.tau)
        # escape property
        fset = set(dec.F)
        for mu in dec.F:
            cur, hops = mu, 0
            while cur in fset:
                cur = dec.tau[cur]
                hops += 1
                assert hops <= len(pts)


@pytest.mark.parametrize(
    "make",
    [
        lambda kind: CircleRotation(Circle(), 1.0, kind),
        lambda kind: EuclideanTranslation(Euclidean(2), (1.0, 0.0), kind),
        lambda kind: EuclideanScaling(Euclidean(2), 2.0, kind),
        lambda kind: ComplexSphereRotation(ComplexSphere(2), 1.0, kind),
        lambda kind: GroupTranslation(FiniteAbelian((3,)), (1,), kind),
    ],
)
def test_unknown_adjoint_kind_is_a_config_error_at_construction(make):
    for kind in (None, "self", "inverse"):
        make(kind)
    with pytest.raises(ConfigError, match="adjoint_kind: 'sideways'"):
        make("sideways")


def test_build_adjoint_with_unknown_adjoint_kind_raises_config_error():
    with pytest.raises(ConfigError, match="sideways"):
        build_adjoint(CircleExpCos(Circle()), CircleRotation(Circle(), 1.0, "sideways"))


def test_inverse_adjoint_of_scaling_by_zero_is_missing():
    phi = EuclideanScaling(Euclidean(1), 0.0, "inverse")
    with pytest.raises(MissingAdjoint, match="scaling by 0"):
        phi.adjoint
    assert issubclass(MissingAdjoint, KernelCexError)


def test_an_overflowing_image_fails_closed_in_every_check():
    # A finite ratio whose images overflow to infinity; before images were
    # checked, the injectivity evidence called this map injective.
    line = Euclidean(1)
    huge = EuclideanScaling(line, 1e308)
    pts = [[1.0], [2.0]]
    checks = [
        lambda: check_injective_on(huge, pts),
        lambda: check_aperiodic(huge, pts, 1),
        lambda: check_center(huge, [EuclideanScaling(line, 2.0)], pts),
        lambda: check_center(EuclideanScaling(line, 2.0), [huge], pts),
        lambda: orbit_decompose(huge, pts),
        lambda: check_injective_on(EuclideanTranslation(line, (1e308,)), [[1e308], [0.0]]),
    ]
    for check in checks:
        with pytest.raises(NonFiniteValue, match="non-finite image"):
            check()
