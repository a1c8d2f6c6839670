"""Acceptance checks, one test per criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion; each test also enforces its runtime budget.
"""

import math
import time

import numpy as np

from kernelcex import harness
from kernelcex.counterexample import build_shifted, build_unitary, embed, witness
from kernelcex.harness import SuiteConfig, _sample_merged
from kernelcex.kernels import (
    CircleExpCos,
    DotExp,
    Gaussian,
    OffsetKernel,
    check_unitary_invariance,
    gram,
    project,
)
from kernelcex.numcore import PDKind, classify
from kernelcex.spaces import Circle, Euclidean
from kernelcex.symmetry import (
    CircleRotation,
    EuclideanScaling,
    EuclideanTranslation,
    orbit_decompose,
)

SEED = 42


def _line(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {label}: {status} ({elapsed:.2f}s < {budget:.0f}s)")


def _null_angle(verdict, direction):
    d = direction / np.linalg.norm(direction)
    if verdict.null_vectors.shape[1] == 0:
        return math.pi / 2
    proj = verdict.null_vectors @ (verdict.null_vectors.conj().T @ d)
    return math.acos(min(1.0, float(np.linalg.norm(proj))))


def _projections_all_definite(cex, phi, space, n_points, n_sets, n_vectors, min_sep,
                              radius=None, include=(), stream=0):
    for t in range(n_sets):
        rng = np.random.default_rng((SEED, stream, t))
        pts = _sample_merged(
            space, phi, n_points - len(list(include)), min_sep, rng,
            radius=radius, include=include, min_norm=min_sep if include else 0.0,
            cond_kernel=cex.base,
        )
        vrng = np.random.default_rng((SEED, stream + 1, t))
        for _ in range(n_vectors):
            v = vrng.standard_normal(2) + 1j * vrng.standard_normal(2)
            verdict = classify(gram(project(cex.as_matrix, v), pts))
            if not verdict.is_positive_definite:
                return False, verdict.min_eigenvalue / verdict.scale
    return True, None


def test_criterion_1_circle_counterexample():
    start = time.perf_counter()
    space = Circle()
    cex = build_unitary(CircleExpCos(space), CircleRotation(space, 1.0))

    matrix = gram(cex.as_matrix, [0.0, 1.0])
    assert matrix.dim == 4
    verdict = classify(matrix)
    degenerate = abs(verdict.min_eigenvalue) <= 1e-8 * verdict.scale
    direction = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)
    angle = _null_angle(verdict, direction)

    all_definite, worst = _projections_all_definite(
        cex, cex.map, space, n_points=8, n_sets=20, n_vectors=50, min_sep=0.3, stream=10
    )
    elapsed = time.perf_counter() - start
    ok = degenerate and angle <= 1e-6 and all_definite and elapsed < 2.0
    _line(1, "circle-counterexample", ok, elapsed, 2)
    assert degenerate, (verdict.min_eigenvalue, verdict.scale)
    assert angle <= 1e-6, angle
    assert all_definite, worst
    assert elapsed < 2.0, elapsed


def test_criterion_2_gaussian_counterexample():
    start = time.perf_counter()
    space = Euclidean(3)
    z = (1.0, 0.0, 0.0)
    phi = EuclideanTranslation(space, z, adjoint_kind="inverse")
    cex = build_unitary(Gaussian(space, sigma=1.0), phi)

    origin = np.zeros(3)
    w = witness(cex, origin)
    matrix = gram(cex.as_matrix, w.points)
    verdict = classify(matrix)
    degenerate = abs(verdict.min_eigenvalue) <= 1e-8 * verdict.scale
    direction = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)
    angle = _null_angle(verdict, direction)

    rng = np.random.default_rng((SEED, 20))
    translations = [
        EuclideanTranslation(space, tuple(rng.uniform(-1.0, 1.0, 3)), adjoint_kind="inverse")
        for _ in range(10)
    ]
    pairs = [(rng.uniform(-1.5, 1.5, 3), rng.uniform(-1.5, 1.5, 3)) for _ in range(64)]
    invariance = check_unitary_invariance(cex.as_matrix, translations, pairs, tol=1e-12)

    all_definite, worst = _projections_all_definite(
        cex, phi, space, n_points=8, n_sets=20, n_vectors=50, min_sep=0.3,
        radius=1.5, stream=21,
    )
    elapsed = time.perf_counter() - start
    ok = degenerate and angle <= 1e-6 and invariance.ok and all_definite and elapsed < 2.0
    _line(2, "gaussian-counterexample", ok, elapsed, 2)
    assert degenerate, (verdict.min_eigenvalue, verdict.scale)
    assert angle <= 1e-6, angle
    assert invariance.ok, invariance
    assert all_definite, worst
    assert elapsed < 2.0, elapsed


def test_criterion_3_shifted_dot_product():
    start = time.perf_counter()
    space = Euclidean(2)
    phi = EuclideanScaling(space, 2.0)
    origin = np.zeros(2)
    cex = build_shifted(DotExp(space), phi, origin)

    e1 = np.array([1.0, 0.0])
    w = witness(cex, e1)
    matrix = gram(cex.as_matrix, w.points)
    assert matrix.dim == 6
    verdict = classify(matrix)
    flat = np.zeros(6, dtype=complex)
    for mu, vec in enumerate(w.coefficients):
        flat[mu] = vec[0]
        flat[3 + mu] = vec[1]
    annihilation = float(np.linalg.norm(matrix.entries @ flat)) / float(np.linalg.norm(flat))
    annihilated = annihilation <= 1e-9 * verdict.scale

    all_definite, worst = _projections_all_definite(
        cex, phi, space, n_points=8, n_sets=10, n_vectors=50, min_sep=0.15,
        radius=1.0, include=(origin,), stream=30,
    )
    elapsed = time.perf_counter() - start
    ok = annihilated and all_definite and elapsed < 2.0
    _line(3, "shifted-dot-product", ok, elapsed, 2)
    assert annihilated, (annihilation, verdict.scale)
    assert all_definite, worst
    assert elapsed < 2.0, elapsed


def _scalar_orbit_oracle(phi, pts):
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


def _criterion_4_instance(idx, rng):
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


def test_criterion_4_orbit_decomposition_oracle():
    start = time.perf_counter()
    mismatches = 0
    for idx in range(200):
        rng = np.random.default_rng((SEED, 40, idx))
        phi, pts = _criterion_4_instance(idx, rng)
        space = phi.space
        F, tau, merged = _scalar_orbit_oracle(phi, pts)
        dec = orbit_decompose(phi, pts)
        same_sets = all(
            any(space.points_equal(z, q) for q in merged) for z in dec.z_points
        ) and all(any(space.points_equal(q, z) for z in dec.z_points) for q in merged)
        if not (
            list(dec.F) == F
            and dec.tau == tau
            and dec.m + 2 * dec.p == len(merged)
            and len(dec.z_points) == len(merged)
            and same_sets
        ):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    _line(4, "orbit-decomposition", ok, elapsed, 1)
    assert mismatches == 0
    assert elapsed < 1.0, elapsed


def _assert_oracles_agree(phi, pts):
    """The stacked harness oracle against the scalar one above: the same F
    and tau, and the same merged points in the same order."""
    space = phi.space
    F, tau, merged = harness._orbit_oracles([(phi, pts)])[0]
    F_ref, tau_ref, merged_ref = _scalar_orbit_oracle(phi, list(pts))
    assert F == F_ref and tau == tau_ref
    assert len(merged) == len(merged_ref)
    assert (np.diag(space.distances(merged, space.stack(merged_ref))) <= space.eq_tol).all()


def _seam_and_tolerance_instances():
    """Circle instances whose image and point straddle +-pi, and Euclidean
    ones with points 0.5 and 2 times eq_tol from an image."""
    circle = Circle()
    turn = CircleRotation(circle, 1.0)
    yield turn, [math.pi - 1.0 - 2e-10, -math.pi + 3e-10]  # hit across the seam
    yield turn, [math.pi - 1.0 - 2e-10, -math.pi + 2e-9]  # miss across the seam
    yield turn, [math.pi - 0.5, -math.pi + 0.5 - 3e-10, 2.0]  # the image wraps past pi
    for line in (Euclidean(1), Euclidean(2, eq_tol=1e-6)):
        step = np.zeros(line.dim)
        step[0] = 1.0
        tol = line.eq_tol
        near = np.full(line.dim, 0.5 * tol / math.sqrt(line.dim))
        far = np.full(line.dim, 2.0 * tol / math.sqrt(line.dim))
        phi = EuclideanTranslation(line, tuple(step))
        yield phi, [np.zeros(line.dim), step + near, 5.0 * step, 6.0 * step + far]


def _scalar_harness_instance(idx, rng):
    """One instance of ``harness._orbit_instances`` as it was before it moved
    to stacks: one point at a time, every distance taken by ``Space.distance``."""
    family = idx % 3
    n = int(rng.integers(2, 11))
    if family == 0:
        space = Euclidean(1)
        phi = EuclideanTranslation(space, (float(rng.uniform(0.4, 1.6)),))
        seeder = lambda: rng.uniform(-8.0, 8.0, 1)
    elif family == 1:
        space = Euclidean(1)
        phi = EuclideanScaling(space, float(rng.choice([2.0, -2.0, 1.5, 2.5])))
        seeder = lambda: np.array([rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])])
    else:
        space = Circle()
        phi = CircleRotation(space, float(rng.uniform(0.3, 2.6)))
        seeder = lambda: rng.uniform(-math.pi, math.pi)
    pts = [space.canonicalize(seeder())]
    guard = 0
    while len(pts) < n and guard < 500:
        guard += 1
        if rng.random() < 0.5:
            cand = phi.apply(pts[int(rng.integers(len(pts)))])
        else:
            cand = space.canonicalize(seeder())
        if all(space.distance(cand, p) > 1e-3 for p in pts):
            pts.append(cand)
    return phi, pts


def test_stacked_orbit_instances_draw_the_scalar_instances():
    for seed in (1, 7, 42):
        cfg = SuiteConfig("orbit-decomposition", seed=seed)
        for idx in range(200):
            phi, pts = harness._orbit_instances([idx], [harness._rng(cfg, 31, idx)])[0]
            phi_ref, pts_ref = _scalar_harness_instance(idx, harness._rng(cfg, 31, idx))
            assert phi == phi_ref
            assert np.array_equal(pts, phi.space.stack(pts_ref))


def test_stacked_orbit_oracle_matches_the_scalar_oracle():
    for seed in (1, 7, 42):
        cfg = SuiteConfig("orbit-decomposition", seed=seed)
        for idx in range(200):
            _assert_oracles_agree(*harness._orbit_instances([idx], [harness._rng(cfg, 31, idx)])[0])
    for phi, pts in _seam_and_tolerance_instances():
        _assert_oracles_agree(phi, pts)


def test_chunked_orbit_instances_and_oracles_match_the_scalar_references():
    for seed in (1, 7, 42):
        cfg = SuiteConfig("orbit-decomposition", seed=seed)
        for chunk in (harness._ORBIT_CHUNK, 200):
            for start in range(0, 200, chunk):
                idxs = range(start, start + chunk)
                instances = harness._orbit_instances(idxs, [harness._rng(cfg, 31, idx) for idx in idxs])
                oracles = harness._orbit_oracles(instances)
                for idx, (phi, pts), (F, tau, merged) in zip(idxs, instances, oracles):
                    phi_ref, pts_ref = _scalar_harness_instance(idx, harness._rng(cfg, 31, idx))
                    assert phi == phi_ref
                    assert np.array_equal(pts, phi.space.stack(pts_ref))
                    F_ref, tau_ref, merged_ref = _scalar_orbit_oracle(phi, list(pts))
                    assert F == F_ref and tau == tau_ref
                    assert np.array_equal(merged, phi.space.stack(merged_ref))


def test_one_oracle_call_over_mixed_spaces_matches_the_one_instance_calls():
    # The longer line instance pads the seam one, whose first point is the
    # origin: a zero padding row must not count as a hit.
    line = Euclidean(1)
    longer = (EuclideanTranslation(line, (1.0,)), [[-3.0], [-2.5], [-1.0], [0.5], [2.0], [3.0]])
    instances = list(_seam_and_tolerance_instances()) + [longer]
    assert len({phi.space for phi, _ in instances}) == 3
    for (phi, pts), (F, tau, merged) in zip(instances, harness._orbit_oracles(instances)):
        F_one, tau_one, merged_one = harness._orbit_oracles([(phi, pts)])[0]
        assert F == F_one and tau == tau_one
        assert np.array_equal(merged, merged_one)


def test_seam_and_tolerance_instances_split_as_expected():
    expected = [({0: 1}, 3), ({}, 4), ({0: 1}, 5), ({0: 1}, 7), ({0: 1}, 7)]
    for (phi, pts), (tau, n_merged) in zip(_seam_and_tolerance_instances(), expected):
        space = phi.space
        dec = orbit_decompose(phi, pts)
        assert dec.tau == tau and len(harness._orbit_oracles([(phi, pts)])[0][2]) == n_merged
        assert dec.m + 2 * dec.p == n_merged
        kind = float if isinstance(space, Circle) else np.ndarray
        assert all(type(z) is kind for z in dec.z_points)


def test_criterion_5_abelian_fourier():
    start = time.perf_counter()
    from kernelcex.fourier import (
        FourierSpectrum,
        analyze,
        brute_force_strict,
        spectrum_kernel,
        strict_criterion,
        synthesize,
    )
    from kernelcex.spaces import FiniteAbelian

    catalog = [(2,), (3,), (4,), (5,), (6,), (8,), (12,), (24,), (2, 2), (2, 3),
               (3, 4), (2, 2, 2), (2, 3, 4), (2, 2, 3)]

    worst_roundtrip = 0.0
    rng = np.random.default_rng((SEED, 50))
    for i in range(100):
        group = FiniteAbelian(catalog[i % len(catalog)])
        coeffs = rng.uniform(0.0, 1.0, group.order)
        spectrum = FourierSpectrum(group=group, coefficients=coeffs)
        back = analyze(synthesize(spectrum), group)
        worst_roundtrip = max(
            worst_roundtrip, float(np.max(np.abs(back.coefficients - coeffs)))
        )

    disagreements = 0
    for i in range(100):
        group = FiniteAbelian(catalog[int(rng.integers(len(catalog)))])
        ell = (i % 3) + 1
        strict = bool(rng.random() < 0.5)
        if ell == 1:
            coeffs = rng.uniform(0.1, 1.0, group.order)
            if not strict:
                coeffs[int(rng.integers(group.order))] = 0.0
            spectrum = FourierSpectrum(group=group, coefficients=coeffs)
        else:
            stack = np.empty((group.order, ell, ell), dtype=complex)
            kill = -1 if strict else int(rng.integers(group.order))
            for gi in range(group.order):
                b = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
                a = b @ b.conj().T + 0.2 * np.eye(ell)
                if gi == kill:
                    u = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
                    a = np.outer(u, u.conj())
                stack[gi] = 0.5 * (a + a.conj().T)
            spectrum = FourierSpectrum(group=group, coefficients=stack)
        criterion = strict_criterion(spectrum)
        verdict = brute_force_strict(spectrum_kernel(spectrum))
        agree = (criterion and verdict.is_positive_definite) or (
            not criterion and verdict.is_degenerate
        )
        if not agree:
            disagreements += 1

    elapsed = time.perf_counter() - start
    ok = worst_roundtrip < 1e-10 and disagreements == 0 and elapsed < 5.0
    _line(5, "abelian-fourier", ok, elapsed, 5)
    assert worst_roundtrip < 1e-10, worst_roundtrip
    assert disagreements == 0
    assert elapsed < 5.0, elapsed


def test_criterion_6_embedding():
    start = time.perf_counter()
    space = Circle()
    base = CircleExpCos(space)
    cex = build_unitary(base, CircleRotation(space, 1.0))
    padded = embed(cex.as_matrix, 3, base)

    rng = np.random.default_rng((SEED, 60))
    pairs = [(space.random_point(rng), space.random_point(rng)) for _ in range(12)]
    worst = 0.0
    for _ in range(30):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        small = project(cex.as_matrix, v)
        big = project(padded, np.concatenate([v, [0.0]]))
        for x, y in pairs:
            worst = max(worst, abs(small.eval(x, y) - big.eval(x, y)))

    matrix = gram(padded, [0.0, 1.0])
    verdict = classify(matrix)
    still_degenerate = (
        verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
        and abs(verdict.min_eigenvalue) <= 1e-8 * verdict.scale
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and still_degenerate and elapsed < 1.0
    _line(6, "embedding", ok, elapsed, 1)
    assert worst <= 1e-12, worst
    assert still_degenerate, (verdict.kind, verdict.min_eigenvalue, verdict.scale)
    assert elapsed < 1.0, elapsed


def test_criterion_7_origin_shift_strictness():
    start = time.perf_counter()
    space = Euclidean(2)
    base = DotExp(space)
    shifted_down = OffsetKernel(base, -float(base.eval(np.zeros(2), np.zeros(2)).real))
    failures = 0
    for t in range(20):
        rng = np.random.default_rng((SEED, 70, t))
        n = 4 + t % 7  # n <= 10
        pts = []
        while len(pts) < n:
            c = rng.uniform(-1.0, 1.0, 2)
            if np.linalg.norm(c) > 0.2 and all(np.linalg.norm(c - p) > 0.15 for p in pts):
                pts.append(c)
        verdict = classify(gram(shifted_down, pts))
        if not verdict.is_positive_definite:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 1.0
    _line(7, "origin-shift-strictness", ok, elapsed, 1)
    assert failures == 0
    assert elapsed < 1.0, elapsed


def test_criterion_8_negative_control_periodic_map():
    start = time.perf_counter()
    space = Circle()
    periodic = CircleRotation(space, math.pi)
    cex = build_unitary(CircleExpCos(space), periodic)
    theta = 0.3
    pts = [theta, periodic.apply(theta), 1.9, -2.4]
    verdict = classify(gram(project(cex.as_matrix, np.array([1.0, 1.0])), pts))
    observed = verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    elapsed = time.perf_counter() - start
    ok = observed and elapsed < 1.0
    _line(8, "negative-control-periodic", ok, elapsed, 1)
    # recorded as an observation, not a guarantee: the period-two orbit makes
    # the symmetric projection collapse
    assert observed, (verdict.kind, verdict.min_eigenvalue, verdict.scale)
    assert elapsed < 1.0, elapsed
