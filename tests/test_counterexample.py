import dataclasses
import math

import numpy as np
import pytest

from kernelcex.counterexample import (
    Variant,
    build_adjoint,
    build_shifted,
    build_unitary,
    embed,
    witness,
)
from kernelcex.errors import BadDimensions, MissingAdjoint, OriginNotFixed, WitnessFailed
from kernelcex.kernels import (
    CircleExpCos,
    DotExp,
    Gaussian,
    check_unitary_invariance,
    gram,
    project,
)
from kernelcex.numcore import RESID_TOL, PDKind, classify, quadratic_form
from kernelcex.serialize import counterexample_from_json, counterexample_to_json
from kernelcex.spaces import Circle, Euclidean, sample_distinct
from kernelcex.symmetry import CircleRotation, EuclideanScaling, EuclideanTranslation

CIRCLE = Circle()
PLANE = Euclidean(2)


def test_build_unitary_circle_grid_entries():
    rho = 1.0
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, rho))
    assert cex.variant is Variant.UNITARY
    x, y = 0.4, -0.9
    m = cex.as_matrix.eval(x, y)
    np.testing.assert_allclose(
        m,
        [
            [math.exp(math.cos(x - y)), math.exp(math.cos(x + rho - y))],
            [math.exp(math.cos(x - y - rho)), math.exp(math.cos(x - y))],
        ],
        rtol=1e-15,
    )


def test_build_unitary_identity_map_degenerates_everywhere():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 0.0))
    m = cex.as_matrix.eval(0.3, 0.3)
    assert np.ptp(m.real) < 1e-15
    verdict = classify(gram(cex.as_matrix, [0.3]))
    assert verdict.numeric_rank == 1


def test_build_adjoint_requires_partner():
    space = Euclidean(2)
    bare = EuclideanTranslation(space, (1.0, 0.0))
    with pytest.raises(MissingAdjoint):
        build_adjoint(Gaussian(space), bare)


def test_build_adjoint_scaling_grid():
    r = 2.0
    cex = build_adjoint(DotExp(PLANE), EuclideanScaling(PLANE, r))
    x, y = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
    inner = float(x @ y)
    m = cex.as_matrix.eval(x, y)
    np.testing.assert_allclose(
        m,
        [
            [math.exp(r * r * inner), math.exp(r * inner)],
            [math.exp(r * inner), math.exp(inner)],
        ],
        rtol=1e-15,
    )


def test_adjoint_translation_grid_matches_unitary_grid():
    space = Euclidean(2)
    base = Gaussian(space)
    phi = EuclideanTranslation(space, (0.7, -0.4), adjoint_kind="inverse")
    a = build_adjoint(base, phi).as_matrix
    u = build_unitary(base, phi).as_matrix
    rng = np.random.default_rng(2)
    for _ in range(16):
        x, y = space.random_point(rng), space.random_point(rng)
        np.testing.assert_allclose(a.eval(x, y), u.eval(x, y), rtol=1e-15)


def test_build_shifted_diagonal_constant():
    cex = build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), (0.0, 0.0))
    assert cex.variant is Variant.SHIFTED_ADJOINT
    m = cex.as_matrix.eval((0.0, 0.0), (0.0, 0.0))
    np.testing.assert_allclose(m, [[2.0, 1.0], [1.0, 2.0]], rtol=1e-15)
    # invertible at the origin, unlike the unshifted grid
    assert abs(np.linalg.det(m)) > 1.0


def test_build_shifted_projection_at_origin():
    cex = build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), (0.0, 0.0))
    k_v = project(cex.as_matrix, [1.0, 1.0])
    g = gram(k_v, [(0.0, 0.0)])
    assert g.entries[0, 0] == pytest.approx(6.0)


def test_build_shifted_rejects_moving_origin():
    with pytest.raises(OriginNotFixed):
        build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), (1.0, 0.0))


def test_constructed_kernel_is_unitarily_invariant():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    rng = np.random.default_rng(3)
    pairs = [(CIRCLE.random_point(rng), CIRCLE.random_point(rng)) for _ in range(64)]
    rotations = [CircleRotation(CIRCLE, float(a)) for a in rng.uniform(-math.pi, math.pi, 5)]
    assert check_unitary_invariance(cex.as_matrix, rotations, pairs).ok


def test_witness_circle_pair():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    w = witness(cex, 0.0)
    assert w.points == (0.0, 1.0)
    assert w.coefficients == ((1 + 0j, 0j), (0j, -1 + 0j))
    assert abs(w.achieved_form_value) < 1e-12
    # rows of the blocked Gram coincide as in the rank argument
    g = gram(cex.as_matrix, w.points).entries
    np.testing.assert_allclose(g[0], g[3], rtol=1e-15)


def test_witness_fixed_point_single_point():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 0.0))
    w = witness(cex, 0.5)
    assert w.points == (0.5,)
    assert w.coefficients == ((1 + 0j, -1 + 0j),)
    assert w.achieved_form_value == pytest.approx(0.0, abs=1e-15)


def test_witness_shifted_triple():
    cex = build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), (0.0, 0.0))
    w = witness(cex, np.array([1.0, 0.0]))
    np.testing.assert_allclose(np.array(w.points), [[0, 0], [1, 0], [2, 0]])
    assert w.coefficients == ((-1 + 0j, 1 + 0j), (1 + 0j, 0j), (0j, -1 + 0j))
    assert abs(w.achieved_form_value) < 1e-9


def test_witness_rejects_origin_for_shifted():
    cex = build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), (0.0, 0.0))
    with pytest.raises(WitnessFailed):
        witness(cex, np.zeros(2))


def test_witness_rejects_a_collapsed_shifted_triple():
    # A ratio-1 scaling fixes every point, so phi(x) = x.
    cex = build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 1.0), (0.0, 0.0))
    with pytest.raises(WitnessFailed):
        witness(cex, np.array([1.0, 0.0]))


def test_witness_carries_its_gram_and_verdict():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    w = witness(cex, 0.0, pd_tol=1e-6)
    g = gram(cex.as_matrix, w.points)
    np.testing.assert_array_equal(w.gram.entries, g.entries)
    verdict = classify(g, 1e-6)
    assert w.verdict.kind is verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    assert w.verdict.numeric_rank == verdict.numeric_rank
    assert w.verdict.scale == verdict.scale
    flat = w.flattened()
    assert w.annihilation_residual == (
        float(np.linalg.norm(g.entries @ flat)) / float(np.linalg.norm(flat))
    )


def test_blocked_gram_is_gram_of_merged_points():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    pts = [0.0, 2.0, -2.5]
    blocked = gram(cex.as_matrix, pts).entries
    merged = [cex.map.apply(p) for p in pts] + pts
    direct = gram(cex.base, merged).entries
    np.testing.assert_allclose(blocked, direct, rtol=0, atol=0)


def test_blocked_gram_never_indefinite_with_witness_pair():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    pts = [0.0, 1.0, 2.2, -2.8]
    verdict = classify(gram(cex.as_matrix, pts))
    assert verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    assert verdict.min_eigenvalue <= 1e-9 * verdict.scale


def test_projection_strictness_sampled():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    rng = np.random.default_rng(9)
    for seed in range(6):
        pts = sample_distinct(CIRCLE, 6, min_sep=0.35, seed=seed)
        for _ in range(8):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            verdict = classify(gram(project(cex.as_matrix, v), pts))
            assert verdict.is_positive_definite


def test_part1_shift_keeps_strictness_off_origin():
    from kernelcex.kernels import OffsetKernel

    base = DotExp(PLANE)
    shifted_down = OffsetKernel(base, -1.0)  # k(0,0) = 1
    rng = np.random.default_rng(12)
    for trial in range(10):
        pts = []
        while len(pts) < 8:
            c = rng.uniform(-1.0, 1.0, 2)
            if np.linalg.norm(c) > 0.2 and all(np.linalg.norm(c - p) > 0.15 for p in pts):
                pts.append(c)
        assert classify(gram(shifted_down, pts)).is_positive_definite


def test_embed_identity_size_is_noop():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    same = embed(cex.as_matrix, 2, cex.base)
    x, y = 0.2, 1.1
    np.testing.assert_allclose(same.eval(x, y), cex.as_matrix.eval(x, y))


def test_embed_grid_structure_and_projections():
    base = CircleExpCos(CIRCLE)
    cex = build_unitary(base, CircleRotation(CIRCLE, 1.0))
    padded = embed(cex.as_matrix, 3, base)
    x, y = 0.2, -1.4
    m = padded.eval(x, y)
    assert m[2, 2] == base.eval(x, y)
    assert m[0, 2] == m[2, 0] == m[1, 2] == m[2, 1] == 0
    e3 = project(padded, [0.0, 0.0, 1.0])
    assert e3.eval(x, y) == base.eval(x, y)
    v = np.array([0.5 - 0.2j, 1.1 + 0.3j])
    np.testing.assert_allclose(
        project(padded, np.concatenate([v, [0.0]])).eval(x, y),
        project(cex.as_matrix, v).eval(x, y),
        atol=1e-14,
    )


def test_embed_bad_dimensions():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    with pytest.raises(BadDimensions):
        embed(cex.as_matrix, 1, cex.base)


def test_embedded_witness_still_degenerate():
    base = CircleExpCos(CIRCLE)
    cex = build_unitary(base, CircleRotation(CIRCLE, 1.0))
    padded = embed(cex.as_matrix, 3, base)
    pts = [0.0, 1.0]
    matrix = gram(padded, pts)
    verdict = classify(matrix)
    assert verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    c = np.zeros(6, dtype=complex)
    c[0] = 1.0
    c[3] = -1.0
    assert abs(quadratic_form(matrix, c)) < 1e-12


EMBEDDABLE = {
    "unitary pair": (
        lambda: build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0)),
        CircleExpCos(CIRCLE),
        0.0,
    ),
    "fixed point": (
        lambda: build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 0.0)),
        CircleExpCos(CIRCLE),
        0.5,
    ),
    "shifted triple": (
        lambda: build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), (0.0, 0.0)),
        Gaussian(PLANE),
        np.array([1.0, 0.0]),
    ),
}


@pytest.mark.parametrize("decoded", [False, True], ids=["embed", "from-json"])
@pytest.mark.parametrize("ell", [3, 4])
@pytest.mark.parametrize("case", sorted(EMBEDDABLE))
def test_witness_on_embedded_kernels(case, ell, decoded):
    build, filler, x = EMBEDDABLE[case]
    cex = build()
    embedded = dataclasses.replace(cex, as_matrix=embed(cex.as_matrix, ell, filler))
    if decoded:
        embedded = counterexample_from_json(counterexample_to_json(embedded))
    assert embedded.as_matrix.ell == ell
    w = witness(embedded, x)
    unpadded = witness(cex, x)
    assert w.coefficients == tuple(c + (0j,) * (ell - 2) for c in unpadded.coefficients)
    assert w.gram.dim == ell * len(w.points)
    assert w.verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    assert w.annihilation_residual <= RESID_TOL * w.verdict.scale
