"""The vectorised evaluation path: stacks, mapped stacks, kernel blocks,
batched classification, and the fail-closed handling of non-finite values.

Expected values are written per pair in plain loops here, as references
independent of the vectorised code.
"""

import cmath
import math

import numpy as np
import pytest

from kernelcex.counterexample import build_shifted, build_unitary, embed
from kernelcex.errors import NonFiniteValue
from kernelcex.harness import _CONDITIONING_FLOOR, _draw, _sample_merged
from kernelcex.kernels import (
    CircleExpCos,
    DotExp,
    Gaussian,
    GroupFourier,
    MatrixKernel,
    TorusProduct,
    ZeroKernel,
    check_adjoint_invariance,
    check_unitary_invariance,
    gram,
    project,
)
from kernelcex.numcore import HermitianMatrix, PDKind, _symmetrized, classify, classify_many
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, pairwise_distinct
from kernelcex.symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
)

CIRCLE = Circle()
PLANE = Euclidean(2)


def _assert_close(got, want, rtol=1e-13):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _blocked(entry_values, pts) -> np.ndarray:
    """Coordinate-major blocked Gram from a per-pair ell x ell formula."""
    n = len(pts)
    ell = len(entry_values(pts[0], pts[0]))
    out = np.empty((ell * n, ell * n), dtype=complex)
    for mu in range(n):
        for nu in range(n):
            values = entry_values(pts[mu], pts[nu])
            for i in range(ell):
                for j in range(ell):
                    out[i * n + mu, j * n + nu] = values[i][j]
    return out


def test_gram_of_torus_product_matches_closed_form():
    rng = np.random.default_rng(3)
    pts = [rng.uniform(-3, 3, 2) for _ in range(7)]
    want = [
        [math.prod(2 / (2 - cmath.exp(1j * (a - b))) for a, b in zip(x, y)) for y in pts]
        for x in pts
    ]
    _assert_close(gram(TorusProduct(PLANE), pts).entries, want)


def test_gram_of_group_fourier_matches_closed_form():
    group = FiniteAbelian((2, 3, 2))
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(0.1, 1.0, group.order)
    elems = group.elements()

    def xi(g, x):
        return cmath.exp(2j * math.pi * sum(gr * xr / q for gr, xr, q in zip(g, x, group.orders)))

    pts = [elems[i] for i in rng.permutation(group.order)[:9]]
    want = [
        [sum(c * xi(g, x) * xi(g, y).conjugate() for c, g in zip(coeffs, elems)) for y in pts]
        for x in pts
    ]
    _assert_close(gram(GroupFourier(group, tuple(coeffs)), pts).entries, want)


def test_gram_of_offset_grid_matches_closed_form():
    cex = build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), np.zeros(2))
    rng = np.random.default_rng(8)
    pts = [rng.uniform(-1, 1, 2) for _ in range(5)]

    def k(x, y):
        return math.exp(float(np.dot(x, y)))

    def entries(x, y):
        fx, fy = 2.0 * x, 2.0 * y
        return [[k(fx, fy) + 1.0, k(fx, y)], [k(x, fy), k(x, y) + 1.0]]

    _assert_close(gram(cex.as_matrix, pts).entries, _blocked(entries, pts))


def test_gram_of_embedded_kernel_matches_closed_form():
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    padded = embed(cex.as_matrix, 3, CircleExpCos(CIRCLE))
    pts = [-2.9, -1.1, 0.2, 0.9, 2.4]

    def k(x, y):
        return math.exp(math.cos(x - y))

    def entries(x, y):
        return [[k(x + 1, y + 1), k(x + 1, y), 0.0], [k(x, y + 1), k(x, y), 0.0], [0.0, 0.0, k(x, y)]]

    _assert_close(gram(padded, pts).entries, _blocked(entries, pts))


def _zero_block_calls(monkeypatch) -> list:
    calls = []
    zero_block = ZeroKernel.block

    def counting_block(self, X, Y):
        calls.append(len(X) * len(Y))
        return zero_block(self, X, Y)

    monkeypatch.setattr(ZeroKernel, "block", counting_block)
    return calls


@pytest.mark.parametrize("ell", [3, 7])
def test_embedded_block_equals_np_block_without_evaluating_zero_entries(monkeypatch, ell):
    cex = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0))
    padded = embed(cex.as_matrix, ell, CircleExpCos(CIRCLE))
    X = CIRCLE.stack([-2.9, -1.1, 0.2])
    Y = CIRCLE.stack([0.9, 2.4, -0.4, 1.7])
    want = np.block([[entry.block(X, Y) for entry in row] for row in padded.entries])
    calls = _zero_block_calls(monkeypatch)
    got = padded.block(X, Y)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert calls == []


def test_complex_grid_block_equals_np_block_without_evaluating_zero_entries(monkeypatch):
    group = FiniteAbelian((2, 3))
    rng = np.random.default_rng(4)
    entry = GroupFourier(group, tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6)))
    zero = ZeroKernel(group)
    grid = MatrixKernel(group, 2, ((zero, entry), (zero, zero)))
    X = group.stack([(0, 1), (1, 2)])
    Y = group.stack([(1, 0), (0, 0), (1, 1)])
    want = np.block([[e.block(X, Y) for e in row] for row in grid.entries])
    calls = _zero_block_calls(monkeypatch)
    got = grid.block(X, Y)
    assert got.dtype == want.dtype == np.complex128
    np.testing.assert_array_equal(got, want)
    assert calls == []


@pytest.mark.parametrize(
    "cex,space,min_sep,radius",
    [
        (build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0)), CIRCLE, 0.3, None),
        (
            build_unitary(
                Gaussian(Euclidean(3)),
                EuclideanTranslation(Euclidean(3), (1.0, 0.0, 0.0), adjoint_kind="inverse"),
            ),
            Euclidean(3),
            0.3,
            1.5,
        ),
    ],
)
def test_classify_many_matches_per_vector_classify(cex, space, min_sep, radius):
    rng = np.random.default_rng(21)
    pts = _sample_merged(space, cex.map, 8, min_sep, rng, radius=radius, cond_kernel=cex.base)
    vectors = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
    blocked = gram(cex.as_matrix, pts).entries.reshape(2, 8, 2, 8)
    grams = np.einsum("vi,iajb,vj->vab", vectors.conj(), blocked, vectors)
    verdicts = classify_many(grams)
    assert len(verdicts) == len(vectors)
    for k, v in enumerate(vectors):
        _assert_same_verdict(verdicts[k], classify(grams[k]))
        _assert_same_verdict(verdicts[k], classify(gram(project(cex.as_matrix, v), pts)))


def _assert_same_verdict(got, want):
    """Equal in every field but the null vectors, which ``classify_many``
    never carries; an eigenvalue-only decomposition may move the floats by
    rounding."""
    assert (got.kind, got.numeric_rank) == (want.kind, want.numeric_rank)
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= 1e-12 * want.scale
    assert got.scale == pytest.approx(want.scale, rel=1e-12)
    assert got.null_vectors.shape == (len(want.null_vectors), 0)


def _sample_merged_per_pair(space, phi, n, min_sep, rng, radius=None, include=(), min_norm=0.0,
                            cond_kernel=None):
    """The sampler written with per-pair distances and a merged list rebuilt
    for every draw; the stacked sampler must draw and accept identically."""
    include = [space.canonicalize(p) for p in include]

    def merged_of(pts):
        merged = include + pts
        if phi is not None:
            merged = merged + [
                phi.apply(p) for p in include + pts if space.distance(phi.apply(p), p) > min_sep
            ]
        return merged

    while True:
        pts, stuck = [], False
        while len(pts) < n and not stuck:
            for _ in range(200):
                cand = space.canonicalize(_draw(space, rng, radius))
                if min_norm > 0.0 and np.linalg.norm(np.atleast_1d(cand)) <= min_norm:
                    continue
                cands = [cand] if phi is None else [cand, phi.apply(cand)]
                if phi is not None and space.distance(cands[1], cand) <= min_sep:
                    continue
                if all(space.distance(c, o) > min_sep for c in cands for o in merged_of(pts)):
                    pts.append(cand)
                    break
            else:
                stuck = True
        if stuck:
            continue
        if cond_kernel is not None:
            eigvals = np.linalg.eigvalsh(_symmetrized(gram(cond_kernel, merged_of(pts)).entries))
            if eigvals[0] < _CONDITIONING_FLOOR * eigvals[-1]:
                continue
        return include + pts


@pytest.mark.parametrize(
    "space,phi,n,min_sep,radius,include,min_norm,cond_kernel",
    [
        (CIRCLE, CircleRotation(CIRCLE, 1.0), 8, 0.3, None, (), 0.0, CircleExpCos(CIRCLE)),
        (PLANE, EuclideanScaling(PLANE, 2.0), 7, 0.15, 1.0, (np.zeros(2),), 0.15, DotExp(PLANE)),
        (
            ComplexSphere(2),
            ComplexSphereRotation(ComplexSphere(2), 1.0),
            8,
            0.25,
            None,
            (),
            0.0,
            DotExp(ComplexSphere(2)),
        ),
        (PLANE, None, 10, 0.15, 1.0, (), 0.15, None),
    ],
)
def test_sample_merged_matches_per_pair_reference(
    space, phi, n, min_sep, radius, include, min_norm, cond_kernel
):
    for seed in range(20):
        args = (space, phi, n, min_sep)
        kwargs = dict(radius=radius, include=include, min_norm=min_norm, cond_kernel=cond_kernel)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_merged(*args, rng, **kwargs)
        want = _sample_merged_per_pair(*args, ref_rng, **kwargs)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_classify_many_applies_classify_rules_to_every_kind():
    stack = [np.eye(2), np.diag([1.0, 0.0]), np.diag([1.0, -1.0])]
    verdicts = classify_many(stack)
    for got, m in zip(verdicts, stack, strict=True):
        _assert_same_verdict(got, classify(m))
    assert tuple(v.kind for v in verdicts) == (
        PDKind.POSITIVE_DEFINITE,
        PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE,
        PDKind.INDEFINITE,
    )


def test_invariance_checks_match_per_pair_evaluation():
    cex = build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), np.zeros(2))
    rng = np.random.default_rng(2)
    probes = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(12)]
    maps = [EuclideanScaling(PLANE, r) for r in (0.5, 1.5)]
    kernel = cex.as_matrix
    want = max(
        np.linalg.norm(kernel.eval(x, phi.apply(y)) - kernel.eval(phi.adjoint.apply(x), y))
        for x, y in probes
        for phi in maps
    )
    got = check_adjoint_invariance(kernel, maps, probes)
    assert got.max_residual == pytest.approx(want, rel=1e-9, abs=1e-14)

    translations = [EuclideanTranslation(PLANE, (0.3, -0.7)), EuclideanTranslation(PLANE, (1.0, 2.0))]
    gauss = Gaussian(PLANE)
    want = max(
        abs(gauss.eval(phi.apply(x), phi.apply(y)) - gauss.eval(x, y))
        for x, y in probes
        for phi in translations
    )
    scale = max(abs(gauss.eval(x, y)) for x, y in probes)
    got = check_unitary_invariance(gauss, translations, probes)
    assert got.max_residual == pytest.approx(want, rel=1e-9, abs=1e-14)
    assert got.scale == pytest.approx(scale, rel=1e-12)


@pytest.mark.parametrize(
    "phi,points",
    [
        (CircleRotation(CIRCLE, 2.5), [3.0, -3.1, 0.0, 7.0]),
        (EuclideanTranslation(PLANE, (0.5, -1.0)), [(0.0, 0.0), (1.0, 2.0)]),
        (EuclideanScaling(PLANE, -2.0), [(0.5, 0.25), (3.0, -1.0)]),
        (
            ComplexSphereRotation(ComplexSphere(2), 1.3),
            [np.array([1.0, 0.0]), np.array([0.6, 0.8j])],
        ),
        (GroupTranslation(FiniteAbelian((2, 3)), (1, 2)), [(0, 0), (1, 1), (3, 5)]),
    ],
)
def test_apply_many_matches_apply(phi, points):
    many = phi.apply_many(points)
    assert len(many) == len(points)
    for row, x in zip(many, points):
        np.testing.assert_allclose(np.asarray(row), np.asarray(phi.apply(x)), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "space,points",
    [
        (CIRCLE, [3.5, -7.0, 0.1]),
        (PLANE, [(0.0, 1.0), [2.0, 3.0]]),
        (ComplexSphere(2), [np.array([0.0, 1j])]),
        (FiniteAbelian((2, 3)), [(3, 4), (1, 2)]),
        (FiniteAbelian((5,)), [7, 2]),
    ],
)
def test_stack_matches_canonicalize(space, points):
    stack = space.stack(points)
    assert len(stack) == len(points)
    for row, x in zip(stack, points):
        np.testing.assert_array_equal(np.asarray(row), np.asarray(space.canonicalize(x)))


def test_pairwise_distinct_matches_per_pair_test():
    pts = [0.0, 1.0, 2 * math.pi - 1e-12, 3.0]
    per_pair = all(
        not CIRCLE.points_equal(pts[i], pts[j]) for i in range(4) for j in range(i + 1, 4)
    )
    assert per_pair is False
    assert pairwise_distinct(CIRCLE, pts) is False
    assert pairwise_distinct(CIRCLE, pts[1:]) is True


@pytest.mark.parametrize(
    "space,bad",
    [
        (CIRCLE, math.inf),
        (CIRCLE, math.nan),
        (PLANE, (0.0, -math.inf)),
        (PLANE, (math.nan, 0.0)),
        (ComplexSphere(2), (complex(math.nan, 0.0), 0.0)),
        (FiniteAbelian((3,)), (math.inf,)),
        (FiniteAbelian((3,)), (math.nan,)),
    ],
)
def test_points_with_non_finite_coordinates_are_rejected(space, bad):
    with pytest.raises(NonFiniteValue):
        space.canonicalize(bad)
    with pytest.raises(NonFiniteValue):
        space.stack([bad])
    with pytest.raises(NonFiniteValue):
        pairwise_distinct(space, [bad, bad])


def test_non_finite_matrices_are_rejected_not_classified():
    m = np.eye(3)
    m[1, 1] = math.nan
    with pytest.raises(NonFiniteValue):
        HermitianMatrix(m)
    with pytest.raises(NonFiniteValue):
        classify(m)
    with pytest.raises(NonFiniteValue):
        classify_many([np.eye(3), m])


def test_overflowing_kernel_values_raise_non_finite_value():
    k = DotExp(Euclidean(1))
    with pytest.raises(NonFiniteValue):
        k.eval([30.0], [30.0])
    with pytest.raises(NonFiniteValue):
        gram(k, [[30.0], [29.0]])
