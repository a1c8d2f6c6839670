import math

import numpy as np
import pytest

from kernelcex.counterexample import build_adjoint, build_shifted, build_unitary, embed
from kernelcex.errors import DuplicatePoints, MissingAdjoint, NonFiniteValue, ZeroVector
from kernelcex.kernels import (
    CircleExpCos,
    Composed,
    DotExp,
    Gaussian,
    GroupFourier,
    MatrixKernel,
    OffsetKernel,
    TorusProduct,
    ZeroKernel,
    check_adjoint_invariance,
    check_unitary_invariance,
    gram,
    grams,
    pair_values,
    project,
)
from kernelcex.numcore import classify
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, sample_distinct
from kernelcex.symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    GroupTranslation,
)

CIRCLE = Circle()
PLANE = Euclidean(2)
LINE = Euclidean(1)


def test_eval_scalar_examples():
    assert CircleExpCos(CIRCLE).eval(0.0, math.pi) == pytest.approx(math.exp(-1))
    g = Gaussian(Euclidean(3), sigma=1.0)
    x = np.array([0.3, -0.1, 2.0])
    assert g.eval(x, x) == pytest.approx(1.0)
    assert DotExp(PLANE, shift=1.0).eval((0, 0), (0, 0)) == pytest.approx(2.0)


def test_torus_product_value_and_hermitian():
    k = TorusProduct(Euclidean(2))
    x, y = np.array([0.4, -1.0]), np.array([1.1, 0.2])
    val = k.eval(x, y)
    expected = np.prod([2 / (2 - np.exp(1j * d)) for d in x - y])
    assert val == pytest.approx(expected)
    assert k.eval(y, x) == pytest.approx(np.conj(val))


def _circle_counterexample(rho=1.0):
    base = CircleExpCos(CIRCLE)
    phi = CircleRotation(CIRCLE, rho)
    grid = (
        (Composed(base, phi, phi), Composed(base, phi, None)),
        (Composed(base, None, phi), base),
    )
    return MatrixKernel(space=CIRCLE, ell=2, entries=grid), phi, base


def test_eval_matrix_circle_diagonal():
    kernel, _, _ = _circle_counterexample(rho=1.0)
    theta = 0.7
    m = kernel.eval(theta, theta)
    np.testing.assert_allclose(
        m,
        [[math.e, math.exp(math.cos(1.0))], [math.exp(math.cos(1.0)), math.e]],
        rtol=1e-15,
    )


def test_eval_matrix_gaussian_diagonal():
    space = Euclidean(3)
    base = Gaussian(space, sigma=1.0)
    z = (1.0, 0.0, 0.0)
    phi = EuclideanTranslation(space, z, adjoint_kind="inverse")
    grid = (
        (Composed(base, phi, phi), Composed(base, phi, None)),
        (Composed(base, None, phi), base),
    )
    kernel = MatrixKernel(space=space, ell=2, entries=grid)
    x = np.array([0.2, 0.5, -1.0])
    m = kernel.eval(x, x)
    off = math.exp(-1.0)
    np.testing.assert_allclose(m, [[1.0, off], [off, 1.0]], rtol=1e-15)


def test_eval_matrix_shifted_dot_at_origin():
    base = DotExp(PLANE)
    phi = EuclideanScaling(PLANE, 2.0)
    grid = (
        (OffsetKernel(Composed(base, phi, phi), 1.0), Composed(base, phi, None)),
        (Composed(base, None, phi), OffsetKernel(base, 1.0)),
    )
    kernel = MatrixKernel(space=PLANE, ell=2, entries=grid)
    m = kernel.eval((0, 0), (0, 0))
    np.testing.assert_allclose(m, [[2.0, 1.0], [1.0, 2.0]], rtol=1e-15)


def test_project_basis_vectors_pick_entries():
    kernel, _, base = _circle_counterexample()
    x, y = 0.3, -1.2
    k_e1 = project(kernel, [1.0, 0.0])
    assert k_e1.eval(x, y) == pytest.approx(kernel.entries[0][0].eval(x, y))
    k_e2 = project(kernel, [0.0, 1.0])
    assert k_e2.eval(x, y) == pytest.approx(base.eval(x, y))


def test_project_diagonal_sum():
    base = CircleExpCos(CIRCLE)
    zero = ZeroKernel(CIRCLE)
    kernel = MatrixKernel(space=CIRCLE, ell=2, entries=((base, zero), (zero, base)))
    k_v = project(kernel, [1.0, 1.0])
    assert k_v.eval(0.2, 0.9) == pytest.approx(2 * base.eval(0.2, 0.9))


def test_project_rejects_zero_vector():
    kernel, _, _ = _circle_counterexample()
    with pytest.raises(ZeroVector):
        project(kernel, [0.0, 0.0])


def test_project_sesquilinear_in_v():
    kernel, _, _ = _circle_counterexample()
    v = np.array([0.4 + 0.2j, -1.0 + 0.5j])
    alpha = 1.7 - 0.3j
    x, y = 0.1, 2.2
    lhs = project(kernel, alpha * v).eval(x, y)
    rhs = abs(alpha) ** 2 * project(kernel, v).eval(x, y)
    assert lhs == pytest.approx(rhs)


def test_gram_scalar_example():
    g = gram(Gaussian(LINE, sigma=1.0), [[0.0], [1.0]])
    np.testing.assert_allclose(
        g.entries, [[1.0, math.exp(-1)], [math.exp(-1), 1.0]], rtol=1e-15
    )


def test_gram_rejects_duplicates():
    with pytest.raises(DuplicatePoints):
        gram(Gaussian(LINE), [[0.0], [0.0]])


def test_gram_block_layout_matches_entry_grams():
    kernel, _, _ = _circle_counterexample()
    pts = [0.0, 1.7, -2.1]
    blocked = gram(kernel, pts).entries
    n = len(pts)
    for i in range(2):
        for j in range(2):
            block = blocked[i * n : (i + 1) * n, j * n : (j + 1) * n]
            for mu in range(n):
                for nu in range(n):
                    assert block[mu, nu] == kernel.entries[i][j].eval(pts[mu], pts[nu])


def test_blocked_gram_of_diagonal_kernel_is_block_diagonal():
    base = CircleExpCos(CIRCLE)
    zero = ZeroKernel(CIRCLE)
    kernel = MatrixKernel(space=CIRCLE, ell=2, entries=((base, zero), (zero, base)))
    pts = [0.0, 1.0, 2.0]
    blocked = gram(kernel, pts).entries
    inner = gram(base, pts).entries
    np.testing.assert_allclose(blocked[:3, :3], inner)
    np.testing.assert_allclose(blocked[3:, 3:], inner)
    np.testing.assert_allclose(blocked[:3, 3:], 0)


def test_projection_gram_is_contraction_of_blocked_gram():
    kernel, _, _ = _circle_counterexample()
    pts = sample_distinct(CIRCLE, 5, min_sep=0.3, seed=2)
    v = np.array([0.8 - 0.1j, 0.5 + 0.9j])
    blocked = gram(kernel, pts).entries.reshape(2, 5, 2, 5)
    contracted = np.einsum("i,iujv,j->uv", v.conj(), blocked, v)
    direct = gram(project(kernel, v), pts).entries
    np.testing.assert_allclose(direct, contracted, atol=1e-12)


@pytest.mark.parametrize(
    "kernel,space",
    [
        (CircleExpCos(CIRCLE), CIRCLE),
        (Gaussian(Euclidean(3)), Euclidean(3)),
        (DotExp(PLANE), PLANE),
        (DotExp(ComplexSphere(2)), ComplexSphere(2)),
        (TorusProduct(Euclidean(2)), Euclidean(2)),
    ],
)
def test_catalog_kernels_hermitian_on_random_pairs(kernel, space):
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = space.canonicalize(space.random_point(rng))
        y = space.canonicalize(space.random_point(rng))
        kxy = kernel.eval(x, y)
        assert abs(kxy - np.conj(kernel.eval(y, x))) <= 1e-12 * max(abs(kxy), 1e-30)


def test_group_fourier_hermitian_and_strict():
    group = FiniteAbelian((2, 3))
    rng = np.random.default_rng(4)
    coeffs = tuple(rng.uniform(0.2, 1.0, group.order))
    k = GroupFourier(group, coeffs)
    elems = group.elements()
    for x in elems:
        for y in elems:
            assert abs(k.eval(x, y) - np.conj(k.eval(y, x))) < 1e-12
    assert classify(gram(k, elems)).is_positive_definite


@pytest.mark.parametrize(
    "kernel,space,min_sep",
    [
        (CircleExpCos(CIRCLE), CIRCLE, 0.25),
        (Gaussian(Euclidean(3)), Euclidean(3), 0.4),
        (TorusProduct(Euclidean(2)), Euclidean(2), 0.3),
    ],
)
def test_strictly_pd_catalog_grams_are_positive_definite(kernel, space, min_sep):
    for seed in range(5):
        pts = sample_distinct(space, 12, min_sep=min_sep, seed=seed)
        assert classify(gram(kernel, pts)).is_positive_definite


def test_torus_product_translation_invariant():
    space = Euclidean(2)
    k = TorusProduct(space)
    rng = np.random.default_rng(6)
    pairs = [(space.random_point(rng), space.random_point(rng)) for _ in range(16)]
    shifts = [EuclideanTranslation(space, tuple(rng.uniform(-3, 3, 2))) for _ in range(3)]
    assert check_unitary_invariance(k, shifts, pairs).ok


def test_torus_product_on_circle_matches_single_factor():
    k1 = TorusProduct(CIRCLE)
    k2 = TorusProduct(LINE)
    assert k1.eval(0.4, -1.1) == pytest.approx(k2.eval([0.4], [-1.1]))


def test_unitary_invariance_pass_and_fail():
    rng = np.random.default_rng(0)
    pairs = [(CIRCLE.random_point(rng), CIRCLE.random_point(rng)) for _ in range(32)]
    rotations = [CircleRotation(CIRCLE, a) for a in (0.3, 1.4, -2.2)]
    assert check_unitary_invariance(CircleExpCos(CIRCLE), rotations, pairs).ok

    space = Euclidean(2)
    pairs = [(space.random_point(rng), space.random_point(rng)) for _ in range(16)]
    translations = [EuclideanTranslation(space, tuple(rng.uniform(-1, 1, 2))) for _ in range(3)]
    assert check_unitary_invariance(Gaussian(space), translations, pairs).ok
    scaling = [EuclideanScaling(space, 2.0)]
    assert not check_unitary_invariance(Gaussian(space), scaling, pairs).ok


def test_adjoint_invariance_pass_and_fail():
    rng = np.random.default_rng(1)
    space = Euclidean(2)
    pairs = [(space.random_point(rng), space.random_point(rng)) for _ in range(16)]
    scalings = [EuclideanScaling(space, r) for r in (0.5, 2.0, -1.5)]
    assert check_adjoint_invariance(DotExp(space), scalings, pairs).ok

    translations_inv = [
        EuclideanTranslation(space, tuple(rng.uniform(-1, 1, 2)), adjoint_kind="inverse")
        for _ in range(3)
    ]
    assert check_adjoint_invariance(Gaussian(space), translations_inv, pairs).ok

    translations_self = [
        EuclideanTranslation(space, (0.7, -0.2), adjoint_kind="self"),
    ]
    assert not check_adjoint_invariance(DotExp(space), translations_self, pairs).ok

    bare = [EuclideanTranslation(space, (0.7, -0.2))]
    with pytest.raises(MissingAdjoint):
        check_adjoint_invariance(DotExp(space), bare, pairs)


def _grid_cases():
    sphere = ComplexSphere(2)
    group = FiniteAbelian((3, 4))
    coeffs = tuple(1.0 / (1 + g) for g in range(group.order))
    return [
        build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0)).as_matrix,
        build_unitary(Gaussian(PLANE), EuclideanTranslation(PLANE, (0.5, -0.2))).as_matrix,
        build_adjoint(DotExp(PLANE), EuclideanScaling(PLANE, 2.0)).as_matrix,
        build_unitary(DotExp(sphere), ComplexSphereRotation(sphere, 0.7)).as_matrix,
        build_unitary(GroupFourier(group, coeffs), GroupTranslation(group, (1, 2))).as_matrix,
        TorusProduct(PLANE),
    ]


@pytest.mark.parametrize(
    "kernel", _grid_cases(), ids=["circle", "gaussian", "dotexp-adjoint", "sphere", "group", "torus-scalar"]
)
def test_pair_values_equal_the_full_block_diagonal(kernel):
    space = kernel.space
    rng = np.random.default_rng(3)
    X, Y = space.stack(space.random_points(rng, 256)), space.stack(space.random_points(rng, 256))
    grid = kernel.entries if isinstance(kernel, MatrixKernel) else ((kernel,),)
    full = np.array([[np.diagonal(entry.block(X, Y)) for entry in row] for row in grid])
    got = pair_values(kernel, X, Y)
    assert got.shape == (256, len(grid), len(grid))
    np.testing.assert_array_equal(got, np.moveaxis(full, -1, 0))


def _stack_cases():
    space3 = Euclidean(3)
    sphere = ComplexSphere(2)
    group = FiniteAbelian((3, 4))
    circle_grid = build_unitary(CircleExpCos(CIRCLE), CircleRotation(CIRCLE, 1.0)).as_matrix
    shift = EuclideanTranslation(space3, (1.0, 0.0, 0.0), adjoint_kind="inverse")
    return {
        "circle-exp-cos": CircleExpCos(CIRCLE),
        "gaussian": Gaussian(space3, sigma=0.7),
        "dotexp-euclidean": DotExp(PLANE, scale=0.5, shift=1.0),
        "dotexp-sphere": DotExp(sphere),
        "torus-circle": TorusProduct(CIRCLE),
        "torus-euclidean": TorusProduct(PLANE),
        "group-fourier": GroupFourier(group, tuple(1.0 / (1 + g) + 0.5j * g for g in range(group.order))),
        "composed": Composed(Gaussian(PLANE), EuclideanScaling(PLANE, 2.0), EuclideanTranslation(PLANE, (0.5, -0.2))),
        "composed-circle": Composed(CircleExpCos(CIRCLE), None, CircleRotation(CIRCLE, 2.5)),
        "offset": OffsetKernel(DotExp(PLANE), -1.0),
        "zero": ZeroKernel(sphere),
        "projected": project(circle_grid, [1.0, 0.5j]),
        "circle-grid": circle_grid,
        "gaussian-grid": build_unitary(Gaussian(space3), shift).as_matrix,
        "dotproduct-grid": build_shifted(DotExp(PLANE), EuclideanScaling(PLANE, 2.0), np.zeros(2)).as_matrix,
        "sphere-grid": build_unitary(DotExp(sphere), ComplexSphereRotation(sphere, 1.0)).as_matrix,
        "padded-grid": embed(circle_grid, 3, CircleExpCos(CIRCLE)),
        "group-grid": build_unitary(GroupFourier(group, (1.0,) * group.order), GroupTranslation(group, (1, 2))).as_matrix,
    }


STACK_CASES = _stack_cases()


def _point_sets(space, rng, lead, n):
    """Random canonical point sets as one stack with leading axes ``lead``."""
    X = space.stack(space.random_points(rng, math.prod(lead) * n))
    return X.reshape(*lead, n, *X.shape[1:])


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_block_of_a_stack_equals_the_per_set_blocks(name):
    kernel = STACK_CASES[name]
    rng = np.random.default_rng(11)
    X, Y = _point_sets(kernel.space, rng, (4,), 5), _point_sets(kernel.space, rng, (4,), 3)
    got = kernel.block(X, Y)
    want = np.array([kernel.block(Xt, Yt) for Xt, Yt in zip(X, Y)])
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    # Two leading axes slice the same way.
    got2 = kernel.block(X.reshape(2, 2, *X.shape[1:]), Y.reshape(2, 2, *Y.shape[1:]))
    np.testing.assert_array_equal(got2, got.reshape(2, 2, *got.shape[1:]))


def test_grams_applies_the_checks_of_gram_to_every_set():
    k = CircleExpCos(CIRCLE)
    X = CIRCLE.stack([0.0, 1.0, 2.0, -1.0, 3.0, -2.5]).reshape(2, 3)
    np.testing.assert_array_equal(grams(k, X)[1], gram(k, X[1]).entries.real)
    with pytest.raises(DuplicatePoints):
        grams(k, CIRCLE.stack([0.0, 1.0, 2.0, 0.5, 1.5, 0.5]).reshape(2, 3))
    with pytest.raises(NonFiniteValue):
        grams(DotExp(LINE), np.array([[[1.0], [2.0]], [[30.0], [29.0]]]))
