import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcex.cli import main
from kernelcex.errors import ConfigError, DimensionMismatch, NonFiniteValue, NonHermitianInput
from kernelcex.harness import SuiteConfig
from kernelcex.numcore import (
    HermitianMatrix,
    PDKind,
    classify,
    classify_many,
    quadratic_form,
)


def char_poly_eigs_2x2(a, b, c, d):
    # brute-force oracle: roots of the characteristic polynomial
    tr = a + d
    det = a * d - b * c
    disc = math.sqrt(tr * tr - 4 * det)
    return sorted([(tr - disc) / 2, (tr + disc) / 2])


def test_classify_identity_is_positive_definite():
    verdict = classify(np.eye(2))
    assert verdict.kind is PDKind.POSITIVE_DEFINITE
    assert verdict.min_eigenvalue == pytest.approx(1.0)
    assert verdict.numeric_rank == 2
    assert verdict.null_vectors.shape == (2, 0)


def test_classify_rank_one_degenerate_with_null_vector():
    verdict = classify(np.ones((2, 2)))
    assert verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    assert verdict.numeric_rank == 1
    assert verdict.null_vectors.shape == (2, 1)
    v = verdict.null_vectors[:, 0]
    # null direction proportional to (1, -1)
    target = np.array([1.0, -1.0]) / math.sqrt(2)
    assert abs(abs(np.vdot(v, target)) - 1.0) < 1e-12


def test_classify_two_by_two_against_characteristic_polynomial():
    e = math.exp(-1.0)
    m = np.array([[1.0, e], [e, 1.0]])
    expected = char_poly_eigs_2x2(1.0, e, e, 1.0)
    assert expected == pytest.approx([1 - e, 1 + e])
    verdict = classify(m)
    assert verdict.kind is PDKind.POSITIVE_DEFINITE
    assert verdict.min_eigenvalue == pytest.approx(expected[0], rel=1e-12)
    assert verdict.scale == pytest.approx(expected[1], rel=1e-12)


def test_classify_indefinite():
    verdict = classify(np.diag([1.0, -1.0]))
    assert verdict.kind is PDKind.INDEFINITE
    assert verdict.min_eigenvalue == pytest.approx(-1.0)
    assert verdict.null_vectors.shape[1] == 0


def test_classify_zero_matrix_degenerates_with_full_null_space():
    verdict = classify(np.zeros((3, 3)))
    assert verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    assert verdict.numeric_rank == 0
    assert verdict.null_vectors.shape == (3, 3)


def test_non_hermitian_input_rejected():
    with pytest.raises(NonHermitianInput):
        HermitianMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_hermitian_accepts_rounding_asymmetry():
    m = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    HermitianMatrix(m)


@pytest.mark.parametrize(
    "matrix,c,expected",
    [
        (np.eye(2), [1, 0], 1.0),
        (np.ones((2, 2)), [1, -1], 0.0),
        (np.diag([2.0, 3.0]), [1, 1], 5.0),
    ],
)
def test_quadratic_form_examples(matrix, c, expected):
    assert quadratic_form(matrix, c) == pytest.approx(expected, abs=1e-14)


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        quadratic_form(np.eye(2), [1, 0, 0])


def test_numeric_rank_examples():
    assert classify(np.eye(3)).numeric_rank == 3
    assert classify(np.ones((4, 4))).numeric_rank == 1


def test_numeric_rank_circle_counterexample_gram():
    # Explicit evaluation of the 4x4 blocked Gram of the rotated circle
    # kernel at the pair {theta, theta + rho}: row 1 equals row 4.
    theta, rho = 0.4, 1.0
    k = lambda a, b: math.exp(math.cos(a - b))
    x = [theta, theta + rho]
    g = np.empty((4, 4))
    for i in range(2):
        for j in range(2):
            for mu in range(2):
                for nu in range(2):
                    a = x[mu] + (rho if i == 0 else 0.0)
                    b = x[nu] + (rho if j == 0 else 0.0)
                    g[i * 2 + mu, j * 2 + nu] = k(a, b)
    np.testing.assert_allclose(g[0], g[3], rtol=0, atol=1e-15)
    assert classify(g).numeric_rank == 3


complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False
)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    raw = draw(
        st.lists(st.lists(complex_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    a = np.array(raw, dtype=np.complex128)
    return 0.5 * (a + a.conj().T)


@given(hermitian_matrices(), st.lists(complex_entries, min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_quadratic_form_matches_eigen_expansion(matrix, coeffs):
    n = matrix.shape[0]
    c = np.array((coeffs * n)[:n], dtype=np.complex128)
    eigvals, eigvecs = np.linalg.eigh(matrix)
    expansion = float(np.sum(eigvals * np.abs(eigvecs.conj().T @ c) ** 2))
    scale = max(float(np.max(np.abs(eigvals))), 1.0)
    norm_sq = max(float(np.vdot(c, c).real), 1.0)
    assert abs(quadratic_form(matrix, c) - expansion) <= 1e-8 * scale * norm_sq


@given(hermitian_matrices(), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_classify_kind_is_scale_equivariant(matrix, alpha):
    assert classify(matrix).kind is classify(alpha * matrix).kind


@given(hermitian_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_plus_null_count_is_dim_unless_indefinite(matrix):
    verdict = classify(matrix)
    if verdict.kind is not PDKind.INDEFINITE:
        assert verdict.numeric_rank + verdict.null_vectors.shape[1] == matrix.shape[0]


def test_degenerate_null_vectors_have_small_residual():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 2))
    m = b @ b.T  # rank 2 PSD
    verdict = classify(m)
    assert verdict.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
    for j in range(verdict.null_vectors.shape[1]):
        v = verdict.null_vectors[:, j]
        assert np.linalg.norm(m @ v) <= 1e-8 * verdict.scale * np.linalg.norm(v)


TOL = 2.0**-20  # a power of two, so tol * scale is exact


@pytest.mark.parametrize(
    "diagonal,kind,rank",
    [
        ([4.0, 1.0, 4.0 * TOL], PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE, 2),
        ([1.0, 0.0, 4.0], PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE, 2),
        ([-4.0 * TOL, 4.0, 1.0], PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE, 2),
        ([4.0, 8.0 * TOL, 1.0], PDKind.POSITIVE_DEFINITE, 3),
        ([4.0, 1.0, -8.0 * TOL], PDKind.INDEFINITE, 3),
    ],
    ids=["plus-cutoff", "zero", "minus-cutoff", "above", "below"],
)
def test_classify_and_classify_many_agree_at_the_cutoff(diagonal, kind, rank):
    # Diagonal entries are the exact eigenvalues; scale 4, cutoff 4 * TOL.
    m = np.diag(diagonal)
    one = classify(m, TOL)
    assert (one.kind, one.numeric_rank, one.scale) == (kind, rank, 4.0)
    assert one.min_eigenvalue == min(diagonal)
    many = classify_many([m, m], TOL)
    assert len(many) == 2
    for verdict in many:
        assert (verdict.kind, verdict.min_eigenvalue, verdict.numeric_rank, verdict.scale) == (
            one.kind, one.min_eigenvalue, one.numeric_rank, one.scale
        )
        assert verdict.null_vectors.shape == (3, 0)


def test_near_overflow_matrix_is_classified_with_finite_evidence():
    # Symmetrizing as 0.5 * (A + A^H) would overflow these entries to inf.
    verdict = classify(np.diag([1e308, 1e308]))
    assert verdict.kind is PDKind.POSITIVE_DEFINITE
    assert (verdict.min_eigenvalue, verdict.scale, verdict.numeric_rank) == (1e308, 1e308, 2)
    assert classify_many([np.diag([1e308, 1e308])])[0].kind is PDKind.POSITIVE_DEFINITE
    # Halving before the sum everywhere would round a subnormal entry to 0.
    assert classify(np.array([[5e-324]])).kind is PDKind.POSITIVE_DEFINITE


def test_a_non_finite_spectrum_raises_instead_of_a_verdict():
    # Finite entries whose largest eigenvalue (3.4e308) overflows.
    m = np.full((2, 2), 1.7e308)
    with pytest.raises(NonFiniteValue):
        classify(m)
    with pytest.raises(NonFiniteValue):
        classify_many([m])


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf, 1.0, 2.0])
def test_a_tolerance_outside_the_unit_interval_is_refused_naming_its_field(tol, tmp_path, capsys):
    with pytest.raises(ConfigError, match="^tol: "):
        classify(np.eye(2), tol)
    with pytest.raises(ConfigError, match="^tol: "):
        classify_many([np.eye(2)], tol)
    for name in ("pd_tol", "resid_tol"):
        with pytest.raises(ConfigError, match=f"^{name}: "):
            SuiteConfig.from_dict({"suite": "embed-check", name: tol})
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({name: tol}))
        assert main(["verify", "embed-check", "--config", str(config)]) == 2
        assert f"config error: {name}: " in capsys.readouterr().err
