import numpy as np
import pytest

from kernelcex.errors import NonFiniteValue, NonHermitianInput, TooLarge, WrongLength
from kernelcex.fourier import (
    FourierSpectrum,
    analyze,
    brute_force_strict,
    character,
    character_table,
    spectrum_kernel,
    strict_criterion,
    synthesize,
)
from kernelcex.kernels import project
from kernelcex.spaces import FiniteAbelian

Z2 = FiniteAbelian((2,))
Z3 = FiniteAbelian((3,))
Z4 = FiniteAbelian((4,))
Z12 = FiniteAbelian((3, 4))


def test_character_examples():
    assert character((1,), (1,), Z2) == pytest.approx(-1.0)
    assert character((0,), (1,), Z3) == pytest.approx(1.0)
    assert character((1,), (1,), Z4) == pytest.approx(1j)


def test_characters_have_unit_modulus():
    for g in Z12.elements():
        for x in Z12.elements():
            assert abs(abs(character(g, x, Z12)) - 1.0) < 1e-14


@pytest.mark.parametrize("orders", [(2,), (3,), (8,), (2, 3), (3, 4), (2, 2, 2), (24,)])
def test_character_orthogonality(orders):
    group = FiniteAbelian(orders)
    table = character_table(group)
    inner = table @ table.conj().T / group.order
    np.testing.assert_allclose(inner, np.eye(group.order), atol=1e-12)


def test_analyze_z2_indicator():
    # oracle: a0 + a1 = psi(0) = 1 and a0 - a1 = psi(1) = 0
    spectrum = analyze(np.array([1.0, 0.0]), Z2)
    np.testing.assert_allclose(spectrum.coefficients, [0.5, 0.5], atol=1e-14)
    assert spectrum.analysis_residual < 1e-14


def test_analyze_pure_character():
    h = (1, 2)
    vals = np.array([character(h, x, Z12) for x in Z12.elements()])
    spectrum = analyze(vals, Z12)
    expected = np.zeros(12)
    expected[Z12.elements().index(Z12.canonicalize(h))] = 1.0
    np.testing.assert_allclose(spectrum.coefficients, expected, atol=1e-12)


def test_analyze_constant_function():
    spectrum = analyze(np.ones(12), Z12)
    expected = np.zeros(12)
    expected[Z12.elements().index(Z12.canonicalize((0, 0)))] = 1.0
    np.testing.assert_allclose(spectrum.coefficients, expected, atol=1e-12)


def test_analyze_wrong_length():
    with pytest.raises(WrongLength):
        analyze(np.ones(5), Z12)


def test_synthesize_constant_spectrum():
    spectrum = FourierSpectrum(group=Z3, coefficients=np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(synthesize(spectrum), np.ones(3), atol=1e-14)


def test_synthesize_z2_half_half():
    spectrum = FourierSpectrum(group=Z2, coefficients=np.array([0.5, 0.5]))
    np.testing.assert_allclose(synthesize(spectrum), [1.0, 0.0], atol=1e-14)


def test_roundtrip_random_spectra_against_direct_sum():
    rng = np.random.default_rng(5)
    for _ in range(25):
        coeffs = rng.uniform(0.0, 1.0, Z12.order)
        spectrum = FourierSpectrum(group=Z12, coefficients=coeffs)
        values = synthesize(spectrum)
        # independent direct-summation oracle
        direct = np.array(
            [
                sum(c * character(g, x, Z12) for c, g in zip(coeffs, Z12.elements()))
                for x in Z12.elements()
            ]
        )
        np.testing.assert_allclose(values, direct, atol=1e-12)
        back = analyze(values, Z12)
        np.testing.assert_allclose(back.coefficients, coeffs, atol=1e-10)


def test_parseval_sum_equals_value_at_identity():
    rng = np.random.default_rng(6)
    coeffs = rng.uniform(0.0, 2.0, Z12.order)
    spectrum = FourierSpectrum(group=Z12, coefficients=coeffs)
    values = synthesize(spectrum)
    ident = values[Z12.elements().index(Z12.canonicalize((0, 0)))]
    assert abs(np.sum(coeffs) - ident) < 1e-10


def test_strict_criterion_examples():
    assert strict_criterion(FourierSpectrum(group=Z2, coefficients=np.array([0.5, 0.5])))
    assert not strict_criterion(FourierSpectrum(group=Z2, coefficients=np.array([1.0, 0.0])))
    eye = np.stack([np.eye(2, dtype=complex)] * 3)
    assert strict_criterion(FourierSpectrum(group=Z3, coefficients=eye))


def test_min_coefficient_near_the_float_limit_is_finite_or_fails_closed():
    # Hermitian parts taken as (A + A^H) / 2 overflow these finite matrices.
    near = FourierSpectrum(group=Z2, coefficients=np.array([np.diag([1.5e308, 1.0]), np.eye(2)]))
    assert near.min_coefficient() == 1.0
    assert strict_criterion(near)
    # The all-1e308 matrix has the eigenvalue 2e308, beyond the float range.
    beyond = FourierSpectrum(group=Z2, coefficients=np.array([np.full((2, 2), 1e308), np.eye(2)]))
    with pytest.raises(NonFiniteValue):
        beyond.min_coefficient()
    with pytest.raises(NonFiniteValue):
        strict_criterion(beyond)
    # A NaN scalar coefficient is refused before anything reads it.
    with pytest.raises(NonFiniteValue):
        FourierSpectrum(group=Z2, coefficients=np.array([np.nan, 1.0]))


def test_a_non_hermitian_matrix_spectrum_is_refused_at_construction():
    coefficients = np.array([[[1.0, 5j], [0.0, 1.0]], np.eye(2)])
    with pytest.raises(NonHermitianInput):
        FourierSpectrum(group=Z2, coefficients=coefficients)
    # Rounding-level asymmetry, as analysis leaves it, is accepted.
    coefficients[0, 0, 1], coefficients[0, 1, 0] = 0.5 + 1e-14j, 0.5
    assert FourierSpectrum(group=Z2, coefficients=coefficients).min_coefficient() == pytest.approx(0.5)


def test_a_complex_scalar_spectrum_is_checked_as_1x1_matrices():
    # An imaginary coefficient fails closed, with no ComplexWarning from a cast.
    with pytest.raises(NonHermitianInput, match="^matrix 1: asymmetry"):
        FourierSpectrum(group=Z2, coefficients=np.array([1, 5j]))
    # A rounding-level imaginary part is dropped, leaving a real vector.
    spectrum = FourierSpectrum(group=Z2, coefficients=np.array([1 + 1e-14j, 0.5]))
    assert spectrum.coefficients.dtype == np.float64
    assert spectrum.coefficients.tolist() == [1.0, 0.5]
    with pytest.raises(NonFiniteValue):
        FourierSpectrum(group=Z2, coefficients=np.array([np.nan + 0j, 1.0]))


def test_a_character_table_over_the_cap_fails_closed():
    with pytest.raises(TooLarge, match="order 1000000 exceeds the 4096 cap"):
        character_table(FiniteAbelian((1000, 1000)))
    assert character_table(FiniteAbelian((16, 16))).shape == (256, 256)


def test_brute_force_strict_classifies_at_its_tolerance():
    # Coefficients 1 and 1e-6 give a Gram with eigenvalues 2 and 2e-6.
    spectrum = FourierSpectrum(group=Z2, coefficients=np.array([1.0, 1e-6]))
    assert brute_force_strict(spectrum_kernel(spectrum)).is_positive_definite
    assert brute_force_strict(spectrum_kernel(spectrum), tol=1e-3).is_degenerate


def test_brute_force_examples():
    half = FourierSpectrum(group=Z2, coefficients=np.array([0.5, 0.5]))
    verdict = brute_force_strict(spectrum_kernel(half))
    # psi = (1, 0) gives the identity Gram
    assert verdict.is_positive_definite

    flat = FourierSpectrum(group=Z2, coefficients=np.array([1.0, 0.0]))
    verdict = brute_force_strict(spectrum_kernel(flat))
    assert verdict.is_degenerate
    assert verdict.numeric_rank == 1

    eye = FourierSpectrum(group=Z3, coefficients=np.stack([np.eye(2, dtype=complex)] * 3))
    assert brute_force_strict(spectrum_kernel(eye)).is_positive_definite


def test_brute_force_size_cap():
    big = FiniteAbelian((7, 31))
    spectrum = FourierSpectrum(group=big, coefficients=np.ones(big.order))
    with pytest.raises(TooLarge):
        brute_force_strict(spectrum_kernel(spectrum))


def _random_spectrum(group, ell, rng, strict):
    if ell == 1:
        coeffs = rng.uniform(0.1, 1.0, group.order)
        if not strict:
            coeffs[int(rng.integers(group.order))] = 0.0
        return FourierSpectrum(group=group, coefficients=coeffs)
    stack = np.empty((group.order, ell, ell), dtype=complex)
    kill = -1 if strict else int(rng.integers(group.order))
    for gi in range(group.order):
        b = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
        a = b @ b.conj().T + 0.2 * np.eye(ell)
        if gi == kill:
            v = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
            a = np.outer(v, v.conj())
        stack[gi] = 0.5 * (a + a.conj().T)
    return FourierSpectrum(group=group, coefficients=stack)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_criterion_agrees_with_brute_force(ell):
    rng = np.random.default_rng(100 + ell)
    for orders in [(2,), (4,), (2, 3), (3, 4)]:
        group = FiniteAbelian(orders)
        for strict in (True, False):
            spectrum = _random_spectrum(group, ell, rng, strict)
            criterion = strict_criterion(spectrum)
            verdict = brute_force_strict(spectrum_kernel(spectrum))
            assert criterion == strict
            if criterion:
                assert verdict.is_positive_definite
            else:
                assert verdict.is_degenerate


def test_matrix_projection_spectrum_is_sandwich_of_coefficients():
    rng = np.random.default_rng(7)
    group = FiniteAbelian((2, 3))
    spectrum = _random_spectrum(group, 2, rng, strict=True)
    kernel = spectrum_kernel(spectrum)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    projected = project(kernel, v)
    ident = (0, 0)
    values = np.array([projected.eval(x, ident) for x in group.elements()])
    back = analyze(values, group)
    expected = np.array([float(np.vdot(v, a @ v).real) for a in spectrum.coefficients])
    np.testing.assert_allclose(back.coefficients, expected, atol=1e-10)


def test_matrix_roundtrip():
    rng = np.random.default_rng(8)
    group = FiniteAbelian((2, 2))
    spectrum = _random_spectrum(group, 3, rng, strict=True)
    values = synthesize(spectrum)
    back = analyze(values, group)
    np.testing.assert_allclose(back.coefficients, spectrum.coefficients, atol=1e-10)
    assert back.analysis_residual < 1e-12


def test_strict_criterion_honours_strict_tol_for_matrix_spectra():
    stack = np.array([np.diag([1.0, 1e-11]), np.eye(2)])
    spectrum = FourierSpectrum(group=Z2, coefficients=stack)
    assert strict_criterion(spectrum, strict_tol=1e-13)
    assert not strict_criterion(spectrum, strict_tol=1e-10)


@pytest.mark.parametrize("orders", [(5,), (2, 3, 4), (4, 4)])
def test_character_table_equals_character_entrywise(orders):
    group = FiniteAbelian(orders)
    elems = group.elements()
    want = np.array([[character(g, x, group) for x in elems] for g in elems])
    np.testing.assert_array_equal(character_table(group), want)
