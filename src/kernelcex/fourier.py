"""Characters and Fourier analysis on finite products of cyclic groups.

A translation-invariant kernel on G = Z_q1 x ... x Z_ql has the form
K(x, y) = psi(x - y) with psi(d) = sum_g a_g xi_g(d), where
xi_g(x) = prod_r exp(2 pi i g_r x_r / q_r). The kernel is positive
definite exactly when all a_g are nonnegative, and strictly positive
definite exactly when all a_g are positive; the matrix-valued analogue
replaces a_g by Hermitian matrices A_g and positivity by positive
definiteness of every A_g. Analysis uses direct O(|G|^2) summation
against a dense character table, which is exact enough and ample at the
supported sizes.

The group is written additively; x - y componentwise mod q_r plays the
role of composing with the inverse element. ``brute_force_strict`` is the
generic strictness oracle for one kernel; the full-group Grams of a class of
spectra (one group, one ell) are built as one stack by gathering each
``synthesize`` table through the cached table of element differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteValue, TooLarge, WrongLength, WrongSpaceKind
from .kernels import GroupFourier, MatrixKernel, ScalarKernel
from .numcore import PD_TOL, PDVerdict, _checked_stack, _symmetrized, classify_many
from .spaces import FiniteAbelian, _differences, _finite_float, _table_elements

STRICT_TOL = 1e-10
MAX_BRUTE_SIZE = 200
# A character table is built over at most spaces.MAX_TABLE_ORDER elements.


def character(g, x, group: FiniteAbelian) -> complex:
    """Value of the character indexed by g at the element x."""
    if not isinstance(group, FiniteAbelian):
        raise WrongSpaceKind("characters live on a FiniteAbelian space")
    gc = group.canonicalize(g)
    xc = group.canonicalize(x)
    angle = 2.0 * math.pi * sum(gr * xr / q for gr, xr, q in zip(gc, xc, group.orders))
    return complex(np.exp(1j * angle))


@lru_cache(maxsize=32)
def character_table(group: FiniteAbelian) -> np.ndarray:
    """Table T[g_index, x_index] = xi_g(x) over the lexicographic order.

    The phase sum_r g_r x_r / q_r is accumulated one coordinate at a time,
    in the order ``character`` sums it, so the table equals ``character``
    entry for entry and no (|G|, |G|, r) temporary is built. A group of
    order above ``spaces.MAX_TABLE_ORDER`` raises ``TooLarge``.
    """
    elems = _table_elements(group)
    phase = np.zeros((len(elems), len(elems)))
    for r, q in enumerate(group.orders):
        phase += np.outer(elems[:, r], elems[:, r]) / q
    phase *= 2.0 * math.pi
    table = phase * 1j
    np.exp(table, out=table)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class FourierSpectrum:
    """Coefficient family indexed by group elements in lexicographic order.

    Scalar spectra store a real vector of shape (|G|,), and a NaN or an
    infinity in it raises ``NonFiniteValue`` at construction; matrix spectra
    store a complex stack of shape (|G|, ell, ell) of Hermitian matrices,
    and a stack that numcore's Hermitian check refuses (non-finite, or
    asymmetric beyond ``HERM_TOL`` relative) raises at construction. A
    complex scalar vector is checked as a stack of 1 x 1 matrices, so a
    coefficient with an imaginary part raises rather than being dropped.
    ``analysis_residual`` records how much imaginary (or anti-Hermitian)
    content the analysis discarded; a large value is evidence that the
    analyzed function does not come from a positive definite kernel.
    """

    group: FiniteAbelian
    coefficients: np.ndarray
    analysis_residual: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients)
        if coeffs.ndim == 1:
            if np.iscomplexobj(coeffs):
                coeffs = _checked_stack(coeffs[:, None, None], 3)[:, 0, 0].real
            coeffs = coeffs.astype(np.float64)
            if not np.isfinite(coeffs).all():
                raise NonFiniteValue("the coefficient spectrum has a NaN or infinite value")
        elif coeffs.ndim == 3 and coeffs.shape[1] == coeffs.shape[2]:
            coeffs = _checked_stack(coeffs, 3)
        else:
            raise WrongLength(f"coefficients must be (|G|,) or (|G|, ell, ell), got {coeffs.shape}")
        if coeffs.shape[0] != self.group.order:
            raise WrongLength(
                f"need {self.group.order} coefficients, got {coeffs.shape[0]}"
            )
        _finite_float(self.analysis_residual, "analysis_residual")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def is_matrix(self) -> bool:
        return self.coefficients.ndim == 3

    @property
    def ell(self) -> int:
        return self.coefficients.shape[1] if self.is_matrix else 1

    def min_coefficient(self) -> float:
        """Smallest coefficient (scalar) or smallest eigenvalue of the
        Hermitian parts of the coefficient matrices (matrix). A NaN or
        infinite coefficient, or eigenvalue, raises ``NonFiniteValue``."""
        values = self.coefficients
        if self.is_matrix:
            values = np.linalg.eigvalsh(_symmetrized(values))
        if not np.isfinite(values).all():
            raise NonFiniteValue("the coefficient spectrum has a NaN or infinite value")
        return float(np.min(values))


def analyze(values, group: FiniteAbelian) -> FourierSpectrum:
    """Recover coefficients from a table of function values over G.

    ``values`` lists psi over the lexicographic element order, either as
    |G| scalars or as |G| square matrices. Coefficients come out as
    a_g = (1/|G|) sum_x psi(x) conj(xi_g(x)); the representation is unique.
    Imaginary parts (scalar case) and anti-Hermitian parts (matrix case)
    are split off into ``analysis_residual`` as non-positive-definiteness
    evidence.
    """
    vals = np.asarray(values)
    n = group.order
    if vals.shape[0] != n:
        raise WrongLength(f"need {n} values, got {vals.shape[0]}")
    table = character_table(group)
    if vals.ndim == 1:
        raw = table.conj() @ vals.astype(np.complex128) / n
        residual = float(np.max(np.abs(raw.imag)))
        return FourierSpectrum(group=group, coefficients=raw.real, analysis_residual=residual)
    if vals.ndim == 3 and vals.shape[1] == vals.shape[2]:
        raw = np.einsum("gx,xij->gij", table.conj(), vals.astype(np.complex128)) / n
        herm = _symmetrized(raw)
        residual = float(np.max(np.abs(raw - herm)))
        return FourierSpectrum(group=group, coefficients=herm, analysis_residual=residual)
    raise WrongLength(f"values must be (|G|,) or (|G|, ell, ell), got {vals.shape}")


def synthesize(spectrum: FourierSpectrum) -> np.ndarray:
    """Tabulate psi(x) = sum_g a_g xi_g(x) over the lexicographic order.

    The induced translation-invariant kernel is K(x, y) = psi(x - y);
    see ``spectrum_kernel`` for an evaluable kernel object.
    """
    table = character_table(spectrum.group)
    if spectrum.is_matrix:
        return np.einsum("gx,gij->xij", table, spectrum.coefficients)
    return spectrum.coefficients.astype(np.complex128) @ table


def spectrum_kernel(spectrum: FourierSpectrum) -> ScalarKernel | MatrixKernel:
    """Evaluable kernel K(x, y) = sum_g a_g xi_g(x) conj(xi_g(y))."""
    group, coeffs = spectrum.group, spectrum.coefficients
    if not spectrum.is_matrix:
        return GroupFourier(group, coeffs)
    ell = spectrum.ell
    entries = tuple(tuple(GroupFourier(group, coeffs[:, i, j]) for j in range(ell)) for i in range(ell))
    return MatrixKernel(space=group, ell=ell, entries=entries)


def strict_criterion(spectrum: FourierSpectrum, strict_tol: float = STRICT_TOL) -> bool:
    """Coefficient test for strict positive definiteness of the synthesis.

    Scalar spectra must have every coefficient above ``strict_tol``;
    matrix spectra must have the smallest eigenvalue of every coefficient
    matrix's Hermitian part above ``strict_tol``. The threshold is absolute,
    not relative to the spectrum's scale.
    """
    return spectrum.min_coefficient() > strict_tol


def brute_force_strict(kernel, tol: float = PD_TOL) -> PDVerdict:
    """Ground-truth strictness oracle: classify the Gram over all of G
    (distinct points) at the relative tolerance ``tol``.

    The verdict is that of ``classify_many`` (eigenvalues only), so it
    carries no null vectors even when the Gram is degenerate.
    """
    group = kernel.space
    if not isinstance(group, FiniteAbelian):
        raise WrongSpaceKind("brute_force_strict needs a kernel on a FiniteAbelian space")
    ell = kernel.ell if isinstance(kernel, MatrixKernel) else 1
    size = group.order * ell
    if size > MAX_BRUTE_SIZE:
        raise TooLarge(f"dense Gram of size {size} exceeds the {MAX_BRUTE_SIZE} cap")
    elements = group.stack(group.elements())
    return classify_many(kernel.block(elements, elements)[None], tol)[0]


def _full_group_grams(spectra) -> np.ndarray:
    """The Grams ``brute_force_strict`` classifies for the ``spectrum_kernel``
    of each spectrum (one group, one ell), as one (len(spectra), ell |G|, ell |G|)
    stack: that kernel's block is psi at each element difference's index, so
    each Gram gathers ``synthesize``'s psi through the cached difference table."""
    n, ell = spectra[0].group.order, spectra[0].ell
    psi = np.stack([synthesize(s) for s in spectra]).reshape(len(spectra), n, ell, ell)
    # psi[:, table][k, a, b, i, j] = psi_k(e_a - e_b)[i, j] goes to row i n + a, column j n + b.
    return psi[:, _differences(spectra[0].group)[1]].transpose(0, 3, 1, 4, 2).reshape(len(spectra), ell * n, ell * n)
