"""Dense complex Hermitian linear algebra with tolerance-aware verdicts.

All thresholds are relative to the spectral scale of the matrix at hand
(largest absolute eigenvalue), because Gram entries of the kernel catalog
span several orders of magnitude. The verdict rule lives in one place,
``_verdicts``: ``classify`` applies it to one matrix and returns null
vectors, ``classify_many`` to a stack of matrices after one batched
eigenvalue call. Non-finite entries are rejected rather than classified.
Everything here is pure and safe to use from concurrent workers.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NonHermitianInput, SolverError

PD_TOL = 1e-9
HERM_TOL = 1e-12
RESID_TOL = 1e-8


class PDKind(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    POSITIVE_SEMIDEFINITE_DEGENERATE = "positive_semidefinite_degenerate"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class HermitianMatrix:
    """A square complex matrix, Hermitian up to ``HERM_TOL`` times its scale.

    Kernel evaluation introduces rounding asymmetry, so the constructor
    accepts matrices whose asymmetry stays below ``HERM_TOL`` relative to
    the largest entry magnitude. NaN and infinite entries are rejected.
    Entries are stored read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _checked_stack(self.entries, 2)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def symmetrized(self) -> np.ndarray:
        return _symmetrized(self.entries)


@dataclass(frozen=True)
class PDVerdict:
    """Outcome of classifying a Hermitian matrix.

    ``null_vectors`` holds orthonormal columns spanning the numerical null
    space; it is empty unless the matrix is degenerate, and always empty in
    a verdict of ``fourier.brute_force_strict``, which computes eigenvalues
    only. ``scale`` is the largest absolute eigenvalue and normalizes every
    threshold.
    """

    kind: PDKind
    min_eigenvalue: float
    numeric_rank: int
    null_vectors: np.ndarray
    scale: float

    @property
    def is_positive_definite(self) -> bool:
        return self.kind is PDKind.POSITIVE_DEFINITE

    @property
    def is_degenerate(self) -> bool:
        return self.kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE


def _checked_stack(matrices, ndim: int) -> np.ndarray:
    """Square complex matrices (ndim 2) or a stack of them (ndim 3), each
    finite and Hermitian up to ``HERM_TOL`` times its largest entry."""
    arr = np.array(matrices, dtype=np.complex128)
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise DimensionMismatch(f"expected {'a stack of ' if ndim == 3 else 'a '}square "
                                f"matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue("matrix has NaN or infinite entries")
    entry_scale = np.max(np.abs(arr), axis=(-2, -1), initial=0.0)
    asym = np.max(np.abs(arr - np.swapaxes(arr, -2, -1).conj()), axis=(-2, -1), initial=0.0)
    bad = np.ravel(asym > HERM_TOL * np.maximum(entry_scale, 1e-300))
    if bad.any():
        i = int(np.argmax(bad))
        raise NonHermitianInput(
            f"asymmetry {np.ravel(asym)[i]:.3e} exceeds {HERM_TOL:.1e} * scale "
            f"{np.ravel(entry_scale)[i]:.3e}"
        )
    return arr


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    return 0.5 * (arr + np.swapaxes(arr, -2, -1).conj())


def _spectrum(solver, arr: np.ndarray):
    try:
        return solver(_symmetrized(arr))
    except np.linalg.LinAlgError as exc:
        raise SolverError(str(exc)) from exc


def _verdicts(eigvals: np.ndarray, tol: float):
    """The verdict rule for each row of ascending eigenvalues: scales (largest
    absolute eigenvalue), smallest eigenvalues, cutoffs ``tol * scale``, kinds
    (positive definite above the cutoff, indefinite below minus it, degenerate
    between) and numeric ranks (eigenvalues above the cutoff in magnitude)."""
    scales = np.max(np.abs(eigvals), axis=1)
    cutoffs = tol * scales
    min_eigs = eigvals[:, 0]
    kinds = tuple(
        PDKind.POSITIVE_DEFINITE if m > c
        else PDKind.INDEFINITE if m < -c
        else PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE
        for m, c in zip(min_eigs.tolist(), cutoffs.tolist())
    )
    ranks = np.count_nonzero(np.abs(eigvals) > cutoffs[:, None], axis=1)
    return scales, min_eigs, cutoffs, kinds, ranks


def _coerce(matrix) -> HermitianMatrix:
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(np.asarray(matrix))


def classify(matrix, tol: float = PD_TOL) -> PDVerdict:
    """Classify a Hermitian matrix as PD, degenerate PSD, or indefinite.

    Parameters
    ----------
    matrix : HermitianMatrix or array_like
        The matrix to classify; symmetrized before decomposition.
    tol : float
        Relative eigenvalue threshold (default ``PD_TOL``). An eigenvalue
        counts as zero when its magnitude is at most ``tol`` times the
        spectral scale.

    A full eigendecomposition is used rather than a Cholesky attempt so
    that degenerate verdicts can return null vectors as witnesses.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mat = _coerce(matrix)
    eigvals, eigvecs = _spectrum(np.linalg.eigh, mat.entries)
    scales, min_eigs, cutoffs, kinds, ranks = _verdicts(eigvals[None], tol)
    if kinds[0] is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE:
        null = eigvecs[:, np.abs(eigvals) <= cutoffs[0]]
    else:
        null = np.zeros((mat.dim, 0), dtype=np.complex128)
    return PDVerdict(
        kind=kinds[0],
        min_eigenvalue=float(min_eigs[0]),
        numeric_rank=int(ranks[0]),
        null_vectors=null,
        scale=float(scales[0]),
    )


@dataclass(frozen=True)
class BatchVerdict:
    """Verdicts for a stack of Hermitian matrices, one entry per matrix.

    The rule is that of ``classify``; null vectors are not computed.
    """

    kinds: tuple[PDKind, ...]
    min_eigenvalues: np.ndarray
    numeric_ranks: np.ndarray
    scales: np.ndarray


def classify_many(matrices, tol: float = PD_TOL) -> BatchVerdict:
    """Classify a stack of Hermitian matrices of one size.

    Each matrix is checked and symmetrized as by ``HermitianMatrix`` and
    ``classify``, and every eigenvalue threshold is ``tol`` times that
    matrix's own spectral scale. One batched ``eigvalsh`` call replaces a
    decomposition per matrix.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eigvals = _spectrum(np.linalg.eigvalsh, _checked_stack(matrices, 3))
    scales, min_eigs, _, kinds, ranks = _verdicts(eigvals, tol)
    return BatchVerdict(kinds=kinds, min_eigenvalues=min_eigs, numeric_ranks=ranks, scales=scales)


def quadratic_form(matrix, coefficients) -> float:
    """Return the real part of ``c* M c``.

    A warning is emitted when the imaginary part exceeds ``RESID_TOL``
    times the spectral scale proxy (largest entry magnitude), which signals
    a matrix that is not Hermitian enough for the form to be real.
    """
    mat = _coerce(matrix)
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape != (mat.dim,):
        raise DimensionMismatch(f"coefficient length {c.shape} does not match dim {mat.dim}")
    value = complex(np.vdot(c, mat.entries @ c))
    entry_scale = float(np.max(np.abs(mat.entries)))
    norm_sq = float(np.vdot(c, c).real)
    if abs(value.imag) > RESID_TOL * entry_scale * max(norm_sq, 1.0):
        warnings.warn(
            f"quadratic form has imaginary part {value.imag:.3e}", stacklevel=2
        )
    return float(value.real)


def numeric_rank(matrix, tol: float = PD_TOL) -> int:
    """Count eigenvalues whose magnitude exceeds ``tol`` times the scale."""
    return classify(matrix, tol).numeric_rank
