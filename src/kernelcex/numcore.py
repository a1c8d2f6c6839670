"""Dense complex Hermitian linear algebra with tolerance-aware verdicts.

All thresholds are relative to the spectral scale of the matrix at hand
(largest absolute eigenvalue), because Gram entries of the kernel catalog
span several orders of magnitude. The verdict rule lives in one place,
``_verdicts``, which returns one ``PDVerdict`` per matrix: ``classify``
applies it to one matrix and returns null vectors, ``classify_many`` to a
stack after one batched eigenvalue call. A tolerance outside (0, 1) is a
``ConfigError`` (``relative_tol``), and non-finite entries or a non-finite
spectrum raise ``NonFiniteValue``: garbage gets no verdict.
Everything here is pure and safe to use from concurrent workers.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteValue, NonHermitianInput, SolverError

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


@dataclass(frozen=True)
class PDVerdict:
    """Outcome of classifying a Hermitian matrix.

    ``null_vectors`` holds orthonormal columns spanning the numerical null
    space; it is empty unless the matrix is degenerate, and always empty in
    a verdict of ``classify_many``, which computes eigenvalues only.
    ``scale`` is the largest absolute eigenvalue and normalizes every
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
    finite, with finite entry moduli, and Hermitian up to ``HERM_TOL`` times
    its largest entry; a refusal of a stack names the first offending matrix
    by its index."""
    arr = np.array(matrices, dtype=np.complex128)
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise DimensionMismatch(f"expected {'a stack of ' if ndim == 3 else 'a '}square "
                                f"matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue("matrix has NaN or infinite entries")
    # A modulus that overflows bounds the spectrum from below, so no verdict
    # is finite; a difference that overflows is beyond any tolerance.
    with np.errstate(over="ignore"):
        entry_scale = np.max(np.abs(arr), axis=(-2, -1), initial=0.0)
        asym = np.max(np.abs(arr - np.swapaxes(arr, -2, -1).conj()), axis=(-2, -1), initial=0.0)
    overflow = np.ravel(np.isinf(entry_scale))
    if overflow.any():
        where = f"matrix {int(np.argmax(overflow))}: " if ndim == 3 else ""
        raise NonFiniteValue(f"{where}an entry's modulus overflows")
    bad = np.ravel(asym > HERM_TOL * np.maximum(entry_scale, 1e-300))
    if bad.any():
        i = int(np.argmax(bad))
        where = f"matrix {i}: " if ndim == 3 else ""
        raise NonHermitianInput(
            f"{where}asymmetry {np.ravel(asym)[i]:.3e} exceeds {HERM_TOL:.1e} * scale "
            f"{np.ravel(entry_scale)[i]:.3e}"
        )
    return arr


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    # The Hermitian part (A + A^H) / 2, written so that it neither overflows
    # a finite matrix nor rounds away subnormal entries.
    return arr + 0.5 * (np.swapaxes(arr, -2, -1).conj() - arr)


def relative_tol(tol, name: str = "tol") -> float:
    """The one rule for a relative tolerance: a number in (0, 1) (a refusal names ``name``)."""
    if isinstance(tol, (int, float, np.floating)) and 0.0 < tol < 1.0:
        return tol
    raise ConfigError(f"{name}: must be a relative tolerance in (0, 1), got {tol!r}")


def _verdicts(stack: np.ndarray, tol: float, null_vectors: bool = False) -> tuple[PDVerdict, ...]:
    """The verdict rule for each matrix of a checked stack, after one
    decomposition of the symmetrized stack: scale (largest absolute
    eigenvalue), cutoff ``tol * scale``, kind (positive definite above the
    cutoff, indefinite below minus it, degenerate between) and numeric rank
    (eigenvalues above the cutoff in magnitude). Null vectors are computed
    only when asked for; a non-finite spectrum raises ``NonFiniteValue``."""
    tol = relative_tol(tol)
    try:
        if null_vectors:
            eigvals, eigvecs = np.linalg.eigh(_symmetrized(stack))
        else:
            eigvals = np.linalg.eigvalsh(_symmetrized(stack))
    except np.linalg.LinAlgError as exc:
        raise SolverError(str(exc)) from exc
    if not np.isfinite(eigvals).all():
        raise NonFiniteValue("matrix has a NaN or infinite eigenvalue")
    scales = np.max(np.abs(eigvals), axis=1)
    cutoffs = tol * scales
    ranks = np.count_nonzero(np.abs(eigvals) > cutoffs[:, None], axis=1)
    empty = np.zeros((stack.shape[-1], 0), dtype=np.complex128)
    out = []
    rows = zip(eigvals[:, 0].tolist(), cutoffs.tolist(), ranks.tolist(), scales.tolist())
    for k, (low, cutoff, rank, scale) in enumerate(rows):
        kind = (PDKind.POSITIVE_DEFINITE if low > cutoff
                else PDKind.INDEFINITE if low < -cutoff
                else PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE)
        null = empty
        if null_vectors and kind is PDKind.POSITIVE_SEMIDEFINITE_DEGENERATE:
            null = eigvecs[k][:, np.abs(eigvals[k]) <= cutoff]
        out.append(PDVerdict(kind, low, rank, null, scale))
    return tuple(out)


def _entries(matrix) -> np.ndarray:
    """The checked entries of a ``HermitianMatrix`` or of an array_like."""
    return matrix.entries if isinstance(matrix, HermitianMatrix) else _checked_stack(matrix, 2)


def classify(matrix, tol: float = PD_TOL) -> PDVerdict:
    """Classify a Hermitian matrix (a ``HermitianMatrix`` or an array_like)
    as PD, degenerate PSD, or indefinite. An eigenvalue counts as zero when
    its magnitude is at most ``tol``, a relative tolerance in (0, 1), times
    the spectral scale. A full eigendecomposition rather than a Cholesky
    attempt lets a degenerate verdict return null vectors as witnesses.
    """
    return _verdicts(_entries(matrix)[None], tol, null_vectors=True)[0]


def classify_many(matrices, tol: float = PD_TOL) -> tuple[PDVerdict, ...]:
    """Classify a stack of Hermitian matrices of one size, one verdict each.

    Each matrix is checked as by ``HermitianMatrix`` and classified by the
    rule of ``classify``, with thresholds relative to its own spectral
    scale, after one batched ``eigvalsh`` call; the verdicts carry no null
    vectors.
    """
    return _verdicts(_checked_stack(matrices, 3), tol)


def quadratic_form(matrix, coefficients) -> float:
    """Return the real part of ``c* M c``.

    A warning is emitted when the imaginary part exceeds ``RESID_TOL``
    times the spectral scale proxy (largest entry magnitude), which signals
    a matrix that is not Hermitian enough for the form to be real.
    """
    entries = _entries(matrix)
    c = np.asarray(coefficients, dtype=np.complex128)
    if c.shape != entries.shape[:1]:
        raise DimensionMismatch(f"coefficient length {c.shape} does not match dim {len(entries)}")
    value = complex(np.vdot(c, entries @ c))
    entry_scale = float(np.max(np.abs(entries)))
    norm_sq = float(np.vdot(c, c).real)
    if abs(value.imag) > RESID_TOL * entry_scale * max(norm_sq, 1.0):
        warnings.warn(
            f"quadratic form has imaginary part {value.imag:.3e}", stacklevel=2
        )
    return float(value.real)
