"""Scalar and matrix-valued kernel evaluation, projections, and Gram assembly.

The scalar catalog covers the circle kernel exp(cos(theta - vartheta)), the
Gaussian exp(-sigma ||x - y||^2), the exponential dot-product kernel, the
torus product kernel, and synthesized kernels on finite abelian groups.

Every kernel has one evaluation path, ``block(X, Y)``: given stacks of
canonical points (``Space.stack``) of shapes ``(..., n, .)`` and
``(..., m, .)`` under the same leading stack axes, it returns the
``(..., n, m)`` array of kernel values in one vectorised step, each slice
equal to the call on that slice bit for bit. The leaf kernels write their
formula once, on stacks; ``Composed`` maps each stack once with
``SymmetryMap.apply_many``; ``OffsetKernel`` and ``ZeroKernel`` shift or
replace a block. A matrix kernel is a grid of scalar kernels, and its block
is the grid of entry blocks in coordinate-major layout on the last two axes,
with the blocks of ``ZeroKernel`` entries left zero and never evaluated; so
a scalar projection K_v is the sesquilinear combination sum_ij conj(v_i) v_j
of entry blocks. Pointwise ``eval`` is ``block`` on one-point stacks,
``pair_values`` is ``block`` on a stack of one-point rows, and ``gram``
(``grams`` on a stack of point sets) is ``block`` of a stack with itself
after one distinctness check.
Non-finite kernel values (an overflowing exponential, say) raise
``NonFiniteValue``. The declared type of a kernel's ``space`` field (a union
where it acts on several) is the rule for where it acts; ``check_space``
enforces it when the kernel is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    DuplicatePoints,
    MissingAdjoint,
    NonFiniteValue,
    SpaceMismatch,
    ZeroVector,
)
from .numcore import RESID_TOL, HermitianMatrix
from .spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, Space, _count, _finite_float, check_space
from .symmetry import SymmetryMap


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise NonFiniteValue("kernel values overflowed or are undefined (NaN or infinity)")
    return values


def _stack_shape(space: Space, X) -> tuple[int, ...]:
    """The stack axes of a point stack: its shape without the point axes."""
    return X.shape[: X.ndim - space.point_ndim]


class ScalarKernel:
    """Base class for evaluable Hermitian scalar kernels."""

    space: Space

    def __post_init__(self):
        check_space(self)

    def block(self, X, Y) -> np.ndarray:
        """Kernel values k(X[..., a], Y[..., b]) for two stacks of canonical points."""
        raise NotImplementedError

    def eval(self, x, y) -> complex:
        values = self.block(self.space.stack([x]), self.space.stack([y]))
        return complex(_finite(values)[0, 0])


@dataclass(frozen=True)
class CircleExpCos(ScalarKernel):
    """k(theta, vartheta) = exp(cos(theta - vartheta)) on the circle."""

    space: Circle

    def block(self, X, Y) -> np.ndarray:
        return np.exp(np.cos(X[..., :, None] - Y[..., None, :]))


@dataclass(frozen=True)
class Gaussian(ScalarKernel):
    """k(x, y) = exp(-sigma ||x - y||^2) on Euclidean space."""

    space: Euclidean
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not _finite_float(self.sigma, "sigma") > 0:
            raise ConfigError(f"sigma: must be a positive finite number, got {self.sigma!r}")

    def block(self, X, Y) -> np.ndarray:
        # Differences rather than |x|^2 + |y|^2 - 2<x, y>, which cancels
        # catastrophically for nearby points.
        d = X[..., :, None, :] - Y[..., None, :, :]
        return np.exp(-self.sigma * np.einsum("...abk,...abk->...ab", d, d))


@dataclass(frozen=True)
class DotExp(ScalarKernel):
    """k(x, y) = exp(scale * Re<x, y>) + shift.

    On Euclidean space the real part is vacuous; on the complex sphere the
    real part of the Hermitian inner product keeps the kernel Hermitian and
    invariant under multiplication of both arguments by a unit scalar.
    """

    space: Euclidean | ComplexSphere
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        _finite_float(self.scale, "scale")
        _finite_float(self.shift, "shift")

    def block(self, X, Y) -> np.ndarray:
        inner = (X @ np.swapaxes(Y.conj(), -1, -2)).real
        # An overflow becomes inf here and NonFiniteValue at the caller.
        with np.errstate(over="ignore"):
            return np.exp(self.scale * inner) + self.shift


@dataclass(frozen=True)
class TorusProduct(ScalarKernel):
    """k(x, y) = prod_m 2 / (2 - exp(i (x_m - y_m))).

    Coordinates are treated as angles; the formula is 2*pi periodic in each
    coordinate difference, so Circle and Euclidean points both work.
    """

    space: Circle | Euclidean

    def block(self, X, Y) -> np.ndarray:
        if isinstance(self.space, Circle):
            X, Y = X[..., None], Y[..., None]
        d = X[..., :, None, :] - Y[..., None, :, :]
        return np.prod(2.0 / (2.0 - np.exp(1j * d)), axis=-1)


@dataclass(frozen=True)
class GroupFourier(ScalarKernel):
    """k(x, y) = sum_g c_g xi_g(x) conj(xi_g(y)) on a finite abelian group.

    Coefficients are indexed by the lexicographic element order. They are
    real and nonnegative for a positive definite kernel, but the class also
    accepts complex coefficients so it can serve as a grid entry of a
    matrix-valued synthesis.
    """

    space: FiniteAbelian
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        super().__post_init__()
        # One conversion of the whole column; the field stays a tuple.
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (self.space.order,):
            raise DimensionMismatch(f"need {self.space.order} coefficients, got shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ConfigError("coefficients: must be finite numbers")
        object.__setattr__(self, "coefficients", tuple(coeffs.tolist()))
        # psi(d) = sum_g c_g xi_g(d), evaluated once per group element.
        from .fourier import character_table

        object.__setattr__(self, "_difference_table", coeffs @ character_table(self.space))

    def block(self, X, Y) -> np.ndarray:
        # k(x, y) = psi(x - y).
        return self._difference_table[self.space.difference_indices(X, Y)]


def _mapped(phi: SymmetryMap | None, X) -> np.ndarray:
    """The images of a point stack under phi (X itself for None), mapped as one point list."""
    if phi is None:
        return X
    lead = _stack_shape(phi.space, X)
    return phi.apply_many(X.reshape(-1, *X.shape[len(lead) :])).reshape(X.shape)


@dataclass(frozen=True)
class Composed(ScalarKernel):
    """Base kernel with a map applied to the left and/or right argument."""

    base: ScalarKernel
    left: SymmetryMap | None = None
    right: SymmetryMap | None = None

    def __post_init__(self):
        super().__post_init__()
        for m in (self.left, self.right):
            if m is not None and m.space != self.base.space:
                raise SpaceMismatch("pre-composition maps must act on the kernel's space")

    @property
    def space(self) -> Space:
        return self.base.space

    def block(self, X, Y) -> np.ndarray:
        return self.base.block(_mapped(self.left, X), _mapped(self.right, Y))


@dataclass(frozen=True)
class OffsetKernel(ScalarKernel):
    """Base kernel plus a real additive constant."""

    base: ScalarKernel
    offset: float

    def __post_init__(self):
        super().__post_init__()
        _finite_float(self.offset, "offset")

    @property
    def space(self) -> Space:
        return self.base.space

    def block(self, X, Y) -> np.ndarray:
        return self.base.block(X, Y) + self.offset


@dataclass(frozen=True)
class ZeroKernel(ScalarKernel):
    space: Space

    def block(self, X, Y) -> np.ndarray:
        return np.zeros(_stack_shape(self.space, X) + _stack_shape(self.space, Y)[-1:])


@dataclass(frozen=True)
class MatrixKernel:
    """An ell x ell grid of scalar kernels evaluated entrywise."""

    space: Space
    ell: int
    entries: tuple[tuple[ScalarKernel, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "ell", _count(self.ell, "ell"))
        grid = tuple(tuple(row) for row in self.entries)
        if len(grid) != self.ell or any(len(row) != self.ell for row in grid):
            raise DimensionMismatch("entries must form an ell x ell grid")
        for row in grid:
            for entry in row:
                if entry.space != self.space:
                    raise SpaceMismatch("all grid entries must live on the same space")
        object.__setattr__(self, "entries", grid)
        # Grid positions and entries that are not ``ZeroKernel``s.
        live = tuple((i, j, e) for i, row in enumerate(grid) for j, e in enumerate(row)
                     if not isinstance(e, ZeroKernel))
        object.__setattr__(self, "_live_entries", live)

    def block(self, X, Y) -> np.ndarray:
        """The (..., ell n, ell m) array whose block (i, j) on the last two axes
        is entry (i, j)'s block; the blocks of ``ZeroKernel`` entries stay zero
        unevaluated."""
        *lead, n = _stack_shape(self.space, X)
        m = _stack_shape(self.space, Y)[-1]
        blocks = [(i, j, entry.block(X, Y)) for i, j, entry in self._live_entries]
        dtype = np.result_type(np.float64, *(b for _, _, b in blocks))
        out = np.zeros((*lead, self.ell * n, self.ell * m), dtype=dtype)
        for i, j, b in blocks:
            out[..., i * n : (i + 1) * n, j * m : (j + 1) * m] = b
        return out

    def eval(self, x, y) -> np.ndarray:
        return _finite(self.block(self.space.stack([x]), self.space.stack([y]))).astype(np.complex128)


@dataclass(frozen=True)
class ProjectedKernel(ScalarKernel):
    """Scalar projection K_v(x, y) = <K(x, y) v, v> of a matrix kernel."""

    matrix: MatrixKernel
    v: tuple[complex, ...]

    def __post_init__(self):
        super().__post_init__()
        vec = np.asarray(self.v, dtype=np.complex128)
        vec.setflags(write=False)
        object.__setattr__(self, "_vec", vec)

    @property
    def space(self) -> Space:
        return self.matrix.space

    def block(self, X, Y) -> np.ndarray:
        # sum_ij conj(v_i) v_j K_ij(X, Y), contracted from the grid's block.
        ell = self.matrix.ell
        *lead, n = _stack_shape(self.space, X)
        blocked = self.matrix.block(X, Y).reshape(*lead, ell, n, ell, _stack_shape(self.space, Y)[-1])
        return np.einsum("i,...iajb,j->...ab", self._vec.conj(), blocked, self._vec)


def project(kernel: MatrixKernel, v) -> ProjectedKernel:
    """Project a matrix kernel onto a nonzero direction v."""
    vec = np.asarray(v, dtype=np.complex128)
    if vec.shape != (kernel.ell,):
        raise DimensionMismatch(f"projection vector must have length {kernel.ell}")
    if float(np.linalg.norm(vec)) == 0.0:
        raise ZeroVector("projection vector must be nonzero")
    return ProjectedKernel(matrix=kernel, v=tuple(complex(c) for c in vec))


def gram(kernel, points) -> HermitianMatrix:
    """Gram matrix over pairwise distinct points.

    Scalar kernels give an n x n matrix. Matrix kernels give an
    (ell n) x (ell n) matrix in coordinate-major block layout: row index
    i*n + mu holds coordinate i at point mu, so block (i, j) is the n x n
    Gram of grid entry (i, j). Raises ``NonFiniteValue`` when a kernel
    value is NaN or infinite.
    """
    return HermitianMatrix(grams(kernel, kernel.space.stack(points)))


def grams(kernel, X) -> np.ndarray:
    """The Gram matrices of a stack of canonical point sets, shape (..., n, .),
    as one (..., n, n) array (ell n for a matrix kernel), with ``gram``'s
    checks: pairwise distinct points in every set and finite values."""
    if not kernel.space.all_distinct(X):
        raise DuplicatePoints("gram needs pairwise distinct points")
    return _finite(kernel.block(X, X))


@dataclass(frozen=True)
class InvarianceEvidence:
    """Largest residual seen over sampled probe pairs and maps."""

    max_residual: float
    scale: float
    tol: float
    n_probes: int
    n_maps: int

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol * self.scale


def pair_values(kernel, X, Y) -> np.ndarray:
    """K(X[p], Y[p]) for every row p of two equally long point stacks, as a
    (P, ell, ell) array (ell = 1 for a scalar kernel): the block of a stack of
    one-point rows, as ``Space.paired_distances`` measures them."""
    return _finite(kernel.block(X[:, None], Y[:, None]))


def _largest_norm(values: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(values, axis=(1, 2)), initial=0.0))


def _probe_stacks(kernel, maps, probes):
    space = kernel.space
    for phi in maps:
        if phi.space != space:
            raise SpaceMismatch("maps must act on the kernel's space")
    return space.stack([x for x, _ in probes]), space.stack([y for _, y in probes])


def check_unitary_invariance(kernel, maps, probes, tol: float = RESID_TOL) -> InvarianceEvidence:
    """Measure max ||K(phi(x), phi(y)) - K(x, y)|| over probe pairs."""
    maps = list(maps)
    probes = list(probes)
    X, Y = _probe_stacks(kernel, maps, probes)
    base = pair_values(kernel, X, Y)
    scale = _largest_norm(base)
    max_resid = 0.0
    for phi in maps:
        moved = pair_values(kernel, phi.apply_many(X), phi.apply_many(Y))
        scale = max(scale, _largest_norm(moved))
        max_resid = max(max_resid, _largest_norm(moved - base))
    return InvarianceEvidence(
        max_residual=max_resid, scale=scale, tol=tol, n_probes=len(probes), n_maps=len(maps)
    )


def check_adjoint_invariance(kernel, maps, probes, tol: float = RESID_TOL) -> InvarianceEvidence:
    """Measure max ||K(x, phi(y)) - K(phi*(x), y)|| over probe pairs."""
    maps = list(maps)
    probes = list(probes)
    X, Y = _probe_stacks(kernel, maps, probes)
    for phi in maps:
        if phi.adjoint is None:
            raise MissingAdjoint(f"{phi.action_kind} carries no involution partner")
    max_resid = 0.0
    scale = 0.0
    for phi in maps:
        left = pair_values(kernel, X, phi.apply_many(Y))
        right = pair_values(kernel, phi.adjoint.apply_many(X), Y)
        scale = max(scale, _largest_norm(left), _largest_norm(right))
        max_resid = max(max_resid, _largest_norm(left - right))
    return InvarianceEvidence(
        max_residual=max_resid, scale=scale, tol=tol, n_probes=len(probes), n_maps=len(maps)
    )
