"""Constructors for 2x2 matrix kernels that are positive definite but not
strictly so, while every scalar projection stays strictly positive definite.

The common shape is the grid

    [ k(phi(x), phi(y))   k(phi(x), y) ]
    [ k(x, phi(y))        k(x, y)      ]

built from a scalar kernel k and a map phi. The unitary variant asks for
k invariant under a semigroup containing phi in its center; the adjoint
variant asks for adjoint invariance instead; the shifted variant adds the
constant k(origin, origin) to both diagonal entries so that a fixed point
of phi (such as the origin of a scaling) can rejoin the space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensions,
    MissingAdjoint,
    OriginNotFixed,
    WitnessFailed,
)
from .kernels import Composed, MatrixKernel, OffsetKernel, ScalarKernel, ZeroKernel, gram
from .numcore import PD_TOL, RESID_TOL, HermitianMatrix, PDVerdict, classify, quadratic_form
from .symmetry import SymmetryMap


class Variant(enum.Enum):
    UNITARY = "unitary"
    ADJOINT = "adjoint"
    SHIFTED_ADJOINT = "shifted_adjoint"


@dataclass(frozen=True)
class CounterexampleKernel:
    """A constructed 2x2 grid kernel together with its ingredients."""

    base: ScalarKernel
    map: SymmetryMap
    variant: Variant
    as_matrix: MatrixKernel
    origin: object | None = None


def _flat(coefficients) -> np.ndarray:
    return np.asarray(coefficients, dtype=np.complex128).T.ravel()


@dataclass(frozen=True)
class DegeneracyWitness:
    """Points and coefficient vectors that annihilate the Gram form, with the
    blocked Gram G at the points, its verdict, and ||G f|| / ||f|| for the
    flattened coefficients f."""

    points: tuple
    coefficients: tuple[tuple[complex, ...], ...]
    achieved_form_value: float
    gram: HermitianMatrix
    verdict: PDVerdict
    annihilation_residual: float

    def flattened(self) -> np.ndarray:
        """Coefficients in the coordinate-major layout used by ``gram``:
        entry i*n + mu holds coordinate i of the vector at point mu."""
        return _flat(self.coefficients)


def _grid(base: ScalarKernel, phi: SymmetryMap) -> tuple[tuple[ScalarKernel, ...], ...]:
    return (
        (Composed(base, phi, phi), Composed(base, phi, None)),
        (Composed(base, None, phi), base),
    )


def build_unitary(base: ScalarKernel, phi: SymmetryMap) -> CounterexampleKernel:
    """Grid kernel for a map that commutes with the invariance semigroup."""
    matrix = MatrixKernel(space=base.space, ell=2, entries=_grid(base, phi))
    return CounterexampleKernel(base=base, map=phi, variant=Variant.UNITARY, as_matrix=matrix)


def build_adjoint(base: ScalarKernel, phi: SymmetryMap) -> CounterexampleKernel:
    """Grid kernel in the adjoint-invariance setting; phi needs a partner."""
    grid = _grid(base, phi)
    if phi.adjoint is None:
        raise MissingAdjoint("the adjoint variant needs a map with an involution partner")
    matrix = MatrixKernel(space=base.space, ell=2, entries=grid)
    return CounterexampleKernel(base=base, map=phi, variant=Variant.ADJOINT, as_matrix=matrix)


def build_shifted(base: ScalarKernel, phi: SymmetryMap, origin) -> CounterexampleKernel:
    """Grid kernel with k(origin, origin) added to both diagonal entries.

    Requires phi(origin) == origin; the added constant restores
    invertibility of the kernel value at the fixed point.
    """
    grid = _grid(base, phi)
    space = base.space
    origin = space.canonicalize(origin)
    if not space.points_equal(phi.apply(origin), origin):
        raise OriginNotFixed("the map must fix the origin of the shifted construction")
    at_origin = base.eval(origin, origin)
    offset = float(at_origin.real)
    shifted = (
        (OffsetKernel(grid[0][0], offset), grid[0][1]),
        (grid[1][0], OffsetKernel(grid[1][1], offset)),
    )
    matrix = MatrixKernel(space=space, ell=2, entries=shifted)
    return CounterexampleKernel(
        base=base, map=phi, variant=Variant.SHIFTED_ADJOINT, as_matrix=matrix, origin=origin
    )


def embed(kernel: MatrixKernel, ell: int, filler: ScalarKernel) -> MatrixKernel:
    """Pad a matrix kernel to size ell with zero kernels off the original
    block and the filler kernel on the remaining diagonal entries.

    The filler must be strictly positive definite on the space for the
    padded kernel to inherit the projection properties of the original;
    ``MatrixKernel`` refuses a filler on another space.
    """
    m = kernel.ell
    if not 2 <= m <= ell:
        raise BadDimensions(f"cannot embed an ell={m} kernel into ell={ell}")
    zero = ZeroKernel(kernel.space)
    grid = tuple(
        tuple(
            kernel.entries[i][j]
            if i < m and j < m
            else (filler if i == j else zero)
            for j in range(ell)
        )
        for i in range(ell)
    )
    return MatrixKernel(space=kernel.space, ell=ell, entries=grid)


def witness(
    cex: CounterexampleKernel, x, tol: float = RESID_TOL, pd_tol: float = PD_TOL
) -> DegeneracyWitness:
    """Analytic degeneracy witness at the point x.

    For the unitary and adjoint variants the witness pair is {x, phi(x)}
    with coefficient vectors (1, 0) and (0, -1): the Gram row of
    coordinate 1 at x coincides with the row of coordinate 2 at phi(x).
    When phi fixes x the single point x with coefficients (1, -1) already
    annihilates the all-equal 2x2 block. The shifted variant uses the
    triple {origin, x, phi(x)} with vectors (-1, 1), (1, 0), (0, -1).
    On an embedded kernel (ell > 2) the vectors are padded with zeros.

    The analytically known direction is returned rather than an
    eigenvector, because null bases of degenerate matrices are not
    unique; the Gram is built once and classified once, at pd_tol.
    """
    space = cex.as_matrix.space
    x = space.canonicalize(x)
    fx = cex.map.apply(x)
    if cex.variant is Variant.SHIFTED_ADJOINT:
        if space.points_equal(x, cex.origin):
            raise WitnessFailed("the shifted witness needs a point distinct from the origin")
        if space.points_equal(fx, x) or space.points_equal(fx, cex.origin):
            raise WitnessFailed("the map collapses the witness triple; choose another point")
        points = (cex.origin, x, fx)
        coefficients = ((-1 + 0j, 1 + 0j), (1 + 0j, 0j), (0j, -1 + 0j))
    elif space.points_equal(x, fx):
        points = (x,)
        coefficients = ((1 + 0j, -1 + 0j),)
    else:
        points = (x, fx)
        coefficients = ((1 + 0j, 0j), (0j, -1 + 0j))
    padding = (0j,) * (cex.as_matrix.ell - 2)
    coefficients = tuple(c + padding for c in coefficients)

    matrix = gram(cex.as_matrix, points)
    flat = _flat(coefficients)
    value = quadratic_form(matrix, flat)
    verdict = classify(matrix, pd_tol)
    norm_sq = float(np.vdot(flat, flat).real)
    residual = float(np.linalg.norm(matrix.entries @ flat)) / float(np.linalg.norm(flat))
    if abs(value) > tol * verdict.scale * norm_sq:
        raise WitnessFailed(
            f"witness form value {value:.3e} exceeds {tol:.1e} * scale {verdict.scale:.3e}"
        )
    return DegeneracyWitness(points, coefficients, value, matrix, verdict, residual)
