"""Symmetry maps, finite evidence for their properties, and orbit splitting.

Aperiodicity and center membership are universally quantified statements
over infinite sets, so the checkers here gather finite evidence (probe
points, a power bound) and report violations; they never claim proof.
Map parameters are plain floats and tuples, so maps compare by value; a NaN or
infinite parameter is a ``ConfigError`` that names it. The checks and the orbit
split raise ``NonFiniteValue`` on a non-finite image (an overflowing scaling).
The orbit split runs on a chunk of instances at once, and ``orbit_decompose``
is its one-instance view.
The declared type of a map's ``space`` field is the rule for where it acts,
and ``spaces.check_space`` enforces it when the map is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InjectivityViolation,
    MissingAdjoint,
    NonFiniteValue,
    PeriodicityDetected,
    SpaceMismatch,
)
from .spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, Space, _finite_float, check_space


_ADJOINT_KINDS = (None, "self", "inverse")


@dataclass(frozen=True)
class SymmetryMap:
    """A map of a space into itself; subclasses define the action.

    ``adjoint_kind`` selects the involution partner used by adjoint
    invariance checks: ``"self"`` for self-adjoint actions, ``"inverse"``
    for actions whose partner is the inverse action, ``None`` when no
    partner is declared. ``__post_init__`` checks the space and the kind;
    subclasses call it before they convert their parameters.
    """

    space: Space

    action_kind = "abstract"

    def __post_init__(self):
        check_space(self)
        kind = getattr(self, "adjoint_kind", None)
        if kind not in _ADJOINT_KINDS:
            raise ConfigError(
                f"adjoint_kind: {kind!r} is not one of {_ADJOINT_KINDS} "
                f"(action kind {self.action_kind!r})"
            )

    def apply(self, x):
        """The image of one point: the one-row view of ``apply_many``."""
        return self.space.unstack(self.apply_many([x]))[0]

    def apply_many(self, points) -> np.ndarray:
        """Images of a point list as one stack (see ``Space.stack``); row i
        holds the canonical value of ``apply(points[i])``."""
        raise NotImplementedError

    def _inverse(self) -> "SymmetryMap":
        raise NotImplementedError(f"{self.action_kind} has no inverse action")

    @property
    def adjoint(self) -> "SymmetryMap | None":
        kind = getattr(self, "adjoint_kind", None)
        if kind is None:
            return None
        if kind == "self":
            return self
        return self._inverse()


@dataclass(frozen=True)
class CircleRotation(SymmetryMap):
    space: Circle
    angle: float
    adjoint_kind: str | None = "inverse"

    action_kind = "circle_rotation"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "angle", _finite_float(self.angle, "angle"))

    def apply_many(self, points) -> np.ndarray:
        return self.space.stack(self.space.stack(points) + self.angle)

    def _inverse(self):
        return CircleRotation(self.space, -self.angle, self.adjoint_kind)


@dataclass(frozen=True)
class EuclideanTranslation(SymmetryMap):
    space: Euclidean
    offset: tuple[float, ...]
    adjoint_kind: str | None = None

    action_kind = "euclidean_translation"

    def __post_init__(self):
        super().__post_init__()
        offset = tuple(_finite_float(c, "offset") for c in np.atleast_1d(self.offset))
        if len(offset) != self.space.dim:
            raise SpaceMismatch("offset length must match the space dimension")
        object.__setattr__(self, "offset", offset)

    def apply_many(self, points) -> np.ndarray:
        return self.space.stack(points) + np.asarray(self.offset)

    def _inverse(self):
        return EuclideanTranslation(self.space, tuple(-c for c in self.offset), self.adjoint_kind)


@dataclass(frozen=True)
class EuclideanScaling(SymmetryMap):
    space: Euclidean
    ratio: float
    adjoint_kind: str | None = "self"

    action_kind = "euclidean_scaling"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "ratio", _finite_float(self.ratio, "ratio"))

    def apply_many(self, points) -> np.ndarray:
        return self.ratio * self.space.stack(points)

    def _inverse(self):
        if self.ratio == 0.0:
            raise MissingAdjoint("scaling by 0 has no inverse, so 'inverse' gives no adjoint")
        return EuclideanScaling(self.space, 1.0 / self.ratio, self.adjoint_kind)


@dataclass(frozen=True)
class ComplexSphereRotation(SymmetryMap):
    """Multiplication by the unit scalar exp(i*angle), a unitary map."""

    space: ComplexSphere
    angle: float
    adjoint_kind: str | None = "inverse"

    action_kind = "complex_sphere_rotation"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "angle", _finite_float(self.angle, "angle"))

    def apply_many(self, points) -> np.ndarray:
        moved = np.exp(1j * self.angle) * self.space.stack(points)
        norms = np.sqrt(np.einsum("ak,ak->a", moved.conj(), moved).real)
        return moved / norms[:, None]

    def _inverse(self):
        return ComplexSphereRotation(self.space, -self.angle, self.adjoint_kind)


@dataclass(frozen=True)
class GroupTranslation(SymmetryMap):
    space: FiniteAbelian
    element: tuple[int, ...]
    adjoint_kind: str | None = "inverse"

    action_kind = "group_translation"

    def __post_init__(self):
        super().__post_init__()
        try:
            element = self.space.canonicalize(self.element)
        except NonFiniteValue as exc:
            raise ConfigError(f"element: {exc}") from exc
        object.__setattr__(self, "element", element)

    def apply_many(self, points) -> np.ndarray:
        return (self.space.stack(points) + np.asarray(self.element)) % np.asarray(self.space.orders)

    def _inverse(self):
        return GroupTranslation(self.space, tuple(-g for g in self.element), self.adjoint_kind)


def _images(phi: SymmetryMap, X) -> np.ndarray:
    """``phi.apply_many(X)``; a NaN or infinite image raises ``NonFiniteValue``."""
    with np.errstate(over="ignore"):
        images = phi.apply_many(X)
    if not np.isfinite(images).all():
        raise NonFiniteValue(f"{phi.action_kind} sends a point to a non-finite image")
    return images


@dataclass(frozen=True)
class AperiodicityEvidence:
    """Finite evidence that no probe returns to itself under iteration."""

    m_max: int
    n_probes: int
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CenterEvidence:
    """Finite evidence that the map commutes with every generator."""

    n_generators: int
    n_probes: int
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def check_aperiodic(phi: SymmetryMap, probes, m_max: int) -> AperiodicityEvidence:
    """Iterate the map up to ``m_max`` times from each probe.

    Reports every (probe, m) with phi^m(probe) == probe. Absence of
    violations is evidence, not proof.
    """
    if m_max < 1:
        raise ConfigError(f"m_max: must be at least 1, got {m_max}")
    space = phi.space
    X = space.stack(list(probes))
    # returned[i]: the first m with phi^m(x_i) == x_i, or 0 while there is none.
    returned = np.zeros(len(X), dtype=np.int64)
    live = np.arange(len(X))
    Y = X
    for m in range(1, m_max + 1):
        if not len(live):
            break
        Y = _images(phi, Y)
        back = space.paired_distances(X[live], Y) <= space.eq_tol
        returned[live[back]] = m
        live, Y = live[~back], Y[~back]
    points = space.unstack(X)
    violations = tuple((points[i], int(returned[i])) for i in np.flatnonzero(returned))
    return AperiodicityEvidence(m_max=m_max, n_probes=len(X), violations=violations)


def check_injective_on(phi: SymmetryMap, points) -> bool:
    """True iff the images of the (distinct) points are pairwise distinct."""
    return phi.space.all_distinct(_images(phi, points))


def check_center(phi: SymmetryMap, generators, probes) -> CenterEvidence:
    """Compare phi(psi(x)) with psi(phi(x)) for each generator and probe."""
    space = phi.space
    violations = []
    generators = list(generators)
    probes = list(probes)
    if any(psi.space != space for psi in generators):
        raise SpaceMismatch("generators must act on the same space as phi")
    X = space.stack(probes)
    moved = _images(phi, X)
    for psi in generators:
        gap = space.paired_distances(_images(phi, _images(psi, X)), _images(psi, moved))
        violations += [(psi, probes[i], float(gap[i])) for i in np.flatnonzero(gap > space.eq_tol)]
    return CenterEvidence(
        n_generators=len(generators), n_probes=len(probes), violations=tuple(violations)
    )


@dataclass(frozen=True)
class OrbitDecomposition:
    """Split of a point list and its image list into m + 2p distinct points.

    ``F`` holds the indices whose image is again one of the input points and
    ``tau`` maps each such index to the index of its image. ``z_points``
    lists the union of inputs and images in three blocks: the m points hit
    by tau, the p fresh images, and the p inputs that tau never reaches.
    Within each block, order follows the ascending index of the underlying
    input point.
    """

    F: tuple[int, ...]
    tau: dict[int, int]
    m: int
    p: int
    z_points: tuple

    @property
    def block_sizes(self) -> tuple[int, int, int]:
        return (self.m, self.p, self.p)


def orbit_decompose(phi: SymmetryMap, points) -> OrbitDecomposition:
    """Decompose {phi(x_i)} union {x_i} for an injective aperiodic map.

    Raises ``InjectivityViolation`` when two points share an image and
    ``PeriodicityDetected`` when every image stays inside the input list or
    the index map tau closes a cycle; both certify that the map violates
    the caller-asserted hypotheses on these points. This is the one-instance
    view of ``_orbit_splits``.
    """
    split = _orbit_splits([(phi, phi.space.stack(points))])[0][0]
    if isinstance(split, Exception):
        raise split
    return split


def _padded(stacks, width: int) -> np.ndarray:
    """Point stacks padded with zero rows to one (len(stacks), width, ...) stack."""
    out = np.zeros((len(stacks), width) + stacks[0].shape[1:], stacks[0].dtype)
    for r, X in enumerate(stacks):
        out[r, : len(X)] = X
    return out


def _orbit_splits(instances) -> tuple[list, np.ndarray]:
    """The orbit split of each (map, canonical point stack) instance, all maps
    on one space: the ``OrbitDecomposition`` or the error ``orbit_decompose``
    raises (in its order: empty input, non-finite image, shared image, crowded
    hit, permutation, cycle), and a stack whose row r begins with split r's z
    points; one padded ``distances`` call finds all shared images, one all hits."""
    space = instances[0][0].space
    stacks = [X for _, X in instances]
    outcomes = []  # (error or None, images) per instance
    for phi, Xr in instances:
        try:
            outcomes.append((None, _images(phi, Xr)) if len(Xr) else (ConfigError("points: must be nonempty"), Xr))
        except NonFiniteValue as exc:
            outcomes.append((exc, np.zeros_like(Xr)))
    splits, images = map(list, zip(*outcomes))
    width = max(1, *(len(X) for X in stacks))
    X, Y = _padded(stacks, width), _padded(images, width)
    n = np.array([0 if split else len(Xr) for split, Xr in zip(splits, stacks)])
    real = np.arange(width) < n[:, None]
    pair = real[:, :, None] & real[:, None, :]
    shared = np.triu(space.distances(Y, Y) <= space.eq_tol, 1) & pair
    # hits[r, mu, nu]: in instance r, the image of point mu coincides with point nu.
    hits = (space.distances(Y, X) <= space.eq_tol) & pair
    counts = hits.sum(axis=2)
    # z: the hit points, the images that hit none, the points never hit.
    hit = hits.any(axis=1)
    keep = np.concatenate([hit, real & (counts == 0), real & ~hit], axis=1)
    order = np.argsort(~keep, axis=1, kind="stable").reshape(keep.shape + (1,) * (X.ndim - 2))
    Z = np.take_along_axis(np.concatenate([X, Y, X], axis=1), order, axis=1)
    n_z = keep.sum(axis=1)
    shared_any, crowded_any = shared.any(axis=(1, 2)).tolist(), (counts > 1).any(axis=1).tolist()
    counts_l, first_l = counts.tolist(), hits.argmax(axis=2).tolist()
    for r in np.flatnonzero(n).tolist():
        if shared_any[r]:
            i, j = np.argwhere(shared[r])[0]
            splits[r] = InjectivityViolation(f"points at indices {i} and {j} share an image")
            continue
        if crowded_any[r]:
            mu = np.flatnonzero(counts[r] > 1)[0]
            splits[r] = InjectivityViolation(
                f"image of index {mu} matches several input points {np.flatnonzero(hits[r, mu]).tolist()}; "
                "point separation is too small for the equality tolerance"
            )
            continue
        F = [mu for mu, count in enumerate(counts_l[r]) if count]
        tau = {mu: first_l[r][mu] for mu in F}
        if len(F) == n[r]:
            splits[r] = PeriodicityDetected("every image is again an input point, so tau is a permutation")
        elif (cur := _first_revisit(F, tau)) is not None:
            splits[r] = PeriodicityDetected(f"tau cycles through index {cur}")
        else:
            splits[r] = OrbitDecomposition(F=tuple(F), tau=tau, m=len(F), p=len(stacks[r]) - len(F),
                                           z_points=tuple(space.unstack(Z[r, : n_z[r]])))
    return splits, Z


def _first_revisit(F, tau) -> int | None:
    """Where tau, followed from each index of F in turn while it stays in F,
    first comes back to an index of that path; None if every path leaves F."""
    for mu in F:
        seen, cur = {mu}, mu
        while cur in tau:  # tau's keys are F
            cur = tau[cur]
            if cur in seen:
                return cur
            seen.add(cur)
