"""Concrete point spaces with tolerance-aware equality and sampling.

Four spaces are supported: the unit circle (points are angles in
``[-pi, pi)``), Euclidean space, the unit sphere of complex q-space, and
finite products of cyclic groups. Points are plain values (float, real
array, complex array, integer tuple); the space objects own canonical
forms, metrics, and equality. ``Space.stack`` turns a point list into one
array of canonical points (``(n,)`` angles, ``(n, d)`` coordinates or
``(n, r)`` group elements), ``Space.unstack`` turns a stack back into a
point list, and ``Space.distances`` measures every pair of two such stacks
at once; the vectorised kernels, the sampler and the orbit split work on
stacks. ``distances`` also takes leading stack axes: two stacks of a and b
points under the same leading axes give an ``(..., a, b)`` array whose every
slice equals the call on that slice bit for bit, so one call measures many
point lists at once (``paired_distances`` is a stack of 1 x 1 slices).

Each scalar operation is the one-row view of its stacked form, except the
``Circle`` and ``Euclidean`` ``canonicalize`` and ``distance``: callers that
handle one point or pair at a time (point decoding, the ``counterexample``
checks, ``sample_distinct`` and the criterion-4 test oracle) would pay
several times as much for one-row stacks. Those round exactly as ``stack``
and ``distances`` do, so scalar and stacked results agree bit for bit.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product

import numpy as np

from .errors import (
    ConfigError,
    ExhaustedSampling,
    NonFiniteValue,
    SpaceMismatch,
    TooLarge,
    TooManyPoints,
)

EQ_TOL = 1e-9
MIN_SEP = 1e-3
UNIT_NORM_TOL = 1e-12
# The largest group order over which a (|G|, |G|) table (characters, element
# differences) is built; its complex character table takes 256 MiB.
MAX_TABLE_ORDER = 4096

_TWO_PI = 2.0 * math.pi

# The declared field types of a class, looked up once per class.
field_types = cache(typing.get_type_hints)


def check_space(obj) -> None:
    """The space rule: ``obj.space`` is an instance of the declared type of its ``space`` field."""
    allowed = field_types(type(obj))["space"]
    if not isinstance(obj.space, allowed):
        names = " | ".join(t.__name__ for t in typing.get_args(allowed) or (allowed,))
        raise SpaceMismatch(f"{type(obj).__name__} acts on {names}, not on {obj.space!r}")


def cyclic_orders(orders, name: str = "orders") -> tuple[int, ...]:
    """``FiniteAbelian``'s rule: a nonempty list of orders of at least 2 (a refusal names ``name``)."""
    try:
        checked = tuple(int(q) for q in orders)
    except (TypeError, ValueError):
        checked = ()
    if not checked or min(checked) < 2:
        raise ConfigError(f"{name}: must list cyclic orders of at least 2, got {orders!r}")
    return checked


def _wrap_angle(a):
    """Wrap an angle, or an array of angles, into [-pi, pi)."""
    return (a + math.pi) % _TWO_PI - math.pi


def _as_array(points, dtype, what: str) -> np.ndarray:
    """The points as one array of ``dtype`` (None keeps numpy's choice)."""
    try:
        arr = np.asarray(points)
        # A cast to a real dtype would keep only the real parts.
        if arr.dtype.kind == "c" and dtype is np.float64:
            raise SpaceMismatch(f"complex values in a list of {what}")
        return arr if dtype is None else arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpaceMismatch(f"not a list of {what}") from exc


@dataclass(frozen=True)
class Space:
    """Base class; concrete spaces are the dataclasses below."""

    # Trailing axes of one canonical point in a stack: 1 for coordinates and
    # group elements, 0 for circle angles.
    point_ndim = 1

    def __post_init__(self):
        if getattr(self, "dim", 1) < 1:
            raise ConfigError(f"dim: must be at least 1, got {self.dim!r}")
        # A NaN, infinite or negative eq_tol makes every ``distance <= eq_tol`` false.
        if not 0.0 <= self.eq_tol < math.inf:
            raise ConfigError(f"eq_tol: must be a nonnegative finite number, got {self.eq_tol!r}")

    def canonicalize(self, x):
        """The canonical form of one point: the one-row view of ``stack``."""
        return self.unstack(self.stack([x]))[0]

    def stack(self, points) -> np.ndarray:
        """Canonical forms of the points stacked along axis 0.

        Every point is validated once, with the same rules (and the same
        canonical values) as ``canonicalize``.
        """
        raise NotImplementedError

    def unstack(self, X) -> list:
        """The rows of a stack as points of the type ``canonicalize`` returns."""
        return list(X)

    def distance(self, x, y) -> float:
        return float(self.distances(self.stack([x]), self.stack([y]))[0, 0])

    def distances(self, X, Y) -> np.ndarray:
        """Distance matrix between two stacks of canonical points, over any
        leading stack axes the two share (see the module docstring)."""
        raise NotImplementedError

    def paired_distances(self, X, Y) -> np.ndarray:
        """Distance from X[i] to Y[i] for each row: a stack of 1 x 1 slices."""
        return self.distances(X[:, None], Y[:, None])[:, 0, 0]

    def all_distinct(self, X) -> bool:
        """True iff no two points of a stack coincide within ``eq_tol``."""
        close = self.distances(X, X) <= self.eq_tol
        return not np.triu(close, 1).any()

    def points_equal(self, x, y) -> bool:
        return self.distance(x, y) <= self.eq_tol

    def random_point(self, rng: np.random.Generator):
        """One random point: the one-row view of ``random_points``."""
        return self.unstack(self.random_points(rng, 1))[0]

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k random points stacked along axis 0, drawn in one call where the
        space allows it.

        Stream contract: the generator consumes exactly the draws of k
        one-point calls and ends in the same state, and row i equals the
        i-th of those points. Rows are raw draws, not canonical forms.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Circle(Space):
    eq_tol: float = EQ_TOL

    point_ndim = 0

    def canonicalize(self, x) -> float:
        try:
            # float() of a numpy complex would keep only its real part.
            if not isinstance(x, (float, int)) and np.iscomplexobj(x):
                raise SpaceMismatch(f"complex circle angle {x!r}")
            angle = float(x)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SpaceMismatch(f"not a circle angle: {x!r}") from exc
        if not math.isfinite(angle):
            raise NonFiniteValue(f"non-finite circle angle {x!r}")
        return _wrap_angle(angle)

    def stack(self, points) -> np.ndarray:
        arr = _as_array(points, np.float64, "circle angles")
        if arr.ndim != 1:
            raise SpaceMismatch(f"expected a list of circle angles, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteValue("non-finite angle in the point list")
        return _wrap_angle(arr)

    def unstack(self, X) -> list[float]:
        return X.tolist()

    # A scalar fast path (see the module docstring). Two canonical angles
    # differ by less than 2 pi, so their distance is min(|d|, 2 pi - |d|).
    def distance(self, x, y) -> float:
        d = abs(self.canonicalize(x) - self.canonicalize(y))
        return min(d, _TWO_PI - d)

    def distances(self, X, Y) -> np.ndarray:
        d = np.abs(X[..., :, None] - Y[..., None, :])
        return np.minimum(d, _TWO_PI - d)

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.uniform(-math.pi, math.pi, k)


@dataclass(frozen=True)
class Euclidean(Space):
    dim: int
    eq_tol: float = EQ_TOL

    # A scalar fast path: the conversion of ``stack``, the contraction of ``distances``.
    def canonicalize(self, x) -> np.ndarray:
        arr = _as_array(x, np.float64, "coordinates")
        if arr.shape != (self.dim,):
            raise SpaceMismatch(f"expected a vector of length {self.dim}, got {x!r}")
        if not all(map(math.isfinite, arr.tolist())):
            raise NonFiniteValue(f"non-finite coordinates in {x!r}")
        return arr

    def stack(self, points) -> np.ndarray:
        return _stack_vectors(self, points, np.float64)

    def distance(self, x, y) -> float:
        d = self.canonicalize(x) - self.canonicalize(y)
        return math.sqrt(float(np.einsum("k,k->", d, d)))

    def distances(self, X, Y) -> np.ndarray:
        d = X[..., :, None, :] - Y[..., None, :, :]
        return np.sqrt(np.einsum("...abk,...abk->...ab", d, d))

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return rng.standard_normal((k, self.dim))


@dataclass(frozen=True)
class ComplexSphere(Space):
    """Unit sphere of complex q-space; the chordal metric measures distance."""

    dim: int
    eq_tol: float = EQ_TOL

    def stack(self, points) -> np.ndarray:
        arr = _stack_vectors(self, points, np.complex128)
        norms = np.sqrt(np.einsum("ak,ak->a", arr.conj(), arr).real)
        if (np.abs(norms - 1.0) > UNIT_NORM_TOL).any():
            raise SpaceMismatch(f"a point norm is not 1 within {UNIT_NORM_TOL}")
        return arr

    def distances(self, X, Y) -> np.ndarray:
        d = X[..., :, None, :] - Y[..., None, :, :]
        return np.sqrt(np.einsum("...abk,...abk->...ab", d.conj(), d).real)

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        # Each point draws its real parts, then its imaginary parts.
        parts = rng.standard_normal((k, 2, self.dim))
        v = parts[:, 0] + 1j * parts[:, 1]
        return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class FiniteAbelian(Space):
    """Product of cyclic groups Z_q1 x ... x Z_ql, written additively.

    Equality is exact: ``eq_tol`` is 0, and distinct elements are 1 apart.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", cyclic_orders(self.orders))

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def eq_tol(self) -> float:
        return 0.0

    def stack(self, points) -> np.ndarray:
        """Points of r integral coordinates (bare integers on a rank-1 group) as one
        (n, r) int64 array mod the orders. The first bad point names the error; a list
        that does not form one numeric array (ragged, strings) is a ``SpaceMismatch``."""
        rank = len(self.orders)
        arr = _as_array(points, None, "group elements")
        if arr.dtype.kind not in "biuf":
            raise SpaceMismatch(f"not a list of group elements: {points!r}")
        if arr.shape[:1] == (0,) or (arr.ndim == 1 and rank == 1 and arr.dtype.kind != "f"):
            arr = arr.reshape(-1, rank)
        if arr.ndim != 2:
            raise SpaceMismatch(f"expected points of {rank} coordinates, got {points!r}")
        finite = np.isfinite(arr).all(axis=1)
        bad = ~finite | (arr.shape[1] != rank) | (arr != np.floor(arr)).any(axis=1)
        if bad.any():
            first = int(np.argmax(bad))
            if not finite[first]:
                raise NonFiniteValue(f"non-finite group coordinate in {arr[first].tolist()}")
            what = "non-integral group coordinate" if arr.shape[1] == rank else f"not {rank} coordinates"
            raise SpaceMismatch(f"{what} in {arr[first].tolist()}")
        if arr.dtype.kind in "uf" and not (np.abs(arr) < 2**63).all():
            raise SpaceMismatch(f"group coordinate beyond the int64 range in {points!r}")
        return arr.astype(np.int64) % np.array(self.orders)

    def unstack(self, X) -> list[tuple[int, ...]]:
        return [tuple(e) for e in X.tolist()]

    def distances(self, X, Y) -> np.ndarray:
        return (X[..., :, None, :] != Y[..., None, :, :]).any(axis=-1).astype(np.float64)

    def difference_indices(self, X, Y) -> np.ndarray:
        """Lexicographic index of X[..., a] - Y[..., b] for two stacks of elements
        (over any shared leading axes), read from a cached (|G|, |G|) table of
        element differences."""
        strides, table = _differences(self)
        return table[(X @ strides)[..., :, None], (Y @ strides)[..., None, :]]

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(e) for e in product(*(range(q) for q in self.orders))]

    def random_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        # One integer per order, point after point.
        draws = [int(rng.integers(q)) for _ in range(k) for q in self.orders]
        return np.array(draws, dtype=np.int64).reshape(k, len(self.orders))


def _table_elements(group: FiniteAbelian) -> np.ndarray:
    """The elements as one (|G|, r) int64 array, the rows and columns of a
    (|G|, |G|) table; an order above ``MAX_TABLE_ORDER`` raises ``TooLarge``
    before any element is listed."""
    if group.order > MAX_TABLE_ORDER:
        raise TooLarge(f"a table over a group of order {group.order} exceeds the {MAX_TABLE_ORDER} cap")
    return np.array(group.elements(), dtype=np.int64)


@lru_cache(maxsize=32)
def _differences(group: FiniteAbelian) -> tuple[np.ndarray, np.ndarray]:
    """Strides of the lexicographic order and the index table of e_a - e_b."""
    q = group.orders
    strides = np.array([math.prod(q[r + 1 :]) for r in range(len(q))], dtype=np.int64)
    elems = _table_elements(group)
    table = ((elems[:, None] - elems[None]) % np.array(q)) @ strides
    table.setflags(write=False)
    return strides, table


def _stack_vectors(space, points, dtype) -> np.ndarray:
    arr = _as_array(points, dtype, f"vectors of length {space.dim}")
    if arr.shape == (0,):
        arr = arr.reshape(0, space.dim)
    if arr.ndim != 2 or arr.shape[1] != space.dim:
        raise SpaceMismatch(f"expected a list of vectors of length {space.dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue("non-finite coordinates in the point list")
    return arr


def pairwise_distinct(space: Space, points) -> bool:
    """True iff no two points coincide within tolerance; no program path calls it, bench/tracing.py spans it."""
    return space.all_distinct(space.stack(points))


def sample_distinct(space: Space, n: int, min_sep: float = MIN_SEP, seed=None) -> list:
    """Draw ``n`` points with pairwise distance above ``min_sep``.

    Deterministic for a given ``seed`` (PCG64). On a finite abelian group
    the draw is a uniform subset without replacement and ``min_sep`` is
    ignored; on continuous spaces a bounded rejection loop is used.
    """
    if n < 0:
        raise ConfigError(f"n: must be nonnegative, got {n}")
    rng = np.random.default_rng(seed)
    if isinstance(space, FiniteAbelian):
        if n > space.order:
            raise TooManyPoints(f"requested {n} points from a group of order {space.order}")
        elems = space.elements()
        picks = rng.permutation(space.order)[:n]
        return [elems[i] for i in picks]
    if min_sep <= space.eq_tol:
        raise ConfigError(f"min_sep: must exceed the space's eq_tol {space.eq_tol}, got {min_sep}")
    points: list = []
    attempts = 0
    budget = 1000 * max(n, 1)
    while len(points) < n:
        if attempts >= budget:
            raise ExhaustedSampling(
                f"placed {len(points)} of {n} points after {attempts} attempts"
            )
        attempts += 1
        cand = space.canonicalize(space.random_point(rng))
        if all(space.distance(cand, p) > min_sep for p in points):
            points.append(cand)
    return points
