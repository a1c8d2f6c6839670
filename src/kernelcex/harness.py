"""Named verification suites with deterministic sampling and reports.

Each suite ties one construction-level claim to runnable numerical checks
and returns a report whose records carry the claim text and the numeric
evidence. All randomness flows through numpy's PCG64 generator seeded from
``(seed, stream, trial)`` tuples, so identical configurations reproduce
identical reports on any platform.

Parameter conventions baked into the shipped suites (rotation angle 1.0,
Gaussian width 1.0, translation along the first axis, scaling ratio 2.0)
are harness choices, not mathematically forced values; reports flag them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import fourier, numcore
from .counterexample import (
    build_adjoint,
    build_shifted,
    build_unitary,
    embed,
    witness,
)
from .errors import ConfigError, KernelCexError
from .fourier import (
    FourierSpectrum,
    analyze,
    character_table,
    strict_criterion,
    synthesize,
)
from .kernels import (
    CircleExpCos,
    DotExp,
    Gaussian,
    OffsetKernel,
    check_adjoint_invariance,
    check_unitary_invariance,
    gram,
    grams,
    pair_values,
    project,
)
from .numcore import classify, classify_many, relative_tol
from .serialize import SCHEMA_VERSION, _field, _refuse_unknown, dumps
from .spaces import (Circle, ComplexSphere, Euclidean, FiniteAbelian, Space, _draw_many, _separated_sets,
                     cyclic_orders, field_types)
from .symmetry import (
    CircleRotation,
    ComplexSphereRotation,
    EuclideanScaling,
    EuclideanTranslation,
    SymmetryMap,
    _orbit_splits,
    _padded,
    check_aperiodic,
    check_center,
    check_injective_on,
)

# Merged point sets (samples together with their images) must stay this far
# apart so that Gram conditioning reflects the constructed degeneracies and
# nothing else.
_CIRCLE_SEP = 0.3
_EUCLIDEAN_SEP = 0.3
_SPHERE_SEP = 0.25


@dataclass
class SuiteConfig:
    """Knobs for one suite run; every field has a reproducible default."""

    suite: str
    seed: int = 42
    n_points: int = 8
    trials: int = 20
    projection_trials: int = 50
    min_sep: float | None = None
    radius: float | None = None
    m_max: int = 50
    probes: int = 64
    group: tuple[int, ...] | None = None
    orbit_instances: int = 200
    spectra: int = 100
    pd_tol: float = numcore.PD_TOL
    resid_tol: float = numcore.RESID_TOL
    strict_tol: float = fourier.STRICT_TOL

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        """A validated config; a key other than suite, schema_version and the suite's knobs is refused."""
        info = _suite_info(data.get("suite"))
        _refuse_unknown(data, {"suite", "schema_version", *info.knobs}, f"config of suite {info.name}")
        cfg = cls(**{k: v for k, v in data.items() if k != "schema_version"})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Decode every field but ``suite`` in place by serialize's field rule
        (so ``"trials": 2.0`` is 2), refuse a field outside the suite's knobs
        that differs from its default, then check the ranges."""
        info = _suite_info(self.suite)
        types = field_types(SuiteConfig)
        for f in dataclasses.fields(self)[1:]:
            setattr(self, f.name, _field(f.name, types[f.name], getattr(self, f.name)))
            if f.name not in info.knobs and getattr(self, f.name) != f.default:
                raise ConfigError(f"config of suite {info.name}: {f.name} is not one of its knobs")
        if self.seed < 0:
            raise ConfigError(f"seed: must be nonnegative, got {self.seed}")
        for name in ("n_points", "trials", "projection_trials", "m_max", "probes",
                     "orbit_instances", "spectra"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be at least 1")
        for name in ("pd_tol", "resid_tol"):
            relative_tol(getattr(self, name), name)
        for name in ("strict_tol", "min_sep", "radius"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name}: must be positive")
        if self.group is not None:
            self.group = cyclic_orders(self.group, "group")


@dataclass
class CheckRecord:
    """One named check: the claim it exercises, pass/fail, and evidence."""

    name: str
    claim: str
    passed: bool
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "passed": self.passed,
            "evidence": self.evidence,
        }


@dataclass
class SuiteReport:
    suite: str
    records: list[CheckRecord]
    environment: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "status": "pass" if self.passed else "fail",
            "environment": self.environment,
            "records": [r.to_dict() for r in self.records],
        }


def _rng(cfg: SuiteConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed,) + key)


# No program path calls _draw; bench/tracing.py keeps it by counting its calls.
def _draw(space: Space, rng: np.random.Generator, radius: float | None):
    if isinstance(space, Euclidean) and radius is not None:
        return rng.uniform(-radius, radius, space.dim)
    return space.random_point(rng)


# A sampled point set is accepted only when the base-kernel Gram over the
# merged set (points plus images) is positive definite by numcore's verdict
# rule at this relative tolerance.
# Every projection Gram is B* G B with B*B = ||v||^2 I whenever no image
# collides with a point, so its relative minimum eigenvalue can only be
# better; the floor therefore guarantees positive definite verdicts at
# pd_tol with a factor-ten margin.
_CONDITIONING_FLOOR = 1e-8


def _sample_merged_many(space: Space, phi: SymmetryMap | None, n: int, min_sep: float, rngs,
                        radius=None, include=(), min_norm=0.0, cond_kernel=None) -> np.ndarray:
    """For each generator, the first set of its separated-point search
    (``spaces._separated_sets``) whose merged set (points, images and any
    included points) passes the conditioning floor on ``cond_kernel``'s Gram,
    as one canonical stack of shape (len(rngs), len(include) + n, ...),
    included points first.

    Separation plus the floor keep projection Gram matrices away from
    incidental ill-conditioning, so that only the constructed degeneracies
    can make a verdict non-definite. One stacked Gram and one
    ``classify_many`` call decide the floor for every set still pending, and
    a set that fails resumes its own search.

    Stream contract: each generator yields, bit for bit, the points of a
    loop that draws and tests one candidate at a time, and reads no draw
    past the search's cap. Where it stands afterwards is unspecified: each
    caller passes fresh generators and draws nothing more from them.
    """
    searches = [_separated_sets(space, phi, n, min_sep, rng, radius, include, min_norm) for rng in rngs]
    found = [next(search) for search in searches]
    pending = range(len(found)) if cond_kernel is not None else []
    while pending:
        merged = np.stack([found[i][0] for i in pending])
        verdicts = classify_many(grams(cond_kernel, merged), _CONDITIONING_FLOOR)
        pending = [i for i, v in zip(pending, verdicts) if not v.is_positive_definite]
        for i in pending:
            found[i] = next(searches[i])
    return np.stack([points for _, points in found])


def _sample_merged(space, phi, n, min_sep, rng, radius=None, include=(), min_norm=0.0, cond_kernel=None) -> list:
    """The one-generator view of ``_sample_merged_many``, as a point list."""
    sets = _sample_merged_many(space, phi, n, min_sep, [rng], radius, include, min_norm, cond_kernel)
    return space.unstack(sets[0])


# Projection vectors shorter than this are redrawn.
_MIN_VECTOR_NORM = 1e-3


def _projection_vectors(rng: np.random.Generator, ell: int, count: int) -> np.ndarray:
    """``count`` complex vectors of norm above 1e-3, one per row.

    Stream contract: each vector draws its real parts, then its imaginary
    parts, and short vectors are redrawn, so the rows, the draws consumed
    and the final generator state equal those of drawing one vector at a
    time. Each refill draws only the shortfall, so nothing is drawn past
    the last accepted vector.
    """
    out = np.empty((0, ell), dtype=np.complex128)
    while len(out) < count:
        parts = rng.standard_normal((count - len(out), 2, ell))
        v = parts[:, 0] + 1j * parts[:, 1]
        norms = np.linalg.norm(v, axis=1)
        keep = norms > _MIN_VECTOR_NORM
        # Norms this close to the threshold are decided by the scalar norm.
        for i in np.flatnonzero(np.abs(norms - _MIN_VECTOR_NORM) <= 1e-12 * _MIN_VECTOR_NORM):
            keep[i] = np.linalg.norm(v[i]) > _MIN_VECTOR_NORM
        out = np.concatenate([out, v[keep]])
    return out


def _probe_pairs(space: Space, rng: np.random.Generator, count: int, radius: float | None = None):
    points = space.unstack(space.stack(_draw_many(space, rng, radius, 2 * count)))
    return list(zip(points[::2], points[1::2]))


def _null_alignment_angle(verdict, direction: np.ndarray) -> float:
    """Angle between a direction and the numerical null space (radians)."""
    if verdict.null_vectors.shape[1] == 0:
        return math.pi / 2
    d = direction / np.linalg.norm(direction)
    proj = verdict.null_vectors @ (verdict.null_vectors.conj().T @ d)
    cosine = min(1.0, float(np.linalg.norm(proj)))
    return math.acos(cosine)


def _chunks(count: int, size: int):
    """range(count) in consecutive ranges of at most ``size``."""
    for start in range(0, count, size):
        yield range(start, min(start + size, count))


# Strictness trials are sampled, assembled and classified this many at a
# time, so memory stays bounded; the streams and the reports do not depend
# on it.
_TRIAL_CHUNK = 50


def _rec(name: str, claim: str, passed: bool, **evidence) -> CheckRecord:
    return CheckRecord(name=name, claim=claim, passed=bool(passed), evidence=evidence)


def _witness_record(
    cfg: SuiteConfig, cex, x, name="degeneracy-witness", claim=None, keys=None
) -> CheckRecord:
    """The witness at x as a record; ``keys`` selects the evidence reported."""
    claim = claim or (
        "the blocked Gram at the witness points is positive semidefinite but "
        "degenerate, and the analytic coefficient direction spans its null space"
    )
    try:
        w = witness(cex, x, tol=cfg.resid_tol, pd_tol=cfg.pd_tol)
    except KernelCexError as exc:
        return _rec(name, claim, False, error=str(exc))
    verdict = w.verdict
    # witness() has already bounded the form value by resid_tol * scale * |flat|^2.
    evidence = dict(
        min_eigenvalue=verdict.min_eigenvalue,
        scale=verdict.scale,
        numeric_rank=verdict.numeric_rank,
        form_value=w.achieved_form_value,
        annihilation_residual=w.annihilation_residual,
        null_alignment_angle=_null_alignment_angle(verdict, w.flattened()),
        n_witness_points=len(w.points),
    )
    passed = verdict.is_degenerate and w.annihilation_residual <= cfg.resid_tol * verdict.scale
    return _rec(name, claim, passed, **{k: evidence[k] for k in keys or evidence})


def _projection_strictness_record(cfg: SuiteConfig, cex, min_sep: float, radius: float | None,
                                  name="projection-strictness", include=(), min_norm: float = 0.0) -> CheckRecord:
    claim = (
        "every sampled scalar projection of the grid kernel has a positive "
        "definite Gram matrix on every sampled point set"
    )
    total = 0
    definite = 0
    worst_ratio = math.inf
    ell = cex.as_matrix.ell
    for trials in _chunks(cfg.trials, _TRIAL_CHUNK):
        sets = _sample_merged_many(
            cex.as_matrix.space, cex.map, cfg.n_points - len(include), min_sep, [_rng(cfg, 11, t) for t in trials],
            radius=radius, include=include, min_norm=min_norm, cond_kernel=cex.base,
        )
        n = sets.shape[1]
        blocked = grams(cex.as_matrix, sets).reshape(len(trials), ell, n, ell, n)
        for t, trial_blocked in zip(trials, blocked):
            vectors = _projection_vectors(_rng(cfg, 12, t), ell, cfg.projection_trials)
            # Every projection Gram is a sesquilinear contraction of one blocked
            # Gram: G_v[a, b] = sum_ij conj(v_i) v_j G[i, a, j, b].
            projected = np.einsum("vi,iajb,vj->vab", vectors.conj(), trial_blocked, vectors)
            verdicts = classify_many(projected, cfg.pd_tol)
            total += len(vectors)
            definite += sum(v.is_positive_definite for v in verdicts)
            worst_ratio = min([worst_ratio] + [v.min_eigenvalue / v.scale for v in verdicts if v.scale > 0])
    return _rec(
        name,
        claim,
        definite == total,
        definite=definite,
        total=total,
        worst_relative_min_eigenvalue=worst_ratio,
        n_points=cfg.n_points,
        min_sep=min_sep,
    )


def _hypothesis_records(cfg: SuiteConfig, phi: SymmetryMap, generators, probes) -> list[CheckRecord]:
    ev_ap = check_aperiodic(phi, probes, cfg.m_max)
    ev_center = check_center(phi, generators, probes)
    injective = check_injective_on(phi, probes)
    return [
        _rec(
            "aperiodicity-evidence",
            "no probe returns to itself under iterated application of the map",
            ev_ap.ok,
            m_max=cfg.m_max,
            probes=ev_ap.n_probes,
            violations=len(ev_ap.violations),
        ),
        _rec(
            "center-evidence",
            "the map commutes with every sampled generator of the symmetry family",
            ev_center.ok,
            generators=ev_center.n_generators,
            probes=ev_center.n_probes,
            violations=len(ev_center.violations),
        ),
        _rec(
            "injectivity-evidence",
            "the map sends distinct probe points to distinct images",
            injective,
            probes=len(probes),
        ),
    ]


def _proof_structure_record(cfg: SuiteConfig, cex, pts) -> CheckRecord:
    claim = (
        "the blocked Gram of the grid kernel equals the plain Gram of the base "
        "kernel over the images-then-points list"
    )
    blocked = gram(cex.as_matrix, pts).entries
    merged = np.concatenate([cex.map.apply_many(pts), cex.as_matrix.space.stack(pts)])
    direct = gram(cex.base, merged).entries
    scale = float(np.max(np.abs(direct)))
    diff = float(np.max(np.abs(blocked - direct)))
    return _rec("blocked-gram-structure", claim, diff <= 1e-14 * scale, max_entry_diff=diff, scale=scale)


def _unitary_example_records(
    cfg: SuiteConfig, cex, generators, witness_x, min_sep: float, radius: float | None = None
) -> list[CheckRecord]:
    space = cex.as_matrix.space
    rng = _rng(cfg, 1)
    probes = space.unstack(space.stack(_draw_many(space, rng, radius, 8)))
    records = _hypothesis_records(cfg, cex.map, generators, probes)
    pairs = _probe_pairs(space, _rng(cfg, 2), cfg.probes, radius)
    inv = check_unitary_invariance(cex.as_matrix, generators, pairs, tol=cfg.resid_tol)
    records.append(
        _rec(
            "unitary-invariance",
            "moving both kernel arguments by any sampled symmetry leaves the matrix values unchanged",
            inv.ok,
            max_residual=inv.max_residual,
            scale=inv.scale,
            tol=inv.tol,
            probes=inv.n_probes,
        )
    )
    records.append(_witness_record(cfg, cex, witness_x))
    structure_pts = _sample_merged(space, cex.map, 4, min_sep, _rng(cfg, 3), radius=radius)
    records.append(_proof_structure_record(cfg, cex, structure_pts))
    records.append(_projection_strictness_record(cfg, cex, min_sep, radius))
    return records


# ---------------------------------------------------------------------------
# Suite builders


def _suite_circle(cfg: SuiteConfig) -> list[CheckRecord]:
    space = Circle()
    phi = CircleRotation(space, 1.0)
    base = CircleExpCos(space)
    cex = build_unitary(base, phi)
    rng = _rng(cfg, 0)
    generators = [CircleRotation(space, float(a)) for a in rng.uniform(-math.pi, math.pi, 4)]
    min_sep = cfg.min_sep if cfg.min_sep is not None else _CIRCLE_SEP
    return _unitary_example_records(cfg, cex, generators, 0.0, min_sep)


def _suite_gaussian(cfg: SuiteConfig) -> list[CheckRecord]:
    space = Euclidean(3)
    phi = EuclideanTranslation(space, (1.0, 0.0, 0.0), adjoint_kind="inverse")
    base = Gaussian(space, sigma=1.0)
    cex = build_unitary(base, phi)
    rng = _rng(cfg, 0)
    generators = [
        EuclideanTranslation(space, tuple(rng.uniform(-1.0, 1.0, 3)), adjoint_kind="inverse")
        for _ in range(10)
    ]
    radius = cfg.radius if cfg.radius is not None else 1.5
    min_sep = cfg.min_sep if cfg.min_sep is not None else _EUCLIDEAN_SEP
    records = _unitary_example_records(cfg, cex, generators, np.zeros(3), min_sep, radius)
    pairs = _probe_pairs(space, _rng(cfg, 4), 16, radius)
    adj = check_adjoint_invariance(base, generators, pairs, tol=cfg.resid_tol)
    records.append(
        _rec(
            "translation-adjoint-invariance",
            "shifting one argument matches shifting the other argument backwards",
            adj.ok,
            max_residual=adj.max_residual,
            scale=adj.scale,
        )
    )
    return records


def _suite_dotproduct(cfg: SuiteConfig) -> list[CheckRecord]:
    space = Euclidean(2)
    ratio = 2.0
    phi = EuclideanScaling(space, ratio)
    base = DotExp(space)
    origin = np.zeros(2)
    shifted = build_shifted(base, phi, origin)
    adjoint_cex = build_adjoint(base, phi)
    radius = cfg.radius if cfg.radius is not None else 1.0
    min_sep = cfg.min_sep if cfg.min_sep is not None else 0.15

    rng = _rng(cfg, 0)
    probes = space.unstack(space.stack(_draw_many(space, rng, radius, 8)))
    probes = [p for p in probes if np.linalg.norm(p) > 0.05] or [np.array([1.0, 0.0])]
    generators = [EuclideanScaling(space, float(r)) for r in rng.uniform(0.5, 2.0, 4)]
    records = _hypothesis_records(cfg, phi, generators, probes)

    pairs = _probe_pairs(space, _rng(cfg, 2), cfg.probes, radius)
    adj = check_adjoint_invariance(shifted.as_matrix, generators, pairs, tol=cfg.resid_tol)
    records.append(
        _rec(
            "adjoint-invariance",
            "scaling one argument matches scaling the other, for the shifted grid kernel",
            adj.ok,
            max_residual=adj.max_residual,
            scale=adj.scale,
            tol=adj.tol,
        )
    )

    records.append(_witness_record(cfg, shifted, np.array([1.0, 0.0]), name="shifted-triple-witness"))
    records.append(
        _witness_record(cfg, adjoint_cex, np.array([1.0, 0.0]), name="punctured-pair-witness")
    )

    # Subtracting the value at the origin keeps the kernel strictly positive
    # definite away from the origin.
    shifted_down = OffsetKernel(base, -float(base.eval(origin, origin).real))
    total = cfg.trials
    definite = 0
    for trials in _chunks(cfg.trials, _TRIAL_CHUNK):
        sets = _sample_merged_many(
            space, None, min(cfg.n_points, 10), min_sep, [_rng(cfg, 21, t) for t in trials],
            radius=radius, min_norm=min_sep,
        )
        definite += sum(v.is_positive_definite for v in classify_many(grams(shifted_down, sets), cfg.pd_tol))
    records.append(
        _rec(
            "origin-shift-strictness",
            "the base kernel minus its value at the origin stays strictly positive "
            "definite on nonzero points",
            definite == total,
            definite=definite,
            total=total,
        )
    )

    records.append(
        _projection_strictness_record(
            cfg,
            shifted,
            min_sep,
            radius,
            name="projection-strictness-with-origin",
            include=(origin,),
            min_norm=min_sep,
        )
    )
    return records


def _suite_complex_sphere(cfg: SuiteConfig) -> list[CheckRecord]:
    space = ComplexSphere(2)
    phi = ComplexSphereRotation(space, 1.0)
    base = DotExp(space)
    cex = build_unitary(base, phi)
    rng = _rng(cfg, 0)
    generators = [ComplexSphereRotation(space, float(a)) for a in rng.uniform(-math.pi, math.pi, 4)]
    min_sep = cfg.min_sep if cfg.min_sep is not None else _SPHERE_SEP
    e1 = np.zeros(2, dtype=np.complex128)
    e1[0] = 1.0
    records = _unitary_example_records(cfg, cex, generators, e1, min_sep)
    drift = 0.0
    probe = space.random_point(_rng(cfg, 5))
    cur = probe
    for _ in range(cfg.m_max):
        cur = phi.apply(cur)
        drift = max(drift, abs(float(np.linalg.norm(cur)) - 1.0))
    records.append(
        _rec(
            "unit-norm-preservation",
            "iterating the scalar rotation keeps points on the unit sphere",
            drift <= 1e-12,
            max_norm_drift=drift,
            iterations=cfg.m_max,
        )
    )
    return records


# Orbit instances are drawn, mapped and checked this many at a time; the
# streams and the instances do not depend on it.
_ORBIT_CHUNK = 50
# Points of one orbit instance stay more than this far apart.
_ORBIT_GAP = 1e-3


def _orbit_oracles(instances):
    """Brute-force orbit split of each (map, points) instance, all maps acting on
    one space: F, tau and the merged point set as a stack.

    ``tau[mu]`` is the first input point that the image of point mu hits;
    the merged set keeps each image, then each input point, that coincides
    with none kept before it. The instances are padded to one stack, so one
    ``distances`` call finds the hits and one the merge; padding rows are
    masked out of both.
    """
    space = instances[0][0].space
    stacks = [space.stack(pts) for _, pts in instances]
    n = np.array([len(X) for X in stacks])
    width = int(n.max())
    X = _padded(stacks, width)
    images = _padded([phi.apply_many(Xi) for (phi, _), Xi in zip(instances, stacks)], width)
    real = np.arange(width) < n[:, None]
    hits = (space.distances(images, X) <= space.eq_tol) & real[:, :, None] & real[:, None, :]
    hit_any = hits.any(axis=2)
    first_hit = hits.argmax(axis=2)
    cands = np.concatenate([images, X], axis=1)
    close = space.distances(cands, cands) <= space.eq_tol
    real_cand = np.concatenate([real, real], axis=1)
    kept = np.zeros_like(real_cand)
    for c in range(2 * width):
        kept[:, c] = real_cand[:, c] & ~(close[:, c] & kept).any(axis=1)
    Fs = [np.flatnonzero(row).tolist() for row in hit_any]
    return [(F, dict(zip(F, first_hit[r, F].tolist())), cands[r][kept[r]]) for r, F in enumerate(Fs)]


# The space of each orbit family: translations and scalings of the line,
# rotations of the circle; instance idx belongs to family idx % 3.
_ORBIT_SPACES = (Euclidean(1), Euclidean(1), Circle())


def _orbit_setup(idx: int, rng: np.random.Generator):
    """An instance's map, its point count and its seeder of fresh points."""
    family = idx % 3
    space = _ORBIT_SPACES[family]
    n = int(rng.integers(2, 11))
    if family == 0:
        phi = EuclideanTranslation(space, (float(rng.uniform(0.4, 1.6)),))
        seeder = lambda: rng.uniform(-8.0, 8.0, 1)
    elif family == 1:
        # Indexing a tuple by ``integers(k)`` draws what ``rng.choice`` of the list draws.
        phi = EuclideanScaling(space, (2.0, -2.0, 1.5, 2.5)[int(rng.integers(4))])
        seeder = lambda: np.array([rng.uniform(0.2, 3.0) * (-1.0, 1.0)[int(rng.integers(2))]])
    else:
        phi = CircleRotation(space, float(rng.uniform(0.3, 2.6)))
        seeder = lambda: rng.uniform(-math.pi, math.pi)
    return phi, n, seeder


def _orbit_instances(idxs, rngs):
    """A map and a stack of up to 10 points for each index, each instance
    drawn from its own generator; the indices' families share one space.

    The points stay pairwise more than ``_ORBIT_GAP`` apart; after a seeded
    first point, each candidate is, at even odds, the image of an accepted
    point or a fresh draw, for up to 500 candidates. The instances advance in
    lockstep: each step makes, for every instance still short of its points,
    the draws that one step of a one-instance loop makes on its generator, so
    neither the streams nor the instances depend on the batch. Each step's
    fresh draws are canonicalized by one ``stack``, and one masked
    ``distances`` call tests every candidate against its instance's points.
    """
    setups = [_orbit_setup(idx, rng) for idx, rng in zip(idxs, rngs)]
    space = setups[0][0].space
    width = max(n for _, n, _ in setups)
    count = [1] * len(setups)
    guard = [0] * len(setups)
    first = space.stack([seeder() for _, _, seeder in setups])
    X = np.zeros((len(setups), width) + first.shape[1:], first.dtype)
    X[:, 0] = first
    live = [i for i, (_, n, _) in enumerate(setups) if n > 1]
    while live:
        cand = np.empty((len(live),) + X.shape[2:], X.dtype)
        seeded, fresh = [], []
        for slot, i in enumerate(live):
            phi, _, seeder = setups[i]
            rng = rngs[i]
            guard[i] += 1
            if rng.random() < 0.5:
                j = int(rng.integers(count[i]))
                cand[slot] = phi.apply_many(X[i, j : j + 1])[0]
            else:
                seeded.append(slot)
                fresh.append(seeder())
        if fresh:
            cand[seeded] = space.stack(fresh)
        k = np.array([count[i] for i in live])
        gaps = space.distances(cand[:, None], X[live])[:, 0]
        clear = ((gaps > _ORBIT_GAP) | (np.arange(width) >= k[:, None])).all(axis=1)
        for slot in np.flatnonzero(clear).tolist():
            i = live[slot]
            X[i, count[i]] = cand[slot]
            count[i] += 1
        live = [i for i in live if count[i] < setups[i][1] and guard[i] < 500]
    return [(phi, X[i, : count[i]]) for i, (phi, _, _) in enumerate(setups)]


def _orbit_checks(cfg: SuiteConfig):
    """Every orbit instance of the suite with its oracle split, as chunks of
    ``_ORBIT_CHUNK`` instances of one space."""
    for space in dict.fromkeys(_ORBIT_SPACES):
        idxs = [idx for idx in range(cfg.orbit_instances) if _ORBIT_SPACES[idx % 3] == space]
        for chunk in _chunks(len(idxs), _ORBIT_CHUNK):
            batch = [idxs[c] for c in chunk]
            instances = _orbit_instances(batch, [_rng(cfg, 31, idx) for idx in batch])
            yield instances, _orbit_oracles(instances)


def _suite_orbit(cfg: SuiteConfig) -> list[CheckRecord]:
    """Each instance's split against its oracle's: one stacked split per chunk
    (``orbit_decompose`` is its one-instance view), one padded z-point check."""
    mismatches = 0
    checked = 0
    escape_failures = 0
    for instances, oracles in _orbit_checks(cfg):
        space = instances[0][0].space
        splits, Z = _orbit_splits(instances)
        merged = _padded([m for _, _, m in oracles], max(len(m) for _, _, m in oracles))
        # close[r, i, j]: in instance r, z point i coincides with merged point j.
        close = space.distances(Z, merged) <= space.eq_tol
        for (_, pts), dec, (F, tau, merged_r), close_r in zip(instances, splits, oracles, close):
            if isinstance(dec, KernelCexError):
                mismatches += 1
                continue
            checked += 1
            close_r = close_r[: len(dec.z_points), : len(merged_r)]
            if not (list(dec.F) == F and dec.tau == tau and dec.m + 2 * dec.p == len(dec.z_points) == len(merged_r)
                    and close_r.any(axis=1).all() and close_r.any(axis=0).all()):
                mismatches += 1
            for mu in dec.F:  # tau's keys are F
                cur, hops = mu, 0
                while cur in dec.tau and hops <= len(pts):
                    cur, hops = dec.tau[cur], hops + 1
                escape_failures += hops > len(pts)
    return [
        _rec(
            "oracle-agreement",
            "index set, index map, and merged point list match a brute-force "
            "enumeration on every random instance",
            mismatches == 0 and checked == cfg.orbit_instances,
            instances=cfg.orbit_instances,
            mismatches=mismatches,
        ),
        _rec(
            "escape-property",
            "following the index map from any index eventually leaves the index set",
            escape_failures == 0,
            failures=escape_failures,
        ),
    ]


_GROUP_CATALOG = [
    (2,), (3,), (4,), (5,), (6,), (8,), (12,), (24,),
    (2, 2), (2, 3), (3, 4), (2, 2, 2), (2, 3, 4), (2, 2, 3),
]
# Entries per stack of full-group Grams (at least one Gram): it bounds the peak memory.
_GRAM_STACK_ENTRIES = 8192


def _random_scalar_spectrum(group: FiniteAbelian, rng: np.random.Generator, strict: bool):
    coeffs = rng.uniform(0.1, 1.0, group.order)
    if not strict:
        k = int(rng.integers(1, group.order))
        coeffs[rng.permutation(group.order)[:k]] = 0.0
    return FourierSpectrum(group=group, coefficients=coeffs)


def _random_matrix_spectrum(group: FiniteAbelian, ell: int, rng: np.random.Generator, strict: bool):
    """Hermitian parts of b b^H + 0.2 I (b complex normal) per element, v v^H at one
    element if not ``strict``. The normals come in three blocks (b up to that element,
    v, the other b): the stream of a loop drawing each b (real, then imaginary), v after its b."""
    n = group.order
    split = n if strict else int(rng.integers(n)) + 1
    head = rng.standard_normal((split, 2, ell, ell))
    v = None if strict else rng.standard_normal((2, ell))
    parts = np.concatenate([head, rng.standard_normal((n - split, 2, ell, ell))])
    b = parts[:, 0] + 1j * parts[:, 1]
    a = b @ b.conj().transpose(0, 2, 1) + 0.2 * np.eye(ell)
    if v is not None:
        w = v[0] + 1j * v[1]
        a[split - 1] = np.outer(w, w.conj())
    return FourierSpectrum(group=group, coefficients=numcore._symmetrized(a))


def _suite_abelian_roundtrip(cfg: SuiteConfig) -> list[CheckRecord]:
    group = FiniteAbelian(cfg.group) if cfg.group is not None else FiniteAbelian((3, 4))
    rng = _rng(cfg, 41)
    worst_roundtrip = 0.0
    worst_parseval = 0.0
    for _ in range(cfg.spectra):
        spectrum = _random_scalar_spectrum(group, rng, strict=bool(rng.random() < 0.7))
        values = synthesize(spectrum)
        back = analyze(values, group)
        worst_roundtrip = max(
            worst_roundtrip, float(np.max(np.abs(back.coefficients - spectrum.coefficients)))
        )
        ident = values[0]  # the identity comes first in the lexicographic order
        worst_parseval = max(worst_parseval, abs(float(np.sum(spectrum.coefficients)) - complex(ident).real))

    worst_orth = 0.0
    for orders in _GROUP_CATALOG:
        g = FiniteAbelian(orders)
        table = character_table(g)
        gramm = table @ table.conj().T / g.order
        worst_orth = max(worst_orth, float(np.max(np.abs(gramm - np.eye(g.order)))))

    return [
        _rec(
            "analysis-synthesis-roundtrip",
            "coefficient recovery inverts synthesis on every sampled spectrum",
            worst_roundtrip < 1e-10,
            max_residual=worst_roundtrip,
            spectra=cfg.spectra,
        ),
        _rec(
            "coefficient-sum",
            "the coefficients sum to the function value at the identity",
            worst_parseval < 1e-10,
            max_residual=worst_parseval,
        ),
        _rec(
            "character-orthogonality",
            "characters are orthonormal under the normalized group average",
            worst_orth < 1e-12,
            max_residual=worst_orth,
        ),
    ]


def _gram_disagreements(members, pd_tol: float) -> int:
    """How many (spectrum, criterion) pairs of one class disagree with the verdicts on their Grams."""
    grams = fourier._full_group_grams([spectrum for spectrum, _ in members])
    return sum(not (verdict.is_positive_definite if strict else verdict.is_degenerate)
               for verdict, (_, strict) in zip(classify_many(grams, pd_tol), members))


def _suite_abelian_strictness(cfg: SuiteConfig) -> list[CheckRecord]:
    """Each spectrum's criterion against the verdict on its full-group Gram; the
    Grams of one (group, ell) class go to ``classify_many`` as a stack as soon
    as the class holds a full one, and what is left after the draws at the end."""
    rng = _rng(cfg, 42)
    pending, disagreements, checked = {}, 0, {1: 0, 2: 0, 3: 0}
    for i in range(cfg.spectra):
        group = FiniteAbelian(_GROUP_CATALOG[int(rng.integers(len(_GROUP_CATALOG)))])
        ell = (i % 3) + 1
        strict = bool(rng.random() < 0.5)
        if ell == 1:
            spectrum = _random_scalar_spectrum(group, rng, strict)
        else:
            spectrum = _random_matrix_spectrum(group, ell, rng, strict)
        members = pending.setdefault((group, ell), [])
        members.append((spectrum, strict_criterion(spectrum, cfg.strict_tol)))
        checked[ell] += 1
        if len(members) >= max(1, _GRAM_STACK_ENTRIES // (group.order * ell) ** 2):
            disagreements += _gram_disagreements(pending.pop((group, ell)), cfg.pd_tol)
    disagreements += sum(_gram_disagreements(members, cfg.pd_tol) for members in pending.values())
    return [
        _rec(
            "criterion-oracle-agreement",
            "positivity of every coefficient (or coefficient matrix) is equivalent "
            "to invertibility of the full-group Gram matrix",
            disagreements == 0,
            disagreements=disagreements,
            scalar_cases=checked[1],
            matrix_cases_ell2=checked[2],
            matrix_cases_ell3=checked[3],
        )
    ]


def _suite_embed(cfg: SuiteConfig) -> list[CheckRecord]:
    space = Circle()
    phi = CircleRotation(space, 1.0)
    base = CircleExpCos(space)
    cex = build_unitary(base, phi)
    padded = embed(cex.as_matrix, 3, base)
    rng = _rng(cfg, 51)
    pairs = _probe_pairs(space, rng, 16)
    X = space.stack([x for x, _ in pairs])
    Y = space.stack([y for _, y in pairs])

    # A projection's values are a contraction of the kernel's pair values.
    v2 = _projection_vectors(rng, 2, 30)
    v3 = np.pad(v2, ((0, 0), (0, 1)))
    padded_values = pair_values(padded, X, Y)
    match = np.einsum("vi,pij,vj->vp", v2.conj(), pair_values(cex.as_matrix, X, Y), v2)
    match_padded = np.einsum("vi,pij,vj->vp", v3.conj(), padded_values, v3)
    worst_match = float(np.max(np.abs(match - match_padded)))

    e3 = np.array([0.0, 0.0, 1.0], dtype=np.complex128)
    filler = np.einsum("i,pij,j->p", e3.conj(), padded_values, e3)
    worst_filler = float(np.max(np.abs(filler - pair_values(base, X, Y)[:, 0, 0])))
    return [
        _rec(
            "first-block-projections",
            "projections supported on the original coordinates agree with the "
            "unpadded kernel pointwise",
            worst_match <= 1e-12,
            max_pointwise_diff=worst_match,
            vectors=30,
        ),
        _rec(
            "filler-projection",
            "projecting onto the new coordinate recovers the filler kernel",
            worst_filler <= 1e-12,
            max_pointwise_diff=worst_filler,
        ),
        _witness_record(
            cfg,
            dataclasses.replace(cex, as_matrix=padded),
            0.0,
            name="padded-witness-degeneracy",
            claim="padding preserves the degeneracy at the witness pair",
            keys=("min_eigenvalue", "scale", "annihilation_residual"),
        ),
    ]


def _suite_negative_controls(cfg: SuiteConfig) -> list[CheckRecord]:
    space = Circle()
    base = CircleExpCos(space)

    periodic = CircleRotation(space, math.pi)
    cex_periodic = build_unitary(base, periodic)
    theta = 0.3
    pts = [theta, periodic.apply(theta), 1.9, -2.4]
    proj = project(cex_periodic.as_matrix, np.array([1.0, 1.0]))
    verdict_periodic = classify(gram(proj, pts), cfg.pd_tol)

    ev = check_aperiodic(periodic, [theta, 1.1], cfg.m_max)

    espace = Euclidean(2)
    collapse = EuclideanScaling(espace, 0.0)
    cex_collapse = build_unitary(Gaussian(espace), collapse)
    rng = _rng(cfg, 61)
    pts2 = _sample_merged(espace, None, 4, 0.3, rng)
    proj2 = project(cex_collapse.as_matrix, np.array([1.0, 0.0]))
    verdict_collapse = classify(gram(proj2, pts2), cfg.pd_tol)
    injective = check_injective_on(collapse, pts2)

    return [
        _rec(
            "periodic-map-detected",
            "a rotation by pi is flagged as periodic by the finite evidence check",
            not ev.ok,
            violations=len(ev.violations),
        ),
        _rec(
            "periodic-map-degenerate-projection",
            "observed: with a periodic map, a projection Gram over a point set "
            "containing a period-two orbit is degenerate",
            verdict_periodic.is_degenerate,
            min_eigenvalue=verdict_periodic.min_eigenvalue,
            scale=verdict_periodic.scale,
        ),
        _rec(
            "collapsing-map-not-injective",
            "scaling by zero fails the injectivity evidence check",
            not injective,
        ),
        _rec(
            "collapsing-map-degenerate-projection",
            "observed: with a non-injective map, the first-coordinate projection "
            "Gram is degenerate",
            verdict_collapse.is_degenerate,
            min_eigenvalue=verdict_collapse.min_eigenvalue,
            scale=verdict_collapse.scale,
        ),
    ]


@dataclass(frozen=True)
class SuiteInfo:
    """A shipped suite; ``knobs`` names the ``SuiteConfig`` fields its builder reads."""

    name: str
    description: str
    builder: object
    knobs: tuple[str, ...]


# The knobs of the suites that sample point sets for strictness records.
_SAMPLING = ("seed", "n_points", "trials", "projection_trials", "min_sep", "m_max", "probes", "pd_tol", "resid_tol")


SUITES: dict[str, SuiteInfo] = {
    info.name: info
    for info in [
        SuiteInfo(
            "circle-example1",
            "rotation-built grid kernel on the circle: invariance, degeneracy "
            "witness, and strict projections",
            _suite_circle, _SAMPLING,
        ),
        SuiteInfo(
            "gaussian-example1",
            "translation-built grid kernel on R^3 with the Gaussian base: "
            "invariance, witness, strict projections",
            _suite_gaussian, _SAMPLING + ("radius",),
        ),
        SuiteInfo(
            "dotproduct-example1",
            "scaling-built grid kernel on R^2 with the exponential dot-product "
            "base, shifted to include the origin",
            _suite_dotproduct, _SAMPLING + ("radius",),
        ),
        SuiteInfo(
            "orbit-decomposition",
            "orbit split of point lists under translation, scaling, and rotation "
            "maps against a brute-force oracle",
            _suite_orbit, ("seed", "orbit_instances"),
        ),
        SuiteInfo(
            "abelian-roundtrip",
            "coefficient analysis and synthesis on finite abelian groups: "
            "roundtrip, identity sum, character orthogonality",
            _suite_abelian_roundtrip, ("seed", "group", "spectra"),
        ),
        SuiteInfo(
            "abelian-strictness",
            "coefficient positivity versus full-group Gram invertibility for "
            "scalar and matrix coefficient families",
            _suite_abelian_strictness, ("seed", "spectra", "pd_tol", "strict_tol"),
        ),
        SuiteInfo(
            "embed-check",
            "padding a 2x2 grid kernel to 3x3 with a strictly positive filler "
            "preserves projections and degeneracy",
            _suite_embed, ("seed", "pd_tol", "resid_tol"),
        ),
        SuiteInfo(
            "complex-sphere",
            "unit-scalar rotations on the complex sphere: aperiodicity, "
            "invariance, witness, strict projections",
            _suite_complex_sphere, _SAMPLING,
        ),
        SuiteInfo(
            "negative-controls",
            "periodic and non-injective maps produce degenerate projections "
            "(recorded as observations)",
            _suite_negative_controls, ("seed", "m_max", "pd_tol"),
        ),
    ]
}


def _suite_info(name) -> SuiteInfo:
    if not isinstance(name, str) or name not in SUITES:
        raise ConfigError(f"suite: unknown suite {name!r}; see list-suites")
    return SUITES[name]


def list_suites() -> list[tuple[str, str]]:
    return [(info.name, info.description) for info in SUITES.values()]


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run one named suite deterministically and collect its records.

    Mathematical failures become failed records rather than exceptions;
    only configuration problems raise.
    """
    config.validate()
    records = SUITES[config.suite].builder(config)
    environment = {
        "seed": config.seed,
        "rng": "numpy PCG64 seeded from (seed, stream, trial)",
        "tolerances": {
            "pd_tol": config.pd_tol,
            "resid_tol": config.resid_tol,
            "strict_tol": config.strict_tol,
        },
        "evidence": {"m_max": config.m_max, "probes": config.probes},
        "parameter_conventions": (
            "rotation angle 1.0, sigma 1.0, translation e1, scaling ratio 2.0 "
            "are harness defaults, not forced values"
        ),
    }
    return SuiteReport(suite=config.suite, records=records, environment=environment)


def emit_report(report: SuiteReport, format: str = "text") -> str:
    """Serialize a report as stable JSON or human-readable text."""
    if format == "json":
        return dumps(report.to_dict())
    if format != "text":
        raise ConfigError(f"format: unknown format {format!r}")
    lines = [
        f"suite {report.suite}: {'PASS' if report.passed else 'FAIL'} "
        f"({sum(r.passed for r in report.records)}/{len(report.records)} checks)"
    ]
    for r in report.records:
        mark = "pass" if r.passed else "FAIL"
        lines.append(f"  [{mark}] {r.name}: {r.claim}")
        if r.evidence:
            parts = ", ".join(f"{k}={_fmt(v)}" for k, v in r.evidence.items())
            lines.append(f"         {parts}")
    lines.append(f"  seed={report.environment.get('seed')}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)
