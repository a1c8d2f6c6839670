"""The finite suites' stacked paths against their one-instance forms.

``symmetry._orbit_splits`` splits a chunk of orbit instances at once; each
split must equal ``orbit_decompose`` on that instance alone and the
per-instance algorithm that ``orbit_decompose`` ran before the split was
stacked (``_reference_split`` below), errors included.
``fourier._full_group_grams`` builds the full-group Grams of a class of
spectra at once; each must match the Gram ``brute_force_strict`` classifies
for the spectrum's kernel.
"""

import numpy as np
import pytest
from test_acceptance import _seam_and_tolerance_instances

from kernelcex import fourier, harness
from kernelcex.errors import (
    ConfigError,
    InjectivityViolation,
    KernelCexError,
    NonFiniteValue,
    PeriodicityDetected,
)
from kernelcex.harness import SuiteConfig
from kernelcex.numcore import classify_many
from kernelcex.spaces import Euclidean, FiniteAbelian
from kernelcex.symmetry import (
    EuclideanScaling,
    EuclideanTranslation,
    OrbitDecomposition,
    _orbit_splits,
    orbit_decompose,
)


def _reference_split(phi, points):
    """Orbit split of one instance, one point list at a time."""
    space = phi.space
    X = space.stack(points)
    n = len(X)
    if n == 0:
        raise ConfigError("points: must be nonempty")
    with np.errstate(over="ignore"):
        images = phi.apply_many(X)
    if not np.isfinite(images).all():
        raise NonFiniteValue(f"{phi.action_kind} sends a point to a non-finite image")
    shared = np.argwhere(np.triu(space.distances(images, images) <= space.eq_tol, 1))
    if len(shared):
        i, j = shared[0]
        raise InjectivityViolation(f"points at indices {i} and {j} share an image")
    hits = space.distances(images, X) <= space.eq_tol
    counts = hits.sum(axis=1)
    crowded = np.flatnonzero(counts > 1)
    if len(crowded):
        mu = crowded[0]
        raise InjectivityViolation(
            f"image of index {mu} matches several input points {np.flatnonzero(hits[mu]).tolist()}; "
            "point separation is too small for the equality tolerance"
        )
    F = np.flatnonzero(counts).tolist()
    tau = dict(zip(F, hits[F].argmax(axis=1).tolist()))
    if len(F) == n:
        raise PeriodicityDetected("every image is again an input point, so tau is a permutation")
    for mu in F:
        seen, cur = {mu}, mu
        while cur in tau:
            cur = tau[cur]
            if cur in seen:
                raise PeriodicityDetected(f"tau cycles through index {cur}")
            seen.add(cur)
    hit = hits.any(axis=0)
    z = np.concatenate([X[hit], images[counts == 0], X[~hit]])
    return OrbitDecomposition(F=tuple(F), tau=tau, m=len(F), p=n - len(F), z_points=tuple(space.unstack(z)))


def _outcome(call):
    try:
        return call()
    except KernelCexError as exc:
        return exc


def _assert_same_split(got, want):
    if isinstance(want, KernelCexError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, OrbitDecomposition)
    assert (got.F, got.tau, got.m, got.p) == (want.F, want.tau, want.m, want.p)
    assert len(got.z_points) == len(want.z_points)
    assert all(type(u) is type(v) for u, v in zip(got.z_points, want.z_points))
    assert np.array_equal(np.array(got.z_points), np.array(want.z_points))


def _assert_chunk_matches_one_instance_calls(instances):
    splits, Z = _orbit_splits(instances)
    for (phi, X), split, z in zip(instances, splits, Z):
        _assert_same_split(split, _outcome(lambda: orbit_decompose(phi, X)))
        _assert_same_split(split, _outcome(lambda: _reference_split(phi, X)))
        if isinstance(split, OrbitDecomposition):
            assert np.array_equal(z[: len(split.z_points)], np.array(split.z_points))


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_the_suite_chunks_split_as_one_instance_calls_do(seed):
    chunks = list(harness._orbit_checks(SuiteConfig("orbit-decomposition", seed=seed)))
    assert sum(len(instances) for instances, _ in chunks) == 200
    for instances, _ in chunks:
        _assert_chunk_matches_one_instance_calls(instances)


def test_seam_and_tolerance_instances_split_as_one_instance_calls_do():
    instances = [(phi, phi.space.stack(pts)) for phi, pts in _seam_and_tolerance_instances()]
    for space in {phi.space for phi, _ in instances}:
        _assert_chunk_matches_one_instance_calls([inst for inst in instances if inst[0].space == space])


def test_a_planted_error_of_each_class_leaves_its_neighbours_alone():
    line = Euclidean(1)
    step, flip = EuclideanTranslation(line, (1.0,)), EuclideanScaling(line, -1.0)
    good = (step, [[0.0], [1.0], [5.0]])
    planted = [
        (step, [], ConfigError, "points: must be nonempty"),
        (EuclideanScaling(line, 1e308), [[1.0], [2.0]], NonFiniteValue, "non-finite image"),
        (EuclideanScaling(line, 0.0), [[1.0], [2.0], [3.0]], InjectivityViolation, "indices 0 and 1 share"),
        (step, [[0.0], [1.0 - 9e-10], [1.0 + 9e-10]], InjectivityViolation, "index 0 matches several input points [1, 2]"),
        (flip, [[1.0], [-1.0]], PeriodicityDetected, "tau is a permutation"),
        (flip, [[3.0], [1.0], [-1.0]], PeriodicityDetected, "tau cycles through index 1"),
    ]
    instances = []
    for phi, pts, _, _ in planted:
        instances += [(good[0], line.stack(good[1])), (phi, line.stack(pts))]
    splits, _ = _orbit_splits(instances)
    _assert_chunk_matches_one_instance_calls(instances)
    for k, (_, _, error, message) in enumerate(planted):
        assert isinstance(splits[2 * k], OrbitDecomposition) and splits[2 * k].tau == {0: 1}
        assert type(splits[2 * k + 1]) is error and message in str(splits[2 * k + 1])


@pytest.mark.parametrize("orders", harness._GROUP_CATALOG, ids=str)
def test_the_class_gram_stack_is_the_kernel_gram(orders):
    group = FiniteAbelian(orders)
    elements = group.stack(group.elements())
    rng = np.random.default_rng(sum(orders))
    for ell in (1, 2, 3):
        spectra = [harness._random_scalar_spectrum(group, rng, strict) if ell == 1
                   else harness._random_matrix_spectrum(group, ell, rng, strict) for strict in (True, False)]
        stack = fourier._full_group_grams(spectra)
        verdicts = classify_many(stack)
        for spectrum, gram, verdict in zip(spectra, stack, verdicts):
            want = fourier.spectrum_kernel(spectrum).block(elements, elements)
            assert np.max(np.abs(gram - want)) <= 1e-15 * np.max(np.abs(want))
            assert verdict.kind is fourier.brute_force_strict(fourier.spectrum_kernel(spectrum)).kind
        assert [v.is_positive_definite for v in verdicts] == [True, False]


def test_abelian_strictness_classifies_each_full_stack_as_it_fills(monkeypatch):
    drawn, stacks = [], []
    full_group_grams, strict_criterion = fourier._full_group_grams, harness.strict_criterion

    def recorded_criterion(spectrum, strict_tol):
        drawn.append(spectrum)
        return strict_criterion(spectrum, strict_tol)

    def recorded_grams(spectra):
        ell = spectra[0].coefficients.shape[1] if spectra[0].coefficients.ndim == 3 else 1
        stacks.append((spectra[0].group, ell, len(spectra), spectra[-1] is drawn[-1]))
        return full_group_grams(spectra)

    monkeypatch.setattr(harness, "strict_criterion", recorded_criterion)
    monkeypatch.setattr(fourier, "_full_group_grams", recorded_grams)
    report = harness.run_suite(SuiteConfig.from_dict({"suite": "abelian-strictness", "seed": 3, "spectra": 600}))
    assert report.passed and len(drawn) == 600
    assert sum(count for _, _, count, _ in stacks) == 600
    leftovers, full_stacks = set(), 0
    for group, ell, count, just_drawn in stacks:
        full = max(1, harness._GRAM_STACK_ENTRIES // (group.order * ell) ** 2)
        assert count <= full
        if count == full:  # classified as its last spectrum is drawn, so few are held at once
            assert just_drawn
            full_stacks += 1
        else:  # only what is left after the draws is short of a stack
            assert (group, ell) not in leftovers
            leftovers.add((group, ell))
    assert full_stacks > 0
