"""Tests of the benchmark's own references and tracing.

Run from the repository root with ``python3 -m pytest bench -q``. The
reference tests use brute-force loops only; the tracing tests import
kernelcex from ``src/``.
"""

import itertools
import json
import math
import os
import sys

import numpy as np
import pytest

import reference
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _points(instance, rng, n):
    if instance == "circle":
        return rng.uniform(-math.pi, math.pi, n)
    if instance == "gaussian":
        return rng.standard_normal((n, 3))
    if instance == "dotproduct":
        return rng.uniform(-1.0, 1.0, (n, 2))
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _scalar(instance, x, y):
    """The base kernel of a shipped instance at one pair of points."""
    if instance == "circle":
        return math.exp(math.cos(x - y))
    if instance == "gaussian":
        return math.exp(-float(np.sum((x - y) ** 2)))
    return math.exp(float(np.vdot(y, x).real))


@pytest.mark.parametrize("instance", sorted(reference.SHIPPED))
def test_blocked_gram_matches_pairwise_grid(instance):
    rng = np.random.default_rng(0)
    x = _points(instance, rng, 5)
    phi = reference.SHIPPED[instance]["phi"]
    c = reference.SHIPPED[instance]["diag_offset"]
    n = len(x)
    got = reference.blocked_gram(instance, x)
    for mu, nu in itertools.product(range(n), repeat=2):
        a, b = x[mu], x[nu]
        grid = [
            [_scalar(instance, phi(a), phi(b)) + c, _scalar(instance, phi(a), b)],
            [_scalar(instance, a, phi(b)), _scalar(instance, a, b) + c],
        ]
        for i, j in itertools.product(range(2), repeat=2):
            assert got[i * n + mu, j * n + nu] == pytest.approx(grid[i][j], rel=1e-13)


@pytest.mark.parametrize("instance", ["circle", "gaussian", "complex-sphere"])
def test_pair_direction_annihilates_blocked_gram(instance):
    rng = np.random.default_rng(1)
    x, y = _points(instance, rng, 2)
    pts = np.asarray([y, x, reference.SHIPPED[instance]["phi"](x)])
    gram = reference.blocked_gram(instance, pts)
    d = reference.pair_direction(3, 1, 2)
    assert np.linalg.norm(gram @ d) <= 1e-13 * np.linalg.norm(gram)
    assert np.linalg.matrix_rank(gram, tol=1e-10 * np.linalg.norm(gram, 2)) < 6


def test_triple_direction_annihilates_shifted_gram():
    x = np.array([0.3, -0.4])
    pts = np.asarray([np.zeros(2), x, 2.0 * x, np.array([0.5, 0.2])])
    gram = reference.blocked_gram("dotproduct", pts)
    d = reference.triple_direction(4, 0, 1, 2)
    assert np.linalg.norm(gram @ d) <= 1e-13 * np.linalg.norm(gram)


def test_projection_gram_is_the_sesquilinear_form():
    rng = np.random.default_rng(2)
    x = _points("circle", rng, 4)
    blocked = reference.blocked_gram("circle", x)
    v = np.array([0.3 - 1.0j, 2.0 + 0.5j])
    got = reference.projection_gram(blocked, v)
    for mu, nu in itertools.product(range(4), repeat=2):
        block = blocked[[mu, 4 + mu]][:, [nu, 4 + nu]]
        assert got[mu, nu] == pytest.approx(np.vdot(v, block @ v), rel=1e-13)


def _characters(orders):
    elems = list(itertools.product(*(range(q) for q in orders)))
    return np.array(
        [[np.exp(2j * math.pi * sum(g_ * x_ / q for g_, x_, q in zip(g, x, orders))) for x in elems] for g in elems]
    )


@pytest.mark.parametrize("orders", [(5,), (2, 3), (2, 3, 4)])
def test_fft_reference_matches_character_sums(orders):
    rng = np.random.default_rng(3)
    table = _characters(orders)
    size = table.shape[0]
    psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    np.testing.assert_allclose(reference.fft_analyze(psi, orders), table.conj() @ psi / size, atol=1e-13)
    a = rng.standard_normal(size)
    np.testing.assert_allclose(reference.fft_synthesize(a, orders), a @ table, atol=1e-12)
    np.testing.assert_allclose(reference.fft_synthesize(reference.fft_analyze(psi, orders), orders), psi, atol=1e-12)


def test_translation_chains_have_the_stated_split():
    rng = np.random.default_rng(4)
    step = 0.7
    points, tau = reference.translation_chains(rng, chains=6, length=5, step=step)
    assert len(points) == 30
    found = {}
    for mu, x in enumerate(points):
        hits = [nu for nu, y in enumerate(points) if abs(x + step - y) <= 1e-9]
        assert len(hits) <= 1
        if hits:
            found[mu] = hits[0]
    assert found == tau
    assert len(tau) == 30 - 6  # m = n - chains, so p = chains


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_margin_spectra_are_clear_cut(ell):
    rng = np.random.default_rng(5)
    for strict in (True, False):
        coeffs = reference.margin_spectrum(rng, 12, ell, strict)
        if ell == 1:
            smallest = coeffs.min()
        else:
            smallest = min(np.linalg.eigvalsh(a)[0] for a in coeffs)
        if strict:
            assert smallest >= 0.2 - 1e-12
        else:
            assert abs(smallest) <= 1e-12


# ---------------------------------------------------------------------------
# Tracing


def test_self_times_add_up_to_the_outer_span():
    rec = tracing.Recorder()

    def inner():
        return sum(range(20000))

    wrapped_inner = rec.wrap("inner", inner)

    def outer():
        return wrapped_inner() + wrapped_inner() + sum(range(20000))

    rec.wrap("outer", outer)()
    calls_o, total_o, self_o = rec.stats["outer"]
    calls_i, total_i, self_i = rec.stats["inner"]
    assert (calls_o, calls_i) == (1, 2)
    assert total_i == self_i
    assert self_o + self_i == pytest.approx(total_o, rel=1e-12)
    assert 0 < self_o < total_o
    assert rec.edges == {">outer": 1, "outer>inner": 2}


def test_installation_wraps_every_binding_and_restores_it():
    import kernelcex
    from kernelcex import counterexample, fourier, harness, kernels

    original = kernels.gram
    rec = tracing.Recorder()
    installed = tracing.Installation(rec)
    try:
        assert all(m.gram is not original for m in (kernels, harness, counterexample, fourier, kernelcex))
        space = kernelcex.Circle()
        kernelcex.gram(kernelcex.CircleExpCos(space), [0.0, 1.0, 2.0])
    finally:
        installed.uninstall()
    assert all(m.gram is original for m in (kernels, harness, counterexample, fourier, kernelcex))
    assert rec.stats["kernels.gram"][0] == 1
    assert rec.counts["gram_entries"] == 9
    assert rec.counts["evals"] == 9


def test_per_layer_metrics_match_the_benchmark_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert declared == tracing.PER_LAYER_UNITS
    empty_round = {"stats": {}, "counts": {}, "edges": {}}
    assert set(tracing.per_layer_metrics([empty_round], 0.0)) == set(declared)
