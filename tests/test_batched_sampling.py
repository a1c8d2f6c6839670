"""The one-pass sampler and the batched projection vectors against the
per-draw loops they replaced.

``_sample_merged_per_draw`` and ``_projection_vectors_per_draw`` are the
per-draw implementations, kept here as references: one draw and one
distance test per attempt, one vector per pair of ``standard_normal`` calls.
The sampler, which draws candidates ahead in blocks and decides each draw
once on stacked values, must return the same points bit for bit and read no
draw past its cap; the batched vectors must also leave the generator in the
same state. With the references patched into ``harness`` every continuous
suite's JSON report must be byte-identical. ``_sample_merged_many``, which
runs one search per generator and decides their conditioning floors
together, must return on every generator the set of a one-set call on a
copy of it.
"""

import copy
import math

import numpy as np
import pytest

from kernelcex import harness, numcore
from kernelcex.errors import ConfigError
from kernelcex.harness import (
    _CONDITIONING_FLOOR,
    SuiteConfig,
    _draw,
    _projection_vectors,
    _sample_merged,
    _sample_merged_many,
    emit_report,
    run_suite,
)
from kernelcex.kernels import CircleExpCos, DotExp, gram
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian, _draw_many
from kernelcex.symmetry import CircleRotation, EuclideanScaling

CIRCLE = Circle()
ROTATION = CircleRotation(CIRCLE, 1.0)


def _sample_merged_per_draw(space, phi, n, min_sep, rng, radius=None, include=(), min_norm=0.0,
                            cond_kernel=None, dead_ends=None):
    """The per-draw sampler; ``dead_ends``, if given, collects the number of
    draws consumed at each slot that ran out of draws."""
    include = [space.canonicalize(p) for p in include]
    include_images = [] if phi is None else [phi.apply(p) for p in include]
    include_images = [
        img for img, p in zip(include_images, include) if space.distance(img, p) > min_sep
    ]

    total_attempts = 0
    while True:
        pts = []
        images = list(include_images)
        merged = space.stack(include + images)
        stuck = False
        while len(pts) < n:
            placed = False
            for _ in range(200):
                total_attempts += 1
                if total_attempts > 200_000:
                    raise ConfigError(
                        "min_sep: sampling could not place separated points; lower min_sep or n_points"
                    )
                cand = space.canonicalize(_draw(space, rng, radius))
                if min_norm > 0.0 and float(np.linalg.norm(np.atleast_1d(cand))) <= min_norm:
                    continue
                cands = [cand] if phi is None else [cand, phi.apply(cand)]
                new = np.asarray(cands)
                dist = space.distances(new, np.concatenate([merged, new[:1]]))
                dist[0, -1] = np.inf
                if dist.min() > min_sep:
                    pts.append(cand)
                    images += cands[1:]
                    merged = np.concatenate([merged, new])
                    placed = True
                    break
            if not placed:
                if dead_ends is not None:
                    dead_ends.append(total_attempts)
                stuck = True
                break
        if stuck:
            continue
        if cond_kernel is not None:
            eigvals = np.linalg.eigvalsh(numcore._symmetrized(gram(cond_kernel, include + pts + images).entries))
            if eigvals[0] < _CONDITIONING_FLOOR * eigvals[-1]:
                continue
        return include + pts


def _projection_vectors_per_draw(rng, ell, count):
    out = []
    while len(out) < count:
        v = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        if np.linalg.norm(v) > 1e-3:
            out.append(v)
    return np.array(out)


class _ScriptedRng:
    """A generator stand-in that hands out a fixed list of values in order,
    whatever the distribution asked for, and counts the values read."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.position = 0

    def _take(self, size):
        k = 1 if size is None else math.prod(np.atleast_1d(size))
        if self.position + k > len(self.values):
            raise IndexError("script exhausted")
        out = self.values[self.position : self.position + k]
        self.position += k
        return float(out[0]) if size is None else out.reshape(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._take(size)

    def standard_normal(self, size=None):
        return self._take(size)


def _assert_same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize(
    "space", [CIRCLE, Euclidean(3), ComplexSphere(2), FiniteAbelian((3, 4))]
)
def test_random_points_follow_the_stream_of_random_point(space):
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = space.random_points(rng, 40)
        want = np.array([space.random_point(ref_rng) for _ in range(40)])
        assert rows.shape == want.shape
        np.testing.assert_array_equal(rows, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_draw_many_follows_the_stream_of_draw_in_a_ball():
    space = Euclidean(3)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    rows = _draw_many(space, rng, 1.5, 30)
    want = np.array([_draw(space, ref_rng, 1.5) for _ in range(30)])
    np.testing.assert_array_equal(rows, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_restart_heavy_circle_matches_per_draw():
    # Nine points and their images at separation 0.3 fill 5.4 of the
    # circle's 2 pi, so many placement slots hit the 200-draw dead end and
    # restart the whole set, most of them in the middle of a block.
    for seed in range(3):
        dead_ends = []
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_merged(CIRCLE, ROTATION, 9, 0.3, rng)
        want = _sample_merged_per_draw(CIRCLE, ROTATION, 9, 0.3, ref_rng, dead_ends=dead_ends)
        _assert_same_points(got, want)
        assert len(dead_ends) >= 10


def test_sampler_raises_at_the_attempt_cap_after_exactly_the_capped_draws():
    # Ten points and their images at separation 0.3 need 6.0 of 2 pi: the
    # sampler restarts until it has used its 200 000 draws, then gives up.
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="min_sep"):
        _sample_merged(CIRCLE, ROTATION, 10, 0.3, rng)
    ref_rng = np.random.default_rng(0)
    ref_rng.uniform(-math.pi, math.pi, 200_000)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("phi", [None, ROTATION])
def test_candidates_at_the_separation_margin_take_the_exact_test(phi):
    # Draws within 1e-12 of distance 0.3 from the included point 0 (their
    # images lie as close to 0.3 from the image 1.0) pass or fail by a few
    # ulps, some only by rounding; the sampler's single decision on stacked
    # values must take them as the per-draw loop does.
    at, beyond = 0.3, math.nextafter(0.3, 1.0)
    near = [0.1, 0.2, at, -at, 0.25, beyond, -beyond, math.nextafter(0.3, 0.0),
            0.3 - 1e-13, 0.3 + 1e-13, -0.3 - 1e-13]
    script = near + [0.05] * 5 + [at, beyond, 2.0] + [0.05] * 300
    for start in range(len(near)):
        got_rng = _ScriptedRng(script[start:])
        want_rng = _ScriptedRng(script[start:])
        got = _sample_merged(CIRCLE, phi, 1, 0.3, got_rng, include=(0.0,))
        want = _sample_merged_per_draw(CIRCLE, phi, 1, 0.3, want_rng, include=(0.0,))
        _assert_same_points(got, want)


def test_min_norm_at_the_margin_takes_the_exact_test():
    space = Euclidean(2)
    edge = [0.15, 0.0]
    beyond = [math.nextafter(0.15, 1.0), 0.0]
    script = [0.01, 0.02] + edge + beyond + [0.0, 0.0] * 300
    rng, ref_rng = _ScriptedRng(script), _ScriptedRng(script)
    got = _sample_merged(space, None, 1, 0.1, rng, radius=1.0, min_norm=0.15)
    want = _sample_merged_per_draw(space, None, 1, 0.1, ref_rng, radius=1.0, min_norm=0.15)
    _assert_same_points(got, want)


def _assert_scripted_run_matches_per_draw(script, space, phi, n, min_sep, **kwargs):
    """Run the sampler and the per-draw loop on the same script; return the
    sampler's points."""
    got = _sample_merged(space, phi, n, min_sep, _ScriptedRng(script), **kwargs)
    _assert_same_points(got, _sample_merged_per_draw(space, phi, n, min_sep, _ScriptedRng(script), **kwargs))
    return got


def test_restart_in_the_middle_of_a_block_screens_the_rest_again():
    # n = 2 around the included point 0. Draw 1 (1.0) takes the first slot;
    # draws 2-201 lie within 0.3 of 0, so the second slot ends in a dead end
    # at draw 201, inside the block of draws 129-256. Draw 202 (1.1) was
    # closed by 1.0, which the restart drops, so it must be taken now.
    script = [1.0] + [0.05] * 200 + [1.1, -2.0] + [0.05] * 100
    got = _assert_scripted_run_matches_per_draw(script, CIRCLE, None, 2, 0.3, include=(0.0,))
    assert got == [CIRCLE.canonicalize(a) for a in (0.0, 1.1, -2.0)]


def test_restart_for_the_conditioning_floor_screens_the_rest_again():
    # Three draws 1.5e-3 apart keep min_sep = 1e-3, but their Gram's
    # relative minimum eigenvalue (about 8e-13) fails the conditioning
    # floor, so the set restarts halfway through the first block of 2n = 6
    # draws. Draw 4 (1.6e-3) was closed by draw 2 and must be taken now.
    script = [0.0, 1.5e-3, 3e-3, 1.6e-3, 2.0, -2.0] + [0.5] * 30
    got = _assert_scripted_run_matches_per_draw(
        script, CIRCLE, None, 3, 1e-3, cond_kernel=CircleExpCos(CIRCLE)
    )
    assert got == [CIRCLE.canonicalize(a) for a in (1.6e-3, 2.0, -2.0)]


def test_an_included_image_inside_min_sep_is_left_out_of_the_merged_set():
    space = Euclidean(2)
    doubling = EuclideanScaling(space, 2.0)
    # The image (0.2, 0) of the included point (0.1, 0) lies 0.1 from it, so
    # it is dropped: the draw (0.45, 0), 0.25 from that image, is taken.
    got = _assert_scripted_run_matches_per_draw(
        [0.45, 0.0] + [0.9, 0.9] * 20, space, doubling, 1, 0.3, radius=1.0, include=((0.1, 0.0),)
    )
    np.testing.assert_array_equal(got, [[0.1, 0.0], [0.45, 0.0]])
    # The image (2, 0) of (1, 0) is kept, so (1.75, 0), 0.25 from it, is not.
    got = _assert_scripted_run_matches_per_draw(
        [0.875, 0.0, -0.5, 0.0] + [0.9, 0.9] * 20, space, doubling, 1, 0.3, radius=2.0,
        include=((1.0, 0.0),),
    )
    np.testing.assert_array_equal(got, [[1.0, 0.0], [-0.5, 0.0]])


def test_a_candidate_whose_image_lies_within_min_sep_of_it_is_skipped():
    # Doubling moves (0.1, 0) by only 0.1, so that draw is skipped even
    # though it and its image are clear of everything else.
    got = _assert_scripted_run_matches_per_draw(
        [0.1, 0.0, 1.0, 0.0] + [0.9, 0.9] * 20, Euclidean(2), EuclideanScaling(Euclidean(2), 2.0),
        1, 0.3, radius=1.0,
    )
    np.testing.assert_array_equal(got, [[1.0, 0.0]])


@pytest.mark.parametrize("head", [[], [1.0]])
def test_config_error_path_reads_exactly_the_capped_draws(head):
    # Every draw after the head lies within 0.3 of the included point 0, so
    # the set is never complete; the sampler must raise after exactly
    # 200 000 draws and read none of the values beyond them.
    rng = _ScriptedRng(head + [0.05] * (200_000 + 500))
    with pytest.raises(ConfigError, match="min_sep"):
        _sample_merged(CIRCLE, None, 1 + len(head), 0.3, rng, include=(0.0,))
    assert rng.position == 200_000


@pytest.mark.parametrize("ell", [2, 3])
def test_projection_vectors_match_per_draw(ell):
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _projection_vectors(rng, ell, 50)
        want = _projection_vectors_per_draw(ref_rng, ell, 50)
        np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_projection_vectors_redraw_only_the_shortfall():
    # ell = 2; each vector takes four values (real parts, then imaginary
    # parts). Vectors 1 and 3 are too short, vector 2 has norm exactly
    # 1e-3 (rejected) and vector 4 lies just above it.
    just_above = math.nextafter(1e-3, 1.0)
    script = (
        [0.5, -0.2, 0.1, 0.3]
        + [1e-4, 0.0, 0.0, 1e-4]
        + [1e-3, 0.0, 0.0, 0.0]
        + [0.0, 0.0, 0.0, 0.0]
        + [just_above, 0.0, 0.0, 0.0]
        + [-1.0, 2.0, 0.5, 0.5]
        + [9.0] * 40
    )
    rng, ref_rng = _ScriptedRng(script), _ScriptedRng(script)
    got = _projection_vectors(rng, 2, 3)
    want = _projection_vectors_per_draw(ref_rng, 2, 3)
    np.testing.assert_array_equal(got, want)
    assert got.shape == (3, 2)
    assert rng.position == ref_rng.position == 24


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "suite", ["circle-example1", "gaussian-example1", "dotproduct-example1", "complex-sphere"]
)
def test_reports_byte_identical_to_per_draw_code(monkeypatch, suite, seed):
    config = SuiteConfig(suite=suite, seed=seed)
    batched = emit_report(run_suite(config), format="json")

    def many_per_draw(space, phi, n, min_sep, rngs, *args, **kwargs):
        sets = [_sample_merged_per_draw(space, phi, n, min_sep, rng, *args, **kwargs) for rng in rngs]
        return np.array([space.stack(pts) for pts in sets])

    monkeypatch.setattr(harness, "_sample_merged", _sample_merged_per_draw)
    monkeypatch.setattr(harness, "_sample_merged_many", many_per_draw)
    monkeypatch.setattr(harness, "_projection_vectors", _projection_vectors_per_draw)
    assert emit_report(run_suite(config), format="json") == batched


def _assert_many_matches_one_set_calls(rngs, space, phi, n, min_sep, **kwargs):
    """Run ``_sample_merged_many`` on rngs and ``_sample_merged`` on copies
    of them; the sets must agree."""
    copies = [copy.deepcopy(rng) for rng in rngs]
    got = _sample_merged_many(space, phi, n, min_sep, rngs, **kwargs)
    assert len(got) == len(rngs)
    for pts, rng, ref_rng in zip(got, rngs, copies):
        _assert_same_points(space.unstack(pts), _sample_merged(space, phi, n, min_sep, ref_rng, **kwargs))


@pytest.mark.parametrize(
    "space,phi,n,min_sep,kwargs",
    [
        (CIRCLE, ROTATION, 8, 0.3, dict(cond_kernel=CircleExpCos(CIRCLE))),
        (CIRCLE, ROTATION, 9, 0.3, {}),
        (Euclidean(2), EuclideanScaling(Euclidean(2), 2.0), 7, 0.15,
         dict(radius=1.0, include=(np.zeros(2),), min_norm=0.15, cond_kernel=DotExp(Euclidean(2)))),
    ],
    ids=["circle-floor", "circle-restarts", "plane-origin"],
)
def test_many_generators_match_one_set_calls_on_copies(space, phi, n, min_sep, kwargs):
    rngs = [np.random.default_rng((5, t)) for t in range(7)]
    _assert_many_matches_one_set_calls(rngs, space, phi, n, min_sep, **kwargs)


def test_a_conditioning_floor_restart_inside_a_batch_resumes_its_own_search():
    # The middle script is the restart case of
    # test_restart_for_the_conditioning_floor_screens_the_rest_again: its
    # first set fails the floor and it resumes alone, while the sets of the
    # other two pass at the first conditioning pass.
    restart = [0.0, 1.5e-3, 3e-3, 1.6e-3, 2.0, -2.0] + [0.5] * 30
    rngs = [_ScriptedRng([-1.0, 1.0, 2.5] + [0.5] * 60), _ScriptedRng(restart),
            _ScriptedRng([2.0, -2.0, 0.7] + [0.5] * 60)]
    kwargs = dict(cond_kernel=CircleExpCos(CIRCLE))
    _assert_many_matches_one_set_calls(rngs, CIRCLE, None, 3, 1e-3, **kwargs)
    got = _sample_merged_many(CIRCLE, None, 3, 1e-3, [_ScriptedRng(restart)], **kwargs)
    np.testing.assert_array_equal(got, [CIRCLE.stack([1.6e-3, 2.0, -2.0])])


def test_config_error_inside_a_batch_reads_no_generator_past_its_cap():
    # The middle generator never completes its set; it raises after exactly
    # the capped draws, and no other generator reads more than a one-set
    # call on it would.
    scripts = [[1.0] + [0.5] * 30, [0.05] * (200_000 + 500), [-1.0] + [2.0] * 30]
    rngs = [_ScriptedRng(script) for script in scripts]
    with pytest.raises(ConfigError, match="min_sep"):
        _sample_merged_many(CIRCLE, None, 1, 0.3, rngs, include=(0.0,))
    assert rngs[1].position == 200_000
    for k in (0, 2):
        ref_rng = _ScriptedRng(scripts[k])
        _sample_merged(CIRCLE, None, 1, 0.3, ref_rng, include=(0.0,))
        assert rngs[k].position in (0, ref_rng.position)
