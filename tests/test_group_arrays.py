"""The array-native finite-group path against the per-element code it replaced.

``_canonicalize_per_point`` is the per-point group-element check that
``FiniteAbelian.stack`` used to run once per point, and
``_random_matrix_spectrum_per_element`` the per-element loop that drew
random coefficient matrices; both are kept here as references. The
array code must accept the same point lists with the same rows (or raise
the same error class), and must draw the same coefficients bit for bit,
leaving the generator in the same state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcex import harness
from kernelcex.errors import KernelCexError, NonFiniteValue, SpaceMismatch
from kernelcex.fourier import FourierSpectrum, spectrum_kernel
from kernelcex.harness import (
    _GROUP_CATALOG,
    SuiteConfig,
    _random_matrix_spectrum,
    emit_report,
    run_suite,
)
from kernelcex.kernels import GroupFourier
from kernelcex.spaces import FiniteAbelian, Space


def _canonicalize_per_point(group, x):
    if isinstance(x, (int, np.integer)):
        x = (int(x),)
    try:
        coords = tuple(int(c) for c in x)
    except (TypeError, ValueError, OverflowError) as exc:
        try:
            non_finite = any(isinstance(c, float) and not math.isfinite(c) for c in x)
        except TypeError:
            non_finite = False
        if non_finite:
            raise NonFiniteValue(f"non-finite group coordinate in {x!r}") from exc
        raise SpaceMismatch(f"not a group element: {x!r}") from exc
    if len(coords) != len(group.orders):
        raise SpaceMismatch(f"expected {len(group.orders)} coordinates, got {x!r}")
    if any(c != v for c, v in zip(coords, x)):
        raise SpaceMismatch(f"non-integral group coordinate in {x!r}")
    return tuple(c % q for c, q in zip(coords, group.orders))


def _stack_per_point(group, points):
    elements = [_canonicalize_per_point(group, p) for p in points]
    return np.array(elements, dtype=np.int64).reshape(len(elements), len(group.orders))


def _random_matrix_spectrum_per_element(group, ell, rng, strict):
    stack = np.empty((group.order, ell, ell), dtype=np.complex128)
    degenerate_at = -1 if strict else int(rng.integers(group.order))
    for gi in range(group.order):
        b = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
        a = b @ b.conj().T + 0.2 * np.eye(ell)
        if gi == degenerate_at:
            v = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
            a = np.outer(v, v.conj())
        stack[gi] = 0.5 * (a + a.conj().T)
    return FourierSpectrum(group=group, coefficients=stack)


def _outcome(fn, *args):
    """The rows ``fn`` returns, or the class of the kernelcex error it raises."""
    try:
        rows = fn(*args)
    except KernelCexError as exc:
        return type(exc)
    assert rows.dtype == np.int64
    return rows.tolist()


# ---------------------------------------------------------------------------
# FiniteAbelian.stack


_coordinates = st.one_of(
    st.integers(-40, 40),
    st.booleans(),
    st.integers(-40, 40).map(np.int64),
    st.integers(-40, 40).map(np.int32),
    st.integers(0, 40).map(np.uint8),
    st.integers(-40, 40).map(float),
    st.floats(-40, 40).filter(lambda f: not f.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["1", "a", "nan", ""]),
)
_bare = st.one_of(st.integers(-40, 40), st.booleans(), st.integers(-40, 40).map(np.int64))


@st.composite
def _group_and_points(draw):
    orders = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    rank = len(orders)
    # Half the lists give every point the group's rank, so that most of
    # them form numeric arrays; the others mix lengths around it.
    lengths = st.just(rank) if draw(st.booleans()) else st.integers(max(rank - 1, 0), rank + 1)
    sequence = st.tuples(
        st.booleans(), lengths.flatmap(lambda n: st.lists(_coordinates, min_size=n, max_size=n))
    ).map(lambda t: tuple(t[1]) if t[0] else t[1])
    point = st.one_of(sequence, _bare) if draw(st.booleans()) else sequence
    return FiniteAbelian(orders), draw(st.lists(point, max_size=5))


def _forms_numeric_array(points) -> bool:
    try:
        return np.asarray(points).dtype.kind in "biuf"
    except ValueError:
        return False


@settings(max_examples=1500, deadline=None)
@given(_group_and_points())
def test_stack_matches_the_per_point_check(case):
    group, points = case
    got = _outcome(group.stack, points)
    want = _outcome(_stack_per_point, group, points)
    if _forms_numeric_array(points):
        assert got == want
    else:
        # Ragged rows or a string: the list is rejected as a whole. The
        # per-point check rejected it too (NonFiniteValue if its first bad
        # point held a NaN), except a rank-1 list that mixes bare integers
        # with one-coordinate sequences, which it accepted.
        assert got is SpaceMismatch
        if want not in (SpaceMismatch, NonFiniteValue):
            assert len(group.orders) == 1
            assert {isinstance(p, (tuple, list)) for p in points} == {True, False}


@pytest.mark.parametrize(
    "orders,points,rows",
    [
        ((3, 4), [(5, -1), [True, np.int64(7)], (3.0, 4.0)], [[2, 3], [1, 3], [0, 0]]),
        ((5,), [7, np.int64(-1), True], [[2], [4], [1]]),
        ((5,), [(7,), (np.uint8(9),)], [[2], [4]]),
        ((2, 3), [], []),
        ((2, 3), np.array([[3, 4], [1, 2]]), [[1, 1], [1, 2]]),
    ],
)
def test_stack_accepts_integral_points(orders, points, rows):
    group = FiniteAbelian(orders)
    assert group.stack(points).tolist() == rows
    assert group.stack(points).shape == (len(rows), len(orders))
    for point, row in zip(points, rows):
        assert group.canonicalize(point) == tuple(row)


@pytest.mark.parametrize(
    "points,error",
    [
        ([(1, 2), (0.5, 1)], SpaceMismatch),
        ([(1, 2), (math.nan, 1)], NonFiniteValue),
        ([(math.inf, 1, 2)], NonFiniteValue),
        ([(1, 2, 3), (math.nan, 1, 2)], SpaceMismatch),
        ([(1, 2), (3,)], SpaceMismatch),
        ([(1, "2")], SpaceMismatch),
        ([(1, None)], SpaceMismatch),
        ([(1, 1j)], SpaceMismatch),
        ([2.0, 3.0], SpaceMismatch),
        ([4], SpaceMismatch),
        ([[(1, 2)]], SpaceMismatch),
    ],
)
def test_stack_errors_name_the_first_bad_point(points, error):
    group = FiniteAbelian((3, 4))
    with pytest.raises(error):
        group.stack(points)
    assert _outcome(_stack_per_point, group, points) is error


def test_inputs_whose_acceptance_changed():
    z3, z34 = FiniteAbelian((3,)), FiniteAbelian((3, 4))
    # Rejected now, accepted by the per-point check: coordinates beyond the
    # int64 range (reduced before conversion there), a rank-1 list mixing
    # bare integers with sequences, and a generator of points.
    for group, points in [
        (z34, [(10**30, 1)]),
        (z34, [(1e20, 1.0)]),
        (z3, [2, (1,)]),
        (z3, ((k,) for k in range(3))),
    ]:
        with pytest.raises(SpaceMismatch):
            group.stack(points)
    assert _stack_per_point(z34, [(10**30, 1)]).tolist() == [[1, 1]]
    assert _stack_per_point(z3, [2, (1,)]).tolist() == [[2], [1]]
    # Accepted now, rejected by the per-point check: a bare numpy bool and a
    # 0-d integer array on a rank-1 group.
    assert z3.canonicalize(np.True_) == (1,)
    assert z3.canonicalize(np.array(5)) == (2,)
    for x in (np.True_, np.array(5)):
        with pytest.raises(SpaceMismatch):
            _canonicalize_per_point(z3, x)
    # A list mixing a string with a NaN point is rejected as a whole.
    with pytest.raises(SpaceMismatch):
        z34.stack([(math.nan, 1), ("a", 1)])
    with pytest.raises(NonFiniteValue):
        _stack_per_point(z34, [(math.nan, 1), ("a", 1)])


def test_canonicalize_is_the_one_row_view_of_stack():
    assert "canonicalize" not in vars(FiniteAbelian)
    assert FiniteAbelian.canonicalize is Space.canonicalize
    group = FiniteAbelian((2, 3))
    point = group.canonicalize((np.int64(3), 4.0))
    assert point == (1, 1) and all(type(c) is int for c in point)


@pytest.mark.parametrize("orders", [(5,), (2, 3), (2, 3, 4), (4, 4)])
def test_difference_indices_match_the_coordinate_loop(orders):
    group = FiniteAbelian(orders)
    rng = np.random.default_rng(len(orders))
    X = group.stack(rng.integers(-9, 9, (7, len(orders))))
    Y = group.stack(rng.integers(-9, 9, (5, len(orders))))
    index = np.zeros((7, 5), dtype=np.intp)
    for r, q in enumerate(orders):
        index *= q
        index += (X[:, r, None] - Y[None, :, r]) % q
    np.testing.assert_array_equal(group.difference_indices(X, Y), index)


# ---------------------------------------------------------------------------
# Coefficients


def test_group_fourier_converts_coefficients_as_complex_did():
    group = FiniteAbelian((2, 2))
    column = np.array([1.5, -0.0, 0.25 - 0.0j, complex(-0.0, -1e-300)])
    kernel = GroupFourier(group, column)
    want = tuple(complex(c) for c in column)
    assert type(kernel.coefficients) is tuple
    assert all(type(c) is complex for c in kernel.coefficients)
    assert [(c.real, c.imag) for c in kernel.coefficients] == [(c.real, c.imag) for c in want]
    assert [math.copysign(1, c.real) for c in kernel.coefficients] == [1, -1, 1, -1]
    assert kernel == GroupFourier(group, want) and hash(kernel) == hash(GroupFourier(group, want))


def test_spectrum_kernel_entries_are_the_coefficient_columns():
    group = FiniteAbelian((2, 3))
    spectrum = _random_matrix_spectrum(group, 3, np.random.default_rng(4), strict=False)
    kernel = spectrum_kernel(spectrum)
    for i in range(3):
        for j in range(3):
            want = tuple(complex(c) for c in spectrum.coefficients[:, i, j])
            assert kernel.entries[i][j].coefficients == want


@pytest.mark.parametrize("orders", _GROUP_CATALOG)
def test_random_matrix_spectrum_keeps_the_per_element_stream(orders):
    group = FiniteAbelian(orders)
    for ell in (2, 3):
        for strict in (True, False):
            for seed in range(6):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _random_matrix_spectrum(group, ell, rng, strict).coefficients
                want = _random_matrix_spectrum_per_element(group, ell, ref_rng, strict).coefficients
                assert got.shape == want.shape == (group.order, ell, ell)
                assert got.tobytes() == want.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [1, 7])
def test_strictness_report_byte_identical_to_per_element_code(monkeypatch, seed):
    config = SuiteConfig(suite="abelian-strictness", seed=seed)
    blocked = emit_report(run_suite(config), format="json")
    monkeypatch.setattr(harness, "_random_matrix_spectrum", _random_matrix_spectrum_per_element)
    assert emit_report(run_suite(config), format="json") == blocked
