from fractions import Fraction

import numpy as np
import pytest

from cgobstruct import build_sigma_tables, check_point, primary_parts
from cgobstruct.kernels import (
    assert_int64_budget,
    compose_multipliers,
    scan_chunk,
    select_kernel,
)
from cgobstruct.linking_form import enumerate_projective_isotropic

from oracles import loop_scan


def scan(xs, S, p, s1, thr):
    """The kernel with its per-prime table composed on the spot."""
    return scan_chunk(xs, compose_multipliers(S, p), s1, p, thr)


def assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == np.int64
        assert np.array_equal(a, b), (a, b)


@pytest.fixture(scope="module")
def scan_inputs(flagship):
    part = primary_parts(flagship)[0]
    tab = build_sigma_tables(flagship, 83)
    xs = np.array(list(enumerate_projective_isotropic(part))[:500], dtype=np.int64)
    return part, tab, xs


def test_numpy_kernel_shapes(scan_inputs):
    _, tab, xs = scan_inputs
    p = tab.p
    first, best, sig_at, eta_at = scan(xs, tab.scaled_sigma, p, 0, 5)
    n = len(xs)
    assert first.shape == best.shape == sig_at.shape == eta_at.shape == (n,)
    assert first.dtype == best.dtype == sig_at.dtype == eta_at.dtype == np.int64
    assert (first > 0).all()  # flagship: every point witnessed
    assert (first <= (p - 1) // 2).all()
    assert (best >= np.abs(sig_at) - p * eta_at).all()


def test_compose_multipliers_layout():
    S = np.arange(2 * 7, dtype=np.int64).reshape(2, 7)
    T = compose_multipliers(S, 7)
    assert T.shape == (2, 7, 3) and T.flags["C_CONTIGUOUS"]
    for j in range(2):
        for a in range(7):
            for k in range(1, 4):
                assert T[j, a, k - 1] == S[j, k * a % 7]


def _against_check_point(part, tab, xs, s1):
    p = tab.p
    first, best, sig_at, eta_at = scan(xs, tab.scaled_sigma, p, s1, 5)
    for i in range(len(xs)):
        w = check_point(tuple(int(v) for v in xs[i]), part, tab, 1, s1)
        assert w is not None
        assert w.k == int(first[i])
        assert w.sigma == Fraction(int(sig_at[i]), p)
        assert w.eta == int(eta_at[i])


def test_numpy_kernel_against_exact_reference(scan_inputs):
    part, tab, xs = scan_inputs
    _against_check_point(part, tab, xs[:40], 0)


@pytest.mark.parametrize("s1", [-4, 12])
def test_kernel_against_exact_reference_nonzero_s1(scan_inputs, s1):
    part, tab, xs = scan_inputs
    _against_check_point(part, tab, xs[:40], s1)


@pytest.mark.parametrize("s1", [0, 3, -7])
def test_kernel_unwitnessed_rows(scan_inputs, s1):
    # a threshold above every value: nothing is witnessed, best is still exact
    _, tab, xs = scan_inputs
    S, p, rows = tab.scaled_sigma, tab.p, xs[::25]
    first, best, sig_at, eta_at = scan(rows, S, p, s1, 10**4)
    assert not first.any() and not sig_at.any() and not eta_at.any()
    assert_same((first, best, sig_at, eta_at), loop_scan(rows, S, p, s1, 10**4))


@pytest.mark.parametrize("s1, thr", [(0, 5), (0, 9), (-4, 9), (12, 5), (5, 1)])
def test_kernel_matches_loop_on_flagship_rows(scan_inputs, s1, thr):
    _, tab, xs = scan_inputs
    S, p, rows = tab.scaled_sigma, tab.p, xs[::10]
    assert_same(scan(rows, S, p, s1, thr), loop_scan(rows, S, p, s1, thr))


def test_select_kernel_env():
    # one kernel is left; the seam still resolves it by name
    assert select_kernel() == ("numpy", scan_chunk)
    assert select_kernel("numpy") == ("numpy", scan_chunk)
    with pytest.raises(ValueError):
        select_kernel("numba")


def test_budget_guard():
    S = np.full((4, 11), 2**61, dtype=np.int64)
    E = np.zeros((4, 11), dtype=np.int64)
    with pytest.raises(OverflowError):
        assert_int64_budget(S, E, 11, 0, 5)
    assert_int64_budget(np.zeros((4, 11), np.int64), E, 11, 0, 5)


def test_empty_chunk(scan_inputs):
    _, tab, xs = scan_inputs
    out = scan(xs[:0], tab.scaled_sigma, tab.p, 0, 5)
    assert all(arr.shape == (0,) and arr.dtype == np.int64 for arr in out)
