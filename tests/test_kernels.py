import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cgobstruct import build_family, build_sigma_tables, check_point, primary_parts
from cgobstruct.kernels import (
    BATCH,
    BLOCK,
    assert_int64_budget,
    compose_block,
    scan_classes,
    select_kernel,
)
from cgobstruct.linking_form import (
    PrimaryPart,
    enumerate_isotropic_classes,
    enumerate_projective_isotropic,
)

from oracles import assert_bounded, assert_bounded_scan, compose_multipliers, loop_scan, scan_chunk


def scan(xs, S, p, s1, thr):
    return scan_classes(xs, S, s1, p, thr)


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


@pytest.mark.parametrize("p", [3, 7, 11, 31])
def test_compose_block_entries(p):
    # stage 1's table: row B[j, a] holds S[j, k*a mod p] for k = 1..BLOCK,
    # or up to (p-1)/2 when that is smaller
    S = np.arange(3 * p, dtype=np.int64).reshape(3, p) * 7 % 101
    B = compose_block(S, p)
    width = min(BLOCK, (p - 1) // 2)
    assert B.shape == (3, p, width) and B.dtype == np.int64 and B.flags["C_CONTIGUOUS"]
    for j in range(3):
        for a in range(p):
            for k in range(1, width + 1):
                assert B[j, a, k - 1] == S[j, k * a % p]


def test_compose_multipliers_layout():
    # the layout of the row-gather reference kernel's table
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
    # a threshold above every value: nothing is witnessed, so every row is
    # scanned in full and best is exact
    _, tab, xs = scan_inputs
    S, p, rows = tab.scaled_sigma, tab.p, xs[::25]
    first, best, sig_at, eta_at = scan(rows, S, p, s1, 10**4)
    assert not first.any() and not sig_at.any() and not eta_at.any()
    assert_same((first, best, sig_at, eta_at), loop_scan(rows, S, p, s1, 10**4))


@pytest.mark.parametrize("s1, thr", [(0, 5), (0, 9), (-4, 9), (12, 5), (5, 1)])
def test_kernel_matches_loop_on_flagship_rows(scan_inputs, s1, thr):
    _, tab, xs = scan_inputs
    S, p, rows = tab.scaled_sigma, tab.p, xs[::10]
    assert_bounded_scan(scan(rows, S, p, s1, thr), rows, S, p, s1, thr)


LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray, "strided": lambda xs: xs[::3]}


@pytest.mark.parametrize(
    "thr, layout",
    [
        pytest.param(thr, layout, id=str(thr) if layout == "C" else f"{thr}-{layout}")
        for thr in (5, 9, 10**4)
        for layout in LAYOUTS
    ],
)
def test_kernel_matches_row_gather_reference(scan_inputs, thr, layout):
    # first, sig_at, eta_at and the minimum of best equal the previous kernel's,
    # and the memory layout of xs changes no output
    _, tab, xs = scan_inputs
    S, p = tab.scaled_sigma, tab.p
    rows = LAYOUTS[layout](xs)
    assert rows.flags.c_contiguous == (layout == "C") and rows.flags.f_contiguous == (layout == "F")
    first, best, sig_at, eta_at = scan(rows, S, p, 3, thr)
    assert_same((first, best, sig_at, eta_at), scan(np.ascontiguousarray(rows), S, p, 3, thr))
    want = scan_chunk(np.ascontiguousarray(rows), compose_multipliers(S, p), 3, p, thr)
    assert_same((first, sig_at, eta_at), (want[0], want[2], want[3]))
    assert best.min() == want[1].min() and (best <= want[1]).all()


def test_kernel_first_witness_beyond_block():
    # one spike at a = +-7 mod 31: x = 1 first hits at k = 7, x = 2 at k = 12
    # (2*12 = 24 = -7), x = 3 at k = 8 (3*8 = 24); none inside k <= BLOCK
    p = 31
    S = np.zeros((1, p), dtype=np.int64)
    S[0, 7] = S[0, p - 7] = 10 * p
    xs = np.array([[1], [2], [3]], dtype=np.int64)
    got = scan(xs, S, p, 0, 5)
    assert got[0].tolist() == [7, 12, 8] and min(got[0]) > BLOCK
    assert_same(got, loop_scan(xs, S, p, 0, 5))


def test_kernel_many_rows_tie_at_the_minimum():
    # entries from {0, +-p, 2p}: 40 of 256 classes tie at the minimum, 50
    # are first witnessed beyond the block, and some keep their block bound
    p, half = 31, 15
    rows = np.random.default_rng(11).choice([0, p, -p, 2 * p], (4, half + 1))
    rows[:, 0] = 0
    S = np.concatenate([rows, rows[:, :0:-1]], axis=1)
    part = PrimaryPart(p, (0, 1, 2, 3), (1, 1, -1, -1))
    xs = np.array(list(enumerate_projective_isotropic(part))[::4], dtype=np.int64)
    got = scan(xs, S, p, 0, 1)
    assert_bounded_scan(got, xs, S, p, 0, 1)
    exact = loop_scan(xs, S, p, 0, 1)[1]
    assert (exact == exact.min()).sum() == 40 and (got[0] > BLOCK).sum() == 50
    assert (got[1] < exact).any()


@pytest.fixture(scope="module")
def p300_classes():
    # every class of family(293,307,17,11,13): 10,953 and 12,013 rows
    K = build_family(293, 307, 17, 11, 13)
    parts = primary_parts(K)
    return [(build_sigma_tables(K, part.p), enumerate_isotropic_classes(part)[0]) for part in parts]


def reference(xs, S, p, s1, thr, k_max=None):
    """`scan_chunk` over k = 1..k_max (default (p-1)/2), 2,048 rows at a time."""
    T = compose_multipliers(S, p)[:, :, :k_max]
    outs = [scan_chunk(xs[i : i + 2048], T, s1, p, thr) for i in range(0, len(xs), 2048)]
    return tuple(np.concatenate(col) for col in zip(*outs))


def test_kernel_bounded_on_full_class_arrays(p300_classes):
    # real tables at more than ten BATCHes of classes: stage 1 over all of
    # them, then the seed (the 39 and 177 classes without a block witness)
    for tab, xs in p300_classes:
        S, p = tab.scaled_sigma, tab.p
        assert len(xs) > 10 * BATCH
        got = scan(xs, S, p, 0, 5)
        assert (got[0] > 0).all()
        assert_bounded(got, reference(xs, S, p, 0, 5), reference(xs, S, p, 0, 5, BLOCK)[1])


def test_kernel_unwitnessed_full_class_arrays_in_pieces(p300_classes):
    # nothing is witnessed, so every class is seeded and scanned in full,
    # about 12 pieces of BATCH rows, in bounded memory
    for tab, xs in p300_classes:
        S, p = tab.scaled_sigma, tab.p
        tracemalloc.start()
        try:
            got = scan(xs, S, p, 0, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not got[0].any()
        assert_same(got, reference(xs, S, p, 0, 10**6))
        assert peak < 8 * 2**20, f"scan peak {peak / 2**20:.1f} MiB at p={p}"


def test_select_kernel_env():
    # one kernel is left; the seam still resolves it by name
    assert select_kernel() == ("numpy", scan_classes)
    assert select_kernel("numpy") == ("numpy", scan_classes)
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
