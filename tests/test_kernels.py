import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cgobstruct import (
    GAKnot,
    Piece,
    build_family,
    build_sigma_tables,
    check_point,
    kernels,
    primary_parts,
    signature_at_minus_one,
)
from cgobstruct.kernels import (
    BLOCK,
    CELLS,
    TOP,
    assert_int64_budget,
    scan_classes,
    select_kernel,
)
from cgobstruct.linking_form import enumerate_projective_isotropic

from oracles import (
    assert_bounded,
    assert_bounded_scan,
    compose_multipliers,
    enumerate_isotropic_classes,
    form_part,
    loop_scan,
    scan_chunk,
)


def scan(xs, S, p, s1, thr):
    return scan_classes(xs, S, s1, p, thr, loop_scan(xs, S, p, s1, thr, k_max=1)[1], TOP)


def assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == np.int64
        assert np.array_equal(a, b), (a, b)


@pytest.fixture(scope="module")
def scan_inputs(flagship):
    part = primary_parts(flagship)[0]
    tab = build_sigma_tables(part)
    xs = np.array(list(enumerate_projective_isotropic(part))[:500], dtype=np.int64)
    return part, tab, xs


def test_numpy_kernel_shapes(scan_inputs):
    _, tab, xs = scan_inputs
    p = tab.p
    first, best = scan(xs, tab.scaled_sigma, p, 0, 5)
    n = len(xs)
    assert first.shape == best.shape == (n,)
    assert first.dtype == best.dtype == np.int64
    assert (first > 0).all()  # flagship: every point witnessed
    assert (first <= (p - 1) // 2).all()


def test_compose_multipliers_layout():
    # the layout of the row-gather reference kernel's table
    S = np.arange(2 * 7, dtype=np.int64).reshape(2, 7)
    T = compose_multipliers(S, 7)
    assert T.shape == (2, 7, 3) and T.flags["C_CONTIGUOUS"]
    for j in range(2):
        for a in range(7):
            for k in range(1, 4):
                assert T[j, a, k - 1] == S[j, k * a % 7]


def _against_check_point(K, part, tab, xs):
    first, _ = scan(xs, tab.scaled_sigma, tab.p, signature_at_minus_one(K), 5)
    for i in range(len(xs)):
        w = check_point(tuple(int(v) for v in xs[i]), part, K, 1)
        assert w is not None
        assert w.k == int(first[i])


def test_numpy_kernel_against_exact_reference(scan_inputs, flagship):
    part, tab, xs = scan_inputs
    _against_check_point(flagship, part, tab, xs[:40])


# F # T(2,5) and F # -T(2,13): the extra piece moves sigma(-1) off 0 and
# leaves the p = 83 part and its table as they are for F
NONZERO_S1_TAILS = {-4: Piece(1, 5, +1), 12: Piece(1, 13, -1)}


@pytest.mark.parametrize("s1", sorted(NONZERO_S1_TAILS))
def test_kernel_against_exact_reference_nonzero_s1(scan_inputs, flagship, s1):
    part, tab, xs = scan_inputs
    K = flagship + GAKnot((NONZERO_S1_TAILS[s1],))
    assert signature_at_minus_one(K) == s1 and primary_parts(K)[0] == part
    assert (build_sigma_tables(primary_parts(K)[0]).scaled_sigma == tab.scaled_sigma).all()
    _against_check_point(K, part, tab, xs[:40])


@pytest.mark.parametrize("s1", [0, 3, -7])
def test_kernel_unwitnessed_rows(scan_inputs, s1):
    # a threshold above every value: nothing is witnessed, so every row is
    # scanned in full and best is exact
    _, tab, xs = scan_inputs
    S, p, rows = tab.scaled_sigma, tab.p, xs[::25]
    first, best = scan(rows, S, p, s1, 10**4)
    assert not first.any()
    assert_same((first, best), loop_scan(rows, S, p, s1, 10**4))


@pytest.mark.parametrize("s1, thr", [(0, 5), (0, 9), (-4, 9), (12, 5), (5, 1)])
def test_kernel_matches_loop_on_flagship_rows(scan_inputs, s1, thr):
    _, tab, xs = scan_inputs
    S, p, rows = tab.scaled_sigma, tab.p, xs[::10]
    assert_bounded_scan(scan(rows, S, p, s1, thr), rows, S, p, s1, thr)


@pytest.mark.parametrize("cells", [1, 7, 60])
@pytest.mark.parametrize("s1, thr", [(0, 5), (-4, 9), (5, 1), (0, 10**4)])
def test_kernel_in_tiny_blocks_matches_loop(monkeypatch, scan_inputs, cells, s1, thr):
    # a few cells of scratch: depth BLOCK runs 1 or 15 rows per batch and
    # the full scan one row per batch, so every depth crosses a batch edge
    # at nearly every row
    monkeypatch.setattr(kernels, "CELLS", cells)
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
    # first and the minimum of best equal the previous kernel's, and the
    # memory layout of xs changes no output
    _, tab, xs = scan_inputs
    S, p = tab.scaled_sigma, tab.p
    rows = LAYOUTS[layout](xs)
    assert rows.flags.c_contiguous == (layout == "C") and rows.flags.f_contiguous == (layout == "F")
    first, best = scan(rows, S, p, 3, thr)
    assert_same((first, best), scan(np.ascontiguousarray(rows), S, p, 3, thr))
    want = scan_chunk(np.ascontiguousarray(rows), compose_multipliers(S, p), 3, p, thr)
    assert_same((first,), (want[0],))
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
    # are first witnessed at k = 1 and 50 beyond the block, and 84 are left
    # below their exact best, 28 of them witnessed at k = 1 and left at their
    # k = 1 bound
    p, half = 31, 15
    rows = np.random.default_rng(11).choice([0, p, -p, 2 * p], (4, half + 1))
    rows[:, 0] = 0
    S = np.concatenate([rows, rows[:, :0:-1]], axis=1)
    part = form_part(p, (1, 1, -1, -1))
    xs = np.array(list(enumerate_projective_isotropic(part))[::4], dtype=np.int64)
    got = scan(xs, S, p, 0, 1)
    assert_bounded_scan(got, xs, S, p, 0, 1)
    exact = loop_scan(xs, S, p, 0, 1)[1]
    assert (exact == exact.min()).sum() == 40 and (got[0] > BLOCK).sum() == 50
    assert (got[0] == 1).sum() == 50
    left = got[1] < exact
    assert left.sum() == 84 and (left & (got[0] == 1)).sum() == 28


@pytest.fixture(scope="module")
def p300_classes():
    # every class of family(293,307,17,11,13): 10,953 and 12,013 rows
    K = build_family(293, 307, 17, 11, 13)
    parts = primary_parts(K)
    return [(build_sigma_tables(part), enumerate_isotropic_classes(part)[0]) for part in parts]


def reference(xs, S, p, s1, thr, k_max=None):
    """`scan_chunk` over k = 1..k_max (default (p-1)/2), 2,048 rows at a time."""
    T = compose_multipliers(S, p)[:, :, :k_max]
    outs = [scan_chunk(xs[i : i + 2048], T, s1, p, thr) for i in range(0, len(xs), 2048)]
    return tuple(np.concatenate(col) for col in zip(*outs))


def assert_bounded_reference(got, xs, S, p, s1, thr):
    """`assert_bounded` against `reference` at every depth."""
    depths = [reference(xs, S, p, s1, thr, k)[1] for k in (1, BLOCK)]
    assert_bounded(got, reference(xs, S, p, s1, thr), *depths)


@pytest.fixture(scope="module")
def p83_classes():
    # every class of family(83,89,11,17,19) at p = 83: 925 rows
    K = build_family(83, 89, 11, 17, 19)
    part = primary_parts(K)[0]
    return build_sigma_tables(part), enumerate_isotropic_classes(part)[0]


def test_kernel_bounded_on_full_class_arrays(p300_classes, p83_classes):
    # real tables. At p = 293, 307, over more than CELLS classes:
    # depth BLOCK for the 805 and 739 classes without a k = 1 witness, then
    # the seed (the 39 and 177 classes without a block witness). At p = 83
    # the seed sets the bound 11p, and the rest phase takes the 132
    # witnessed classes below it (the smallest at 9p): 31 stay below 11p at
    # depth BLOCK and are scanned in full
    for tab, xs in p300_classes + [p83_classes]:
        S, p = tab.scaled_sigma, tab.p
        got = scan(xs, S, p, 0, 5)
        assert (got[0] > 0).all()
        assert_bounded_reference(got, xs, S, p, 0, 5)
    assert all(len(xs) > CELLS for _, xs in p300_classes)
    tab, xs = p83_classes
    S, p = tab.scaled_sigma, tab.p
    one, block, exact = (reference(xs, S, p, 0, 5, k) for k in (1, BLOCK, None))
    witnessed = block[0] > 0
    low = np.where(one[0] == 1, one[1], block[1])[witnessed]
    assert exact[1][~witnessed].min() == exact[1].min() == 11 * p
    assert low.min() == 9 * p and (low < 11 * p).sum() == 132
    assert (block[1][witnessed] < 11 * p).sum() == 31


def test_kernel_bounded_on_full_class_arrays_in_tiny_blocks(monkeypatch, p300_classes):
    # 16 rows per depth-BLOCK batch and one per full-scan batch; the seed
    # alone settles the margin here, so the same classes are scanned in
    # full and every output, best included, equals the scan's at the
    # default CELLS
    for tab, xs in p300_classes:
        S, p = tab.scaled_sigma, tab.p
        whole = scan(xs, S, p, 0, 5)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "CELLS", 64)
            got = scan(xs, S, p, 0, 5)
        assert_same(got, whole)
        assert_bounded_reference(got, xs, S, p, 0, 5)


def test_kernel_smallest_k1_bound_is_not_the_margin_class(p300_classes):
    # at p = 307 the witnessed class of smallest k = 1 bound (9p, block
    # bound 97p, exact best 173p) is not seeded: the unwitnessed seed
    # classes set the 7p margin, and it stays at its k = 1 bound, 9p >= 7p
    tab, xs = p300_classes[1]
    S, p = tab.scaled_sigma, tab.p
    one = reference(xs, S, p, 0, 5, 1)
    low = np.where(one[0] == 1, one[1], np.iinfo(np.int64).max)
    arg = int(low.argmin())
    exact = reference(xs, S, p, 0, 5)
    assert (low[arg], exact[1][arg], exact[1].min()) == (9 * p, 173 * p, 7 * p)
    assert reference(xs, S, p, 0, 5, BLOCK)[1][arg] == 97 * p
    got = scan(xs, S, p, 0, 5)
    assert (got[0][arg], got[1][arg]) == (1, 9 * p)
    assert_bounded_reference(got, xs, S, p, 0, 5)


def test_kernel_deepening_stops_a_full_scan():
    # two pieces, one class each: (1, 0) has k = 1 bound 40 and exact best 60
    # (at k = 6) and, seeded as the row of smallest bound since no row is
    # unwitnessed and no least is given, sets U = 60 first;
    # (0, 1) has k = 1 bound 50 < U, block
    # bound 80 >= U (at k = 2) and exact best 100 (at k = 9), so deepening it
    # to BLOCK leaves it out of the full scan with best 80
    p = 31
    S = np.zeros((2, p), dtype=np.int64)
    for j, a, v in [(0, 1, 40), (0, 6, 60), (1, 1, 50), (1, 2, 80), (1, 9, 100)]:
        S[j, a] = S[j, p - a] = v
    xs = np.array([[1, 0], [0, 1]], dtype=np.int64)
    got = scan(xs, S, p, 0, 1)
    assert got[0].tolist() == [1, 1] and got[1].tolist() == [60, 80]
    assert loop_scan(xs, S, p, 0, 1)[1].tolist() == [60, 100]
    assert_bounded_scan(got, xs, S, p, 0, 1)


def test_kernel_given_least_seeds_no_witnessed_row():
    # the second call of `obstruction._settle`: every row is witnessed at
    # k = 1, and least = 65 lies above both k = 1 bounds (40, 50), at or
    # below both block bounds (70, 80) and below both exact bests (90, 100).
    # least already bounds the margin, so no row is scanned in full and
    # each stops at its block bound
    p = 31
    S = np.zeros((2, p), dtype=np.int64)
    for j, a, v in [(0, 1, 40), (0, 2, 70), (0, 6, 90), (1, 1, 50), (1, 3, 80), (1, 9, 100)]:
        S[j, a] = S[j, p - a] = v
    xs = np.array([[1, 0], [0, 1]], dtype=np.int64)
    one, block, exact = (loop_scan(xs, S, p, 0, 1, k_max=k)[1] for k in (1, BLOCK, None))
    assert (one.tolist(), block.tolist(), exact.tolist()) == ([40, 50], [70, 80], [90, 100])
    got = scan_classes(xs, S, 0, p, 1, one, 65)
    assert got[0].tolist() == [1, 1] and (got[1] <= block).all()
    assert_bounded_scan(got, xs, S, p, 0, 1, least=65)


def test_kernel_unwitnessed_full_class_arrays_in_pieces(p300_classes):
    # nothing is witnessed, so every class is settled to BLOCK and then
    # scanned in full, in batches of CELLS // 146 and CELLS // 153 rows; the
    # k = 1 bounds are the caller's, built outside the traced window, and
    # beyond the two output arrays and the per-row eta, scratch (the miss
    # indices and the seed among it) stays within eight CELLS-cell blocks
    for tab, xs in p300_classes:
        S, p = tab.scaled_sigma, tab.p
        bound = loop_scan(xs, S, p, 0, 10**6, k_max=1)[1]
        tracemalloc.start()
        try:
            got = scan_classes(xs, S, 0, p, 10**6, bound, TOP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not got[0].any()
        assert_same(got, reference(xs, S, p, 0, 10**6))
        cap = 3 * 8 * len(xs) + 8 * 8 * CELLS
        assert peak < cap, f"scan peak {peak} B at p={p}, cap {cap} B"


def test_scan_of_no_rows_builds_no_table(monkeypatch):
    # an empty seed comes back at once, before the primitive root and the
    # log-order tables are built
    def unreachable(p):
        raise AssertionError("the scan built its tables")

    monkeypatch.setattr(kernels, "primitive_root", unreachable)
    S, none = np.zeros((4, 83), dtype=np.int64), np.zeros(0, dtype=np.int64)
    for least in (TOP, 0):
        got = scan_classes(np.zeros((0, 4), dtype=np.int64), S, 0, 83, 5, none, least)
        assert [(a.dtype, a.shape) for a in got] == [(np.int64, (0,))] * 2


def test_select_kernel_env():
    # one kernel is left; the seam still resolves it by name
    assert select_kernel() == ("numpy", scan_classes)
    assert select_kernel("numpy") == ("numpy", scan_classes)
    with pytest.raises(ValueError):
        select_kernel("numba")


def test_budget_guard():
    S = np.full((4, 11), 2**61, dtype=np.int64)
    with pytest.raises(OverflowError):
        assert_int64_budget(S, 11, 0, 5)
    assert_int64_budget(np.zeros((4, 11), np.int64), 11, 0, 5)


def test_empty_chunk(scan_inputs):
    _, tab, xs = scan_inputs
    out = scan(xs[:0], tab.scaled_sigma, tab.p, 0, 5)
    assert all(arr.shape == (0,) and arr.dtype == np.int64 for arr in out)


def _imported_modules(path):
    """Absolute names of the modules a source file imports."""
    mods = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            mods.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods.add(node.module)
        elif isinstance(node, ast.ImportFrom):  # relative: a module of the package
            base = "cgobstruct" + (f".{node.module}" if node.module else "")
            mods.update([base] if node.module else (f"{base}.{alias.name}" for alias in node.names))
    return mods


def test_numpy_stays_behind_kernels():
    # the int64 arrays live in one module, so importing numpy lazily is a
    # change to kernels alone; the linking form knows nothing of the scan
    imports = {path.name: _imported_modules(path) for path in Path(kernels.__file__).parent.glob("*.py")}
    assert len(imports) >= 10
    users = {name for name, mods in imports.items() if any(m.split(".")[0] == "numpy" for m in mods)}
    assert users == {"kernels.py"}
    assert "cgobstruct.kernels" not in imports["linking_form.py"]
    assert "cgobstruct.kernels" in imports["obstruction.py"]  # the scanner sees relative imports
