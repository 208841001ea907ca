"""The int64 arrays of the genus check: sigma table rows, the sign-flip
classes scored at k = 1 and the branch-and-bound scan over them.

This is the only module that imports numpy.  The exact Fraction values
are in `casson_gordon`, the linking form and its point stream in
`linking_form`, and the tests check every array here against them.

The table of a prime p holds, per piece j cabled over p, the row
S[j, a] = p * sign * sigma_cable(q', p, a) for a = 0..p-1: exact int64
values, as p clears the denominator.  For a point x and multiplier k the
checked inequality

    |sigma + sigma_K(-1)| > (4g+1) + eta

becomes   |S + p*s1| > p*((4g+1) + eta)   with S = sum_j S[j, k*x_j mod p].

The arrays rest on three invariants, stated here only:

- Symmetry: every row has S[j, a] = S[j, p-a], and `build_sigma_tables`
  raises ArithmeticError otherwise.  So k and p-k give the same value:
  multipliers run over k = 1..(p-1)/2 only, the first witnessing k never
  exceeds (p-1)/2 and the maximum over the half range is the maximum over
  all k.  Negating any coordinate of x changes no value either, so the
  scan reads one representative per sign-flip class, weighed by its
  orbit size.  And every multiplier is an index shift: F_p* is cyclic
  (Lidl and Niederreiter, Finite Fields, ch. 2), so with g a primitive
  root and h = (p-1)/2, k*x_j = +-g^(log k + log x_j) with logs taken
  mod h, and a row read in log order, R[j, i] = S[j, g^(i mod h)], gives
  S[j, k*x_j] = R[j, log x_j + log k] with no product and no reduction.
- Eta: the nullity of a character with support s is s - 1 plus the
  per-piece eta_cable values, and eta_cable is zero for every valid
  piece (gcd(p, 2q') = 1, so xi_p^a is never an Alexander root of
  T(2,q')); `build_sigma_tables` raises ArithmeticError otherwise.  As p
  is prime, k*x_j = 0 mod p only when x_j = 0, so the support of k*x is
  nnz(x) for every k and eta = nnz(x) - 1 is one number per class.
- Scratch: over all classes the enumerator keeps two numbers (the point
  count and the smallest witnessed k = 1 bound); the row arrays are as
  long as the rows written out (the enumerator's coordinates and bounds,
  the scan's first, best and eta), the tables O(rank * p) (S, the tiled
  root table, the log-order rows) and the grid's inner arrays
  ((p+1)/2)^(rank-3) cells (1,764 at rank 5 and p = 83).  A slab is
  CELLS int64 cells (64 KB), or one grid row when a row is larger (74,088
  cells at rank 6 and p = 83), and no other temporary of the enumerator
  or the scan exceeds CELLS cells.  A grid of more than GRID_CELLS cells
  in all, ((p+1)/2 + 2) * ((p+1)/2)^(rank-3), is refused before any
  array is built (`assert_grid_budget`).

Only the table rows are memoised: per (q', p), for the life of the
process and read-only (`_cable_rows`; `cache_clear()` frees them), so no
caller can change what a later one reads.  Everything else lives as long
as the scan of its part.

Rung one on the grid: `enumerate_rung_one` scores every class at k = 1,
slab by slab, and writes out only the rows asked for (`RungOne`): the
seed, or the witnessed classes whose bound lies below a given least.  It
is the only k = 1 scorer and the only source of the scan's rows: the
scan takes their bounds.

Branch and bound: the certificate needs each class's first witnessing
multiplier and the margin min_x best(x), best(x) = max_k (|S + p*s1| -
p*eta), not every best(x).  Every running maximum over k = 1..d is a
lower bound L(x) <= best(x), and the scan takes a class only as deep as
it must, always visiting multipliers in increasing order up to BLOCK, so
a witness it finds is the first one.  `scan_classes` takes any rows with
their k = 1 bounds and least, the smallest exact best known so far (TOP
for none); on the verify path (`obstruction._settle`) it gets the seed.
Depth 1 is the bound: first is 1 where it exceeds p*thr, and L starts
at it.  One helper, settle(rows, depth), evaluates rows at k = 1..depth
and writes their first and best, and every deeper step is one settle:

- depth BLOCK settles the rows k = 1 leaves unwitnessed, one row of a
  (p, BLOCK) table per piece;
- the scan's own seed, every row still unwitnessed, is settled to
  (p-1)/2; only when it is empty and least is TOP, so that nothing bounds
  the margin, is the row of smallest L settled instead.  U is the smaller
  of least and the smallest exact best among the seed;
- the rest, the witnessed rows with L < U, the only ones that could
  still set the margin, is settled to BLOCK, and the part of it still
  below U to (p-1)/2.

A full-depth settle reads, per piece, the window R[j, log x_j : log x_j
+ h] of one strided view, so its columns come in log order and its first
witness is the smallest multiplier min(g^i, p - g^i) over the hits.  The
result is exact: first is the first witness, and every row not settled
to (p-1)/2 keeps an L >= U, so min(least, min(best)) = min(least, the
rows' margin) whatever depth each row reached.  settle runs over
CELLS // depth rows (at least one).  Sigma and eta at a witness are
evaluated at the point, by `obstruction._scan_part`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .knots import Piece
from .linking_form import PrimaryPart
from .primes import primitive_root

BLOCK = 4
CELLS = 8192
GRID_CELLS = 2**25  # memory follows the seed: at the cap a scan traced 8.9 MB at rank 4 (p = 11579), 293 MB at rank 6 (p = 149)
TOP = 2**63 - 1  # the largest int64


class SigmaTable(NamedTuple):
    """The table of one prime: scaled_sigma[i] is the int64 row S of
    piece piece_indices[i]."""

    p: int
    piece_indices: tuple[int, ...]
    scaled_sigma: np.ndarray


def build_sigma_tables(part: PrimaryPart) -> SigmaTable:
    """Tabulate p * sign * sigma_cable over all residues mod p.

    Row i is part.pieces[i]'s, read from the part alone.  The per-piece
    rows come from the memo of `_cable_rows`, so parts that share a
    (q', p) share its read-only rows; the symmetry check and the check
    that every eta_cable row vanishes still run on every table.
    """
    p = part.p
    rows = [_cable_rows(pc.companion_q, p) for pc in part.pieces]
    if any(eta.any() for _, eta in rows):
        raise ArithmeticError(f"nonzero eta_cable at p={p}: the scan kernel assumes it vanishes")
    signs = np.array([[s] for s in part.signs], dtype=np.int64)
    scaled = signs * np.array([sig for sig, _ in rows])
    if not np.array_equal(scaled[:, 1:], scaled[:, :0:-1]):
        raise ArithmeticError(f"table row at p={p} is not symmetric under a -> p-a")
    return SigmaTable(p, part.piece_indices, scaled)


@lru_cache(maxsize=None)
def _cable_rows(qc: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """p * sigma_cable(qc, p, a) and eta_cable(qc, p, a) for a = 0..p-1, int64.

    sigma_{T(2,qc)}(xi_p^a) is the lattice count of
    `signatures.torus_signature_at_angle` at angle 2a/p,
    2*floor(qc*|p-2a| / (2p)) - (qc-1), with no zero mode because p does
    not divide qc*|p-2a|.  eta is the arithmetic Alexander-root condition
    of `signatures.lt_nullity` on the order of xi_p^a.
    """
    Piece(qc, p, 1)  # raises ValueError unless (qc, p) is a valid cable piece
    bound = p * p + 2 * p * qc  # bounds |sigma| and every intermediate below
    if bound > 2**62:
        raise OverflowError(f"scaled sigma bound {bound} exceeds the int64 budget")
    a = np.arange(p, dtype=np.int64)
    sig = 2 * a * (p - a) - p * p + 2 * p * (2 * (qc * np.abs(p - 2 * a) // (2 * p)) - (qc - 1))
    sig[0] = 0
    order = p // np.gcd(a, p)
    eta = (2 * ((2 * qc % order == 0) & (qc % order != 0) & (order != 2))).astype(np.int64)
    sig.flags.writeable = eta.flags.writeable = False
    return sig, eta


class _ClassGrid(NamedTuple):
    """The grid of `_class_grid`, which `enumerate_rung_one` walks slab by slab."""

    heads: tuple[np.ndarray, ...]  # x_0 (and x_1) of each row of the first axis
    head: np.ndarray  # t = -Q(x_0..x_{r-2})/eps_last = add.outer(head, inner)
    inner: np.ndarray
    invalid: np.ndarray  # cells of row (0, 0) whose first nonzero coordinate is not 1
    roots: np.ndarray  # the smallest square root of t mod p (-1 for none), tiled rank-1 times


class RungOne(NamedTuple):
    """The rows of a primary part's sign-flip classes that `enumerate_rung_one` writes out.

    Every class is scored at k = 1: its bound is |S + p*s1| - p*eta and its
    orbit size 2^eta.  The rows of the (n, rank) array xs are the
    coordinates of the classes written out, in class order, and bound their
    k = 1 bounds.  Over all classes only two numbers are kept:
    points, the sum of orbit sizes, and low, the smallest bound among the
    classes that k = 1 witnesses (bound > p*thr; TOP for none).
    """

    xs: np.ndarray
    bound: np.ndarray
    points: int
    low: int


def _grid_sum(rows, heads, const):
    """(head, inner): a per-coordinate quantity over the class grid is add.outer(head, inner).

    rows[j] is its row over [0, (p-1)/2] for coordinate j; the grid's first
    axis takes coordinate j at heads[j] for j < len(heads), its other axes
    run over the remaining rows, and const is added once.
    """
    head = sum(row.take(at) for row, at in zip(rows, heads)) + const
    return head, reduce(np.add.outer, rows[len(heads) :], np.zeros((), dtype=np.int64))


def _class_grid(part: PrimaryPart) -> _ClassGrid:
    """The grid of the classes' first rank-1 coordinates, whose first nonzero is 1.

    Its first axis runs over the leading pair (x_0, x_1): (0, 0), (0, 1),
    then (1, a) for a = 0..(p-1)/2 (x_0 = 1 alone at rank 2); its other
    axes over x_2..x_{r-2} in [0, (p-1)/2].  C order is lexicographic
    order.  In row (0, 0) only the cells whose first nonzero is 1 are
    classes.  Every row entry of t is in [0, p), so t < (rank-1)*p and the
    tiled root table needs no reduction mod p.
    """
    p, signs, r = part.p, part.signs, part.rank
    half = np.arange((p + 1) // 2, dtype=np.int64)
    sq = half * half % p
    if r > 2:
        x1 = np.arange(-2, len(half))
        heads = ((x1 >= 0).astype(np.int64), x1)
        x1[:2] = 0, 1
    else:
        heads = (half[1:2],)
    neg_inv = -pow(signs[-1] % p, p - 2, p)
    head, inner = _grid_sum([neg_inv * e % p * sq % p for e in signs[:-1]], heads, 0)
    valid = np.zeros((), dtype=bool)  # over x_2..: the first nonzero is 1
    for _ in range(r - 3):
        valid, suffix = np.zeros((len(half),) + valid.shape, dtype=bool), valid
        valid[0], valid[1] = suffix, True
    roots = np.full((r - 1, p), -1, dtype=np.int64)
    roots[:, sq] = half  # the `sqrt_table` root: the squares of 0..(p-1)/2 are distinct
    return _ClassGrid(heads, head, inner, ~valid, roots.ravel())


def enumerate_rung_one(part: PrimaryPart, S: np.ndarray, s1: int, thr: int, least: Optional[int] = None) -> RungOne:
    """Sign-flip classes of projective isotropic vectors, scored at k = 1.

    Negating any coordinate keeps a vector isotropic, and negating the
    leading 1 is the same projective point as negating all the others, so
    the class of a normalized vector is every sign pattern on its nonzero
    non-leading coordinates: orbit size 2^(that count) = 2^eta.  The
    representative is the lexicographically smallest member: non-leading
    coordinates in [0, (p-1)/2], the last one the `sqrt_table` root.

    Classes come in ascending lexicographic order, slab by slab from the
    grid of `_class_grid`.  In a slab, t = -Q/eps_last, the k = 1 value and
    eta are outer sums of one row per coordinate; the last coordinate's S
    entry is read at t.  Only the rows asked for are written out: by
    default the seed, the classes k = 1 leaves unwitnessed (bound <=
    p*thr); given least, the witnessed classes whose bound lies below it.
    """
    p, r = part.p, part.rank
    none = np.zeros(0, dtype=np.int64)
    if r < 2:
        return RungOne(np.zeros((0, r), dtype=np.int64), none, 0, TOP)
    grid = _class_grid(part)
    last = S[r - 1].take(grid.roots)  # garbage at non-residues, which are dropped
    nz = np.minimum(np.arange((p + 1) // 2, dtype=np.int64), 1)
    head_s, inner_s = _grid_sum([S[j, : len(nz)] for j in range(r - 1)], grid.heads, p * s1)
    head_e, inner_e = _grid_sum([nz] * (r - 1), grid.heads, -1)
    step = max(1, CELLS // grid.inner.size)
    xs, bounds, points, low = [np.zeros((r, 0), dtype=np.int64)], [none], 0, TOP
    for lo in range(0, len(grid.head), step):
        t = np.add.outer(grid.head[lo : lo + step], grid.inner)
        root = grid.roots.take(t)  # -1 off the classes
        if lo == 0 and len(grid.heads) > 1:
            np.copyto(root[:1], -1, where=grid.invalid)
        keep = (root >= 0).ravel().nonzero()[0]
        val = np.add.outer(head_s[lo : lo + step], inner_s)
        val += last.take(t)
        np.abs(val, out=val)
        eta = np.add.outer(head_e[lo : lo + step], inner_e)
        eta += root > 0
        val -= p * eta
        bound = val.take(keep)
        points += int((1 << eta.take(keep)).sum())
        hit = bound > p * thr
        low = min(low, int(bound[hit].min(initial=TOP)))
        out = (~hit if least is None else hit & (bound < least)).nonzero()[0]
        if len(out):
            cells = keep.take(out)
            at = np.unravel_index(cells, t.shape)
            xs.append(np.array([h.take(at[0] + lo) for h in grid.heads] + list(at[1:]) + [root.take(cells)]))
            bounds.append(bound.take(out))
    return RungOne(np.concatenate(xs, axis=1).T, np.concatenate(bounds), points, low)


def scan_classes(xs, S, s1, p, thr, bound, least):
    """Branch-and-bound scan; see the module docstring for the contract.

    xs is an (n, r) int64 array (any layout) of nonzero rows reduced into
    [0, p), S the (r, p) scaled sigma table, bound the rows' k = 1 bounds
    (`RungOne.bound`) and least the smallest exact best known (TOP for
    none).  Returns (first, best), int64 arrays of length n; with no rows
    they come back at once, before any table is built.
    """
    n, r = xs.shape
    h = (p - 1) // 2
    first = (bound > p * thr).astype(np.int64)
    best = np.array(bound, dtype=np.int64)  # L at depth 1, a copy: settle writes it
    if not n:
        return first, best
    etas = np.count_nonzero(xs, axis=1) - 1
    # the rows in log order (module docstring), then h entries S[j, 0] for x_j = 0 (log 0 = 2h)
    g = primitive_root(p)
    pw = np.array(list(accumulate(range(h - 1), lambda a, _: a * g % p, initial=1)), dtype=np.int64)
    log = np.empty(p, dtype=np.int64)
    log[pw] = log[p - pw] = np.arange(h)
    log[0] = 2 * h
    R = S[:, np.concatenate((pw, pw, np.zeros(h, dtype=np.int64)))]
    # windows[j, a] = R[j, a : a + h]: every multiplier of a coordinate with log a
    windows = np.ndarray((r, 2 * h + 1, h), R.dtype, R, strides=(R.strides[0], R.strides[1], R.strides[1]))
    mults = np.minimum(pw, p - pw)  # the multiplier in 1..h of each log
    ks = np.arange(1, min(BLOCK, h) + 1)
    block = R[:, log[:, None] + log.take(ks)]  # block[j, a, k-1] = S[j, k*a mod p] for k <= BLOCK

    def settle(rows, depth):
        """Evaluate rows at k = 1..depth (BLOCK or h); write their first and best."""
        if not len(rows):
            return
        full = depth >= h
        cols = mults if full else ks  # the multiplier of each column
        step = max(1, CELLS // len(cols))
        for i in range(0, len(rows), step):
            at = rows[i : i + step]
            if full:
                lx = log.take(xs[at])
                val = windows[0][lx[:, 0]]
                for j in range(1, r):
                    val += windows[j][lx[:, j]]
            else:
                val = block[0].take(xs[at, 0], axis=0)
                for j in range(1, r):
                    val += block[j].take(xs[at, j], axis=0)
            val += p * s1
            np.abs(val, out=val)
            eta = etas[at]
            hit = val > (p * (thr + eta))[:, None]
            first[at] = np.where(hit, cols, h + 1).min(axis=1) % (h + 1)  # no hit: h + 1 -> 0
            best[at] = val.max(axis=1) - p * eta

    miss = np.flatnonzero(first == 0)
    settle(miss, BLOCK)  # depth BLOCK for the rows k = 1 leaves unwitnessed
    seed = miss[first[miss] == 0]
    if not len(seed) and least == TOP:  # nothing bounds the margin: the row of smallest L does
        seed = best.argmin(keepdims=True)
    settle(seed, h)
    upper = min(least, best[seed].min(initial=TOP))
    rest = np.flatnonzero((first > 0) & (best < upper))  # the only rows that could set the margin
    settle(rest, BLOCK)
    settle(rest[best[rest] < upper], h)
    return first, best


def assert_grid_budget(part: PrimaryPart) -> None:
    """Refuse a part whose class grid has more than GRID_CELLS cells."""
    half, r = (part.p + 1) // 2, part.rank
    cells = (half + 2) * half ** (r - 3) if r > 2 else 1
    if cells > GRID_CELLS:
        raise ValueError(f"the class grid at p={part.p}, rank {r} has {cells} cells, over the cap of {GRID_CELLS}")


def assert_int64_budget(S: np.ndarray, p: int, s1: int, thr: int) -> None:
    """Guarantee no intermediate of the scan can overflow int64."""
    r = S.shape[0]
    peak = r * int(np.abs(S).max(initial=0)) + p * abs(s1) + p * (thr + r)  # eta < r
    if peak >= 2**62:
        raise OverflowError(
            f"scan values may exceed the int64 budget (peak estimate {peak}); "
            "prime or companion parameters are too large for the scan kernel"
        )


def select_kernel(name: str | None = None):
    """The scan kernel as (name, callable); "numpy" is the only one.

    `verify_primary_part` looks the kernel up here instead of importing
    `scan_classes`, so `perfbench/child.py` can wrap it to trace each call.
    """
    if name not in (None, "numpy"):
        raise ValueError(f"unknown kernel {name!r} (the only kernel is numpy)")
    return "numpy", scan_classes
