"""The int64 arrays of the genus check: sigma table rows, sign-flip
classes and the branch-and-bound scan over them.

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
  scan reads one representative per sign-flip class
  (`enumerate_isotropic_classes`), weighed by its orbit size.
- Eta: the nullity of a character with support s is s - 1 plus the
  per-piece eta_cable values, and eta_cable is zero for every valid
  piece (gcd(p, 2q') = 1, so xi_p^a is never an Alexander root of
  T(2,q')); `build_sigma_tables` raises ArithmeticError otherwise.  As p
  is prime, k*x_j = 0 mod p only when x_j = 0, so the support of k*x is
  nnz(x) for every k and eta = nnz(x) - 1 is one number per row.
- Scratch: no temporary of the scan or of the class enumeration exceeds
  CELLS int64 cells (64 KB), a size the allocator reuses instead of
  mapping afresh.

Only the table rows are memoised: per (q', p), for the life of the
process and read-only (`_cable_rows`; `cache_clear()` frees them), so no
caller can change what a later one reads.  A class array lives as long
as the scan of its part.

Branch and bound: the certificate needs each class's first witnessing
multiplier and the margin min_x best(x), best(x) = max_k (|S + p*s1| -
p*eta), not every best(x).  Every running maximum over k = 1..d is a
lower bound L(x) <= best(x), and the scan takes a class only as deep as
it must, always visiting multipliers in increasing order, so a witness
it finds is the first one.  One helper, settle(rows, depth), evaluates
rows at k = 1..depth and writes their first and best; past depth 1
every step is one settle:

- depth 1 evaluates k = 1 for every class, one 1-D gather S[j, x_j] per
  piece, written out with `out=` buffers, and L is the k = 1 value.
  Most classes are witnessed here;
- depth BLOCK settles the classes depth 1 left unwitnessed to BLOCK;
- the seed, every class still unwitnessed and the witnessed class of
  smallest L, is settled to (p-1)/2.  The smallest exact best among it
  is the bound U >= the margin;
- the rest, the witnessed classes with L < U, the only ones that could
  still set the margin, is settled to BLOCK, and the part of it still
  below U to (p-1)/2.

The result is exact: first is the first witness, and every class not
settled to (p-1)/2 keeps an L >= U >= the minimum, so min(best) is the
margin whatever depth each class reached.

In the scan, depth 1 runs over blocks of CELLS rows, and settle over
CELLS // depth rows (at least one), computing k*x mod p for the rows of
its batch only.  Beyond its two outputs the scan keeps every row's eta
and one index array: the classes depth 1 leaves unwitnessed, compacted
in place into the seed.

Per row the kernel reports two facts: the first witnessing multiplier
(0 when none) and a lower bound on best that is exact for every row able
to set the minimum (so min(best) is exact).  Sigma and eta at a witness
are evaluated at the point, by `obstruction.verify_primary_part`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .knots import GAKnot, Piece
from .linking_form import PrimaryPart, sqrt_table

BLOCK = 4
CELLS = 8192


class SigmaTable(NamedTuple):
    """The table of one prime: scaled_sigma[i] is the row S of piece
    piece_indices[i] and eta_arr[i] its eta_cable row, both int64."""

    p: int
    piece_indices: tuple[int, ...]
    scaled_sigma: np.ndarray
    eta_arr: np.ndarray


def build_sigma_tables(K: GAKnot, p: int) -> SigmaTable:
    """Tabulate p * sign * sigma_cable and eta_cable over all residues mod p.

    The per-piece rows come from the memo of `_cable_rows`, so knots that
    share a (q', p) share its read-only rows; the symmetry and eta checks
    still run on every table.
    """
    idx = tuple(j for j, pc in enumerate(K.pieces) if pc.cable_p == p)
    if not idx:
        raise ValueError(f"{p} is not a cable prime of the knot")
    rows = [_cable_rows(K.pieces[j].companion_q, p) for j in idx]
    signs = np.array([[K.pieces[j].sign] for j in idx], dtype=np.int64)
    scaled = signs * np.array([sig for sig, _ in rows])
    etas = np.array([eta for _, eta in rows])
    if etas.any():
        raise ArithmeticError(f"nonzero eta_cable at p={p}: the scan kernel assumes it vanishes")
    if not np.array_equal(scaled[:, 1:], scaled[:, :0:-1]):
        raise ArithmeticError(f"table row at p={p} is not symmetric under a -> p-a")
    return SigmaTable(p, idx, scaled, etas)


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


def enumerate_isotropic_classes(part: PrimaryPart) -> tuple[np.ndarray, np.ndarray]:
    """Sign-flip classes of projective isotropic vectors, as (xs, sizes).

    Negating any coordinate keeps a vector isotropic, and negating the
    leading 1 is the same projective point as negating all the others, so
    the class of a normalized vector is every sign pattern on its nonzero
    non-leading coordinates: orbit size 2^(that count).  The
    representative is the lexicographically smallest member: non-leading
    coordinates in [0, (p-1)/2], the last one the `sqrt_table` root.

    xs is an (n, rank) int64 array of representatives in ascending
    lexicographic order (per leading position, a C-order grid of the free
    coordinates over [0, (p-1)/2], Q an outer sum of their squares, the
    last one solved from it) and sizes their int64 orbit sizes, which sum
    to the length of `linking_form.enumerate_projective_isotropic(part)`.
    Each grid is built in slabs along its first axis, at most CELLS cells
    or one row of it.  xs is column-major, built as (rank, n), so each
    xs[:, j] is contiguous.
    """
    p, signs, r = part.p, part.signs, part.rank
    if r < 2:
        return np.zeros((0, r), dtype=np.int64), np.zeros(0, dtype=np.int64)
    roots = np.array(sqrt_table(p), dtype=np.int64)
    neg_inv = -pow(signs[-1] % p, p - 2, p)
    sq, blocks = np.arange((p + 1) // 2, dtype=np.int64) ** 2 % p, []
    for lead in range(r - 2, -1, -1):
        # the last coordinate is a root of t = -Q(the others)/eps_last mod p, over the grid
        # of coordinates lead+1..r-2 (or of lead alone, set to 1, when that is empty)
        rows = [neg_inv * e * sq % p for e in signs[lead + 1 : r - 1]] or [np.zeros(1, np.int64)]
        inner = reduce(lambda a, b: np.add.outer(a, b) % p, rows[1:], np.zeros((), dtype=np.int64))
        head, step = rows[0] + neg_inv * signs[lead] % p, max(1, CELLS // inner.size)
        for v in range(0, len(head), step):
            t = np.add.outer(head[v : v + step], inner)
            t %= p
            root = roots[t].ravel()
            keep = np.flatnonzero(root >= 0)
            x = np.zeros((r, len(keep)), dtype=np.int64)
            x[r - 1 - t.ndim : r - 1] = np.unravel_index(keep, t.shape)
            x[r - 1 - t.ndim] += v
            x[lead] = 1
            x[r - 1] = root[keep]
            blocks.append(x)
    cols = np.concatenate(blocks, axis=1)
    del blocks  # release the slabs before the orbit sizes are built
    return cols.T, 1 << (np.count_nonzero(cols, axis=0) - 1)


def scan_classes(xs, S, s1, p, thr):
    """Branch-and-bound scan; see the module docstring for the contract.

    xs is an (n, r) int64 array (any layout) of nonzero rows reduced into
    [0, p) and S the (r, p) scaled sigma table.  Returns (first, best),
    each an int64 array of length n.
    """
    n, r = xs.shape
    ks = np.arange(1, (p + 1) // 2, dtype=np.int64)
    top = np.iinfo(np.int64).max
    first, best = np.empty((2, n), dtype=np.int64)
    etas = np.empty(n, dtype=np.int64)

    def settle(rows, depth):
        """Evaluate rows at k = 1..depth; write their first and best."""
        k = ks[:depth, None]  # arrays below are (depth, rows): one multiplier per row
        step = max(1, CELLS // len(k))
        for i in range(0, len(rows), step):
            at = rows[i : i + step]
            val = S[0].take(xs[at, 0] * k % p) + p * s1
            for j in range(1, r):
                val += S[j].take(xs[at, j] * k % p)
            np.abs(val, out=val)
            eta = etas[at]
            hit = val > p * (thr + eta)
            col = hit.argmax(axis=0)
            first[at] = np.where(hit[col, np.arange(len(at))], col + 1, 0)
            best[at] = val.max(axis=0) - p * eta

    for i in range(0, n, CELLS):  # depth 1
        # settle's 2-D buffers cost more than this one column needs, so it is written out
        blk = slice(i, i + CELLS)
        eta, val = etas[blk], best[blk]
        np.subtract(np.count_nonzero(xs[blk], axis=1), 1, out=eta)
        S[0].take(xs[blk, 0], out=val)
        for j in range(1, r):
            val += S[j].take(xs[blk, j])
        val += p * s1
        np.abs(val, out=val)
        val -= p * eta
        first[blk] = val > p * thr  # |S + p*s1| > p*(thr + eta)
    miss, kept = np.flatnonzero(first == 0), 0
    for i in range(0, len(miss), CELLS):  # depth BLOCK for the classes k = 1 leaves unwitnessed
        rows = miss[i : i + CELLS]
        settle(rows, BLOCK)
        rows = rows[first[rows] == 0]
        miss[kept : kept + len(rows)] = rows  # compacted in place into the seed
        kept += len(rows)
    seed = miss[:kept]
    best[seed] = top  # overwritten by the full scan; argmin now sees witnessed classes only
    if kept < n:  # seed the witnessed class of smallest bound too
        seed = np.append(seed, best.argmin())
    settle(seed, len(ks))
    bound = best[seed].min(initial=top)
    rest = np.flatnonzero((first > 0) & (best < bound))  # the only classes that could set the margin
    settle(rest, BLOCK)
    settle(rest[best[rest] < bound], len(ks))
    return first, best


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
