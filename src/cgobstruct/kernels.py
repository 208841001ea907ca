"""Scan kernel: the integer hot loop deciding the inequality at every class.

All comparisons are exact in int64.  The sigma tables are pre-scaled by
the prime p, so for a point x and multiplier k the checked inequality

    |sigma + sigma_K(-1)| > (4g+1) + eta

becomes   |S + p*s1| > p*((4g+1) + eta)   with S = sum_j S[j, k*x_j mod p].

Multipliers run over k = 1..(p-1)/2 only.  Every table row is symmetric
(S[j,a] = S[j,p-a]; `build_sigma_tables` asserts it), so k and p-k give
the same value, the first witnessing k never exceeds (p-1)/2 and the
maximum over the half range is the maximum over all k.  The same
symmetry makes each row of xs stand for its whole sign-flip class (see
`linking_form.enumerate_isotropic_classes`).

Eta invariant: the nullity of a character with support s is s - 1 plus
the per-piece eta_cable values, and eta_cable is zero for every valid
piece (gcd(p, 2q') = 1, so xi_p^a is never an Alexander root of
T(2,q')); `build_sigma_tables` raises ArithmeticError otherwise.  As p is
prime, k*x_j = 0 mod p only when x_j = 0, so the support of k*x is nnz(x)
for every k and eta = nnz(x) - 1 is one number per row.  The kernel is
exact only under this invariant.

Branch and bound: the certificate needs each class's first witnessing
multiplier and the margin min_x best(x), best(x) = max_k (|S + p*s1| -
p*eta), not every best(x).  Stage 1 evaluates k = 1..BLOCK for every
class, column by column from k = BLOCK down: a witness found there is
the first one, and the block maximum is a lower bound L(x) <= best(x).
Stage 2 scans all (p-1)/2 multipliers.  It seeds the bound U, the
smallest exact best so far, with every class without a stage-1 witness
and the witnessed class of smallest L.  Only witnessed classes with
L < U can still set the margin: they are selected by one mask, ordered
by L and scanned while L < U, in batches doubling from one class so U
tightens before large batches; every class left has best >= L >= U.
Stage 1 reads the columns of xs (contiguous in the column-major class
array) through the composed table B[j, a, k-1] = S[j, k*a mod p],
k <= BLOCK (`compose_block`, 40 KB at p = 307): one gather per piece and
class.  Stage 2 computes k*x mod p for the rows of its batch only.

Scratch: no temporary exceeds CELLS int64 cells (64 KB), a size the
allocator reuses instead of mapping afresh.  Stage 1 runs over blocks of
CELLS // BLOCK rows, stage 2 over at most CELLS // ((p-1)/2) rows (at
least one); beyond its outputs the scan keeps only stage 2's indices.

Per row the kernel reports the first witnessing multiplier (0 when
none), a lower bound on best that is exact for every row able to set the
minimum (so min(best) is exact), and the scaled sigma and eta at the
witnessing multiplier (0 when none).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

BLOCK = 4
CELLS = 8192


def compose_block(S: np.ndarray, p: int) -> np.ndarray:
    """Stage 1's (r, p, min(BLOCK, (p-1)/2)) table B[j, a, k-1] = S[j, k*a mod p]."""
    return S.take(np.arange(p)[:, None] * np.arange(1, min(BLOCK, (p - 1) // 2) + 1) % p, axis=1)


def scan_classes(xs, S, s1, p, thr):
    """Branch-and-bound scan; see the module docstring for the contract.

    xs is an (n, r) int64 array (any layout) of nonzero rows reduced into
    [0, p) and S the (r, p) scaled sigma table.  Returns (first, best,
    sig_at, eta_at), each an int64 array of length n.
    """
    n, r = xs.shape
    ks = np.arange(1, (p + 1) // 2, dtype=np.int64)
    B = compose_block(S, p)
    first, best, sig_at, eta_at = np.empty((4, n), dtype=np.int64)

    def settle(rows, look):
        """(first, max, sig at first) over the k columns look(j, xs[rows, j]) gives."""
        xb = xs[rows]
        val = look(0, xb[:, 0]) + p * s1
        for j in range(1, r):
            val += look(j, xb[:, j])
        mag, lim = np.abs(val), p * (thr + eta_at[rows])
        if mag.shape[1] <= BLOCK:  # numpy's row reductions are slow on short rows
            first = sig = np.zeros(len(xb), dtype=np.int64)
            for k in range(mag.shape[1], 0, -1):
                hit = mag[:, k - 1] > lim
                first, sig = np.where(hit, k, first), np.where(hit, val[:, k - 1], sig)
            return first, reduce(np.maximum, mag.T) - p * eta_at[rows], sig - p * s1
        hit = mag > lim[:, None]
        at, pick = hit.argmax(axis=1), np.arange(len(xb))
        first = np.where(hit[pick, at], at + 1, 0)
        return first, mag.max(axis=1) - p * eta_at[rows], val[pick, at] - p * s1

    def full(rows):
        """Scan rows at every multiplier; the smallest exact best among them."""
        first[rows], best[rows], sig_at[rows] = settle(
            rows, lambda j, c: S[j].take(np.multiply.outer(c, ks) % p)
        )
        return int(best[rows].min())

    step, low, arg = max(1, CELLS // BLOCK), np.iinfo(np.int64).max, None
    for i in range(0, n, step):  # stage 1 in row blocks; eta_at holds every eta until the end
        blk = slice(i, i + step)
        eta_at[blk] = np.count_nonzero(xs[blk], axis=1) - 1
        first[blk], best[blk], sig_at[blk] = settle(blk, lambda j, c: B[j].take(c, axis=0))
        lows = np.where(first[blk] > 0, best[blk], low)
        m = int(lows.argmin())
        if lows[m] < low:  # the witnessed class of smallest L so far
            low, arg = lows[m], i + m
    seed, bound, step = np.flatnonzero(first == 0), np.iinfo(np.int64).max, max(1, CELLS // len(ks))
    if arg is not None:
        seed = np.append(seed, arg)
    for i in range(0, len(seed), step):
        bound = min(bound, full(seed[i : i + step]))
    rest = np.flatnonzero((first > 0) & (best < bound))  # the seeded minimum now has best >= bound
    rest = rest[np.argsort(best[rest], kind="stable")]
    key, pos, size = best[rest], 0, 1
    while pos < len(rest) and key[pos] < bound:
        rows = rest[pos : min(pos + size, int(np.searchsorted(key, bound)))]
        bound = min(bound, full(rows))
        pos, size = pos + len(rows), min(2 * size, step)
    none = first == 0
    sig_at[none] = eta_at[none] = 0
    return first, best, sig_at, eta_at


def assert_int64_budget(S: np.ndarray, E: np.ndarray, p: int, s1: int, thr: int) -> None:
    """Guarantee no intermediate of the scan can overflow int64."""
    r = S.shape[0]
    peak = (
        r * int(np.abs(S).max(initial=0))
        + p * abs(s1)
        + p * (thr + r + r * int(E.max(initial=0)))
    )
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
