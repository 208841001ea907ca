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

Scratch: no temporary exceeds CELLS int64 cells (64 KB), a size the
allocator reuses instead of mapping afresh.  Depth 1 runs over blocks of
CELLS rows, and settle over CELLS // depth rows (at least one), computing
k*x mod p for the rows of its batch only.  Beyond its two outputs the
scan keeps every row's eta and one index array: the classes depth 1
leaves unwitnessed, compacted in place into the seed.

Per row the kernel reports two facts: the first witnessing multiplier
(0 when none) and a lower bound on best that is exact for every row able
to set the minimum (so min(best) is exact).  Sigma and eta at a witness
are evaluated at the point, by `obstruction.verify_primary_part`.
"""

from __future__ import annotations

import numpy as np

BLOCK = 4
CELLS = 8192


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
