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
lower bound L(x) <= best(x), and the scan deepens a class only as far as
it must, always visiting multipliers in increasing order, so a witness
it finds is the first one.  It has three depths:

- depth 1 evaluates k = 1 for every class, one 1-D gather S[j, x_j] per
  piece.  Most classes are witnessed here, and L is the k = 1 value;
- depth BLOCK evaluates k = 1..BLOCK for the classes depth 1 left
  unwitnessed, as one (rows, BLOCK) array gathered through the composed
  table B[j, a, k-1] = S[j, k*a mod p] (`compose_block`, 40 KB at
  p = 307), and L becomes the block maximum;
- the full scan evaluates all (p-1)/2 multipliers, computing k*x mod p
  for the rows of its batch only.  It seeds the bound U, the smallest
  exact best so far, with every class still unwitnessed and the
  witnessed class of smallest L.  Only witnessed classes with L < U can
  still set the margin: they are selected by one mask, ordered by L and
  visited while L < U, in batches doubling from one class so U tightens
  before large batches.  A visited class witnessed at k = 1 is first
  deepened to BLOCK and scanned in full only if its deeper L is still
  below U.  Deepening runs CELLS // BLOCK classes ahead of the visits,
  so it costs one pass per block of classes, not one per batch.

The result is exact: first, sig_at and eta_at come from the first
witness, and every class not scanned in full keeps an L >= U >= the
minimum, so min(best) is the margin whatever depth each class reached.

Scratch: no temporary exceeds CELLS int64 cells (64 KB), a size the
allocator reuses instead of mapping afresh.  Depth 1 runs over blocks of
CELLS rows, depth BLOCK over CELLS // BLOCK rows, and the full scan over
at most CELLS // ((p-1)/2) rows (at least one).  Beyond its outputs the
scan keeps one index array: the classes depth 1 leaves unwitnessed,
compacted in place into the full scan's seed.

Per row the kernel reports the first witnessing multiplier (0 when
none), a lower bound on best that is exact for every row able to set the
minimum (so min(best) is exact), and the scaled sigma and eta at the
witnessing multiplier (0 when none).
"""

from __future__ import annotations

import numpy as np

BLOCK = 4
CELLS = 8192


def compose_block(S: np.ndarray, p: int) -> np.ndarray:
    """Depth BLOCK's (r, p, min(BLOCK, (p-1)/2)) table B[j, a, k-1] = S[j, k*a mod p]."""
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
    top = np.iinfo(np.int64).max
    first, best, sig_at, eta_at = np.empty((4, n), dtype=np.int64)

    def settle(rows, look):
        """(first, max, sig at first) over the k columns look(j, xs[rows, j]) gives."""
        xb = xs[rows]
        val = look(0, xb[:, 0]) + p * s1
        for j in range(1, r):
            val += look(j, xb[:, j])
        mag = np.abs(val)
        hit = mag > p * (thr + eta_at[rows])[:, None]
        at, pick = hit.argmax(axis=1), np.arange(len(xb))
        first = np.where(hit[pick, at], at + 1, 0)
        return first, mag.max(axis=1) - p * eta_at[rows], val[pick, at] - p * s1

    def deepen(rows):
        """Depth BLOCK: rows at k = 1..BLOCK through the composed table."""
        first[rows], best[rows], sig_at[rows] = settle(rows, lambda j, c: B[j].take(c, axis=0))

    def full(rows):
        """Scan rows at every multiplier; the smallest exact best among them."""
        first[rows], best[rows], sig_at[rows] = settle(
            rows, lambda j, c: S[j].take(np.multiply.outer(c, ks) % p)
        )
        return int(best[rows].min())

    lows = []  # (L, row) of the witnessed class of smallest L in each pass

    def note_low(rows, ids):
        """Keep the witnessed row of smallest L among rows; ids[m] is the m-th row's index."""
        low = np.where(first[rows] > 0, best[rows], top)
        m = int(low.argmin())
        lows.append((int(low[m]), int(ids[m])))

    for i in range(0, n, CELLS):  # depth 1; eta_at holds every eta until the end
        # settle's 2-D buffers cost more than this one column needs, so it is written out
        blk = slice(i, i + CELLS)
        eta, sig, val = eta_at[blk], sig_at[blk], best[blk]
        np.subtract(np.count_nonzero(xs[blk], axis=1), 1, out=eta)
        S[0].take(xs[blk, 0], out=sig)
        for j in range(1, r):
            sig += S[j].take(xs[blk, j])
        np.add(sig, p * s1, out=val)
        np.abs(val, out=val)
        val -= p * eta
        first[blk] = val > p * thr  # |S + p*s1| > p*(thr + eta)
        note_low(blk, range(n)[blk])
    miss, kept, step = np.flatnonzero(first == 0), 0, max(1, CELLS // BLOCK)
    for i in range(0, len(miss), step):  # depth BLOCK for the classes k = 1 leaves unwitnessed
        rows = miss[i : i + step]
        deepen(rows)
        note_low(rows, rows)
        rows = rows[first[rows] == 0]
        miss[kept : kept + len(rows)] = rows  # compacted in place into the seed
        kept += len(rows)
    low, arg = min(lows, default=(top, 0))
    seed = miss[:kept] if low == top else np.append(miss[:kept], arg)  # and the witnessed minimum
    bound, step = top, max(1, CELLS // len(ks))
    for i in range(0, len(seed), step):
        bound = min(bound, full(seed[i : i + step]))
    rest = np.flatnonzero((first > 0) & (best < bound))  # the seeded minimum now has best >= bound
    rest = rest[np.argsort(best[rest], kind="stable")]
    key, pos, size, deep = best[rest], 0, 1, 0
    while pos < len(rest) and key[pos] < bound:
        end = min(pos + size, int(np.searchsorted(key, bound)))
        while deep < end:  # deepen bounds from k = 1 alone to BLOCK, a block ahead
            ahead = rest[deep : deep + max(1, CELLS // BLOCK)]
            deepen(ahead[first[ahead] == 1])
            deep += len(ahead)
        rows = rest[pos:end]
        rows = rows[best[rows] < bound]  # scanned in full only if still below
        pos, size = end, min(2 * size, step)
        if len(rows):
            bound = min(bound, full(rows))
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
