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

Row gather: `compose_multipliers` builds, once per prime, the table
T[j, a, k-1] = S[j, k*a mod p] of shape (r, p, (p-1)/2).  The scaled
sigma of x at every multiplier is then sum_j T[j, x_j, :], r contiguous
row gathers with no reduction mod p per point.

Eta invariant: the nullity of a character with support s is s - 1 plus
the per-piece eta_cable values, and eta_cable is zero for every valid
piece (gcd(p, 2q') = 1, so xi_p^a is never an Alexander root of
T(2,q')); `build_sigma_tables` raises ArithmeticError otherwise.  As p is
prime, k*x_j = 0 mod p only when x_j = 0, so the support of k*x is nnz(x)
for every k and eta = nnz(x) - 1 is one number per row.  The kernel is
exact only under this invariant.

Per row the kernel reports the first witnessing multiplier (0 when
none), the best value max_k(|S + p*s1| - p*eta) for margin statistics,
and the scaled sigma and eta at the witnessing multiplier (0 when none).
"""

from __future__ import annotations

import numpy as np


def compose_multipliers(S: np.ndarray, p: int) -> np.ndarray:
    """T[j, a, k-1] = S[j, k*a mod p] for k = 1..(p-1)/2, C-contiguous int64."""
    ks = np.arange(1, (p + 1) // 2, dtype=np.int64)
    return np.ascontiguousarray(S[:, np.arange(p, dtype=np.int64)[:, None] * ks % p])


def scan_chunk(xs, T, s1, p, thr):
    """Row-gather kernel; see the module docstring for the contract.

    xs is an (n, r) int64 array of nonzero rows reduced into [0, p) and
    T is `compose_multipliers(S, p)`.  Returns (first, best, sig_at,
    eta_at), each an int64 array of length n.  Works in one (n, (p-1)/2)
    buffer: |S + p*s1| is compared with the per-row bound p*(thr + eta),
    and sig_at is gathered again at the first witnessing multiplier only.
    """
    n, r = xs.shape
    cols = xs.T
    val = T[0].take(cols[0], axis=0)
    for j in range(1, r):
        val += T[j].take(cols[j], axis=0)
    val += p * s1
    np.abs(val, out=val)
    eta = np.count_nonzero(xs, axis=1).astype(np.int64) - 1
    hit = val > (p * (thr + eta))[:, None]
    at = hit.argmax(axis=1)
    has = hit[np.arange(n), at]
    best = val.max(axis=1) - p * eta
    sig_at = sum(T[j, cols[j], at] for j in range(r))
    first = np.where(has, at + 1, 0).astype(np.int64)
    return first, best, np.where(has, sig_at, 0), np.where(has, eta, 0)


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
    `scan_chunk`, so `perfbench/child.py` can wrap it to trace each chunk.
    """
    if name not in (None, "numpy"):
        raise ValueError(f"unknown kernel {name!r} (the only kernel is numpy)")
    return "numpy", scan_chunk
