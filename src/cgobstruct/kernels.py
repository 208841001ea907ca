"""Scan kernels: the integer hot loop deciding the inequality at every class.

All comparisons are exact in int64.  The sigma tables are pre-scaled by
the prime p, so for a point x and multiplier k the checked inequality

    |sigma + sigma_K(-1)| > (4g+1) + eta

becomes   |S + p*s1| > p*((4g+1) + eta)   with S = sum of scaled entries.

Multipliers run over k = 1..(p-1)/2 only.  Every table row is symmetric
(S[j,a] = S[j,p-a], likewise E; `build_sigma_tables` asserts it), so k and
p-k give the same value, the first witnessing k never exceeds (p-1)/2 and
the maximum over the half range is the maximum over all k.  The same
symmetry makes each row of xs stand for its whole sign-flip class (see
`linking_form.enumerate_isotropic_classes`).

Two implementations produce identical outputs: a numba-compiled loop
(preferred; releases the GIL so thread pools scale) and a vectorized
numpy fallback.  Selection: the CG_OBSTRUCT_KERNEL environment variable
(``numba``, ``numpy`` or ``auto``), overridable per call.

Per row the kernel reports the first witnessing multiplier (0 when
none), the best value max_k(|S + p*s1| - p*eta) for margin statistics,
and the scaled sigma and eta at the witnessing multiplier.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(f):
            return f

        return deco


_MIN64 = -(2**62)


def scan_chunk_numpy(xs, S, E, p, s1, thr):
    """Vectorized reference kernel; see module docstring for the contract."""
    n, r = xs.shape
    ks = np.arange(1, (p + 1) // 2, dtype=np.int64)
    idx = (ks[None, :, None] * xs[:, None, :]) % p  # (n, (p-1)/2, r)
    rows = np.arange(r)
    sig = S[rows, idx].sum(axis=2)
    support = (idx != 0).sum(axis=2)
    eta = np.where(support > 0, support - 1, 0) + E[rows, idx].sum(axis=2)
    val = np.abs(sig + p * s1) - p * eta
    best = val.max(axis=1)
    hit = val > p * thr
    has = hit.any(axis=1)
    first = np.where(has, hit.argmax(axis=1) + 1, 0).astype(np.int64)
    at = np.maximum(first - 1, 0)
    pick = np.arange(n)
    sig_at = np.where(has, sig[pick, at], 0)
    eta_at = np.where(has, eta[pick, at], 0)
    return first, best, sig_at, eta_at


@njit(cache=True, nogil=True)
def _scan_chunk_numba(xs, S, E, p, s1, thr):  # pragma: no cover - jit body
    n, r = xs.shape
    first = np.zeros(n, dtype=np.int64)
    best = np.full(n, _MIN64, dtype=np.int64)
    sig_at = np.zeros(n, dtype=np.int64)
    eta_at = np.zeros(n, dtype=np.int64)
    for i in range(n):
        fk = 0
        bb = _MIN64
        sa = 0
        ea = 0
        for k in range(1, (p - 1) // 2 + 1):
            sig = 0
            support = 0
            ee = 0
            for j in range(r):
                a = (k * xs[i, j]) % p
                sig += S[j, a]
                ee += E[j, a]
                if a != 0:
                    support += 1
            eta = ee + (support - 1 if support > 0 else 0)
            v = abs(sig + p * s1) - p * eta
            if v > bb:
                bb = v
            if fk == 0 and v > p * thr:
                fk = k
                sa = sig
                ea = eta
        first[i] = fk
        best[i] = bb
        sig_at[i] = sa
        eta_at[i] = ea
    return first, best, sig_at, eta_at


def scan_chunk_numba(xs, S, E, p, s1, thr):
    if not HAVE_NUMBA:
        raise RuntimeError("numba is not installed; use the numpy kernel")
    return _scan_chunk_numba(xs, S, E, p, s1, thr)


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
            "prime or companion parameters are too large for the fast kernels"
        )


def select_kernel(name: str | None = None):
    """Resolve a kernel by name or the CG_OBSTRUCT_KERNEL environment variable.

    Returns (resolved_name, callable).  ``auto`` (default) prefers numba.
    """
    choice = (name or os.environ.get("CG_OBSTRUCT_KERNEL", "auto")).lower()
    if choice == "auto":
        choice = "numba" if HAVE_NUMBA else "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(
                "CG_OBSTRUCT_KERNEL=numba requested but numba is not importable"
            )
        return "numba", scan_chunk_numba
    if choice == "numpy":
        return "numpy", scan_chunk_numpy
    raise ValueError(f"unknown kernel {choice!r} (expected auto, numba or numpy)")
