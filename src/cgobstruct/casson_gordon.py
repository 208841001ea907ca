"""Casson-Gordon sigma invariants and nullities, in exact rational arithmetic.

For the (2,p)-cable of T(2,q') and the character picking out residue a
mod p on the cover's p-summand:

    sigma = -p + 2a(p-a)/p + 2 * sigma_{T(2,q')}(xi_p^a)      (a != 0)
    eta   = 2 * nullity_{T(2,q')}(xi_p^a)

with both zero at a = 0.  Values add over connected sums; mirrors negate
sigma and preserve eta; a character with support of size s contributes an
extra s-1 to the nullity of the sum.  The companion's signature is
Litherland's lattice count (`signatures.lt_signature`), and nothing here
uses floating point.  Exact rationals are Python Fractions throughout
(denominators always divide the product of support primes); the
scaled-integer tables consumed by the scan kernel clear the denominator
by the prime p, so they are exact int64 values, built one integer numpy
row per piece from the same lattice count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .knots import GAKnot, Piece
from .primes import is_odd_prime
from .signatures import RootOfUnity, lt_nullity, lt_signature

class Character(NamedTuple):
    """One residue per piece: residues[j] = a_j mod cable prime p_j."""

    residues: tuple[int, ...]

    @staticmethod
    def for_knot(K: GAKnot, residues) -> "Character":
        chi = Character(tuple(int(r) for r in residues))
        _check_character(K, chi)
        return chi

    def negated(self, K: GAKnot) -> "Character":
        return Character(
            tuple((-r) % pc.cable_p for r, pc in zip(self.residues, K.pieces))
        )


def sigma_torus(q: int, a: int) -> Fraction:
    """sigma(T(2,q), chi_a) = -q + 2a(q-a)/q, and 0 at a = 0."""
    if not is_odd_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if not 0 <= a < q:
        raise ValueError(f"residue {a} out of range mod {q}")
    if a == 0:
        return Fraction(0)
    return -q + Fraction(2 * a * (q - a), q)


def sigma_cable(qc: int, p: int, a: int) -> Fraction:
    """sigma of the (2,p)-cable of T(2,qc) at residue a mod p.

    qc = 1 (unknot companion) reduces to sigma_torus(p, a): the correction
    term 2*sigma_{T(2,1)} vanishes identically.
    """
    _check_cable(qc, p, a)
    if a == 0:
        return Fraction(0)
    return -p + Fraction(2 * a * (p - a), p) + 2 * lt_signature(qc, RootOfUnity(a, p))


def _check_cable(qc: int, p: int, a: int = 0) -> None:
    Piece(qc, p, 1)  # raises ValueError unless (qc, p) is a valid cable piece
    if not 0 <= a < p:
        raise ValueError(f"residue {a} out of range mod {p}")


def eta_cable(qc: int, p: int, a: int) -> int:
    """Nullity contribution of one cable piece: 2 * nullity at xi_p^a.

    Zero for every a when gcd(p, 2*qc) = 1, which holds for all valid
    pieces; kept explicit so the additivity bookkeeping stays honest.
    """
    _check_cable(qc, p, a)
    if a == 0:
        return 0
    return 2 * lt_nullity(qc, RootOfUnity(a, p))


def sigma_knot(K: GAKnot, chi: Character) -> Fraction:
    """Additive sigma of the connected sum; mirrors contribute negated."""
    _check_character(K, chi)
    total = Fraction(0)
    for pc, a in zip(K.pieces, chi.residues):
        if a:
            total += pc.sign * sigma_cable(pc.companion_q, pc.cable_p, a)
    return total


def eta_knot(K: GAKnot, chi: Character) -> int:
    """Nullity of the sum: (support size - 1) plus per-piece contributions.

    Zero for the trivial character.
    """
    _check_character(K, chi)
    support = sum(1 for a in chi.residues if a)
    if support == 0:
        return 0
    extra = sum(
        eta_cable(pc.companion_q, pc.cable_p, a)
        for pc, a in zip(K.pieces, chi.residues)
        if a
    )
    return (support - 1) + extra


def _check_character(K: GAKnot, chi: Character) -> None:
    if len(chi.residues) != len(K.pieces):
        raise ValueError(
            f"character length {len(chi.residues)} does not match piece count {len(K.pieces)}"
        )
    for j, (a, pc) in enumerate(zip(chi.residues, K.pieces)):
        if not 0 <= a < pc.cable_p:
            raise ValueError(f"residue {a} at piece {j} not reduced mod {pc.cable_p}")


class SigmaTable(NamedTuple):
    """Per-prime lookup tables for the scan kernels.

    For each piece j with cable prime p (in piece order):
      scaled_sigma     int64 array, [i, a] = p * sign * sigma_cable  (exact)
      eta_arr          int64 array of eta_cable
    The scan depends on the conjugation symmetry entry[a] = entry[p-a] for
    exactness: it lets the kernel stop at multiplier (p-1)/2 and read one
    representative per sign-flip class of isotropic vectors.  The kernel
    also takes eta of a character to be (support size - 1), which needs
    every eta entry to be zero.  `build_sigma_tables` asserts both; row
    index i follows piece_indices.
    """

    p: int
    piece_indices: tuple[int, ...]
    scaled_sigma: np.ndarray
    eta_arr: np.ndarray


def build_sigma_tables(K: GAKnot, p: int) -> SigmaTable:
    """Tabulate sign * sigma_cable and eta_cable over all residues mod p.

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

    Memoised for the life of the process, so the arrays are read-only:
    no caller can change what a later one reads.

    sigma_{T(2,qc)}(xi_p^a) is the lattice count of
    `signatures.torus_signature_at_angle` at angle 2a/p,
    2*floor(qc*|p-2a| / (2p)) - (qc-1), with no zero mode because p does
    not divide qc*|p-2a|.  eta is the arithmetic Alexander-root condition
    of `signatures.lt_nullity` on the order of xi_p^a.
    """
    _check_cable(qc, p)
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
