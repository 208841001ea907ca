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
(denominators always divide the product of support primes); the int64
tables of the scan, p times these values, are built in `kernels`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .knots import GAKnot, Piece
from .signatures import RootOfUnity, lt_nullity, lt_signature


class Character(NamedTuple):
    """One residue per piece: residues[j] = a_j mod cable prime p_j."""

    residues: tuple[int, ...]

    @staticmethod
    def for_knot(K: GAKnot, residues) -> "Character":
        chi = Character(tuple(int(r) for r in residues))
        _check_character(K, chi)
        return chi


def sigma_cable(qc: int, p: int, a: int) -> Fraction:
    """sigma of the (2,p)-cable of T(2,qc) at residue a mod p.

    qc = 1 (unknot companion) gives the torus knot T(2,p),
    -p + 2a(p-a)/p: the correction term 2*sigma_{T(2,1)} vanishes
    identically.
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
