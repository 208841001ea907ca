"""Levine-Tristram signatures and nullities of T(2,q) and of cabled sums.

The twisted form at w is H(w) = (1-w)V + (1-conj(w))V^T for the standard
bidiagonal Seifert matrix V of T(2,q).  Its eigenvalues along the unit
circle factor explicitly, so the signature at w = exp(i*pi*x) is a count
of lattice points (Litherland, "Signatures of iterated torus knots",
1979), exact in integer arithmetic: `torus_signature_at_angle`.  That one
closed form serves `lt_signature` (the `signature` and `cg` commands),
the Casson-Gordon tables and the signature-function diagnostic.
Nullities never touch floating point either: the kernel of H(w) is
nontrivial exactly when w is a root of the Alexander polynomial of
T(2,q), an arithmetic condition on the order of w.

The signature function of a whole knot (used as a sliceness diagnostic)
is a step function whose jumps lie at known rational angles (Litherland's
cabling formula), so it is evaluated exactly, once per arc between them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .knots import GAKnot


class _RootFields(NamedTuple):
    a: int
    m: int


class RootOfUnity(_RootFields):
    """exp(2*pi*i*a/m), stored in lowest terms with 0 <= a < m."""

    __slots__ = ()

    def __new__(cls, a: int, m: int) -> "RootOfUnity":
        if m < 1:
            raise ValueError(f"order must be positive, got {m}")
        a %= m
        g = math.gcd(a, m)
        return super().__new__(cls, a // g, m // g)

    @property
    def is_one(self) -> bool:
        return self.m == 1

    @property
    def order(self) -> int:
        return self.m

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(self.m - self.a, self.m) if self.a else self


@lru_cache(maxsize=65536)
def _lt_pair(q: int, a: int, m: int) -> tuple[int, int]:
    """(signature, nullity) of T(2,q) at exp(2*pi*i*a/m), 0 < a < m; exact."""
    return _lattice_signature(q, 2 * a, m), _nullity_arith(q, a, m)


def signature_nullity_exact(q: int, a: int, m: int) -> tuple[int, int]:
    """Exact (signature, nullity) of H(exp(2*pi*i*a/m)) for T(2,q).

    Requires q odd >= 1 and a not divisible by m (w = 1 makes the form
    identically zero and is handled by convention upstream).
    """
    if q % 2 == 0 or q < 1:
        raise ValueError(f"q must be odd and >= 1, got {q}")
    if a % m == 0:
        raise ValueError("w = 1 is excluded (degenerate form, handled by caller)")
    return _lt_pair(q, a % m, m)


def _nullity_arith(q: int, a: int, m: int) -> int:
    """Kernel dimension of H at exp(2*pi*i*a/m), by pure arithmetic.

    Roots of Delta_{T(2,q)} are the w with w^q = -1, w != -1, i.e. the
    roots of unity whose order divides 2q but neither divides q nor
    equals 2.  The tridiagonal form is unreduced, so the kernel is at
    most one dimensional.
    """
    g = math.gcd(a % m, m)
    order = m // g
    return 1 if (2 * q) % order == 0 and q % order != 0 and order != 2 else 0


def lt_signature(q: int, omega: RootOfUnity) -> int:
    """Levine-Tristram signature of T(2,q) at omega (0 for q = 1 or omega = 1)."""
    if q < 1 or q % 2 == 0:
        raise ValueError(f"q must be odd and >= 1, got {q}")
    if q == 1 or omega.is_one:
        return 0
    return _lt_pair(q, omega.a, omega.m)[0]


def lt_nullity(q: int, omega: RootOfUnity) -> int:
    """Nullity of the twisted form of T(2,q) at omega; exact, no numerics."""
    if q < 1 or q % 2 == 0:
        raise ValueError(f"q must be odd and >= 1, got {q}")
    if q == 1 or omega.is_one:
        return 0
    return _nullity_arith(q, omega.a, omega.m)


def signature_at_minus_one(K: GAKnot) -> int:
    """Ordinary signature sigma_K(-1) of the connected sum.

    At w = -1 the companion factor is evaluated at w^2 = 1 where it
    vanishes, so each piece contributes sign * (-(p-1)).
    """
    return sum(pc.sign * (-(pc.cable_p - 1)) for pc in K.pieces)


# ---------------------------------------------------------------------------
# Exact signature function along the circle
# ---------------------------------------------------------------------------


def torus_signature_at_angle(m: int, x: Fraction) -> int:
    """Signature of T(2,m) at w = exp(i*pi*x) for rational x in (0, 2).

    The eigenvalues of H along the circle factor as a positive multiple
    of cos(k*pi/m) - cos(|1-x|*pi/2), k = 1..m-1, so counting signs is
    counting lattice points: #pos = #{k : k/m < |1-x|/2}.  Exact in
    integer arithmetic; eigenvalues at k/m = |1-x|/2 are zero modes.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"torus parameter must be odd and >= 1, got {m}")
    if not 0 < x < 2:
        raise ValueError(f"angle fraction must lie in (0, 2), got {x}")
    return _lattice_signature(m, x.numerator, x.denominator)


def _lattice_signature(m: int, a: int, b: int) -> int:
    """`torus_signature_at_angle(m, a/b)`, 0 < a < 2b; scaling a and b keeps the count."""
    if m == 1:
        return 0
    # pos = #{1 <= k <= m-1 : k < t} with t = m*|1-x|/2 = num/den in [0, m/2)
    num, den = m * abs(b - a), 2 * b
    kmax, rem = divmod(num, den)
    if rem == 0:
        kmax -= 1  # strict inequality
    pos = min(m - 1, max(0, kmax))
    zero = 1 if rem == 0 and 1 <= num // den <= m - 1 else 0
    return 2 * pos + zero - (m - 1)  # pos - neg, neg = (m-1) - pos - zero


def _arc_ends(K: GAKnot) -> tuple[int, list[int]]:
    """(L, ends): right ends over L of the arcs of (0, 1] where sigma_K is constant.

    A piece's factors can only change signature where exp(i*pi*x) is a
    root of t^p + 1 (cable) or of t^(2q') + 1 (companion at w^2, q' > 1),
    i.e. at x = j/p or x = j/(2q') with j odd; L is the lcm of these
    denominators.  Every jump of sigma_K is among these angles; x = 1/2
    (from companions) and x = 1 are not jumps.
    """
    dens = {pc.cable_p for pc in K.pieces}
    dens.update(2 * pc.companion_q for pc in K.pieces if pc.companion_q > 1)
    L = math.lcm(*dens)
    ends = {L}
    for m in dens:
        ends.update(range(L // m, L, 2 * L // m))  # j*L/m, j odd
    return L, sorted(ends)


def signature_function_samples(K: GAKnot) -> list[tuple[Fraction, int]]:
    """sigma_K at w = exp(i*pi*x), one sample per arc of constancy in (0, 1].

    Each arc between consecutive candidate jump angles (`_arc_ends`) is
    sampled at its midpoint x = (lo+hi)/(2L), so the list determines
    sigma_K on the whole circle off its jumps: the arc (x_n, 1] continues
    through w = -1, and x -> 2 - x (complex conjugation) mirrors (1, 2)
    onto (0, 1).  Each piece contributes sign * (sigma_{T(2,p)}(w) +
    sigma_{T(2,q')}(w^2)) by the cabling rule, so each distinct term is
    counted once, weighted by the net sign of the pieces that carry it;
    terms of net sign zero (a piece and its mirror) are skipped.
    """
    L, ends = _arc_ends(K)
    # one term per (m, scale): sigma_{T(2,m)} at angle u/scale (a cable at
    # x = u/(2L), a companion at 2x = u/L), weighted by the pieces' net sign
    net: dict[tuple[int, int], int] = {}
    for pc in K.pieces:
        net[pc.cable_p, 2 * L] = net.get((pc.cable_p, 2 * L), 0) + pc.sign
        if pc.companion_q > 1:
            net[pc.companion_q, L] = net.get((pc.companion_q, L), 0) + pc.sign
    terms = [(m, scale, w) for (m, scale), w in net.items() if w]
    out: list[tuple[Fraction, int]] = []
    lo = 0
    for hi in ends:
        u, lo = lo + hi, hi
        total = sum(w * _lattice_signature(m, u, scale) for m, scale, w in terms)
        out.append((Fraction(u, 2 * L), total))
    return out
