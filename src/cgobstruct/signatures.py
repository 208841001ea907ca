"""Levine-Tristram signatures and nullities of T(2,q) and of cabled sums.

The twisted form at w is H(w) = (1-w)V + (1-conj(w))V^T for the standard
bidiagonal Seifert matrix V of T(2,q).  Signatures are computed by double
precision eigenvalue counts guarded by a tolerance; any eigenvalue inside
the tolerance band triggers the exact Sturm-chain evaluation in `sturm`,
so every returned value is certified; this engine serves `lt_signature`
(the `signature` and `cg` commands), while the Casson-Gordon tables use
the closed-form lattice count below.  Nullities never touch floating
point: the kernel of H(w) is nontrivial exactly when w is a root of the
Alexander polynomial of T(2,q), an arithmetic condition on the order of w.

The signature function of a whole knot (used as a sliceness diagnostic)
is a step function whose jumps lie at known rational angles (Litherland's
cabling formula), so it is evaluated exactly, once per arc between them,
via the explicit eigenvalue parametrization of H along the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .knots import GAKnot
from .sturm import signature_nullity_exact


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i*a/m), stored in lowest terms with 0 <= a < m."""

    a: int
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"order must be positive, got {self.m}")
        a = self.a % self.m
        g = math.gcd(a, self.m)
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "m", self.m // g)

    @property
    def is_one(self) -> bool:
        return self.m == 1

    @property
    def order(self) -> int:
        return self.m

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(self.m - self.a, self.m) if self.a else self

    def as_complex(self) -> complex:
        return complex(np.exp(2j * np.pi * self.a / self.m))


def seifert_matrix_T2(q: int) -> np.ndarray:
    """Standard (q-1)x(q-1) Seifert matrix of T(2,q): -1 diagonal, +1 super.

    Satisfies det(tV - V^T) = Delta_{T(2,q)}(t) up to units and
    sign(V + V^T) = -(q-1).
    """
    if q < 3 or q % 2 == 0:
        raise ValueError(f"q must be odd and >= 3, got {q}")
    V = -np.eye(q - 1, dtype=np.int64)
    for i in range(q - 2):
        V[i, i + 1] = 1
    return V


def _hermitian_form(q: int, omega: RootOfUnity) -> np.ndarray:
    w = omega.as_complex()
    V = seifert_matrix_T2(q).astype(np.complex128)
    return (1 - w) * V + (1 - w.conjugate()) * V.T


@lru_cache(maxsize=65536)
def _lt_pair(q: int, a: int, m: int) -> tuple[int, int]:
    """(signature, nullity) of T(2,q) at exp(2*pi*i*a/m), certified."""
    nullity = _nullity_arith(q, a, m)
    H = _hermitian_form(q, RootOfUnity(a, m))
    eig = np.linalg.eigvalsh(H)
    tau = 1e-8 * max(1.0, float(np.abs(H).sum(axis=1).max()))
    small = int(np.count_nonzero(np.abs(eig) <= tau))
    if small == nullity:
        # every eigenvalue outside the band is certainly nonzero, and the
        # in-band ones are exactly the arithmetic kernel
        pos = int(np.count_nonzero(eig > tau))
        neg = int(np.count_nonzero(eig < -tau))
        return pos - neg, nullity
    sig, nul = signature_nullity_exact(q, a, m)
    if nul != nullity:
        raise ArithmeticError(
            f"nullity mismatch between arithmetic shortcut and exact chain: q={q}, a={a}, m={m}"
        )
    return sig, nul


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
    sigma_{T(2,q')}(w^2)) by the cabling rule.
    """
    L, ends = _arc_ends(K)
    out: list[tuple[Fraction, int]] = []
    lo = 0
    for hi in ends:
        u, lo = lo + hi, hi
        total = 0
        for pc in K.pieces:
            s = _lattice_signature(pc.cable_p, u, 2 * L)
            if pc.companion_q > 1:
                s += _lattice_signature(pc.companion_q, u, L)  # 2x = u/L
            total += pc.sign * s
        out.append((Fraction(u, 2 * L), total))
    return out
