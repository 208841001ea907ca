"""Exact Sturm chain for the twisted Seifert form of T(2,q) at roots of unity.

The hermitian form H(w) = (1-w)V + (1-conj(w))V^T of the torus knot T(2,q)
at w = exp(2*pi*i*a/m) is tridiagonal with constant diagonal

    alpha = w + conj(w) - 2

and off-diagonal 1-w, so its leading principal minors obey

    D_0 = 1,  D_1 = alpha,  D_k = alpha * (D_{k-1} + D_{k-2}),

because |1-w|^2 = -alpha.  Every D_k therefore lives in the real subring
of Z[zeta_m] and can be carried exactly as an integer coefficient vector
modulo x^m - 1.  Zero testing reduces to divisibility by the cyclotomic
polynomial Phi_m, and the sign of a provably nonzero value is certified
by evaluating at increasing precision until the value clears its rigorous
rounding bound.

Sign-variation counting over the minor sequence yields the eigenvalue
signs: for an unreduced hermitian tridiagonal no two consecutive minors
vanish, an interior zero sits between minors of opposite sign (counting
exactly one variation), and a vanishing final minor means a one
dimensional kernel, in which case the variations of the prefix count the
negative eigenvalues by Cauchy interlacing.
"""

from __future__ import annotations

import math
from functools import lru_cache


class PrecisionError(RuntimeError):
    """Raised when a sign cannot be certified within the precision cap."""


# ---------------------------------------------------------------------------
# Cyclotomic polynomials and exact arithmetic in Z[zeta_m] mod (x^m - 1)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    Computed by exact division of x^m - 1 by the product of Phi_d over
    proper divisors d of m; all arithmetic is integer and the divisions
    are exact.
    """
    if m == 1:
        return (-1, 1)
    poly = [0] * m + [1]
    poly[0] = -1
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (remainder must vanish)."""
    num = num[:]
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        for j, dc in enumerate(den):
            num[i - dn + j] -= q * dc
    if any(num):
        raise ArithmeticError("nonzero remainder in exact division")
    return out


def _reduce_mod_cyclotomic(vec: tuple[int, ...], phi: tuple[int, ...]) -> tuple[int, ...]:
    """Remainder of the coefficient vector modulo the (monic) Phi_m."""
    rem = list(vec)
    dn = len(phi) - 1
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        for j, pc in enumerate(phi):
            rem[i - dn + j] -= c * pc
    return tuple(rem[:dn])


def _alpha_mul(vec: tuple[int, ...], r: int, m: int) -> tuple[int, ...]:
    """Multiply by alpha = x^r + x^(m-r) - 2 modulo x^m - 1."""
    out = [0] * m
    for i, c in enumerate(vec):
        if c == 0:
            continue
        out[(i + r) % m] += c
        out[(i - r) % m] += c
        out[i] -= 2 * c
    return tuple(out)


def _is_zero_element(vec: tuple[int, ...], m: int) -> bool:
    """Whether sum_i vec[i] * zeta_m^i vanishes in Z[zeta_m]."""
    if not any(vec):
        return True
    return not any(_reduce_mod_cyclotomic(vec, cyclotomic(m)))


def _certified_sign(vec: tuple[int, ...], m: int) -> int:
    """Sign of the (real, provably nonzero) element sum_i vec[i] * zeta_m^i.

    Evaluates the real part at increasing working precision; accepts the
    sign once |value| exceeds a rigorous bound on the accumulated rounding
    error (coefficient mass times an ulp-level bound at the working
    precision).  The element is a nonzero algebraic integer whose house is
    bounded, so escalation terminates long before the cap.
    """
    import mpmath  # only this fallback needs it; keeps it out of every import

    mass = sum(abs(c) for c in vec)
    dps = 40
    while dps <= 4000:
        with mpmath.workdps(dps):
            total = mpmath.mpf(0)
            for i, c in enumerate(vec):
                if c:
                    total += c * mpmath.cospi(mpmath.mpf(2 * i) / m)
            err = mpmath.mpf(10) ** (8 - dps) * (mass + 1) * (len(vec) + 1)
            if abs(total) > err:
                return 1 if total > 0 else -1
        dps *= 2
    raise PrecisionError(f"sign of cyclotomic element not certified at dps<=4000 (m={m})")


# ---------------------------------------------------------------------------
# Signature and nullity by exact sign variations
# ---------------------------------------------------------------------------


def _variations(signs: list[int]) -> int:
    """Sign changes across a minor sequence, skipping (simple) zeros.

    An unreduced hermitian tridiagonal admits no two consecutive zero
    minors, and the neighbors of a zero minor have opposite signs, so
    dropping zeros counts each such crossing exactly once.
    """
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def signature_nullity_exact(q: int, a: int, m: int) -> tuple[int, int]:
    """Exact (signature, nullity) of H(exp(2*pi*i*a/m)) for T(2,q).

    Requires q odd >= 1 and a not divisible by m (w = 1 makes the form
    identically zero and is handled by convention upstream).
    """
    if q % 2 == 0 or q < 1:
        raise ValueError(f"q must be odd and >= 1, got {q}")
    a %= m
    if a == 0:
        raise ValueError("w = 1 is excluded (degenerate form, handled by caller)")
    d = q - 1
    if d == 0:
        return 0, 0
    g = math.gcd(a, m)
    r, mm = a // g, m // g  # w = zeta_mm^r primitive of order mm
    if mm == 2:
        # w = -1: alpha = -4, plain integer recurrence
        signs: list[int] = [1]
        prev, cur = 0, 1
        for _ in range(d):
            prev, cur = cur, -4 * (cur + prev)
            signs.append(0 if cur == 0 else (1 if cur > 0 else -1))
    else:
        one = tuple([1] + [0] * (mm - 1))
        zero = tuple([0] * mm)
        prev, cur = zero, one
        signs = [1]
        for _ in range(d):
            prev, cur = cur, _alpha_mul(tuple(x + y for x, y in zip(cur, prev)), r, mm)
            signs.append(0 if _is_zero_element(cur, mm) else _certified_sign(cur, mm))
    for i in range(1, d):
        if signs[i] == 0 and (signs[i - 1] == 0 or signs[i + 1] == 0):
            raise ArithmeticError("consecutive zero minors: form is not unreduced")
    if signs[-1] == 0:
        nullity = 1
        neg = _variations(signs[:-1])
    else:
        nullity = 0
        neg = _variations(signs)
    pos = d - nullity - neg
    return pos - neg, nullity
