"""Independent oracles used by the test suite.

These deliberately avoid the package's computation paths: one signature
oracle runs the tridiagonal minor recurrence in 260-digit floating point,
another counts double precision eigenvalue signs (the package counts
lattice points), the kernel-dimension oracle uses singular values, and
the isotropic-set oracle is a full quartic-space filter, and the
sign-flip classes are read off the package's point stream.  Each oracle
self-checks that no value lands in its ambiguity band, so a wrong
threshold fails loudly instead of silently agreeing.  The scan oracle
reads the package's sigma tables but none of its reductions: it checks
every projective point at every multiplier 1..p-1.  The row-gather scan
is the previous integer kernel, kept as the reference for the
branch-and-bound kernel: it evaluates every class at every multiplier
1..(p-1)/2 through a composed (r, p, (p-1)/2) table.  The grid oracle for
the signature function reads the package's T(2,m) angle formula but not
its arc enumeration: it samples a fixed grid of angles, nudging any that
lands on an Alexander root.  The per-piece sweep is the signature
function before terms were merged by net sign: it adds every piece's
cable and companion term at every arc.  The Laurent polynomials, the
T(2,q) Alexander polynomial and Seifert matrix check the structured
Fox-Milnor pairing and the signature formulas against expanded objects.
The torus knot's Casson-Gordon invariant, the isotropy test of a vector
and the p > 4q' rule for algebraic pieces are the closed forms as the
paper states them.  `form_part` and `part_at` only build primary parts
for the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

DPS = 260
ZERO_BAND = mpmath.mpf("1e-230")
SAFE_BAND = mpmath.mpf("1e-215")
TOP = 2**63 - 1  # `kernels.TOP`: no best known yet


def sturm_signature_nullity(q: int, a: int, m: int) -> tuple[int, int]:
    """(signature, nullity) of the T(2,q) form at exp(2*pi*i*a/m).

    Minor recurrence D_k = alpha * (D_{k-1} + D_{k-2}) with
    alpha = 2cos(2*pi*a/m) - 2, evaluated at 260 digits.  Valid for the
    acceptance range (q <= 15, m <= 50), where every nonzero minor
    provably exceeds the zero band; values inside (ZERO_BAND, SAFE_BAND)
    would be ambiguous and raise.
    """
    assert q % 2 == 1 and q >= 1
    a %= m
    assert a != 0, "w = 1 not handled by the oracle"
    d = q - 1
    if d == 0:
        return 0, 0
    with mpmath.workdps(DPS):
        alpha = 2 * mpmath.cospi(mpmath.mpf(2 * a) / m) - 2
        minors = [mpmath.mpf(1)]
        prev, cur = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(d):
            prev, cur = cur, alpha * (cur + prev)
            minors.append(cur)
        signs = []
        for v in minors:
            av = abs(v)
            if av < ZERO_BAND:
                signs.append(0)
            elif av < SAFE_BAND:
                raise AssertionError(f"oracle ambiguity: |minor| = {av}")
            else:
                signs.append(1 if v > 0 else -1)
    for i in range(1, d):
        if signs[i] == 0:
            assert signs[i - 1] != 0 and signs[i + 1] != 0, "consecutive zero minors"
            assert signs[i - 1] * signs[i + 1] < 0, "zero minor without sign change"
    if signs[-1] == 0:
        nullity = 1
        body = signs[:-1]
    else:
        nullity = 0
        body = signs
    nz = [s for s in body if s != 0]
    neg = sum(1 for x, y in zip(nz, nz[1:]) if x * y < 0)
    pos = d - nullity - neg
    return pos - neg, nullity


def _twisted_form(q: int, a: int, m: int) -> np.ndarray:
    """H(w) = (1-w)V + (1-conj(w))V^T at w = exp(2*pi*i*a/m), complex128."""
    d = q - 1
    w = np.exp(2j * np.pi * a / m)
    V = -np.eye(d, dtype=np.complex128)
    for i in range(d - 1):
        V[i, i + 1] = 1
    return (1 - w) * V + (1 - np.conj(w)) * V.conj().T


def eigen_signature(q: int, a: int, m: int) -> int:
    """Signature of the T(2,q) form at exp(2*pi*i*a/m) by double eigenvalues.

    Eigenvalues below 1e-11 of the row-sum norm count as zero modes, and
    none may fall in the band [1e-11, 1e-8] of that norm, where a zero
    and a small nonzero eigenvalue cannot be told apart.  Over odd
    q <= 43 and prime m <= 211 the smallest nonzero |eigenvalue| is 6.9e-6
    of the norm, at (q, a, m) = (43, 101, 193).
    """
    if q == 1:
        return 0
    H = _twisted_form(q, a, m)
    eig = np.linalg.eigvalsh(H)
    scale = max(1.0, float(np.abs(H).sum(axis=1).max()))
    low, high = 1e-11 * scale, 1e-8 * scale
    small = np.abs(eig)
    assert not np.any((small >= low) & (small <= high)), f"ambiguous eigenvalue: {eig}"
    return int(np.count_nonzero(eig > high)) - int(np.count_nonzero(eig < -high))


def kernel_dimension(q: int, a: int, m: int) -> int:
    """Kernel dimension of the twisted form by singular values.

    Self-checks that no singular value falls into the ambiguous decade
    band around the cut.
    """
    if q == 1:
        return 0
    sv = np.linalg.svd(_twisted_form(q, a, m), compute_uv=False)
    scale = max(1.0, float(sv.max(initial=0.0)))
    low, high = 1e-9 * scale, 1e-5 * scale
    assert not np.any((sv >= low) & (sv <= high)), f"ambiguous singular value: {sv}"
    return int(np.count_nonzero(sv < low))


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


def piece_signature_samples(K) -> list[tuple[Fraction, int]]:
    """`signature_function_samples(K)` summed piece by piece at every arc.

    Walks the package's arc ends over L and adds, for each piece, sign *
    (sigma_{T(2,p)}(w) + sigma_{T(2,q')}(w^2)) through the lattice count,
    never merging a piece with its mirror or with a repeat.
    """
    from cgobstruct.signatures import _arc_ends, _lattice_signature

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


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial as an exponent -> coefficient map."""

    coeffs: tuple[tuple[int, int], ...]  # sorted ((exponent, coefficient), ...)

    @staticmethod
    def from_dict(d: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(((0, 1),))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(acc)

    def substitute_square(self) -> "LaurentPoly":
        """t -> t**2."""
        return LaurentPoly(tuple((2 * e, c) for e, c in self.coeffs))

    def normalized(self) -> "LaurentPoly":
        """Shift so the lowest exponent is 0 and its coefficient is positive."""
        if not self.coeffs:
            return self
        lo, c_lo = self.coeffs[0]
        flip = -1 if c_lo < 0 else 1
        return LaurentPoly(tuple((e - lo, flip * c) for e, c in self.coeffs))

    def degree_span(self) -> int:
        """Highest exponent minus lowest exponent (0 for constants)."""
        if not self.coeffs:
            return 0
        return self.coeffs[-1][0] - self.coeffs[0][0]

    def __call__(self, t: int) -> int:
        """Exact evaluation at an integer t != 0 (negative exponents allowed
        only when they cancel; normalized polynomials never have them)."""
        total = 0
        for e, c in self.coeffs:
            if e < 0:
                raise ValueError("evaluate only normalized (nonnegative exponent) polynomials")
            total += c * t**e
        return total

    def is_palindromic(self) -> bool:
        """After normalization, coefficients read the same in both directions."""
        p = self.normalized()
        d = dict(p.coeffs)
        span = p.degree_span()
        return all(d.get(e, 0) == d.get(span - e, 0) for e in range(span + 1))


def torus_alexander(m: int) -> LaurentPoly:
    """Alexander polynomial of T(2,m) for odd m: (t^m + 1)/(t + 1).

    Alternating coefficients t^(m-1) - t^(m-2) + ... + 1; the constant 1
    for m = 1.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"torus parameter must be odd and >= 1, got {m}")
    return LaurentPoly(tuple((e, (-1) ** e) for e in range(m)))


def alexander_polynomial(K) -> LaurentPoly:
    """Product over pieces of companion factor at t^2 times cable factor.

    Each piece contributes Delta_{T(2,q')}(t^2) * Delta_{T(2,p)}(t); mirrors
    leave the polynomial unchanged up to units.  Result is normalized:
    lowest exponent 0, positive lowest coefficient.
    """
    acc = LaurentPoly.one()
    for pc in K.pieces:
        if pc.companion_q > 1:
            acc = acc * torus_alexander(pc.companion_q).substitute_square()
        acc = acc * torus_alexander(pc.cable_p)
    return acc.normalized()


def sigma_torus(q: int, a: int) -> Fraction:
    """sigma(T(2,q), chi_a) = -q + 2a(q-a)/q, and 0 at a = 0."""
    return Fraction(0) if a == 0 else -q + Fraction(2 * a * (q - a), q)


def is_algebraic_piece(piece) -> bool:
    """Whether the unsigned piece is the link of a plane curve singularity.

    Plain torus knots always are.  The (2,p)-cable of T(2,q') is when the
    cable parameter clears the iterated-singularity threshold p > 2*2*q'.
    Negative pieces report the property of their mirror.
    """
    return piece.companion_q == 1 or piece.cable_p > 4 * piece.companion_q


def is_isotropic(x, signs: tuple[int, ...], p: int) -> bool:
    """Whether sum eps_i x_i^2 = 0 mod p."""
    return sum(e * v * v for e, v in zip(signs, x, strict=True)) % p == 0


def brute_isotropic(p: int, signs: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All vectors of F_p^r (zero included) with sum eps_i x_i^2 = 0 mod p."""
    vectors = itertools.product(range(p), repeat=len(signs))
    return {x for x in vectors if is_isotropic(x, signs, p)}


def enumerate_isotropic_classes(part) -> tuple[np.ndarray, np.ndarray]:
    """Sign-flip classes of projective isotropic vectors, as (xs, sizes).

    A class is every sign pattern on the nonzero non-leading coordinates of
    a normalized vector, and its representative is its lexicographically
    smallest member: the one whose coordinates all lie in [0, (p-1)/2].  So
    the classes are the streamed points with that property, in stream order
    (ascending), and an orbit has 2^(nonzero coordinates - 1) points.  xs
    is an (n, rank) int64 array and sizes an int64 array of length n.
    """
    from cgobstruct.linking_form import enumerate_projective_isotropic

    half = (part.p - 1) // 2
    reps = [x for x in enumerate_projective_isotropic(part) if max(x) <= half]
    xs = np.array(reps, dtype=np.int64).reshape(len(reps), part.rank)
    return xs, 1 << (np.count_nonzero(xs, axis=1).astype(np.int64) - 1)


def expand_projective(reps, p: int, rank: int) -> set[tuple[int, ...]]:
    """Scalar multiples of the representatives, plus the zero vector."""
    out = {tuple([0] * rank)}
    for x in reps:
        for c in range(1, p):
            out.add(tuple(c * v % p for v in x))
    return out


def hits_alexander_root(K, x: Fraction) -> bool:
    """Whether exp(i*pi*x) or its square is a root of any piece factor."""
    for pc in K.pieces:
        for m, xx in ((pc.cable_p, x), (pc.companion_q, (2 * x) % 2)):
            if m == 1 or xx == 0:
                continue
            t = m * abs(1 - xx) / 2
            if t.denominator == 1 and 1 <= t.numerator <= m - 1:
                return True
    return False


def hits_alexander_root_scaled(K, u: int, n: int) -> bool:
    """hits_alexander_root(K, Fraction(u, n)) for 0 < u < 2n, in integers.

    With x = u/n and (2x) mod 2 = v/n, v = 2u mod 2n, the test
    t = m*|1 - x|/2 in {1..m-1} reads: 2n divides m*|n - u| (or m*|n - v|)
    with a quotient in [1, m-1].
    """
    for pc in K.pieces:
        for m, w in ((pc.cable_p, u), (pc.companion_q, 2 * u % (2 * n))):
            if m == 1 or w == 0:
                continue
            t, rem = divmod(m * abs(n - w), 2 * n)
            if rem == 0 and 1 <= t <= m - 1:
                return True
    return False


def signature_arcs(K) -> list[tuple[Fraction, Fraction]]:
    """Arcs (lo, hi) of (0, 1] cut at x = j/p and x = j/(2q'), j odd.

    These are the x with exp(i*pi*x)^p = -1 for a cable prime p or
    exp(i*pi*x)^(2q') = -1 for a companion q' > 1 of K: every Alexander
    root of a piece factor, plus x = 1/2 when some companion is nontrivial.
    """
    dens = {pc.cable_p for pc in K.pieces} | {
        2 * pc.companion_q for pc in K.pieces if pc.companion_q > 1
    }
    ends = sorted({Fraction(j, m) for m in dens for j in range(1, m, 2)} | {Fraction(1)})
    return list(zip([Fraction(0)] + ends[:-1], ends))


def grid_signature_samples(K, resolution: int, span: int = 1) -> list[tuple[Fraction, int]]:
    """Sample sigma_K at w = exp(i*pi*j/resolution), j = 1..span*resolution-1.

    span = 1 covers x in (0, 1), span = 2 the whole circle.  Sampling
    angles that land on an Alexander root are perturbed by half a step.
    Each piece contributes sign * (sigma_{T(2,p)}(w) + sigma_{T(2,q')}(w^2))
    by the cabling rule.
    """
    from cgobstruct import torus_signature_at_angle

    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    out: list[tuple[Fraction, int]] = []
    n = 2 * resolution  # x = u/n: u = 2j on the grid, 2j + 1 half a step on
    for j in range(1, span * resolution):
        u = 2 * j
        if hits_alexander_root_scaled(K, u, n):
            u += 1
        x, x2 = Fraction(u, n), Fraction(2 * u % (2 * n), n)
        total = 0
        for pc in K.pieces:
            s = torus_signature_at_angle(pc.cable_p, x)
            if pc.companion_q > 1 and x2 != 0:
                s += torus_signature_at_angle(pc.companion_q, x2)
            total += pc.sign * s
        out.append((x, total))
    return out


def full_scan(points, part, g: int, s1: int, max_witnesses: int):
    """PrimeResult of a point-by-point scan over every multiplier k in 1..p-1.

    No sign-flip classes and no half range of k: witnesses are the first
    max_witnesses points in the given order that have a violating k, each
    with its smallest such k; the margin is min over points of
    max over k of (|sigma + s1| - eta).  Sigma is read from the part's
    table and the per-piece eta from `eta_cable`.  Chunked to bound memory.
    """
    from cgobstruct import build_sigma_tables, eta_cable
    from cgobstruct.obstruction import PrimeResult, Witness

    p, thr = part.p, 4 * g + 1
    if not points:
        return PrimeResult(p, 0, True, (), None)
    S = build_sigma_tables(part).scaled_sigma
    E = np.array([[eta_cable(pc.companion_q, p, a) for a in range(p)] for pc in part.pieces])
    ks = np.arange(1, p, dtype=np.int64)
    rows = np.arange(S.shape[0])
    verified, margin, witnesses = True, None, []
    for lo in range(0, len(points), 512):
        chunk = points[lo : lo + 512]
        idx = (ks[None, :, None] * np.array(chunk, dtype=np.int64)[:, None, :]) % p
        sig = S[rows, idx].sum(axis=2)
        support = (idx != 0).sum(axis=2)
        eta = np.where(support > 0, support - 1, 0) + E[rows, idx].sum(axis=2)
        val = np.abs(sig + p * s1) - p * eta
        hit = val > p * thr
        verified = verified and bool(hit.any(axis=1).all())
        low = Fraction(int(val.max(axis=1).min()), p)
        margin = low if margin is None else min(margin, low)
        for i, x in enumerate(chunk):
            if len(witnesses) < max_witnesses and hit[i].any():
                k = int(hit[i].argmax())
                witnesses.append(
                    Witness(p, x, k + 1, Fraction(int(sig[i, k]), p), int(eta[i, k]), thr)
                )
    return PrimeResult(p, len(points), verified, tuple(witnesses), margin)


def loop_scan(xs, S, p: int, s1: int, thr: int, k_max: int | None = None):
    """Per-row kernel outputs (first, best) by element-wise loops.

    Every row of xs at every multiplier k = 1..k_max (default p-1),
    reading the scaled sigma table S directly and counting the support of
    k*x at each k: no composed table, no half range of k and no per-row
    eta shortcut.
    """
    out = []
    for x in xs.tolist():
        first, best = 0, None
        for k in range(1, p if k_max is None else k_max + 1):
            idx = [k * v % p for v in x]
            sig = sum(int(S[j, a]) for j, a in enumerate(idx))
            support = sum(1 for a in idx if a)
            eta = support - 1 if support else 0
            val = abs(sig + p * s1) - p * eta
            best = val if best is None else max(best, val)
            if not first and val > p * thr:
                first = k
        out.append((first, best))
    return tuple(np.array([row[i] for row in out], dtype=np.int64) for i in (0, 1))


def compose_multipliers(S: np.ndarray, p: int) -> np.ndarray:
    """T[j, a, k-1] = S[j, k*a mod p] for k = 1..(p-1)/2, C-contiguous int64."""
    ks = np.arange(1, (p + 1) // 2, dtype=np.int64)
    return np.ascontiguousarray(S[:, np.arange(p, dtype=np.int64)[:, None] * ks % p])


def scan_chunk(xs, T, s1, p, thr):
    """Row-gather kernel with the contract of `cgobstruct.kernels`, best exact.

    xs is an (n, r) int64 array of nonzero rows reduced into [0, p) and
    T is `compose_multipliers(S, p)`.  Returns (first, best), each an
    int64 array of length n.  Works in one (n, (p-1)/2) buffer: |S + p*s1|
    is compared with the per-row bound p*(thr + eta).
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
    return np.where(has, at + 1, 0).astype(np.int64), best


def assert_bounded_scan(got, xs, S, p: int, s1: int, thr: int, least: int = TOP) -> None:
    """Check branch-and-bound kernel outputs against `loop_scan`."""
    from cgobstruct.kernels import BLOCK

    want = loop_scan(xs, S, p, s1, thr)
    depths = [loop_scan(xs, S, p, s1, thr, k_max=k)[1] for k in (1, BLOCK)]
    assert_bounded(got, want, *depths, least=least)


def assert_bounded(got, want, one, block, least: int = TOP) -> None:
    """Check branch-and-bound kernel outputs against an exact scan.

    want is an exact scan's (first, best), one its best at k = 1 and block
    its best over k = 1..BLOCK, and least the best the kernel was told is
    known already (TOP for none).  first must equal the exact scan's row by
    row.  best must be a lower bound on the exact best with the same
    minimum once least joins both.  A row left below its exact value must
    have a witness inside the block and hold a running maximum: over
    k = 1..BLOCK, or, when first == 1, over k = 1 alone or k = 1..BLOCK
    (a row witnessed at k = 1 is deepened only when its k = 1 bound might
    set the minimum).  best must be exact wherever the exact value lies
    below the smallest best of the rows that may have been left so
    (witnessed in the block, best equal to such a running maximum).
    """
    from cgobstruct.kernels import BLOCK

    (first, best), (first_want, exact) = got, want
    for a, b in zip(got, want, strict=True):
        assert a.dtype == np.int64 and a.shape == b.shape
    assert np.array_equal(first, first_want), (first, first_want)
    assert (best <= exact).all()
    if len(best):
        assert min(least, best.min()) == min(least, exact.min())
    in_block = (first >= 1) & (first <= BLOCK)
    held = in_block & ((best == block) | ((first == 1) & (best == one)))
    left = best < exact
    assert in_block[left].all()
    assert held[left].all()
    if held.any():
        low = exact < best[held].min()
        assert np.array_equal(best[low], exact[low])


def form_part(p: int, signs: tuple[int, ...]):
    """A part of the knot # eps_i T(2,p): one T(2,p) piece per sign, for
    the tests that read only the part's form."""
    from cgobstruct import Piece, PrimaryPart

    return PrimaryPart(p, tuple(range(len(signs))), tuple(Piece(1, p, s) for s in signs))


def part_at(K, p: int):
    """The part of K at p."""
    from cgobstruct import primary_parts

    return next(part for part in primary_parts(K) if part.p == p)
