"""Genus obstruction: exhaustive inequality checks and the certificate report.

For a genus hypothesis g, a prime p with r_p - 2g >= 2 qualifies: any
locally flat genus-g surface would force a nonzero isotropic element in
the p-primary part of the cover's linking form, and with it a character
y = k*x satisfying

    |sigma(K, chi_y) + sigma_K(-1)| <= eta(K, chi_y) + 4g + 1.

Refuting the hypothesis therefore means exhibiting, for EVERY projective
isotropic x, some multiplier k violating the inequality.  This is
strictly stronger than checking one metabolizer, and it is what
`verify_primary_part` certifies in exact arithmetic, one sign-flip class
of points at a time.

The report records, per prime, the point count, the all-points-witnessed
flag, sample witnesses and the margin min_x max_k (|sigma + s1| - eta),
an exact rational; the genus section chains refuted hypotheses into a
lower bound and attaches the recorded upper bound for the built-in
family shape.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .casson_gordon import SigmaTable, build_sigma_tables, eta_knot, sigma_knot
from .kernels import assert_int64_budget, select_kernel
from .knots import GAKnot, family_parameters
from .linking_form import (
    PrimaryPart,
    PrimaryVector,
    enumerate_isotropic_classes,
    enumerate_projective_isotropic,
    isotropic_point_count,
    primary_parts,
)
from .signatures import signature_at_minus_one

SCHEMA_VERSION = 1
UPPER_BOUND_SOURCE = "ribbon-move construction (cited)"


class Witness(NamedTuple):
    """One violating character: y = k*x with |sigma + s1| > threshold + eta."""

    p: int
    x: PrimaryVector
    k: int
    sigma: Fraction
    eta: int
    threshold: int


class PrimeResult(NamedTuple):
    p: int
    points: int
    verified: bool
    witnesses: tuple[Witness, ...]
    margin: Optional[Fraction]  # None when there are no isotropic points


class GenusConclusion(NamedTuple):
    hypotheses_refuted: tuple[int, ...]
    lower_bound: int
    upper_bound: Optional[int]
    upper_bound_source: Optional[str]
    justification: tuple[str, ...]


class ObstructionReport(NamedTuple):
    knot: str
    sigma_minus_one: int
    genus_hypothesis: int  # the hypothesis whose scan the primes section shows
    primes: tuple[PrimeResult, ...]
    genus: GenusConclusion
    notes: tuple[str, ...]

    def conclusion(self) -> str:
        lo, up = self.genus.lower_bound, self.genus.upper_bound
        if up is not None and lo == up:
            return f"g₄^top = g₄ = {lo}"
        if up is not None:
            return f"{lo} <= g₄^top <= g₄ <= {up}"
        return f"g₄^top >= {lo}"

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "knot": self.knot,
            "sigma_minus_one": self.sigma_minus_one,
            "genus_hypothesis": self.genus_hypothesis,
            "primes": [
                {
                    "p": pr.p,
                    "points": pr.points,
                    "verified": pr.verified,
                    "witnesses": [
                        {
                            "x": list(w.x),
                            "k": w.k,
                            "sigma": _frac(w.sigma),
                            "eta": w.eta,
                            "threshold": w.threshold,
                        }
                        for w in pr.witnesses
                    ],
                    "margin": _frac(pr.margin) if pr.margin is not None else None,
                }
                for pr in self.primes
            ],
            "genus": {
                "hypotheses_refuted": list(self.genus.hypotheses_refuted),
                "lower_bound": self.genus.lower_bound,
                "upper_bound": self.genus.upper_bound,
                "upper_bound_source": self.genus.upper_bound_source,
                "justification": list(self.genus.justification),
            },
            "conclusion": self.conclusion(),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)

    def human(self) -> str:
        lines = [f"knot: {self.knot}"]
        lines.append(f"sigma(-1) = {self.sigma_minus_one}")
        lines.append(f"genus hypothesis g = {self.genus_hypothesis} (threshold 4g+1 = {4 * self.genus_hypothesis + 1})")
        for pr in self.primes:
            mark = "verified" if pr.verified else "NOT verified"
            margin = _frac(pr.margin) if pr.margin is not None else "n/a"
            lines.append(
                f"  p = {pr.p}: {pr.points} projective isotropic points, {mark}, margin {margin}"
            )
            for w in pr.witnesses:
                lines.append(
                    f"    witness x={list(w.x)} k={w.k}: sigma = {_frac(w.sigma)}, "
                    f"eta = {w.eta}, threshold = {w.threshold}"
                )
        refuted = ", ".join(str(g) for g in self.genus.hypotheses_refuted) or "none"
        lines.append(f"hypotheses refuted: {refuted}")
        lines.append(f"lower bound: g₄^top >= {self.genus.lower_bound}")
        if self.genus.upper_bound is not None:
            lines.append(
                f"upper bound: g₄ <= {self.genus.upper_bound} ({self.genus.upper_bound_source})"
            )
        lines.append(self.conclusion())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def csv(self) -> str:
        rows = ["section,p,points,verified,margin,lower_bound,upper_bound"]
        for pr in self.primes:
            margin = _frac(pr.margin) if pr.margin is not None else ""
            rows.append(f"prime,{pr.p},{pr.points},{int(pr.verified)},{margin},,")
        up = self.genus.upper_bound if self.genus.upper_bound is not None else ""
        rows.append(f"genus,,,,,{self.genus.lower_bound},{up}")
        return "\n".join(rows)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def check_point(
    x: PrimaryVector,
    part: PrimaryPart,
    K: GAKnot,
    g: int,
    sigma_minus_one: int,
) -> Optional[Witness]:
    """Exact reference scan of one point: first violating multiplier, if any.

    Each multiplier k is evaluated through `sigma_knot` and `eta_knot` on
    the character of k*x, so the reference reads no sigma table and shares
    no code with the closed form of the kernel's rows; the kernel is
    tested against this function.  part must be one of `primary_parts(K)`.
    """
    p = part.p
    if part not in primary_parts(K):
        raise ValueError(f"primary part at p={p} does not belong to the knot")
    if not any(v % p for v in x):
        raise ValueError("check_point requires a nonzero vector")
    thr = 4 * g + 1
    for k in range(1, p):
        chi = part.to_character(tuple(k * v for v in x), K)
        sig, eta = sigma_knot(K, chi), eta_knot(K, chi)
        if abs(sig + sigma_minus_one) > thr + eta:
            return Witness(p, tuple(v % p for v in x), k, sig, eta, thr)
    return None


@lru_cache(maxsize=None)
def _isotropic_classes(p: int, signs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """`enumerate_isotropic_classes` of the part (p, signs), read-only.

    The classes depend only on p and the signs, so a prime keeps one entry
    whichever pieces of whichever knot it serves.  Memoised for the life of
    the process; `_isotropic_classes.cache_clear()` frees the arrays.
    """
    out = enumerate_isotropic_classes(PrimaryPart(p, tuple(range(len(signs))), signs))
    for arr in out:
        arr.flags.writeable = False
    return out


def verify_primary_part(
    part: PrimaryPart,
    tables: SigmaTable,
    g: int,
    s1: int,
    *,
    max_witnesses: int = 3,
) -> PrimeResult:
    """Scan every projective isotropic point of one primary part.

    tables are the knot's sigma tables at part.p and s1 its signature at
    -1, which `genus_lower_bound` computes once per knot.  verified means
    every point has a violating multiplier.  The kernel scans one
    representative per sign-flip class, which decides its whole
    orbit (the tables are symmetric under a -> p-a); points is the sum of
    orbit sizes, checked against the closed-form count, and margin the
    minimum over representatives.  The kernel returns each class's first
    witnessing k and a bound whose minimum is exact (see `kernels`), so
    the report does not depend on how far each class was scanned.
    Witnesses are the first points in enumeration order whose class is
    witnessed, with that k and with sigma and eta evaluated from the tables
    at the point itself.  Each streamed point is folded to its class
    representative (v -> min(v, p - v)) and looked up among the first
    max_witnesses witnessed classes, which hold the first max_witnesses
    witnessed points; the walk stops once every witness is placed, and is
    skipped when no class is witnessed.  The classes come from the memo of
    `_isotropic_classes`; the point count check still runs on every call.
    Tables built for another prime or other pieces raise ValueError.
    """
    have, want = (tables.p, tables.piece_indices), (part.p, part.piece_indices)
    if have != want:
        raise ValueError(f"sigma tables for (p, pieces) = {have} do not belong to the part {want}")
    p = part.p
    thr = 4 * g + 1
    xs, sizes = _isotropic_classes(p, part.signs)
    n = int(sizes.sum())
    want = isotropic_point_count(part)
    if n != want:
        raise ArithmeticError(f"isotropic point count mismatch at p={p}: {n} != {want}")
    if n == 0:
        return PrimeResult(p, 0, True, (), None)
    S = tables.scaled_sigma
    assert_int64_budget(S, p, s1, thr)
    _, scan = select_kernel()
    try:
        first, best = scan(xs, S, s1, p, thr)
    except (ValueError, IndexError) as exc:  # a kernel bug, not bad input
        raise ArithmeticError(f"scan kernel failed at p={p}: {exc}") from exc

    verified = bool((first > 0).all())
    margin = Fraction(int(best.min()), p)
    if verified != (margin > thr):
        raise ArithmeticError("scan invariant broken: margin and flags disagree")
    # the first n witnessed points lie in the first n witnessed classes: each
    # representative is the smallest point of its orbit
    idx = np.flatnonzero(first > 0)[:max_witnesses]
    ks = dict(zip(map(tuple, xs[idx].tolist()), first[idx].tolist()))
    wanted = min(max_witnesses, int(sizes[idx].sum()))
    witnesses: list[Witness] = []
    if wanted:
        for x in enumerate_projective_isotropic(part):
            k = ks.get(tuple(min(v, p - v) for v in x))
            if k:
                sig = sum(int(S[j, k * v % p]) for j, v in enumerate(x))
                eta = len(x) - x.count(0) - 1
                witnesses.append(Witness(p, x, k, Fraction(sig, p), eta, thr))
                if len(witnesses) == wanted:
                    break
    return PrimeResult(p, n, verified, tuple(witnesses), margin)


def genus_lower_bound(
    K: GAKnot,
    g_max: int = 1,
    *,
    threads: int = 1,
    max_witnesses: int = 3,
) -> ObstructionReport:
    """Refute genus hypotheses g = 1..g_max and assemble the certificate.

    Hypothesis g is refuted when at least one prime qualifies
    (r_p - 2g >= 2) and every qualifying prime verifies.  Refutations are
    monotone (a violation against threshold 4g+1 is one against any
    smaller threshold, and qualification only shrinks with g), so the
    certified lower bound is (largest refuted g) + 1.  threads (>= 1) is
    accepted for callers that pass it and changes nothing: each prime is
    one scan.  Table rows and class arrays are memoised per (q', p) and
    per (p, signs) for the life of the process (`casson_gordon._cable_rows`,
    `_isotropic_classes`); they are pure functions of those values, so the
    report never depends on what an earlier call built.
    """
    if g_max < 1:
        raise ValueError(f"g_max must be >= 1, got {g_max}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, got {max_witnesses}")
    parts = primary_parts(K)
    s1 = signature_at_minus_one(K)
    tables = {part.p: build_sigma_tables(K, part.p) for part in parts}

    def verify_parts(parts: list[PrimaryPart], g: int) -> list[PrimeResult]:
        return [
            verify_primary_part(part, tables[part.p], g, s1, max_witnesses=max_witnesses)
            for part in parts
        ]

    refuted: list[int] = []
    justification: list[str] = []
    reported: Optional[tuple[int, list[PrimeResult]]] = None
    for g in range(1, g_max + 1):
        qualifying = [part for part in parts if part.rank - 2 * g >= 2]
        if not qualifying:
            justification.append(
                f"g={g}: no prime satisfies r_p - 2g >= 2, hypothesis not refutable by this obstruction"
            )
            break
        results = verify_parts(qualifying, g)
        ok = all(r.verified for r in results)
        detail = "; ".join(
            f"p={r.p}: {('all ' + str(r.points)) if r.verified else 'not all'} points witnessed"
            for r in results
        )
        if reported is None or ok:
            reported = (g, results)
        if ok:
            refuted.append(g)
            justification.append(f"g={g} refuted ({detail}; rank condition held)")
        else:
            justification.append(f"g={g} not refuted ({detail})")
            break

    lower = (max(refuted) + 1) if refuted else 0
    fam = family_parameters(K)
    upper = 2 if fam is not None else None
    source = UPPER_BOUND_SOURCE if fam is not None else None
    if reported is None:
        # no prime qualified at any hypothesis: show a diagnostic g=1 scan
        g_report = 1
        prime_results = verify_parts(parts, 1)
        justification.append(
            "primes section shows a diagnostic g=1 scan; no conclusion follows from it"
        )
    else:
        g_report, prime_results = reported
    notes = (
        "every nonzero isotropic vector is checked, which covers every possible metabolizer element",
        "algebraic sliceness is not certified by this report; only necessary conditions are checked by the verify command diagnostics",
    )
    return ObstructionReport(
        knot=str(K),
        sigma_minus_one=s1,
        genus_hypothesis=g_report,
        primes=tuple(prime_results),
        genus=GenusConclusion(tuple(refuted), lower, upper, source, tuple(justification)),
        notes=notes,
    )
