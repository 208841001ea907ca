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

from .casson_gordon import eta_knot, sigma_knot
from .kernels import (
    TOP,
    RungOne,
    assert_grid_budget,
    assert_int64_budget,
    build_sigma_tables,
    enumerate_rung_one,
    select_kernel,
)
from .knots import GAKnot, family_parameters
from .linking_form import (
    PrimaryPart,
    PrimaryVector,
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


def _check_args(part: PrimaryPart, K: GAKnot, g: int) -> None:
    # K's part at part.p: K's pieces at ascending indices, and no other piece of K at p
    idx = part.piece_indices
    at = tuple(K.pieces[j] for j in idx if 0 <= j < len(K.pieces))
    if not at or part.pieces != at or K.rank(part.p) != len(at) or sorted(set(idx)) != list(idx):
        raise ValueError(f"primary part at p={part.p} does not belong to the knot")
    if g < 0:
        raise ValueError(f"genus hypothesis must be >= 0, got {g}")


def check_point(x: PrimaryVector, part: PrimaryPart, K: GAKnot, g: int) -> Optional[Witness]:
    """Exact reference scan of one point: first violating multiplier, if any.

    Each multiplier k is evaluated through `sigma_knot` and `eta_knot` on
    the character of k*x, against sigma_K(-1) from `signature_at_minus_one`,
    so the reference reads no sigma table and shares no code with the
    closed form of the kernel's rows; the kernel is tested against this
    function.  A part that is not one of `primary_parts(K)`, a negative g,
    a zero vector or one whose length is not the part's rank raises
    ValueError.
    """
    _check_args(part, K, g)
    p = part.p
    if not any(v % p for v in x):
        raise ValueError("check_point requires a nonzero vector")
    s1, thr = signature_at_minus_one(K), 4 * g + 1
    for k in range(1, p):
        chi = part.to_character(tuple(k * v for v in x), K)
        sig, eta = sigma_knot(K, chi), eta_knot(K, chi)
        if abs(sig + s1) > thr + eta:
            return Witness(p, tuple(v % p for v in x), k, sig, eta, thr)
    return None


def verify_primary_part(
    part: PrimaryPart, K: GAKnot, g: int, *, max_witnesses: int = 3
) -> PrimeResult:
    """Scan every projective isotropic point of one primary part of K.

    A part that is not one of `primary_parts(K)`, one too large to
    enumerate, a negative g or a negative max_witnesses raises ValueError.
    verified means every point has a violating multiplier.  The result is
    a pure function of the part, s1 = sigma_K(-1), g and max_witnesses,
    and is memoised on them (`_scan_part`); an exception is not memoised.
    """
    _check_args(part, K, g)
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, got {max_witnesses}")
    return _scan_part(part, signature_at_minus_one(K), g, max_witnesses)


@lru_cache(maxsize=None)
def _scan_part(part: PrimaryPart, s1: int, g: int, max_witnesses: int) -> PrimeResult:
    """The scan behind `verify_primary_part`, on the part alone.

    The key holds the whole part, indices included, so knots whose pieces
    at p agree but sit at other indices (F and T(2,5) # -T(2,5) # F) scan
    p apart.
    A part whose grid exceeds `kernels.GRID_CELLS` raises ValueError
    before any array is built.  Rung one (`enumerate_rung_one`, the only
    k = 1 scorer) writes out the seed, the classes k = 1 leaves
    unwitnessed, and sums the orbit sizes into points, which is checked
    against the closed-form count; `_settle` scans on from the seed's k = 1
    bounds to each seed class's first witness and the exact margin.  Every
    other class is witnessed at k = 1, so points less the unwitnessed seed
    classes' points are witnessed.  A ValueError or IndexError of either is
    a kernel bug, not bad input, and is raised as ArithmeticError.
    Witnesses are the first streamed points whose class is witnessed, with
    its first k and with sigma and eta evaluated at the point.  A
    representative is the smallest point of its orbit, so the first m of
    them lie in the first m witnessed classes, and every seed class before
    a deep one (witnessed past k = 1) is deep or unwitnessed: the deep
    classes among those m are among the first m deep seed rows.  A point
    k = 1 leaves unwitnessed is looked up there by its representative
    (v -> min(v, p - v)), with m = max_witnesses.
    """
    p = part.p
    assert_grid_budget(part)
    S = build_sigma_tables(part).scaled_sigma
    thr = 4 * g + 1
    assert_int64_budget(S, p, s1, thr)
    try:
        one = enumerate_rung_one(part, S, s1, thr)
        first, least = _settle(part, one, S, s1, thr)
    except (ValueError, IndexError) as exc:
        raise ArithmeticError(f"scan kernel failed at p={p}: {exc}") from exc
    n = one.points
    want = isotropic_point_count(part)
    if n != want:
        raise ArithmeticError(f"isotropic point count mismatch at p={p}: {n} != {want}")
    if n == 0:
        return PrimeResult(p, 0, True, (), None)

    verified = bool((first > 0).all())
    margin = Fraction(least, p)
    if verified != (margin > thr):
        raise ArithmeticError("scan invariant broken: margin and flags disagree")
    wanted = min(max_witnesses, n - int((1 << ((one.xs[first == 0] != 0).sum(axis=1) - 1)).sum()))
    witnesses: list[Witness] = []
    if wanted:
        deep = first.nonzero()[0][:max_witnesses]
        ks = dict(zip(map(tuple, one.xs[deep].tolist()), first[deep].tolist()))
        for x in enumerate_projective_isotropic(part):
            eta = len(x) - x.count(0) - 1
            sig = sum(S.item(j, v) for j, v in enumerate(x))
            k = 1 if abs(sig + p * s1) > p * (thr + eta) else ks.get(tuple(min(v, p - v) for v in x))
            if k:
                sig = sum(S.item(j, k * v % p) for j, v in enumerate(x))
                witnesses.append(Witness(p, x, k, Fraction(sig, p), eta, thr))
                if len(witnesses) == wanted:
                    break
    return PrimeResult(p, n, verified, tuple(witnesses), margin)


def _settle(part: PrimaryPart, one: RungOne, S, s1: int, thr: int):
    """The seed classes' first witnessing k and the margin numerator min(best).

    The scan kernel takes rung one's seed (one), the classes that k = 1
    leaves unwitnessed, with their k = 1 bounds and no best known yet
    (TOP); its minimum best is exact over them, and TOP when the seed is
    empty.  Every other class has first = 1 and best >= its k = 1 bound,
    so only those whose bound lies below that minimum can lower it.  When
    rung one's low, the smallest such bound, does, a second pass of rung
    one writes those classes out and a second call scans them, starting
    from that minimum.
    """
    _, scan = select_kernel()
    p = part.p
    first, best = scan(one.xs, S, s1, p, thr, one.bound, TOP)
    least = int(best.min(initial=TOP))
    if one.low < least:
        low = enumerate_rung_one(part, S, s1, thr, least)
        least = min(least, int(scan(low.xs, S, s1, p, thr, low.bound, least)[1].min()))
    return first, least


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
    one scan, `verify_primary_part` on one of `primary_parts(K)`, whose
    tables are read from the part and s1 from K.  Its PrimeResult (keyed
    on the part, s1, g and max_witnesses) and the table rows per (q', p)
    are memoised for the life of the process (`_scan_part`,
    `kernels._cable_rows`) as pure functions of their keys, so the report
    never depends on what an earlier call built.
    """
    if g_max < 1:
        raise ValueError(f"g_max must be >= 1, got {g_max}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, got {max_witnesses}")
    parts = primary_parts(K)

    def verify_parts(parts: list[PrimaryPart], g: int) -> list[PrimeResult]:
        return [verify_primary_part(part, K, g, max_witnesses=max_witnesses) for part in parts]

    refuted: list[int] = []
    justification: list[str] = []
    reported: Optional[tuple[int, list[PrimeResult]]] = None
    for g in range(1, g_max + 1):
        qualifying = [part for part in parts if part.rank - 2 * g >= 2]
        if not qualifying:
            justification.append(f"g={g}: no prime satisfies r_p - 2g >= 2, hypothesis not refutable by this obstruction")
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
    upper, source = (2, UPPER_BOUND_SOURCE) if family_parameters(K) else (None, None)
    if reported is None:  # no prime qualified at any hypothesis: show a diagnostic g=1 scan
        reported = (1, verify_parts(parts, 1))
        justification.append("primes section shows a diagnostic g=1 scan; no conclusion follows from it")
    g_report, prime_results = reported
    notes = (
        "every nonzero isotropic vector is checked, which covers every possible metabolizer element",
        "algebraic sliceness is not certified by this report; only necessary conditions are checked by the verify command diagnostics",
    )
    return ObstructionReport(
        knot=str(K),
        sigma_minus_one=signature_at_minus_one(K),
        genus_hypothesis=g_report,
        primes=tuple(prime_results),
        genus=GenusConclusion(tuple(refuted), lower, upper, source, tuple(justification)),
        notes=notes,
    )
