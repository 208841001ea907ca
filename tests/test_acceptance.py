"""End-to-end acceptance suite.

Each test exercises one contract of the engine, from the flagship
exhaustive verification down to the independent numerical oracles.  All
comparisons on certified quantities are exact (int / Fraction); floating
point appears only inside the cross-checking oracles.
"""

import bisect
import hashlib
import json
import math
import random
import time
from fractions import Fraction

from cgobstruct import (
    Character,
    GAKnot,
    Piece,
    RootOfUnity,
    build_family,
    check_point,
    enumerate_projective_isotropic,
    eta_knot,
    fox_milnor_check,
    genus_lower_bound,
    lt_nullity,
    lt_signature,
    parse_knot,
    primary_parts,
    sigma_cable,
    sigma_knot,
    signature_at_minus_one,
    signature_function_samples,
    torus_signature_at_angle,
)
from cgobstruct.cli import main
from cgobstruct.obstruction import _scan_part
from cgobstruct.primes import odd_primes_in

from oracles import (
    brute_isotropic,
    expand_projective,
    form_part,
    grid_signature_samples,
    kernel_dimension,
    sigma_torus,
    signature_arcs,
    sturm_signature_nullity,
)

FLAGSHIP_PARAMS = (83, 103, 17, 11, 13)
OTHER_PARAMS = [(107, 131, 23, 17, 19), (139, 163, 29, 19, 23), (163, 181, 37, 29, 31)]


# -- exhaustive verification of the flagship knot ---------------------------


def test_flagship_exhaustive_scan_counts_and_timing(flagship, flagship_report):
    # flagship_report has already filled the signature caches, so the
    # timings below measure the scan pipeline, not first-call table builds;
    # the prime-scan memo is cleared so that each call scans both primes
    _scan_part.cache_clear()
    t0 = time.perf_counter()
    single = genus_lower_bound(flagship, g_max=1, threads=1)
    t_single = time.perf_counter() - t0
    _scan_part.cache_clear()
    t0 = time.perf_counter()
    eight = genus_lower_bound(flagship, g_max=1, threads=8)
    t_eight = time.perf_counter() - t0

    for rep in (single, eight):
        by_p = {pr.p: pr for pr in rep.primes}
        assert set(by_p) == {83, 103}
        assert by_p[83].points == 7056 == 84**2
        assert by_p[103].points == 10816 == 104**2
        for pr in rep.primes:
            assert pr.points == (pr.p + 1) ** 2
            assert pr.verified
            assert isinstance(pr.margin, Fraction)
            assert pr.margin > 5  # threshold 4g+1 at g=1, exact comparison
    assert t_single < 60.0, f"single-threaded scan took {t_single:.1f}s"
    assert t_eight < 10.0, f"8-worker scan took {t_eight:.1f}s"


def test_flagship_every_point_has_violating_multiplier(flagship, flagship_report):
    # spot-check the exhaustive claim against the pure-Fraction scanner
    # on both primary parts, then on the recorded witnesses themselves
    for part in primary_parts(flagship):
        pts = list(enumerate_projective_isotropic(part))
        sample = pts[:: max(1, len(pts) // 64)]
        for x in sample:
            w = check_point(x, part, flagship, 1)
            assert w is not None
            assert abs(w.sigma) > 5 + w.eta
    parts = {part.p: part for part in primary_parts(flagship)}
    for pr in flagship_report.primes:
        for w in pr.witnesses:
            chi = parts[w.p].to_character(tuple(w.k * v % w.p for v in w.x), flagship)
            assert sigma_knot(flagship, chi) == w.sigma
            assert eta_knot(flagship, chi) == w.eta
            assert abs(w.sigma) > w.threshold + w.eta


# -- genus conclusion --------------------------------------------------------


def test_flagship_genus_bounds_meet(flagship_report):
    assert flagship_report.genus.hypotheses_refuted == (1,)
    assert flagship_report.genus.lower_bound == 2
    assert flagship_report.genus.upper_bound == 2
    assert flagship_report.conclusion() == "g₄^top = g₄ = 2"
    assert "g₄^top = g₄ = 2" in flagship_report.human()


def test_flagship_cli_certifies(capsys):
    rc = main(["verify", "--family", "83,103,17,11,13", "--genus", "1", "--threads", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "g₄^top = g₄ = 2" in out


# -- further verified knots --------------------------------------------------


def test_three_more_knots_certify_genus_two():
    t0 = time.perf_counter()
    for params in OTHER_PARAMS:
        K = build_family(*params)
        rep = genus_lower_bound(K, g_max=1, threads=4)
        assert rep.genus.hypotheses_refuted == (1,), params
        assert rep.genus.lower_bound == 2, params
        for pr in rep.primes:
            assert pr.verified
            assert pr.points == (pr.p + 1) ** 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"three verifications took {elapsed:.0f}s"


def test_family_near_p_1000_certifies_with_margin_seven():
    # 128k classes per prime: the scan runs many row blocks and batches per stage
    K = build_family(1009, 1013, 17, 11, 13)
    rep = genus_lower_bound(K)
    assert rep.genus.lower_bound == 2
    assert [(pr.p, pr.points) for pr in rep.primes] == [(1009, 1020100), (1013, 1028196)]
    parts = {part.p: part for part in primary_parts(K)}
    for pr in rep.primes:
        assert pr.verified and pr.points == (pr.p + 1) ** 2
        assert pr.margin == Fraction(7)
        assert pr.witnesses
        for w in pr.witnesses:
            assert check_point(w.x, parts[pr.p], K, 1) == w


def test_family_near_p_1000_report_bytes():
    # the md5 of this report was taken before the scan's scratch arrays were
    # bounded: slabs, row blocks and batches change no byte of it
    report = genus_lower_bound(build_family(1009, 1013, 17, 11, 13), g_max=2).to_json()
    assert hashlib.md5(report.encode("utf-8")).hexdigest() == "330033b4780fdc6f51779a7a86ef99a4"


# -- vanishing classical obstructions ----------------------------------------


def test_family_knots_classical_invariants_vanish():
    for params in [FLAGSHIP_PARAMS] + OTHER_PARAMS:
        K = build_family(*params)
        assert signature_at_minus_one(K) == 0, params
        samples = signature_function_samples(K)
        assert len(samples) == len(signature_arcs(K))
        assert all(v == 0 for _, v in samples), params
        fm = fox_milnor_check(K)
        assert fm.ok, params
        assert fm.unpaired == ()
        # complete pairing witness: 8 cable factors + 6 companion factors
        assert len(fm.pairs) == 7
        used = [(label, j) for label, a, b in fm.pairs for j in (a, b)]
        assert len(used) == len(set(used)) == 14
        for label, a, b in fm.pairs:
            assert K.pieces[a].sign == -K.pieces[b].sign


def _grid_hits_per_arc(K, resolution):
    """Check the exact per-arc samples of K against the grid oracle on (0, 2).

    Each exact sample must lie strictly inside its arc of (0, 1].  Each grid
    sample x must equal the exact value of the arc containing x or its
    mirror image 2 - x; one landing on an arc end that is not a jump (1/2)
    must equal the values on both sides.  Returns the number of grid
    samples inside each arc.
    """
    exact = signature_function_samples(K)
    arcs = signature_arcs(K)
    assert len(exact) == len(arcs)
    for (x, _), (lo, hi) in zip(exact, arcs):
        assert lo < x < hi
    ends = [hi for _, hi in arcs]
    values = [v for _, v in exact]
    hits = [0] * len(ends)
    for x, v in grid_signature_samples(K, resolution, span=2):
        y = min(x, 2 - x)
        i = bisect.bisect_left(ends, y)
        if y == ends[i] and y != 1:
            assert v == values[i] == values[i + 1], (str(K), x)
        else:
            assert v == values[i], (str(K), x)
            hits[i] += 1
    return hits


def _resolution_finer_than_arcs(K):
    return math.floor(1 / min(hi - lo for lo, hi in signature_arcs(K))) + 1


def test_signature_function_matches_fine_grid_oracle_on_family_knots():
    # a grid step below the narrowest arc puts grid points in every arc
    for params in [FLAGSHIP_PARAMS] + OTHER_PARAMS:
        K = build_family(*params)
        hits = _grid_hits_per_arc(K, _resolution_finer_than_arcs(K))
        assert all(hits), params


def test_signature_function_matches_grid_oracle_on_random_knots():
    rng = random.Random(1979)
    primes = odd_primes_in(3, 23)
    nonzero = 0
    for _ in range(40):
        pieces = []
        for _ in range(rng.randint(1, 4)):
            p = rng.choice(primes)
            q = rng.choice([q for q in range(1, 12, 2) if q % p])
            pieces.append(Piece(q, p, rng.choice((1, -1))))
        K = GAKnot(tuple(pieces))
        assert all(_grid_hits_per_arc(K, _resolution_finer_than_arcs(K))), str(K)
        nonzero += any(v != 0 for _, v in signature_function_samples(K))
    assert nonzero >= 30


def _midpoint_samples(K):
    """sigma_K at the Fraction midpoint of each oracle arc, piece by piece."""
    out = []
    for lo, hi in signature_arcs(K):
        x, total = (lo + hi) / 2, 0
        for pc in K.pieces:
            s = torus_signature_at_angle(pc.cable_p, x)
            if pc.companion_q > 1:
                s += torus_signature_at_angle(pc.companion_q, 2 * x)
            total += pc.sign * s
        out.append((x, total))
    return out


def test_integer_sweep_matches_fraction_midpoints():
    # the sweep walks arc ends as integers over the lcm of the jump
    # denominators; it must give the Fraction evaluation at each midpoint
    knots = [build_family(*params) for params in [FLAGSHIP_PARAMS] + OTHER_PARAMS]
    rng = random.Random(2107)
    primes = odd_primes_in(3, 31)
    for _ in range(60):
        pieces = []
        for _ in range(rng.randint(1, 5)):
            p = rng.choice(primes)
            q = rng.choice([q for q in range(1, 16, 2) if q % p])
            pieces.append(Piece(q, p, rng.choice((1, -1))))
        knots.append(GAKnot(tuple(pieces)))
    for K in knots:
        assert signature_function_samples(K) == _midpoint_samples(K), str(K)


def test_signature_function_nonzero_on_non_slice_controls():
    K = parse_knot("T(2,5;2,7) # T(2,3)")
    assert any(v != 0 for _, v in signature_function_samples(K))
    assert all(_grid_hits_per_arc(K, _resolution_finer_than_arcs(K)))
    # the flagship with its last piece mirrored is not algebraically slice
    F = build_family(*FLAGSHIP_PARAMS)
    F = GAKnot(F.pieces[:-1] + (F.pieces[-1].mirror(),))
    assert any(v != 0 for _, v in signature_function_samples(F))


# -- closed formula consistency ----------------------------------------------


def test_cable_with_trivial_companion_reduces_to_torus():
    for p in odd_primes_in(3, 103):
        for a in range(p):
            assert sigma_cable(1, p, a) == sigma_torus(p, a), (p, a)


# -- signature engine vs independent oracles ---------------------------------


def test_lattice_signatures_match_minor_recurrence_and_svd_oracles():
    for q in (3, 5, 7, 9, 11, 13, 15):
        assert lt_signature(q, RootOfUnity(0, 1)) == 0
        assert lt_nullity(q, RootOfUnity(0, 1)) == 0
        for m in range(1, 51):
            for a in range(1, m):
                w = RootOfUnity(a, m)
                sig, eta = lt_signature(q, w), lt_nullity(q, w)
                assert (sig, eta) == sturm_signature_nullity(q, a, m), (q, a, m)
                assert eta == kernel_dimension(q, a, m), (q, a, m)
                if math.gcd(m, 2 * q) == 1:
                    assert eta == 0, (q, a, m)


# -- enumeration vs brute force ----------------------------------------------


def test_projective_enumeration_expands_to_brute_force():
    for p in (5, 7, 11, 13):
        for bits in range(16):
            signs = tuple(1 if bits & (1 << i) else -1 for i in range(4))
            part = form_part(p, signs)
            reps = list(enumerate_projective_isotropic(part))
            assert expand_projective(reps, p, 4) == brute_isotropic(p, signs), (p, signs)
        hyper = form_part(p, (1, -1, 1, -1))
        reps = list(enumerate_projective_isotropic(hyper))
        assert len(reps) == (p + 1) ** 2
        nonzero = expand_projective(reps, p, 4) - {(0, 0, 0, 0)}
        assert len(nonzero) == (p + 1) ** 2 * (p - 1)


# -- negative control ---------------------------------------------------------


def test_slice_connected_sum_is_not_obstructed(capsys):
    rc = main(["verify", "--knot", "T(2,5;2,7) # -T(2,5;2,7)", "--genus", "1"])
    capsys.readouterr()
    assert rc == 1
    K = parse_knot("T(2,5;2,7) # -T(2,5;2,7)")
    part = primary_parts(K)[0]
    assert part.p == 7
    assert signature_at_minus_one(K) == 0
    diag = [x for x in enumerate_projective_isotropic(part)]
    assert diag == [(1, 1), (1, 6)]  # the diagonal classes x2 = +-x1
    for x in diag:
        assert check_point(x, part, K, 1) is None


# -- invariant properties and determinism -------------------------------------


def _random_character(K: GAKnot, rng: random.Random) -> Character:
    return Character.for_knot(K, [rng.randrange(pc.cable_p) for pc in K.pieces])


def test_sigma_eta_conjugation_symmetry(flagship):
    rng = random.Random(20260815)
    for _ in range(25):
        chi = _random_character(flagship, rng)
        bar = Character.for_knot(
            flagship, [-a % pc.cable_p for a, pc in zip(chi.residues, flagship.pieces)]
        )
        assert sigma_knot(flagship, chi) == sigma_knot(flagship, bar)
        assert eta_knot(flagship, chi) == eta_knot(flagship, bar)


def test_sigma_mirror_antisymmetry(flagship):
    rng = random.Random(83103)
    M = flagship.mirror()
    for _ in range(25):
        chi = _random_character(flagship, rng)
        assert sigma_knot(M, chi) == -sigma_knot(flagship, chi)
        assert eta_knot(M, chi) == eta_knot(flagship, chi)


def test_sigma_additive_under_concatenation():
    A = parse_knot("T(2,3;2,7) # -T(2,5;2,11)")
    B = parse_knot("T(2,9;2,13)")
    AB = A + B
    rng = random.Random(7)
    for _ in range(25):
        ca = _random_character(A, rng)
        cb = _random_character(B, rng)
        cab = Character(ca.residues + cb.residues)
        assert sigma_knot(AB, cab) == sigma_knot(A, ca) + sigma_knot(B, cb)
        sa = sum(1 for r in ca.residues if r)
        sb = sum(1 for r in cb.residues if r)
        cross = 1 if sa and sb else 0
        assert eta_knot(AB, cab) == eta_knot(A, ca) + eta_knot(B, cb) + cross


SMALL_COMPANIONS = {5: (3, 7, 9), 7: (3, 9, 11), 11: (3, 5, 7), 13: (3, 5, 7)}


def test_check_point_verdict_scaling_invariant_exhaustive():
    for p, (q1, q2, q3) in SMALL_COMPANIONS.items():
        K = GAKnot(
            (Piece(q1, p, 1), Piece(q2, p, -1), Piece(1, p, 1), Piece(q3, p, -1))
        )
        part = primary_parts(K)[0]
        for x in enumerate_projective_isotropic(part):
            verdict = check_point(x, part, K, 1) is None
            for c in range(2, p):
                scaled = tuple(c * v % p for v in x)
                assert (check_point(scaled, part, K, 1) is None) == verdict


def test_report_json_byte_identical_across_threads(flagship):
    one = genus_lower_bound(flagship, g_max=1, threads=1).to_json()
    _scan_part.cache_clear()  # the second report scans afresh
    eight = genus_lower_bound(flagship, g_max=1, threads=8).to_json()
    assert one.encode("utf-8") == eight.encode("utf-8")
    json.loads(one)  # well-formed
