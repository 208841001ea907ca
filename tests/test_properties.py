"""Property tests: knot string round trips, the int64 budget boundary,
the closed-form sigma table rows against a double precision eigenvalue
count, the net-sign signature function against the per-piece sweep, the
branch-and-bound scan kernel against an element-wise loop, on random
and on adversarial tables and in blocks of a few cells, the rung-one
enumerator and the per-prime pipeline against the class oracle, and
whole primary-part results, witnesses included, against a point-by-point
scan."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from cgobstruct import (
    GAKnot,
    Piece,
    build_sigma_tables,
    enumerate_projective_isotropic,
    eta_cable,
    genus_lower_bound,
    parse_knot,
    primary_parts,
    sigma_cable,
    signature_at_minus_one,
    signature_function_samples,
    verify_primary_part,
)
from cgobstruct import kernels, obstruction
from cgobstruct.kernels import TOP, assert_int64_budget, enumerate_rung_one, scan_classes
from cgobstruct.obstruction import _scan_part
from cgobstruct.primes import odd_primes_in

from oracles import (
    assert_bounded_scan,
    eigen_signature,
    enumerate_isotropic_classes,
    form_part,
    full_scan,
    loop_scan,
    piece_signature_samples,
)

PRIMES = odd_primes_in(3, 211)
BUDGET = 2**62


def valid_pieces(q_max):
    """Pieces T(2,q';2,p) with p <= 211 prime and odd q' <= q_max prime to p."""
    return st.builds(
        lambda p, k, sign: (p, 2 * k + 1, sign),
        st.sampled_from(PRIMES),
        st.integers(0, (q_max - 1) // 2),
        st.sampled_from((1, -1)),
    ).filter(lambda t: t[1] % t[0] != 0).map(lambda t: Piece(t[1], t[0], t[2]))


pieces = valid_pieces(121)

knots = st.lists(pieces, min_size=1, max_size=12).map(lambda ps: GAKnot(tuple(ps)))


@given(knots)
def test_parse_inverts_format(K):
    assert parse_knot(str(K)) == K


@given(knots)
def test_parse_ignores_whitespace(K):
    assert parse_knot(" " + str(K).replace("#", " \t# ") + "\n") == K


@settings(deadline=None)
@given(valid_pieces(43))
def test_sigma_table_rows_match_eigenvalue_engine(pc):
    # the rows use the lattice-count closed form; the oracle counts the
    # signs of double precision eigenvalues, refusing any in its ambiguity band
    p, qc = pc.cable_p, pc.companion_q
    tab = build_sigma_tables(primary_parts(GAKnot((pc,)))[0])
    eta = kernels._cable_rows(qc, p)[1]
    assert tab.scaled_sigma[0, 0] == eta[0] == 0
    for a in range(1, p):
        want = pc.sign * (-p + Fraction(2 * a * (p - a), p) + 2 * eigen_signature(qc, a, p))
        assert tab.scaled_sigma[0, a] == p * want
        assert Fraction(int(tab.scaled_sigma[0, a]), p) == want
        assert eta[a] == eta_cable(qc, p, a)


# few distinct pieces, so repeats are common
small_pieces = st.tuples(
    st.sampled_from((1, 3, 5, 7, 9)),
    st.sampled_from((3, 5, 7, 11, 13)),
    st.sampled_from((1, -1)),
).filter(lambda t: t[0] % t[1] != 0).map(lambda t: Piece(*t))  # p must not divide q'


@st.composite
def knots_with_repeats_and_mirrors(draw):
    base = draw(st.lists(small_pieces, min_size=1, max_size=5))
    extra = [pc.mirror() if draw(st.booleans()) else pc for pc in base if draw(st.booleans())]
    return GAKnot(draw(st.permutations(base + extra)))


@settings(deadline=None)
@given(knots_with_repeats_and_mirrors())
def test_table_rows_follow_the_part(K):
    # row i is the i-th piece of the part, against the Fraction path
    for part in primary_parts(K):
        if part.rank > 5:
            continue
        p, tab = part.p, build_sigma_tables(part)
        assert part.pieces == tuple(K.pieces[j] for j in part.piece_indices)
        assert tab.piece_indices == part.piece_indices
        for i, pc in enumerate(part.pieces):
            eta = kernels._cable_rows(pc.companion_q, p)[1]
            for a in range(p):
                assert tab.scaled_sigma[i, a] == pc.sign * p * sigma_cable(pc.companion_q, p, a)
                assert eta[a] == eta_cable(pc.companion_q, p, a)


@settings(deadline=None)
@given(st.lists(small_pieces, min_size=1, max_size=5).map(GAKnot))
def test_verify_primary_part_matches_point_by_point_scan(K):
    # witnesses are the first witnessed points of the stream, each with its
    # class's smallest k, for any number asked for
    s1 = signature_at_minus_one(K)
    for part in primary_parts(K):
        points = list(enumerate_projective_isotropic(part))
        for g in (1, 2):
            for max_witnesses in (0, 1, 3, 10, 10**6):
                got = verify_primary_part(part, K, g, max_witnesses=max_witnesses)
                assert got == full_scan(points, part, g, s1, max_witnesses)


@settings(deadline=None)
@given(knots_with_repeats_and_mirrors(), st.data())
def test_shuffled_and_mirrored_knots_keep_prime_results_and_lower_bound(K, data):
    # connected sum commutes and g4(-K) = g4(K). Primes are matched by p, as
    # primary_parts follows first appearance. The upper bound and conclusion
    # are not compared: family_parameters reads only the layout as written
    assume(all(part.rank <= 6 for part in primary_parts(K)))

    def results(K):
        by_prime = {}
        for part in primary_parts(K):
            for g in (1, 2):
                res = verify_primary_part(part, K, g)
                by_prime[part.p, g] = (res.points, res.verified, res.margin)
        return by_prime, genus_lower_bound(K, g_max=2).genus.lower_bound

    want = results(K)
    _scan_part.cache_clear()  # a shuffle that keeps each prime's piece order has the same keys
    assert results(GAKnot(data.draw(st.permutations(K.pieces)))) == want
    assert results(K.mirror()) == want


def _net_signs(K):
    net = {}
    for pc in K.pieces:
        net["cable", pc.cable_p] = net.get(("cable", pc.cable_p), 0) + pc.sign
        if pc.companion_q > 1:
            net["companion", pc.companion_q] = net.get(("companion", pc.companion_q), 0) + pc.sign
    return net


@settings(deadline=None)
@given(knots_with_repeats_and_mirrors())
def test_signature_function_matches_per_piece_sweep(K):
    # merging terms by net sign must not change any sample; knots whose
    # terms all cancel read zero everywhere (tested on the family knots)
    assume(any(_net_signs(K).values()))
    assert signature_function_samples(K) == piece_signature_samples(K)


def _tables_with_peak(peak, r, p, thr, negative):
    """A sigma table and s1 whose int64 peak estimate is exactly peak.

    The estimate is r*max|S| + p*|s1| + p*(thr + r); s1 is chosen mod r
    (gcd(p, r) = 1 as p > r) so the rest divides by r.
    """
    base = p * (thr + r)
    s1 = (peak - base) * pow(p, -1, r) % r
    smax, rem = divmod(peak - base - p * s1, r)
    assert rem == 0
    S = np.zeros((r, p), dtype=np.int64)
    S[r - 1, 1] = -smax if negative else smax
    return S, -s1 if negative else s1


budget_inputs = st.tuples(
    st.integers(1, 8),
    st.sampled_from([p for p in PRIMES if p > 8]),
    st.integers(1, 41),
    st.booleans(),
)


@given(budget_inputs)
def test_int64_budget_passes_just_below_the_limit(args):
    r, p, thr, negative = args
    S, s1 = _tables_with_peak(BUDGET - 1, r, p, thr, negative)
    assert_int64_budget(S, p, s1, thr)


@given(budget_inputs)
def test_int64_budget_raises_at_the_limit(args):
    r, p, thr, negative = args
    S, s1 = _tables_with_peak(BUDGET, r, p, thr, negative)
    with pytest.raises(OverflowError):
        assert_int64_budget(S, p, s1, thr)


@st.composite
def scan_cases(draw):
    """A prime p <= 31, a random table with rows symmetric under a -> p-a,
    nonzero reduced rows xs, s1 and a threshold on the scale of the table."""
    p = draw(st.sampled_from(odd_primes_in(3, 31)))
    r = draw(st.integers(1, 5))
    half = (p - 1) // 2
    entry = st.integers(-2 * p * p, 2 * p * p)
    S = np.zeros((r, p), dtype=np.int64)
    for j in range(r):
        row = draw(st.lists(entry, min_size=half + 1, max_size=half + 1))
        S[j, : half + 1] = row
        S[j, half + 1 :] = row[:0:-1]
    xs = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=r, max_size=r).filter(any),
            min_size=1,
            max_size=8,
        )
    )
    s1 = draw(st.integers(-2 * p, 2 * p))
    thr = draw(st.integers(0, 3 * p))
    return p, S, np.array(xs, dtype=np.int64), s1, thr


@st.composite
def adversarial_scan_cases(draw):
    """Cases that leave work for the deeper depths and the full scan.

    Table entries come from {0, +-p, 2p} plus a few spikes, so many classes
    tie at the minimum, and the threshold is small next to the spikes, so
    first witnesses often lie beyond k = BLOCK or nowhere.  Rows repeat as
    scalar multiples of a few base rows, which share best.
    """
    p = draw(st.sampled_from(odd_primes_in(11, 31)))
    r = draw(st.integers(1, 4))
    half = (p - 1) // 2
    S = np.zeros((r, p), dtype=np.int64)
    for j in range(r):
        row = draw(st.lists(st.sampled_from((0, p, -p, 2 * p)), min_size=half, max_size=half))
        S[j, 1 : half + 1] = row
    spikes = st.tuples(st.integers(0, r - 1), st.integers(1, half), st.sampled_from((5 * p, -5 * p)))
    for j, a, v in draw(st.lists(spikes, max_size=3)):
        S[j, a] = v
    S[:, half + 1 :] = S[:, half:0:-1]
    vec = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).filter(any)
    base = draw(st.lists(vec, min_size=1, max_size=4))
    picks = st.tuples(st.integers(0, len(base) - 1), st.integers(1, p - 1))
    xs = [[c * v % p for v in base[b]] for b, c in draw(st.lists(picks, min_size=1, max_size=24))]
    return p, S, np.array(xs, dtype=np.int64), draw(st.integers(-2, 2)), draw(st.integers(0, 4))


@given(st.one_of(scan_cases(), adversarial_scan_cases()), st.data())
def test_scan_kernel_matches_elementwise_loop(case, data):
    # least, the best known before the scan, is TOP, the exact minimum or
    # a value around the rows' exact bests: first never depends on it, and
    # the minimum of best is exact up to it
    p, S, xs, s1, thr = case
    bound = loop_scan(xs, S, p, s1, thr, k_max=1)[1]
    exact = loop_scan(xs, S, p, s1, thr)[1]
    lo, hi = int(exact.min()), int(exact.max())
    least = data.draw(st.sampled_from((TOP, lo)) | st.integers(lo - 2 * p, hi + 2 * p), label="least")
    got = scan_classes(xs, S, s1, p, thr, bound, least)
    assert_bounded_scan(got, xs, S, p, s1, thr, least)
    # column-major and row-strided copies of the same rows give identical outputs
    for rows in (np.asfortranarray(xs), np.repeat(xs, 3, axis=0)[::3]):
        for a, b in zip(scan_classes(rows, S, s1, p, thr, bound, least), got, strict=True):
            assert np.array_equal(a, b)


@given(st.one_of(scan_cases(), adversarial_scan_cases()), st.integers(1, 16))
def test_scan_kernel_in_tiny_blocks_matches_elementwise_loop(case, cells):
    # 1 to 4 rows per depth-BLOCK batch and few rows per full-scan batch:
    # the bound carries across many batch edges
    p, S, xs, s1, thr = case
    bound = loop_scan(xs, S, p, s1, thr, k_max=1)[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "CELLS", cells)
        got = scan_classes(xs, S, s1, p, thr, bound, TOP)
    assert_bounded_scan(got, xs, S, p, s1, thr)


@st.composite
def rung_one_cases(draw):
    """A primary part (p <= 31, rank 1-5, any signs), a table with rows
    symmetric under a -> p-a and any S[:, 0], s1 and a threshold on the
    scale of the table."""
    p = draw(st.sampled_from(odd_primes_in(3, 31)))
    r = draw(st.integers(1, 5))
    signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=r, max_size=r)))
    half = (p - 1) // 2
    S = np.zeros((r, p), dtype=np.int64)
    for j in range(r):
        row = draw(st.lists(st.integers(-2 * p * p, 2 * p * p), min_size=half + 1, max_size=half + 1))
        S[j, : half + 1] = row
        S[j, half + 1 :] = row[:0:-1]
    s1 = draw(st.integers(-2 * p, 2 * p))
    thr = draw(st.integers(0, 3 * p))
    return form_part(p, signs), S, s1, thr


@settings(deadline=None)
@given(rung_one_cases(), st.none() | st.integers(1, 16))
def test_rung_one_enumerator_matches_the_class_oracle(case, cells):
    # the seed, and given least the witnessed classes below it, at every
    # distinct k = 1 bound and at TOP (so every class is written out once):
    # coordinates and k = 1 bounds, and the point count and the
    # smallest witnessed bound, also with 1 to 16 cells of scratch (slabs
    # of one grid row)
    part, S, s1, thr = case
    p = part.p
    xs, sizes = enumerate_isotropic_classes(part)
    bound = loop_scan(xs, S, p, s1, thr, k_max=1)[1] if len(xs) else sizes
    hit = bound > p * thr
    leasts = [None, TOP, *sorted(set(bound.tolist()))]
    with pytest.MonkeyPatch.context() as patch:
        if cells:
            patch.setattr(kernels, "CELLS", cells)
        ones = [enumerate_rung_one(part, S, s1, thr, least) for least in leasts]
    for least, one in zip(leasts, ones):
        rows = np.flatnonzero(~hit if least is None else hit & (bound < least))
        assert np.array_equal(one.xs, xs[rows].reshape(-1, part.rank))
        assert np.array_equal(one.bound, bound[rows])
        assert (one.points, one.low) == (sizes.sum(), bound[hit].min(initial=TOP))


@settings(deadline=None)
@given(rung_one_cases())
def test_per_prime_pipeline_matches_loop_over_the_oracle_classes(case):
    # each seed class's first witness (every other class's is 1) and the
    # margin: one scan of the seed, the classes the oracle's k = 1 bounds
    # leave unwitnessed, and a second of the witnessed classes left below
    # its minimum
    part, S, s1, thr = case
    xs, _ = enumerate_isotropic_classes(part)
    assume(len(xs))
    one = enumerate_rung_one(part, S, s1, thr)
    first, least = obstruction._settle(part, one, S, s1, thr)
    seed = loop_scan(xs, S, part.p, s1, thr, k_max=1)[1] <= part.p * thr
    want_first, want_best = loop_scan(xs, S, part.p, s1, thr, k_max=(part.p - 1) // 2)
    assert np.array_equal(one.xs, xs[seed].reshape(-1, part.rank))
    assert np.array_equal(first, want_first[seed])
    assert (want_first[~seed] == 1).all()
    assert least == want_best.min()
