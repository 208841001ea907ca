"""Property tests: knot string round trips, the int64 budget boundary,
the closed-form sigma table rows against a double precision eigenvalue
count, the net-sign signature function against the per-piece sweep, the
branch-and-bound scan kernel against an element-wise loop, on random
and on adversarial tables and in blocks of a few cells, and whole
primary-part results, witnesses included, against a point-by-point scan."""

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
    format_knot,
    parse_knot,
    primary_parts,
    signature_at_minus_one,
    signature_function_samples,
    verify_primary_part,
)
from cgobstruct import kernels
from cgobstruct.kernels import assert_int64_budget, scan_classes
from cgobstruct.primes import odd_primes_in

from oracles import assert_bounded_scan, eigen_signature, full_scan, piece_signature_samples

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
    assert parse_knot(format_knot(K)) == K


@given(knots)
def test_parse_ignores_whitespace(K):
    assert parse_knot(" " + format_knot(K).replace("#", " \t# ") + "\n") == K


@settings(deadline=None)
@given(valid_pieces(43))
def test_sigma_table_rows_match_eigenvalue_engine(pc):
    # the rows use the lattice-count closed form; the oracle counts the
    # signs of double precision eigenvalues, refusing any in its ambiguity band
    p, qc = pc.cable_p, pc.companion_q
    tab = build_sigma_tables(GAKnot((pc,)), p)
    assert tab.scaled_sigma[0, 0] == tab.eta_arr[0, 0] == 0
    for a in range(1, p):
        want = pc.sign * (-p + Fraction(2 * a * (p - a), p) + 2 * eigen_signature(qc, a, p))
        assert tab.scaled_sigma[0, a] == p * want
        assert Fraction(int(tab.scaled_sigma[0, a]), p) == want
        assert tab.eta_arr[0, a] == eta_cable(qc, p, a)


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
@given(st.lists(small_pieces, min_size=1, max_size=5).map(GAKnot))
def test_verify_primary_part_matches_point_by_point_scan(K):
    # witnesses are the first witnessed points of the stream, each with its
    # class's smallest k, for any number asked for
    s1 = signature_at_minus_one(K)
    for part in primary_parts(K):
        tab = build_sigma_tables(K, part.p)
        points = list(enumerate_projective_isotropic(part))
        for g in (1, 2):
            for max_witnesses in (0, 1, 3, 10, 10**6):
                got = verify_primary_part(part, tab, g, s1, max_witnesses=max_witnesses)
                assert got == full_scan(points, tab, g, s1, max_witnesses)


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


@given(st.one_of(scan_cases(), adversarial_scan_cases()))
def test_scan_kernel_matches_elementwise_loop(case):
    p, S, xs, s1, thr = case
    got = scan_classes(xs, S, s1, p, thr)
    assert_bounded_scan(got, xs, S, p, s1, thr)
    # column-major and row-strided copies of the same rows give identical outputs
    for rows in (np.asfortranarray(xs), np.repeat(xs, 3, axis=0)[::3]):
        for a, b in zip(scan_classes(rows, S, s1, p, thr), got, strict=True):
            assert np.array_equal(a, b)


@given(st.one_of(scan_cases(), adversarial_scan_cases()), st.integers(1, 16))
def test_scan_kernel_in_tiny_blocks_matches_elementwise_loop(case, cells):
    # 1 to 16 rows per depth-1 block, 1 to 4 per depth-BLOCK batch and few
    # rows per full-scan batch: the bound carries across many block edges
    p, S, xs, s1, thr = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "CELLS", cells)
        got = scan_classes(xs, S, s1, p, thr)
    assert_bounded_scan(got, xs, S, p, s1, thr)
