"""Property tests: knot string round trips and the int64 budget boundary."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from cgobstruct import GAKnot, Piece, format_knot, parse_knot
from cgobstruct.kernels import assert_int64_budget
from cgobstruct.primes import odd_primes_in

PRIMES = odd_primes_in(3, 211)
BUDGET = 2**62

pieces = st.builds(
    lambda p, k, sign: (p, 2 * k + 1, sign),
    st.sampled_from(PRIMES),
    st.integers(0, 60),
    st.sampled_from((1, -1)),
).filter(lambda t: t[1] % t[0] != 0).map(lambda t: Piece(t[1], t[0], t[2]))

knots = st.lists(pieces, min_size=1, max_size=12).map(lambda ps: GAKnot(tuple(ps)))


@given(knots)
def test_parse_inverts_format(K):
    assert parse_knot(format_knot(K)) == K


@given(knots)
def test_parse_ignores_whitespace(K):
    assert parse_knot(" " + format_knot(K).replace("#", " \t# ") + "\n") == K


def _tables_with_peak(peak, r, p, thr, emax, negative):
    """Sigma/eta tables and s1 whose int64 peak estimate is exactly peak.

    The estimate is r*max|S| + p*|s1| + p*(thr + r + r*max E); s1 is
    chosen mod r (gcd(p, r) = 1 as p > r) so the rest divides by r.
    """
    base = p * (thr + r + r * emax)
    s1 = (peak - base) * pow(p, -1, r) % r
    smax, rem = divmod(peak - base - p * s1, r)
    assert rem == 0
    S = np.zeros((r, p), dtype=np.int64)
    S[r - 1, 1] = -smax if negative else smax
    E = np.zeros((r, p), dtype=np.int64)
    E[0, 1] = emax
    return S, E, -s1 if negative else s1


budget_inputs = st.tuples(
    st.integers(1, 8),
    st.sampled_from([p for p in PRIMES if p > 8]),
    st.integers(1, 41),
    st.integers(0, 3),
    st.booleans(),
)


@given(budget_inputs)
def test_int64_budget_passes_just_below_the_limit(args):
    r, p, thr, emax, negative = args
    S, E, s1 = _tables_with_peak(BUDGET - 1, r, p, thr, emax, negative)
    assert_int64_budget(S, E, p, s1, thr)


@given(budget_inputs)
def test_int64_budget_raises_at_the_limit(args):
    r, p, thr, emax, negative = args
    S, E, s1 = _tables_with_peak(BUDGET, r, p, thr, emax, negative)
    with pytest.raises(OverflowError):
        assert_int64_budget(S, E, p, s1, thr)
