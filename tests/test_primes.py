from bisect import bisect_left, bisect_right
from random import Random

import pytest

from cgobstruct.primes import LIMIT, is_odd_prime, is_prime, odd_prime_count_floor, odd_primes_in, primitive_root


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_sieve_to_10000():
    sieve = bytearray([1]) * 10001
    sieve[0] = sieve[1] = 0
    for i in range(2, 101):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(10001):
        assert is_prime(n) == bool(sieve[n]), n


def test_is_odd_prime():
    assert not is_odd_prime(2)
    assert is_odd_prime(3)
    assert is_odd_prime(103)
    assert not is_odd_prime(1)
    assert not is_odd_prime(9)


def test_odd_primes_in():
    assert odd_primes_in(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert odd_primes_in(2, 3) == [3]
    assert odd_primes_in(83, 103) == [83, 89, 97, 101, 103]
    assert odd_primes_in(24, 28) == []


def test_odd_prime_count_floor_never_exceeds_the_count():
    # Rosser-Schoenfeld bounds, floored and lowered by one, against the true
    # count of odd primes on a few hundred intervals, edges and empty ones included
    primes = odd_primes_in(3, 100_003)
    rng = Random(16)
    cases = [(lo, hi) for lo in range(-2, 20) for hi in range(lo - 1, 40)]
    cases += [(lo, lo + rng.randrange(0, 5_000)) for lo in rng.sample(range(3, 95_000), 300)]
    cases += [(3, hi) for hi in rng.sample(range(17, 100_003), 100)]
    for lo, hi in cases:
        count = bisect_right(primes, hi) - bisect_left(primes, lo)
        assert 0 <= odd_prime_count_floor(lo, hi) <= count, (lo, hi)
    assert (odd_prime_count_floor(3, 6000), len(primes[: bisect_right(primes, 6000)])) == (685, 782)
    assert odd_prime_count_floor(3, 1_000_003) == 72_377  # 78,498 odd primes


def test_is_prime_refuses_numbers_beyond_exact_witness_set():
    # the least strong pseudoprime to bases 2..17 would pass every witness
    assert LIMIT == 341_550_071_728_321 == 10_670_053 * 32_010_157
    for n in (LIMIT, LIMIT + 2, 10**20):
        with pytest.raises(ValueError, match="too large for the exact primality test"):
            is_prime(n)
    with pytest.raises(ValueError, match="too large"):
        odd_primes_in(LIMIT - 4, LIMIT)


def test_is_prime_below_the_limit():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 + 1)  # 3 * 715827883
    assert is_prime(341_550_071_728_289)  # the largest prime below LIMIT
    assert not is_prime(LIMIT - 1)
    assert not is_prime(10_670_053 * 32_010_151)  # a composite just below LIMIT


def test_primitive_root_is_the_smallest_generator():
    # by brute force: the order of g mod p is the length of its power cycle
    def order(g, p):
        k, x = 1, g
        while x != 1:
            k, x = k + 1, x * g % p
        return k

    for p in odd_primes_in(3, 1013):
        g = primitive_root(p)
        assert order(g, p) == p - 1, p
        assert all(order(a, p) < p - 1 for a in range(2, g)), p
