"""Small deterministic primality helpers.

Miller-Rabin with the witness set {2, 3, 5, 7, 11, 13, 17} is exact below
341,550,071,728,321 = 10,670,053 * 32,010,157, the least strong
pseudoprime to all of those bases.  `is_prime` refuses larger numbers
instead of answering without proof.
"""

from __future__ import annotations

from math import floor, log

_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
LIMIT = 341_550_071_728_321


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= LIMIT."""
    if n < 2:
        return False
    if n >= LIMIT:
        raise ValueError(f"{n} is too large for the exact primality test (it needs n < {LIMIT})")
    for w in _WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(n: int) -> bool:
    return n != 2 and is_prime(n)


def odd_primes_in(lo: int, hi: int) -> list[int]:
    """Odd primes p with lo <= p <= hi, ascending."""
    start = max(lo, 3)
    if start % 2 == 0:
        start += 1
    return [n for n in range(start, hi + 1, 2) if is_prime(n)]


def odd_prime_count_floor(lo: int, hi: int) -> int:
    """A lower bound on len(odd_primes_in(lo, hi)) that tests no number.

    Rosser and Schoenfeld (1962): pi(x) > x/ln x for x >= 17 and pi(x) <
    1.25506*x/ln x for x > 1.  The odd primes in [lo, hi] number pi(hi) -
    pi(a) with a = max(lo, 3) - 1 >= 2; the difference of the two bounds
    is floored and one is taken off, so float rounding cannot raise it.
    """
    a = max(lo, 3) - 1
    if hi < 17:
        return 0
    return max(0, floor(hi / log(hi) - 1.25506 * a / log(a)) - 1)
