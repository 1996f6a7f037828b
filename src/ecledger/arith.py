"""Exact integer, rational and modular arithmetic primitives.

Everything here is pure and desk-scale: plain ints, ``fractions.Fraction``
for rationals (always normalized, positive denominator), and small helper
functions for modular arithmetic.  No floating point anywhere.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import compress


class DomainError(ValueError):
    """An argument violates a mathematical precondition."""


# Entries kept by the is_prime and factorize caches: a ledger reads a handful
# of each, and a process that runs ledger after ledger keeps only the latest.
CACHE_SIZE = 128
# Sieves kept by primes_up_to: a ledger reads at most two bounds, the
# certificates' prime bound and the series' number of terms.
SIEVE_CACHE_SIZE = 4

# Strong probable-prime tests to the first k prime bases decide primality of
# every n below the least strong pseudoprime to those bases (Jaeschke, Math.
# Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)).  is_prime
# takes the fewest bases whose bound lies above n: (bound, k) for k = 4, 7,
# 9, 12 and 13, the last bound being MILLER_RABIN_BOUND.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
MILLER_RABIN_TIERS = (
    (3_215_031_751, 4),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (MILLER_RABIN_BOUND, 13),
)


@lru_cache(maxsize=CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Deterministic primality, cached: every valuation and every PadicNumber
    checks its p, so a ledger proves each p once.  Miller-Rabin to the first
    bases of MILLER_RABIN_BASES that MILLER_RABIN_TIERS names for n; from
    MILLER_RABIN_BOUND on, a DomainError unless a base divides n."""
    if n < 2:
        return False
    for q in MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    if n >= MILLER_RABIN_BOUND:
        raise DomainError(f"primality of {n} is not decided at or above {MILLER_RABIN_BOUND}")
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    count = next(k for bound, k in MILLER_RABIN_TIERS if n < bound)
    for a in MILLER_RABIN_BASES[:count]:  # strong probable prime: a^d = 1 or a^(d 2^i) = -1 for an i < s
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


@lru_cache(maxsize=SIEVE_CACHE_SIZE)
def primes_up_to(bound: int) -> tuple[int, ...]:
    """All primes <= bound, ascending (Eratosthenes), cached: every Frobenius
    sweep of a process reads the same few sieves.  A tuple, so no caller can
    change what the next one reads."""
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(compress(range(bound + 1), sieve))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n.  n must be nonzero."""
    if n == 0:
        raise DomainError("valuation of 0 is undefined")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def rational_valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if x == 0:
        raise DomainError("valuation of 0 is undefined")
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1: the Jacobi symbol extended to even n."""
    if n < 1:
        raise DomainError(f"Kronecker symbol needs n >= 1, got {n}")
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    # Jacobi symbol by quadratic reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def iroot_exact(n: int, k: int) -> int | None:
    """Integer k-th root of n >= 0 if exact, else None.

    The least r with r^k >= n, by ``bisect_least`` below 2^ceil(bits/k),
    whose k-th power is at least 2^bits > n; it is the root iff r^k = n.
    """
    if n < 0:
        return None
    r = bisect_least(lambda x: x**k >= n, 0, 1 << -(-n.bit_length() // k))
    return r if r**k == n else None


def square_divisors(fac: dict[int, int]) -> list[int]:
    """All d >= 1, ascending, with d*d dividing the number whose factorization is fac."""
    out = [1]
    for p, e in fac.items():
        out = [d * p**k for d in out for k in range(e // 2 + 1)]
    return sorted(out)


@lru_cache(maxsize=CACHE_SIZE)
def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division, cached: the local data
    and torsion each read the discriminant's, so it is trial-divided once.
    After 2 and 3, and after each later prime divided out, a cofactor below
    MILLER_RABIN_BOUND that trial division would go on with is tested, and
    division stops once it is prime: a large prime cofactor is never
    trial-divided.  Callers share the dict and must not mutate it."""
    n = abs(n)
    if n == 0:
        raise DomainError("factorization of 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    prime = d * d <= n < MILLER_RABIN_BOUND and is_prime(n)
    while not prime and d * d <= n:
        for q in (d, d + 2):
            if n % q == 0:
                while n % q == 0:
                    out[q] = out.get(q, 0) + 1
                    n //= q
                prime = d * d <= n < MILLER_RABIN_BOUND and is_prime(n)
        d += 6
    if n > 1:
        out[n] = 1
    return out


def bisect_least(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """The least X in [lo, hi] where pred holds, by exact bisection; pred must
    be false, then true, on [lo, hi].  hi when pred holds nowhere below it."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def integer_cubic_roots(A: int, C: int) -> list[int]:
    """The integer roots of X^3 + A X + C, ascending, by exact bisection.

    A root has |X|^3 = |A X + C| <= |A||X| + |C|, so X^2 <= 2|A| or
    |X|^3 <= 2|C|: every root lies below the least power of two B with
    B^2 > 2|A| and B^3 > 2|C|.  For A < 0 the cubic is monotone on each side
    of its critical points +-sqrt(-A/3); with c = floor(sqrt(-A/3)) it is
    increasing on [.., -c - 1], decreasing on [-c, c] and increasing on
    [c + 1, ..], so each piece holds at most one root.  B^2 > 2|A| >= 6c^2
    gives B >= c + 1, so the pieces are disjoint.  For A >= 0 it is
    increasing throughout.
    """

    def f(X: int) -> int:
        return (X * X + A) * X + C

    bound = 1 << max(((2 * abs(A)).bit_length() + 1) // 2, ((2 * abs(C)).bit_length() + 2) // 3)
    if A < 0:
        c = math.isqrt(-A // 3)
        pieces = ((-bound, -c - 1, 1), (-c, c, -1), (c + 1, bound, 1))
    else:
        pieces = ((-bound, bound, 1),)
    least = (bisect_least(lambda X: sign * f(X) >= 0, a, b) for a, b, sign in pieces)
    return [X for X in least if f(X) == 0]
