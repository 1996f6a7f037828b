import math

import pytest
from hypothesis import example, given, strategies as st

from ecledger.arith import (
    DomainError,
    factorize,
    integer_cubic_roots,
    iroot_exact,
    is_prime,
    kronecker_symbol,
    primes_up_to,
    rational_valuation,
    square_divisors,
    valuation,
)
from fractions import Fraction

from test_cli_contracts import python


def brute_primes(bound):
    return [n for n in range(2, bound + 1) if all(n % d for d in range(2, n))]


def test_primes_up_to_matches_trial_division():
    assert primes_up_to(200) == brute_primes(200)
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_primes_up_to_at_prime_squares():
    # the sieve stops at isqrt(bound): a bound at q^2 - 1, q^2 or q^2 + 1 must
    # still strike out q^2
    primes = [m for m in range(97**2 + 2) if is_prime(m)]
    for q in primes_up_to(100):
        for n in (q * q - 1, q * q, q * q + 1):
            assert primes_up_to(n) == [m for m in primes if m <= n]


def test_is_prime_small_range():
    expected = set(brute_primes(500))
    for n in range(-3, 501):
        assert is_prime(n) == (n in expected)


def test_is_prime_agrees_with_the_sieve_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == primes_up_to(10**5)


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to every prime base up to 7, 31 and 37 respectively
    assert not is_prime(n)


def test_is_prime_proves_a_15_digit_prime():
    # the discriminant of y^2 + y = x^3 + x + 1000166
    assert is_prime(432143651940139)


def test_valuation_exact():
    assert valuation(50625, 5) == 4
    assert valuation(50625, 3) == 4
    assert valuation(1, 7) == 0
    assert valuation(-48, 2) == 4
    with pytest.raises(DomainError):
        valuation(0, 3)


def test_rational_valuation():
    assert rational_valuation(Fraction(9, 25), 5) == -2
    assert rational_valuation(Fraction(9, 25), 3) == 2
    assert rational_valuation(Fraction(111284641, 50625), 5) == -4


def test_legendre_against_exhaustive_squares():
    # at an odd prime p the Kronecker symbol is the Legendre symbol, negative a included
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-2 * p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert kronecker_symbol(a, p) == expected


def test_kronecker_matches_legendre_at_odd_primes():
    # the Legendre symbol by Euler's criterion: a^((p-1)/2) mod p
    for p in (3, 5, 7, 13, 101):
        for a in range(-20, 21):
            euler = pow(a, (p - 1) // 2, p)
            assert kronecker_symbol(a, p) == (-1 if euler == p - 1 else euler)


@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=-500, max_value=500))
def test_kronecker_multiplicative_mod_11(a, b):
    assert kronecker_symbol(a * b, 11) == kronecker_symbol(a, 11) * kronecker_symbol(b, 11)


def test_kronecker_at_two():
    # (a/2) = 0, 1, -1 according to a mod 8
    assert [kronecker_symbol(a, 2) for a in range(8)] == [0, 1, 0, -1, 0, -1, 0, 1]
    for bad in (0, -3):
        with pytest.raises(DomainError):
            kronecker_symbol(3, bad)


@given(st.integers(min_value=1, max_value=5000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n).items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_factorize_stops_at_a_prime_cofactor():
    # the discriminant of 1,0,1,860258,402266 was trial-divided up to the square
    # root of its 19-digit prime factor, past a 10 s timeout; in a subprocess, so a hang fails
    done = python(["-c", "from ecledger.arith import factorize; print(factorize(6 * 6790724518595444563))"], 10)
    assert done.stdout == b"{2: 1, 3: 1, 6790724518595444563: 1}\n"


def test_integer_cubic_roots_against_brute_force():
    # |X|^3 = |AX + C| <= 60|X| + 300 forces |X| <= 9, so X in [-20, 20]
    # finds every integer root of every X^3 + AX + C with |A| <= 60, |C| <= 300.
    roots = {}
    for X in range(-20, 21):
        for A in range(-60, 61):
            C = -(X**3 + A * X)
            if abs(C) <= 300:
                roots.setdefault((A, C), []).append(X)
    for A in range(-60, 61):
        for C in range(-300, 301):
            assert integer_cubic_roots(A, C) == roots.get((A, C), [])


def _monic_depressed(roots):
    r1, r2, r3 = roots
    assert r1 + r2 + r3 == 0
    return r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


@pytest.mark.parametrize("r1, r2", [
    (0, 0), (1, 1), (-1, -1), (10**17 + 3, 10**17 + 3), (10**18, -10**18), (10**18, 10**18 - 1),
])
def test_integer_cubic_roots_at_repeated_and_extreme_roots(r1, r2):
    A, C = _monic_depressed((r1, r2, -r1 - r2))
    assert integer_cubic_roots(A, C) == sorted({r1, r2, -r1 - r2})


@given(st.integers(-10**18, 10**18), st.integers(-10**18, 10**18))
def test_integer_cubic_roots_recovers_three_integer_roots(r1, r2):
    A, C = _monic_depressed((r1, r2, -r1 - r2))
    assert integer_cubic_roots(A, C) == sorted({r1, r2, -r1 - r2})


@given(st.integers(-10**18, 10**18), st.integers(-10**18, 10**18))
@example(10**17 + 3, 5)  # x^3 + (5 - r^2)x - 5r, a curve's 2-division cubic
def test_integer_cubic_roots_with_one_integer_root(r, s):
    # (X - r)(X^2 + rX + s); the quadratic has no integer root unless
    # r^2 - 4s is a square, in which case its roots are added too.
    disc = r * r - 4 * s
    expected = {r}
    if disc >= 0 and math.isqrt(disc) ** 2 == disc and (r + math.isqrt(disc)) % 2 == 0:
        expected |= {(-r + math.isqrt(disc)) // 2, (-r - math.isqrt(disc)) // 2}
    assert integer_cubic_roots(s - r * r, -r * s) == sorted(expected)


def test_square_divisors():
    # divisors d with d^2 | n, for n = 720 = 2^4 3^2 5
    assert sorted(square_divisors(factorize(720))) == [1, 2, 3, 4, 6, 12]


def test_iroot_exact_beyond_float_range():
    assert iroot_exact(10**408, 12) == 10**34
    assert iroot_exact(10**408 + 1, 12) is None
    for n in range(200):
        for k in (1, 2, 3, 12):
            r = round(n ** (1 / k))
            assert iroot_exact(n, k) == next((c for c in (r - 1, r, r + 1) if c >= 0 and c**k == n), None)
