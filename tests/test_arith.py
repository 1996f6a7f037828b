import pytest
from hypothesis import given, strategies as st

from ecledger.arith import (
    DomainError,
    divisors,
    factorize,
    iroot_exact,
    is_prime,
    kronecker_symbol,
    legendre_symbol,
    primes_up_to,
    rational_valuation,
    square_divisors,
    valuation,
)
from fractions import Fraction


def brute_primes(bound):
    return [n for n in range(2, bound + 1) if all(n % d for d in range(2, n))]


def test_primes_up_to_matches_trial_division():
    assert primes_up_to(200) == brute_primes(200)
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]


def test_is_prime_small_range():
    expected = set(brute_primes(500))
    for n in range(-3, 501):
        assert is_prime(n) == (n in expected)


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
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre_symbol(a, p) == expected


def test_legendre_rejects_non_odd_prime():
    for bad in (2, 4, 9, 15):
        with pytest.raises(DomainError):
            legendre_symbol(3, bad)


@given(st.integers(min_value=-500, max_value=500), st.integers(min_value=-500, max_value=500))
def test_legendre_multiplicative_mod_11(a, b):
    assert legendre_symbol(a * b, 11) == legendre_symbol(a, 11) * legendre_symbol(b, 11)


def test_kronecker_matches_legendre_at_odd_primes():
    for p in (3, 5, 7, 13):
        for a in range(-20, 21):
            assert kronecker_symbol(a, p) == legendre_symbol(a, p)


def test_kronecker_at_two():
    # (a/2) = 0, 1, -1 according to a mod 8
    assert [kronecker_symbol(a, 2) for a in range(8)] == [0, 1, 0, -1, 0, -1, 0, 1]


@given(st.integers(min_value=1, max_value=5000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n).items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_complete(n):
    ds = divisors(n)
    assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


def test_square_divisors():
    # divisors d with d^2 | n, for n = 720 = 2^4 3^2 5
    assert sorted(square_divisors(720)) == [1, 2, 3, 4, 6, 12]


def test_iroot_exact_beyond_float_range():
    assert iroot_exact(10**408, 12) == 10**34
    assert iroot_exact(10**408 + 1, 12) is None
    for n in range(200):
        for k in (1, 2, 3, 12):
            r = round(n ** (1 / k))
            assert iroot_exact(n, k) == next((c for c in (r - 1, r, r + 1) if c >= 0 and c**k == n), None)
