import random

import pytest

from ecledger.arith import primes_up_to
from ecledger.curve import E1, E2, SingularCurveError, WeierstrassCurve
from ecledger.local_data import (
    LocalData,
    ReductionKind,
    UnsupportedReductionError,
    bad_primes,
    conductor_semistable,
    kodaira_and_tamagawa,
    reduction_type,
    tamagawa_product,
)

rng = random.Random(31415)


def local_data(C):
    """{bad prime p: LocalData}, as the ledger builds it once per curve."""
    return {p: kodaira_and_tamagawa(C, p) for p in bad_primes(C)}


def smooth_point_count_oracle(C: WeierstrassCurve, p: int) -> int:
    """#E^ns(F_p) by brute force: affine nonsingular points plus infinity.

    A point is singular iff both partials of F = y^2 + a1xy + a3y - x^3 - ... vanish.
    For multiplicative reduction this is p-1 (split) or p+1 (nonsplit).
    """
    a1, a2, a3, a4, a6 = (a % p for a in C.coefficients())
    count = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % p:
                continue
            dx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % p
            dy = (2 * y + a1 * x + a3) % p
            if dx or dy:
                count += 1
    return count


def test_bad_primes():
    assert bad_primes(E1) == [3, 5]
    assert bad_primes(E2) == [3, 5]


def test_reduction_kinds_of_the_pair():
    for C in (E1, E2):
        assert reduction_type(C, 3) is ReductionKind.MULT_NONSPLIT
        assert reduction_type(C, 5) is ReductionKind.MULT_SPLIT
        assert reduction_type(C, 7) is ReductionKind.GOOD


def test_kodaira_and_tamagawa_E1():
    d3 = kodaira_and_tamagawa(E1, 3)
    d5 = kodaira_and_tamagawa(E1, 5)
    assert (d3.kodaira, d3.tamagawa) == ("I4", 2)  # nonsplit, 4 even -> 2
    assert (d5.kodaira, d5.tamagawa) == ("I4", 4)  # split -> n
    assert tamagawa_product(local_data(E1)) == 8


def test_kodaira_and_tamagawa_at_a_good_prime():
    assert kodaira_and_tamagawa(E1, 7) == LocalData(7, ReductionKind.GOOD, 0, 1)
    assert kodaira_and_tamagawa(E1, 7).kodaira == "I0"


def test_tamagawa_product_E2_power_of_two():
    prod = tamagawa_product(local_data(E2))
    assert prod & (prod - 1) == 0 and prod > 0


def test_conductor_semistable():
    assert conductor_semistable(local_data(E1)) == 15
    assert conductor_semistable(local_data(E2)) == 15


def test_additive_reduction_unsupported():
    C = WeierstrassCurve(0, 0, 0, 0, 1)  # disc -432, additive at 2 and 3
    with pytest.raises(UnsupportedReductionError):
        reduction_type(C, 3)
    with pytest.raises(UnsupportedReductionError):
        local_data(C)


def test_split_test_against_smooth_count_oracle():
    checked = 0
    while checked < 25:
        p = rng.choice([p for p in primes_up_to(50) if p > 2])
        try:
            C = WeierstrassCurve(*(rng.randrange(-8, 9) for _ in range(5)))
        except SingularCurveError:
            continue
        if C.discriminant() % p:
            continue
        try:
            kind = reduction_type(C, p)
        except (UnsupportedReductionError, Exception) as err:
            if isinstance(err, UnsupportedReductionError):
                continue
            raise
        expected = p - 1 if kind is ReductionKind.MULT_SPLIT else p + 1
        assert smooth_point_count_oracle(C, p) == expected
        checked += 1


def test_split_test_at_two():
    # 15A1 pair has good reduction at 2; build multiplicative-at-2 fixtures
    # y^2 + xy + a3 y = x^3 + ... with disc even.  Both values of a3 make the
    # split test read a2 + a3, not a2 alone.
    for a3 in (0, 1):
        found = {ReductionKind.MULT_SPLIT: 0, ReductionKind.MULT_NONSPLIT: 0}
        for a2 in range(-4, 5):
            for a4 in range(-4, 5):
                for a6 in range(-4, 5):
                    try:
                        C = WeierstrassCurve(1, a2, a3, a4, a6)
                    except SingularCurveError:
                        continue
                    if C.discriminant() % 2:
                        continue
                    try:
                        kind = reduction_type(C, 2)
                    except UnsupportedReductionError:
                        continue
                    expected = 1 if kind is ReductionKind.MULT_SPLIT else 3
                    assert smooth_point_count_oracle(C, 2) == expected
                    found[kind] += 1
        assert min(found.values()) > 10


def test_local_data_all_ordering():
    data = local_data(E1)
    assert [d.p for d in data.values()] == list(data) == [3, 5]
    assert all(d.kodaira_n == 4 for d in data.values())
