import hashlib
import math
import random

import pytest

from ecledger import counting
from ecledger.arith import legendre_symbol, primes_up_to
from ecledger.cli import main
from ecledger.counting import (
    OrdinaryCriterionRow,
    count_points,
    count_points_naive,
    frobenius_table,
    hasse_contradiction_symbolic,
    trace_ap,
    verify_ordinary_criterion,
)
from ecledger.curve import E1, E2, SingularCurveError, WeierstrassCurve


def hasse_interval(p: int) -> tuple[int, int]:
    """Closed integer interval containing #E(F_p): |a_p| <= floor(2 sqrt p)."""
    m = math.isqrt(4 * p)
    return (p + 1 - m, p + 1 + m)


ORACLE_PRIMES = primes_up_to(200)[1:]  # every odd p < 200; 3, 5 and 7 mirror the shortest tables
NAMED_CURVES = {
    "15a1": E1.coefficients(),
    "15a3": E2.coefficients(),
    "11a1": (0, -1, 1, -10, -20),
    "14a1": (1, 0, 1, 4, -6),
    "37a1": (0, 0, 1, -1, 0),
}
# b2, b4 and b6 far above p^2 and 2^63, so the kernel must reduce them first
BIG_MODEL = WeierstrassCurve(1, 3 * 10**18 + 1, 1, -5 * 10**18 - 7, 4 * 10**18 + 3)


def assert_counts_match_oracle(C):
    good = [p for p in ORACLE_PRIMES if C.discriminant() % p]
    assert [count_points(C, p) for p in good] == [count_points_naive(C, p) for p in good]


@pytest.mark.parametrize("name", sorted(NAMED_CURVES))
def test_count_matches_oracle_at_every_small_prime(name):
    assert_counts_match_oracle(WeierstrassCurve(*NAMED_CURVES[name]))


def test_count_matches_naive_oracle():
    box = random.Random(2718)
    models = []
    while len(models) < 20:
        try:
            models.append(WeierstrassCurve(box.randint(0, 1), box.randint(-1, 1), box.randint(0, 1),
                                           box.randint(-50, 50), box.randint(-50, 50)))
        except SingularCurveError:
            continue
    for C in models:
        assert_counts_match_oracle(C)


def test_count_matches_oracle_with_coefficients_beyond_int64():
    assert min(abs(b) for b in BIG_MODEL.b_invariants()[:3]) > 2**63
    assert_counts_match_oracle(BIG_MODEL)


# sha256 of "p a_p\n" over frobenius_table(C, 10_000): the whole default range,
# pinned before the counting kernel was rewritten.  E1 and E2 are isogenous,
# so their traces agree.
SWEEP_SHA256 = {
    "1,1,1,-10,-10": "309d9595d3c50845b2da83a249807ea40df1e9efa4df060e735c7074129fd918",
    "1,1,1,-5,2": "309d9595d3c50845b2da83a249807ea40df1e9efa4df060e735c7074129fd918",
    "0,-1,1,-10,-20": "b5688b60e4b05053ab71c44028765346f6da6818a3948a923601a60589498127",
}


@pytest.mark.parametrize("coeffs", sorted(SWEEP_SHA256))
def test_default_sweep_matches_pinned_digest(coeffs):
    C = WeierstrassCurve(*map(int, coeffs.split(",")))
    listing = "".join(f"{p} {ap}\n" for p, ap in frobenius_table(C, 10_000).items())
    assert hashlib.sha256(listing.encode()).hexdigest() == SWEEP_SHA256[coeffs]


def test_count_points_exact_across_the_int32_range():
    # the kernel computes in int32 while 7p^2 < 2^31 and in int64 above; at
    # the primes on either side, and at 65537 where int32 would overflow,
    # count by Euler's criterion in Python integers
    last32 = max(p for p in primes_up_to(20_000) if 7 * p * p < 2**31)
    first64 = min(p for p in primes_up_to(20_000) if p > last32)
    for C in (E1, BIG_MODEL):
        b2, b4, b6, _ = C.b_invariants()
        for p in (last32, first64, 65_537):
            assert C.discriminant() % p
            euler = sum(legendre_symbol(((4 * x + b2) * x + 2 * b4) * x + b6, p) for x in range(p))
            assert count_points(C, p) == p + 1 + euler


def test_traces_of_E1():
    expected = {2: -1, 7: 0, 11: -4, 13: -2, 17: 2, 19: 4, 23: 0, 29: -2}
    for p, ap in expected.items():
        assert trace_ap(E1, p) == ap


def test_isogenous_curves_share_traces():
    for p in primes_up_to(100):
        if p in (3, 5):
            continue
        assert trace_ap(E1, p) == trace_ap(E2, p)


def test_hasse_bound_on_all_small_primes():
    table = frobenius_table(E1, 500)  # the sweep hard-asserts Hasse
    assert list(table) == [p for p in primes_up_to(500) if E1.discriminant() % p]
    for p, ap in table.items():
        lo, hi = hasse_interval(p)
        assert lo <= p + 1 - ap <= hi


def test_sweep_asserts_the_hasse_bound(monkeypatch, request):
    frobenius_table.cache_clear()
    request.addfinalizer(frobenius_table.cache_clear)  # drop the patched sweeps
    monkeypatch.setattr(counting, "trace_ap", lambda C, p: 5 if p == 7 else 0)  # 5^2 <= 4 * 7
    assert frobenius_table(E1, 7)[7] == 5
    frobenius_table.cache_clear()
    monkeypatch.setattr(counting, "trace_ap", lambda C, p: 6 if p == 7 else 0)  # 6^2 > 4 * 7
    with pytest.raises(AssertionError, match="Hasse bound violated at 7: a_p = 6"):
        frobenius_table(E1, 7)


def test_ordinary_flag(capsys):
    # the count view calls p supersingular iff p | a_p
    assert main(["count", "--prime-bound", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["2", "4", "-1", "ordinary"]  # a_2 = -1
    assert lines[2].split() == ["7", "8", "0", "supersingular"]  # a_7 = 0


def test_ordinary_criterion_sweep():
    failures, symbolic = verify_ordinary_criterion(E1, 8, 1000)
    assert failures == [] and symbolic is True


@pytest.mark.parametrize("coeffs, torsion_order", [((0, -1, 1, -10, -20), 5), ((1, 0, 1, 4, -6), 6)])
def test_ordinary_criterion_rows_are_the_failing_primes(coeffs, torsion_order):
    C = WeierstrassCurve(*coeffs)  # 11a1 fails at a_5 = 1, 14a1 at one prime below 10^4
    expected = []
    for p in primes_up_to(10_000)[1:]:
        if C.discriminant() % p:
            ap = trace_ap(C, p)
            count = p + 1 - ap
            if count % torsion_order or ap % p == 1:
                expected.append(OrdinaryCriterionRow(p, count, ap, count % torsion_order == 0, ap % p != 1))
    failures, _ = verify_ordinary_criterion(C, torsion_order, 10_000)
    assert failures == expected and len(expected) >= 1


def test_torsion_injects_divisibility():
    for p in primes_up_to(200):
        if p == 2 or E1.discriminant() % p == 0:
            continue
        assert count_points(E1, p) % 8 == 0


def test_symbolic_hasse_contradiction():
    # 8p > p + 1 + 2*sqrt(p) for all p >= 2 ... worst case is p = 2
    assert hasse_contradiction_symbolic(8) is True
    # torsion order 1 gives p > p + 1 + 2 sqrt p, never true
    assert hasse_contradiction_symbolic(1) is False


def test_count_points_exact_beyond_int64_horner():
    # Euler-criterion counts in Python integers; at these primes the cubic
    # x^3 term alone overflows int64.
    assert count_points(E1, 1_400_017) == 1_397_792
    assert count_points(E1, 2_000_003) == 2_001_064
    assert count_points(E2, 2_097_143) == 2_098_904  # the largest prime below 2^21


def test_count_points_rejects_primes_beyond_exact_range():
    from ecledger.arith import DomainError
    from ecledger.counting import COUNT_POINTS_MAX_P

    with pytest.raises(DomainError):
        count_points(E1, 1_100_000_009)
    assert 7 * COUNT_POINTS_MAX_P**2 < 2**63


def test_frobenius_table_lists_every_good_prime_once():
    C = WeierstrassCurve(0, -1, 1, -10, -20)  # 11a1
    table = frobenius_table(C, 300)
    assert list(table) == [p for p in primes_up_to(300) if p != 11]
    assert all(ap == trace_ap(C, p) for p, ap in table.items())
    assert frobenius_table(C, 300) == table
    table[2] = 0  # a caller's copy: the sweep keeps its own
    assert frobenius_table(C, 300)[2] == trace_ap(C, 2) != 0


def test_frobenius_table_extends_one_sweep_per_curve(monkeypatch):
    import ecledger.counting as counting

    C = WeierstrassCurve(0, -1, 1, -10, -20)  # 11a1
    frobenius_table.cache_clear()
    calls = []
    real = counting.trace_ap
    monkeypatch.setattr(counting, "trace_ap", lambda C, p: calls.append(p) or real(C, p))
    small = frobenius_table(C, 100)
    large = frobenius_table(C, 300)
    prefix = frobenius_table(C, 50)
    assert calls == [p for p in primes_up_to(300) if p != 11]
    assert list(small.items()) == [(p, ap) for p, ap in large.items() if p <= 100]
    assert list(prefix.items()) == [(p, ap) for p, ap in large.items() if p <= 50]
    assert frobenius_table(C, 100) == small and frobenius_table(C, 50) == prefix
    assert len(calls) == len(large)


def test_frobenius_table_keeps_the_last_curve(monkeypatch):
    import ecledger.counting as counting

    C = WeierstrassCurve(0, -1, 1, -10, -20)  # 11a1
    frobenius_table.cache_clear()
    calls = []
    real = counting.trace_ap
    monkeypatch.setattr(counting, "trace_ap", lambda C, p: calls.append(p) or real(C, p))
    for curve, bad in ((C, 11), (E1, 15), (C, 11)):
        calls.clear()
        table = frobenius_table(curve, 100)
        good = [p for p in primes_up_to(100) if bad % p]
        assert calls == good  # E1 took the one slot, so 11a1 is counted again
        assert table == {p: real(curve, p) for p in good}


def test_ledger_counts_each_prime_once_per_bound(monkeypatch):
    import ecledger.counting as counting
    from ecledger.ledger import LedgerOptions, run_ledger

    calls = []
    real = counting.trace_ap
    monkeypatch.setattr(counting, "trace_ap", lambda C, p: calls.append(p) or real(C, p))
    # the series reads a prefix of the certificates' sweep, or extends it
    for prime_bound, terms in ((400, 200), (200, 400)):
        frobenius_table.cache_clear()
        calls.clear()
        opts = LedgerOptions(prime_bound=prime_bound, l_list=(3, 5), terms=terms, precision_bits=96,
                             padic_digits=12)
        run_ledger(E1, opts)
        assert calls == [p for p in primes_up_to(max(prime_bound, terms)) if 15 % p]
