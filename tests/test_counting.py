import hashlib
import itertools
import math
import random
from collections.abc import Iterator

import numpy as np
import pytest

from ecledger import counting
from ecledger.arith import kronecker_symbol, primes_up_to
from ecledger.cli import main
from ecledger.counting import (
    count_points,
    count_points_naive,
    frobenius_table,
    hasse_contradiction_symbolic,
    trace_ap,
    verify_ordinary_criterion,
)
from ecledger.curve import E1, E2, BadReductionError, SingularCurveError, WeierstrassCurve
from test_cli_contracts import python


def hasse_interval(p: int) -> tuple[int, int]:
    """Closed integer interval containing #E(F_p): |a_p| <= floor(2 sqrt p)."""
    m = math.isqrt(4 * p)
    return (p + 1 - m, p + 1 + m)


ORACLE_PRIMES = primes_up_to(200)[1:]  # every odd p < 200; 3, 5 and 7 give the shortest tables
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


def box_models(seed: int) -> Iterator[WeierstrassCurve]:
    """Non-singular models y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 from a small box, in seeded order."""
    box = random.Random(seed)
    while True:
        try:
            C = WeierstrassCurve(box.randint(0, 1), box.randint(-1, 1), box.randint(0, 1),
                                 box.randint(-50, 50), box.randint(-50, 50))
        except SingularCurveError:
            continue
        yield C


def seeded_models(seed: int, count: int = 20) -> list[WeierstrassCurve]:
    return list(itertools.islice(box_models(seed), count))


def test_count_matches_naive_oracle():
    for C in seeded_models(2718):
        assert_counts_match_oracle(C)


def test_count_matches_oracle_with_coefficients_beyond_int64():
    assert min(abs(b) for b in BIG_MODEL.b_invariants()[:3]) > 2**63
    assert_counts_match_oracle(BIG_MODEL)


@pytest.mark.parametrize("name", sorted(NAMED_CURVES))
def test_counted_traces_match_the_naive_oracle_in_one_call(name):
    # every good p < 200 at once: p = 2 by brute force, the odd p up to SMALL
    # in pure Python, and the rest, as the pass's open primes, one by one in numpy
    C = WeierstrassCurve(*NAMED_CURVES[name])
    good = [p for p in primes_up_to(200) if C.discriminant() % p]
    assert counting._counted_traces(C, good) == [p + 1 - count_points_naive(C, p) for p in good]


def test_counted_traces_across_the_cut_match_one_prime_at_a_time():
    # good primes to 5000 in one call, across SMALL, and 10 007, whose sum
    # takes more than one step of CHARACTER_BLOCK
    good = [p for p in primes_up_to(5000) if E1.discriminant() % p] + [10_007]
    assert good[0] == 2 and good[1] < counting.SMALL < good[-2] and good[-1] > counting.CHARACTER_BLOCK
    assert counting._counted_traces(E1, good) == [p + 1 - count_points(E1, p) for p in good]


def test_count_points_holds_about_two_bytes_per_residue():
    # a table of 1 byte per residue, and x in steps of CHARACTER_BLOCK
    import tracemalloc

    p = 999_983
    count_points(E1, 10_007)  # numpy's own first-use allocations stay out of the measure
    tracemalloc.start()
    try:
        count = count_points(E1, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 998_968  # p + 1 - a_p, with a_p = 1016 from the pass
    assert peak < 2 * p


# sha256 of "p a_p\n" over frobenius_table(C, 10_000): the whole default range,
# pinned before the counting kernel was rewritten.  E1 and E2 are isogenous,
# so their traces agree.
SWEEP_SHA256 = {
    "1,1,1,-10,-10": "309d9595d3c50845b2da83a249807ea40df1e9efa4df060e735c7074129fd918",
    "1,1,1,-5,2": "309d9595d3c50845b2da83a249807ea40df1e9efa4df060e735c7074129fd918",
    "0,-1,1,-10,-20": "b5688b60e4b05053ab71c44028765346f6da6818a3948a923601a60589498127",
}


# The same listing over frobenius_table(C, 50_000), whose primes above 2^15
# put the kernel in int64, pinned before the baby-step giant-step pass; E1 has
# torsion Z/2 x Z/4 and y^2 = x^3 - x is the CM curve with j = 1728.
LONG_SWEEP_SHA256 = {
    "1,1,1,-10,-10": "ed54dacb49f5548802f29468e559239ce9da612e2a39226494ee604fddc9ca2c",
    "0,-1,1,-10,-20": "7ceae3dc520f162fd474f2dc637f84fd847b2f3aed55c859c33e9ae1e42d7766",
    "0,0,0,-1,0": "27950a439497fa64628b2711bba7904fdc72479922777f83fa0df3477c06abd8",
}


def sweep_digest(coeffs: str, bound: int) -> str:
    C = WeierstrassCurve(*map(int, coeffs.split(",")))
    listing = "".join(f"{p} {ap}\n" for p, ap in frobenius_table(C, bound).items())
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize("coeffs", sorted(SWEEP_SHA256))
def test_default_sweep_matches_pinned_digest(coeffs):
    assert sweep_digest(coeffs, 10_000) == SWEEP_SHA256[coeffs]


@pytest.mark.parametrize("coeffs", sorted(LONG_SWEEP_SHA256))
def test_long_sweep_matches_pinned_digest(coeffs):
    assert sweep_digest(coeffs, 50_000) == LONG_SWEEP_SHA256[coeffs]


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
            euler = sum(kronecker_symbol(((4 * x + b2) * x + 2 * b4) * x + b6, p) for x in range(p))
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


def test_sweep_asserts_the_hasse_bound(monkeypatch):
    # p = 7 is below SMALL, so its trace comes from the point counts
    monkeypatch.setattr(counting, "_counted_traces", lambda C, primes: [5 if p == 7 else 0 for p in primes])
    assert frobenius_table(E1, 7)[7] == 5  # 5^2 <= 4 * 7
    monkeypatch.setattr(counting, "_counted_traces", lambda C, primes: [6 if p == 7 else 0 for p in primes])
    with pytest.raises(AssertionError, match="Hasse bound violated at 7: a_p = 6"):  # 6^2 > 4 * 7
        frobenius_table(E1, 7)


def test_the_pass_above_small_asserts_the_hasse_bound(monkeypatch):
    # 131 is the first prime above SMALL, so the pass solves it: 22^2 <= 4 * 131 < 23^2
    assert counting.SMALL < 131 < 137
    real_pass = counting._bsgs_traces
    for a, ok in ((22, True), (23, False)):
        def wrong_at_131(C, primes, a=a):
            solved, ap = real_pass(C, primes)
            solved[primes == 131], ap[primes == 131] = True, a
            return solved, ap

        monkeypatch.setattr(counting, "_bsgs_traces", wrong_at_131)
        if ok:
            assert frobenius_table(E1, 137)[131] == a
        else:
            with pytest.raises(AssertionError, match="Hasse bound violated at 131: a_p = 23"):
                frobenius_table(E1, 137)


# E1, 11a1, 14a1, 37a1 and a model bad at 2 (discriminant -2^4 * 31)
SMALL_ORACLE_CURVES = [E1, *(WeierstrassCurve(*NAMED_CURVES[name]) for name in ("11a1", "14a1", "37a1")),
                       WeierstrassCurve(0, 0, 0, 1, 1)]


@pytest.mark.parametrize("C", SMALL_ORACLE_CURVES, ids=lambda C: ",".join(map(str, C.coefficients())))
def test_small_prime_kernel_against_the_naive_count(C):
    good = [p for p in primes_up_to(counting.SMALL)[1:] if C.discriminant() % p]
    b = C.b_invariants()[:3]
    assert [p + 1 + counting._small_character_sum(b, p) for p in good] == [count_points_naive(C, p) for p in good]


def test_a_table_is_the_union_of_its_pieces_across_the_cut():
    for C in SMALL_ORACLE_CURVES:
        table = frobenius_table(C, 300)
        for cut in (counting.SMALL - 1, counting.SMALL, counting.SMALL + 1, 131):
            upper = frobenius_table(C, 300, cut)
            assert list(upper) == [p for p in table if p > cut]
            assert frobenius_table(C, cut) | upper == table


def test_ordinary_flag(capsys):
    # the count view calls p supersingular iff p | a_p
    assert main(["count", "--prime-bound", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["2", "4", "-1", "ordinary"]  # a_2 = -1
    assert lines[2].split() == ["7", "8", "0", "supersingular"]  # a_7 = 0


def test_ordinary_criterion_sweep():
    failures, symbolic = verify_ordinary_criterion(frobenius_table(E1, 1000), 8)
    assert failures == [] and symbolic is True


@pytest.mark.parametrize("coeffs, torsion_order", [((0, -1, 1, -10, -20), 5), ((1, 0, 1, 4, -6), 6)])
def test_ordinary_criterion_rows_are_the_failing_primes(coeffs, torsion_order):
    C = WeierstrassCurve(*coeffs)  # 11a1 fails at a_5 = 1, 14a1 at one prime below 10^4
    expected = []
    for p in primes_up_to(10_000)[1:]:
        if C.discriminant() % p:
            ap = trace_ap(C, p)
            if (p + 1 - ap) % torsion_order or ap % p == 1:
                expected.append(p)
    failures, _ = verify_ordinary_criterion(frobenius_table(C, 10_000), torsion_order)
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
    # at p = 2, 2p = 4 < 3 + 2 sqrt 2 but 3p = 6 > 3 + 2 sqrt 2
    assert hasse_contradiction_symbolic(2) is False
    assert hasse_contradiction_symbolic(3) is True


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
    with pytest.raises(DomainError):
        counting._bsgs_traces(E1, np.array([1_100_000_009]))
    assert 7 * COUNT_POINTS_MAX_P**2 < 2**63


def test_sweep_rejects_a_model_that_is_not_integral():
    from fractions import Fraction

    from ecledger.arith import DomainError

    # the model is refused as it is built, so no sweep ever sees it
    with pytest.raises(DomainError, match="coefficients must be integers"):
        frobenius_table(WeierstrassCurve(0, 0, 0, Fraction(1, 2), 1), 1000)


def test_frobenius_table_lists_every_good_prime_once():
    C = WeierstrassCurve(0, -1, 1, -10, -20)  # 11a1
    table = frobenius_table(C, 300)
    assert list(table) == [p for p in primes_up_to(300) if p != 11]
    assert all(ap == trace_ap(C, p) for p, ap in table.items())
    # the primes above 100 only, as a run extends its table
    assert list(frobenius_table(C, 300, 100).items()) == [(p, ap) for p, ap in table.items() if p > 100]


# The batched pass's oracle set: E1 (torsion Z/2 x Z/4), 11a1, 14a1, j = 1728,
# j = 0, a model whose c4 and c6 exceed int64, and 20 seeded models, at every
# good p from 5 to 20 000: the pass takes every good p > 3.
PASS_CURVES = [E1, WeierstrassCurve(0, -1, 1, -10, -20), WeierstrassCurve(1, 0, 1, 4, -6),
               WeierstrassCurve(0, 0, 0, -1, 0), WeierstrassCurve(0, 0, 1, 0, 0), BIG_MODEL, *seeded_models(31415)]
PASS_PRIMES = list(primes_up_to(20_000)[2:])


def good_pass_primes(C):
    return [p for p in PASS_PRIMES if C.discriminant() % p]


def pass_traces(C, primes: list[int]) -> dict[int, int]:
    """{p: a_p} at those of the primes that the batched pass solves."""
    p = np.array(primes, dtype=np.int64)
    solved, a = counting._bsgs_traces(C, p)
    return dict(zip(p[solved].tolist(), a[solved].tolist()))


@pytest.mark.parametrize("C", PASS_CURVES, ids=lambda C: ",".join(map(str, C.coefficients())))
def test_batched_pass_matches_count_points(C):
    traces = pass_traces(C, good_pass_primes(C))
    assert traces == {p: p + 1 - count_points(C, p) for p in traces}


def test_batched_pass_doubles_where_it_must_and_leaves_few_primes_open(monkeypatch):
    real_add = counting._x_add
    seen = {"doubled": 0, "all doubled": 0, "zero": 0}

    def add(P, Q, D, E, twice):
        X, Z = real_add(P, Q, D, E, twice)
        at_inf = D[1] == 0
        seen["doubled"] += int(at_inf.sum())
        seen["all doubled"] += bool(at_inf.all())  # 2P is a doubling, not an addition
        seen["zero"] += int(((X == 0) & (Z == 0)).sum())
        return X, Z

    monkeypatch.setattr(counting, "_x_add", add)
    asked = resolved = 0
    for C in PASS_CURVES:
        good = good_pass_primes(C)
        asked += len(good)
        resolved += len(pass_traces(C, good))
    # a lane whose point has a small order, or whose giant step lands on the
    # point at infinity, reads the doubling from the caller's row; no lane
    # ever reads (0:0)
    assert seen["doubled"] > 0 and seen["all doubled"] == 0 and seen["zero"] == 0
    # the two lanes of a prime leave more than one trace at a few primes only
    assert 0 < asked - resolved <= asked // 20


def largest_primes(residue: int, modulus: int, count: int = 3) -> list[int]:
    from ecledger.arith import is_prime

    found, q = [], counting.COUNT_POINTS_MAX_P
    while len(found) < count:
        if q % modulus == residue and is_prime(q):
            found.append(q)
        q -= 1
    return sorted(found)


def pass_chunks():
    """The prime lists the pass takes at once: the chunks of PASS_PRIMES, and the top of the range."""
    return [PASS_PRIMES[i : i + counting.BSGS_CHUNK] for i in range(0, len(PASS_PRIMES), counting.BSGS_CHUNK)] + [
        PASS_PRIMES[:3], largest_primes(1, 2)]


def test_each_lane_s_windows_cover_its_hasse_interval_and_no_more():
    for primes in pass_chunks():
        m, c, K = counting._windows(primes)
        assert m % 2 == 1 and c.dtype == K.dtype == np.int64
        for lane, (start, count) in enumerate(zip(c.tolist(), K.tolist())):
            p = primes[lane // 2]
            r = math.isqrt(4 * p)
            assert start >= 0 and count >= 1 and start == c[lane - lane % 2] + lane % 2
            # windows (start + 2k)m -+ m for k < count meet end to end
            assert (start - 1) * m <= p + 1 - r and (start + 2 * count - 1) * m >= p + 1 + r
            assert (start + 2 * count - 3) * m < p + 1 + r  # one window fewer would not reach


def divisibility_operands(p: int, below: int, box: random.Random) -> list[int]:
    """0, kp -+ 1 and kp, the largest multiple of p below 2p^2, and seeded randoms, all below ``below``."""
    top = (2 * p * p - 1) // p * p
    xs = {0, top, top - 1, top + 1, 2 * p * p - 1}
    for k in (1, 2, 3, p - 1, p, p + 1, box.randrange(2 * p)):
        xs |= {k * p - 1, k * p, k * p + 1}
    xs |= {box.randrange(2 * p * p) for _ in range(8)}
    return sorted(x for x in xs if 0 <= x < below)


@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["w32", "w64"])
def test_divisibility_by_multiplication_against_the_remainder(dtype):
    # p | x iff x p^-1 mod 2^w <= floor((2^w - 1)/p), for odd p and 0 <= x < 2^w;
    # the pass reads x = cross < 2p^2
    w = np.iinfo(dtype).bits
    box = random.Random(20_000 + w)
    primes = PASS_PRIMES + (largest_primes(1, 2) if w == 64 else [])
    inv, limit = counting._inverse_mod_word(np.array(primes, dtype=dtype))
    assert inv.dtype == limit.dtype == np.dtype(f"uint{w}")
    assert [(int(y) * p % 2**w, int(b)) for y, b, p in zip(inv, limit, primes)] == [(1, (2**w - 1) // p) for p in primes]
    for p, y, b in zip(primes, inv, limit):
        xs = divisibility_operands(p, 2**w, box)
        assert (np.array(xs, dtype=inv.dtype) * y <= b).tolist() == [x % p == 0 for x in xs]


@pytest.mark.parametrize("order", ["descending", "shuffled"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["w32", "w64"])
def test_euler_step_against_pow_lane_by_lane(dtype, order):
    # f^((p - 1) / 2) mod p at every lane, whatever the order of the lanes; f = 0 included
    box = random.Random(35 + np.iinfo(dtype).bits)
    primes = PASS_PRIMES + (largest_primes(1, 2) if dtype is np.int64 else [])
    lanes = [(p, f) for p in primes for f in (0, 1, p - 1, box.randrange(p))]
    if order == "descending":
        lanes.sort(reverse=True)
    else:
        box.shuffle(lanes)
    p, f = np.array(lanes, dtype=dtype).T
    assert counting._euler(f, p).tolist() == [pow(g, (q - 1) // 2, q) for q, g in lanes]


@pytest.mark.parametrize("coeffs, residue, modulus", [((0, 0, 0, -1, 0), 3, 4), ((0, 0, 0, 0, 1), 2, 3)])
def test_batched_pass_exact_at_the_largest_accepted_supersingular_primes(coeffs, residue, modulus):
    # y^2 = x^3 - x at p = 3 (mod 4) and y^2 = x^3 + 1 at p = 2 (mod 3) have a_p = 0
    primes = largest_primes(residue, modulus)
    assert pass_traces(WeierstrassCurve(*coeffs), primes) == {p: 0 for p in primes}


def test_batched_pass_exact_at_the_largest_accepted_ordinary_primes():
    # y^2 = x^3 - x at p = 1 (mod 4): a_p = 2a, where p = a^2 + b^2, b is even
    # and the sign of a makes a + b = 1 (mod 4); checked against count_points
    # below 2000 and then read at the top of the range
    C = WeierstrassCurve(0, 0, 0, -1, 0)

    def closed_form(p):
        b = next(b for b in range(0, math.isqrt(p) + 1, 2) if math.isqrt(p - b * b) ** 2 == p - b * b)
        a = math.isqrt(p - b * b)
        return 2 * (a if (a + b) % 4 == 1 else -a)

    small = [p for p in primes_up_to(2000) if p % 4 == 1]
    assert all(closed_form(p) == trace_ap(C, p) for p in small)
    primes = largest_primes(1, 4)
    assert pass_traces(C, primes) == {p: closed_form(p) for p in primes}


def record_sweep_primes(monkeypatch) -> list[int]:
    """Every prime that enters a sweep: counted by character sums, or solved by the batched pass."""
    calls = []
    real_count, real_pass = counting._counted_traces, counting._bsgs_traces

    def batched(C, primes):
        solved, a = real_pass(C, primes)
        calls.extend(primes[solved].tolist())
        return solved, a

    monkeypatch.setattr(counting, "_counted_traces", lambda C, primes: calls.extend(primes) or real_count(C, primes))
    monkeypatch.setattr(counting, "_bsgs_traces", batched)
    return calls


def test_run_traces_extend_one_sweep_per_ledger(monkeypatch):
    from ecledger.ledger import LedgerOptions, _Run

    C = WeierstrassCurve(0, -1, 1, -10, -20)  # 11a1
    calls, passed = record_sweep_primes(monkeypatch), []
    recording_pass = counting._bsgs_traces
    monkeypatch.setattr(counting, "_bsgs_traces",
                        lambda C, primes: passed.extend(primes.tolist()) or recording_pass(C, primes))
    run = _Run(C, LedgerOptions())
    small = dict(run.traces(100))
    large = run.traces(300)
    prefix = run.traces(50)
    good = [p for p in primes_up_to(300) if p != 11]
    assert sorted(calls) == good  # each good prime counted once
    assert passed == [p for p in good if p > counting.SMALL]  # the pass is offered every good p > SMALL, once
    assert list(small.items()) == [(p, ap) for p, ap in large.items() if p <= 100]
    assert list(prefix.items()) == [(p, ap) for p, ap in large.items() if p <= 50]
    assert run.traces(100) == small and run.traces(50) == prefix and run.traces(300) == large
    assert len(calls) == len(good)  # the repeated reads swept nothing
    assert large == frobenius_table(C, 300)
    with pytest.raises(TypeError):
        large[2] = 0  # the whole table is handed out read-only
    prefix[2] = 0  # a prefix is the caller's own
    assert run.traces(300)[2] == trace_ap(C, 2) != 0


def test_ledger_counts_each_prime_once_per_bound(monkeypatch):
    from ecledger.ledger import LedgerOptions, run_ledger

    calls = record_sweep_primes(monkeypatch)
    # E1's checks conclude on the primes to SMALL: its certificates by p = 23,
    # its ordinary criterion by the symbolic argument (t = 8), its series after
    # 68 terms.  The curve of conductor 161 (t = 2) reads its criterion to
    # prime_bound and sums 222 terms, so its series reads a prefix of that
    # sweep or extends it.  Neither torsion group is trivial, and the torsion
    # search reads its gcd primes from the same sweep.
    C161 = WeierstrassCurve(1, -1, 1, -4, -2)
    for C, prime_bound, terms, read in ((E1, 400, 200, counting.SMALL), (E1, 200, 400, counting.SMALL),
                                        (C161, 400, 200, 400), (C161, 200, 400, 222)):
        calls.clear()
        opts = LedgerOptions(prime_bound=prime_bound, l_list=(3, 5), terms=terms, padic_digits=12)
        run_ledger(C, opts)
        swept = [p for p in primes_up_to(read) if C.discriminant() % p]
        assert sorted(calls) == swept


def test_lvalue_view_at_root_number_minus_one_sweeps_nothing(monkeypatch):
    from ecledger.ledger import LedgerOptions, run_ledger

    calls = record_sweep_primes(monkeypatch)
    C37A1 = WeierstrassCurve(0, 0, 1, -1, 0)  # root number -1, so L(E,1) = 0 exactly
    (record,) = run_ledger(C37A1, LedgerOptions(), ("lvalue-ratio",)).records
    assert record.status == "pass" and "root_number=-1" in record.result
    assert calls == []


@pytest.mark.parametrize("p", [0, 1, 4, 9, 49, -7])
@pytest.mark.parametrize("count", [count_points, trace_ap])
def test_point_counts_refuse_a_p_that_is_not_prime(count, p):
    # count_points(E1, 49) read 32 where the naive count over Z/49 gives 50;
    # 0, 4, -7 and 9 raised ZeroDivisionError, numpy's ValueError or "bad reduction"
    from ecledger.arith import DomainError

    with pytest.raises(DomainError, match=f"^{p} is not prime$"):
        count(E1, p)


def test_count_points_refuses_a_bad_prime():
    with pytest.raises(BadReductionError, match="bad reduction at 3"):
        count_points(E1, 3)


REFUSALS_PAST_THE_PRIMALITY_BOUND = """
import pytest
from ecledger.arith import MILLER_RABIN_BOUND, DomainError, is_prime, valuation
from ecledger.counting import count_points, frobenius_table, trace_ap
from ecledger.curve import E1
from ecledger.galois_image import enumerate_subgroups_gl2, maximal_subgroups
from ecledger.padic import PadicNumber

p = 2**89 - 1  # a Mersenne prime past MILLER_RABIN_BOUND
for call in (lambda: is_prime(p), lambda: valuation(10, p), lambda: PadicNumber(p, 0, 1, 1),
             lambda: count_points(E1, p), lambda: trace_ap(E1, p),
             lambda: maximal_subgroups(p), lambda: enumerate_subgroups_gl2(p),
             lambda: frobenius_table(E1, 2 * 10**9)):
    with pytest.raises(DomainError):
        call()
assert is_prime(2**89) is False  # a base divides it, so it is decided past the bound
q = MILLER_RABIN_BOUND - 1
while not is_prime(q):
    q -= 1
assert is_prime(q) and MILLER_RABIN_BOUND - q < 1000  # the largest prime below the bound
"""


def test_primality_and_the_sweep_refuse_what_they_cannot_decide_at_once():
    # trial division past MILLER_RABIN_BOUND never returned on a prime such as
    # 2^89 - 1, and frobenius_table sieved to its bound before the pass refused
    # a chunk past COUNT_POINTS_MAX_P; in a subprocess under 10 s, so a hang fails the test
    done = python(["-c", REFUSALS_PAST_THE_PRIMALITY_BOUND], timeout=10)
    assert done.returncode == 0, done.stderr.decode()
