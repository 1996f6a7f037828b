import itertools
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from ecledger.arith import DomainError, factorize, primes_up_to
from ecledger.cli import TERMS_CAP
from ecledger.counting import frobenius_table, trace_ap
from ecledger.curve import E1, E2, WeierstrassCurve
from ecledger.local_data import ReductionKind, UnsupportedReductionError, conductor_semistable, tamagawa_product
from ecledger.lvalue import (
    GUARD_BITS,
    PRECISION_BITS,
    Q,
    RealApprox,
    _exp_neg,
    _fixed_point_sum,
    _pi,
    _tail_bound,
    _two_pi_over_sqrt,
    an_coefficients,
    e1_bracket,
    l_value_at_1,
    lvalue_ratio,
    rational_reconstruct,
    real_period,
    root_number,
    summed_terms,
)
from ecledger.torsion import torsion_subgroup
from test_counting import box_models, seeded_models
from test_local_data import local_data

M = 2000

C11A1 = WeierstrassCurve(0, -1, 1, -10, -20)
C14A1 = WeierstrassCurve(1, 0, 1, 4, -6)
C19A1 = WeierstrassCurve(0, 1, 1, -9, -15)
C37A1 = WeierstrassCurve(0, 0, 1, -1, 0)
C43A1 = WeierstrassCurve(0, 1, 1, 0, 0)


def bad_ap(C):
    """{p: a_p} at the bad primes, +1 split and -1 non-split: the oracle's reading of the local data."""
    return {p: 1 if ld.kind is ReductionKind.MULT_SPLIT else -1 for p, ld in local_data(C).items()}


@pytest.fixture(scope="module")
def series():
    return an_coefficients(frobenius_table(E1, M), M, local_data(E1))


def test_an_initial_segment(series):
    assert [series[n] for n in range(1, 16)] == [
        1, -1, -1, -1, 1, 1, 0, 3, 1, -1, -4, 1, -2, 0, -1,
    ]


def test_an_matches_frobenius_traces(series):
    for p in primes_up_to(200):
        if 15 % p == 0:
            continue
        assert series[p] == trace_ap(E1, p)
    # multiplicative primes: +1 split, -1 nonsplit
    assert series[5] == 1 and series[3] == -1


def test_hecke_recurrences_exhaustive(series):
    # multiplicativity a_mn = a_m a_n for coprime m, n, up to the term bound
    for m in range(2, M + 1):
        for n in range(2, M // m + 1):
            if math.gcd(m, n) == 1:
                assert series[m * n] == series[m] * series[n]
    # prime-power recurrence a_{p^k} = a_p a_{p^{k-1}} - eps(p) p a_{p^{k-2}}
    for p in primes_up_to(M):
        eps = 0 if 15 % p == 0 else 1
        k = 2
        while p**k <= M:
            assert series[p**k] == series[p] * series[p ** (k - 1)] - eps * p * series[p ** (k - 2)]
            k += 1


def test_an_bound(series):
    # |a_n| <= d(n) sqrt(n)
    for n in range(1, M + 1):
        d_n = 1
        for _, e in factorize(n).items():
            d_n *= e + 1
        assert series[n] ** 2 <= d_n * d_n * n


def mpf(x: Fraction):
    """x as an mpf at the working precision (exact for the dyadic ends of the intervals)."""
    return mp.mpf(x.numerator) / x.denominator


def test_l_value_and_period():
    L = l_value_at_1(local_data(E1), frobenius_table(E1, 2000), 2000)
    omega = real_period(E1)
    assert abs(float(L.lo) - 0.3501507605831505) < 1e-12
    assert abs(float(omega.lo) - 2.8012060846652040) < 1e-12
    assert L.hi - L.lo < Fraction(1, 10**20)
    assert omega.lo > 0


def test_ratio_reconstructs_to_one_eighth():
    L, omega, ratio = lvalue_ratio(E1, local_data(E1), frobenius_table(E1, 2000), 2000)
    assert ratio == Fraction(1, 8)
    assert L.lo / omega.hi <= Fraction(1, 8) <= L.hi / omega.lo


def test_E2_ratio_finite_positive():
    _, _, ratio = lvalue_ratio(E2, local_data(E2), frobenius_table(E2, 2000), 2000)
    assert ratio is not None and ratio > 0


def test_rational_reconstruct_rejects_wide_intervals():
    loose = RealApprox(Fraction("0.11501"), Fraction("0.13501"))
    assert rational_reconstruct(loose) is None
    tight = RealApprox(Fraction("0.125") - Fraction("1e-10"), Fraction("0.125") + Fraction("1e-10"))
    assert rational_reconstruct(tight) == Fraction(1, 8)


def test_convergence_in_terms():
    # the intervals at 1000 and 2000 terms overlap; the series at 1000 terms
    # reads the first part of the longer table
    traces = frobenius_table(E1, 2000)
    a = l_value_at_1(local_data(E1), traces, 1000)
    b = l_value_at_1(local_data(E1), traces, 2000)
    assert a.lo <= b.hi and b.lo <= a.hi


def naive_an(C, bad, n):
    """a_n as the product over a plain factorisation of n of a_{p^k}."""
    out = 1
    for p, k in factorize(n).items():
        if p in bad:
            out *= bad[p] ** k
            continue
        ap, prev, cur = trace_ap(C, p), 1, trace_ap(C, p)
        for _ in range(k - 1):
            prev, cur = cur, ap * cur - p * prev
        out *= cur
    return out


@pytest.mark.parametrize("C, N", [(E1, 15), (C11A1, 11)])
def test_an_matches_naive_factorisation(C, N):
    local, bad = local_data(C), bad_ap(C)
    series = an_coefficients(frobenius_table(C, M), M, local)
    assert conductor_semistable(local) == N  # the N that l_value_at_1 reads
    assert [series[n] for n in range(1, M + 1)] == [naive_an(C, bad, n) for n in range(1, M + 1)]


@pytest.mark.parametrize("M", [0, -5])
def test_an_coefficients_needs_a_positive_length(M):
    with pytest.raises(DomainError):
        an_coefficients({}, M, local_data(E1))


@pytest.mark.parametrize("C", [C11A1, C14A1, C19A1, C43A1, E1, E2, C37A1])
def test_period_within_its_bound_against_quadrature(C):
    # Omega sums 2 int dx / sqrt(f) over each real component of (2y + a1 x + a3)^2 = f(x):
    # [e1, oo), and for a positive discriminant also the egg [e3, e2], where
    # x = e3 + (e2 - e3) sin^2 t turns dx / sqrt(f) into dt / sqrt(e1 - x).  On
    # [e1, oo), x = e1 + t^2 turns it into 2 dt / sqrt(q(x)) with q = f / (x - e1),
    # whose error grows with that of e1 and not with its square root.
    omega = real_period(C)
    b2, b4, b6, _ = C.b_invariants()
    with mp.workprec(300):
        roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=400, extraprec=300)
        if C.discriminant() > 0:
            e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
            egg = 2 * mp.quad(lambda t: 1 / mp.sqrt(e1 - e3 - (e2 - e3) * mp.sin(t) ** 2), [0, mp.pi / 2])
        else:
            e1, egg = mp.re(min(roots, key=lambda r: abs(mp.im(r)))), 0

        def q(x):
            return (4 * x + b2 + 4 * e1) * x + 2 * b4 + (b2 + 4 * e1) * e1

        reference = 4 * mp.quad(lambda t: 1 / mp.sqrt(q(e1 + t * t)), [0, 1, mp.inf])
        assert mpf(omega.lo) <= reference + egg <= mpf(omega.hi)
    assert omega.hi - omega.lo <= omega.lo / 2**120


@pytest.mark.parametrize("C, w", [(C37A1, -1), (C43A1, -1), (E1, 1), (C11A1, 1), (C14A1, 1)])
def test_root_number(C, w):
    assert root_number(local_data(C)) == w


def test_l_value_is_exactly_zero_when_the_root_number_is_minus_one():
    L = l_value_at_1(local_data(C37A1), {}, M)  # no trace is read
    assert L.lo == L.hi == 0 and str(L) == "0.0"


@pytest.mark.parametrize("C, ratio", [
    (E1, Fraction(1, 8)), (E2, Fraction(1, 16)), (C11A1, Fraction(1, 5)), (C14A1, Fraction(1, 6)), (C37A1, 0),
])
def test_ratios_reconstruct(C, ratio):
    assert lvalue_ratio(C, local_data(C), frobenius_table(C, 2000), 2000)[2] == ratio


def test_rational_reconstruct_reads_the_full_precision():
    # 1/8 + 2^-100 rounds to 1/8 at 53 bits, but 1/8 lies outside its interval
    near = Fraction(1, 8) + Fraction(1, 2**100)
    assert rational_reconstruct(RealApprox(near - Fraction(1, 2**110), near + Fraction(1, 2**110))) is None
    # an interval 2^-119 wide around 1/5 at 128 bits holds 1/5; at 53 bits it would not
    fifth = Fraction(round(Fraction(2**128, 5)), 2**128)
    assert rational_reconstruct(RealApprox(fifth - Fraction(1, 2**120), fifth + Fraction(1, 2**120))) == Fraction(1, 5)


def test_lvalue_ratio_has_no_l_value_without_a_tail_bound():
    # N = 3046 and 4 pi (M + 1) < sqrt N at M = 2 terms: the tail bounds nothing
    C = WeierstrassCurve(1, 0, 1, -6, -4)
    L, omega, ratio = lvalue_ratio(C, local_data(C), frobenius_table(C, 2), 2)
    assert L is None and ratio is None and omega.lo > 0


def semistable_box_curves(seed, count):
    """The first `count` box curves of root number +1 with multiplicative reduction at every bad prime."""
    def semistable_of_root_number_one(C):
        try:
            return root_number(local_data(C)) == 1
        except UnsupportedReductionError:
            return False

    return list(itertools.islice(filter(semistable_of_root_number_one, box_models(seed)), count))


def fixed_point_bound(a, u, P):
    """l_value_at_1's bound E on the fixed-point sum's distance from sum a_n u^n / n, n <= M."""
    M = len(a) - 1
    spread = sum(abs(a[n]) * min(1, 1 / (n * (1 - u))) for n in range(1, M + 1))
    return mp.ldexp(2 * (1 + mp.mpf(2) ** -29) * spread + M, -P)


@pytest.mark.parametrize("C", [E1, E2, C11A1, C14A1, C19A1, *semistable_box_curves(5, 20)],
                         ids=lambda C: ",".join(map(str, C.coefficients())))
def test_fixed_point_sum_against_a_four_fold_precision_sum(C):
    # conductors from 11 to about 10^7: the series stops after some 70 terms
    # for small N and runs all M terms for large N; the oracle always sums all M
    local, B, M = local_data(C), PRECISION_BITS, 2000
    traces = frobenius_table(C, M)
    a, N, P = an_coefficients(traces, M, local), conductor_semistable(local), B + GUARD_BITS
    n0, (c_lo, c_hi) = summed_terms(N, M), _two_pi_over_sqrt(N)
    U = _exp_neg(c_hi)[0] >> Q - P  # floor(u_lo 2^P), as l_value_at_1 builds it
    L = l_value_at_1(local, traces, M)
    short = _fixed_point_sum(a[: n0 + 1], U, P)
    assert short == _fixed_point_sum(a, U, P)  # every term past n0 is 0
    with mp.workprec(4 * B):
        u = mp.exp(-2 * mp.pi / mp.sqrt(N))
        partial = mp.fsum(mp.mpf(a[n]) / n * u**n for n in range(1, M + 1) if a[n])
        E, T = fixed_point_bound(a[: n0 + 1], u, P), mp.ldexp(_tail_bound(c_lo, n0), -Q)
        # the shortened sum -+ (2E + T) holds twice the sum of all M terms
        assert abs(2 * mp.ldexp(short, -P) - 2 * partial) <= 2 * E + T
        # the interval holds twice the partial sum, and its radius covers 2E + T
        assert mpf(L.lo) <= 2 * partial <= mpf(L.hi)
        assert 2 * E + T <= mpf(L.hi - L.lo) / 2


# y^2 = x^3 - 3^72 x has e1 = 3^36 exactly, so its bracket's left end is a root of g
E1_BRACKET_CURVES = [E1, E2, C11A1, C37A1, C43A1, WeierstrassCurve(0, 0, 0, -(3**72), 0), *seeded_models(2024, 50)]


@pytest.mark.parametrize("C", E1_BRACKET_CURVES, ids=lambda C: ",".join(map(str, C.coefficients())))
def test_e1_bracket_meets_its_signs_within_2_to_the_minus_k_of_polyroots(C):
    k = PRECISION_BITS + GUARD_BITS
    X = e1_bracket(C)
    b2, b4, b6, _ = C.b_invariants()

    def g(x: Fraction) -> Fraction:
        return ((4 * x + b2) * x + 2 * b4) * x + b6

    assert g(Fraction(X, 2**k)) <= 0 < g(Fraction(X + 1, 2**k))
    with mp.workprec(300):
        roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=400, extraprec=300)
        if C.discriminant() > 0:
            e1 = max(mp.re(r) for r in roots)
        else:
            e1 = mp.re(min(roots, key=lambda r: abs(mp.im(r))))
        assert abs(mp.ldexp(X, -k) - e1) <= mp.ldexp(1, -k)


def test_e1_bracket_covers_both_signs_of_the_discriminant():
    assert {C.discriminant() > 0 for C in E1_BRACKET_CURVES} == {True, False}


def test_real_approx_prints_its_midpoint_as_mpmath_str():
    # random 128-bit values with decimal exponents from -10 to 17, zero,
    # negatives, and ...999 rounded up to a power of ten
    box = random.Random(23)
    values = [Fraction(0), Fraction(-1, 8), Fraction(10**16 - 1, 10**16), Fraction(-(10**20 - 1), 10**5),
              Fraction(99999999999999951, 10**21), Fraction(-99999999999999951, 10**2)]
    for _ in range(5000):
        man = box.getrandbits(128) | 1 << 127
        values.append(box.choice((1, -1)) * man * Fraction(2) ** box.randint(-160, -70))
    for x in values:
        with mp.workprec(128):
            v = mp.mpf(x.numerator) / x.denominator
        with mp.workdps(15):
            assert str(RealApprox(x - 2, x + 2)) == str(v)


def test_pi_enclosure_against_300_bit_mpmath():
    lo, hi = _pi()
    with mp.workprec(300):
        assert lo < mp.ldexp(mp.pi, Q) < hi
    assert hi - lo <= 2


# conductors from 11 to 4 * 10^6 at even steps of log N, E1's and the golden listings'
ORACLE_CONDUCTORS = sorted({round(11 * (4 * 10**6 / 11) ** (i / 40)) for i in range(41)} | {15, 526022, 3265006})


@pytest.mark.parametrize("N", ORACLE_CONDUCTORS)
def test_exp_enclosures_against_300_bit_mpmath(N):
    # c = 2 pi / sqrt N, u = e^-c, and the tail's e^(-c (M + 1)) up to TERMS_CAP;
    # U = floor(u 2^P) is the integer the fixed-point series runs on
    P = PRECISION_BITS + GUARD_BITS
    c_lo, c_hi = _two_pi_over_sqrt(N)
    u_lo, u_hi = _exp_neg(c_hi)[0], _exp_neg(c_lo)[1]
    with mp.workprec(300):
        c = 2 * mp.pi / mp.sqrt(N)
        assert c_lo <= mp.ldexp(c, Q) <= c_hi and c_hi - c_lo <= 2
        u = mp.exp(-c)
        assert u_lo <= mp.ldexp(u, Q) <= u_hi and u_hi - u_lo <= 8
        assert u_lo >> Q - P == int(mp.floor(mp.ldexp(u, P)))
        for M in (1, 10, 100, 2000, 10**4, 10**5, TERMS_CAP):
            lo, hi = _exp_neg(c_lo * (M + 1))
            assert lo <= mp.ldexp(mp.exp(-mp.ldexp(c_lo * (M + 1), -Q)), Q) <= hi and hi - lo <= 2


@pytest.mark.parametrize("M", [1, 2, 10, 99, 2000, TERMS_CAP])
def test_tail_bound_exists_exactly_when_4_pi_m_plus_1_exceeds_sqrt_n(M):
    with mp.workprec(300):
        edge = int(mp.floor(16 * mp.pi**2 * (M + 1) ** 2))  # N <= edge iff 4 pi (M + 1) > sqrt N
    for N in (edge - 1, edge, edge + 1, edge + 2):
        assert (_tail_bound(_two_pi_over_sqrt(N)[0], M) is None) == (N > edge)


def test_bsd_analytic_sha_is_a_square_integer():
    # BSD at rank 0: L(E,1)/Omega = #Sha prod c_p / |T|^2, so every non-zero
    # ratio times |T|^2 / prod c_p is a square integer, the analytic order of Sha
    shas = []
    for C in semistable_box_curves(1, 60):
        local = local_data(C)
        ratio = lvalue_ratio(C, local, frobenius_table(C, M), M)[2]
        if ratio:
            sha = ratio * torsion_subgroup(C).order ** 2 / tamagawa_product(local)
            assert sha.denominator == 1 and math.isqrt(sha.numerator) ** 2 == sha.numerator, C
            shas.append(sha)
    assert sorted(shas) == [1] * 14 + [4]
