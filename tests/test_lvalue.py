import math
from fractions import Fraction

import pytest
from mpmath import mp

from ecledger.arith import DomainError, factorize, primes_up_to
from ecledger.counting import trace_ap
from ecledger.curve import E1, E2, SingularCurveError, WeierstrassCurve
from ecledger.local_data import ReductionKind, UnsupportedReductionError, conductor_semistable
from ecledger.lvalue import (
    GUARD_BITS,
    PRECISION_BITS,
    RealApprox,
    _fixed_point_sum,
    an_coefficients,
    e1_bracket,
    l_value_at_1,
    lvalue_ratio,
    rational_reconstruct,
    real_period,
    root_number,
)
from test_counting import seeded_models
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
    return an_coefficients(E1, M, local_data(E1))


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


def test_l_value_and_period():
    L = l_value_at_1(E1, local_data(E1), terms=2000)
    omega = real_period(E1)
    assert abs(L.value - 0.3501507605831505) < 1e-12
    assert abs(omega.value - 2.8012060846652040) < 1e-12
    assert L.error_bound < 1e-20
    assert omega.value > 0


def test_ratio_reconstructs_to_one_eighth():
    L, omega, ratio = lvalue_ratio(E1, local_data(E1), terms=2000)
    assert ratio == Fraction(1, 8)
    with mp.workprec(128):
        assert abs(L.value / omega.value - 0.125) < 1e-8


def test_E2_ratio_finite_positive():
    _, _, ratio = lvalue_ratio(E2, local_data(E2), terms=2000)
    assert ratio is not None and ratio > 0


def test_rational_reconstruct_rejects_wide_intervals():
    with mp.workprec(64):
        loose = RealApprox(mp.mpf("0.12501"), mp.mpf("0.01"))
        assert rational_reconstruct(loose) is None
        tight = RealApprox(mp.mpf("0.125"), mp.mpf("1e-10"))
        assert rational_reconstruct(tight) == Fraction(1, 8)


def test_convergence_in_terms():
    # doubling the term count moves the value by less than the error bound
    a = l_value_at_1(E1, local_data(E1), terms=1000)
    b = l_value_at_1(E1, local_data(E1), terms=2000)
    with mp.workprec(128):
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound


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
    series = an_coefficients(C, M, local)
    assert conductor_semistable(local) == N  # the N that l_value_at_1 reads
    assert [series[n] for n in range(1, M + 1)] == [naive_an(C, bad, n) for n in range(1, M + 1)]


@pytest.mark.parametrize("M", [0, -5])
def test_an_coefficients_needs_a_positive_length(M):
    with pytest.raises(DomainError):
        an_coefficients(E1, M, local_data(E1))


@pytest.mark.parametrize("C", [C11A1, C14A1, C19A1, C43A1, E1, E2, C37A1])
def test_period_within_its_bound_against_quadrature(C):
    # Omega sums 2 int dx / sqrt(f) over each real component of (2y + a1 x + a3)^2 = f(x):
    # [e1, oo), and for a positive discriminant also the egg [e3, e2], where
    # x = e3 + (e2 - e3) sin^2 t turns dx / sqrt(f) into dt / sqrt(e1 - x).
    omega = real_period(C)
    b2, b4, b6, _ = C.b_invariants()
    with mp.workprec(300):
        roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=400, extraprec=300)
        if C.discriminant() > 0:
            e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
            egg = 2 * mp.quad(lambda t: 1 / mp.sqrt(e1 - e3 - (e2 - e3) * mp.sin(t) ** 2), [0, mp.pi / 2])
        else:
            e1, egg = mp.re(min(roots, key=lambda r: abs(mp.im(r)))), 0
        reference = 2 * mp.quad(lambda x: 1 / mp.sqrt(((4 * x + b2) * x + 2 * b4) * x + b6), [e1, e1 + 1, mp.inf])
        assert abs(omega.value - (mp.re(reference) + egg)) <= omega.error_bound


@pytest.mark.parametrize("C, w", [(C37A1, -1), (C43A1, -1), (E1, 1), (C11A1, 1), (C14A1, 1)])
def test_root_number(C, w):
    assert root_number(local_data(C)) == w


def test_l_value_is_exactly_zero_when_the_root_number_is_minus_one():
    L = l_value_at_1(C37A1, local_data(C37A1))
    assert L.value == 0 and L.error_bound == 0


@pytest.mark.parametrize("C, ratio", [
    (E1, Fraction(1, 8)), (E2, Fraction(1, 16)), (C11A1, Fraction(1, 5)), (C14A1, Fraction(1, 6)), (C37A1, 0),
])
def test_ratios_reconstruct(C, ratio):
    assert lvalue_ratio(C, local_data(C), terms=2000)[2] == ratio


def test_rational_reconstruct_reads_the_full_precision():
    with mp.workprec(128):
        # 1/8 + 2^-100 rounds to 1/8 at 53 bits, but 1/8 lies outside its interval
        near = RealApprox(mp.mpf(1) / 8 + mp.mpf(2) ** -100, mp.mpf(2) ** -110)
        # 1/5 at 128 bits is within 2^-120 of 1/5; at 53 bits it is not
        fifth = RealApprox(mp.mpf(1) / 5, mp.mpf(2) ** -120)
    assert rational_reconstruct(near) is None
    assert rational_reconstruct(fifth) == Fraction(1, 5)


def test_rational_reconstruct_rejects_an_infinite_bound():
    assert rational_reconstruct(RealApprox(mp.mpf("0.125"), mp.inf)) is None


def semistable_box_curves(seed, count):
    """The first `count` box curves of root number +1 with multiplicative reduction at every bad prime."""
    import random

    box, out = random.Random(seed), []
    while len(out) < count:
        try:
            C = WeierstrassCurve(box.randint(0, 1), box.randint(-1, 1), box.randint(0, 1),
                                 box.randint(-50, 50), box.randint(-50, 50))
            local = local_data(C)
        except (SingularCurveError, UnsupportedReductionError):
            continue
        if root_number(local) == 1:
            out.append(C)
    return out


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
    a, N, P = an_coefficients(C, M, local), conductor_semistable(local), B + GUARD_BITS
    L = l_value_at_1(C, local, M)
    with mp.workprec(4 * B):
        u = mp.exp(-2 * mp.pi / mp.sqrt(N))
        partial = mp.fsum(mp.mpf(a[n]) / n * u**n for n in range(1, M + 1) if a[n])
        E = fixed_point_bound(a, u, P)
        assert abs(mp.ldexp(_fixed_point_sum(a, N, P), -P) - partial) <= E
        # the reported value adds one rounding to B bits, and all of it lies
        # far inside the rounding term of the error bound
        error = 2 * E + mp.ldexp(abs(L.value), -B)
        assert abs(L.value - 2 * partial) <= error
        assert error <= mp.ldexp(abs(L.value) + 1, 12 - B - 20) * M


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
