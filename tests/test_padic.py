from fractions import Fraction

import pytest

from ecledger.arith import DomainError, is_prime, rational_valuation, valuation
from ecledger.curve import E1, E2, WeierstrassCurve
from ecledger.local_data import ReductionKind, bad_primes, reduction_type
from ecledger.padic import (
    PadicNumber,
    iwasawa_log,
    j_q_expansion,
    l_invariant,
    tate_parameter,
)

def from_fraction(x, p: int, prec: int) -> PadicNumber:
    """The rational x to prec significant digits; O(p^prec) for x = 0."""
    x = Fraction(x)
    if x == 0:
        return PadicNumber(p, 0, 0, prec)
    v = rational_valuation(x, p)
    num, den = x.numerator // p ** max(v, 0), x.denominator // p ** max(-v, 0)
    m = p**prec
    return PadicNumber(p, v, num * pow(den, -1, m), prec)


def exact_value(x: PadicNumber) -> Fraction:
    return Fraction(0) if x.is_zero else Fraction(x.p) ** x.val * x.unit


def exact_log(x: PadicNumber, m: int = 1) -> PadicNumber:
    """Oracle for iwasawa_log(x) / m, known mod p^(n - v_p(m)) with n = x.prec.

    t = u^(p-1) - 1 for the unit u of x, reduced into [0, p^n), and
    log(u) = sum_k (-1)^(k+1) t^k / k / (p - 1), summed exactly in Fractions
    for k <= 2n + 4.  Every later term has v(t^k / k) >= k - log_2 k > k / 2 > n.
    """
    p, n = x.p, x.prec
    t = pow(x.unit, p - 1, p**n) - 1
    s = sum(Fraction((-1) ** (k + 1) * t**k, k) for k in range(1, 2 * n + 5)) / ((p - 1) * m)
    N = n - valuation(m, p)  # the digits the division by m leaves
    if s == 0 or rational_valuation(s, p) >= N:
        return PadicNumber(p, N - 1, 0, 1)  # O(p^N)
    return from_fraction(s, p, N - rational_valuation(s, p))


def agrees(x: PadicNumber, y: PadicNumber) -> bool:
    """Equality to the smaller of the two working precisions."""
    if x.is_zero or y.is_zero:
        return x.is_zero and y.is_zero
    k = min(x.prec, y.prec)
    return x.p == y.p and x.val == y.val and (x.unit - y.unit) % x.p**k == 0


def parse(text: str) -> PadicNumber:
    """Inverse of str(): "<unit>*<p>^<val> + O(<p>^<k>)" (or "O(<p>^<k>)")."""
    text = text.replace(" ", "")
    if text.startswith("O("):
        p, k = text[2:-1].split("^")
        return PadicNumber(int(p), 0, 0, int(k))
    head, tail = text.split("+O(")
    unit_s, pv = head.split("*")
    p_s, v_s = pv.split("^")
    p, v = int(p_s), int(v_s)
    k = int(tail[:-1].split("^")[1])
    return PadicNumber(p, v, int(unit_s), k - v)


def evaluate_j_at(q: PadicNumber) -> Fraction:
    """Forward oracle: j(Q) = 1/Q + sum_{n>=0} c_n Q^n, exactly, at Q = p^val * unit.

    Q agrees with q to absolute precision m + prec (m = val), so 1/Q and each
    c_n Q^n agree with their values at q to absolute precision prec - m; the
    terms past n = T have valuation >= (T + 1) m > prec - m.  So j(Q) agrees
    with j(q) to absolute precision prec - m.
    """
    m = q.valuation()
    T = -(-q.prec // m)
    jq = j_q_expansion(T)
    Q = Fraction(q.p) ** m * q.unit
    return 1 / Q + sum(jq[n + 1] * Q**n for n in range(T + 1))


def test_string_roundtrip():
    x = from_fraction(Fraction(7, 10), 3, 12)
    assert agrees(parse(str(x)), x)
    z = PadicNumber.from_residue(0, 5, 8)
    assert parse(str(z)).is_zero


def test_from_residue_keeps_a_zeros_absolute_precision():
    assert str(PadicNumber.from_residue(0, 5, 3)) == "O(5^3)"
    assert str(PadicNumber.from_residue(5**4, 5, 3)) == "O(5^3)"
    assert str(PadicNumber.from_residue(50, 5, 3)) == "2*5^2 + O(5^3)"
    assert str(PadicNumber.from_residue(-1, 5, 2)) == "24*5^0 + O(5^2)"
    # cancellation to zero keeps the absolute precision of the residue
    assert str(PadicNumber.from_residue(25 - (25 + 5**8), 5, 6)) == "O(5^6)"
    assert str(PadicNumber.from_residue(25 - (25 + 5**8), 5, 9)) == "4*5^8 + O(5^9)"


def test_padic_numbers_refuse_what_they_cannot_be():
    for args, why in (((4, 0, 1, 3), "4 is not prime"), ((5, 0, 1, 0), "precision must be at least one digit")):
        with pytest.raises(DomainError, match=why):
            PadicNumber(*args)
    with pytest.raises(AssertionError, match="unit part must be a unit"):
        PadicNumber(5, 0, 10, 3)
    zero = PadicNumber(5, 0, 0, 3)
    with pytest.raises(DomainError, match="valuation of \\(p-adic\\) zero"):
        zero.valuation()
    with pytest.raises(DomainError, match="log of p-adic zero"):
        iwasawa_log(zero)
    with pytest.raises(DomainError, match="need at least one positive power"):
        j_q_expansion(0)


def test_j_expansion_initial_coefficients():
    # q j(q): index n + 1 holds the coefficient of q^n in j(q)
    assert j_q_expansion(4) == (1, 744, 196884, 21493760, 864299970, 20245856256)


def test_j_expansion_satisfies_the_delta_identity():
    # 1728 Delta = E4^3 - E6^2 gives Delta without the product formula; T = 250
    # is the longest expansion that DIGITS_CAP reads

    def eisenstein(k, c, T):
        return [1] + [c * sum(d**k for d in range(1, n + 1) if n % d == 0) for n in range(1, T + 3)]

    def mul(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))]

    for T in (30, 250):
        e4, e6 = eisenstein(3, 240, T), eisenstein(5, -504, T)
        e4cubed = mul(mul(e4, e4), e4)
        delta1728 = [x - y for x, y in zip(e4cubed, mul(e6, e6))]
        assert delta1728[0] == 0
        jq = list(j_q_expansion(T))  # q j(q) to degree T + 1
        assert mul(jq + [0], delta1728[1:] + [0])[: T + 2] == [1728 * x for x in e4cubed[: T + 2]]


def reversion_coefficients(N: int) -> list[int]:
    """b_1..b_N of q = sum b_n t^n, the inverse of the series t = 1/j(q).

    With f = q j(q) = 1 + 744 q + ..., t = q / f(q); Lagrange inversion gives
    b_n = [q^(n-1)] f^n / n, and every b_n is an integer.
    """
    f = j_q_expansion(N)
    power, out = [1], []
    for n in range(1, N + 1):
        power = [sum(power[i] * f[k - i] for i in range(min(k, len(power) - 1) + 1)) for k in range(N)]
        b, r = divmod(power[n - 1], n)
        assert r == 0, f"Lagrange coefficient {n} is not an integer"
        out.append(b)
    return out


def tate_parameter_by_reversion(C: WeierstrassCurve, p: int, prec: int) -> PadicNumber:
    """q = sum_{n <= N} b_n t^n summed exactly in t = 1/j, N = ceil(prec / m).

    Every dropped term has valuation >= (N + 1) m >= m + prec.
    """
    t = 1 / C.j_invariant()
    m = rational_valuation(t, p)
    q = sum(b * t**n for n, b in enumerate(reversion_coefficients(-(-prec // m)), start=1))
    return from_fraction(q, p, prec)


def test_reversion_coefficients_of_1_over_j():
    assert reversion_coefficients(7) == [
        1, 744, 750420, 872769632, 1102652742882, 1470561136292880, 2037518752496883080
    ]


# E1 (m = 4 at 5), E2 (m = 2 at 5), 11a1 (m = 5 at 11), 11a3 (m = 1 at 11),
# 14a1 (m = 3 at 7), then box curves split at 3 (m = 3), at 5, 7, 17 (m = 1)
# and at 2, 11, 19 (m = 1, 2, 1); m = -v_p(j).
TATE_CURVES = [E1, E2, WeierstrassCurve(0, -1, 1, -10, -20), WeierstrassCurve(0, -1, 1, 0, 0),
               WeierstrassCurve(1, 0, 1, 4, -6), WeierstrassCurve(0, 1, 1, -3, 2),
               WeierstrassCurve(0, -1, 1, 0, 1), WeierstrassCurve(1, -1, 1, -6, -5)]
SPLIT_PRIMES = [(C, p) for C in TATE_CURVES for p in bad_primes(C)
                if reduction_type(C, p) is ReductionKind.MULT_SPLIT]


def test_tate_parameter_of_E1_at_5():
    # every digit of the linv-5 input of the E1 ledger
    q = tate_parameter(E1, 5, prec=20)
    assert str(q) == "88006722837216*5^4 + O(5^24)"


def test_tate_curves_cover_small_valuations():
    ms = {-rational_valuation(C.j_invariant(), p) for C, p in SPLIT_PRIMES}
    assert {1, 2, 3, 4, 5} <= ms and 2 in {p for _, p in SPLIT_PRIMES}


@pytest.mark.parametrize("prec", [1, 2, 5, 20, 40])
@pytest.mark.parametrize("C, p", SPLIT_PRIMES, ids=[f"{C.coefficients()}-{p}" for C, p in SPLIT_PRIMES])
def test_tate_parameter_satisfies_j_of_q(C, p, prec):
    j = C.j_invariant()
    m = -rational_valuation(j, p)
    q = tate_parameter(C, p, prec)
    assert (q.valuation(), q.prec) == (m, prec)
    assert rational_valuation(evaluate_j_at(q) - j, p) >= prec - m


@pytest.mark.parametrize("prec", [1, 2, 5, 20, 40])
@pytest.mark.parametrize("C, p", SPLIT_PRIMES, ids=[f"{C.coefficients()}-{p}" for C, p in SPLIT_PRIMES])
def test_tate_parameter_matches_the_series_reversion(C, p, prec):
    q, ref = tate_parameter(C, p, prec), tate_parameter_by_reversion(C, p, prec)
    assert (q.val, q.unit, q.prec) == (ref.val, ref.unit, ref.prec)


def test_tate_parameter_requires_split_multiplicative():
    with pytest.raises(DomainError):
        tate_parameter(E1, 3)  # nonsplit
    with pytest.raises(DomainError):
        tate_parameter(E1, 7)  # good


def test_iwasawa_log_is_homomorphic():
    p, a, b = 5, Fraction(7, 3), Fraction(11, 2)
    u, v, uv = (from_fraction(x, p, 14) for x in (a, b, a * b))
    diff = sum(exact_value(iwasawa_log(x)) for x in (u, v)) - exact_value(iwasawa_log(uv))
    assert diff == 0 or rational_valuation(diff, p) >= 14  # each log is known mod p^14


def test_iwasawa_branch_kills_powers_of_p():
    # log(p^k * u) = log(u) under the log(p) = 0 branch
    p = 5
    u = from_fraction(Fraction(7, 3), p, 14)
    shifted = from_fraction(Fraction(7, 3) * p**3, p, 14)
    assert str(iwasawa_log(shifted)) == str(iwasawa_log(u))


def test_l_invariant_valuation_one():
    res = l_invariant(E1, 5, prec=20)
    assert res.value.valuation() == 1  # lies in p Z_p^x
    # stable under doubling the working precision
    res2 = l_invariant(E1, 5, prec=40)
    assert agrees(res.value, PadicNumber(5, res2.value.val, res2.value.unit % 5**res.value.prec, res.value.prec))


# (curve, p, digits), split multiplicative at p.  First, cases where zeros
# lost their absolute precision and the digits were wrong: 9*2^2 + O(2^6) for
# 1*2^2 + O(2^6), O(3^2) for a value of valuation 1, and more.  Then controls:
# (1, 1, 1, 4, 7) at 2, which is O(2^2) to two digits, and E1 and E2 at 5.
REFERENCE_CASES = [
    ((1, -10, -4, 11, -19), 2, 5), ((-4, 12, -7, 18, 7), 3, 2), ((14, -6, 20, 13, 8), 3, 5),
    ((-2, -15, 12, -1, -7), 3, 1), ((5, -10, 0, 8, -12), 2, 8), ((-3, -3, -5, 6, -11), 2, 7),
    ((3, 14, -8, 10, -16), 2, 6), ((15, 18, -20, 4, 12), 2, 2), ((1, 1, 1, 4, 7), 2, 2),
    *(((1, 11, 17, -13, -7), 2, d) for d in range(2, 7)),
    *(((17, 18, -12, 14, 14), 2, d) for d in range(2, 7)),
    ((1, 1, 1, -10, -10), 5, 3), ((1, 1, 1, -5, 2), 5, 7),
]


@pytest.mark.parametrize("coeffs, p, digits", REFERENCE_CASES, ids=[f"{c}-{p}-{d}" for c, p, d in REFERENCE_CASES])
def test_l_invariant_digits_agree_with_an_80_digit_run(coeffs, p, digits):
    C = WeierstrassCurve(*coeffs)
    low, ref = l_invariant(C, p, digits).value, l_invariant(C, p, 80).value
    n = low.val + low.prec  # low is known modulo p^n
    assert ref.val + ref.prec >= n + 60
    diff = exact_value(low) - exact_value(ref)
    assert diff == 0 or rational_valuation(diff, p) >= n, (str(low), str(ref))


def assert_matches_the_exact_series(C: WeierstrassCurve, p: int, digits: int) -> None:
    res = l_invariant(C, p, digits)
    q = res.tate_q
    assert str(iwasawa_log(q)) == str(exact_log(q))
    assert str(res.value) == str(exact_log(q, q.valuation()))


@pytest.mark.parametrize("prec", [1, 2, 5, 20, 40])
@pytest.mark.parametrize("C, p", SPLIT_PRIMES, ids=[f"{C.coefficients()}-{p}" for C, p in SPLIT_PRIMES])
def test_log_and_l_invariant_match_the_exact_series(C, p, prec):
    assert_matches_the_exact_series(C, p, prec)


@pytest.mark.parametrize("coeffs, p, digits", REFERENCE_CASES, ids=[f"{c}-{p}-{d}" for c, p, d in REFERENCE_CASES])
def test_reference_cases_match_the_exact_series(coeffs, p, digits):
    assert_matches_the_exact_series(WeierstrassCurve(*coeffs), p, digits)


def test_a_padic_computation_proves_its_prime_once():
    # each valuation and each PadicNumber checks that its p is prime (the log
    # series takes v_p(k) for each of its 20 terms here), and trial division
    # of a 15-digit p takes about a second
    is_prime.cache_clear()
    l_invariant(E1, 5, prec=20)
    info = is_prime.cache_info()
    assert info.misses == 1 and info.hits >= 20


def test_l_invariant_is_isogeny_invariant():
    a = l_invariant(E1, 5, prec=20).value
    b = l_invariant(E2, 5, prec=20).value
    k = min(a.prec, b.prec)
    assert a.val == b.val
    assert (a.unit - b.unit) % 5**k == 0
