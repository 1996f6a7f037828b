"""L(E,1) by the exponential a_n series (zero from the root number when it is
-1), the real period by AGM from an exact bracket of e1, and the rational
reconstruction of their ratio.

The caller's local data comes in as the ledger's {p: LocalData} over the
primes p | N of a semistable curve; there a_p = +1 where the reduction is
split and -1 where not.

Every real is an interval with exact rational ends, computed on integers in
units of 2^-Q from proved enclosures of pi, e^-x, square roots and the AGM;
its error is its width.  An interval around 0 holds a partial sum, not a
digit of L(E,1): its midpoint can change with the number of terms.
"""

from __future__ import annotations

import decimal
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .arith import DomainError, bisect_least
from .curve import WeierstrassCurve
from .local_data import LocalData, ReductionKind, conductor_semistable

DEFAULT_TERMS = 2000
PRECISION_BITS = 128  # of L(E,1), Omega and their ratio
GUARD_BITS = 32  # of the fixed-point L-series sum and e1, beyond the working precision
Q = PRECISION_BITS + 2 * GUARD_BITS  # the intervals' integer ends are in units of 2^-Q
MAX_DENOMINATOR = 100  # of the reconstructed L(E,1)/Omega
_DECIMAL = decimal.Context(prec=15, rounding=decimal.ROUND_HALF_UP)  # of the printed reals


@dataclass(frozen=True)
class RealApprox:
    """The closed interval [lo, hi] around a real."""

    lo: Fraction
    hi: Fraction

    def __str__(self) -> str:
        """The midpoint to 15 significant digits rounded half up, fixed for decimal exponents -4 to 14."""
        mid = (self.lo + self.hi) / 2
        q = _DECIMAL.divide(mid.numerator, mid.denominator).normalize(_DECIMAL)
        mantissa, mark, exponent = f"{q:{'f' if -5 < q.adjusted() < 15 else 'e'}}".partition("e")
        return mantissa + ("" if "." in mantissa else ".0") + mark + exponent


@functools.cache
def _pi() -> tuple[int, int]:
    """(lo, hi) with lo < pi 2^Q < hi, by Machin: pi = 16 atan(1/5) - 4 atan(1/239).

    atan(1/m) 2^R = sum_k (-1)^k t_k, t_k = 2^R / ((2k + 1) m^(2k+1)), R = Q + 16.  The
    loop sums floor(t_k) (floor(floor(x / a) / b) = floor(x / (ab))) up to the first
    floor(t_k) = 0; the t_k decrease, so the dropped tail is below that t_k < 1 and
    the sum is within k + 1 of atan(1/m) 2^R.
    """
    R, mid, rad = Q + 16, 0, 0
    for m, w in ((5, 16), (239, -4)):
        power, k = (1 << R) // m, 0  # floor(2^R / m^(2k+1))
        while t := power // (2 * k + 1):
            mid += -w * t if k & 1 else w * t
            power //= m * m
            k += 1
        rad += abs(w) * (k + 1)
    return mid - rad >> R - Q, -(-(mid + rad) >> R - Q)


def _exp_neg(X: int) -> tuple[int, int]:
    """(lo, hi) with lo <= e^-x 2^Q <= hi, for x = X 2^-Q >= 0.

    e^-x = (e^-y)^(2^s), y = x 2^-s < 2^-10, in units of 2^-R, R = Q + s + 8.  With
    t_k = y^k / k! 2^R, T_0 = 2^R and T_k = floor(T_(k-1) X 2^-(Q+s)) // k have
    t_k - 2 < T_k <= t_k, as y < 1/2.  The t_k decrease, so the alternating sum
    up to the first T_n = 0 (t_n < 2) is within 2n of e^-y 2^R <= 2^R.  Squaring
    s times, lo >= 0 rounded down and hi up, keeps each on its side of e^-x.
    """
    s = max(0, X.bit_length() - Q + 10)
    R, total, term, k = Q + s + 8, 0, 1 << Q + s + 8, 0
    while term:
        total += -term if k & 1 else term
        k += 1
        term = (term * X >> Q + s) // k
    lo, hi = max(total - 2 * k, 0), min(total + 2 * k, 1 << R)
    for _ in range(s):
        lo, hi = lo * lo >> R, -(-hi * hi >> R)
    return lo >> R - Q, -(-hi >> R - Q)


def _two_pi_over_sqrt(N: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2 pi 2^Q / sqrt(N) <= hi."""
    pi_lo, pi_hi = _pi()
    r = math.isqrt(N << 2 * Q)  # r <= sqrt(N) 2^Q < r + 1
    return (pi_lo << Q + 1) // (r + 1), -((-pi_hi << Q + 1) // r)


def _bad_ap(ld: LocalData) -> int:
    """a_p at a multiplicative prime: +1 where the reduction is split, -1 where not."""
    return 1 if ld.kind is ReductionKind.MULT_SPLIT else -1


def an_coefficients(traces: Mapping[int, int], M: int, local: dict[int, LocalData]) -> tuple[int, ...]:
    """Hecke eigenvalue coefficients of the curve's L-series, a_n at index n for 1 <= n <= M,
    from its Frobenius table {p: a_p} over the good primes p <= M (or more)."""
    if M < 1:
        raise DomainError(f"need at least one coefficient, got M = {M}")
    # spf[n] = smallest prime factor of n
    spf = list(range(M + 1))
    for p in range(2, math.isqrt(M) + 1):
        if spf[p] == p:
            for m in range(p * p, M + 1, p):
                if spf[m] == m:
                    spf[m] = p
    a = [0] * (M + 1)
    a[1] = 1
    # ascending n: a[n] needs only a at proper divisors of n
    for n in range(2, M + 1):
        p = spf[n]
        pk, m = p, n // p
        while m % p == 0:
            pk, m = pk * p, m // p
        if m > 1:
            a[n] = a[pk] * a[m]
        elif pk == p:
            a[p] = _bad_ap(local[p]) if p in local else traces[p]
        else:
            # a_{p^k} = a_p a_{p^(k-1)} - p a_{p^(k-2)} at good p; a_p^k at bad p
            a[n] = a[p] * a[n // p] - (0 if p in local else p * a[n // (p * p)])
    return tuple(a)


def root_number(local: dict[int, LocalData]) -> int:
    """Global root number of a semistable curve: w = -prod_{p | N} (-a_p).

    With a_p = +1 (split) or -1 (non-split), w is -(-1)^(number of split primes).
    """
    return -math.prod(-_bad_ap(ld) for ld in local.values())


def _tail_bound(c_lo: int, M: int) -> int | None:
    """T with T 2^-Q above the truncated tail of 2*sum a_n/n e^(-c n), c = 2 pi / sqrt N >= c_lo 2^-Q.

    Uses |a_n| <= d(n) sqrt(n) <= n^(3/2), so each term is below
    2 sqrt(n) e^(-c n); sqrt(n) <= sqrt(M+1) e^((n-M-1)/(2(M+1))) collapses
    the sum to a geometric series of ratio r = e^(-(c - 1/(2(M+1)))).  Every
    factor is rounded up.  None when the enclosures do not prove r < 1, that
    is 4 pi (M+1) > sqrt N: then no finite bound follows.
    """
    x = c_lo + (-(1 << Q) // (2 * M + 2))  # x 2^-Q <= c - 1/(2(M+1))
    if x <= 0 or (r := _exp_neg(x)[1]) >= 1 << Q:
        return None
    first = 2 * (math.isqrt((M + 1) << 2 * Q) + 1) * _exp_neg(c_lo * (M + 1))[1]  # in units of 2^-2Q
    return -(-first // ((1 << Q) - r))


def _fixed_point_sum(a: tuple[int, ...], U: int, P: int) -> int:
    """sum a[n]/n u^n over 1 <= n < len(a) for u = U 2^-P, in units of 2^-P.

    u^n is carried as the integer un ~ u^n 2^P and each term is floored;
    once un is 0 every later term is 0 too, so the loop stops there.
    """
    acc, un = 0, 1 << P
    for n in range(1, len(a)):
        un = un * U >> P
        if not un:
            break
        acc += a[n] * un // n
    return acc


@functools.lru_cache(maxsize=128)
def summed_terms(N: int, terms: int) -> int:
    """The number of terms ``l_value_at_1`` sums at conductor N: the last n <= terms
    with floor(u^n 2^P) > 0 in ``_fixed_point_sum``'s chain, past which every term is 0.

    For N = 15 it is 68; from N of about 12,800 on, the default 2000 terms.
    The series reads a_n, so the Frobenius table, up to it.
    """
    P = PRECISION_BITS + GUARD_BITS
    U, un, n = _exp_neg(_two_pi_over_sqrt(N)[1])[0] >> Q - P, 1 << P, 0
    while n < terms and (un := un * U >> P):
        n += 1
    return n


def l_value_at_1(local: dict[int, LocalData], traces: Mapping[int, int], terms: int) -> RealApprox | None:
    """L(E, 1) = 2 sum a_n/n u^n with u = exp(-2 pi / sqrt N), or None with no tail bound.

    The series is valid when the root number is +1; when it is -1 the
    functional equation forces L(E, 1) = 0 exactly, and ``traces`` is not read.

    The interval is 2 S 2^-P -+ (2E + T) for S = ``_fixed_point_sum`` at
    P = Q - GUARD_BITS over M = ``summed_terms(N, terms)`` terms, T =
    ``_tail_bound`` past M and E = M 2^-P + beta sum_(n<=M) |a_n|.
    U' = U 2^-P = floor(u_lo 2^P) 2^-P has 0 <= u - U' <= u_hi - U',
    and beta = u_hi - U' + 2^-P.  Step n sets v_n = un 2^-P = v_(n-1) U' - eps_n,
    0 <= eps_n < 2^-P, so e_n = u^n - v_n = u e_(n-1) + v_(n-1) (u - U') + eps_n
    lies in [0, n beta].  Each term floor(a_n un / n) is within 2^-P of
    a_n v_n / n, and |a_n| e_n / n <= |a_n| beta.  So S 2^-P is within E of
    sum_(n<=M) a_n u^n / n.  Past M, un is 0, so summing to ``terms`` would
    give the same S; only E and T, which hold for any M, depend on where the
    sum stops.
    """
    if root_number(local) == -1:
        return RealApprox(Fraction(0), Fraction(0))
    N, P = conductor_semistable(local), PRECISION_BITS + GUARD_BITS
    M = summed_terms(N, terms)
    a = an_coefficients(traces, M, local)
    c_lo, c_hi = _two_pi_over_sqrt(N)
    if (tail := _tail_bound(c_lo, M)) is None:
        return None
    U = _exp_neg(c_hi)[0] >> Q - P  # floor(u_lo 2^P)
    beta = _exp_neg(c_lo)[1] - (U << Q - P) + (1 << Q - P)  # in units of 2^-Q
    E = (M << Q - P) + beta * sum(map(abs, a))
    mid, rad = _fixed_point_sum(a, U, P) << Q - P + 1, 2 * E + tail
    return RealApprox(Fraction(mid - rad, 1 << Q), Fraction(mid + rad, 1 << Q))


def e1_bracket(C: WeierstrassCurve) -> int:
    """The integer X with e1 in [X 2^-k, (X + 1) 2^-k), k = PRECISION_BITS + GUARD_BITS.

    e1 is the real root of g = 4x^3 + b2 x^2 + 2 b4 x + b6 if Delta < 0, the
    largest if Delta > 0.  Bisection on the integer cubic G(X) = 2^(3k) g(X/2^k)
    finds the least X in (lo, hi] with G(X) > 0, and the signs
    G(X - 1) <= 0 < G(X) are checked exactly; X - 1 is returned.  Every
    root has |x| < 1 + max(|b2|, 2|b4|, |b6|) / 4 (Cauchy), where hi starts.
    Delta < 0: lo starts at -hi; the one real root lies in [lo, hi).
    Delta > 0: g > 0 exactly on (e3, e2) and (e1, oo).  The critical points
    c -+ sqrt(c4)/12, c = -b2/12, lie in (e3, e2) and (e2, e1), 1/6 apart at
    least (c4 >= 1 is an integer); lo starts within 2^(1-k) below the larger,
    so above e3.  Then G(X - 1) <= 0 puts (X - 1) 2^-k in [e2, e1] and
    G(X) > 0 puts X 2^-k above e1.  The check fails only if the larger
    critical point is within 2^(1-k) of e2, where g(lo) > 0 from the start.
    """
    b2, b4, b6, _ = C.b_invariants()
    k = PRECISION_BITS + GUARD_BITS
    c2, c1, c0 = b2 << k, 2 * b4 << 2 * k, b6 << 3 * k

    def G(X: int) -> int:
        return ((4 * X + c2) * X + c1) * X + c0

    hi = 1 + max(abs(b2), 2 * abs(b4), abs(b6)) << k
    lo = (math.isqrt(C.c_invariants()[0] << 2 * k) - c2) // 12 if C.discriminant() > 0 else -hi
    lo = bisect_least(lambda X: G(X) > 0, lo + 1, hi) - 1
    if not G(lo) <= 0 < G(lo + 1):
        raise ArithmeticError(f"no sign change of g brackets e1 at {lo} / 2^{k}")
    return lo


def real_period(C: WeierstrassCurve) -> RealApprox:
    """Period of the invariant differential over all real components.

    Each component has period 2 pi / agm(2 sqrt(b), sqrt(2b + a)), with
    a = 3 e1 + b2/4, b = sqrt(3 e1^2 + (b2/2) e1 + b4/2) and e1 a real root
    of 4x^3 + b2 x^2 + 2 b4 x + b6 (Cremona, Algorithms for Modular Elliptic
    Curves, 3.7).  A positive discriminant gives two components and e1 must
    be the largest root: then, with A = e1 - e2 and B = e1 - e3, one AGM step
    turns the formula into pi / agm(sqrt(A), sqrt(B)).  ``e1_bracket`` puts e1
    in [x0, x0 + t0], t0 = 2^-k: there a rises with e1, and b^2 = h(x0 + t) =
    h(x0) + h'(x0) t + 3t^2 lies in [h(x0) + min(0, h'(x0) t0), h(x0) + max(0, h'(x0) t0) + 3 t0^2].
    Lower ends round down and upper ends up.  The AGM step increases in both
    arguments, so the lower lane stays below the exact (a_n, b_n) and the upper
    lane above, and b_n <= M <= a_n for n >= 1; the lanes stop once their gap
    stops shrinking, as rounding widens them.
    """
    b2, b4, _, _ = C.b_invariants()
    k, X = Q - GUARD_BITS, e1_bracket(C)
    h0, dh = 6 * X * X + (b2 * X << k) + (b4 << 2 * k), 12 * X + (b2 << k)  # h(x0), h'(x0) t0 in 2^-(2k+1)
    b_lo = math.isqrt(h0 + min(dh, 0) << 2 * GUARD_BITS - 1)  # b 2^Q from b^2 in units of 2^-2Q
    b_hi = math.isqrt(h0 + max(dh, 0) + 6 << 2 * GUARD_BITS - 1) + 1
    a_lo = 3 * X + (b2 << k - 2) << GUARD_BITS  # a = 3 e1 + b2/4 in units of 2^-Q, to a_lo + 3 2^(Q-k)
    al, bl = math.isqrt(b_lo << Q + 2), math.isqrt(2 * b_lo + a_lo << Q)  # 2 sqrt(b), sqrt(2b + a)
    ah, bh, gap = math.isqrt(b_hi << Q + 2) + 1, math.isqrt(2 * b_hi + a_lo + (3 << GUARD_BITS) << Q) + 1, None
    while True:
        al, bl, ah, bh = al + bl >> 1, math.isqrt(al * bl), ah + bh + 1 >> 1, math.isqrt(ah * bh) + 1
        if gap is not None and ah - bl >= gap:
            break
        gap = ah - bl
    (pi_lo, pi_hi), w = _pi(), 2 if C.discriminant() > 0 else 1  # w real components
    lo, hi = (w * pi_lo << Q + 1) // ah, -(-(w * pi_hi << Q + 1) // bl)  # w 2 pi 2^Q / M
    return RealApprox(Fraction(lo, 1 << Q), Fraction(hi, 1 << Q))


def rational_reconstruct(x: RealApprox) -> Fraction | None:
    """The unique rational with denominator <= MAX_DENOMINATOR in the interval, or None.

    Two such rationals differ by at least 1/MAX_DENOMINATOR^2, so a narrower
    interval holds at most one: the one closest to its midpoint, if any.
    """
    cand = ((x.lo + x.hi) / 2).limit_denominator(MAX_DENOMINATOR)
    return cand if x.hi - x.lo < Fraction(1, MAX_DENOMINATOR**2) and x.lo <= cand <= x.hi else None


def lvalue_ratio(
    C: WeierstrassCurve, local: dict[int, LocalData], traces: Mapping[int, int], terms: int
) -> tuple[RealApprox | None, RealApprox, Fraction | None]:
    """(L(E,1) or None, period, reconstructed rational ratio or None), from the curve's Frobenius table."""
    L, omega = l_value_at_1(local, traces, terms), real_period(C)
    if L is None:
        return L, omega, None
    ends = [x / y for x in (L.lo, L.hi) for y in (omega.lo, omega.hi)]  # omega.lo > 0
    return L, omega, rational_reconstruct(RealApprox(min(ends), max(ends)))
