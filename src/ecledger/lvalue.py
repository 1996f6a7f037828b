"""L(E,1) by the exponential a_n series (zero from the root number when it is
-1), the real period by AGM from an exact bracket of e1, and the rational
reconstruction of their ratio.

The caller's local data comes in as the ledger's {p: LocalData} over the
primes p | N of a semistable curve; there a_p = +1 where the reduction is
split and -1 where not.

Reals are mpmath floats at one working precision, PRECISION_BITS, with an
error bound carried alongside.  L(E,1) is summed exactly in integer fixed
point with 32 guard bits and rounded to the working precision once;
``l_value_at_1`` proves that this error is far below the rounding term it
reports.  A value whose magnitude is below its own error bound is a partial
sum, not a digit of L(E,1): it can change with the number of terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .arith import DomainError
from .counting import frobenius_table
from .curve import WeierstrassCurve
from .local_data import LocalData, ReductionKind, conductor_semistable

DEFAULT_TERMS = 2000
PRECISION_BITS = 128  # of L(E,1), Omega and their ratio
# The largest series length the CLI accepts; the functions take any.  At the
# cap, with N = 3265006, `lvalue` runs in about 4 s on a 2-vCPU x86-64
# container (the sweep to 10^6 is most of it).
TERMS_CAP = 1_000_000
GUARD_BITS = 32  # of the fixed-point L-series sum, beyond the working precision
MAX_DENOMINATOR = 100  # of the reconstructed L(E,1)/Omega


def _mpf_to_fraction(v: mp.mpf) -> Fraction:
    """The exact value of v, read at v's own precision (never rounded)."""
    if not mp.isfinite(v):
        raise ValueError(f"{v} has no exact rational value")
    sign, man, exp, _ = v._mpf_
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


@dataclass(frozen=True)
class RealApprox:
    value: mp.mpf
    error_bound: mp.mpf


def _bad_ap(ld: LocalData) -> int:
    """a_p at a multiplicative prime: +1 where the reduction is split, -1 where not."""
    return 1 if ld.kind is ReductionKind.MULT_SPLIT else -1


def an_coefficients(C: WeierstrassCurve, M: int, local: dict[int, LocalData]) -> tuple[int, ...]:
    """Hecke eigenvalue coefficients of the curve's L-series: a_n at index n, 1 <= n <= M."""
    if M < 1:
        raise DomainError(f"need at least one coefficient, got M = {M}")
    traces = frobenius_table(C, M)
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


def _tail_bound(N: int, M: int) -> mp.mpf:
    """Bound on the truncated tail of 2*sum a_n/n exp(-2 pi n / sqrt N).

    Uses |a_n| <= d(n) sqrt(n) <= n^(3/2), so each term is below
    2 sqrt(n) e^(-c n); sqrt(n) <= sqrt(M+1) e^((n-M-1)/(2(M+1))) collapses
    the sum to a geometric series.
    """
    c = 2 * mp.pi / mp.sqrt(N)
    r = mp.e ** (-(c - mp.mpf(1) / (2 * (M + 1))))
    if r >= 1:
        return mp.inf
    first = 2 * mp.sqrt(M + 1) * mp.e ** (-c * (M + 1))
    return first / (1 - r)


def _fixed_point_sum(a: tuple[int, ...], N: int, P: int) -> int:
    """sum a[n]/n e^(-2 pi n / sqrt N) over 1 <= n < len(a), in units of 2^-P.

    u^n is carried as the integer un ~ u^n 2^P and each term is floored;
    once un is 0 every later term is 0 too, so the loop stops there.
    """
    with mp.workprec(P + GUARD_BITS):
        U = int(mp.floor(mp.ldexp(mp.exp(-2 * mp.pi / mp.sqrt(N)), P)))
    acc, un = 0, 1 << P
    for n in range(1, len(a)):
        un = un * U >> P
        if not un:
            break
        acc += a[n] * un // n
    return acc


def l_value_at_1(C: WeierstrassCurve, local: dict[int, LocalData], terms: int = DEFAULT_TERMS) -> RealApprox:
    """L(E, 1) = 2 sum a_n/n u^n with u = exp(-2 pi / sqrt N), with a tail bound.

    The series is valid when the root number is +1; when it is -1 the
    functional equation forces L(E, 1) = 0 exactly, and no series is summed.

    The error bound is the tail bound plus the rounding term
    R = 2^(12 - B) (|value| + 1) M, for B = PRECISION_BITS = 128 and M = terms.
    R covers the fixed-point sum ``_fixed_point_sum`` at P = B + 32 = 160 bits:
    - U = floor(u~ 2^P), where mpmath's u~ at P + 32 bits is within
      2^(-P-28) of u (c = 2 pi / sqrt N < 2 carries a relative error of a few
      units in 2^(-P-32)).  So U' = U 2^-P has |U' - u| < 2^-P (1 + 2^-28).
    - Step n sets un = floor(un U 2^-P), so v_n = un 2^-P = v_(n-1) U' - eps_n
      with 0 <= eps_n < 2^-P, and v_n <= 1.  Then e_n = u^n - v_n satisfies
      e_n = u e_(n-1) + v_(n-1) (u - U') + eps_n, and from e_0 = 0,
      |e_n| < 2^(1-P) (1 + 2^-29) min(n, 1 / (1 - u)).
    - Each term is floor(a_n un / n), within 2^-P of a_n v_n / n.  Once un
      is 0 every later un and term is exactly 0, so stopping there drops
      nothing that the floors would keep, and the integer sum is within
        E = 2^-P (2 (1 + 2^-29) sum_(n<=M) |a_n| min(1, 1 / (n (1 - u))) + M)
      of sum_(n<=M) a_n u^n / n.
    - One rounding to B bits adds at most 2^-B |value| to value = 2 sum.
    With |a_n| <= d(n) sqrt(n) and sum_(n<=M) d(n) <= M (ln M + 1),
    2E <= 2^(-31-B) M (2.01 sqrt(M) (ln M + 1) + 1), which stays below
    2^-26 R for every M <= 10^7; the rounding step is below 2^-12 R / M.
    """
    with mp.workprec(PRECISION_BITS):
        if root_number(local) == -1:
            return RealApprox(mp.mpf(0), mp.mpf(0))
        a = an_coefficients(C, terms, local)
        N = conductor_semistable(local)
        tail = _tail_bound(N, terms)
        P = PRECISION_BITS + GUARD_BITS
        value = mp.ldexp(mp.mpf(_fixed_point_sum(a, N, P)), 1 - P)
        rounding = mp.mpf(2) ** (12 - PRECISION_BITS) * (abs(value) + 1) * terms
        return RealApprox(value, tail + rounding)


def e1_bracket(C: WeierstrassCurve) -> int:
    """The integer X with e1 in [X 2^-k, (X + 1) 2^-k), k = PRECISION_BITS + GUARD_BITS.

    e1 is the real root of g = 4x^3 + b2 x^2 + 2 b4 x + b6 if Delta < 0, the
    largest if Delta > 0.  Bisection on the integer cubic G(X) = 2^(3k) g(X/2^k)
    keeps G(lo) <= 0 < G(hi), and the final signs are checked exactly.  Every
    root has |x| < 1 + max(|b2|, 2|b4|, |b6|) / 4 (Cauchy), where hi starts.
    Delta < 0: lo starts at -hi; the one real root lies in [lo, hi).
    Delta > 0: g > 0 exactly on (e3, e2) and (e1, oo).  The critical points
    c -+ sqrt(c4)/12, c = -b2/12, lie in (e3, e2) and (e2, e1), 1/6 apart at
    least (c4 >= 1 is an integer); lo starts within 2^(1-k) below the larger,
    so above e3.  Then g(lo) <= 0 puts lo in [e2, e1] and g(hi) > 0 puts
    hi above e1.  The check fails only if the larger critical point is within
    2^(1-k) of e2, where g(lo) > 0 from the start.
    """
    b2, b4, b6, _ = C.b_invariants()
    k = PRECISION_BITS + GUARD_BITS
    c2, c1, c0 = b2 << k, 2 * b4 << 2 * k, b6 << 3 * k

    def G(X: int) -> int:
        return ((4 * X + c2) * X + c1) * X + c0

    hi = 1 + max(abs(b2), 2 * abs(b4), abs(b6)) << k
    lo = (math.isqrt(C.c_invariants()[0] << 2 * k) - c2) // 12 if C.discriminant() > 0 else -hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if G(mid) > 0:
            hi = mid
        else:
            lo = mid
    if not G(lo) <= 0 < G(hi):
        raise ArithmeticError(f"no sign change of g brackets e1 at {lo} / 2^{k}")
    return lo


def real_period(C: WeierstrassCurve) -> RealApprox:
    """Period of the invariant differential over all real components.

    Each component has period 2 pi / agm(2 sqrt(b), sqrt(2b + a)), with
    a = 3 e1 + b2/4, b = sqrt(3 e1^2 + (b2/2) e1 + b4/2) and e1 a real root
    of 4x^3 + b2 x^2 + 2 b4 x + b6 (Cremona, Algorithms for Modular Elliptic
    Curves, 3.7).  A positive discriminant gives two components and e1 must
    be the largest root: then, with A = e1 - e2 and B = e1 - e3, one AGM step
    turns the formula into pi / agm(sqrt(A), sqrt(B)).  e1 is the left end of
    the proved bracket of ``e1_bracket``, 2^-(PRECISION_BITS + GUARD_BITS)
    wide.  The reported error |Omega| 2^(8 - PRECISION_BITS) of the mpmath
    AGM is not proved (ROADMAP item 5).
    """
    b2, b4, _, _ = C.b_invariants()
    with mp.workprec(PRECISION_BITS + 16):
        e1 = mp.ldexp(mp.mpf(e1_bracket(C)), -(PRECISION_BITS + GUARD_BITS))
        a = 3 * e1 + mp.mpf(b2) / 4
        b = mp.sqrt(3 * e1**2 + mp.mpf(b2) / 2 * e1 + mp.mpf(b4) / 2)
        components = 2 if C.discriminant() > 0 else 1
        value = components * 2 * mp.pi / mp.agm(2 * mp.sqrt(b), mp.sqrt(2 * b + a))
        err = abs(value) * mp.mpf(2) ** (8 - PRECISION_BITS)
        return RealApprox(value, err)


def rational_reconstruct(x: RealApprox) -> Fraction | None:
    """The unique rational with denominator <= MAX_DENOMINATOR within the interval.

    None when the error bound is too large to make the answer unique
    (requires error_bound < 1/(2 MAX_DENOMINATOR^2), the classical
    uniqueness threshold for continued-fraction reconstruction).
    """
    if not mp.isfinite(x.error_bound):
        return None
    exact = _mpf_to_fraction(x.value)
    bound = _mpf_to_fraction(x.error_bound)
    if bound >= Fraction(1, 2 * MAX_DENOMINATOR**2):
        return None
    cand = exact.limit_denominator(MAX_DENOMINATOR)
    return cand if abs(cand - exact) <= bound else None


def lvalue_ratio(
    C: WeierstrassCurve, local: dict[int, LocalData], terms: int = DEFAULT_TERMS
) -> tuple[RealApprox, RealApprox, Fraction | None]:
    """(L(E,1), period, reconstructed rational ratio or None)."""
    L = l_value_at_1(C, local, terms)
    omega = real_period(C)
    with mp.workprec(PRECISION_BITS):
        ratio = L.value / omega.value
        # |d(a/b)| <= (|da| + |a/b| |db|) / |b|
        err = (L.error_bound + abs(ratio) * omega.error_bound) / abs(omega.value)
        approx = RealApprox(ratio, err)
    return L, omega, rational_reconstruct(approx)
