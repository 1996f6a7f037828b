"""L(E,1) by the exponential a_n series, the real period by AGM, and the
rational reconstruction of their ratio.

Reals are mpmath fixed-precision floats with an explicit interval-style
error bound carried alongside; every reported digit survives doubling the
working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .arith import primes_up_to
from .counting import trace_ap
from .curve import WeierstrassCurve
from .local_data import ReductionKind, conductor_semistable, reduction_type

DEFAULT_TERMS = 2000
DEFAULT_PRECISION_BITS = 128


def _mpf_to_fraction(v) -> Fraction:
    sign, man, exp, _ = mp.mpf(v)._mpf_
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


@dataclass(frozen=True)
class RealApprox:
    value: mp.mpf
    error_bound: mp.mpf
    precision_bits: int

    def to_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.value)


@dataclass(frozen=True)
class AnSeries:
    conductor: int
    coefficients: tuple[int, ...]  # a_1 .. a_M at indices 1..M (index 0 unused)

    def a(self, n: int) -> int:
        return self.coefficients[n]


def an_coefficients(C: WeierstrassCurve, M: int) -> AnSeries:
    """Hecke eigenvalue coefficients a_1..a_M of the curve's L-series."""
    N = conductor_semistable(C)
    a = [0] * (M + 1)
    a[1] = 1
    for p in primes_up_to(M):
        if N % p == 0:
            kind = reduction_type(C, p)
            ap = 1 if kind is ReductionKind.MULT_SPLIT else -1
        else:
            ap = trace_ap(C, p)
        # prime powers
        pk = p
        if pk <= M:
            a[pk] = ap
        prev, cur = 1, ap
        while pk * p <= M:
            pk *= p
            if N % p == 0:
                nxt = ap * cur
            else:
                nxt = ap * cur - p * prev
            a[pk] = nxt
            prev, cur = cur, nxt
    # multiplicative fill in ascending order, splitting off one prime power
    for n in range(2, M + 1):
        if a[n] != 0 or n == 1:
            continue
        m = n
        for p in primes_up_to(int(n**0.5) + 1):
            if m % p == 0:
                pk = 1
                while m % p == 0:
                    m //= p
                    pk *= p
                if m > 1:
                    a[n] = a[pk] * a[m]
                break
    return AnSeries(N, tuple(a))


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


def l_value_at_1(
    C: WeierstrassCurve,
    terms: int = DEFAULT_TERMS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> RealApprox:
    """L(E, 1) = 2 sum a_n/n exp(-2 pi n / sqrt N), with a rigorous tail bound."""
    series = an_coefficients(C, terms)
    with mp.workprec(precision_bits):
        tail = _tail_bound(series.conductor, terms)
        c = 2 * mp.pi / mp.sqrt(series.conductor)
        u = mp.e ** (-c)
        total = mp.mpf(0)
        un = mp.mpf(1)
        for n in range(1, terms + 1):
            un *= u
            an = series.a(n)
            if an:
                total += mp.mpf(an) / n * un
        value = 2 * total
        rounding = mp.mpf(2) ** (-precision_bits + 12) * (abs(value) + 1) * terms
        return RealApprox(value, tail + rounding, precision_bits)


def real_period(
    C: WeierstrassCurve, precision_bits: int = DEFAULT_PRECISION_BITS
) -> RealApprox:
    """Period of the invariant differential over all real components.

    Completed-square cubic 4x^3 + b2 x^2 + 2 b4 x + b6 with real(s) roots;
    positive discriminant (three real roots e1 > e2 > e3) gives the two-
    component value 2 pi / agm(sqrt(e1-e3), sqrt(e1-e2)); negative
    discriminant falls back to direct quadrature of the single component.
    """
    b2, b4, b6, _ = C.b_invariants()
    disc = C.discriminant()
    with mp.workprec(precision_bits + 16):
        roots = mp.polyroots([4, b2, 2 * b4, b6], maxsteps=200, extraprec=64)
        if disc > 0:
            e1, e2, e3 = sorted((mp.re(r) for r in roots), reverse=True)
            omega1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            value = 2 * omega1
        else:
            e1 = max((mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(2) ** (-20)))

            def integrand(x):
                f = ((4 * x + b2) * x + 2 * b4) * x + b6
                return 1 / mp.sqrt(f)

            value = 2 * mp.quad(integrand, [e1, mp.inf])
            # rounding below the branch point e1 leaves a negligible imaginary
            # residue in the quadrature; discard it after checking it is noise
            if mp.im(value):
                assert abs(mp.im(value)) < abs(mp.re(value)) * mp.mpf(2) ** (-precision_bits // 2)
                value = mp.re(value)
        err = abs(value) * mp.mpf(2) ** (-precision_bits + 8)
        return RealApprox(mp.mpf(value), err, precision_bits)


def rational_reconstruct(x: RealApprox, max_den: int) -> Fraction | None:
    """The unique rational with denominator <= max_den within the interval.

    None when the error bound is too large to make the answer unique
    (requires error_bound < 1/(2 max_den^2), the classical uniqueness
    threshold for continued-fraction reconstruction).
    """
    exact = x.to_fraction()
    bound = _mpf_to_fraction(x.error_bound)
    if bound >= Fraction(1, 2 * max_den * max_den):
        return None
    cand = exact.limit_denominator(max_den)
    return cand if abs(cand - exact) <= bound else None


def lvalue_ratio(
    C: WeierstrassCurve,
    terms: int = DEFAULT_TERMS,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    max_den: int = 100,
) -> tuple[RealApprox, RealApprox, Fraction | None]:
    """(L(E,1), period, reconstructed rational ratio or None)."""
    L = l_value_at_1(C, terms, precision_bits)
    omega = real_period(C, precision_bits)
    with mp.workprec(precision_bits):
        ratio = L.value / omega.value
        # |d(a/b)| <= (|da| + |a/b| |db|) / |b|
        err = (L.error_bound + abs(ratio) * omega.error_bound) / abs(omega.value)
        approx = RealApprox(ratio, err, precision_bits)
    return L, omega, rational_reconstruct(approx, max_den)
