"""Rational torsion subgroups by an exact Nagell-Lutz search.

The substitution X = 36x + 3b2, Y = 108(2y + a1x + a3) maps an integral model
isomorphically over Q onto the integral short model Y^2 = X^3 + AX + B with
A = -27c4 and B = -54c6.  By Nagell-Lutz (Silverman, AEC VIII.7.2) every
torsion point of the short model has integer X and Y, with Y = 0 or
Y^2 | 4A^3 + 27B^2.  The short model's discriminant -16(4A^3 + 27B^2) is
2^12 3^12 Delta, so 4A^3 + 27B^2 = -2^8 3^12 Delta and its square divisors
come from the factorisation of Delta.  For each such Y the X are the integer
roots of X^3 + AX + (B - Y^2), which ``arith.integer_cubic_roots`` finds
exactly, so the candidates contain the whole torsion subgroup.  A candidate
is torsion iff its order is finite, and by Mazur it is then at most 12.  A finite subgroup of E(Q) lies in some
E[n] = (Z/n)^2, so it is Z/d1 x Z/d2 with d1 | d2: d2 is its exponent, the
largest order, and d1 = order / d2.  Its points of order 2 are the kernels
of the rational 2-isogenies, so the group lists them too.

Point counts can prove the group trivial first.  At a good prime p >= 3,
reduction injects E(Q)_tors into E(F_p): its kernel, the formal group
E_1(Q_p), has no torsion since v(p) = 1 < p - 1 (Silverman, AEC VII.3.1 with
IV.6.1).  So #E(Q)_tors divides every such #E(F_p), and a gcd of 1 proves it 1.
The counts at GCD_PRIMES are p + 1 - a_p from the caller's Frobenius table,
which a ledger reads once per run (``counting.frobenius_table``).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .arith import factorize, integer_cubic_roots, square_divisors
from .counting import count_points  # noqa: F401  (count_points stays importable here, where tracers rebind it)
from .curve import WeierstrassCurve

MAZUR_ORDER_CAP = 12  # Mazur: a rational torsion point has order at most 12
GCD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)  # whose point counts may prove the group trivial


class TorsionGroup(namedtuple("TorsionGroup", "order structure points two_torsion gcd_primes", defaults=((),))):
    """The group Z/d1 x Z/d2 with structure (d1, d2), d1 | d2, and its order.

    points: the point at infinity, then the affine points sorted by (x, y).
    two_torsion: the points of order 2, sorted by x, the kernels of the rational 2-isogenies.
    gcd_primes: the p whose #E(F_p) have gcd 1, if any.  They record how the
    group was found, not the group, so equality and hashing read the first four fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, TorsionGroup) and self[:4] == other[:4]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:4])

    def describe(self) -> str:
        d1, d2 = self.structure
        return f"Z/{d2}" if d1 == 1 else f"Z/{d1} x Z/{d2}"


def point_order(C: WeierstrassCurve, P) -> int | None:
    """The order of the rational point P, or None when it is past Mazur's 12, so infinite.

    A DomainError when P is not on C.  P is checked once: its multiples are
    on C too.
    """
    Q = C.add(P, None)
    for n in range(1, MAZUR_ORDER_CAP + 1):
        if Q is None:
            return n
        Q = C._add(Q, P)
    return None


def rational(v: Fraction) -> int | Fraction:
    """v as a plain int when it is integral (the form points keep)."""
    return int(v) if v.denominator == 1 else v


def torsion_subgroup(C: WeierstrassCurve, traces: Mapping[int, int]) -> TorsionGroup:
    """The full rational torsion subgroup: its points, order and structure.

    ``traces`` is a Frobenius table {p: a_p} of good primes; the counts
    #E(F_p) = p + 1 - a_p at those of GCD_PRIMES it holds may prove the
    group trivial before the search.
    """
    n = 0
    good = [p for p in GCD_PRIMES if p in traces]
    for i, p in enumerate(good):
        n = math.gcd(n, p + 1 - traces[p])
        if n == 1:
            return TorsionGroup(1, (1, 1), (None,), (), tuple(good[: i + 1]))
    c4, c6 = C.c_invariants()
    A, B = -27 * c4, -54 * c6
    b2 = C.b_invariants()[0]
    fac = dict(factorize(C.discriminant()))  # a copy: factorize's dict is shared
    fac[2], fac[3] = fac.get(2, 0) + 8, fac.get(3, 0) + 12  # 4A^3 + 27B^2 = -2^8 3^12 Delta
    orders = {None: 1}
    for Y in [0] + square_divisors(fac):
        for X in integer_cubic_roots(A, B - Y * Y):
            x = Fraction(X - 3 * b2, 36)
            for sY in {Y, -Y}:
                P = (rational(x), rational((Fraction(sY, 108) - C.a1 * x - C.a3) / 2))
                n = point_order(C, P)
                if n is not None:
                    orders[P] = n
    order, d2 = len(orders), max(orders.values())
    d1 = order // d2
    if d1 * d2 != order or d2 % d1 != 0:
        raise AssertionError(f"inconsistent torsion structure: order {order}, exponent {d2}")
    pts = sorted((P for P in orders if P is not None), key=lambda q: (Fraction(q[0]), Fraction(q[1])))
    return TorsionGroup(order, (d1, d2), (None, *pts), tuple(P for P in pts if orders[P] == 2))
