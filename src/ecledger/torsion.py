"""Rational torsion subgroups via point counts and a Nagell-Lutz search.

The search order bound is the gcd of #E(F_p) over several good odd primes;
candidate points come from the integral short model obtained by completing
the square and scaling (x, y) -> (36x + 3b2, 216y + ...), where the
classical y^2 | disc screen applies.  Everything found is closed under the
group law and the abstract structure read off the element orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import DomainError, primes_up_to, square_divisors
from .counting import count_points
from .curve import WeierstrassCurve

MAZUR_ORDER_CAP = 16  # no rational point has order 11 or > 12; 16 is a lazy cap


@dataclass(frozen=True)
class TorsionGroup:
    order: int
    structure: tuple[int, int]  # (d1, d2), d1 | d2, group = Z/d1 x Z/d2
    generators: tuple
    points: tuple

    def describe(self) -> str:
        d1, d2 = self.structure
        return f"Z/{d2}" if d1 == 1 else f"Z/{d1} x Z/{d2}"


def point_order(C: WeierstrassCurve, P, cap: int = MAZUR_ORDER_CAP) -> int | None:
    """Least n <= cap with n*P = infinity, or None ('infinite: exceeds bound')."""
    if not C.is_on_curve(P):
        raise DomainError(f"{P} is not on the curve")
    Q = P
    for n in range(1, cap + 1):
        if Q is None:
            return n if n > 1 or P is None else 1
        Q = C.add(Q, P)
    return None


def _short_model(C: WeierstrassCurve) -> tuple[int, int]:
    """Coefficients (A, B) of the integral short model Y^2 = X^3 + A X + B.

    X = 36x + 3b2, Y = 108(2y + a1x + a3); A = -27 c4, B = -54 c6.
    """
    c4, c6 = C.c_invariants()
    return -27 * c4, -54 * c6


def _integer_cubic_roots(A: int, B: int, c: int) -> list[int]:
    """Integer roots of X^3 + A X + B - c, by rounding the real roots.

    Floating point only locates candidates; membership is verified exactly.
    """
    import numpy as np

    out = set()
    for r in np.roots([1.0, 0.0, float(A), float(B - c)]):
        if abs(r.imag) > 1e-6:
            continue
        r0 = round(r.real)
        for cand in (r0 - 1, r0, r0 + 1):
            if cand**3 + A * cand + B == c:
                out.add(cand)
    return sorted(out)


def _torsion_candidates(C: WeierstrassCurve) -> list:
    """Affine candidates on C from the Nagell-Lutz screen on the short model."""
    A, B = _short_model(C)
    disc_short = -16 * (4 * A**3 + 27 * B**2)
    a1, a3 = C.a1, C.a3
    b2 = C.b_invariants()[0]

    def back(X: int, Y: int):
        x = Fraction(X - 3 * b2, 36)
        y = Fraction(Fraction(Y, 108) - a1 * x - a3, 2)
        return (x, y)

    ys = [0] + square_divisors(disc_short)
    cands = []
    for Y in ys:
        for X in _integer_cubic_roots(A, B, Y * Y):
            for sgn in (1, -1) if Y else (1,):
                pt = back(X, sgn * Y)
                if C.is_on_curve(pt):
                    cands.append(pt)
    return cands


def torsion_subgroup(C: WeierstrassCurve) -> TorsionGroup:
    """The full rational torsion subgroup with generators and structure."""
    if not C.is_integral():
        raise DomainError("torsion search requires an integral model")
    disc = C.discriminant()
    # Order bound: gcd of #E(F_p) over good odd primes (torsion injects).
    counts = []
    for p in primes_up_to(200):
        if p == 2 or disc % p == 0:
            continue
        counts.append(count_points(C, p))
        if len(counts) >= 6:
            break
    bound = math.gcd(*counts)

    points = {None}
    for P in _torsion_candidates(C):
        n = point_order(C, P)
        if n is not None and bound % n == 0:
            points.add(_norm(P))
    # Close under the group law (candidates can miss sums with non-integral
    # short-model images only in theory; closure makes the result exact).
    changed = True
    while changed:
        changed = False
        for P in list(points):
            for Q in list(points):
                R = _norm(C.add(P, Q))
                if R not in points:
                    points.add(R)
                    changed = True

    orders = {P: point_order(C, P) for P in points}
    order = len(points)
    d2 = max(orders.values())
    d1 = order // d2
    if d1 * d2 != order or d2 % d1 != 0:
        raise AssertionError(f"inconsistent torsion structure: order {order}, exponent {d2}")
    gens = _find_generators(C, points, orders, d1, d2)
    pts_sorted = tuple(sorted((P for P in points if P is not None), key=lambda q: (Fraction(q[0]), Fraction(q[1]))))
    return TorsionGroup(order, (d1, d2), gens, (None,) + pts_sorted)


def _norm(P):
    if P is None:
        return None
    x, y = Fraction(P[0]), Fraction(P[1])
    return (int(x) if x.denominator == 1 else x, int(y) if y.denominator == 1 else y)


def _find_generators(C, points, orders, d1, d2) -> tuple:
    """Generators realizing Z/d1 x Z/d2 by direct search over the group."""
    gs = [P for P in points if orders[P] == d2]
    if d1 == 1:
        return (gs[0],) if gs else ()
    for g2 in gs:
        span = set()
        Q = None
        for _ in range(d2):
            span.add(Q)
            Q = C.add(Q, g2)
        for g1 in points:
            if orders[g1] == d1 and g1 not in span:
                # <g1> meets <g2> trivially since d1 | d2 and g1 outside <g2>
                full = set()
                R1 = None
                for _ in range(d1):
                    R2 = None
                    for _ in range(d2):
                        full.add(_norm(C.add(R1, R2)))
                        R2 = C.add(R2, g2)
                    R1 = C.add(R1, g1)
                if len(full) == d1 * d2:
                    return (g1, g2)
    raise AssertionError("no generating pair found")
