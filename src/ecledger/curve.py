"""Integral long Weierstrass models: invariants, point addition and 2-isogenies.

Coefficients are integers.  Points are rational: ``None`` for the point at
infinity or an ``(x, y)`` pair of exact rationals, kept as plain ints when
integral.  A Velu codomain need not be integral, so it stays a tuple of five
rational coefficients.  Finite-field data enters only as Frobenius traces
(``counting``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import DomainError, iroot_exact, valuation

Point = tuple  # (x, y); the point at infinity is None


class SingularCurveError(DomainError):
    """The given coefficients define a singular cubic."""


class BadReductionError(DomainError):
    """A point count was requested at a prime dividing the discriminant."""


@dataclass(frozen=True)
class Invariants:
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    disc: int
    j: Fraction


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with integer coefficients.

    Any coefficient that is not an int (a bool, a Fraction, a float) raises a
    DomainError.
    """

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if not all(type(a) is int for a in self.coefficients()):  # a bool would print as True
            raise DomainError(f"coefficients must be integers, got {self.coefficients()}")
        # Not a dataclass field: equality and hashing stay on the five coefficients.
        object.__setattr__(self, "_invariants", _model_invariants(*self.coefficients()))

    # -- invariants ---------------------------------------------------------

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def b_invariants(self) -> tuple[int, int, int, int]:
        return (self._invariants.b2, self._invariants.b4, self._invariants.b6, self._invariants.b8)

    def c_invariants(self) -> tuple[int, int]:
        return (self._invariants.c4, self._invariants.c6)

    def discriminant(self) -> int:
        return self._invariants.disc

    def invariants(self) -> Invariants:
        return self._invariants

    def j_invariant(self) -> Fraction:
        return self._invariants.j

    # -- points -------------------------------------------------------------

    def is_on_curve(self, pt: Point | None) -> bool:
        if pt is None:
            return True
        x, y = pt
        return y * y + self.a1 * x * y + self.a3 * y == x**3 + self.a2 * x * x + self.a4 * x + self.a6

    def add(self, P: Point | None, Q: Point | None) -> Point | None:
        """P + Q; a DomainError when either point is not on the curve."""
        for pt in (P, Q):
            if not self.is_on_curve(pt):
                raise DomainError(f"point {pt} is not on {self.coefficients()}")
        return self._add(P, Q)

    def _add(self, P: Point | None, Q: Point | None) -> Point | None:
        """P + Q for points already known to be on the curve."""
        if P is None:
            return Q
        if Q is None:
            return P
        a1, a2, a3, a4, a6 = self.coefficients()
        x1, y1 = Fraction(P[0]), Fraction(P[1])
        x2, y2 = Fraction(Q[0]), Fraction(Q[1])
        if x1 == x2:
            if y1 != y2:
                return None  # Q = -P
            den = 2 * y1 + a1 * x1 + a3
            if den == 0:
                return None  # 2-torsion doubles to infinity
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
            nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / den
        else:
            lam = (y2 - y1) / (x2 - x1)
            nu = y1 - lam * x1
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        return (x3, -(lam + a1) * x3 - nu - a3)

    # -- minimality ---------------------------------------------------------

    def is_minimal_at(self, p: int) -> bool:
        """Sufficient minimality certificate: v_p(disc) < 12 or v_p(c4) < 4."""
        disc = self.discriminant()
        if disc % p != 0:
            return True
        c4, _ = self.c_invariants()
        if valuation(disc, p) < 12:
            return True
        return c4 != 0 and valuation(c4, p) < 4


def _model_invariants(a1, a2, a3, a4, a6) -> Invariants:
    """The invariants of a model: once per curve, by its constructor, and of
    the rational models that isomorphisms compare."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if disc == 0:
        raise SingularCurveError(f"singular model {(a1, a2, a3, a4, a6)}")
    return Invariants(b2, b4, b6, b8, c4, c6, disc, Fraction(c4**3, disc))


@dataclass(frozen=True)
class CurveIsomorphism:
    """Change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""

    u: Fraction
    r: Fraction
    s: Fraction
    t: Fraction

    def apply(self, model: tuple) -> tuple[Fraction, ...]:
        """The five coefficients of the transformed model, as Fractions."""
        u, r, s, t = self.u, self.r, self.s, self.t
        a1, a2, a3, a4, a6 = model
        A1 = (a1 + 2 * s) / u
        A2 = (a2 - s * a1 + 3 * r - s * s) / u**2
        A3 = (a3 + r * a1 + 2 * t) / u**3
        A4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4
        A6 = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6
        return (A1, A2, A3, A4, A6)


def isomorphism_over_Q(model: tuple, target: tuple) -> CurveIsomorphism | None:
    """An exact isomorphism (u, r, s, t) taking one model to the other, or None.

    Both are tuples of five rational coefficients.  u is pinned by
    u^12 = disc(model)/disc(target); r, s, t then solve linearly.
    """
    inv, inv_target = _model_invariants(*model), _model_invariants(*target)
    if inv.j != inv_target.j:
        return None
    ratio = Fraction(inv.disc) / inv_target.disc
    if ratio < 0:
        return None
    un = iroot_exact(ratio.numerator, 12)
    ud = iroot_exact(ratio.denominator, 12)
    if un is None or ud is None:
        return None
    a1, a2, a3, _, _ = model
    b1, b2, b3, _, _ = target
    for u in (Fraction(un, ud), Fraction(-un, ud)):
        s = (u * b1 - a1) / 2
        r = (u * u * b2 - a2 + s * a1 + s * s) / 3
        t = (u**3 * b3 - a3 - r * a1) / 2
        iso = CurveIsomorphism(u, r, s, t)
        if iso.apply(model) == tuple(target):
            return iso
    return None


@dataclass(frozen=True)
class TwoIsogeny:
    """A degree-2 isogeny given by its kernel point and Velu codomain."""

    domain: WeierstrassCurve
    kernel: tuple
    codomain: tuple  # its five coefficients, rational and in general not integral
    t: Fraction  # Velu's t for the map itself: x' = x + t/(x - x0)


def velu_2_isogeny(C: WeierstrassCurve, K: tuple) -> TwoIsogeny:
    """Quotient of C by the order-2 subgroup generated by K (Velu's formulas)."""
    if K is None or not C.is_on_curve(K):
        raise DomainError(f"kernel point {K} is not an affine point of the curve")
    a1, a2, a3, a4, a6 = C.coefficients()
    x0, y0 = Fraction(K[0]), Fraction(K[1])
    if 2 * y0 + a1 * x0 + a3 != 0:  # K has order 2 iff K = -K, iff this is 0
        raise DomainError(f"kernel point {K} does not have order 2")
    # g^y = 2*y0 + a1*x0 + a3 = 0, so u_Q = 0 and t_Q = g^x.
    t = 3 * x0 * x0 + 2 * a2 * x0 + a4 - a1 * y0
    w = t * x0  # u_Q + t_Q * x0 with u_Q = 0
    b2 = a1 * a1 + 4 * a2
    return TwoIsogeny(C, (K[0], K[1]), (a1, a2, a3, a4 - 5 * t, a6 - b2 * t - 7 * w), t)


def two_isogeny_onto(C: WeierstrassCurve, target: WeierstrassCurve, kernels):
    """The 2-isogeny from C whose Velu codomain is isomorphic over Q to target.

    Tries each of the kernels, the rational points of order 2 on C, and
    matches its codomain to target by an exact isomorphism.  Returns
    (isogeny, isomorphism) or None.
    """
    for K in kernels:
        phi = velu_2_isogeny(C, K)
        iso = isomorphism_over_Q(phi.codomain, target.coefficients())
        if iso is not None:
            return phi, iso
    return None


def curve_from_string(text: str) -> WeierstrassCurve:
    """Parse the toolkit-wide curve format "a1,a2,a3,a4,a6"."""
    try:
        coefficients = [int(s) for s in text.split(",")]
    except ValueError:
        coefficients = []
    if len(coefficients) != 5:
        raise DomainError(f"expected five comma-separated integers, got {text!r}")
    return WeierstrassCurve(*coefficients)


E1 = WeierstrassCurve(1, 1, 1, -10, -10)  # conductor 15, Cremona 15a1
E2 = WeierstrassCurve(1, 1, 1, -5, 2)  # conductor 15, Cremona 15a3
