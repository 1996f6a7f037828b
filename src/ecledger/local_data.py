"""Reduction types at bad primes, Kodaira types I_n, Tamagawa numbers.

Only the good and multiplicative branches are implemented; additive
reduction raises ``UnsupportedReductionError`` so the ledger can record it
without aborting.  Semistable curves are all this toolkit needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd, prod

from .arith import DomainError, factorize, legendre_symbol, valuation
from .curve import WeierstrassCurve


class UnsupportedReductionError(DomainError):
    """Additive reduction: outside the supported (semistable) cases."""


class ReductionKind(str, Enum):
    GOOD = "good"
    MULT_SPLIT = "multiplicative-split"
    MULT_NONSPLIT = "multiplicative-nonsplit"


@dataclass(frozen=True)
class LocalData:
    p: int
    kind: ReductionKind
    kodaira_n: int  # Kodaira type I_n; n = 0 means good reduction
    tamagawa: int

    @property
    def kodaira(self) -> str:
        return f"I{self.kodaira_n}"


def _require_minimal(C: WeierstrassCurve, p: int) -> None:
    if not C.is_minimal_at(p):
        raise DomainError(f"minimality certificate fails at {p}; reduce the model first")


def _split_by_node_tangents(C: WeierstrassCurve, p: int) -> bool:
    """Split test by exhaustive search for rational tangent directions.

    Finds the node of the reduced curve and checks whether the tangent cone
    z^2 + a1*z - q splits over F_p.  Valid for every multiplicative prime,
    including p = 2; quadratic in p so only used at small p and as the
    oracle for the Legendre-symbol shortcut.
    """
    a1, a2, a3, a4, a6 = (a % p for a in C.coefficients())
    sing = None
    for x in range(p):
        for y in range(p):
            # partial derivatives of y^2 + a1 x y + a3 y - x^3 - a2 x^2 - a4 x - a6
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            f = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p
            if f == 0 and fx == 0 and fy == 0:
                sing = (x, y)
                break
        if sing:
            break
    if sing is None:
        raise DomainError(f"no singular point mod {p}; reduction is good")
    x0, _ = sing
    # Shifting the node to the origin leaves quadratic part
    # Y^2 + a1 X Y - (3 x0 + a2) X^2; the cubic term never contributes a
    # tangent since the Y^2 coefficient is 1.
    q = (3 * x0 + a2) % p
    # Tangent lines Y = s X exist over F_p iff s^2 + a1 s - q has a root.
    return any((s * s + a1 * s - q) % p == 0 for s in range(p))


def reduction_type(C: WeierstrassCurve, p: int) -> ReductionKind:
    """good / split multiplicative / non-split multiplicative at p."""
    _require_minimal(C, p)
    disc = C.discriminant()
    if disc % p != 0:
        return ReductionKind.GOOD
    c4, c6 = C.c_invariants()
    if c4 % p == 0:
        raise UnsupportedReductionError(f"additive reduction at {p}")
    if p == 2:
        split = _split_by_node_tangents(C, 2)
    else:
        split = legendre_symbol(-c6, p) == 1
    return ReductionKind.MULT_SPLIT if split else ReductionKind.MULT_NONSPLIT


def kodaira_and_tamagawa(C: WeierstrassCurve, p: int) -> LocalData:
    kind = reduction_type(C, p)
    if kind is ReductionKind.GOOD:
        return LocalData(p, kind, 0, 1)
    n = valuation(C.discriminant(), p)
    tam = n if kind is ReductionKind.MULT_SPLIT else gcd(2, n)
    return LocalData(p, kind, n, tam)


def bad_primes(C: WeierstrassCurve) -> list[int]:
    return sorted(factorize(C.discriminant()))


def tamagawa_product(C: WeierstrassCurve) -> int:
    return prod(kodaira_and_tamagawa(C, p).tamagawa for p in bad_primes(C))


def conductor_semistable(C: WeierstrassCurve) -> int:
    """Conductor of a semistable curve: product of the bad primes."""
    N = 1
    for p in bad_primes(C):
        reduction_type(C, p)  # raises UnsupportedReductionError if additive
        N *= p
    return N
