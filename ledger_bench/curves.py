"""Seeded curve streams for the ledger benchmark.

The benchmark draws Weierstrass coefficients here, from its own seed, and
hands the program nothing but the resulting curves.  E1 (15a1) and E2 (15a3)
always open a stream, so every run also exercises the paper's curves.

The box a1, a3 in {0, 1}, a2 in {-1, 0, 1}, |a4|, |a6| <= 50 is desk-scale
traffic: small reduced-looking models, both signs of the discriminant.  It is
not narrowed to avoid known defects; larger coefficients belong to
correctness tests, not to a timing workload.  The stream skips only models
the program refuses by design: those failing its minimality certificate
(v_p(disc) < 12 or v_p(c4) < 4 at every p), for which the ledger raises a
DomainError asking for the model to be reduced first.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

Coefficients = tuple[int, int, int, int, int]

E1: Coefficients = (1, 1, 1, -10, -10)
E2: Coefficients = (1, 1, 1, -5, 2)

A4_A6_BOUND = 50


def invariants(a: Coefficients) -> tuple[int, int]:
    """(c4, discriminant) of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Written out here, independently of the program, so the benchmark can
    filter its inputs and check the program's invariants record.
    """
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2 * b2 - 24 * b4, disc


def _valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def passes_minimality_certificate(c4: int, disc: int) -> bool:
    """v_p(disc) < 12 or (c4 != 0 and v_p(c4) < 4) at every prime p."""
    p = 2
    while p**12 <= abs(disc):
        if all(p % q for q in range(2, p)) and _valuation(disc, p) >= 12:
            if c4 == 0 or _valuation(c4, p) >= 4:
                return False
        p += 1
    return True


def box_curves(seed: int) -> Iterator[Coefficients]:
    """E1, E2, then an endless seeded stream of curves in the box.

    Every curve is non-singular and passes the minimality certificate.
    """
    yield E1
    yield E2
    rng = random.Random(seed)
    while True:
        a = (
            rng.randint(0, 1),
            rng.randint(-1, 1),
            rng.randint(0, 1),
            rng.randint(-A4_A6_BOUND, A4_A6_BOUND),
            rng.randint(-A4_A6_BOUND, A4_A6_BOUND),
        )
        c4, disc = invariants(a)
        if disc != 0 and passes_minimality_certificate(c4, disc):
            yield a
