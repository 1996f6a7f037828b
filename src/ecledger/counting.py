"""Point counts over F_p, Frobenius traces and the ordinary-prime sweep.

Counting is O(p) per prime: for odd p the affine count is
p + sum_x chi(f(x)) where f is the completed square
f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 and chi the quadratic character.  The
numpy kernel squares only x <= (p-1)/2, mirrors the rest by (p-x)^2 = x^2,
reduces f once and reads chi from one int8 table of the squares; it computes
in int32 while that is exact and in int64 above.  p = 2 is brute force.
Every trace the ledger reads comes from one sweep, ``frobenius_table``, which
keeps the last curve's traces, extends them to a larger bound and asserts the
Hasse bound on each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import DomainError, primes_up_to
from .curve import BadReductionError, WeierstrassCurve

COUNT_POINTS_MAX_P = 1_100_000_000  # 7 p^2 < 2^63 keeps count_points exact


def count_points_naive(C: WeierstrassCurve, p: int) -> int:
    """#E(F_p) by trying every (x, y) mod p: the O(p^2) oracle for ``count_points``."""
    if not C.is_integral():
        raise DomainError("counting requires an integral model")
    a1, a2, a3, a4, a6 = C.coefficients()
    count = 1
    for x in range(p):
        rhs, lin = (x**3 + a2 * x * x + a4 * x + a6) % p, a1 * x + a3
        count += [(y * y + lin * y) % p for y in range(p)].count(rhs)
    return count


def count_points(C: WeierstrassCurve, p: int) -> int:
    """#E(F_p) including the point at infinity; p must be a good prime."""
    if C.discriminant() % p == 0:
        raise BadReductionError(f"bad reduction at {p}")
    if not C.is_integral():
        raise DomainError("counting requires an integral model")
    if p == 2:
        return count_points_naive(C, 2)
    if p > COUNT_POINTS_MAX_P:
        raise DomainError(f"p = {p} exceeds the exact int64 range of the point count")
    b2, b4, b6, _ = (v % p for v in C.b_invariants())
    # Every intermediate stays below 7p^2, so int32 is exact while
    # 7p^2 < 2^31 and int64 up to COUNT_POINTS_MAX_P; the int32 passes make a
    # sweep to 10^4 faster.  a - a // p * p is a % p on a >= 0, and numpy's
    # floor division by a scalar is much faster than its remainder.
    dtype = np.int32 if 7 * p * p < 2**31 else np.int64
    h = (p - 1) // 2
    half = np.arange(h + 1, dtype=dtype)
    half *= half
    half -= half // p * p  # x^2 mod p for 0 <= x <= h: every square once
    sq = np.concatenate((half, half[h:0:-1]))  # (p - x)^2 = x^2
    # f = (4x + b2) x^2 + (2 b4 x + b6), reduced once; Horner's x^3 would
    # pass 7p^2.  The linear part steps by 2 b4 mod p, or by p where that is
    # 0, since np.arange needs a non-zero step.
    f = np.arange(b2, b2 + 4 * p, 4, dtype=dtype)
    f *= sq
    step = 2 * b4 % p or p
    f += np.arange(b6, b6 + step * p, step, dtype=dtype)
    f -= f // p * p
    chi = np.full(p, -1, dtype=np.int8)  # numpy gathers by intp indices fastest
    chi[half.astype(np.intp, copy=False)] = 1
    chi[0] = 0
    return int(p + 1 + chi[f.astype(np.intp, copy=False)].sum(dtype=np.int64))


def trace_ap(C: WeierstrassCurve, p: int) -> int:
    return p + 1 - count_points(C, p)


_sweep: dict = {}  # the last curve asked for -> [largest bound swept, {p: a_p} ascending]


def frobenius_table(C: WeierstrassCurve, bound: int) -> dict[int, int]:
    """A fresh {p: a_p} for the good primes p <= bound, ascending.

    The sweep of the last curve asked for is kept.  A bound above the
    largest swept so far extends it by the primes in between; a smaller
    bound reads its ascending prefix.  So the certificates, the ordinary
    criterion and the a_n series of a ledger count each good prime once,
    whatever their bounds.  Every trace is checked against the Hasse bound
    a_p^2 <= 4p as it enters.
    """
    if C not in _sweep:
        _sweep.clear()
        _sweep[C] = [1, {}]
    swept, traces = _sweep[C]
    if bound > swept:
        disc = C.discriminant()
        for p in primes_up_to(bound):
            if p > swept and disc % p:
                ap = trace_ap(C, p)
                if ap * ap > 4 * p:
                    raise AssertionError(f"Hasse bound violated at {p}: a_p = {ap}")
                traces[p] = ap
        _sweep[C][0] = bound
    return {p: ap for p, ap in traces.items() if p <= bound}


frobenius_table.cache_clear = _sweep.clear


def hasse_contradiction_symbolic(torsion_order: int) -> bool:
    """torsion_order * p > p + 1 + 2*sqrt(p) for every prime p >= 2.

    For t >= 2 the inequality t*p > p + 1 + 2*sqrt(p) reduces to
    (t-1)*p - 1 > 2*sqrt(p); squaring at the worst case p = 2 settles all p
    since the left side grows linearly and the right as sqrt.
    """
    if torsion_order < 2:
        return False
    t = torsion_order
    return ((t - 1) * 2 - 1) ** 2 > 8


@dataclass(frozen=True)
class OrdinaryCriterionRow:
    p: int
    count: int
    trace: int
    torsion_divides: bool
    trace_not_one_mod_p: bool


def verify_ordinary_criterion(
    C: WeierstrassCurve, torsion_order: int, bound: int
) -> tuple[list[OrdinaryCriterionRow], bool]:
    """For every good odd p <= bound: torsion injects and a_p != 1 mod p.

    Returns (failing rows, symbolic Hasse inequality verdict).  An empty
    failure list plus a true verdict is the full criterion.
    """
    failures = []
    for p, trace in frobenius_table(C, bound).items():
        count = p + 1 - trace
        divides, not_one = count % torsion_order == 0, trace % p != 1
        if p != 2 and not (divides and not_one):
            failures.append(OrdinaryCriterionRow(p, count, trace, divides, not_one))
    return failures, hasse_contradiction_symbolic(torsion_order)
