"""Point counts over F_p, Frobenius traces and the ordinary-prime sweep.

``count_points`` is O(p) per prime: for odd p the affine count is
p + sum_x chi(f(x)) where f is the completed square
f(x) = 4x^3 + b2 x^2 + 2 b4 x + b6 and chi the quadratic character.
``_counted_traces`` takes the sums for a list of primes.  p = 2 is brute
force.  Every odd p <= SMALL is summed in pure Python, chi read from a list
set at the squares mod p and f stepped by its finite differences, so a table
or a count that stays below SMALL never imports numpy.  Above SMALL chi is an
int8 table set at the squares, with x^2 and f reduced once each, in int32
while that is exact and in int64 above: the primes below CHARACTER_SMALL at
once, their tables end to end, and each larger one over x in steps of
CHARACTER_BLOCK, so a count holds its table and O(block), 1.4 bytes per
residue at p = 999,983 (tracemalloc).

Every trace the ledger reads comes from ``frobenius_table``, a pure function
of the curve and a range of primes that asserts the Hasse bound on each
trace; the ledger keeps one table per run and extends it.  The good primes
up to SMALL go through ``_counted_traces``, whose pure-Python sums over E1's
29 good primes to 128 take about 0.25 ms; a ledger whose checks all
conclude there (E1's and E2's do) reads nothing more.  The good primes above
SMALL go together through one numpy baby-step giant-step pass (Shanks-Mestre;
Cohen, A Course in Computational Algebraic Number Theory, 7.4) with x-only
arithmetic (Brier-Joye, PKC 2002), reducing by ``np.fmod`` (the remainder on
its non-negative operands), and one lane per (prime, point): a lane lists
every trace its point allows, and a prime whose two lanes share exactly one
is done.  Mestre's theorem (from p > 229 on, E or its twist has a point whose
order has one multiple in the Hasse interval) only explains why few primes
stay open.  The open primes (about 13 per box curve at 10^4) are counted by
one call of ``_counted_traces``.

The pass is built on arrays: the cached sieve (``arith.primes_up_to``), the
good primes and each lane's A and B by limb-wise residues of the
discriminant, c4 and c6, the Hasse check on the whole array, and one dict at
the end.  The lanes' points take their quadratic characters by one Euler
exponentiation, square-and-multiply over every lane, and an addition whose
difference is the point at infinity reads the doubling from a row the pass
already holds (2P, M, 2M or 4M).

The pass's giant steps match its baby steps by a divisibility test with no
division (Granlund-Montgomery, PLDI 1994; Lemire-Kaser-Kurz, 2019): for odd
p and 0 <= x < 2^w, p | x iff x p^-1 mod 2^w <= floor((2^w - 1)/p).  Proof:
x -> x p^-1 mod 2^w permutes 0 .. 2^w - 1, and it maps the multiples kp,
0 <= k <= floor((2^w - 1)/p), which are all the multiples of p there, to k,
so nothing else lands in 0 .. floor((2^w - 1)/p).  The tested sums stay
below 2p^2, under 2^31 in the int32 passes and 2^63 in the int64 ones, so
w = 32 and w = 64 serve them; p^-1 mod 2^w comes from Newton-Hensel steps
on the whole prime array.

Lanes ascend by p, and each lane runs only the giant-step windows that its
own Hasse interval needs: a step runs on the suffix of lanes from the first
that needs it, and so does each bit of the ladder that reaches the first
window.  The baby steps run to m = isqrt(r/2) | 1 for the chunk's bound r
on |a_p| (9 at 10^4).  Timed with the cheap matches, isqrt(r) | 1 (15) was
as fast (E1's pass: 7.0 against 7.2 ms to 10^4, 141 against 140 ms to 10^5),
isqrt(2r) | 1 no faster and isqrt(4r) | 1 slower, so m keeps the smaller
tables: 10 rows, not 16, and a third less peak memory in the pass.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence

from .arith import DomainError, is_prime, primes_up_to
from .curve import BadReductionError, WeierstrassCurve

COUNT_POINTS_MAX_P = 1_100_000_000  # 7 p^2 < 2^63 keeps count_points and the pass exact
BSGS_CHUNK = 2048  # primes per pass, which bounds its (m + 1) x lanes tables
CHARACTER_BLOCK = 1 << 13  # residues per step of one prime's character sum, which bounds its temporaries
CHARACTER_SMALL = 1 << 10  # odd primes above SMALL and below it share one table of characters
SMALL = 128  # good primes up to it are counted in pure Python; numpy counts only above it


def _exact_dtype(p: int):
    """The numpy integer type in which the counts at primes up to p are exact.

    Every intermediate of ``count_points`` and of the pass stays below 7p^2,
    so int32 is exact while 7p^2 < 2^31 and int64 up to COUNT_POINTS_MAX_P;
    the int32 passes make a sweep to 10^4 faster.  A larger p raises.
    """
    import numpy as np

    if p > COUNT_POINTS_MAX_P:
        raise DomainError(f"p = {p} exceeds the exact int64 range of the point count")
    return np.int32 if 7 * p * p < 2**31 else np.int64


def count_points_naive(C: WeierstrassCurve, p: int) -> int:
    """#E(F_p) by trying every (x, y) mod p: the O(p^2) oracle for ``count_points``."""
    a1, a2, a3, a4, a6 = C.coefficients()
    count = 1
    for x in range(p):
        rhs, lin = (x**3 + a2 * x * x + a4 * x + a6) % p, a1 * x + a3
        count += [(y * y + lin * y) % p for y in range(p)].count(rhs)
    return count


def count_points(C: WeierstrassCurve, p: int) -> int:
    """#E(F_p) including the point at infinity; p must be a good prime."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if C.discriminant() % p == 0:
        raise BadReductionError(f"bad reduction at {p}")
    return p + 1 - _counted_traces(C, [p])[0]


def _counted_traces(C: WeierstrassCurve, primes: Sequence[int]) -> list[int]:
    """[a_p for p in primes], ascending good primes, by counting points: p = 2
    by brute force, every odd p as minus its sum over x mod p of chi(f(x)).

    The odd primes up to SMALL are summed in pure Python.  Above SMALL, those
    below CHARACTER_SMALL, whose sums cost mostly numpy's call overhead, share
    one table, and each larger prime is summed alone.
    """
    b = C.b_invariants()[:3]
    odd = primes[1:] if primes and primes[0] == 2 else primes
    small, shared = bisect_right(odd, SMALL), bisect_left(odd, CHARACTER_SMALL)
    sums = [_small_character_sum(b, p) for p in odd[:small]]
    if small < shared:
        sums += _shared_character_sums(b, odd[small:shared])
    sums += [_character_sum(b, p) for p in odd[shared:]]
    traces = [-s for s in sums]  # #E(F_p) = p + 1 + the sum
    return [3 - count_points_naive(C, 2), *traces] if len(odd) < len(primes) else traces


@functools.cache  # called at the odd primes up to SMALL only, so at most 30 tuples
def _square_characters(p: int) -> tuple[int, ...]:
    """chi mod p from the list of the squares: 1 at each non-zero square, 0 at 0, -1 elsewhere."""
    chi = [-1] * p
    for x in range(1, p // 2 + 1):  # x and p - x have one square
        chi[x * x % p] = 1
    chi[0] = 0
    return tuple(chi)


def _small_character_sum(b, p: int) -> int:
    """The sum at one odd prime p, from (b2, b4, b6), in pure Python.

    f(x) steps by its differences: f(x + 1) - f(x) = 12x^2 + (12 + 2 b2)x
    + 4 + b2 + 2 b4, whose own difference 24x + 24 + 2 b2 steps by 24, so
    each x costs three additions and a remainder.
    """
    b2, b4, b6 = (v % p for v in b)
    chi = _square_characters(p)
    f, d1, d2, total = b6, 4 + b2 + 2 * b4, 24 + 2 * b2, 0
    for _ in range(p):
        total += chi[f % p]
        f, d1, d2 = f + d1, d1 + d2, d2 + 24
    return total


def _reduced_square(x, p):
    sq = x * x
    sq -= sq // p * p  # a - a // p * p is a % p on a >= 0, and numpy's floor division is faster
    return sq


def _reduced_f(x, sq, p, b2, b4, b6):
    f = (4 * x + b2) * sq + (2 * b4 * x + b6)  # below 7p^2, where Horner's x^3 is not
    f -= f // p * p
    return f


def _character_sum(b, p: int) -> int:
    """The sum at one odd prime p, from (b2, b4, b6), over x in steps of
    CHARACTER_BLOCK: an int8 table of chi (1 byte per residue), set at the
    squares of x <= p/2, and O(block) besides."""
    import numpy as np

    dtype = _exact_dtype(p)
    b2, b4, b6 = (v % p for v in b)
    chi = np.full(p, -1, dtype=np.int8)  # numpy gathers by intp indices fastest
    for lo in range(0, p // 2 + 1, CHARACTER_BLOCK):  # x and p - x have one square
        x = np.arange(lo, min(lo + CHARACTER_BLOCK, p // 2 + 1), dtype=dtype)
        chi[_reduced_square(x, p).astype(np.intp, copy=False)] = 1
    chi[0] = 0
    total = 0
    for lo in range(0, p, CHARACTER_BLOCK):
        x = np.arange(lo, min(lo + CHARACTER_BLOCK, p), dtype=dtype)
        f = _reduced_f(x, _reduced_square(x, p), p, b2, b4, b6)
        total += int(chi[f.astype(np.intp, copy=False)].sum(dtype=np.int64))
    return total


def _shared_character_sums(b, primes: Sequence[int]) -> list[int]:
    """The sums at odd primes below CHARACTER_SMALL at once: their residues lie
    end to end in one table of chi, with each residue's prime, offset and
    coefficients gathered into arrays (at most about 80,000 residues)."""
    import numpy as np

    dtype = _exact_dtype(primes[-1])
    q = np.array(primes, dtype=dtype)
    starts = np.cumsum(q) - q
    owner = np.repeat(np.arange(len(primes)), primes)
    p, base = q[owner], starts[owner]
    b2, b4, b6 = (np.array([v % r for r in primes], dtype=dtype)[owner] for v in b)
    x = np.arange(owner.size, dtype=dtype) - base
    sq = _reduced_square(x, p)
    f = _reduced_f(x, sq, p, b2, b4, b6)
    chi = np.full(owner.size, -1, dtype=np.int8)
    chi[(base + sq).astype(np.intp, copy=False)] = 1
    chi[starts] = 0
    return np.add.reduceat(chi[(base + f).astype(np.intp, copy=False)], starts, dtype=np.int64).tolist()


def trace_ap(C: WeierstrassCurve, p: int) -> int:
    return p + 1 - count_points(C, p)


# The pass works on the short model y^2 = x^3 + Ax + B with A = -27 c4 and
# B = -54 c6, isomorphic to E over F_p for p > 3, in x = X/Z with Z = 0 the
# point at infinity.  Every intermediate is a sum of at most three products
# of residues in [0, p], or of 4p and a product, so below 3p^2 and exact in
# ``_exact_dtype``.  The helpers read the curve from the lane constants
# E = (p, A, 2B, p - A, 4A, 4B, p - 8B), each a residue in [0, p] that
# ``_lane_candidates`` builds once per pass.


def _x_double(X, Z, E):
    """x(2P) = ((x^2 - A)^2 - 8Bx) / (4(x^3 + Ax + B))."""
    from numpy import fmod
    p, _, _, pA, A4, B4, B8 = E
    XX, ZZ, XZ = fmod(X * X, p), fmod(Z * Z, p), fmod(X * Z, p)
    u = fmod(XX + pA * ZZ, p)
    v = fmod(4 * XX + A4 * ZZ, p)
    return fmod(u * u + B8 * fmod(XZ * ZZ, p), p), fmod(XZ * v + B4 * fmod(ZZ * ZZ, p), p)


def _x_add(P, Q, D, E, twice):
    """x(P + Q) from x(P), x(Q) and x(P - Q), by the sum form
    x(P + Q) + x(P - Q) = 2((x1 + x2)(x1 x2 + A) + 2B) / (x1 - x2)^2.

    In a lane where P - Q is the point at infinity, P = Q and the sum is x(2Q),
    which the caller already holds and passes as ``twice``.  Elsewhere the
    numerator and denominator vanish together only if P = -Q is a 2-torsion
    point or P = Q is the point at infinity, that is when P - Q is the point
    at infinity; so no lane ever reaches (0:0).
    """
    from numpy import fmod
    (X1, Z1), (X2, Z2), (Xd, Zd) = P, Q, D
    p, A, B2 = E[:3]
    t1, t2, zz = fmod(X1 * Z2, p), fmod(X2 * Z1, p), fmod(Z1 * Z2, p)
    w = fmod((t1 + t2) * fmod(X1 * X2 + A * zz, p) + B2 * fmod(zz * zz, p), p)
    e = fmod((t1 - t2) ** 2, p)
    X, Z = fmod(2 * w * Zd + (p - Xd) * e, p), fmod(Zd * e, p)
    at_inf = (Zd == 0).nonzero()[0]
    if at_inf.size:
        X[at_inf], Z[at_inf] = twice[0][at_inf], twice[1][at_inf]
    return X, Z


def _tail(values, start: int):
    """Each array of ``values`` from lane ``start`` on."""
    return tuple(v[start:] for v in values)


def _euler(f, p):
    """f^((p - 1) / 2) mod p, lane by lane, by square-and-multiply: bit b of
    the exponent multiplies by f^(2^b) or by 1, so no lane branches."""
    import numpy as np

    e, out = (p - 1) // 2, np.ones_like(p)
    for bit in range(int(e.max()).bit_length()):
        if bit:
            f = np.fmod(f * f, p)
        out = np.fmod(out * ((e >> bit & 1) * (f - 1) + 1), p)
    return out


def _lane_points(p, A, B):
    """(x, chi) per lane of the ascending primes: the lane's point has the
    first (even lanes) or the second (odd lanes) x >= 1 with
    f(x) = x^3 + Ax + B != 0, on E where chi = 1 and on the twist where -1."""
    import numpy as np

    lane = np.arange(p.size)
    x = np.arange(1, 6, dtype=p.dtype)[:, None]
    f = np.fmod(x * x * x + x * A + B, p)  # below 6p + 125; f has at most three roots, so 1..5 hold two others
    # the lane's row: the rows before it whose count of non-roots so far is at
    # most the lane's parity; the fifth row never is, as the first four hold two
    x0, nonroots = np.zeros((2, p.size), dtype=np.int8)
    for row in f[:4] != 0:
        nonroots += row
        x0 += nonroots <= lane % 2
    return x0 + 1, np.where(_euler(f[x0, lane], p) == 1, 1, -1)


def _inverse_mod_word(p):
    """(p^-1 mod 2^w, floor((2^w - 1) / p)) for odd p, in p's unsigned type of w bits.

    Each Newton-Hensel step y <- y(2 - py) doubles the bits in which y
    inverts p, and y = p inverts it mod 8 (p^2 = 1 mod 8), so five steps
    give 96 >= 64 bits.  Unsigned products wrap mod 2^w without a warning.
    """
    import numpy as np

    q = p.view(f"u{p.itemsize}")  # p > 0, so the same words
    y = q.copy()
    for _ in range(5):
        y *= 2 - q * y
    return y, np.iinfo(q.dtype).max // q


def _matches(BX, BZ, gx, gz, limit):
    """Flat (row, lane) indices of the table entries where p | cross, from
    the tables' unsigned words p - X_j and Z_j and X_g p^-1, Z_g p^-1."""
    import numpy as np

    cross = BZ * gx
    cross += BX * gz  # cross p^-1 mod 2^w
    return np.flatnonzero(cross <= limit)


def _windows(primes):
    """(m, c, K) of one pass over the ascending primes > 3, per lane.

    Baby steps run from 0 to m.  Lane l of prime p = primes[l // 2] has the
    giant-step windows (c + 2k)m - m .. (c + 2k)m + m for k < K[l]: they
    cover p + 1 - floor(2 sqrt p) .. p + 1 + floor(2 sqrt p), and no window
    past them.  c is a non-negative int64 and odd lanes start m further on.
    """
    import numpy as np

    m = math.isqrt(math.isqrt(4 * int(primes[-1])) // 2) | 1  # see the module docstring
    p = np.asarray(primes, dtype=np.int64).repeat(2)
    r = np.sqrt(4 * p).astype(np.int64)  # floor(2 sqrt p), corrected by one either way below
    r += (r + 1) ** 2 <= 4 * p
    r -= r * r > 4 * p
    c = (p + 1 - r) // m + np.arange(p.size) % 2
    return m, c, (p + 1 + r - (c - 1) * m + 2 * m - 1) // (2 * m)


def _residues(n: int, p):
    """n mod p lane by lane, for an integer n of any size and an int64 array p
    of moduli below 2^31: Horner's rule on the 31-bit limbs of |n|, top limb
    first, where r 2^31 + limb < 2^62 for r < p."""
    import numpy as np

    m, r = abs(n), np.zeros_like(p)
    for shift in range(m.bit_length() // 31 * 31, -1, -31):
        r = np.fmod((r << 31) + (m >> shift & 0x7FFFFFFF), p)
    return r if n >= 0 else np.fmod(p - r, p)


def _bsgs_traces(C: WeierstrassCurve, primes):
    """(solved, a) over the ascending good primes p > 3, an int64 array: solved
    where a prime's two lanes leave one candidate trace, which a holds there."""
    import numpy as np

    c4, c6 = C.c_invariants()
    solved, a = np.zeros(primes.size, dtype=bool), np.zeros_like(primes)
    for i in range(0, primes.size, BSGS_CHUNK):
        chunk = primes[i : i + BSGS_CHUNK]
        r = math.isqrt(4 * int(chunk[-1]))  # |a_p| <= r at every prime of the chunk
        j, aj = _single_shared_trace(_lane_candidates(c4, c6, chunk, r), r)
        solved[i + j], a[i + j] = True, aj
    return solved, a


def _lane_candidates(c4: int, c6: int, primes, r: int):
    """Every trace each lane allows, as lane * (2r + 1) + a + r.

    Prime i has lanes 2i and 2i + 1.  A lane's point P has x = x0, the first
    or the second x >= 1 with f(x) = x^3 + Ax + B != 0; it lies on E or on
    its quadratic twist as f(x0) is a square or not, and the x-only formulas
    are the same on both.  Baby steps jP, 0 <= j <= m, meet giant steps gP,
    g = (c + 2k)m, whose windows g - m .. g + m cover the Hasse interval, and
    x(gP) = x(jP) exactly when (g - j)P or (g + j)P is the point at
    infinity.  So the candidates n = g +- j, read as a = p + 1 - n on E and
    a = n - p - 1 on the twist, hold every a with a^2 <= 4p that the order
    of P allows, a_p among them.

    Lanes ascend by p, so the lanes that still need window k, or a ladder
    bit b (c >= 2^b), are among those from the first that does on: each
    step runs on that suffix only.  A lane before it keeps the ladder's
    start (O, M), which a leading zero bit maps to itself.
    """
    import numpy as np

    dtype = _exact_dtype(int(primes[-1]))
    p = primes.astype(dtype).repeat(2)
    A = _residues(-27 * c4, primes).astype(dtype).repeat(2)
    B = _residues(-54 * c6, primes).astype(dtype).repeat(2)
    E = p, A, np.fmod(2 * B, p), p - A, np.fmod(4 * A, p), np.fmod(4 * B, p), p - np.fmod(8 * B, p)

    # A match reads both g - j and g + j, and where only one of them is a
    # multiple of the order of P the other is its reflection about g: the
    # trace a reads as 2(p + 1 - g) - a on E and 2(g - p - 1) - a on the
    # twist.  The odd lanes' windows are shifted by m and m is odd, so the
    # reflections of a prime's two lanes never agree: on one curve they would
    # need the same centre g, and on E and its twist centres with
    # g + g' = 2(p + 1), while g + g' is an odd multiple of m.
    m, c, K = _windows(primes)
    BX = np.empty((m + 1, p.size), dtype=dtype)
    BZ = np.empty_like(BX)
    BX[0], BZ[0], BZ[1] = 1, 0, 1
    BX[1], chi = _lane_points(p, A, B)
    for j in range(1, m):  # 2P by doubling: P - P is the point at infinity
        BX[j + 1], BZ[j + 1] = (_x_double(BX[1], BZ[1], E) if j == 1 else
                                _x_add((BX[j], BZ[j]), (BX[1], BZ[1]), (BX[j - 1], BZ[j - 1]), E, (BX[2], BZ[2])))
    M = BX[m].copy(), BZ[m].copy()
    # one Montgomery ladder on M for all lanes: R0 = cM, R1 = (c + 1)M
    R0, R1 = (np.ones_like(p), np.zeros_like(p)), (M[0].copy(), M[1].copy())
    top = np.maximum.accumulate(c)
    for bit in reversed(range(int(top[-1]).bit_length())):
        s = int(np.searchsorted(top, 1 << bit))
        b = (c[s:] >> bit & 1).astype(bool)
        r0, r1, e, d = _tail(R0, s), _tail(R1, s), _tail(E, s), _tail(M, s)
        add = _x_add(r0, r1, d, e, d)  # where M is the point at infinity so is every multiple
        dbl = _x_double(np.where(b, r1[0], r0[0]), np.where(b, r1[1], r0[1]), e)
        for u, v, w0, w1 in zip(r0, r1, add, dbl):
            u[:], v[:] = np.where(b, w0, w1), np.where(b, w1, w0)
    S = _x_double(*M, E)

    # x(gP) = x(jP) iff p | cross = X_g Z_j + (p - X_j) Z_g < 2p^2, tested by
    # multiplication (see the module docstring).  The tables hold Z_j and
    # p - X_j as unsigned words and each window scales X_g and Z_g by p^-1,
    # so cross p^-1 mod 2^w is two products and a sum, all wrapping mod 2^w.
    inv, limit = _inverse_mod_word(p)
    BX = np.subtract(p, BX, out=BX).view(inv.dtype)
    BZ = BZ.view(inv.dtype)
    starts = np.searchsorted(np.maximum.accumulate(K), np.arange(int(K.max()) + 2), side="right").tolist()
    G, G_next = R0, _tail(_x_add(R1, M, R0, E, S), starts[1])  # cM and (c + 2)M
    S2 = _x_double(*_tail(S, starts[2]), _tail(E, starts[2]))  # 4M, on the lanes of window 2 on
    found = []  # (window, its first lane, its hits in the flat table)
    for k, s in enumerate(starts[:-2]):
        found.append((k, s, _matches(BX[:, s:], BZ[:, s:], G[0].view(inv.dtype) * inv[s:],
                                     G[1].view(inv.dtype) * inv[s:], limit[s:])))
        t = starts[k + 2]
        if t < p.size:  # (c + 2k + 4)M = (c + 2k + 2)M + 2M, less (c + 2k)M, on the lanes of window k + 2
            G, G_next = G_next, _x_add(_tail(G_next, t - starts[k + 1]), _tail(S, t), _tail(G, t - s), _tail(E, t),
                                       _tail(S2, t - starts[2]))
        else:
            G = G_next
    del BX, BZ  # freed before the keys' temporaries are made
    k, s, hits = zip(*found)
    size = [h.size for h in hits]
    s = np.repeat(s, size)
    j, i = np.divmod(np.concatenate(hits), p.size - s)
    i += s
    base = p[i] + 1 - (c[i] + 2 * np.repeat(k, size)) * m
    keys = []
    for a in (chi[i] * (base - j), chi[i] * (base + j)):
        keys.append((i * (2 * r + 1) + a + r)[a * a <= 4 * p[i]])
    return np.concatenate(keys)


def _single_shared_trace(keys, r: int):
    """(i, a): the indices i of the primes whose two lanes share exactly one trace, and that trace a."""
    import numpy as np

    # Sorting and neighbour tests in place of np.unique, whose first call
    # imports numpy.ma and costs about a megabyte of resident memory.
    span = 2 * r + 1
    keys.sort()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]  # each lane's traces once
    shared = keys // span // 2 * span + keys % span  # lanes 2i and 2i + 1 -> prime i
    shared.sort()
    shared = shared[1:][shared[1:] == shared[:-1]]  # traces both lanes of a prime allow
    prime = shared // span
    alone = np.concatenate(([True], prime[1:] != prime[:-1], [True]))
    one = alone[:-1] & alone[1:]
    return prime[one], shared[one] % span - r


def frobenius_table(C: WeierstrassCurve, bound: int, above: int = 1) -> dict[int, int]:
    """{p: a_p} for the good primes above < p <= bound, ascending.

    The good primes up to SMALL are counted by ``_counted_traces`` in pure
    Python, and those above it by ``_swept_traces``, the table's one path
    that imports numpy.  Every trace is checked against the Hasse bound
    a_p^2 <= 4p before the table is built.
    """
    if bound > COUNT_POINTS_MAX_P:  # refused before a sieve of bound bytes is built
        raise DomainError(f"bound {bound} exceeds the exact int64 range of the point count")
    primes, disc = primes_up_to(bound), C.discriminant()
    lo = bisect_right(primes, above)
    cut = max(lo, bisect_right(primes, SMALL))
    small = [p for p in primes[lo:cut] if disc % p]
    table = dict(zip(small, _counted_traces(C, small)))
    for p, ap in table.items():
        if ap * ap > 4 * p:
            raise AssertionError(f"Hasse bound violated at {p}: a_p = {ap}")
    if cut < len(primes):
        table.update(_swept_traces(C, primes[cut:]))
    return table


def _swept_traces(C: WeierstrassCurve, primes: Sequence[int]) -> dict[int, int]:
    """{p: a_p} for the good primes among the ascending primes above SMALL:
    one baby-step giant-step pass, its open primes through ``_counted_traces``,
    and the Hasse bound checked on the whole array."""
    import numpy as np

    p = np.array(primes, dtype=np.int64)
    p = p[_residues(C.discriminant(), p) != 0]
    solved, ap = _bsgs_traces(C, p)
    counted = np.flatnonzero(~solved)
    ap[counted] = _counted_traces(C, p[counted].tolist())
    bad = np.flatnonzero(ap * ap > 4 * p)
    if bad.size:
        raise AssertionError(f"Hasse bound violated at {p[bad[0]]}: a_p = {ap[bad[0]]}")
    return dict(zip(p.tolist(), ap.tolist()))


def hasse_contradiction_symbolic(torsion_order: int) -> bool:
    """torsion_order * p > p + 1 + 2*sqrt(p) for every prime p >= 2.

    With t = torsion_order the inequality is (t-1)*p - 1 > 2*sqrt(p).  At
    p = 2 it needs 2(t-1) - 1 > 2*sqrt(2), so t >= 3.  For t >= 3,
    (t-1)*p - 1 >= 2p - 1 > 2*sqrt(p) at every p >= 2.
    """
    return torsion_order >= 3


def ordinary_criterion_reach(torsion_order: int) -> int | None:
    """The primes the ordinary criterion must read: None for every good odd p,
    else up to the odd part of the torsion order t, which every odd p | t divides.

    When the symbolic Hasse inequality holds (t >= 3) no good odd p with
    p not dividing t can fail.  Torsion injects into E(F_p) at every good
    p >= 3 (see ``torsion``), so t | #E(F_p).  If also a_p = 1 mod p, then
    p | p + 1 - a_p = #E(F_p), so pt | #E(F_p), and pt <= #E(F_p) <=
    p + 1 + 2 sqrt(p) < tp, which is false.  So only the good odd p | t can
    fail, and a table read to the odd part of t has the failures of the
    whole table.
    """
    if not hasse_contradiction_symbolic(torsion_order):
        return None
    return torsion_order // (torsion_order & -torsion_order)


def verify_ordinary_criterion(traces: Mapping[int, int], torsion_order: int) -> tuple[list[int], bool]:
    """For every good odd p of the Frobenius table {p: a_p}: torsion injects and a_p != 1 mod p.

    Torsion injects when torsion_order divides #E(F_p) = p + 1 - a_p.
    Returns (failing primes, symbolic Hasse inequality verdict).  An empty
    failure list plus a true verdict is the full criterion.  A table that
    holds the primes ``ordinary_criterion_reach`` names has the failures of
    any longer table.
    """
    failures = [p for p, ap in traces.items() if p != 2 and ((p + 1 - ap) % torsion_order or ap % p == 1)]
    return failures, hasse_contradiction_symbolic(torsion_order)
