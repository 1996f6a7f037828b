"""Finite matrix groups over Z/m and mod-l surjectivity certificates.

Three parts:

* generic 2x2 matrix groups over Z/m: worklist closure, the det^2 = 1
  subgroup, fixed submodules -- enough to reproduce the mod-8 image
  computation for conductor-15 curves;
* surjectivity certificates: Frobenius char polys mod l eliminate each of
  Dickson's maximal subgroups of GL2(F_l) with surjective determinant, a
  sound "surjective / inconclusive" verdict for any odd prime l;
* complete subgroup enumeration of GL2(F_l) up to conjugacy (l <= 7) on
  dense tables.  The certificates do not use it; the tests check them
  against it.

Matrices are 4-tuples (a, b, c, d) read row-wise.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Collection, Mapping
from functools import lru_cache

from .arith import DomainError, is_prime, kronecker_symbol
from .counting import trace_ap  # noqa: F401  (trace_ap stays importable here)

Mat = tuple[int, int, int, int]


def mat_mul(x: Mat, y: Mat, m: int) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def mat_det(x: Mat, m: int) -> int:
    return (x[0] * x[3] - x[1] * x[2]) % m


class ModMMatrixGroup(namedtuple("ModMMatrixGroup", "modulus elements")):
    """A finite subgroup of GL2(Z/m) given by its full element set, a frozenset."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)


def group_closure(gens, m: int) -> ModMMatrixGroup:
    """Smallest subgroup of GL2(Z/m) containing the generators."""
    gens = [tuple(v % m for v in g) for g in gens]
    for g in gens:
        if math.gcd(mat_det(g, m), m) != 1:
            raise DomainError(f"generator {g} is not invertible mod {m}")
    identity = (1, 0, 0, 1)
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul(x, g, m)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return ModMMatrixGroup(m, frozenset(elems))


def det_condition_subgroup(G: ModMMatrixGroup) -> ModMMatrixGroup:
    """Subgroup of elements whose determinant is +-1 mod m.

    This is the mod-m shadow of the condition det(g)^2 = 1 on 2-adic
    determinants: an element of Z_2^x squares to 1 iff it is +-1, so its
    image mod m must lie in {1, m-1}.  (Testing det(g)^2 = 1 in Z/m itself
    would be vacuous for m = 8, where every unit squares to 1.)
    """
    m = G.modulus
    return ModMMatrixGroup(
        m, frozenset(x for x in G.elements if mat_det(x, m) in (1 % m, (m - 1) % m))
    )


def fixed_submodule(G: ModMMatrixGroup) -> frozenset:
    """{ v in (Z/m)^2 : g v = v for all g in G }."""
    m = G.modulus
    out = []
    for v0 in range(m):
        for v1 in range(m):
            if all(
                ((g[0] * v0 + g[1] * v1) % m, (g[2] * v0 + g[3] * v1) % m) == (v0, v1)
                for g in G.elements
            ):
                out.append((v0, v1))
    return frozenset(out)


def abelian_group_structure(vectors: frozenset, m: int) -> tuple[int, int]:
    """(d1, d2) with the subgroup of (Z/m)^2 isomorphic to Z/d1 x Z/d2, d1 | d2.

    v has order m / gcd(v0, v1, m); d2 is the exponent, the largest order.
    """
    d2 = max(m // math.gcd(v0, v1, m) for v0, v1 in vectors)
    return (len(vectors) // d2, d2)


# -- built-in dataset: the mod-8 image generators for the conductor-15 class --

RZB_15A1_MOD8 = {
    "name": "rzb-15a1-mod8",
    "modulus": 8,
    # the mod-8 image group G of the 2-adic representation of 15a1,
    # taken as published input data (Rouse--Zureick-Brown database entry)
    "g_generators": (
        (5, 4, 2, 3),
        (1, 0, 0, 5),
        (1, 4, 0, 5),
        (1, 0, 4, 5),
    ),
    # generators of its determinant +-1 subgroup H
    "h_generators": (
        (5, 4, 2, 3),
        (5, 0, 2, 3),
        (1, 0, 4, 1),
    ),
}


# -- GL2(F_l): enumeration of subgroups up to conjugacy ----------------------


class _GL2Tables:
    """Dense multiplication / conjugation tables for GL2(F_l), int-encoded."""

    def __init__(self, l: int):
        import numpy as np

        self.l = l
        mats = []
        for a in range(l):
            for b in range(l):
                for c in range(l):
                    for d in range(l):
                        if (a * d - b * c) % l:
                            mats.append((a, b, c, d))
        self.mats = mats
        self.index = {mat: i for i, mat in enumerate(mats)}
        n = len(mats)
        self.n = n
        # every product and code below is under l^4, so int32 suffices
        A = np.array(mats, dtype=np.int32)
        a, b, c, d = A[:, 0], A[:, 1], A[:, 2], A[:, 3]
        # mul[i, j] = index of mats[i] @ mats[j], whose code
        # ((e l + f) l + g) l + h takes one entry of the product at a time,
        # so that no more than three n x n arrays are alive at once
        enc = np.zeros((n, n), dtype=np.int32)
        for x1, y1, x2, y2 in ((a, a, b, c), (a, b, b, d), (c, a, d, c), (c, b, d, d)):
            entry = np.outer(x1, y1)
            entry += np.outer(x2, y2)
            entry %= l
            enc *= l
            enc += entry
        del entry
        code_to_idx = -np.ones(l**4, dtype=np.int32)
        codes = ((a * l + b) * l + c) * l + d
        code_to_idx[codes] = np.arange(n, dtype=np.int32)
        self.mul = code_to_idx[enc]
        del enc
        det = (a * d - b * c) % l
        det_inv = np.array([pow(int(v), -1, l) for v in det], dtype=np.int32)
        inv_codes = (
            ((d * det_inv % l) * l + (-b * det_inv) % l) * l + ((-c * det_inv) % l)
        ) * l + (a * det_inv % l)
        self.inv = code_to_idx[inv_codes]
        self.identity = self.index[(1, 0, 0, 1)]
        # conj[x, i] = x^-1 * mats[i] * x
        left = self.mul[self.inv]  # left[x, i] = x^-1 * i
        self.conj = self.mul[left, np.arange(n, dtype=np.int32)[:, None]]
        # powers[k - 1, i] = i^k for k up to l^2 - 1, the largest element order
        powers = np.empty((l * l - 1, n), dtype=np.int32)
        powers[0] = np.arange(n, dtype=np.int32)
        for k in range(1, l * l - 1):
            powers[k] = self.mul[powers[k - 1], powers[0]]
        self.order = (powers == self.identity).argmax(axis=0).astype(np.int32) + 1
        # for prime-power elements, the least generator i^k, gcd(k, order) = 1,
        # of the cyclic subgroup they generate; -1 for the rest
        exponents = np.arange(1, l * l, dtype=np.int32)[:, None]
        least = np.where(np.gcd(exponents, self.order) == 1, powers, n).min(axis=0)
        prime_power = np.array([_is_prime_power(o) for o in range(l * l)])
        self.cyc_rep = np.where(prime_power[self.order], least, -1).astype(np.int32)

    def closure(self, gens) -> np.ndarray:
        """Sorted element indices of the subgroup generated by gens.

        Breadth-first search from the identity: each step right-multiplies
        the frontier by the generators only, and a membership mask over the
        group drops elements already reached.
        """
        import numpy as np

        gens = np.asarray(gens, dtype=np.int32)
        member = np.zeros(self.n, dtype=bool)
        member[self.identity] = True
        frontier = np.array([self.identity])
        while frontier.size:
            prod = self.mul[frontier[:, None], gens].ravel()
            fresh = np.zeros(self.n, dtype=bool)
            fresh[prod[~member[prod]]] = True
            member |= fresh
            frontier = np.flatnonzero(fresh)
        return np.flatnonzero(member).astype(np.int32)

    def decode(self, subgroup) -> frozenset:
        return frozenset(self.mats[int(i)] for i in subgroup)


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = min(q for q in range(2, n + 1) if n % q == 0)
    while n % p == 0:
        n //= p
    return n == 1


SUBGROUP_ENUM_CAP = 7


@lru_cache(maxsize=None)
def enumerate_subgroups_gl2(l: int) -> tuple[ModMMatrixGroup, ...]:
    """All subgroups of GL2(F_l) up to conjugacy, by closure of joins.

    Bottom-up sweep: any subgroup K arises from a maximal chain, and each
    step of the chain is <H, g> for a prime-power-order g, so adjoining one
    such element at a time reaches every conjugacy class.  Candidates are
    reduced modulo the normalizer of H (conjugating g by n in N(H) gives a
    conjugate join), and results are deduplicated against the stored
    conjugate orbits of every class already found.  Capped at l <= 7.
    """
    import numpy as np

    if not is_prime(l):
        raise DomainError(f"{l} is not prime")
    if l > SUBGROUP_ENUM_CAP:
        raise DomainError(f"subgroup enumeration is capped at l <= {SUBGROUP_ENUM_CAP}")
    # The walk's result is cached, not the tables: no ledger reads them, so a
    # long-lived process frees them (about 2 MB at l = 5) once the walk ends.
    t = _GL2Tables(l)
    candidates = np.array(
        sorted({int(r) for r in t.cyc_rep if r >= 0}), dtype=np.int32
    )

    classes: list[np.ndarray] = []
    seen_exact: set[bytes] = set()

    def register(K: np.ndarray) -> np.ndarray:
        """Record K's conjugacy class; returns its normalizer's indices."""
        conjs = t.conj[:, K].copy()  # C order, as conj[:, K] comes out in F order
        conjs.sort(axis=1)  # row x = sorted x^-1 K x
        seen_exact.update(row.tobytes() for row in conjs)
        classes.append(K)
        return np.where((conjs == K[None, :]).all(axis=1))[0].astype(np.int32)

    # frontier entries: (subgroup, its generators, its normalizer)
    trivial = np.array([t.identity], dtype=np.int32)
    frontier = [(trivial, [], register(trivial))]
    while frontier:
        nxt = []
        for H, gens, normalizer in frontier:
            if len(H) == t.n:
                continue
            in_H = np.zeros(t.n, dtype=bool)
            in_H[H] = True
            outside = candidates[~in_H[candidates]]
            # one candidate per N(H)-orbit: min of cyc_rep over the orbit
            orbit_min = t.cyc_rep[t.conj[np.ix_(normalizer, outside)]].min(axis=0)
            for g in sorted(set(map(int, orbit_min))):
                K = t.closure(gens + [g])
                if K.tobytes() not in seen_exact:
                    nxt.append((K, gens + [g], register(K)))
        frontier = nxt
    classes.sort(key=lambda s: (len(s), tuple(map(int, s))))
    return tuple(ModMMatrixGroup(l, t.decode(s)) for s in classes)


# -- surjectivity certificates from Dickson's classification ------------------

# Dickson's maximal proper subgroups of GL2(F_l) with surjective determinant,
# by the names the certificates report.
BOREL = "borel"
SPLIT_NORMALISER = "split-cartan-normaliser"
NONSPLIT_NORMALISER = "nonsplit-cartan-normaliser"
EXCEPTIONAL_S4 = "exceptional-s4"


def maximal_subgroups(l: int) -> tuple[str, ...]:
    """Maximal proper subgroups of GL2(F_l) with surjective det, up to conjugacy.

    By Dickson's classification (Serre 1972, section 2; Zywina,
    arXiv:1508.07660) a proper subgroup with surjective determinant lies in
    a Borel subgroup, in the normaliser of a split or a non-split Cartan
    subgroup, or has projective image A4, S4 or A5.  A4 and A5 have no
    quotient of order 2, so they lie in PSL2(F_l) and their determinants are
    squares; S4 leaves PSL2(F_l) exactly when l = +-3 mod 8.  The split
    normaliser lies in the S4 class at l = 5 and in the non-split normaliser
    at l = 3, where PGL2(F_3) is S4 itself.  A DomainError unless l is an
    odd prime.
    """
    if l == 2 or not is_prime(l):
        raise DomainError(f"{l} is not an odd prime")
    if l == 3:
        return (BOREL, NONSPLIT_NORMALISER)
    split = () if l == 5 else (SPLIT_NORMALISER,)
    s4 = (EXCEPTIONAL_S4,) if l % 8 in (3, 5) else ()
    return (BOREL, *split, NONSPLIT_NORMALISER, *s4)


class SurjectivityCertificate(namedtuple("SurjectivityCertificate", "maximal_subgroups surviving")):
    """The names of maximal_subgroups(l), and of those the Frobenius data did not eliminate."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "inconclusive" if self.surviving else "surjective"


def _quadratic_radicands(support: frozenset) -> list[int]:
    """Squarefree d != 1 with Q(sqrt d) unramified outside the support.

    d runs over the products of -1 and the support's primes.  Q(sqrt d) has
    discriminant D = d when d = 1 mod 4 and D = 4d otherwise, so the second
    kind needs 2 in the support, and (d | p) = (D | p) at every prime p
    outside the support: these are the quadratic characters unramified
    outside it.
    """
    out = [1, -1]
    for p in support:
        out += [d * p for d in out]
    return sorted(d for d in out if d != 1 and (d % 4 == 1 or 2 in support))


def _quadratic_character_refuted(l: int, traces: Mapping[int, int], bad_primes: Collection[int]) -> bool:
    """Refute every quadratic character compatible with a trace-zero coset.

    If the image lay in a subgroup whose non-zero-trace elements all sit in
    an index-2 subgroup, the quotient would define a quadratic character e
    unramified outside l and the bad primes with a_p = 0 mod l whenever
    e(p) = -1.  Exhibiting, for every such character, a good prime with
    e(p) = -1 and a_p != 0 mod l in the table rules this out unconditionally.
    """
    for d in _quadratic_radicands(frozenset({l, *bad_primes})):
        if not any(
            p != l and kronecker_symbol(d, p) == -1 and ap % l != 0 for p, ap in traces.items()
        ):
            return False
    return True


def frobenius_constraints(traces: Mapping[int, int], l: int) -> frozenset:
    """{(a_p mod l, p mod l)} over the good primes p != l of the Frobenius table {p: a_p}."""
    return frozenset({(ap % l, p % l) for p, ap in traces.items() if p != l})


def surjectivity_certificate(l: int, traces: Mapping[int, int], bad_primes: Collection[int]) -> SurjectivityCertificate:
    """Sound certificate that the mod-l Galois image is all of GL2(F_l).

    traces is the Frobenius table {p: a_p} of good primes, and bad_primes
    must hold every prime of bad reduction; a larger set stays sound, as it
    only adds quadratic characters to refute.

    The image G has surjective determinant (the cyclotomic character) and
    holds, for each good p != l, an element with char poly
    x^2 - a_p x + p mod l.  So G is everything once each of Dickson's
    maximal subgroups M (see maximal_subgroups) is eliminated:

    * Borel: every element has a split char poly, so an irreducible one
      (t^2 - 4d a non-square) rules M out;
    * Cartan normalisers: every element outside the Cartan has
      trace 0.  A split normaliser holds no irreducible char poly of
      non-zero trace, a non-split one no split char poly t^2 - 4d a non-zero
      square of non-zero trace.  Failing that, G inside M but outside the
      Cartan would give a quadratic character that
      _quadratic_character_refuted refutes; G inside the split Cartan lies
      in a Borel, and the non-split Cartan holds no split char poly;
    * S4 class: projective orders are 1, 2, 3 and 4, that is
      u = t^2/d in {4, 0, 1, 2}, so any other u rules it out.

    l must be an odd prime: GL2(F_2) is S3, and its non-split Cartan A3
    realises both char polys x^2 + 1 and x^2 + x + 1, so no Frobenius data
    eliminates it.  A verdict of "surjective" is unconditional;
    "inconclusive" only means the table was too short or the image really
    is proper.
    """
    maximal = maximal_subgroups(l)  # refuses an l that is not an odd prime
    pairs = frobenius_constraints(traces, l)
    return SurjectivityCertificate(
        maximal_subgroups=maximal,
        surviving=tuple(M for M in maximal if not _eliminated(M, l, traces, pairs, bad_primes)),
    )


def _eliminated(M: str, l: int, traces: Mapping[int, int], pairs: frozenset, bad_primes: Collection[int]) -> bool:
    """Do the Frobenius pairs (t, d) rule out an image inside M?"""
    if M == EXCEPTIONAL_S4:
        return any(t * t * pow(d, -1, l) % l not in (0, 1, 2, 4) for t, d in pairs)
    # traces of the pairs the Cartan side of M cannot realise: irreducible
    # ones for the Borel and the split Cartan, split ones for the non-split
    kind = 1 if M == NONSPLIT_NORMALISER else -1
    missing = [t for t, d in pairs if kronecker_symbol(t * t - 4 * d, l) == kind]
    if M == BOREL:
        return bool(missing)
    return any(missing) or bool(missing) and _quadratic_character_refuted(l, traces, bad_primes)
