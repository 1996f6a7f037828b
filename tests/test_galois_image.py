import hashlib
import itertools
import math

import numpy as np
import pytest

from ecledger.arith import DomainError, factorize, kronecker_symbol, primes_up_to
from ecledger.cli import CERTIFICATE_L_CAP
from ecledger.counting import frobenius_table
from ecledger.curve import E1, E2, WeierstrassCurve
from ecledger.galois_image import (
    BOREL,
    EXCEPTIONAL_S4,
    NONSPLIT_NORMALISER,
    RZB_15A1_MOD8,
    SPLIT_NORMALISER,
    SUBGROUP_ENUM_CAP,
    ModMMatrixGroup,
    _GL2Tables,
    _quadratic_character_refuted,
    _quadratic_radicands,
    abelian_group_structure,
    det_condition_subgroup,
    enumerate_subgroups_gl2,
    fixed_submodule,
    frobenius_constraints,
    group_closure,
    mat_det,
    mat_mul,
    maximal_subgroups,
    surjectivity_certificate,
)
from ecledger.ledger import LedgerOptions, run_ledger
from ecledger.local_data import bad_primes
from test_counting import seeded_models

CONTROL_11A1 = WeierstrassCurve(0, -1, 1, -10, -20)  # conductor 11, 5-isogeny
CM_121B1 = WeierstrassCurve(0, -1, 1, -7, 10)  # CM by Q(sqrt(-11))

# Cremona labels: 2-, 3-, 5- and 7-isogenies, rank 0 and 1, and six CM curves
NAMED_CURVES = {
    "11a1": (0, -1, 1, -10, -20), "11a2": (0, -1, 1, -7820, -263580), "11a3": (0, -1, 1, 0, 0),
    "14a1": (1, 0, 1, 4, -6), "15a1": (1, 1, 1, -10, -10), "15a3": (1, 1, 1, -5, 2),
    "17a1": (1, -1, 1, -1, -14), "19a1": (0, 1, 1, -9, -15), "20a1": (0, 1, 0, 4, 4),
    "26a1": (1, 0, 1, -5, -8), "26b1": (1, -1, 1, -3, 3), "37a1": (0, 0, 1, -1, 0),
    "37b1": (0, 1, 1, -23, -50), "38b1": (1, 1, 1, 0, 1), "27a1": (0, 0, 1, 0, -7),
    "32a1": (0, 0, 0, 4, 0), "36a1": (0, 0, 0, 0, 1), "49a1": (1, -1, 0, -2, -1),
    "64a1": (0, 0, 0, -4, 0), "121b1": (0, -1, 1, -7, 10),
}


def gl2_order(l):
    return (l * l - 1) * (l * l - l)


# orders of the subgroups maximal_subgroups names
SUBGROUP_ORDER = {
    BOREL: lambda l: l * (l - 1) ** 2,
    SPLIT_NORMALISER: lambda l: 2 * (l - 1) ** 2,
    NONSPLIT_NORMALISER: lambda l: 2 * (l * l - 1),
    EXCEPTIONAL_S4: lambda l: 24 * (l - 1),
}


def is_closed(G):
    """Identity and closure under products; a finite such set is a group."""
    m = G.modulus
    return (1, 0, 0, 1) in G.elements and all(
        mat_mul(x, y, m) in G.elements for x in G.elements for y in G.elements
    )


def test_mod8_group_orders():
    data = RZB_15A1_MOD8
    G = group_closure(data["g_generators"], 8)
    H = group_closure(data["h_generators"], 8)
    assert G.order == 16
    assert H.order == 8
    assert H.elements <= G.elements


def test_mod8_det_condition_subgroup():
    G = group_closure(RZB_15A1_MOD8["g_generators"], 8)
    H = group_closure(RZB_15A1_MOD8["h_generators"], 8)
    D = det_condition_subgroup(G)
    assert D.elements == H.elements
    assert all(mat_det(x, 8) in (1, 7) for x in D.elements)


def test_mod8_fixed_points_agree():
    G = group_closure(RZB_15A1_MOD8["g_generators"], 8)
    H = group_closure(RZB_15A1_MOD8["h_generators"], 8)
    fg, fh = fixed_submodule(G), fixed_submodule(H)
    assert fg == fh
    assert len(fg) == 8
    assert abelian_group_structure(fg, 8) == (2, 4)


def test_every_closure_is_closed():
    for gens, m in ((RZB_15A1_MOD8["g_generators"], 8), (RZB_15A1_MOD8["h_generators"], 8)):
        G = group_closure(gens, m)
        assert is_closed(G)


def test_fixed_submodule_is_a_subgroup():
    G = group_closure(RZB_15A1_MOD8["g_generators"], 8)
    fg = fixed_submodule(G)
    assert (0, 0) in fg
    for v in fg:
        for w in fg:
            assert ((v[0] + w[0]) % 8, (v[1] + w[1]) % 8) in fg


def _element_order(v, m):
    w, n = v, 1
    while w != (0, 0):
        w, n = ((w[0] + v[0]) % m, (w[1] + v[1]) % m), n + 1
    return n


@pytest.mark.parametrize("m", range(2, 13))
def test_abelian_group_structure_against_element_orders(m):
    # every subgroup of (Z/m)^2 is <u> + <v>; Z/d1 x Z/d2 has exactly
    # gcd(k, d1) gcd(k, d2) elements of order dividing k, for every k
    vectors = [(a, b) for a in range(m) for b in range(m)]
    cyclic = {frozenset(((i * a) % m, (i * b) % m) for i in range(m)) for a, b in vectors}
    subgroups = {frozenset(((x[0] + y[0]) % m, (x[1] + y[1]) % m) for x in U for y in V)
                 for U in cyclic for V in cyclic}
    for S in subgroups:
        d1, d2 = abelian_group_structure(S, m)
        orders = [_element_order(v, m) for v in S]
        assert d2 % d1 == 0 and d1 * d2 == len(S)
        for k in range(1, m + 1):
            assert sum(k % o == 0 for o in orders) == math.gcd(k, d1) * math.gcd(k, d2), (m, sorted(S), k)


def test_subgroup_class_counts():
    # conjugacy classes of subgroups of GL2(F_l); l = 3 count verified by an
    # exhaustive subgroup-lattice oracle in-session, l = 2 is S3 (4 classes)
    assert len(enumerate_subgroups_gl2(2)) == 4
    assert len(enumerate_subgroups_gl2(3)) == 16
    assert len(enumerate_subgroups_gl2(5)) == 48
    assert len(enumerate_subgroups_gl2(7)) == 84


# sha256 of repr([sorted(H.elements) for H in enumerate_subgroups_gl2(l)]),
# taken from the enumeration that closed subgroups by multiplying whole
# element sets; every later enumeration must list the same classes, in the
# same order, with the same elements.
CLASS_LIST_DIGESTS = {
    2: "b93fd5b3cb0b2744313cd29239f9425746687d7c0aa635b674b78ce4ca3c09bd",
    3: "ae463ad3dc5d2b7be2fcd3fe900c61fa504d1bdba730fe56d2285a26279eaad9",
    5: "f882f4814e9d76a68c882e10a09ece71b3ec28dd9e9903054a6d1aaa1a8a717f",
    7: "07e177b820f791c0613d2ff127034299b5eb39511986ca78c31c64727312f5b9",
}


@pytest.mark.parametrize("l", sorted(CLASS_LIST_DIGESTS))
def test_class_lists_pinned(l):
    listing = repr([sorted(H.elements) for H in enumerate_subgroups_gl2(l)])
    assert hashlib.sha256(listing.encode()).hexdigest() == CLASS_LIST_DIGESTS[l]


def test_enumerated_subgroups_are_closed_subgroups():
    for H in enumerate_subgroups_gl2(3):
        assert isinstance(H, ModMMatrixGroup)
        assert is_closed(H)


def test_full_group_never_eliminated():
    # soundness: the certificate lists proper subgroups only, and a
    # survivor is one of them
    traces = frobenius_table(E1, 200)
    for l in (3, 5, 7):
        cert = surjectivity_certificate(l, traces, bad_primes(E1))
        assert cert.maximal_subgroups == maximal_subgroups(l)
        assert set(cert.surviving) <= set(cert.maximal_subgroups)
        assert all(SUBGROUP_ORDER[M](l) < gl2_order(l) for M in cert.maximal_subgroups)


def test_certificates_for_E1():
    traces = frobenius_table(E1, 1000)
    for l in (3, 5, 7):
        cert = surjectivity_certificate(l, traces, bad_primes(E1))
        assert cert.verdict == "surjective"


def test_control_curve_inconclusive_at_5():
    # 11a1 admits a rational 5-isogeny, so its mod-5 image is genuinely proper
    cert = surjectivity_certificate(5, frobenius_table(CONTROL_11A1, 1000), bad_primes(CONTROL_11A1))
    assert cert.verdict == "inconclusive"
    assert BOREL in cert.surviving


def test_certificate_monotone_in_bound():
    small = surjectivity_certificate(3, frobenius_table(E1, 100), bad_primes(E1))
    large = surjectivity_certificate(3, frobenius_table(E1, 1000), bad_primes(E1))
    assert set(large.surviving) <= set(small.surviving)


def test_certificate_rejects_composite_l():
    with pytest.raises(DomainError):
        surjectivity_certificate(9, frobenius_table(E1, 100), bad_primes(E1))


def test_closure_and_enumeration_refuse_what_they_cannot_take():
    with pytest.raises(DomainError, match="not invertible mod 8"):
        group_closure([(2, 0, 0, 1)], 8)
    with pytest.raises(DomainError, match="9 is not prime"):
        enumerate_subgroups_gl2(9)


def test_certificate_and_ledger_reject_l_2():
    # GL2(F_2) = S3: its Cartan A3 realises every char poly, so at l = 2 no
    # verdict could be "surjective", even for 11a1, whose mod-2 image is all of S3
    for C in (E1, CONTROL_11A1):
        with pytest.raises(DomainError, match="2 is not an odd prime"):
            surjectivity_certificate(2, frobenius_table(C, 200), bad_primes(C))
    with pytest.raises(DomainError, match="2 is not an odd prime"):
        run_ledger(E1, LedgerOptions(l_list=(2,)))


@pytest.mark.parametrize("l", [2, 9, 15])
def test_maximal_subgroups_reject_what_is_not_an_odd_prime(l):
    # GL2(F_2)'s maximal subgroups are the Borel and the non-split Cartan A3,
    # not the odd-l list; a composite l has no such list here at all
    with pytest.raises(DomainError, match=f"^{l} is not an odd prime$"):
        maximal_subgroups(l)


def test_certificates_past_the_enumeration_cap():
    # E1, E2 and 37a1 have surjective mod-l images for every l >= 3
    primes = [l for l in primes_up_to(CERTIFICATE_L_CAP) if l > SUBGROUP_ENUM_CAP]
    for C in (E1, E2, WeierstrassCurve(0, 0, 1, -1, 0)):
        traces = frobenius_table(C, 1000)
        assert all(surjectivity_certificate(l, traces, bad_primes(C)).verdict == "surjective" for l in primes)
    # 121b1 has CM by Q(sqrt(-11)): its image lies in the normaliser of the
    # Cartan subgroup that is split at l exactly when l splits in that field
    traces = frobenius_table(CM_121B1, 1000)
    for l in primes:
        if l == 11:  # ramified in Q(sqrt(-11)): nothing is eliminated
            continue
        cert = surjectivity_certificate(l, traces, bad_primes(CM_121B1))
        assert cert.surviving == ((SPLIT_NORMALISER,) if kronecker_symbol(-11, l) == 1 else (NONSPLIT_NORMALISER,))


def test_subgroup_enum_cap():
    with pytest.raises(Exception):
        enumerate_subgroups_gl2(11)


@pytest.mark.parametrize("l", [3, 5])
def test_gl2_tables_agree_with_matrix_arithmetic(l):
    t = _GL2Tables(l)
    mats = t.mats
    assert len(mats) == (l * l - 1) * (l * l - l)
    for i, x in enumerate(mats):
        a, b, c, d = x
        det_inv = pow(mat_det(x, l), -1, l)
        x_inv = (d * det_inv % l, -b * det_inv % l, -c * det_inv % l, a * det_inv % l)
        assert mats[t.inv[i]] == x_inv
        assert mat_mul(x, x_inv, l) == (1, 0, 0, 1)
        for j, y in enumerate(mats):
            assert mats[t.mul[i, j]] == mat_mul(x, y, l)
            assert mats[t.conj[i, j]] == mat_mul(mat_mul(x_inv, y, l), x, l)


@pytest.mark.parametrize("l", [2, 3, 5, 7])
def test_gl2_tables_orders_and_cyclic_representatives_against_matrix_powers(l):
    """order[i] is the least k with x^k = I, for x = mats[i]; cyc_rep[i] is
    the least index among the generators x^k, gcd(k, order) = 1, of <x> when
    the order is a prime power, and -1 otherwise."""
    t = _GL2Tables(l)
    for i, x in enumerate(t.mats):
        powers = [x]
        while powers[-1] != (1, 0, 0, 1):
            powers.append(mat_mul(powers[-1], x, l))
        o = len(powers)
        assert t.order[i] == o
        generators = [t.index[y] for k, y in enumerate(powers, 1) if math.gcd(k, o) == 1]
        assert t.cyc_rep[i] == (min(generators) if len(factorize(o)) == 1 else -1)


def test_closure_is_the_generated_subgroup():
    t = _GL2Tables(5)
    gens = [t.index[(1, 1, 0, 1)], t.index[(2, 0, 0, 1)], t.index[(1, 0, 0, 2)]]  # upper triangular
    K = t.closure(gens)
    expected = group_closure([t.mats[g] for g in gens], 5).elements
    assert t.decode(K) == expected and len(K) == 80
    assert list(K) == sorted(K)
    assert list(t.closure([])) == [t.identity]


def _radicands_by_definition(support):
    """Squarefree d != 1 whose field Q(sqrt d) has discriminant supported in the set."""
    bound = math.prod(support)
    out = []
    for d in range(-bound, bound + 1):
        if d in (0, 1) or any(e > 1 for e in factorize(abs(d)).values()):
            continue
        disc = d if d % 4 == 1 else 4 * d
        if set(factorize(abs(disc))) <= support:
            out.append(d)
    return out


def test_quadratic_radicands_are_the_fields_unramified_outside_the_support():
    primes = (2, 3, 5, 7, 11, 13)
    supports = [frozenset(S) for k in range(5) for S in itertools.combinations(primes, k)]
    assert len(supports) == 57
    for S in supports:
        assert _quadratic_radicands(S) == _radicands_by_definition(S), sorted(S)


# -- reference: the certificate that walked every subgroup class --------------


def subgroup_realizes_pairs(H: ModMMatrixGroup, pairs) -> bool:
    """Does H contain, for every pair (t, d), an element with that char poly?"""
    seen = {((x[0] + x[3]) % H.modulus, mat_det(x, H.modulus)) for x in H.elements}
    return all(pair in seen for pair in pairs)


def subgroup_det_surjective(H: ModMMatrixGroup) -> bool:
    l = H.modulus
    dets = {mat_det(x, l) for x in H.elements}
    return len(dets) == l - 1


def _trace_zero_coset_possible(H: ModMMatrixGroup) -> bool:
    """True iff the non-zero-trace elements of H generate a proper subgroup.

    In that case an image inside H would determine a quadratic character with
    a_p = 0 mod l on its -1 fibre (the trace-zero coset); see
    _quadratic_character_refuted.  (The normalizers of Cartan subgroups are
    the interesting case: their full char-poly sets can coincide with
    GL2(F_l)'s, e.g. for l = 3.)
    """
    m = H.modulus
    gens = [x for x in H.elements if (x[0] + x[3]) % m != 0]
    if not gens:
        return True
    return group_closure(gens, m).order < H.order


def enumeration_verdict(C, l, traces) -> str:
    """Verdict of eliminating every proper subgroup class of GL2(F_l).

    A class falls when its determinant is not onto, when it misses an
    observed Frobenius char poly, or when its non-zero-trace elements span a
    proper subgroup and every compatible quadratic character is refuted.
    """
    pairs = frobenius_constraints(traces, l)
    for H in enumerate_subgroups_gl2(l)[:-1]:  # the last class is GL2(F_l)
        if not subgroup_det_surjective(H) or not subgroup_realizes_pairs(H, pairs):
            continue
        if _trace_zero_coset_possible(H) and _quadratic_character_refuted(l, traces, bad_primes(C)):
            continue
        return "inconclusive"
    return "surjective"


ORACLE_CURVES = [WeierstrassCurve(*a) for a in NAMED_CURVES.values()] + seeded_models(1, 40)


@pytest.mark.parametrize("bound", [30, 1000])
def test_verdicts_match_the_class_enumeration(bound):
    for C in ORACLE_CURVES:
        traces = frobenius_table(C, bound)
        for l in (3, 5, 7):
            verdict = surjectivity_certificate(l, traces, bad_primes(C)).verdict
            reference = enumeration_verdict(C, l, traces)
            # soundness first: "surjective" must hold for the reference too
            assert verdict != "surjective" or reference == "surjective", (C.coefficients(), l)
            assert verdict == reference, (C.coefficients(), l)


def _explicit_subgroup(M, l):
    """Element set of one conjugate of the subgroup maximal_subgroups names."""
    if M == EXCEPTIONAL_S4:
        return None
    units = range(1, l)
    if M == BOREL:
        return {(a, b, 0, d) for a in units for b in range(l) for d in units}
    if M == SPLIT_NORMALISER:
        return {(a, 0, 0, d) for a in units for d in units} | {(0, b, c, 0) for b in units for c in units}
    e = next(x for x in units if pow(x, (l - 1) // 2, l) == l - 1)  # a non-square
    cartan = {(a, e * b % l, b, a) for a in range(l) for b in range(l) if a or b}
    return cartan | {mat_mul(x, (1, 0, 0, l - 1), l) for x in cartan}


def _projective_order(x, l):
    y, n = x, 1
    while y[1] or y[2] or y[0] != y[3]:
        y, n = mat_mul(y, x, l), n + 1
    return n


@pytest.mark.parametrize("l", [3, 5, 7])
def test_maximal_subgroups_cover_every_proper_class(l):
    """Every proper subgroup with surjective det lies under a listed one.

    "Under" means inside a conjugate for the Borel and Cartan classes, and
    projective orders in {1, 2, 3, 4} for the S4 class, which is what the
    certificate's S4 test refutes.  The listed subgroups have the orders of
    the enumeration's maximal classes.
    """
    t = _GL2Tables(l)

    def mask(elements):
        out = np.zeros(t.n, dtype=bool)
        out[[t.index[x] for x in elements]] = True
        return out

    def inside(H, K_mask):  # H lies in a conjugate of K
        return bool(K_mask[t.conj[:, [t.index[x] for x in H.elements]]].all(axis=1).any())

    listed = maximal_subgroups(l)
    explicit = {M: _explicit_subgroup(M, l) for M in listed if M != EXCEPTIONAL_S4}
    assert all(len(elements) == SUBGROUP_ORDER[M](l) for M, elements in explicit.items())
    masks = [mask(elements) for elements in explicit.values()]
    proper = [H for H in enumerate_subgroups_gl2(l)[:-1] if subgroup_det_surjective(H)]
    for H in proper:
        s4 = EXCEPTIONAL_S4 in listed and all(_projective_order(x, l) <= 4 for x in H.elements)
        assert s4 or any(inside(H, m) for m in masks), sorted(H.elements)
    maximal = [H.order for H in proper
               if not any(H.order < K.order and inside(H, mask(K.elements)) for K in proper)]
    assert sorted(maximal) == sorted(SUBGROUP_ORDER[M](l) for M in listed)
