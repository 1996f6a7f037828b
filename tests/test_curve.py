from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ecledger import curve
from ecledger.arith import DomainError
from ecledger.counting import frobenius_table
from ecledger.curve import (
    E1,
    E2,
    SingularCurveError,
    WeierstrassCurve,
    curve_from_string,
    isomorphism_over_Q,
    two_isogeny_onto,
    velu_2_isogeny,
)
from ecledger.torsion import point_order, torsion_subgroup

# 37a1, y^2 + y = x^3 - x, has rank 1 and trivial torsion: its points n(0, 0)
# are pairwise distinct, so the group law on them is checked by the index n.
C37 = WeierstrassCurve(0, 0, 1, -1, 0)
MULTIPLES_37 = {  # n -> n(0, 0), n = 1..8
    1: (0, 0), 2: (1, 0), 3: (-1, -1), 4: (2, -3), 5: (Fraction(1, 4), Fraction(-5, 8)),
    6: (6, 14), 7: (Fraction(-5, 9), Fraction(8, 27)), 8: (Fraction(21, 25), Fraction(-69, 125)),
}
# The eight rational torsion points of E1 (Z/2 x Z/4).
E1_TORSION = [None, (-1, 0), (Fraction(-13, 4), Fraction(9, 8)), (3, -2),
              (-2, -2), (-2, 3), (8, 18), (8, -27)]


def negative(C, P):
    """-P = (x, -y - a1 x - a3), the other point on P's vertical line."""
    if P is None:
        return None
    x, y = P
    return (x, -y - C.a1 * x - C.a3)


def multiple(C, P, n):
    """n P by |n| repeated additions."""
    Q = None
    for _ in range(abs(n)):
        Q = C.add(Q, P)
    return Q if n >= 0 else negative(C, Q)


def isomorphism_map(iso, pt):
    """The image of pt under x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    if pt is None:
        return None
    x, y = Fraction(pt[0]), Fraction(pt[1])
    xp = (x - iso.r) / iso.u**2
    return (xp, (y - iso.s * iso.u**2 * xp - iso.t) / iso.u**3)


def on_model(model, pt):
    """pt lies on the model given by its five rational coefficients."""
    a1, a2, a3, a4, a6 = model
    x, y = pt
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


def isogeny_map(phi, pt):
    """Velu's 2-isogeny on points; only the t_Q terms survive since u_Q = 0."""
    if pt is None:
        return None
    x, y = Fraction(pt[0]), Fraction(pt[1])
    x0, y0 = Fraction(phi.kernel[0]), Fraction(phi.kernel[1])
    if x == x0:
        return None  # kernel maps to infinity
    t = Fraction(phi.t)
    return (x + t / (x - x0), y - t * (phi.domain.a1 * (x - x0) + y - y0) / (x - x0) ** 2)


def test_invariants_exact():
    i1, i2 = E1.invariants(), E2.invariants()
    assert (i1.disc, i1.c4, i1.c6) == (50625, 481, 4879)
    assert 50625 == 15**4
    assert (i2.disc, i2.c4, i2.c6) == (225, 241, -3689)
    assert E1.j_invariant() == Fraction(111284641, 50625)


small_curve = st.tuples(*(st.integers(min_value=-6, max_value=6) for _ in range(5)))


@given(small_curve)
def test_c_invariant_identity(coeffs):
    try:
        C = WeierstrassCurve(*coeffs)
    except SingularCurveError:
        return
    inv = C.invariants()
    assert inv.c4**3 - inv.c6**2 == 1728 * inv.disc


def test_singular_model_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)


def test_a_curve_computes_its_invariants_once(monkeypatch):
    # the sweep to 10^4 reads Delta and b2, b4, b6 at each of its 1,227 primes
    built = []
    real = curve._model_invariants
    monkeypatch.setattr(curve, "_model_invariants", lambda *a: built.append(a) or real(*a))
    frobenius_table(E1, 10_000)
    assert built == []
    C = WeierstrassCurve(*E1.coefficients())
    assert C.invariants() == E1.invariants() and C.b_invariants() == E1.b_invariants()
    assert built == [E1.coefficients()]
    assert C == E1 and hash(C) == hash(E1) and repr(C) == "WeierstrassCurve(a1=1, a2=1, a3=1, a4=-10, a6=-10)"


def test_group_law_associativity_samples():
    # 37a1: (i P + j P) + k P lands on (i + j + k) P, by either bracketing
    pts = {n: multiple(C37, (0, 0), n) for n in range(-4, 5)}
    for i in pts:
        for j in pts:
            for k in (-3, 1, 2):
                lhs = C37.add(C37.add(pts[i], pts[j]), pts[k])
                assert lhs == C37.add(pts[i], C37.add(pts[j], pts[k]))
                assert lhs == multiple(C37, (0, 0), i + j + k)
    # E1's torsion: every triple, and the sums stay in the group
    for P in E1_TORSION:
        for Q in E1_TORSION:
            assert E1.add(P, Q) in E1_TORSION
            for R in E1_TORSION:
                assert E1.add(E1.add(P, Q), R) == E1.add(P, E1.add(Q, R))


def test_group_law_identity_and_inverse():
    for C, pts in ((C37, list(MULTIPLES_37.values())), (E1, E1_TORSION)):
        for P in pts:
            assert C.add(P, None) == P and C.add(None, P) == P
            assert C.is_on_curve(negative(C, P))
            assert C.add(P, negative(C, P)) is None and C.add(negative(C, P), P) is None
    assert C37.add((0, 0), (0, -1)) is None


def test_repeated_addition_reaches_the_known_multiples():
    acc = None
    for n in range(9):
        assert acc == MULTIPLES_37.get(n)
        acc = C37.add(acc, (0, 0))
    # E1's torsion has exponent 4, so the multiples of each point repeat with period 4
    for P in E1_TORSION:
        multiples = [None]
        for _ in range(9):
            multiples.append(E1.add(multiples[-1], P))
        assert multiples[4] is None
        assert all(multiples[n] == multiples[n % 4] for n in range(10))


def test_add_rejects_a_point_off_the_curve():
    # (0, 1) is not on 37a1, and (7, 1) is not on E1
    for C, P, off in ((C37, (0, 0), (0, 1)), (E1, (-1, 0), (7, 1))):
        for pair in ((P, off), (off, P), (None, off), (off, None), (off, off)):
            with pytest.raises(DomainError, match="is not on"):
                C.add(*pair)
        with pytest.raises(DomainError, match="is not on"):
            point_order(C, off)


def test_point_order_checks_its_point_once(monkeypatch):
    checked, on_curve = [], WeierstrassCurve.is_on_curve
    monkeypatch.setattr(WeierstrassCurve, "is_on_curve", lambda C, pt: checked.append(pt) or on_curve(C, pt))
    # (8, 18) has order 4 on E1, and 37a1's (0, 0) runs all 12 additions
    for C, P, order in ((E1, (8, 18), 4), (C37, (0, 0), None)):
        checked.clear()
        assert point_order(C, P) == order
        assert [pt for pt in checked if pt is not None] == [P]


def test_two_torsion_of_E1():
    pts = torsion_subgroup(E1).two_torsion
    assert [P[0] for P in pts] == [Fraction(-13, 4), -1, 3]
    for P in pts:
        assert E1.is_on_curve(P)
        assert E1.add(P, P) is None


def test_non_integer_coefficients_are_rejected():
    for a4 in (Fraction(-1, 4), Fraction(2), 2.0, "2", True):
        with pytest.raises(DomainError, match="coefficients must be integers"):
            WeierstrassCurve(0, 0, 0, a4, 0)


def test_velu_isogeny_codomain_on_curve():
    phi = velu_2_isogeny(E1, (Fraction(-13, 4), Fraction(9, 8)))
    assert phi.codomain == (1, 1, 1, Fraction(-1285, 16), Fraction(15335, 64))
    assert curve._model_invariants(*phi.codomain).j == E2.j_invariant()
    for P in [(-1, 0), (-2, -2), (8, 18), (3, -2)]:
        img = isogeny_map(phi, P)
        assert img is None or on_model(phi.codomain, img)
    # (-2, -2) has order 4 and (7, 1) is not on E1: neither is a kernel
    for K, why in (((-2, -2), "does not have order 2"), ((7, 1), "is not an affine point")):
        with pytest.raises(DomainError, match=why):
            velu_2_isogeny(E1, K)


def test_two_isogeny_onto_E2():
    hit = two_isogeny_onto(E1, E2, torsion_subgroup(E1).two_torsion)
    assert hit is not None
    phi, iso = hit
    assert phi.kernel[0] == Fraction(-13, 4)
    # composed map lands on E2 exactly
    for P in [(-1, 0), (-2, 3), (8, -27)]:
        img = isogeny_map(phi, P)
        if img is not None:
            assert E2.is_on_curve(isomorphism_map(iso, img))


def test_isomorphism_roundtrip():
    iso = isomorphism_over_Q(E1.coefficients(), E1.coefficients())
    assert iso is not None and iso.u == 1
    assert isomorphism_over_Q(E1.coefficients(), E2.coefficients()) is None  # different j-invariants
    # the Velu codomain of E1 by (-13/4, 9/8) is not integral; E2 is its integral model
    codomain = velu_2_isogeny(E1, (Fraction(-13, 4), Fraction(9, 8))).codomain
    iso = isomorphism_over_Q(codomain, E2.coefficients())
    assert (iso.u, iso.r, iso.s, iso.t) == (2, Fraction(5, 4), Fraction(1, 2), Fraction(23, 8))
    assert iso.apply(codomain) == E2.coefficients()


@pytest.mark.parametrize("model, target", [
    ((0, 0, 0, 1, 0), (0, 0, 0, -1, 0)),  # j = 1728 on both, and the discriminant ratio is -1
    ((0, 0, 0, 1, 0), (0, 0, 0, 4, 0)),  # the ratio 1/64 is not a 12th power
    ((0, 0, 0, -1, 1), (0, 0, 0, -1, -1)),  # the -1 twist: the ratio is 1, and neither u = 1 nor u = -1 maps a6
])
def test_isomorphism_over_Q_finds_none_between_curves_that_are_not_isomorphic(model, target):
    assert isomorphism_over_Q(model, target) is None


def test_two_isogeny_onto_a_curve_no_kernel_reaches_is_none():
    assert two_isogeny_onto(E1, E1, torsion_subgroup(E1).two_torsion) is None


def test_minimality():
    for p in (3, 5):
        assert E1.is_minimal_at(p)
        assert E2.is_minimal_at(p)


def test_a_model_is_minimal_at_a_good_prime():
    assert E1.is_minimal_at(7)


def test_curve_from_string():
    assert curve_from_string("1,1,1,-10,-10") == E1
    assert curve_from_string(" 1, 1 ,1, -5, 2 ") == E2
    for text in ("1,2,3", "a,b,c,d,e", "1,1,1,-10,"):
        with pytest.raises(DomainError, match="expected five comma-separated integers"):
            curve_from_string(text)
