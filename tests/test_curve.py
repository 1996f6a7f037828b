import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ecledger.arith import DomainError, primes_up_to
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

rng = random.Random(20260826)


def reduce_point(pt, p):
    """Reduce a rational point mod p; non p-integral points go to infinity."""
    if pt is None:
        return None
    x, y = Fraction(pt[0]), Fraction(pt[1])
    if x.denominator % p == 0 or y.denominator % p == 0:
        return None
    return (x.numerator * pow(x.denominator, -1, p) % p, y.numerator * pow(y.denominator, -1, p) % p)


def isomorphism_map(iso, pt):
    """The image of pt under x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    if pt is None:
        return None
    x, y = Fraction(pt[0]), Fraction(pt[1])
    xp = (x - iso.r) / iso.u**2
    return (xp, (y - iso.s * iso.u**2 * xp - iso.t) / iso.u**3)


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


def random_fp_curve(p):
    while True:
        try:
            return WeierstrassCurve(*(rng.randrange(p) for _ in range(5)), p=p)
        except SingularCurveError:
            continue


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


def test_group_law_associativity_samples():
    for p in (5, 7, 11, 13, 17):
        C = random_fp_curve(p)
        pts = C.points_over_fp()
        for _ in range(30):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert C.add(C.add(P, Q), R) == C.add(P, C.add(Q, R))


def test_group_law_identity_and_inverse():
    for p in (5, 11, 19):
        C = random_fp_curve(p)
        for P in C.points_over_fp():
            assert C.add(P, None) == P
            assert C.add(P, C.negate(P)) is None


def test_multiply_matches_repeated_addition():
    C = E1.reduce_mod_p(7)
    for P in C.points_over_fp():
        acc = None
        for n in range(10):
            assert C.multiply(P, n) == acc
            acc = C.add(acc, P)


def test_reduction_is_a_homomorphism():
    # (P + Q) mod p == (P mod p) + (Q mod p) on rational points of E1
    rational = [None, (-1, 0), (-2, -2), (-2, 3), (3, -2), (8, 18), (8, -27)]
    for p in (7, 11, 13, 23):
        Cp = E1.reduce_mod_p(p)
        for P in rational:
            for Q in rational:
                lhs = reduce_point(E1.add(P, Q), p)
                rhs = Cp.add(reduce_point(P, p), reduce_point(Q, p))
                assert lhs == rhs


def test_points_over_fp_all_on_curve():
    for p in primes_up_to(30):
        if 50625 % p == 0:
            continue
        Cp = E1.reduce_mod_p(p)
        pts = Cp.points_over_fp()
        assert pts[0] is None and len(pts) == len(set(pts))
        for pt in pts:
            assert Cp.is_on_curve(pt)


def test_two_torsion_of_E1():
    pts = E1.two_torsion_points()
    xs = sorted(P[0] for P in pts)
    assert xs == [Fraction(-13, 4), -1, 3]
    for P in pts:
        assert E1.is_on_curve(P)
        assert E1.add(P, P) is None


def test_two_torsion_with_a_huge_integral_root():
    # y^2 = x^3 + (5 - r^2)x - 5r = (x - r)(x^2 + rx + 5): the root is beyond
    # float precision and too large to reach by trying divisors of 5r
    r = 10**17 + 3
    C = WeierstrassCurve(0, 0, 0, 5 - r * r, -5 * r)
    start = time.perf_counter()
    assert C.two_torsion_points() == [(r, 0)]
    assert time.perf_counter() - start < 1.0


def test_two_torsion_requires_an_integral_model():
    with pytest.raises(DomainError):
        WeierstrassCurve(0, 0, 0, Fraction(-1, 4), 0).two_torsion_points()


def test_velu_isogeny_codomain_on_curve():
    phi = velu_2_isogeny(E1, (Fraction(-13, 4), Fraction(9, 8)))
    assert phi.codomain.j_invariant() == E2.j_invariant()
    for P in [(-1, 0), (-2, -2), (8, 18), (3, -2)]:
        img = isogeny_map(phi, P)
        assert img is None or phi.codomain.is_on_curve(img)


def test_two_isogeny_onto_E2():
    hit = two_isogeny_onto(E1, E2)
    assert hit is not None
    phi, iso = hit
    assert phi.kernel[0] == Fraction(-13, 4)
    # composed map lands on E2 exactly
    for P in [(-1, 0), (-2, 3), (8, -27)]:
        img = isogeny_map(phi, P)
        if img is not None:
            assert E2.is_on_curve(isomorphism_map(iso, img))


def test_isomorphism_roundtrip():
    iso = isomorphism_over_Q(E1, E1)
    assert iso is not None and iso.u == 1
    assert isomorphism_over_Q(E1, E2) is None  # different j-invariants


def test_minimality():
    for p in (3, 5):
        assert E1.is_minimal_at(p)
        assert E2.is_minimal_at(p)


def test_curve_from_string():
    assert curve_from_string("1,1,1,-10,-10") == E1
    assert curve_from_string(" 1, 1 ,1, -5, 2 ") == E2
    with pytest.raises(Exception):
        curve_from_string("1,2,3")
