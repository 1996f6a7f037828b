import hashlib
import itertools
from fractions import Fraction

import pytest

from ecledger.arith import factorize, primes_up_to
from ecledger.counting import count_points, frobenius_table
from ecledger.curve import E1, E2, SingularCurveError, WeierstrassCurve
from ecledger.torsion import point_order, torsion_subgroup
from test_counting import seeded_models


def torsion_of(C):
    """The torsion subgroup, with the gcd counts a ledger reads from its table."""
    return torsion_subgroup(C, frobenius_table(C, 29))


def group_closure_oracle(C, points):
    """Close the reported points under addition; independent of the search."""
    elems = {None}
    frontier = [None]
    pts = [None] + list(points)
    while frontier:
        P = frontier.pop()
        for Q in pts:
            R = C.add(P, Q)
            if R not in elems:
                elems.add(R)
                frontier.append(R)
    return elems


def test_torsion_of_the_pair():
    for C in (E1, E2):
        T = torsion_of(C)
        assert (T.order, T.structure) == (8, (2, 4))
        assert T.describe() == "Z/2 x Z/4"


def test_E1_torsion_points_verified_pointwise():
    T = torsion_of(E1)
    assert len(T.points) == 8 and T.points[0] is None
    for P in T.points[1:]:
        assert E1.is_on_curve(P)
        n = point_order(E1, P)
        assert n is not None and n in (2, 4)
    # closure of the reported points is exactly the reported set
    assert group_closure_oracle(E1, T.points[1:]) == set(T.points)


def test_E1_two_torsion_includes_non_integral_x():
    T = torsion_of(E1)
    xs = {P[0] for P in T.points if P is not None and point_order(E1, P) == 2}
    assert xs == {-1, 3, Fraction(-13, 4)}
    assert T.two_torsion == tuple(P for P in T.points[1:] if point_order(E1, P) == 2)


def test_known_small_curves():
    # independent fixtures: cubic y^2 = x^3 + 1 has the 6 obvious points
    T = torsion_of(WeierstrassCurve(0, 0, 0, 0, 1))
    assert (T.order, T.describe()) == (6, "Z/6")
    # y^2 = x^3 - x: full 2-torsion and nothing else
    T = torsion_of(WeierstrassCurve(0, 0, 0, -1, 0))
    assert (T.order, T.structure) == (4, (2, 2))
    # y^2 + y = x^3 - x: rank-1 curve with trivial torsion
    T = torsion_of(WeierstrassCurve(0, 0, 1, -1, 0))
    assert T.order == 1
    # y^2 + xy + y = x^3 - x^2 - 3x + 3: cyclic of order 7
    T = torsion_of(WeierstrassCurve(1, -1, 1, -3, 3))
    assert (T.order, T.describe()) == (7, "Z/7")


def test_point_order_of_infinite_point():
    # (0, 0) on the rank-1 curve above is non-torsion
    assert point_order(WeierstrassCurve(0, 0, 1, -1, 0), (0, 0)) is None


# One curve for each of Mazur's 15 groups, with the structure the count-bound
# and closure search gave for it.
MAZUR_CURVES = [
    ((0, 0, 1, -1, 0), (1, 1)),  # 37a1
    ((1, 1, 1, -110, -880), (1, 2)),
    ((0, 0, 1, 0, 0), (1, 3)),
    ((1, 1, 1, -80, 242), (1, 4)),
    ((0, -1, 1, -10, -20), (1, 5)),  # 11a1
    ((1, 0, 1, 4, -6), (1, 6)),  # 14a1
    ((1, -1, 1, -3, 3), (1, 7)),
    ((1, 1, 1, 35, -28), (1, 8)),
    ((1, -1, 1, -14, 29), (1, 9)),
    ((1, 0, 0, -45, 81), (1, 10)),
    ((1, -1, 1, -122, 1721), (1, 12)),
    ((0, 0, 0, -1, 0), (2, 2)),
    ((1, 1, 1, -10, -10), (2, 4)),  # E1
    ((1, 0, 1, -19, 26), (2, 6)),
    ((1, 0, 0, -1070, 7812), (2, 8)),
]


@pytest.mark.parametrize("coeffs, structure", MAZUR_CURVES)
def test_mazur_groups(coeffs, structure):
    C = WeierstrassCurve(*coeffs)
    delta_factors = dict(factorize(C.discriminant()))
    T = torsion_of(C)
    # the search reads Delta's cached factorisation and leaves it as it was
    assert factorize(C.discriminant()) == delta_factors
    assert T.structure == structure and T.order == structure[0] * structure[1]
    assert group_closure_oracle(C, T.points[1:]) == set(T.points)
    # the short model's discriminant, whose square divisors the search reads
    # from the factorisation of Delta
    c4, c6 = C.c_invariants()
    A, B = -27 * c4, -54 * c6
    assert -16 * (4 * A**3 + 27 * B**2) == 2**12 * 3**12 * C.discriminant()
    # torsion injects into E(F_p) at good odd primes, so the order divides each count
    disc = C.discriminant()
    good = [p for p in primes_up_to(200) if p > 2 and disc % p][:6]
    assert len(good) == 6
    assert all(count_points(C, p) % T.order == 0 for p in good)


@pytest.mark.parametrize("n", [3**36, 7**20])
def test_full_two_torsion_of_congruent_number_curves(n):
    # y^2 = x^3 - n^2 x = x(x - n)(x + n) has torsion Z/2 x Z/2 for every n;
    # at these n the short-model roots 36n are beyond float precision.
    C = WeierstrassCurve(0, 0, 0, -n * n, 0)
    T = torsion_of(C)
    assert (T.order, T.structure) == (4, (2, 2))
    assert T.two_torsion == ((-n, 0), (0, 0), (n, 0))
    assert T.points == (None, (-n, 0), (0, 0), (n, 0))


def _small_models():
    for coeffs in itertools.product((0, 1), (-1, 0, 1), (0, 1), range(-2, 3), range(-2, 3)):
        try:
            yield WeierstrassCurve(*coeffs)
        except SingularCurveError:
            pass


def test_small_model_grid_pinned():
    rows = []
    for C in _small_models():
        T = torsion_of(C)
        rows.append((C.coefficients(), T.order, T.structure, T.points, T.two_torsion))
    assert len(rows) == 290
    # sha256 of the same rows from the count-bound and closure search
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "cd67d2e7bb793eaaf52882b7c1640929145477e030d0328a2318cac1bd68a9f4"


def test_point_count_gcd_returns_what_the_full_search_finds():
    curves = seeded_models(22, 400)  # a fixed slice of the benchmark's coefficient box
    fast = [torsion_of(C) for C in curves]
    assert [torsion_subgroup(C, {}) for C in curves] == fast  # no counts: every curve takes the search
    orders = [T.order for T in fast]
    assert orders.count(1) > 300 and len(set(orders)) > 2


def test_gcd_primes_name_the_point_counts_that_proved_the_group_trivial():
    # 37a1: #E(F_3) = 7 and #E(F_5) = 8; E1's Z/2 x Z/4 comes from the search
    assert torsion_of(WeierstrassCurve(0, 0, 1, -1, 0)).gcd_primes == (3, 5)
    assert torsion_of(E1).gcd_primes == ()
