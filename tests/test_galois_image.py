import hashlib

import pytest

from ecledger.curve import E1, WeierstrassCurve
from ecledger.galois_image import (
    RZB_15A1_MOD8,
    ModMMatrixGroup,
    _tables,
    abelian_group_structure,
    det_condition_subgroup,
    enumerate_subgroups_gl2,
    fixed_submodule,
    group_closure,
    mat_det,
    mat_mul,
    surjectivity_certificate,
)

CONTROL_11A1 = WeierstrassCurve(0, -1, 1, -10, -20)  # conductor 11, 5-isogeny


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
    # soundness: the certificate counts only proper subgroups
    for l in (3, 5):
        cert = surjectivity_certificate(E1, l, 200)
        full_order = len(enumerate_subgroups_gl2(l)) and max(
            H.order for H in enumerate_subgroups_gl2(l)
        )
        assert cert.proper_subgroups == len(enumerate_subgroups_gl2(l)) - 1
        assert cert.eliminated_subgroups <= cert.proper_subgroups
        # the full group itself is realized
        assert full_order == (l * l - 1) * (l * l - l)


def test_certificates_for_E1():
    for l in (3, 5, 7):
        cert = surjectivity_certificate(E1, l, 1000)
        assert cert.verdict == "surjective"


def test_control_curve_inconclusive_at_5():
    # 11a1 admits a rational 5-isogeny, so its mod-5 image is genuinely proper
    cert = surjectivity_certificate(CONTROL_11A1, 5, 1000)
    assert cert.verdict == "inconclusive"


def test_certificate_monotone_in_bound():
    small = surjectivity_certificate(E1, 3, 100)
    large = surjectivity_certificate(E1, 3, 1000)
    assert small.eliminated_subgroups <= large.eliminated_subgroups
    assert set(small.witness_primes) <= set(large.witness_primes)


def test_subgroup_enum_cap():
    with pytest.raises(Exception):
        enumerate_subgroups_gl2(11)


@pytest.mark.parametrize("l", [3, 5])
def test_gl2_tables_agree_with_matrix_arithmetic(l):
    t = _tables(l)
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


def test_closure_is_the_generated_subgroup():
    t = _tables(5)
    gens = [t.index[(1, 1, 0, 1)], t.index[(2, 0, 0, 1)], t.index[(1, 0, 0, 2)]]  # upper triangular
    K = t.closure(gens)
    expected = group_closure([t.mats[g] for g in gens], 5).elements
    assert t.decode(K) == expected and len(K) == 80
    assert list(K) == sorted(K)
    assert list(t.closure([])) == [t.identity]
