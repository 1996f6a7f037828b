"""The package's value classes: immutable tuples whose equality, hashing and repr
read their fields, with the validation each constructor does."""

from fractions import Fraction

import pytest

from ecledger.arith import DomainError
from ecledger.counting import frobenius_table
from ecledger.curve import E1, CurveIsomorphism, WeierstrassCurve, velu_2_isogeny
from ecledger.galois_image import group_closure, surjectivity_certificate
from ecledger.ledger import CheckRecord, LedgerOptions, VerificationReport
from ecledger.local_data import bad_primes, kodaira_and_tamagawa
from ecledger.lvalue import real_period
from ecledger.padic import PadicNumber, l_invariant
from ecledger.torsion import torsion_subgroup
from test_torsion import torsion_of

A37 = WeierstrassCurve(0, 0, 1, -1, 0)  # 37a1: its trivial torsion is proved by the gcd at 3 and 5
RECORD = ("x", "claim", "computed", "none", "ok", "pass")

# class name -> two equal values built apart; the two differ where the class must not tell them apart
PAIRS = {
    "Invariants": lambda: (E1.invariants(), WeierstrassCurve(1, 1, 1, -10, -10).invariants()),
    "WeierstrassCurve": lambda: (E1, WeierstrassCurve(1, 1, 1, -10, -10)),
    "CurveIsomorphism": lambda: tuple(CurveIsomorphism(2, Fraction(5, 4), Fraction(1, 2), Fraction(23, 8))
                                      for _ in range(2)),
    "TwoIsogeny": lambda: tuple(velu_2_isogeny(E1, (Fraction(-13, 4), Fraction(9, 8))) for _ in range(2)),
    "ModMMatrixGroup": lambda: (group_closure([(1, 1, 0, 1)], 3), group_closure([(1, 2, 0, 1)], 3)),
    "SurjectivityCertificate": lambda: tuple(surjectivity_certificate(3, frobenius_table(E1, 100), bad_primes(E1))
                                             for _ in range(2)),
    "CheckRecord": lambda: (CheckRecord(*RECORD), CheckRecord(*RECORD)),
    "LedgerOptions": lambda: (LedgerOptions(prime_bound=500), LedgerOptions(500, (3, 5, 7))),
    "VerificationReport": lambda: tuple(VerificationReport("1,1,1,-10,-10", "1.0.0", (CheckRecord(*RECORD),))
                                        for _ in range(2)),
    "LocalData": lambda: (kodaira_and_tamagawa(E1, 5), kodaira_and_tamagawa(WeierstrassCurve(1, 1, 1, -10, -10), 5)),
    "RealApprox": lambda: (real_period(E1), real_period(WeierstrassCurve(1, 1, 1, -10, -10))),
    "PadicNumber": lambda: (PadicNumber(5, 1, 7, 3), PadicNumber(5, 1, 7 + 2 * 5**3, 3)),  # the unit is reduced
    "LInvariantResult": lambda: (l_invariant(E1, 5, 6), l_invariant(WeierstrassCurve(1, 1, 1, -10, -10), 5, 6)),
    "TorsionGroup": lambda: (torsion_of(A37), torsion_subgroup(A37, {})),  # gcd_primes (3, 5) against ()
}


@pytest.mark.parametrize("name", PAIRS)
def test_value_classes_are_frozen_and_equal_values_hash_alike(name):
    a, b = PAIRS[name]()
    assert type(a) is type(b) and type(a).__name__ == name
    assert a == b and not a != b and hash(a) == hash(b)
    for field, value in zip(a._fields, a):
        with pytest.raises(AttributeError):
            setattr(a, field, value)
    assert repr(a) == f"{name}({', '.join(f'{field}={value!r}' for field, value in zip(a._fields, a))})"
    if name == "TorsionGroup":
        assert (a.gcd_primes, b.gcd_primes) == ((3, 5), ())
    if name == "PadicNumber":
        assert b.unit == 7


def test_replace_checks_as_the_constructor_does():
    assert E1._replace(a4=-11).discriminant() == WeierstrassCurve(1, 1, 1, -11, -10).discriminant()
    with pytest.raises(DomainError, match="coefficients must be integers"):
        E1._replace(a4=True)
    assert PadicNumber(5, 1, 7, 3)._replace(unit=7 + 2 * 5**3).unit == 7
    with pytest.raises(AssertionError):
        CheckRecord(*RECORD)._replace(method="cited")
