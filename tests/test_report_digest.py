"""The JSON reports of 40 fixed curves at l = 3, 5, pinned by one sha256.

Every speed-up of a layer must leave these bytes alone.  The curves cover
both signs of the discriminant (one and two real components), torsion of
order 1, 2, 3, 4, 5, 6, 7, 8 and 12, root number +1 and -1, and an additive
curve whose local records are unsupported; most are small models from the
benchmark's coefficient box, the rest are named curves of small conductor.
"""

import hashlib

from ecledger.curve import WeierstrassCurve
from ecledger.ledger import LedgerOptions, emit_report, run_ledger

OPTIONS = LedgerOptions(l_list=(3, 5))
CURVES = [
    # named curves: 15a1, 15a3, 11a1, 14a1, 37a1 (w = -1), 15a2, 15a4, two of
    # torsion Z/4, 17a1, a Z/2 of root number -1, 15a5, torsion Z/2 x Z/6 and
    # Z/7, Z/3, and y^2 = x^3 + 1 (additive at 2 and 3)
    (1, 1, 1, -10, -10), (1, 1, 1, -5, 2), (0, -1, 1, -10, -20), (1, 0, 1, 4, -6),
    (0, 0, 1, -1, 0), (1, 1, 1, -135, -660), (1, 1, 1, 35, -28), (1, 1, 1, -80, 242),
    (1, 1, 1, 0, 0), (1, -1, 1, -1, -14), (1, 1, 0, -2, 0), (1, 1, 1, -2160, -39540),
    (1, 0, 1, -19, 26), (1, -1, 1, -3, 3), (0, 1, 1, -1, 0), (0, 0, 0, 0, 1),
    # box curves of torsion Z/2: both signs of the discriminant, w = -1, +1,
    # and additive somewhere
    (1, 1, 0, -1, 1), (1, 0, 0, 11, 0), (1, -1, 1, 9, 11), (1, 1, 0, 18, 39),
    (0, 0, 0, 39, -40), (1, -1, 0, -22, 0), (1, -1, 1, -4, -2), (0, -1, 0, -27, -25),
    # box curves with trivial torsion, in the same six classes
    (0, -1, 1, 10, -19), (1, 1, 0, 23, -19), (0, -1, 1, -10, -25), (1, 1, 1, 38, 44),
    (1, 0, 1, 39, -10), (1, 1, 1, 49, 9), (0, 0, 0, 33, -44), (0, 1, 0, 2, -15),
    (0, 0, 1, -29, -32), (0, 1, 1, -42, -11), (1, 0, 1, -32, -36), (0, 1, 1, -34, -34),
    (0, 1, 1, -46, -20), (0, -1, 1, -27, 11), (0, 1, 1, -29, 28), (0, 0, 0, -29, -44),
]
DIGEST = "c3271e40c362e344883ce30ed03cda5fe9a6dcd6995aa35bc9f7e2cb7c8d9a2d"


def test_reports_match_pinned_digest():
    h = hashlib.sha256()
    for coeffs in CURVES:
        h.update(emit_report(run_ledger(WeierstrassCurve(*coeffs), OPTIONS), "json-text").encode())
    assert h.hexdigest() == DIGEST
