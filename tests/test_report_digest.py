"""The JSON reports of 40 fixed curves at l = 3, 5, pinned by one sha256, and
the statuses of their records and of 100 box curves, pinned as a readable table.

Every speed-up of a layer must leave these bytes alone.  The curves cover
both signs of the discriminant (one and two real components), torsion of
order 1, 2, 3, 4, 5, 6, 7, 8 and 12, root number +1 and -1, and an additive
curve whose local records are unsupported; most are small models from the
benchmark's coefficient box, the rest are named curves of small conductor.

tests/golden/statuses.txt has one line per curve: its coefficients, each
computed record as id:P (pass), id:F (fail) or id:U (unsupported), and the
overall verdict.  A change that moves a status on purpose rewrites it with
`python tests/test_cli_contracts.py --regenerate`, and its diff shows what moved.
"""

import hashlib
from functools import lru_cache
from pathlib import Path

from ecledger.curve import WeierstrassCurve
from ecledger.ledger import LedgerOptions, VerificationReport, emit_report, run_ledger

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
# the first 100 curves of the benchmark's box stream, seed 1, after E1 and E2
BOX_CURVES = [
    (0, 1, 0, -18, -35), (1, 0, 1, 33, -2), (0, -1, 1, -47, -1), (1, 1, 0, 39, 7), (1, 1, 0, 25, -37),
    (1, -1, 0, -47, 33), (0, 0, 0, 4, 42), (0, 1, 0, 47, 6), (1, 1, 0, -6, -21), (0, 0, 1, -48, 3),
    (0, -1, 1, -35, 45), (1, 1, 1, 14, 35), (0, 0, 1, 25, 13), (1, 1, 0, 11, -19), (1, 0, 0, -4, 20),
    (1, -1, 1, 34, 15), (0, -1, 1, -3, 12), (0, 0, 0, -11, 40), (1, 1, 0, -29, 14), (0, -1, 0, 19, 20),
    (0, 0, 1, 23, -5), (1, 0, 0, -1, 50), (0, 1, 0, 4, -43), (1, 0, 0, 14, 2), (1, 0, 1, -6, -50),
    (1, 0, 0, -21, 31), (0, 1, 0, -39, 20), (1, -1, 0, -40, -48), (1, -1, 1, -19, -16), (0, 1, 0, -6, -13),
    (0, -1, 0, -18, 17), (0, 1, 1, 32, 41), (1, 0, 1, 13, 10), (0, -1, 1, -1, -7), (1, -1, 1, -37, -18),
    (0, 1, 1, -48, -22), (0, 0, 0, -46, 42), (0, 0, 1, 19, -22), (1, -1, 0, 0, 36), (1, 1, 1, -43, 44),
    (1, -1, 0, -44, -11), (0, -1, 1, -12, 45), (0, 0, 1, -34, -49), (0, 1, 0, 22, 8), (0, 1, 0, -2, -25),
    (1, -1, 0, 23, 36), (1, 1, 0, 13, -37), (1, 0, 1, -48, -9), (1, 0, 0, -30, -25), (1, 1, 0, -7, 4),
    (0, 0, 0, -2, 20), (1, 1, 1, 48, 18), (0, -1, 0, -40, -33), (0, -1, 0, -16, 47), (1, 1, 1, -3, -7),
    (1, -1, 1, -20, 27), (1, -1, 0, -9, -45), (1, -1, 1, 50, -32), (0, 0, 0, 28, 25), (1, -1, 0, 22, -40),
    (1, 0, 1, 22, 18), (0, 0, 1, -37, 50), (0, 0, 0, 28, 35), (0, -1, 1, -36, -45), (0, -1, 1, -30, -36),
    (1, -1, 0, -30, 45), (0, 0, 1, 19, -13), (1, 1, 1, -10, -38), (0, 1, 1, -45, -47), (0, 0, 1, 7, 0),
    (1, 0, 0, -42, -10), (1, -1, 1, -23, 50), (1, 1, 1, -17, -27), (0, 0, 0, -19, -4), (0, 0, 0, 46, 7),
    (0, 1, 1, -21, -1), (1, -1, 1, -27, -10), (1, -1, 1, -38, 19), (0, -1, 0, -48, -19), (1, -1, 1, 20, -41),
    (0, -1, 0, -13, 46), (1, 0, 1, -31, -38), (1, -1, 0, -28, 49), (0, -1, 1, -11, -37), (1, -1, 0, -32, 19),
    (0, 0, 0, -28, -12), (1, 1, 0, -44, 41), (0, 0, 0, 37, 7), (1, 1, 1, 19, 6), (1, -1, 1, -7, -29),
    (1, 0, 0, 32, 3), (0, -1, 1, 24, -33), (0, -1, 1, -15, 0), (1, -1, 0, -21, 12), (0, -1, 1, 14, 33),
    (1, 1, 0, -20, -10), (1, 1, 1, -22, 41), (1, 0, 1, 32, -22), (0, -1, 1, -30, 15), (0, 0, 1, 38, -12),
]
STATUSES = Path(__file__).resolve().parent / "golden" / "statuses.txt"
STATUS_MARKS = {"pass": "P", "fail": "F", "unsupported": "U"}


@lru_cache(maxsize=None)
def report(coeffs: tuple[int, ...]) -> VerificationReport:
    return run_ledger(WeierstrassCurve(*coeffs), OPTIONS)


def status_table() -> str:
    """One line per curve of CURVES and BOX_CURVES: its computed records' statuses and the overall verdict."""
    lines = []
    for coeffs in CURVES + BOX_CURVES:
        r = report(coeffs)
        marks = " ".join(f"{c.id}:{STATUS_MARKS[c.status]}" for c in r.records if c.method == "computed")
        lines.append(f"{','.join(map(str, coeffs))}  {marks}  -> {r.overall}\n")
    return "".join(lines)


def test_reports_match_pinned_digest():
    h = hashlib.sha256()
    for coeffs in CURVES:
        h.update(emit_report(report(coeffs), "json-text").encode())
    assert h.hexdigest() == DIGEST


def test_statuses_match_the_golden_table():
    golden, table = STATUSES.read_text().splitlines(), status_table().splitlines()
    moved = [f"- {old}\n+ {new}" for old, new in zip(golden, table) if old != new]
    assert len(golden) == len(table) and not moved, "\n".join(moved)
