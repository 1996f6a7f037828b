"""Planted faults: each row changes one exact text of the program, and the tests it names must then fail.

    python tests/mutations.py

runs every row from a clean checkout.  For each row it copies src/ and
tests/ into a temporary directory, replaces the row's old text in its module
(the old text must occur there exactly once), and runs the row's tests there
under ``pytest -x``; the row holds when they fail.  A row with no tests is an
equivalent fault, one no test can tell from the program, and its reason says
why; the runner checks that it applies and runs nothing.  The run writes
nothing into the checkout and exits 1 if a fault survives its tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    name: str
    module: str  # under src/ecledger, without .py
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, any one of which must fail; none for an equivalent fault
    reason: str


SMALL_KERNEL = "tests/test_counting.py::test_small_prime_kernel_against_the_naive_count"
ONE_CALL = "tests/test_counting.py::test_counted_traces_match_the_naive_oracle_in_one_call"
VALUES = "tests/test_value_classes.py::test_value_classes_are_frozen_and_equal_values_hash_alike"
CITED_CHECK = 'if (status == "cited") != (method == "cited"):'

MUTATIONS = (
    Mutation("small-chi-of-zero", "counting", "    chi[0] = 0\n    return tuple(chi)", "    return tuple(chi)",
             (SMALL_KERNEL,),
             "chi(0) must be 0: a root of f mod p gives one point, and chi(0) = -1 counts none"),
    Mutation("numpy-chi-of-zero", "counting", "    chi[0] = 0\n    total = 0", "    total = 0", (ONE_CALL,),
             "the same chi(0) in the numpy kernel, which counts the odd primes above SMALL"),
    Mutation("small-squares-one-short", "counting", "for x in range(1, p // 2 + 1):", "for x in range(1, p // 2):",
             (SMALL_KERNEL,),
             "the squares of 1 .. (p - 1)/2 are every non-zero square; one short reads a square as a non-square"),
    Mutation("numpy-squares-one-short", "counting", "min(lo + CHARACTER_BLOCK, p // 2 + 1)",
             "min(lo + CHARACTER_BLOCK, p // 2)", (ONE_CALL,),
             "the same square loop in the numpy kernel"),
    Mutation("trace-at-two", "counting", "[3 - count_points_naive(C, 2), *traces]",
             "[2 - count_points_naive(C, 2), *traces]", (ONE_CALL,),
             "a_2 = 2 + 1 - #E(F_2), from the brute-force count at p = 2"),
    Mutation("numpy-below-the-cut", "counting", "small = bisect_right(odd, SMALL)", "small = bisect_right(odd, 2)",
             ("tests/test_cli_contracts.py::test_a_default_e1_ledger_never_imports_numpy",),
             "every odd prime in numpy gives the same traces, but a ledger that reads only primes up to SMALL "
             "then imports numpy"),
    Mutation("cut-bisect-left", "counting", "small = bisect_right(odd, SMALL)", "small = bisect_left(odd, SMALL)",
             (), "equivalent: SMALL = 128 is not prime, so no odd prime equals it and both bisections cut alike"),
    Mutation("small-hasse-bound", "counting", "        if ap * ap > 4 * p:", "        if ap * ap > p * p:",
             ("tests/test_counting.py::test_sweep_asserts_the_hasse_bound",),
             "the Hasse bound on the traces up to SMALL is a_p^2 <= 4p; |a_p| <= p lets a wrong trace through"),
    Mutation("swept-hasse-bound", "counting", "bad = np.flatnonzero(ap * ap > 4 * p)",
             "bad = np.flatnonzero(ap * ap > p * p)",
             ("tests/test_counting.py::test_the_pass_above_small_asserts_the_hasse_bound",),
             "the same bound on the traces of the pass above SMALL"),
    Mutation("torsion-twist-count", "torsion", "n = math.gcd(n, p + 1 - traces[p])",
             "n = math.gcd(n, p + 1 + traces[p])",
             ("tests/test_torsion.py::test_gcd_primes_name_the_point_counts_that_proved_the_group_trivial",
              "tests/test_torsion.py::test_point_count_gcd_returns_what_the_full_search_finds"),
             "#E(F_p) = p + 1 - a_p; p + 1 + a_p counts the quadratic twist, whose gcd can be 1 over non-trivial "
             "torsion"),
    Mutation("torsion-without-counts", "ledger", "torsion_subgroup(self.C, self.traces(GCD_PRIMES[-1]))",
             "torsion_subgroup(self.C, {})", ("tests/test_report_digest.py::test_reports_match_pinned_digest",),
             "the search finds the same group, but a trivial group's record names the gcd primes that proved it"),
    Mutation("curve-bool-coefficient", "curve", "type(a) is int for a in coefficients",
             "isinstance(a, int) for a in coefficients",
             ("tests/test_curve.py::test_non_integer_coefficients_are_rejected",),
             "a bool is an int to isinstance, and a curve with a coefficient True would print it as True"),
    Mutation("curve-replace-skips-new", "curve",
             "    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks as __new__ does\n", "",
             ("tests/test_value_classes.py::test_replace_checks_as_the_constructor_does",),
             "namedtuple's own _make builds the tuple without __new__, so _replace would skip the check "
             "and the invariants"),
    Mutation("padic-unit-unreduced", "padic", "        unit %= p**prec\n", "", (VALUES,),
             "the unit is known mod p^prec only: kept unreduced, two equal numbers compare unequal"),
    Mutation("padic-prime-check", "padic", "        if not is_prime(p):", "        if p < 2:",
             ("tests/test_padic.py::test_padic_numbers_refuse_what_they_cannot_be",),
             "a p-adic number needs a prime p; 4 must be refused"),
    Mutation("record-cited-one-way", "ledger", CITED_CHECK, 'if status == "cited" != method:',
             ("tests/test_ledger.py::test_checkrecord_invariant_enforced",),
             "a cited method with a status other than cited must be refused too, not only the converse"),
    Mutation("record-check-asserted", "ledger", CITED_CHECK, f"if __debug__ and {CITED_CHECK.removeprefix('if ')}",
             ("tests/test_ledger.py::test_checkrecord_invariant_survives_python_O",),
             "a check that python -O strips, as it strips an assert, lets report_from_json build a record "
             "that contradicts itself"),
    Mutation("torsion-equality-reads-gcd-primes", "torsion", "and self[:4] == other[:4]",
             "and tuple(self) == tuple(other)",
             ("tests/test_torsion.py::test_point_count_gcd_returns_what_the_full_search_finds", VALUES),
             "gcd_primes records how the group was found: groups found by the gcd and by the search are equal"),
    Mutation("torsion-hash-reads-gcd-primes", "torsion", "return hash(self[:4])", "return hash(tuple(self))",
             (VALUES,), "equal groups must hash alike, so the hash skips gcd_primes as equality does"),
    Mutation("torsion-inequality-reads-gcd-primes", "torsion", "return not self == other",
             "return tuple(self) != tuple(other)", (VALUES,),
             "tuple's own != reads every field, so != must be the negation of the four-field =="),
)


def planted(row: Mutation, text: str) -> str:
    """text with the row's old text, which must occur exactly once, replaced by its new text."""
    count = text.count(row.old)
    if count != 1:
        raise ValueError(f"{row.name}: the old text occurs {count} times in {row.module}.py")
    return text.replace(row.old, row.new)


def survives(row: Mutation) -> bool:
    """Whether the row's tests all pass on a copy of the program with the row's fault planted."""
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__"))
        module = Path(tmp, "src", "ecledger", f"{row.module}.py")
        module.write_text(planted(row, module.read_text()))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp, "hypothesis")))
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *row.tests],
                              cwd=tmp, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    if done.returncode not in (0, 1):  # 0: every test passed; 1: one failed; else pytest could not run them
        raise RuntimeError(f"{row.name}: pytest exited {done.returncode}\n{done.stdout.decode()}")
    return done.returncode == 0


def main() -> int:
    survived = 0
    for row in MUTATIONS:
        start = time.perf_counter()
        if not row.tests:
            planted(row, (ROOT / "src" / "ecledger" / f"{row.module}.py").read_text())
            verdict = "equivalent"
        elif survives(row):
            verdict, survived = "SURVIVED", survived + 1
        else:
            verdict = "caught"
        print(f"{verdict:<10} {time.perf_counter() - start:5.1f} s  {row.name}: {row.reason}", flush=True)
    print(f"{survived} of {sum(1 for row in MUTATIONS if row.tests)} planted faults survived their tests")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
