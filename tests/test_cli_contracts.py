"""Every promise of the CLI, one row per command: golden listings byte for byte,
pinned digests, exit codes (0 verified, 1 not verified, 2 refused or not
written), caps that refuse at once, and models that fail soft.

Tier-1 runs the rows that block no module in process, through `cli.main`.
`PYTHONPATH=src python tests/test_cli_contracts.py` runs each row in a fresh
`python -m ecledger.cli` under its timeout, from a temporary directory, and
names each row that fails; `--regenerate` rewrites tests/golden/ from the
golden rows instead (only deliberately, saying why in CHANGES.md).
"""

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest

TESTS = Path(__file__).resolve().parent


class Contract(NamedTuple):
    argv: str  # after `ecledger`, split as by a shell
    code: int
    stdout: str  # "golden/NAME" (a file under tests/), "sha256:HEX", a substring, or "" for none
    stderr: str = ""  # a substring, or "" for none; a traceback always fails
    timeout: float = 60  # seconds, a fresh interpreter included
    blocks: str | None = None  # the module made unimportable: "mpmath" or "numpy"

    @property
    def golden(self) -> str | None:
        return self.stdout.removeprefix("golden/") if self.stdout.startswith("golden/") else None


FAST = "--prime-bound 500 --l-list 3 --terms 500 --padic-digits 12"
CAP = "expected a positive integer up to"
# the same bytes without mpmath; at 2000 terms no ratio reconstructs for the two large conductors
# (exit 1), but every printed digit of their partial sums lies far above the sums' rounding
_NO_MPMATH = [
    Contract("ledger --format json", 0, "golden/15a1-default.json"),
    Contract("lvalue --curve 1,1,0,39,7 --format json", 1, "golden/526022-lvalue.json"),
    Contract("lvalue --curve 1,-1,0,-47,33 --format json", 1, "golden/3265006-lvalue.json"),
]
CONTRACTS = _NO_MPMATH + [row._replace(blocks="mpmath") for row in _NO_MPMATH] + [
    Contract(f"ledger --curve 1,1,1,-10,-10 {FAST} --format json", 0, "golden/15a1-fast.json"),
    Contract(f"ledger --curve 1,1,1,-10,-10 {FAST}", 0, "golden/15a1-fast.txt"),
    Contract("ledger --curve 1,1,1,-5,2 --format json", 0, "golden/15a3-default.json"),
    Contract(f"ledger --curve 1,1,1,-5,2 {FAST} --format json", 0, "golden/15a3-fast.json"),
    Contract(f"ledger --curve 0,-1,1,-10,-20 {FAST} --format json", 1, "golden/11a1-fast.json"),
    Contract(f"ledger --curve 1,0,1,4,-6 {FAST} --format json", 1, "golden/14a1-fast.json"),  # a 3-isogeny
    Contract(f"ledger --curve 0,0,1,-1,0 {FAST} --format json", 1, "golden/37a1-fast.json"),
    Contract(f"ledger --curve 0,0,0,0,1 {FAST} --format json", 1, "golden/additive-fast.json"),
    # split at 71 with v(j) = -1, the longest Tate-parameter run at the cap; split at a 15-digit prime
    Contract("linv --curve 1,-1,0,-47,33 --padic-digits 250 --format json", 0, "golden/3265006-linv250.json", timeout=10),
    Contract("linv --curve 0,0,1,1,1000166 --padic-digits 60 --format json", 0, "golden/1000166-linv60.json", timeout=30),
    Contract("count --prime-bound 200", 0, "golden/15a1-count.txt"),
    Contract("count --curve 0,-1,1,-10,-20 --prime-bound 200", 0, "golden/11a1-count.txt"),
    Contract("count --prime-bound 100000", 0, "sha256:926e09c57e94dad1ec37205d85305907e8189ff9dde57701dcb4b1b97234bf14"),
    Contract("count --curve 0,-1,1,-10,-20 --prime-bound 1000000", 0,  # the cap, past the int32 range
             "sha256:fd5b19e9da7603a401137b78c80910ab91fc7ea9f8d698d6d080a5efe522f01b"),
    # root number -1 gives L(E,1) = 0 with no point count
    Contract("lvalue --curve 0,0,1,-1,0 --format json", 0, '"status": "pass"', blocks="numpy"),
    Contract("image-modl --l-list 11,13,17,19,23,29,31,37,41,43,47 --format json", 0, "certified at l = 47"),
    Contract("torsion --curve 0,0,0,-22528399544939174411840147874772641,0 --format json", 0, "structure=Z/2 x Z/2"),
    # unsupported local data fails soft: not minimal at 2, additive at 2 and 3 (both CM)
    Contract("ledger --curve 0,0,0,-16,0 --format json", 1, "minimality certificate fails at 2"),
    Contract("image-modl --curve 0,0,0,-16,0 --format json", 1, "verdict=inconclusive"),
    Contract("image-modl --curve 0,0,0,0,1 --format json", 1, "verdict=inconclusive"),
    # a discriminant of small primes times one large prime
    Contract("ledger --curve 0,0,1,1,1000166 --format json", 1, "reduction-432143651940139", timeout=10),
    Contract("local --curve 1,0,1,860258,402266", 0, "N=40744347111572667378", timeout=10),
    # refused before any work, with no output
    Contract("torsion --terms 5", 2, "", "unrecognized arguments: --terms 5"),
    Contract("torsion --out /nonexistent/dir/x.json", 2, "", "error: argument --out: cannot write a file at"),
    Contract("torsion --out ''", 2, "", "usage: ecledger"),
    Contract("ledger --curve 0,0,0,1/2,1", 2, "", "usage: ecledger"),
    Contract("lvalue --terms 100000000", 2, "", f"error: argument --terms: {CAP}", timeout=10),
    Contract("linv --padic-digits 100000", 2, "", f"error: argument --padic-digits: {CAP}", timeout=10),
    Contract("count --prime-bound 1000000000", 2, "", f"error: argument --prime-bound: {CAP}", timeout=10),
    Contract("image-modl --prime-bound 100000000", 2, "", f"error: argument --prime-bound: {CAP}", timeout=10),
    # the certificate raises at l = 2, so the parser refuses it first
    Contract("image-modl --l-list 2", 2, "", "usage: ecledger", timeout=10),
    Contract("ledger --l-list 2,3", 2, "", "usage: ecledger", timeout=10),
    # L(E,1) and the period run at a constant 128 bits
    Contract("lvalue --precision-bits 128", 2, "", "error: unrecognized arguments: --precision-bits 128"),
    # a failed write (the parser refuses it where /dev is not writable)
    Contract("torsion --out /dev/full", 2, "", "cannot write"),
]


def broken(row: Contract, code: int, out: bytes, err: str) -> list[str]:
    """The parts of its contract a run of the row broke; empty if it kept it."""
    if row.golden:
        kept = out == (TESTS / row.stdout).read_bytes()
    elif row.stdout.startswith("sha256:"):
        kept = hashlib.sha256(out).hexdigest() == row.stdout.removeprefix("sha256:")
    else:
        kept = row.stdout in out.decode() if row.stdout else not out
    problems = [] if code == row.code else [f"exit {code}, expected {row.code}"]
    if not kept:
        problems.append(f"stdout does not match {row.stdout or 'empty'}")
    if "Traceback" in err or (row.stderr not in err if row.stderr else err):
        problems.append(f"stderr: {err[-400:]!r}")
    return problems


def run_in_process(row: Contract) -> tuple[int, bytes, str]:
    from ecledger.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(row.argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue().encode(), err.getvalue()


def python(args: list[str], timeout: float, cwd: str | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's src/; it writes no bytecode and reads no stdin."""
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))


def run_fresh(row: Contract, cwd: str) -> tuple[int, bytes, str]:
    blocked = f"import sys; sys.modules[{row.blocks!r}] = None; from ecledger.cli import main; sys.exit(main())"
    done = python([*(["-c", blocked] if row.blocks else ["-m", "ecledger.cli"]), *shlex.split(row.argv)],
                  row.timeout, cwd)
    return done.returncode, done.stdout, done.stderr.decode()


# the golden rows run in test_ledger.py, under the names their tests had before this table
@pytest.mark.parametrize("row", [row for row in CONTRACTS if not row.blocks and not row.golden], ids=lambda row: row.argv)
def test_contract(row):
    assert broken(row, *run_in_process(row)) == []


def main(argv: list[str]) -> int:
    if argv == ["--regenerate"]:
        for row in CONTRACTS:
            if row.golden and row.blocks is None:
                (TESTS / row.stdout).write_bytes(run_in_process(row)[1])
        return 0
    failed = 0
    with tempfile.TemporaryDirectory() as cwd:
        for row in CONTRACTS:
            start = time.perf_counter()
            try:
                problems = broken(row, *run_fresh(row, cwd))
            except subprocess.TimeoutExpired:
                problems = [f"no exit within its timeout of {row.timeout} s"]
            failed += bool(problems)
            label = f"{row.argv}  [no {row.blocks}]" if row.blocks else row.argv
            print(f"{'FAIL' if problems else 'ok':4} {time.perf_counter() - start:5.2f} s  {label}", *problems,
                  sep="\n      ")
    print(f"{len(CONTRACTS) - failed} of {len(CONTRACTS)} rows kept their contract")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
