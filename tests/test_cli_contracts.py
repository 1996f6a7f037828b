"""Every promise of the CLI, one row per command: golden listings byte for byte,
pinned digests, exit codes (0 verified, 1 not verified, 2 refused or not
written), refusals before any work, and models that fail soft.  This table is
the one place a CLI contract is written; other tests check only what no row
can say, such as parse-level defaults and guards that need a monkeypatch.

Tier-1 runs every row from a temporary directory under the row's timeout: a
row that blocks no module in process, through `cli.main`; a row that makes
a module (`mpmath`, `numpy` or `dataclasses`) unimportable in a fresh interpreter.
`PYTHONPATH=src python tests/test_cli_contracts.py` runs each row in a fresh
`python -m ecledger.cli` and names each row that fails; `--regenerate`
rewrites tests/golden/ from the golden rows and the status table of
test_report_digest.py instead (only deliberately, saying why in CHANGES.md).  To add a contract, add a row: its argv is its test id.
"""

import contextlib
import gc
import hashlib
import io
import os
import shlex
import signal
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
    blocks: str | None = None  # the module made unimportable: "mpmath", "numpy" or "dataclasses"

    @property
    def golden(self) -> str | None:
        return self.stdout.removeprefix("golden/") if self.stdout.startswith("golden/") else None

    @property
    def label(self) -> str:
        return f"{self.argv} [no {self.blocks}]" if self.blocks else self.argv


def refused(argv: str, stderr: str) -> Contract:
    """A call the CLI refuses before any work: exit 2, no output, within 10 s."""
    return Contract(argv, 2, "", stderr, timeout=10)


# the largest value each numeric option admits
CAPS = {"--prime-bound": 10**6, "--terms": 10**6, "--padic-digits": 250}


def out_of_range(command: str, flag: str, value) -> Contract:
    cap = CAPS[flag]
    return refused(f"{command} {flag} {value}", f"error: argument {flag}: expected a positive integer up to {cap}, got")


NOT_SMALL_PRIMES = "error: argument --l-list: expected a comma list of primes from 3 to 47, got"
FAST = "--prime-bound 500 --l-list 3 --terms 500 --padic-digits 12"
LARGE_L = "--l-list 11,13,17,19,23,29,31,37,41,43,47"
# the same bytes without mpmath; at 2000 terms no ratio reconstructs for the two large conductors
# (exit 1), but every printed digit of their partial sums lies far above the sums' rounding
_NO_MPMATH = [
    Contract("ledger --format json", 0, "golden/15a1-default.json"),
    Contract("lvalue --curve 1,1,0,39,7 --format json", 1, "golden/526022-lvalue.json"),
    Contract("lvalue --curve 1,-1,0,-47,33 --format json", 1, "golden/3265006-lvalue.json"),
]
# each single-check view of E1 in text, at the FAST flags it takes
_VIEWS = [
    Contract("invariants", 0, "minimal=True"),
    Contract("local", 0, "product=8"),
    Contract("torsion", 0, "structure=Z/2 x Z/4"),
    Contract("image-mod8", 0, "fixed(G)==fixed(H): True"),
    Contract("image-modl --prime-bound 500 --l-list 3", 0, "verdict=surjective"),
    Contract("lvalue --terms 500", 0, "ratio=1/8"),
    Contract("linv --padic-digits 12", 0, "valuation=1"),
]
CONTRACTS = _NO_MPMATH + [row._replace(blocks="mpmath") for row in _NO_MPMATH] + _VIEWS + [
    # numpy counts only the primes above counting.SMALL, and the GL2(F_l) tables
    # use it; E1's and E2's ledgers, and every view of E1, conclude below SMALL
    *[row._replace(blocks="numpy") for row in _VIEWS],
    Contract("ledger --format json", 0, "golden/15a1-default.json", blocks="numpy"),
    # no value class is a dataclass: importing dataclasses and making the classes cost a cold call about 20 ms
    Contract("ledger --format json", 0, "golden/15a1-default.json", blocks="dataclasses"),
    Contract("ledger --curve 1,1,1,-5,2 --format json", 0, "golden/15a3-default.json", blocks="numpy"),
    Contract(f"ledger --curve 1,1,1,-10,-10 {FAST} --format json", 0, "golden/15a1-fast.json"),
    # --format text, the default, is spelled out early, so a report that cuts long ids still tells these two apart
    Contract(f"ledger --curve 1,1,1,-10,-10 --format text {FAST}", 0, "golden/15a1-fast.txt"),
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
    # past the subgroup enumeration: 15a1 and 15a3 are surjective at all 11 l; 121b1 has CM, so no l is
    Contract(f"image-modl {LARGE_L} --format json", 0,
             "sha256:8f810a6cb901edae5c8f5a77d1e66a065dac458b50bdb87a91987d135e89c61e"),
    Contract(f"image-modl --curve 1,1,1,-10,-10 {LARGE_L}", 0,
             "sha256:a66654c3fb240da24ce6b51a9689603b60cab0fb1e115debfab8edcb86d54dca"),
    Contract(f"image-modl --curve 1,1,1,-5,2 {LARGE_L}", 0,
             "sha256:f3b97fc70f51ddb21fdba24affdbb3b99f4508e4b6414cfab26b431be1d17034"),
    Contract(f"image-modl --curve 0,-1,1,-7,10 {LARGE_L}", 1,
             "sha256:ec3bddf27185601292acfde03ceeb908ec86196df26f40558d3ef339bb2032a0"),
    Contract("image-mod8 --curve 1,1,1,-5,2", 1, "skipped: external image data unavailable"),
    Contract("torsion --curve 0,0,0,-22528399544939174411840147874772641,0 --format json", 0, "structure=Z/2 x Z/2"),
    # unsupported local data fails soft: not minimal at 2 (five records unsupported, invariants
    # failing with minimal=False), additive at 2 and 3 (both CM)
    Contract("ledger --curve 0,0,0,-16,0 --format json", 1, "golden/non-minimal-default.json"),
    Contract("image-modl --curve 0,0,0,-16,0 --format json", 1, "verdict=inconclusive"),
    Contract("image-modl --curve 0,0,0,0,1 --format json", 1, "verdict=inconclusive"),
    # a discriminant of small primes times one large prime
    Contract("ledger --curve 0,0,1,1,1000166 --format json", 1, "reduction-432143651940139", timeout=10),
    Contract("local --curve 1,0,1,860258,402266", 0, "N=40744347111572667378", timeout=10),
    # refused before any work, with no output
    *[out_of_range("ledger", flag, value) for flag in CAPS for value in ("0", "-5", "x")],
    *[out_of_range("ledger", flag, value) for flag in ("--terms", "--padic-digits")
      for value in (CAPS[flag] + 1, 100 * CAPS[flag], 10**100)],
    *[out_of_range(view, "--prime-bound", value) for view in ("ledger", "image-modl", "count")
      for value in (CAPS["--prime-bound"] + 1, 10**9)],
    out_of_range("lvalue", "--terms", 10**8),
    out_of_range("linv", "--padic-digits", 100000),
    out_of_range("image-modl", "--prime-bound", 10**8),
    # the 19-digit prime must be refused before any primality test; at l = 2 the certificate raises
    *[refused(f"image-modl --l-list {shlex.quote(value)}", NOT_SMALL_PRIMES)
      for value in ("0", "x", "4", "53", "1000000000000000003", ",", "", "2")],
    refused("ledger --l-list 2,3", NOT_SMALL_PRIMES),
    # a malformed model is refused (2), not read as "not verified" (1)
    *[refused(f"{command} --curve {curve}", "error: argument --curve: ") for command in ("ledger", "count")
      for curve in ("a,b,c,d,e", "1,2,3", "0,0,0,0,0", "0,0,0,1/2,1")],
    # each view takes only the options its checks read; L(E,1) and the period run at a constant 128 bits
    refused("torsion --terms 5", "error: unrecognized arguments: --terms 5"),
    *[refused(f"count --prime-bound 10 {option}", f"error: unrecognized arguments: {option}")
      for option in ("--format json", "--l-list 3", "--terms 500", "--precision-bits 96", "--padic-digits 12")],
    *[refused(f"{command} --precision-bits 128", "error: unrecognized arguments: --precision-bits 128")
      for command in ("lvalue", "ledger")],
    refused("torsion --out /nonexistent/dir/x.json", "error: argument --out: cannot write a file at"),
    *[refused(f"{command} --out ''", "error: argument --out: cannot write a file at ''")
      for command in ("torsion", "count")],
    # a failed write (the parser refuses it where /dev is not writable)
    refused("torsion --out /dev/full", "cannot write"),
]
PARSER_ERRORS = ("error: argument", "unrecognized arguments")


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
    elif any(words in row.stderr for words in PARSER_ERRORS) and not err.startswith("usage: ecledger"):
        problems.append("a parser error that does not begin with the usage line")
    return problems


def run_in_process(row: Contract) -> tuple[int, bytes, str]:
    """`cli.main` on the row's argv; past the row's timeout it raises TimeoutExpired, as a fresh run does."""
    from ecledger.cli import main

    def overrun(signum, frame):
        raise subprocess.TimeoutExpired(row.argv, row.timeout)

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, overrun)
    collecting = gc.isenabled()
    gc.disable()  # an alarm that lands in a collection's callbacks would raise there, and be swallowed
    signal.setitimer(signal.ITIMER_REAL, row.timeout)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(shlex.split(row.argv))
            except SystemExit as stop:
                code = stop.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if collecting:
            gc.enable()
    return code, out.getvalue().encode(), err.getvalue()


def python(args: list[str], timeout: float, cwd: str | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's src/; it writes no bytecode and reads no stdin."""
    path = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))


def run_fresh(row: Contract, cwd: str | None = None) -> tuple[int, bytes, str]:
    blocked = f"import sys; sys.modules[{row.blocks!r}] = None; from ecledger.cli import main; sys.exit(main())"
    done = python([*(["-c", blocked] if row.blocks else ["-m", "ecledger.cli"]), *shlex.split(row.argv)],
                  row.timeout, cwd)
    return done.returncode, done.stdout, done.stderr.decode()


def problems(row: Contract, run) -> list[str]:
    """What a run of the row broke, a run past its timeout included."""
    try:
        return broken(row, *run(row))
    except subprocess.TimeoutExpired:
        return [f"no exit within its timeout of {row.timeout} s"]


@pytest.mark.parametrize("row", CONTRACTS, ids=lambda row: row.label)
def test_contract(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert problems(row, run_fresh if row.blocks else run_in_process) == []


def test_an_in_process_row_fails_at_its_timeout():
    row = next(row for row in CONTRACTS if row.argv == "count --curve 0,-1,1,-10,-20 --prime-bound 1000000")
    assert problems(row._replace(timeout=0.05), run_in_process) == ["no exit within its timeout of 0.05 s"]


def test_importing_the_cli_loads_neither_numpy_nor_mpmath():
    # every CLI call pays its import: numpy's alone costs about 0.1 s, and dataclasses
    # with the inspect it loads about 8 ms, which no value class of the package needs
    done = python(["-c", "import sys, ecledger.cli; "
                         "print(sorted({'numpy', 'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))"], 30)
    assert (done.returncode, done.stdout) == (0, b"[]\n"), done.stderr.decode()


def test_a_default_e1_ledger_never_imports_numpy():
    # its checks conclude on the primes to counting.SMALL, which pure Python counts
    done = python(["-c", "import sys; from ecledger import E1, run_ledger; run_ledger(E1); "
                         "print('numpy' in sys.modules)"], 30)
    assert (done.returncode, done.stdout) == (0, b"False\n"), done.stderr.decode()


def main(argv: list[str]) -> int:
    if argv == ["--regenerate"]:
        from test_report_digest import STATUSES, status_table

        for row in CONTRACTS:
            if row.golden and row.blocks is None:
                (TESTS / row.stdout).write_bytes(run_in_process(row)[1])
        STATUSES.write_text(status_table())
        return 0
    failed = 0
    with tempfile.TemporaryDirectory() as cwd:
        for row in CONTRACTS:
            start = time.perf_counter()
            found = problems(row, lambda row: run_fresh(row, cwd))
            failed += bool(found)
            print(f"{'FAIL' if found else 'ok':4} {time.perf_counter() - start:5.2f} s  {row.label}", *found,
                  sep="\n      ")
    print(f"{len(CONTRACTS) - failed} of {len(CONTRACTS)} rows kept their contract")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
