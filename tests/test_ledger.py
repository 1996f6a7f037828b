import errno
import json
import os
import re
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from ecledger import arith, cli, galois_image, ledger, local_data, lvalue, padic, torsion
from ecledger.cli import main
from ecledger.counting import frobenius_table
from ecledger.curve import E1, E2, WeierstrassCurve, curve_from_string
from ecledger.ledger import (CITED_DEPENDENCIES, VERIFIED, CheckRecord, LedgerOptions, VerificationReport,
                             emit_report, report_from_json, run_ledger)
from test_cli_contracts import python
from test_counting import seeded_models

# The CLI's contracts (goldens, exit codes, refusals) are rows of tests/test_cli_contracts.py;
# these tests check what no row can: the report objects run_ledger builds, parse-level values,
# monkeypatched guards, oracles over the ledger.
FAST = LedgerOptions(prime_bound=500, l_list=(3,), terms=500, padic_digits=12)

EXPECTED_E1_IDS = ["invariants", "reduction-3", "reduction-5", "conductor", "tamagawa-product", "torsion",
                   "isogeny-degree-2", "mod8-order", "mod8-det-subgroup", "mod8-fixed-points", "surjectivity-l3",
                   "surjectivity-l5", "surjectivity-l7", "surjectivity-residual", "ordinary-criterion",
                   "lvalue-ratio", "linv-5"] + [rid for rid, _ in CITED_DEPENDENCIES]


@pytest.fixture(scope="module")
def e1_report():
    return run_ledger(E1, LedgerOptions(prime_bound=1000))


def test_e1_overall_verified(e1_report):
    assert e1_report.overall == VERIFIED


def test_e1_record_ids_complete(e1_report):
    assert [r.id for r in e1_report.records] == EXPECTED_E1_IDS


def test_cited_records_exactly_once(e1_report):
    cited = [r for r in e1_report.records if r.method == "cited"]
    ids = [r.id for r in cited]
    assert len(ids) == len(set(ids))
    assert {rid for rid, _ in CITED_DEPENDENCIES} <= set(ids)
    for r in cited:
        assert r.status == "cited"


def test_status_method_invariant(e1_report):
    for r in e1_report.records:
        assert (r.status == "cited") == (r.method == "cited")
        if r.method == "computed":
            assert r.status in ("pass", "fail", "unsupported")


def test_key_results_recorded(e1_report):
    assert "product=8" in e1_report.record("tamagawa-product").result
    assert "structure=Z/2 x Z/4" in e1_report.record("torsion").result
    assert "ratio=1/8" in e1_report.record("lvalue-ratio").result
    assert "|G|=16" in e1_report.record("mod8-order").result
    assert "fixed(G)==fixed(H): True" in e1_report.record("mod8-fixed-points").result
    assert "valuation=1" in e1_report.record("linv-5").result
    assert "kernel=(-13/4,9/8)" in e1_report.record("isogeny-degree-2").result


def test_json_emission_deterministic():
    a = emit_report(run_ledger(E1, FAST), "json-text")
    b = emit_report(run_ledger(E1, FAST), "json-text")
    assert a == b
    assert a.encode() == b.encode()


def test_json_roundtrip(e1_report):
    text = emit_report(e1_report, "json-text")
    back = report_from_json(text)
    assert back == e1_report
    assert back.overall == e1_report.overall
    json.loads(text)  # valid JSON


def test_human_text_one_line_per_record(e1_report):
    text = emit_report(e1_report, "human-text")
    for r in e1_report.records:
        assert any(r.claim in line for line in text.splitlines())
    assert f"overall: {VERIFIED}" in text


def test_e2_ledger_verifies(fast_ledgers):
    report = fast_ledgers[E2]
    assert report.overall == VERIFIED
    assert "structure=Z/2 x Z/4" in report.record("torsion").result
    assert report.record("mod8-order").status == "unsupported"
    assert "skipped: external image data unavailable" in report.record("mod8-order").result


def test_non_minimal_model_marked_unsupported():
    # y^2 = x^3 - 16x is not minimal at 2; the ledger ended in a DomainError traceback
    report = run_ledger(WeierstrassCurve(0, 0, 0, -16, 0), FAST)
    for rid in ("reduction-2", "conductor", "tamagawa-product", "lvalue-ratio", "linv"):
        assert report.record(rid).status == "unsupported"
        assert "minimality certificate fails at 2" in report.record(rid).result
    assert report.record("invariants").status == "fail"
    assert "minimal=False" in report.record("invariants").result


def test_additive_curve_marked_unsupported():
    report = run_ledger(WeierstrassCurve(0, 0, 0, 0, 1), FAST)
    unsupported = {r.id for r in report.records if r.status == "unsupported"}
    assert {"reduction-2", "reduction-3", "conductor", "tamagawa-product", "lvalue-ratio"} <= unsupported


def test_checkrecord_invariant_enforced():
    with pytest.raises(AssertionError):
        CheckRecord("x", "claim", "cited", "none", "oops", "pass")


def test_checkrecord_invariant_survives_python_O():
    # python -O strips assert statements, and report_from_json builds records from outside input
    code = ("import sys\nfrom ecledger.ledger import CheckRecord\n"
            "try:\n    CheckRecord('x', 'claim', 'cited', 'none', 'oops', 'pass')\n"
            "except AssertionError:\n    print(sys.flags.optimize, 'refused')\n")
    done = python(["-O", "-c", code], 30)
    assert (done.returncode, done.stdout) == (0, b"1 refused\n"), done.stderr.decode()


def test_isogeny_record_fails_where_no_kernel_reaches_the_target(monkeypatch):
    monkeypatch.setitem(ledger.PAPER_EXPECTATIONS[E1.coefficients()], "isogeny-degree-2", (None, E1))
    record = run_ledger(E1, FAST, checks=("isogeny-degree-2",)).record("isogeny-degree-2")
    assert (record.status, record.result) == ("fail", "no kernel reaches (1, 1, 1, -10, -10)")


def test_ledger_and_report_refuse_unknown_names():
    with pytest.raises(ValueError, match="unknown checks"):
        run_ledger(E1, checks=("nope",))
    report = run_ledger(E1, FAST, checks=("isogeny-degree-2",))
    with pytest.raises(ValueError, match="unknown format"):
        emit_report(report, "xml")
    with pytest.raises(KeyError):
        report.record("nope")


@pytest.mark.parametrize("flag, cap", [("--terms", cli.TERMS_CAP), ("--padic-digits", cli.DIGITS_CAP)])
def test_cli_series_options_stop_at_their_caps(flag, cap):
    # each cap bounds the run time of the views that read the option; the
    # contract rows refuse one above it, and every value the suites and the
    # golden reports use is admitted
    field = flag[2:].replace("-", "_")
    assert getattr(cli._build_parser().parse_args(["ledger", flag, str(cap)]), field) == cap
    assert max(getattr(opts, field) for opts in (LedgerOptions(), FAST)) <= cap


@pytest.mark.parametrize("view", ["ledger", "image-modl", "count"])
def test_cli_prime_bound_stops_at_its_cap(view):
    # at the cap a sweep takes a few seconds; far above it, minutes to hours
    cap = cli.PRIME_BOUND_CAP
    assert cli._build_parser().parse_args([view, "--prime-bound", str(cap)]).prime_bound == cap
    assert max(opts.prime_bound for opts in (LedgerOptions(), FAST)) <= cap


def test_cli_l_list_reads_the_certificate_cap(monkeypatch):
    parse = cli._build_parser().parse_args
    assert parse(["ledger", "--l-list", "7,3,3, 5"]).l_list == (3, 5, 7)
    assert parse(["ledger", "--l-list", "47,11"]).l_list == (11, 47)
    monkeypatch.setattr(cli, "CERTIFICATE_L_CAP", 5)
    with pytest.raises(SystemExit):
        parse(["ledger", "--l-list", "3,7"])


def _forbid_work(monkeypatch):
    monkeypatch.setattr(cli, "run_ledger", lambda *args: pytest.fail("a check ran"))
    monkeypatch.setattr(cli, "frobenius_table", lambda *args: pytest.fail("the sweep ran"))


@pytest.mark.parametrize("command", ["torsion", "count"])
@pytest.mark.parametrize("where", ["missing/x.json", "."], ids=["missing-folder", "a-folder"])
def test_cli_rejects_an_out_path_it_cannot_write(command, where, tmp_path, monkeypatch, capsys):
    # a missing folder ended in a FileNotFoundError traceback and exit 1, the
    # code for "not verified", after the check had run
    _forbid_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / where)])
    assert exc.value.code == 2
    assert "argument --out: cannot write a file at" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["torsion", "count"])
def test_cli_rejects_an_empty_out_path(command, monkeypatch):
    # the contract rows pin the refusal's words; here, that no check ran first
    _forbid_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", ""])
    assert exc.value.code == 2


def test_cli_output_that_cannot_be_written_exits_2(monkeypatch, capsys):
    # a full device ended in an OSError traceback and exit 1, the code for "not verified"
    def full(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys.stdout, "write", full)
    with pytest.raises(SystemExit) as exc:
        main(["torsion"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "ecledger: error: cannot write 'stdout': No space left on device\n"


def test_cli_ledger_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["ledger", "--curve", "1,1,1,-10,-10", "--prime-bound", "500", "--l-list", "3", "--terms", "500",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["overall"] == VERIFIED
    # a curve whose mod-3 image is genuinely proper fails certification
    code = main(["ledger", "--curve", "0,-1,1,-10,-20", "--prime-bound", "500", "--l-list", "5", "--terms", "500",
                 "--format", "json", "--out", str(out)])
    assert code == 1


def test_cli_defaults_are_the_ledger_defaults():
    assert cli._options(cli._build_parser().parse_args(["ledger"])) == LedgerOptions()


# FAST as command-line flags, by LedgerOptions field.
FAST_FLAGS = {"prime_bound": ["--prime-bound", "500"], "l_list": ["--l-list", "3"], "terms": ["--terms", "500"],
              "padic_digits": ["--padic-digits", "12"]}
# The LedgerOptions fields each subcommand takes: those its checks read.
VIEW_OPTIONS = {
    "ledger": tuple(FAST_FLAGS),
    "invariants": (),
    "local": (),
    "torsion": (),
    "image-mod8": (),
    "image-modl": ("prime_bound", "l_list"),
    "lvalue": ("terms",),
    "linv": ("padic_digits",),
}


def _view_flags(command: str) -> list[str]:
    return [arg for field in VIEW_OPTIONS[command] for arg in FAST_FLAGS[field]]


# The records each single-check subcommand prints for 15a1 and 15a3 at FAST.
VIEW_IDS = {
    "invariants": {"invariants"},
    "local": {"reduction-3", "reduction-5", "conductor", "tamagawa-product"},
    "torsion": {"torsion"},
    "image-mod8": {"mod8-order", "mod8-det-subgroup", "mod8-fixed-points"},
    "image-modl": {"surjectivity-l3", "surjectivity-residual"},
    "lvalue": {"lvalue-ratio"},
    "linv": {"linv-5"},
}


@pytest.fixture(scope="module")
def fast_ledgers():
    return {C: run_ledger(C, FAST) for C in (E1, E2)}


@pytest.mark.parametrize("command", sorted(VIEW_IDS))
@pytest.mark.parametrize("curve", [E1, E2], ids=["15a1", "15a3"])
def test_view_prints_the_ledgers_records(command, curve, fast_ledgers, tmp_path):
    out = tmp_path / "view.json"
    coeffs = ",".join(map(str, curve.coefficients()))
    code = main([command, "--curve", coeffs, *_view_flags(command), "--format", "json", "--out", str(out)])
    text = out.read_text()
    assert emit_report(report_from_json(text), "json-text") == text
    full = fast_ledgers[curve]
    selected = tuple(r for r in full.records if r.id in VIEW_IDS[command])
    assert text == emit_report(VerificationReport(full.curve, full.version, selected), "json-text")
    statuses = {r.status for r in selected}
    assert code == (0 if "pass" in statuses and "fail" not in statuses else 1)
    assert code == (1 if (curve, command) == (E2, "image-mod8") else 0)


@pytest.mark.parametrize("coeffs", ["0,0,0,-16,0", "0,0,0,0,1"], ids=["not-minimal-at-2", "additive-at-2-and-3"])
def test_image_modl_view_reads_unsupported_local_data(coeffs, capsys):
    # the certificates take their bad primes from the run's local data, which
    # holds every bad prime even where the reduction type is unsupported
    code = main(["image-modl", "--curve", coeffs, *_view_flags("image-modl"), "--format", "json"])
    full = run_ledger(curve_from_string(coeffs), FAST)
    selected = tuple(r for r in full.records if r.id.startswith("surjectivity-"))
    assert code == 1
    assert capsys.readouterr().out == emit_report(VerificationReport(full.curve, full.version, selected), "json-text")


def test_view_options_cover_every_view():
    assert set(VIEW_OPTIONS) == set(cli.VIEWS)


@pytest.mark.parametrize("command", sorted(VIEW_OPTIONS))
def test_cli_view_takes_only_the_options_its_checks_read(command, capsys):
    # every view took all the ledger options and dropped those its checks never read
    parse = cli._build_parser().parse_args
    for field, flag in FAST_FLAGS.items():
        if field in VIEW_OPTIONS[command]:
            assert getattr(parse([command, *flag]), field) == getattr(FAST, field)
            continue
        with pytest.raises(SystemExit) as exc:
            parse([command, "--curve", "1,1,1,-5,2", "--format", "json", "--out", "x", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


UNREAD = LedgerOptions(prime_bound=200, l_list=(5,), terms=300, padic_digits=5)


@pytest.mark.parametrize("command", sorted(set(VIEW_OPTIONS) - {"ledger"}))  # ledger takes every field
@pytest.mark.parametrize("curve", [E1, E2], ids=["15a1", "15a3"])
def test_view_records_ignore_the_options_it_does_not_take(command, curve):
    # the oracle for the parser: changing every field a view does not take
    # leaves its records as they are, so dropping those flags loses nothing
    checks = cli.VIEWS[command][1]
    unread = {f: getattr(UNREAD, f) for f in FAST_FLAGS if f not in VIEW_OPTIONS[command]}
    assert run_ledger(curve, FAST._replace(**unread), checks) == run_ledger(curve, FAST, checks)


@pytest.mark.parametrize("argv", [["torsion"], ["lvalue", "--terms", "500"], ["ledger"], ["image-modl"]])
def test_views_skip_subgroup_enumeration(argv, monkeypatch, capsys):
    def forbidden(l):
        raise AssertionError(f"enumerated the subgroups of GL2(F_{l})")

    # the certificates need neither the class list nor the GL2(F_l) tables
    monkeypatch.setattr(galois_image, "enumerate_subgroups_gl2", forbidden)
    monkeypatch.setattr(galois_image, "_GL2Tables", forbidden)
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_shared_facts_computed_once_per_ledger(monkeypatch):
    calls = []

    def count(fn):
        def wrapper(C, *args):
            calls.append((fn.__name__, *(dict(a) if isinstance(a, Mapping) else a for a in args)))
            return fn(C, *args)

        # every module binding, so a call through any import is seen
        for module in (ledger, local_data, lvalue, padic, torsion):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)

    for fn in (local_data.bad_primes, local_data.reduction_type, local_data.kodaira_and_tamagawa,
               torsion.torsion_subgroup):
        count(fn)
    arith.factorize.cache_clear()
    run_ledger(E1, FAST)
    # one trial division of the discriminant, however many checks read its
    # factorisation; a reduction type per bad prime, plus the Tate parameter's
    # own guard at the split prime 5; the L-value layer reads the ledger's
    # local data and derives none of it; torsion reads the run's Frobenius
    # table to 29, a copy of it here since the run's table grows
    assert arith.factorize.cache_info().misses == 1
    assert sorted(calls) == [
        ("bad_primes",), ("kodaira_and_tamagawa", 3), ("kodaira_and_tamagawa", 5),
        ("reduction_type", 3), ("reduction_type", 5), ("reduction_type", 5),
        ("torsion_subgroup", frobenius_table(E1, 29)),
    ]


def test_factorisation_and_primality_caches_stay_bounded():
    # a process that runs ledger after ledger keeps the latest entries only
    arith.factorize.cache_clear()
    arith.is_prime.cache_clear()
    small = LedgerOptions(prime_bound=200, l_list=(3,), terms=50, padic_digits=6)
    for C in seeded_models(3, 400):
        run_ledger(C, small)
    for cached in (arith.factorize, arith.is_prime):
        info = cached.cache_info()
        assert info.currsize <= info.maxsize < info.misses


def test_linv_zero_to_working_precision_prints_a_bound():
    # log(q) of this curve at 2 is 4 times a unit, so two digits of q give O(2^2)
    records = run_ledger(WeierstrassCurve(1, 1, 1, 4, 7), LedgerOptions(padic_digits=2), ("linv",)).records
    linv2 = next(r for r in records if r.id == "linv-2")
    assert "L-invariant=O(2^2) valuation>=2 " in linv2.result


def test_lvalue_ratio_without_a_tail_bound_is_unsupported():
    # N = 2 * 1523: two terms of the series bound nothing, so no partial sum
    # may be printed as L(E,1); two hundred terms do
    C = WeierstrassCurve(1, 0, 1, -6, -4)
    short = run_ledger(C, LedgerOptions(terms=2), ("lvalue-ratio",)).record("lvalue-ratio")
    assert short.status == "unsupported"
    assert short.result.startswith("terms too few for N=3046: at 2 terms ")
    assert "L(E,1)=" not in short.result
    enough = run_ledger(C, LedgerOptions(terms=200), ("lvalue-ratio",)).record("lvalue-ratio")
    assert enough.status == "pass" and enough.result.startswith("L(E,1)=")


def test_no_curve_equality_branches():
    # Paper expectations live in ledger.PAPER_EXPECTATIONS, not in code.
    for module in (ledger, cli):
        source = Path(module.__file__).read_text()
        assert not re.search(r"[!=]=\s*E[12]\b|\bE[12]\s*[!=]=", source), module.__name__



@pytest.mark.parametrize("C", [E1, E2], ids=["15a1", "15a3"])
def test_the_paper_curves_full_sweep_agrees_with_their_staged_records(C):
    # the staged ledger reads E1 and E2 to counting.SMALL only; their whole
    # table to 10^4 has no anomalous prime and certifies every l
    from ecledger.counting import verify_ordinary_criterion
    from ecledger.galois_image import surjectivity_certificate
    from ecledger.local_data import bad_primes

    table = frobenius_table(C, 10_000)
    assert [p for p, ap in table.items() if p != 2 and ap % p == 1] == []
    assert verify_ordinary_criterion(table, 8) == ([], True)
    for l in (3, 5, 7):
        assert surjectivity_certificate(l, table, bad_primes(C)).verdict == "surjective"


def test_staged_reads_give_the_records_of_the_full_table(monkeypatch):
    # over the digest's 40 curves at l = 3, 5, 7: a certificate that reads
    # SMALL first, and a criterion that reads only the odd primes dividing
    # t >= 3, build the same records as reading the whole table, which
    # SMALL = prime_bound and no reach give.  The last curve's l = 5
    # certificate is inconclusive on the primes to SMALL and surjective to 10^4.
    from test_report_digest import CURVES

    opts, checks = LedgerOptions(l_list=(3, 5, 7)), ("surjectivity", "ordinary-criterion")

    def records():
        return [run_ledger(WeierstrassCurve(*coeffs), opts, checks).records
                for coeffs in [*CURVES, (1, -1, 1, 10, -7)]]

    staged = records()
    monkeypatch.setattr(ledger, "SMALL", opts.prime_bound)
    monkeypatch.setattr(ledger, "ordinary_criterion_reach", lambda torsion_order: None)
    assert staged == records()
