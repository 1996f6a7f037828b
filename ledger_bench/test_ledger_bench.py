"""Tests of the benchmark's own machinery.

    python3 -m pytest ledger_bench
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from curves import A4_A6_BOUND, E1, E2, box_curves, invariants  # noqa: E402


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_generator_is_deterministic_per_seed():
    assert take(box_curves(7), 50) == take(box_curves(7), 50)
    assert take(box_curves(7), 50) != take(box_curves(8), 50)


def test_generator_stays_in_the_box():
    curves = take(box_curves(3), 500)
    assert curves[:2] == [E1, E2]
    for a1, a2, a3, a4, a6 in curves:
        assert a1 in (0, 1) and a3 in (0, 1) and a2 in (-1, 0, 1)
        assert abs(a4) <= A4_A6_BOUND and abs(a6) <= A4_A6_BOUND
        assert invariants((a1, a2, a3, a4, a6))[1] != 0
    signs = {invariants(a)[1] > 0 for a in curves}
    assert signs == {True, False}  # negative discriminants stay in


def test_invariants_match_the_program():
    from ecledger.curve import WeierstrassCurve

    for a in take(box_curves(11), 100):
        C = WeierstrassCurve(*a)
        assert invariants(a) == (C.c_invariants()[0], C.discriminant())


def span(name, start, end, parent, ledger=0):
    return [name, start, end, parent, ledger, None]


def test_self_time_on_a_synthetic_tree():
    tree = [
        span("ledger.run_ledger", 0.0, 10.0, -1),  # 0
        span("counting.trace_ap", 1.0, 4.0, 0),  # 1
        span("counting.count_points", 1.5, 3.5, 1),  # 2
        span("lvalue.l_value_at_1", 5.0, 9.0, 0),  # 3
        span("arith.primes_up_to", 5.0, 6.0, 3),  # 4
        span("arith.primes_up_to", 5.5, 7.0, 3),  # 5: overlaps 4, union counts once
        span("arith.primes_up_to", 8.5, 9.5, 3),  # 6: runs past its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.0, 2.0, 1.5, 1.0, 1.5, 1.0])


def test_layer_metrics_add_up():
    tree = [
        span("ledger.run_ledger", 0.0, 10.0, -1),
        span("counting.count_points", 1.0, 3.0, 0),
        span("counting.count_points", 3.0, 4.0, 0),
        span("galois_image.enumerate_subgroups_gl2", 20.0, 21.0, -1, spans.SETUP),
    ]
    tree[1][5] = ((1, 1, 1, -10, -10), 7)
    tree[2][5] = ((1, 1, 1, -10, -10), 7)
    tree[3][5] = (3, 16)
    metrics, extra = spans.layer_metrics(tree, 1, 0.2, [10.0], [9.0])
    assert metrics["counting.count_points_calls"][0] == 2
    assert metrics["counting.distinct_primes"][0] == 1
    assert metrics["counting.useful_ratio"][0] == 0.5
    assert metrics["counting.residues_per_s"][0] == pytest.approx(14 / 3.0)
    assert metrics["ledger.run_ledger_self_s"][0] == pytest.approx(7.0)
    assert metrics["galois_image.enumerate_l3_s"][0] == pytest.approx(1.0)
    assert spans.enumerated_classes(tree) == {3: 16}
    assert extra["trace.overhead_s"][0] == pytest.approx(1.0)
    assert "trace.overhead_s" not in spans.layer_metrics(tree, 1, 0.2, [10.0], [])[1]


def test_tracer_rebinds_imported_names_and_restores_them():
    import ecledger.counting
    import ecledger.galois_image
    import ecledger.torsion

    original = ecledger.counting.count_points
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ecledger.torsion.count_points is ecledger.counting.count_points is not original
        assert ecledger.galois_image.trace_ap is ecledger.counting.trace_ap
        tracer.ledger = 0
        ecledger.galois_image.trace_ap(ecledger.curve.E1, 7)
    finally:
        tracer.uninstall()
    assert ecledger.torsion.count_points is original
    names = [s[0] for s in tracer.spans]
    assert names == ["counting.trace_ap", "counting.count_points"]
    assert tracer.spans[1][3] == 0  # count_points ran inside trace_ap


@pytest.fixture(scope="module")
def e1_report():
    from ecledger.curve import E1 as curve_e1
    from ecledger.ledger import LedgerOptions, emit_report, run_ledger

    return emit_report(run_ledger(curve_e1, LedgerOptions(prime_bound=300, l_list=(3,))), "json-text")


def test_checker_accepts_a_true_report(e1_report):
    assert checks.report_problems(E1, e1_report) == []
    assert checks.oracle_problems(E1) == []


def flip_first_status(text, old, new):
    payload = json.loads(text)
    record = next(r for r in payload["records"] if r["status"] == old)
    record["status"] = new
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_checker_rejects_a_flipped_status(e1_report):
    assert checks.report_problems(E1, flip_first_status(e1_report, "pass", "fail"))


def test_checker_rejects_a_report_for_another_curve(e1_report):
    assert checks.report_problems(E2, e1_report)


def test_checker_rejects_unreadable_output():
    assert checks.report_problems(E1, "")
    assert checks.report_problems(E1, "{}")


def test_checker_rejects_a_flipped_verdict_on_a_generic_curve():
    from ecledger.curve import WeierstrassCurve
    from ecledger.ledger import LedgerOptions, emit_report, run_ledger

    generic = (0, 0, 1, -1, 0)
    text = emit_report(run_ledger(WeierstrassCurve(*generic), LedgerOptions(prime_bound=300, l_list=(3,))))
    assert checks.report_problems(generic, text) == []
    payload = json.loads(text)
    payload["overall"] = "failed" if payload["overall"] != "failed" else "verified-at-desk-scale"
    assert checks.report_problems(generic, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def test_a_corrupted_report_counts_as_a_failed_ledger(e1_report):
    import run

    corrupted = flip_first_status(e1_report, "pass", "fail")
    assert run.check([(E1, e1_report, None), (E1, corrupted, None), (E1, None, "timed out")], None, {}) == 2


def test_a_wrong_class_count_fails_every_ledger(e1_report):
    import run

    assert checks.class_problems(dict(checks.EXPECTED_CLASSES)) == []
    assert checks.class_problems({3: 16, 5: 48, 7: 85})
    assert run.check([(E1, e1_report, None)] * 3, None, {3: 16}) == 0
    assert run.check([(E1, e1_report, None)] * 3, None, {3: 16, 5: 47}) == 3


def test_minimality_filter_matches_the_program():
    import random

    from curves import passes_minimality_certificate
    from ecledger.curve import WeierstrassCurve
    from ecledger.local_data import bad_primes

    rng = random.Random(0)
    refused = 0
    for _ in range(3000):
        a = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1), rng.randint(-50, 50), rng.randint(-50, 50))
        c4, disc = invariants(a)
        if disc == 0:
            continue
        C = WeierstrassCurve(*a)
        program = all(C.is_minimal_at(p) for p in bad_primes(C))
        assert passes_minimality_certificate(c4, disc) == program, a
        refused += not program
    assert refused and not passes_minimality_certificate(*invariants((0, 0, 0, 24, -32)))
