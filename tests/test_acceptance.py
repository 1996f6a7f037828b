"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (written past pytest's capture so the line always shows).
"""

import math
import time
from fractions import Fraction

import pytest

from ecledger.counting import (
    count_points,
    frobenius_table,
    hasse_contradiction_symbolic,
    trace_ap,
    verify_ordinary_criterion,
)
from ecledger.curve import E1, E2, WeierstrassCurve, two_isogeny_onto
from ecledger.galois_image import (
    RZB_15A1_MOD8,
    abelian_group_structure,
    det_condition_subgroup,
    enumerate_subgroups_gl2,
    fixed_submodule,
    group_closure,
    mat_mul,
    surjectivity_certificate,
)
from ecledger.ledger import CITED_DEPENDENCIES, LedgerOptions, emit_report, run_ledger
from ecledger.local_data import ReductionKind, bad_primes, kodaira_and_tamagawa, reduction_type, tamagawa_product
from ecledger.lvalue import an_coefficients, lvalue_ratio
from ecledger.padic import iwasawa_log, l_invariant
from ecledger.arith import primes_up_to, rational_valuation
from ecledger.torsion import torsion_subgroup
from test_local_data import local_data
from test_padic import exact_value, from_fraction


@pytest.fixture
def announce(capfd):
    def _announce(n, ok, text):
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {n:>2}: {verdict} - {text}", flush=True)
        assert ok, f"criterion {n}: {text}"
    return _announce


def test_criterion_01_discriminants(announce):
    i1, i2 = E1.invariants(), E2.invariants()
    ok = (
        i1.disc == 50625 == 15**4
        and i2.disc == 225
        and i1.c4**3 - i1.c6**2 == 1728 * i1.disc
        and i2.c4**3 - i2.c6**2 == 1728 * i2.disc
    )
    announce(1, ok, f"disc(E1)={i1.disc}=15^4, disc(E2)={i2.disc}, c4^3-c6^2=1728*disc exact")


def test_criterion_02_torsion(announce):
    t1, t2 = torsion_subgroup(E1), torsion_subgroup(E2)
    ok = (t1.order, t1.structure) == (8, (2, 4)) and (t2.order, t2.structure) == (8, (2, 4))
    announce(2, ok, f"torsion E1={t1.describe()} (order {t1.order}), E2={t2.describe()} (order {t2.order})")


def test_criterion_03_reduction_data(announce):
    kinds = {p: reduction_type(E1, p) for p in (3, 5)}
    good = all(reduction_type(E1, p) is ReductionKind.GOOD for p in (2, 7, 11, 13))
    d3, d5 = kodaira_and_tamagawa(E1, 3), kodaira_and_tamagawa(E1, 5)
    prod = tamagawa_product(local_data(E1))
    ok = (
        kinds[3] is ReductionKind.MULT_NONSPLIT
        and kinds[5] is ReductionKind.MULT_SPLIT
        and good
        and d3.kodaira == d5.kodaira == "I4"
        and prod == 8
    )
    announce(3, ok, f"E1: nonsplit@3, split@5, Kodaira {d3.kodaira}/{d5.kodaira}, Tamagawa product {prod}")


def test_criterion_04_velu_isogeny(announce):
    hit = two_isogeny_onto(E1, E2, torsion_subgroup(E1).two_torsion)
    traces_match = all(
        trace_ap(E1, p) == trace_ap(E2, p) for p in primes_up_to(100) if p not in (3, 5)
    )
    ok = hit is not None and traces_match
    kern = hit[0].kernel if hit else None
    announce(4, ok, f"Velu 2-isogeny kernel {kern} reaches E2 up to Q-isomorphism; a_p agree for good p<=100")


def test_criterion_05_mod8_group(announce):
    G = group_closure(RZB_15A1_MOD8["g_generators"], 8)
    H = group_closure(RZB_15A1_MOD8["h_generators"], 8)
    D = det_condition_subgroup(G)
    fg, fh = fixed_submodule(G), fixed_submodule(H)
    ok = (
        G.order == 16
        and H.order == 8
        and D.elements == H.elements
        and fg == fh
        and len(fg) == 8 == torsion_subgroup(E1).order
        and abelian_group_structure(fg, 8) == (2, 4)
    )
    announce(5, ok, f"|G|={G.order}, |H|={H.order}=det(+-1) subgroup, fixed(G)=fixed(H), 8 vectors, structure (2,4)")


def test_criterion_06_surjectivity_certificates(announce):
    traces, control_curve = frobenius_table(E1, 1000), WeierstrassCurve(0, -1, 1, -10, -20)
    verdicts = {l: surjectivity_certificate(l, traces, bad_primes(E1)).verdict for l in (3, 5, 7)}
    control = surjectivity_certificate(5, frobenius_table(control_curve, 1000), bad_primes(control_curve)).verdict
    ok = all(v == "surjective" for v in verdicts.values()) and control == "inconclusive"
    announce(6, ok, f"E1 mod-l images {verdicts} at bound 1000; conductor-11 control at l=5: {control}")


def test_criterion_07_ordinary_criterion(announce):
    t0 = time.monotonic()
    failures, symbolic = verify_ordinary_criterion(frobenius_table(E1, 10_000), 8)
    spot = all(
        count_points(E1, p) % 8 == 0 and trace_ap(E1, p) % p != 1
        for p in primes_up_to(10_000)
        if p != 2 and 15 % p != 0
    )
    elapsed = time.monotonic() - t0
    ok = not failures and symbolic and spot and hasse_contradiction_symbolic(8) and elapsed <= 30
    announce(7, ok, f"good odd p<=10^4: 8|#E1(F_p) and a_p mod p != 1, symbolic Hasse holds ({elapsed:.1f}s)")


def test_criterion_08_lvalue_ratio(announce):
    L, omega, ratio = lvalue_ratio(E1, local_data(E1), frobenius_table(E1, 2000), 2000)
    err = float(L.hi / omega.lo - L.lo / omega.hi)
    ok = ratio == Fraction(1, 8) and err < 1e-8
    announce(8, ok, f"L(E1,1)/Omega = {ratio} (interval width {err:.2e} at 2000 terms, 128 bits)")


def test_criterion_09_l_invariant(announce):
    res20 = l_invariant(E1, 5, prec=20)
    res40 = l_invariant(E1, 5, prec=40)
    a, b = res20.value, res40.value
    stable = a.val == b.val and (a.unit - b.unit) % 5 ** min(a.prec, 20) == 0
    ok = res20.value.valuation() == 1 and stable
    announce(9, ok, f"v_5(L-invariant) = {res20.value.valuation()} at 20 digits, stable at 40 digits")


def test_criterion_10_property_suites_and_determinism(announce):
    # Hasse on every computed trace (hard-asserted in the sweep)
    traces = frobenius_table(E1, 2000)
    hasse = all(ap**2 <= 4 * p for p, ap in traces.items())
    # group-law associativity samples: rational points of 37a1 and E1
    C37 = WeierstrassCurve(0, 0, 1, -1, 0)
    pts37 = [(1, -1), (0, 0), (-1, -1)]  # -2, 1 and 3 times (0, 0)
    pts1 = [None, (-1, 0), (-2, 3), (8, -27)]
    assoc = all(
        C.add(C.add(P, Q), R) == C.add(P, C.add(Q, R))
        for C, pts in ((C37, pts37), (E1, pts1))
        for P in pts
        for Q in pts
        for R in pts
    )
    # Hecke recurrences to n = 2000
    a = an_coefficients(traces, 2000, local_data(E1))
    hecke = all(
        a[m * n] == a[m] * a[n]
        for m in range(2, 45)
        for n in range(2, 2000 // m + 1)
        if math.gcd(m, n) == 1
    )
    # log homomorphism sample: log(xy) = log(x) + log(y) mod 5^12
    x, y = Fraction(10), Fraction(75, 2)
    lx, ly, lxy = (exact_value(iwasawa_log(from_fraction(z, 5, 12))) for z in (x, y, x * y))
    homomorphic = lx + ly == lxy or rational_valuation(lx + ly - lxy, 5) >= 12
    # closure of every built matrix group
    groups = [group_closure(RZB_15A1_MOD8[k], 8) for k in ("g_generators", "h_generators")]
    closures = all(
        (1, 0, 0, 1) in G.elements
        and all(mat_mul(x, y, G.modulus) in G.elements for x in G.elements for y in G.elements)
        for G in (*groups, *enumerate_subgroups_gl2(3))
    )
    # ledger json determinism + cited-record completeness
    opts = LedgerOptions(prime_bound=500, l_list=(3,), terms=500)
    blob1 = emit_report(run_ledger(E1, opts), "json-text").encode()
    blob2 = emit_report(run_ledger(E1, opts), "json-text").encode()
    report = run_ledger(E1, opts)
    cited_ids = [r.id for r in report.records if r.method == "cited"]
    complete = all(
        sum(1 for rid in cited_ids if rid == want) == 1 for want, _ in CITED_DEPENDENCIES
    )
    ok = hasse and assoc and hecke and homomorphic and closures and blob1 == blob2 and complete
    announce(10, ok, "Hasse/associativity/Hecke/log-homomorphism/closure properties hold; ledger json byte-identical; cited records complete")
