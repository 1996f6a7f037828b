"""Proof ledger: run every desk-scale check in the order the proof uses them
and assemble a deterministic pass/fail/cited report.

Computed records are recomputed from scratch on every run; cited records mark
the deep theorems the toolkit consumes but cannot verify.  The overall verdict
is "verified-at-desk-scale" exactly when some computed record passed and none
failed.

The checks form one ordered table, CHECKS; the CLI's single-check subcommands
run named parts of it.  What the paper states about particular curves lives in
PAPER_EXPECTATIONS, so each check is written once, for every curve.

The checks share one Frobenius table per run, and each reads only the primes
it needs.  A surjectivity certificate reads in two stages: the primes up to
counting.SMALL, then the rest of prime_bound only if a maximal subgroup
survives them.  The ordinary criterion reads only the odd primes dividing the
torsion order when that order is at least 3, and the primes already read.
The torsion search reads the primes up to 29 for its gcd of point counts.
The L-series reads as many primes as it sums terms.  No stage changes a
record: each reads the verdict of the whole table.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from itertools import islice
from types import MappingProxyType

from . import __version__
from .counting import SMALL, frobenius_table, ordinary_criterion_reach, verify_ordinary_criterion
from .curve import E1, E2, WeierstrassCurve, two_isogeny_onto
from .galois_image import (
    RZB_15A1_MOD8,
    abelian_group_structure,
    det_condition_subgroup,
    fixed_submodule,
    group_closure,
    surjectivity_certificate,
)
from .local_data import (
    ReductionKind,
    UnsupportedReductionError,
    bad_primes,
    conductor_semistable,
    kodaira_and_tamagawa,
    tamagawa_product,
)
from .lvalue import DEFAULT_TERMS, PRECISION_BITS, lvalue_ratio, root_number, summed_terms
from .padic import DEFAULT_DIGITS, l_invariant
from .torsion import GCD_PRIMES, torsion_subgroup

VERIFIED = "verified-at-desk-scale"
FAILED = "failed"


class CheckRecord(namedtuple("CheckRecord", "id claim method inputs result status")):
    """One record of a report, every field a str.

    method is "computed" or "cited"; status is "pass", "fail", "cited" or
    "unsupported", and it is "cited" exactly when the method is.
    """

    __slots__ = ()

    def __new__(cls, id, claim, method, inputs, result, status):
        if (status == "cited") != (method == "cited"):  # raised, not asserted: report_from_json reads outside input
            raise AssertionError(f"status {status!r} does not go with method {method!r}")
        return tuple.__new__(cls, (id, claim, method, inputs, result, status))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks as __new__ does


class LedgerOptions(namedtuple("LedgerOptions", "prime_bound l_list terms padic_digits",
                               defaults=(10_000, (3, 5, 7), DEFAULT_TERMS, DEFAULT_DIGITS))):
    """The ints prime_bound, terms and padic_digits, and l_list, a tuple of primes."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "curve version records")):
    """The curve's coefficients as a str, the toolkit version and a tuple of CheckRecords."""

    __slots__ = ()

    @property
    def overall(self) -> str:
        computed = [r.status for r in self.records if r.method == "computed"]
        return VERIFIED if "pass" in computed and "fail" not in computed else FAILED

    def record(self, record_id: str) -> CheckRecord:
        for r in self.records:
            if r.id == record_id:
                return r
        raise KeyError(record_id)


# Deep theorems the proof consumes; one cited record each, never computed.
CITED_DEPENDENCIES = (
    ("cited-lifting-theorems", "Then E is modular (modularity lifting theorems)"),
    ("cited-base-change", "Lemma on base change of modularity along the tower"),
    ("cited-moduli-interpretation", "moduli interpretations of X(s3,b5) and X(b3,b5)"),
    ("cited-kato-selmer", "Kato: triviality of the Selmer group over the tower"),
    ("cited-kurihara-supersingular", "Kurihara: finiteness at supersingular primes"),
    ("cited-skinner-theorem-c", "Skinner: Theorem C (ordinary multiplicative case)"),
    ("cited-greenberg-prop-3-8", "Greenberg: Proposition 3.8 (it is enough to show that Sel_p(E) = Sha(E)[p] is trivial)"),
    ("cited-greenberg-2adic-lambda", "Greenberg: the 2-adic lambda-invariant of E is trivial"),
    ("cited-rzb-2adic-image", "Rouse-Zureick-Brown: derivation of the 2-adic image generators"),
    ("cited-dickson-classification",
     "Dickson: the maximal subgroups of GL2(F_l) with surjective determinant (Serre 1972, section 2)"),
)

# What the paper states about 15a1 (E1) and 15a3 (E2), keyed by coefficients:
# record id -> (claim, expected evidence).  A listed record passes when its
# check passes and its evidence equals the expected value; a claim of None
# keeps the check's wording.  Unlisted records are graded on the check alone.
# Two entries are inputs rather than evidence: "isogeny-degree-2" names the
# curve a 2-isogeny must reach, and "mod8" the published mod-8 image dataset.
_CONDUCTOR_15 = {
    "reduction-3": ("non-split multiplicative reduction at p = 3", ReductionKind.MULT_NONSPLIT),
    "reduction-5": ("split multiplicative reduction at p = 5", ReductionKind.MULT_SPLIT),
    "conductor": ("of Cremona label 15A1 / 15A3 (conductor 15)", 15),
    "torsion": ("isomorphic to Z/2Z + Z/4Z", (8, (2, 4))),
}
PAPER_EXPECTATIONS = {
    E1.coefficients(): {
        **_CONDUCTOR_15,
        "invariants": ("minimal discriminant 15^4", 50625),
        "tamagawa-product": ("Tamagawa numbers of E is equal to 8", 8),
        "isogeny-degree-2": (None, E2),
        "mod8": (None, RZB_15A1_MOD8),
        "mod8-order": (None, 16),
        "mod8-det-subgroup": (None, 8),
        "mod8-fixed-points": (None, (8, (2, 4))),
        "lvalue-ratio": ("L(E, 1) / Omega_E = 1/8", Fraction(1, 8)),
        "linv-5": ("lies in p Z_p^x", 1),
    },
    E2.coefficients(): _CONDUCTOR_15,
}


def _expectation(C: WeierstrassCurve, record_id: str, claim: str):
    """(claim, expected value or None) of the record for this curve."""
    paper_claim, expected = PAPER_EXPECTATIONS.get(C.coefficients(), {}).get(record_id, (None, None))
    return paper_claim or claim, expected


def _computed(C, record_id, claim, inputs, result, ok, evidence=None) -> CheckRecord:
    claim, expected = _expectation(C, record_id, claim)
    ok = ok and (expected is None or evidence == expected)
    return CheckRecord(record_id, claim, "computed", inputs, result, "pass" if ok else "fail")


def _unsupported(C, record_id, claim, inputs, note) -> CheckRecord:
    return CheckRecord(record_id, _expectation(C, record_id, claim)[0], "computed", inputs, note, "unsupported")


class _Run:
    """One curve at fixed options, with the facts several checks share.

    Each fact, and each a_p of the Frobenius table, is computed at most once
    per ledger, on first use, so a check run alone computes only what it needs.
    """

    def __init__(self, C: WeierstrassCurve, opts: LedgerOptions):
        self.C, self.opts = C, opts
        self._table: dict[int, int] = {}  # {p: a_p} for the good primes p <= self.swept, ascending
        self._primes: list[int] = []  # the table's keys
        self.swept = 1

    def traces(self, bound: int) -> Mapping[int, int]:
        """{p: a_p} for the good primes p <= bound: the whole table, read-only, or a fresh prefix.

        A bound above the largest read so far sweeps only the primes in between, so
        the checks of a ledger count each good prime once, whatever their bounds.
        """
        if bound > self.swept:
            more = frobenius_table(self.C, bound, self.swept)
            self._table.update(more)
            self._primes += more
            self.swept = bound
        if bound == self.swept:
            return MappingProxyType(self._table)
        return dict(islice(self._table.items(), bisect_right(self._primes, bound)))

    @cached_property
    def local(self) -> dict:
        """{bad prime p: LocalData, or why local data at p is unsupported}."""
        out = {}
        for p in bad_primes(self.C):
            try:
                out[p] = kodaira_and_tamagawa(self.C, p)
            except UnsupportedReductionError as err:
                out[p] = str(err)
        return out

    @property
    def local_error(self) -> str | None:
        return next((v for v in self.local.values() if isinstance(v, str)), None)

    @cached_property
    def torsion(self):
        return torsion_subgroup(self.C, self.traces(GCD_PRIMES[-1]))


def _invariants_records(run: _Run) -> list[CheckRecord]:
    C = run.C
    inv = C.invariants()
    identity = 1728 * inv.disc == inv.c4**3 - inv.c6**2
    minimal = all(C.is_minimal_at(p) for p in run.local)
    claim = "discriminant identity 1728*Delta = c4^3 - c6^2 and minimality"
    result = f"Delta={inv.disc} c4={inv.c4} c6={inv.c6} j={C.j_invariant()} minimal={minimal}"
    return [_computed(C, "invariants", claim, "exact integers", result, identity and minimal, inv.disc)]


def _reduction_records(run: _Run) -> list[CheckRecord]:
    out = []
    for p, ld in run.local.items():
        rid, claim = f"reduction-{p}", f"reduction type of the curve at p = {p}"
        if isinstance(ld, str):
            out.append(_unsupported(run.C, rid, claim, f"p={p}", ld))
            continue
        result = f"{ld.kind.value} Kodaira={ld.kodaira} tamagawa={ld.tamagawa}"
        out.append(_computed(run.C, rid, claim, f"p={p}", result, True, ld.kind))
    return out


def _conductor_records(run: _Run) -> list[CheckRecord]:
    claim = "semistable conductor = product of bad primes"
    if run.local_error:
        return [_unsupported(run.C, "conductor", claim, "Tate (semistable)", run.local_error)]
    N = conductor_semistable(run.local)
    return [_computed(run.C, "conductor", claim, "Tate (semistable)", f"N={N}", True, N)]


def _tamagawa_records(run: _Run) -> list[CheckRecord]:
    claim = "product of Tamagawa numbers"
    if run.local_error:
        return [_unsupported(run.C, "tamagawa-product", claim, "Tate (semistable)", run.local_error)]
    prod = tamagawa_product(run.local)
    return [_computed(run.C, "tamagawa-product", claim, "Tate (semistable)", f"product={prod}", True, prod)]


def _torsion_records(run: _Run) -> list[CheckRecord]:
    T = run.torsion
    two_x = sorted(str(P[0]) for P in T.two_torsion)
    result = f"order={T.order} structure={T.describe()} order-2 x-coordinates={two_x}"
    claim, inputs = "torsion subgroup structure (Nagell-Lutz)", "Nagell-Lutz on scaled short model"
    if T.gcd_primes:
        claim, inputs = "torsion subgroup structure", f"gcd of #E(F_p) at p = {', '.join(map(str, T.gcd_primes))} is 1"
    return [_computed(run.C, "torsion", claim, inputs, result, True, (T.order, T.structure))]


def _isogeny_records(run: _Run) -> list[CheckRecord]:
    """A 2-isogeny onto the curve the paper names; unsupported where it names none."""
    rid, claim = "isogeny-degree-2", "related by an isogeny of degree 2"
    target = _expectation(run.C, rid, claim)[1]
    if target is None:
        return [_unsupported(run.C, rid, claim, "Velu",
                             "skipped: the degree-2 isogeny check applies to the 15A1 curve only")]
    hit = two_isogeny_onto(run.C, target, run.torsion.two_torsion)
    result = f"no kernel reaches {target.coefficients()}"
    if hit is not None:
        phi, iso = hit
        result = (  # the codomain is isomorphic to target, so shares its j
            f"kernel=({phi.kernel[0]},{phi.kernel[1]}) codomain j={target.j_invariant()} "
            f"iso (u,r,s,t)=({iso.u},{iso.r},{iso.s},{iso.t}) onto {target.coefficients()}"
        )
    return [_computed(run.C, rid, claim, "Velu over the rational 2-torsion", result, hit is not None, target)]


def _mod8_records(run: _Run) -> list[CheckRecord]:
    """The mod-8 image the paper cites, where it cites one; unsupported elsewhere."""
    C = run.C
    claims = {
        "mod8-order": "This group has order 16",
        "mod8-det-subgroup": "matrices with determinant +-1 (order 8)",
        "mod8-fixed-points": "(Z/8Z x Z/8Z)^H = (Z/8Z x Z/8Z)^G",
    }
    data = _expectation(C, "mod8", "")[1]
    if data is None:
        return [
            _unsupported(C, rid, claim, "mod-8 dataset", "skipped: external image data unavailable")
            for rid, claim in claims.items()
        ]
    m = data["modulus"]
    G = group_closure(data["g_generators"], m)
    H = group_closure(data["h_generators"], m)
    D = det_condition_subgroup(G)
    fg, fh = fixed_submodule(G), fixed_submodule(H)
    structure = abelian_group_structure(fg, m)
    return [
        _computed(C, "mod8-order", claims["mod8-order"], f"{len(data['g_generators'])} generators mod {m}",
                  f"|G|={G.order}", True, G.order),
        _computed(C, "mod8-det-subgroup", claims["mod8-det-subgroup"], f"det condition inside G mod {m}",
                  f"|H|={H.order} det+-1 subgroup == H: {D.elements == H.elements}",
                  D.elements == H.elements, H.order),
        _computed(C, "mod8-fixed-points", claims["mod8-fixed-points"], f"fixed vectors in (Z/{m})^2",
                  f"fixed(G)==fixed(H): {fg == fh}; cardinality={len(fg)} structure={structure}",
                  fg == fh, (len(fg), structure)),
    ]


def _surjectivity_records(run: _Run) -> list[CheckRecord]:
    """Each certificate reads the primes to SMALL first and the rest only if a
    subgroup survives them.  A surjective verdict is unconditional and more
    primes only eliminate more subgroups, so a verdict on the prefix is the
    verdict on the whole table, and the record is the same."""
    out, bound = [], run.opts.prime_bound
    first, bad = min(SMALL, bound), tuple(run.local)
    for l in sorted(run.opts.l_list):
        claim = f"surjective for all primes l >= 3 (certified at l = {l})"
        cert = surjectivity_certificate(l, run.traces(first), bad)
        if cert.surviving and first < bound:
            cert = surjectivity_certificate(l, run.traces(bound), bad)
        n = len(cert.maximal_subgroups)
        result = (
            f"verdict={cert.verdict} eliminated {n - len(cert.surviving)}/{n} "
            f"maximal subgroups, witnesses up to {bound}"
        )
        if cert.surviving:
            result += f"; left: {', '.join(cert.surviving)}"
        out.append(_computed(run.C, f"surjectivity-l{l}", claim, f"l={l} prime_bound={bound}",
                             result, cert.verdict == "surjective"))
    out.append(
        CheckRecord(
            "surjectivity-residual",
            "surjective for all primes l >= 3 (residual range beyond the certified list)",
            "cited",
            f"l not in {sorted(run.opts.l_list)}",
            "cited: Serre, Proposition 21 argument; not certified here",
            "cited",
        )
    )
    return out


def _ordinary_records(run: _Run) -> list[CheckRecord]:
    claim = "a_p != 1 mod p at every good ordinary prime; else contradicts the Hasse bound"
    bound, torsion_order = run.opts.prime_bound, run.torsion.order
    reach = ordinary_criterion_reach(torsion_order)  # None: every prime; else past it only those already read
    read = bound if reach is None else min(bound, max(reach, run.swept))
    failures, symbolic = verify_ordinary_criterion(run.traces(read), torsion_order)
    result = (
        f"good odd p <= {bound}: {len(failures)} failures; "
        f"symbolic Hasse inequality {'holds' if symbolic else 'fails'} for torsion order {torsion_order}"
    )
    return [_computed(run.C, "ordinary-criterion", claim, f"prime_bound={bound} torsion_order={torsion_order}",
                      result, not failures and symbolic)]


def _lvalue_records(run: _Run) -> list[CheckRecord]:
    opts, claim = run.opts, "L(E,1)/Omega_E rational reconstruction"
    inputs = f"terms={opts.terms} precision_bits={PRECISION_BITS} convention=all-real-components"
    if run.local_error:
        return [_unsupported(run.C, "lvalue-ratio", claim, inputs, run.local_error)]
    w = root_number(run.local)  # at -1, L(E,1) = 0 and no trace is read
    read = summed_terms(conductor_semistable(run.local), opts.terms) if w == 1 else 0
    L, omega, ratio = lvalue_ratio(run.C, run.local, run.traces(read), opts.terms)
    if L is None:  # the partial sum bounds nothing
        return [_unsupported(run.C, "lvalue-ratio", claim, inputs,
                             f"terms too few for N={conductor_semistable(run.local)}: at {opts.terms} "
                             "terms the tail of the series has no finite bound, so no L(E,1) is reported")]
    result = f"L(E,1)={L} Omega={omega} ratio={ratio}"
    if w == -1:
        result += " root_number=-1"
    return [_computed(run.C, "lvalue-ratio", claim, inputs, result, ratio is not None, ratio)]


def _linv_records(run: _Run) -> list[CheckRecord]:
    digits = run.opts.padic_digits
    if run.local_error:
        return [_unsupported(run.C, "linv", "L-invariant at split multiplicative primes",
                             f"digits={digits}", run.local_error)]
    out = []
    for p, ld in run.local.items():
        if ld.kind is not ReductionKind.MULT_SPLIT:
            continue
        res = l_invariant(run.C, p, digits)
        valuation = None if res.value.is_zero else res.value.valuation()
        shown = f">={res.value.absolute_precision}" if valuation is None else f"={valuation}"
        result = (
            f"q_E val={res.tate_q.valuation()} L-invariant={res.value} "
            f"valuation{shown} branch log({p})=0"
        )
        out.append(_computed(run.C, f"linv-{p}", f"L-invariant log(q)/ord(q) at p = {p}",
                             f"p={p} digits={digits}", result, True, valuation))
    return out


def _cited_records(run: _Run) -> list[CheckRecord]:
    return [CheckRecord(rid, claim, "cited", "none", "cited: consumed, not recomputed", "cited")
            for rid, claim in CITED_DEPENDENCIES]


# Every check, in the order the proof consumes them, with the LedgerOptions
# fields its builder reads.  A name is the id of the check's record, or the
# stem of its ids ("reduction" builds reduction-3, ...).  Builders reach the
# layers through this module's globals, never through function objects
# captured here, so rebinding a layer function takes effect.
CHECKS = (
    ("invariants", _invariants_records, ()),
    ("reduction", _reduction_records, ()),
    ("conductor", _conductor_records, ()),
    ("tamagawa-product", _tamagawa_records, ()),
    ("torsion", _torsion_records, ()),
    ("isogeny-degree-2", _isogeny_records, ()),
    ("mod8", _mod8_records, ()),
    ("surjectivity", _surjectivity_records, ("prime_bound", "l_list")),
    ("ordinary-criterion", _ordinary_records, ("prime_bound",)),
    ("lvalue-ratio", _lvalue_records, ("terms",)),
    ("linv", _linv_records, ("padic_digits",)),
    ("cited", _cited_records, ()),
)


def run_ledger(
    C: WeierstrassCurve, opts: LedgerOptions | None = None, checks: tuple[str, ...] | None = None
) -> VerificationReport:
    """The records of the named checks (default: all of CHECKS), in table order."""
    opts = opts or LedgerOptions()
    unknown = set(checks or ()) - {name for name, *_ in CHECKS}
    if unknown:
        raise ValueError(f"unknown checks {sorted(unknown)}")
    run = _Run(C, opts)
    records = [r for name, build, _ in CHECKS if checks is None or name in checks for r in build(run)]
    descriptor = ",".join(str(a) for a in C.coefficients())
    return VerificationReport(descriptor, __version__, tuple(records))


# -- serialization -------------------------------------------------------------


def emit_report(report: VerificationReport, fmt: str = "json-text") -> str:
    if fmt == "json-text":
        payload = {
            "curve": report.curve,
            "version": report.version,
            "overall": report.overall,
            "records": [r._asdict() for r in report.records],  # every field is a str: no deep copy
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "human-text":
        width = max((len(r.id) for r in report.records), default=0)
        lines = [
            f"curve [{report.curve}]  toolkit {report.version}",
            "-" * 72,
        ]
        for r in report.records:
            lines.append(f"{r.status.upper():>11}  {r.id:<{width}}  {r.claim}")
            lines.append(f"{'':>11}  {'':<{width}}  {r.result}")
        lines.append("-" * 72)
        lines.append(f"overall: {report.overall}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def report_from_json(text: str) -> VerificationReport:
    payload = json.loads(text)
    records = tuple(CheckRecord(**r) for r in payload["records"])
    return VerificationReport(payload["curve"], payload["version"], records)
