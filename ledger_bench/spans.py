"""Spans around the program's layer boundaries, installed from outside.

The benchmark does not edit the program.  It replaces each traced function
with a wrapper in every ``ecledger`` module namespace that holds it, because
the modules bind each other's functions with ``from .x import y``: wrapping
only ``counting.count_points`` would miss the calls ``torsion`` makes through
its own binding.

A span records its name, start, end, parent span and ledger id.  Spans stay
in memory; the caller writes them out when the run ends.  A span's self time
is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# Layer boundaries, by module.  Tiny helpers that inner loops call millions of
# times (mat_mul, valuation, legendre_symbol, kronecker_symbol, is_prime) are
# left out: wrapping them would cost more than the work they do and distort
# every self time above them.
TRACED = {
    "arith": ("primes_up_to", "factorize"),
    "counting": ("count_points", "count_points_naive", "trace_ap", "verify_ordinary_criterion"),
    "curve": ("two_isogeny_onto",),
    "galois_image": (
        "group_closure",
        "enumerate_subgroups_gl2",
        "frobenius_constraints",
        "surjectivity_certificate",
    ),
    "local_data": ("kodaira_and_tamagawa", "conductor_semistable", "tamagawa_product"),
    "lvalue": ("an_coefficients", "l_value_at_1", "real_period", "lvalue_ratio"),
    "padic": ("j_q_expansion", "tate_parameter", "iwasawa_log", "l_invariant"),
    "torsion": ("torsion_subgroup",),
    "ledger": ("run_ledger", "emit_report"),
    "cli": ("main",),
}
# The dense-table closure inside GL2(F_l) subgroup enumeration, a method.
TABLE_CLOSURE = "galois_image._GL2Tables.closure"

SETUP = -1  # ledger id of spans recorded while the workload sets up

# Arguments or results worth keeping, per span name, for the work counters.
_INFO = {
    "counting.count_points": lambda args, result: (args[0].coefficients(), args[1]),
    "galois_image.enumerate_subgroups_gl2": lambda args, result: (args[0], len(result)),
}


class Tracer:
    """Collects spans as [name, start, end, parent index, ledger id, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self.ledger = SETUP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.ledger, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def install(self, package: str = "ecledger") -> None:
        """Wrap every traced function in every loaded module that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"{package}.{layer}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        tables = sys.modules[f"{package}.galois_image"]._GL2Tables
        self._saved.append((tables, "closure", tables.closure))
        tables.closure = self.wrap(TABLE_CLOSURE, tables.closure)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def enumerated_classes(spans) -> dict[int, int]:
    """{l: number of GL2(F_l) subgroup classes} from the enumeration spans."""
    return {s[5][0]: s[5][1] for s in spans if s[0] == "galois_image.enumerate_subgroups_gl2"}


def layer_metrics(spans, ledgers: int, cli_import_s: float, traced_s: list[float], untraced_s: list[float]):
    """Per-layer figures of one traced run, as two {name: (value, unit)}.

    The first holds the reported metrics, the second figures for the printed
    table only: those that are zero on workloads that never reach them, and
    the tracing overhead (traced minus untraced p50, absent without untraced
    times), which noise can make negative.  Per-ledger figures average over
    the traced ledgers; one-off figures (enumeration, import) cover the whole
    run, set-up included.
    """
    selfs = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    enum_s = defaultdict(float)
    pairs, residues = set(), 0
    for span, own in zip(spans, selfs):
        name, start, end, _, ledger, info = span
        if name == "galois_image.enumerate_subgroups_gl2":
            enum_s[info[0]] += end - start
        if ledger == SETUP:
            continue
        total[name] += end - start
        self_s[name] += own
        calls[name] += 1
        layer_self[name.split(".")[0]] += own
        if name == "counting.count_points":
            pairs.add((ledger, tuple(info[0]), info[1]))
            residues += info[1]
    n = max(ledgers, 1)
    count_calls = calls["counting.count_points"]
    top_l = max(enum_s) if enum_s else 0
    m = {
        "galois_image.enumerate_l3_s": (enum_s.get(3, 0.0), "s"),
        "galois_image.enumerate_max_l_s": (enum_s.get(top_l, 0.0), "s"),
        "galois_image.table_closures": (sum(1 for s in spans if s[0] == TABLE_CLOSURE), "count"),
        "galois_image.certificate_self_s": (self_s["galois_image.surjectivity_certificate"] / n, "s/ledger"),
        "galois_image.certificate_calls": (calls["galois_image.surjectivity_certificate"] / n, "count/ledger"),
        "galois_image.group_closure_calls": (calls["galois_image.group_closure"] / n, "count/ledger"),
        "counting.count_points_calls": (count_calls / n, "count/ledger"),
        "counting.count_points_s": (total["counting.count_points"] / n, "s/ledger"),
        "counting.distinct_primes": (len(pairs) / n, "count/ledger"),
        "counting.useful_ratio": (len(pairs) / count_calls if count_calls else 0.0, "ratio"),
        "counting.residues_per_s": (
            residues / total["counting.count_points"] if total["counting.count_points"] else 0.0,
            "1/s",
        ),
        "lvalue.an_coefficients_self_s": (self_s["lvalue.an_coefficients"] / n, "s/ledger"),
        "lvalue.l_value_at_1_self_s": (self_s["lvalue.l_value_at_1"] / n, "s/ledger"),
        "lvalue.real_period_s": (total["lvalue.real_period"] / n, "s/ledger"),
        "padic.j_q_expansion_s": (total["padic.j_q_expansion"] / n, "s/ledger"),
        "padic.j_q_expansion_calls": (calls["padic.j_q_expansion"] / n, "count/ledger"),
        "padic.tate_parameter_self_s": (self_s["padic.tate_parameter"] / n, "s/ledger"),
        "padic.l_invariant_self_s": (self_s["padic.l_invariant"] / n, "s/ledger"),
        "arith.primes_up_to_calls": (calls["arith.primes_up_to"] / n, "count/ledger"),
        "arith.primes_up_to_s": (total["arith.primes_up_to"] / n, "s/ledger"),
        "arith.factorize_s": (total["arith.factorize"] / n, "s/ledger"),
        "torsion.torsion_subgroup_s": (total["torsion.torsion_subgroup"] / n, "s/ledger"),
        "torsion.calls_per_ledger": (calls["torsion.torsion_subgroup"] / n, "count/ledger"),
        "local_data.kodaira_and_tamagawa_s": (total["local_data.kodaira_and_tamagawa"] / n, "s/ledger"),
        "curve.two_isogeny_onto_s": (total["curve.two_isogeny_onto"] / n, "s/ledger"),
        "ledger.run_ledger_self_s": (self_s["ledger.run_ledger"] / n, "s/ledger"),
        "ledger.emit_report_s": (total["ledger.emit_report"] / n, "s/ledger"),
        "cli.import_s": (cli_import_s, "s"),
    }
    for layer in TRACED:
        if layer != "cli":
            m[f"{layer}.self_s"] = (layer_self[layer] / n, "s/ledger")
    traced_p50 = statistics.median(traced_s)
    m["trace.ledgers"] = (ledgers, "count")
    m["trace.ledger_s_p50"] = (traced_p50, "s")
    extra = {
        "galois_image.enumerate_l5_s": (enum_s.get(5, 0.0), "s"),
        "galois_image.enumerate_l7_s": (enum_s.get(7, 0.0), "s"),
        "cli.main_self_s": (self_s["cli.main"] / n, "s/ledger"),
        "cli.self_s": (layer_self["cli"] / n, "s/ledger"),
    }
    if untraced_s:
        extra["trace.overhead_s"] = (traced_p50 - statistics.median(untraced_s), "s")
    return m, extra
