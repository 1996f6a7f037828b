"""Command-line surface of the proof ledger.

`ledger` runs every check and emits the full report.  The single-check
subcommands are fixed filters over the same check table: each runs only its
own checks, takes only the options those checks read, and emits their records
in the same report format.  Every one of them exits 0 iff some selected
computed record passed and none failed.  `count` lists Frobenius data instead
of running a check.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import __version__
from .arith import DomainError, is_prime
from .counting import frobenius_table
from .curve import E1, WeierstrassCurve, curve_from_string
from .ledger import CHECKS, VERIFIED, LedgerOptions, emit_report, run_ledger

DEFAULT_CURVE = ",".join(str(a) for a in E1.coefficients())

# subcommand -> (help, names of the ledger checks it runs; None runs them all)
VIEWS = {
    "ledger": ("run every check and emit the full verification report", None),
    "invariants": ("discriminant identity, minimality, c-invariants, j-invariant", ("invariants",)),
    "local": ("reduction type and Kodaira symbol at each bad prime, conductor, Tamagawa product",
              ("reduction", "conductor", "tamagawa-product")),
    "torsion": ("rational torsion subgroup: point-count gcd, else Nagell-Lutz", ("torsion",)),
    "image-mod8": ("order, det-condition subgroup, and fixed points of the mod-8 image", ("mod8",)),
    "image-modl": ("mod-l surjectivity certificates for each l in the list", ("surjectivity",)),
    "lvalue": ("L(E,1), real period, and the reconstructed rational ratio", ("lvalue-ratio",)),
    "linv": ("log(q)/ord(q) invariant at each split multiplicative prime", ("linv",)),
}


def _curve(text: str) -> WeierstrassCurve:
    try:
        return curve_from_string(text)
    except DomainError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _out_path(text: str) -> str:
    """A file path the output can be written to; the file is made only once the output is ready."""
    folder = os.path.dirname(text) or "."
    if not text or os.path.isdir(text) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write a file at {text!r}")
    return text


def _positive_int(text: str, cap: int) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if not 1 <= n <= cap:
        raise argparse.ArgumentTypeError(f"expected a positive integer up to {cap}, got {text!r}")
    return n


def _prime_list(text: str) -> tuple[int, ...]:
    cap = CERTIFICATE_L_CAP
    try:
        primes = {int(s) for s in text.split(",") if s.strip()}
    except ValueError:
        primes = {0}
    # the certificate takes odd primes only: at l = 2 it raises a DomainError
    if not primes or not all(3 <= l <= cap and is_prime(l) for l in primes):
        raise argparse.ArgumentTypeError(f"expected a comma list of primes from 3 to {cap}, got {text!r}")
    return tuple(sorted(primes))


# The input envelope: the largest value each option accepts.  The layers take
# larger values; the caps bound what one CLI call can cost.
CERTIFICATE_L_CAP = 47  # of the primes in --l-list
PRIME_BOUND_CAP = 10**6  # of --prime-bound
# Of --terms.  At the cap, with N = 3265006, `lvalue` runs in about 4 s on a
# 2-vCPU x86-64 container (the sweep to 10^6 is most of it).
TERMS_CAP = 1_000_000
# Of --padic-digits.  A split prime with v_p(j) = -1 needs as many fixed-point
# steps, the k-th a Horner pass over k terms mod p^(k + 1).  On a 2-vCPU x86-64
# container `linv` at the cap took 0.5 s at p = 71 and 2.4 s at p = 8964467;
# the cost grows with log p.
DIGITS_CAP = 250

# LedgerOptions field -> (argument type, metavar), in field order
_OPTION_ARGS = {"prime_bound": (partial(_positive_int, cap=PRIME_BOUND_CAP), "N"),
                "l_list": (_prime_list, "L1,L2,..."),
                "terms": (partial(_positive_int, cap=TERMS_CAP), "M"),
                "padic_digits": (partial(_positive_int, cap=DIGITS_CAP), "D")}


def _add_options(view: argparse.ArgumentParser, names) -> None:
    defaults = LedgerOptions()
    view.add_argument("--curve", type=_curve, default=DEFAULT_CURVE, metavar="a1,a2,a3,a4,a6",
                      help=f"Weierstrass coefficients (default {DEFAULT_CURVE})")
    view.add_argument("--out", type=_out_path, metavar="PATH", help="write output to PATH instead of stdout")
    for name in names:
        kind, metavar = _OPTION_ARGS[name]
        view.add_argument("--" + name.replace("_", "-"), type=kind, default=getattr(defaults, name),
                          metavar=metavar)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecledger", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ecledger {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, checks) in VIEWS.items():
        reads = {f for check, _, fields in CHECKS if checks is None or check in checks for f in fields}
        view = sub.add_parser(name, help=help_text)
        _add_options(view, [f for f in _OPTION_ARGS if f in reads])
        view.add_argument("--format", choices=("json", "text"), default="text")
    count = sub.add_parser("count", help="point counts and Frobenius traces for good primes up to the bound")
    _add_options(count, ("prime_bound",))
    return parser


def _options(args) -> LedgerOptions:
    """The fields the view parsed; the rest keep defaults that its checks never read."""
    return LedgerOptions(**{k: v for k, v in vars(args).items() if k in _OPTION_ARGS})


def _emit(args, text: str) -> None:
    """Write the output; a write that fails (a full device, say) exits 2, not 1,
    which would read "not verified"."""
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as err:
        print(f"ecledger: error: cannot write {args.out or 'stdout'!r}: {err.strerror}", file=sys.stderr)
        sys.exit(2)


def _count(args) -> int:
    lines = [f"{'p':>6} {'#E(F_p)':>9} {'a_p':>5}  class"]
    for p, ap in frobenius_table(args.curve, args.prime_bound).items():
        kind = "supersingular" if ap % p == 0 else "ordinary"
        lines.append(f"{p:>6} {p + 1 - ap:>9} {ap:>5}  {kind}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "count":
        return _count(args)
    report = run_ledger(args.curve, _options(args), VIEWS[args.command][1])
    _emit(args, emit_report(report, "json-text" if args.format == "json" else "human-text"))
    return 0 if report.overall == VERIFIED else 1


if __name__ == "__main__":
    sys.exit(main())
