"""Ledger benchmark: end-to-end and per-layer figures for `ecledger ledger`.

    python3 ledger_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout, never from an installed copy.  Workloads (closed loop, one
ledger in flight, one process plus at most one child at a time):

* ``warm-ledger``: one process, GL2 classes for l = 3, 5 warmed in set-up,
  then ``run_ledger`` + ``emit_report(..., "json-text")`` over E1, E2 and a
  seeded stream of curves from the coefficient box (see curves.py).  Library
  and batch use; repeated Frobenius sweeps dominate.  l = 7 is left out
  because its class enumeration (about 70 s) would sit in every run's
  set-up; cold-e1 measures it.
* ``cold-e1``: ``python -m ecledger.cli ledger --format json`` on E1 at CLI
  defaults, a fresh process per ledger, so GL2(F_7) enumeration and its
  tables are on the critical path.  Its input does not depend on the seed.

There is no high-precision workload (terms=20000, 512 bits): on a shared
2-core host its short runs moved by up to a quarter from run to run, and the
time a benchmark pass may take goes to cold-e1's 80 s ledgers.  The lvalue
and padic layers are still traced on both workloads.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (spans.py).  Outputs are
checked after the timed region (checks.py); a ledger that raises, times out
or fails a check counts in ``failed``, and a wrong number of GL2(F_l)
subgroup classes fails every ledger that relied on them.  Files the run
keeps (cold report digest, untraced cold times, spans) live in
``.ledger_bench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
from curves import E1, box_curves

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".ledger_bench"

SETUP_SAMPLES = 5  # set-up is measured this many times per run; the median is reported
WARM_OPTIONS = {"l_list": (3, 5)}
LEDGER_TIMEOUT_S = 60  # one in-process ledger
RUN_LIMIT_S = 170  # a whole run, children included
COLD_ARGS = ["ledger", "--format", "json"]
P90_MIN_LEDGERS = 100  # ten ledgers beyond the 90th percentile
START = time.perf_counter()

# Set-up in a fresh interpreter: the import plus the GL2 warm-up for each l.
SETUP_PROBE = """
import sys, time
t = time.perf_counter()
import ecledger.cli
from ecledger.galois_image import enumerate_subgroups_gl2
for l in sys.argv[1:]:
    enumerate_subgroups_gl2(int(l))
print(time.perf_counter() - t)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path, or stop with an error."""
    if not (SRC / "ecledger" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'ecledger'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))


class LedgerTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise LedgerTimeout(f"ledger exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed_ledger(C, opts) -> tuple[str | None, str | None, float]:
    """(JSON text, error, seconds) of run_ledger + emit_report on one curve."""
    ledger = sys.modules["ecledger.ledger"]  # looked up per call, so wrappers apply
    t0 = time.perf_counter()
    try:
        with time_limit(LEDGER_TIMEOUT_S):
            text = ledger.emit_report(ledger.run_ledger(C, opts), "json-text")
    except Exception as err:  # any exception is a failed ledger, reported below
        return None, repr(err), time.perf_counter() - t0
    return text, None, time.perf_counter() - t0


def run_child(argv: list[str], out_path: Path, timeout: float) -> tuple[float, int | None, float]:
    """(seconds, exit code or None on timeout, peak RSS in MB) of one child."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out)
        deadline = t0 + timeout
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.002)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, None if timed_out else proc.returncode, usage.ru_maxrss / 1024


def probe_setup(l_list) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, *map(str, l_list)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
    )
    return float(out.stdout)


def probe_cold_setup() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ecledger.cli"], cwd=ROOT, env=child_env(), check=True)
    return time.perf_counter() - t0


def code_key() -> str:
    h = hashlib.sha256(" ".join(COLD_ARGS).encode())
    for path in sorted((SRC / "ecledger").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Measured:
    """What one run measured, before its outputs are checked."""

    results: list  # (coefficients, JSON text or None, error or None), one per ledger run
    times: list[float]  # seconds of each untraced ledger
    loop_s: float  # wall time of the untraced ledger loop
    setup: list[float]  # seconds of each set-up sample
    peak_rss_mb: float
    classes: dict[int, int] = field(default_factory=dict)  # GL2(F_l) subgroup classes the ledgers relied on
    layer: tuple | None = None  # traced run: (metrics, table-only metrics)


def run_warm(seed: int, seconds: float, trace: bool) -> Measured:
    l_list = WARM_OPTIONS["l_list"]
    setup = [probe_setup(l_list) for _ in range(SETUP_SAMPLES)]
    tracer = spans.Tracer() if trace else None
    t0 = time.perf_counter()
    import ecledger.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    if tracer:
        tracer.install()
    # The same warm-up as the set-up probes, untimed here: the probes time it
    # in fresh interpreters, which this process no longer is.
    classes = {l: len(sys.modules["ecledger.galois_image"].enumerate_subgroups_gl2(l)) for l in l_list}
    if tracer:
        tracer.uninstall()

    from ecledger.curve import WeierstrassCurve
    from ecledger.ledger import LedgerOptions

    opts = LedgerOptions(**WARM_OPTIONS)
    results, times, traced = [], [], []
    start = end = time.perf_counter()
    for i, coeffs in enumerate(box_curves(seed)):
        C = WeierstrassCurve(*coeffs)
        text, err, dt = timed_ledger(C, opts)
        end = time.perf_counter()
        results.append((coeffs, text, err))
        times.append(dt)
        if tracer:  # the same curve again, traced, so the overhead is paired
            tracer.ledger = i
            tracer.install()
            text, err, dt = timed_ledger(C, opts)
            tracer.uninstall()
            results.append((coeffs, text, err))
            traced.append(dt)
        if time.perf_counter() >= start + seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = Measured(results, times, end - start, setup, peak, classes)
    if tracer:
        measured.layer = spans.layer_metrics(tracer.spans, len(traced), import_s, traced, times)
        write_json("spans-warm-ledger.json", tracer.spans)
    return measured


def run_cold(seconds: float, trace: bool, state: dict) -> Measured:
    limit = START + RUN_LIMIT_S
    out = STATE / "cold-e1.out"
    untraced = [sys.executable, "-m", "ecledger.cli", *COLD_ARGS]
    results, times, rss = [], [], []

    def ledger(argv):
        dt, code, mb = run_child(argv, out, limit - time.perf_counter())
        err = "timed out" if code is None else f"exit code {code}" if code else None
        results.append((E1, out.read_text(), err))
        return dt, mb

    if trace:
        # The whole run's budget goes to the one traced ledger.  The overhead
        # is taken against untraced times saved by earlier runs of this code.
        spans_path = STATE / "spans-cold-e1.json"
        spans_path.unlink(missing_ok=True)
        dt, _ = ledger([sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *COLD_ARGS])
        try:
            with open(spans_path) as fh:
                traced = json.load(fh)
        except (OSError, ValueError) as err:  # the child died or was killed before writing
            coeffs, text, problem = results[-1]
            results[-1] = (coeffs, text, problem or f"no spans written: {err!r}")
            traced = {"spans": [], "cli_import_s": 0.0}
        layer = spans.layer_metrics(traced["spans"], 1, traced["cli_import_s"], [dt], state["untraced_s"])
        return Measured(results, [], 0.0, [], 0.0, spans.enumerated_classes(traced["spans"]), layer)

    setup = [probe_cold_setup() for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    while True:
        dt, mb = ledger(untraced)
        times.append(dt)
        rss.append(mb)
        now = time.perf_counter()
        if now >= start + seconds or now + max(times) > limit:
            break
    state["untraced_s"] = (state["untraced_s"] + times)[-10:]
    return Measured(results, times, now - start, setup, max(rss))


def load_cold_state() -> dict:
    """Digest and untraced times of earlier cold runs of this same code."""
    key = code_key()
    try:
        with open(STATE / "cold-e1.json") as fh:
            state = json.load(fh)
        if state.get("key") == key:
            return state
    except (OSError, ValueError):
        pass
    return {"key": key, "report_sha256": None, "untraced_s": []}


def check(results, cold_state: dict | None, classes: dict[int, int]) -> int:
    """Number of failed ledgers; each failure is described on stderr.

    ``classes`` are the GL2(F_l) subgroup class counts the ledgers relied
    on; a wrong count fails every ledger.
    """
    failed = 0
    oracle = {}
    class_problems = checks.class_problems(classes)
    for coeffs, text, err in results:
        problems = [err] if err else checks.report_problems(coeffs, text)
        problems += class_problems
        if coeffs not in oracle:
            oracle[coeffs] = checks.oracle_problems(coeffs)
        problems += oracle[coeffs]
        if cold_state is not None and text:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if cold_state["report_sha256"] is None:
                cold_state["report_sha256"] = digest
            elif digest != cold_state["report_sha256"]:
                problems.append("report bytes differ from an earlier run of the same code")
        if problems:
            failed += 1
            print(f"FAILED ledger for {coeffs}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def write_json(name: str, payload) -> None:
    with open(STATE / name, "w") as fh:
        json.dump(payload, fh)


def print_table(rows: dict, title: str) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["warm-ledger", "cold-e1"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    STATE.mkdir(exist_ok=True)

    cold = args.workload == "cold-e1"
    cold_state = load_cold_state() if cold else None
    if cold:
        measured = run_cold(args.seconds, bool(args.trace), cold_state)
    else:
        measured = run_warm(args.seed, args.seconds, bool(args.trace))
    failed = check(measured.results, cold_state, measured.classes)
    if cold:
        write_json("cold-e1.json", cold_state)
    attempted = len(measured.results)

    print(f"workload {args.workload} seed {args.seed}: {attempted} ledgers, {failed} failed")
    found = ", ".join(f"l={l}: {n}" for l, n in sorted(measured.classes.items())) or "none seen"
    print(f"GL2(F_l) subgroup classes {found} (expected {checks.EXPECTED_CLASSES})")
    if args.trace:
        metrics, extra = measured.layer
        print_table({**metrics, **extra}, "per-layer (traced run; end-to-end figures come from --trace 0):")
        shares = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        shares["cli.self_s"] = extra["cli.self_s"]
        total = sum(v for v, _ in shares.values()) or 1.0
        print_table({k: (100 * v / total, "%") for k, (v, _) in shares.items()}, "self-time shares:")
        overhead = extra.get("trace.overhead_s")
        print("  tracing overhead: " + (f"{overhead[0]:+.4f} s" if overhead else "no untraced run of this code saved yet"))
    else:
        times = measured.times
        metrics = {
            "ledger_s_p50": (statistics.median(times), "s"),
            "ledgers_per_s": (len(times) / measured.loop_s, "1/s"),
            "setup_s": (statistics.median(measured.setup), "s"),
            "peak_rss_mb": (measured.peak_rss_mb, "MB"),
        }
        summary = {**metrics, "failed_frac": (failed / attempted, "ratio")}
        if len(times) >= P90_MIN_LEDGERS:
            summary["ledger_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")
        print_table(summary, "end-to-end:")
        if len(times) < P90_MIN_LEDGERS:
            print(f"  ledger_s_p90 omitted: {len(times)} ledgers, {P90_MIN_LEDGERS} needed")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
