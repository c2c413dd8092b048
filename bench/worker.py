"""One benchmark worker process: import the library, generate the ops, run them.

Started by ``run.py``; not meant to be run by hand.  The worker prints
``ready`` as soon as the library is imported and the op list exists (the
end of set-up), then, unless ``--setup-only`` is given, runs ops in a
closed loop (one op at a time, no threads) and prints one JSON line with
the per-op results, in wall and in nominal seconds.

Each op runs under a wall-clock cap (SIGALRM); an op that hits it is
recorded as failed and the loop goes on.  Outputs are checked after the
loop, so the checks take no time out of the measured run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Wall-clock cap of one op, in seconds.
OP_CAP_S = 20.0

#: Seconds of ops between two timed reference units.
PROBE_EVERY_S = 0.25

#: Time of one reference unit on the nominal machine.  Op times are also
#: reported scaled by REF_UNIT_NOMINAL_S / (median of the units timed just
#: before and after the op): seconds on a machine that runs the unit in
#: exactly this long.  The host's speed drifts by tens of percent within
#: seconds, the same for the library and for the unit, so the scaled times
#: are far steadier than wall times.
REF_UNIT_NOMINAL_S = 0.006


class OpTimeout(Exception):
    """An op ran past :data:`OP_CAP_S`."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_CAP_S:g} s")


def import_library():
    """Import ``macmahon`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "macmahon" / "__init__.py").is_file():
        raise SystemExit(f"no library source at {src / 'macmahon'}")
    sys.path.insert(0, str(src))
    import macmahon
    import macmahon.cli

    if Path(macmahon.__file__).resolve().parent != (src / "macmahon").resolve():
        raise SystemExit(f"imported macmahon from {macmahon.__file__}, not from {src}")
    return macmahon, macmahon.cli


def reference_unit() -> float:
    """Wall time of one fixed piece of pure-Python exact arithmetic.

    It exercises what the library's kernels spend their time on (Fraction
    products and sums) and no library code, so it measures the speed the
    host gives this process at the moment.
    """
    t0 = time.perf_counter()
    row = [Fraction(i, i + 1) for i in range(1, 50)]
    acc = Fraction(0)
    for x in row:
        for y in row[:25]:
            acc += x * y
    return time.perf_counter() - t0


def run_ops(ops, count, seconds, execute):
    """Run ops in order (wrapping around) until ``count`` ops or ``seconds`` have passed.

    ``execute(index, op)`` runs one op.  Between ops, a reference unit is
    timed every :data:`PROBE_EVERY_S`.  Returns ``(records, wall, units)``:
    per op ``(index, seconds, output, error, units timed before it)``, the
    loop's wall time less the reference units, and the unit times.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    records, units = [], [reference_unit()]
    t_start = last_probe = time.perf_counter()
    probing = 0.0  # seconds spent on reference units inside the loop
    i = 0
    while (count is None or i < count) and (
            seconds is None or time.perf_counter() - t_start - probing < seconds):
        op = ops[i % len(ops)]
        output, error = None, None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            output = execute(i, op)
        except OpTimeout as exc:
            error = f"timeout: {exc}"
        except Exception as exc:  # any failure of the library is a failed op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        records.append((i, t1 - t0, output, error, len(units)))
        i += 1
        if t1 - last_probe >= PROBE_EVERY_S:
            units.append(reference_unit())
            probing += units[-1]
            last_probe = time.perf_counter()
    return records, time.perf_counter() - t_start - probing, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--trace", metavar="SPANS_FILE",
                        help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("refusing to run with python -O: it strips asserts")

    macmahon, cli = import_library()
    sys.path.insert(0, str(BENCH_DIR))
    import checks
    import workloads

    ops = workloads.generate(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        op_span = recorder.name_id("op")

    def execute(i, op):
        if recorder is None:
            return workloads.execute(op, macmahon, cli)
        recorder.op_id = i
        span = recorder.open(op_span)
        try:
            return workloads.execute(op, macmahon, cli)
        finally:
            recorder.close(span)

    records, wall, units = run_ops(ops, args.count, args.seconds, execute)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    oracle = checks.ExactOracle()
    results = []
    monomials = 0
    for i, seconds, output, error, k in records:
        op = ops[i % len(ops)]
        if error is None:
            error = checks.check(op, output, oracle)
        if recorder is not None and error is None and op.get("cli", [""])[0] == "express":
            payload = json.loads(output[1])["payload"]
            monomials += len(payload["terms"]) + (payload["constant"] != "0")
        local_unit = statistics.median(units[max(0, k - 2):k + 2])
        results.append({"kind": workloads.kind(op), "seconds": seconds,
                        "nominal_s": seconds * REF_UNIT_NOMINAL_S / local_unit, "error": error})

    out = {
        "wall_s": wall,
        "speed_factor": REF_UNIT_NOMINAL_S / statistics.median(units),
        "ops": results,
        "peak_rss_mb": peak_rss_kb / 1024,
        "digest": workloads.digest(ops),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if recorder is not None:
        recorder.counters["identities.express.monomials"] = monomials
        recorder.counters["quasishuffle.cache_entries"] = len(
            getattr(macmahon.HARMONIC, "_cache", ()))
        summary = spans.summarize(recorder)
        kinds = {r[0]: workloads.kind(ops[r[0] % len(ops)]) for r in records}
        out["layers"] = spans.layer_metrics(summary, recorder.counters)
        out["by_kind"] = spans.self_by_op_kind(recorder, kinds)
        os.makedirs(os.path.dirname(os.path.abspath(args.trace)), exist_ok=True)
        recorder.dump(args.trace)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
