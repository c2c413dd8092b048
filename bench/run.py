"""The macmahon benchmark: seeded closed-loop workloads with checked outputs.

Run from the root of a checkout::

    python3 bench/run.py --workload windows --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1        # all three workloads

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``windows``  verify_main_a / verify_main_c on seeded (q, X) windows;
* ``express``  ``macmahon express --target {A|C}:r --format json``;
* ``suite``    small verify and numeric CLI checks in one long-lived process.

Each workload runs in one worker process (``worker.py``), one op at a time,
against the library in this checkout's ``src``.  Every op's output is checked
by the benchmark's own oracles (``checks.py``).

``--trace 0`` measures the end-to-end metrics: operations per second,
median and 90th-percentile op time, the share of ops that passed, set-up
time (median over several fresh worker launches) and peak resident memory.
Times are nominal seconds: wall seconds scaled by the host's speed at the
moment, as measured by a reference unit timed between ops (``worker.py``)
and, for set-up, by a reference interpreter launch.
``--trace 1`` instead replays a fixed number of whole cycles twice, untraced
and then with every layer wrapped (``spans.py``), and reports per-layer
self time and work counts plus the tracing overhead; the spans are written
to ``.bench_out/``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give every
metric with its unit and sample count, and a run record (git commit, Python
and numpy versions, CPU count, thread settings, seed and op-list digest).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

#: Fresh worker launches timed for ``setup_s``, besides the measured worker.
SETUP_PROBES = 6

#: Seconds a worker may take beyond its measured time before it is killed.
WORKER_GRACE_S = 120

#: A fresh interpreter importing a fixed set of modules, and the time it
#: takes to get ready on the nominal machine.  Each set-up time is scaled by
#: REF_LAUNCH_NOMINAL_S / (time of a reference launch just before it), which
#: cancels most of the host's drift in start-up speed.
REF_LAUNCH = "import argparse, fractions, json, numpy; print('ready', flush=True)"
REF_LAUNCH_NOMINAL_S = 0.15

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONOPTIMIZE", None)
    return env


def _time_to_ready(cmd: list, timeout: float) -> tuple:
    """Start ``cmd``; return (seconds until it prints ``ready``, its last output line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{cmd[1]} exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{cmd[1]} failed (exit {proc.returncode}):\n{first}{err.strip()}")
    lines = rest.strip().splitlines()
    return ready, (lines[-1] if lines else None)


def _launch(workload: str, seed: int, *extra: str, timeout: float) -> tuple:
    """Start a worker; return (set-up seconds, its result or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    setup, last = _time_to_ready(cmd, timeout)
    return setup, (json.loads(last) if last else None)


def _setup_scale() -> float:
    """REF_LAUNCH_NOMINAL_S over the time of one reference launch now."""
    return REF_LAUNCH_NOMINAL_S / _time_to_ready([sys.executable, "-c", REF_LAUNCH], 60)[0]


def _quantile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _outcome(ops: list) -> tuple:
    """(attempted, failed, correct): a timed-out op fails but gave no wrong answer."""
    errors = [op["error"] for op in ops if op["error"] is not None]
    return len(ops), len(errors), not any(not e.startswith("timeout") for e in errors)


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced run: returns (metrics, samples, attempted, failed, correct, worker result).

    Times are the workers' nominal seconds (see ``worker.REF_UNIT_NOMINAL_S``).
    """
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        scale = _setup_scale()
        raw_setups.append(_launch(workload, seed, "--setup-only", timeout=60)[0])
        setups.append(raw_setups[-1] * scale)
    scale = _setup_scale()
    setup, result = _launch(workload, seed, "--seconds", str(seconds),
                            timeout=seconds + WORKER_GRACE_S)
    raw_setups.append(setup)
    setups.append(setup * scale)

    ops = result["ops"]
    times = [op["nominal_s"] for op in ops]
    attempted, failed, correct = _outcome(ops)
    ok = attempted - failed
    p50, p90 = statistics.median(times), _quantile(times, 90)
    metrics = {
        "ops_per_s": {"value": ok / sum(times), "unit": "1/s"},
        "op_s.p50": {"value": p50, "unit": "s"},
        "op_s.p90": {"value": p90, "unit": "s"},
        "ok_frac": {"value": ok / attempted, "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    wall = [op["seconds"] for op in ops]
    samples = {
        "ops_per_s": f"{ok} ops; wall {ok / result['wall_s']:.4g}/s over {result['wall_s']:.2f} s",
        "op_s.p50": f"{attempted} ops; wall {statistics.median(wall):.4g} s",
        "op_s.p90": f"{attempted} ops, {sum(t > p90 for t in times)} above; "
                    f"wall {_quantile(wall, 90):.4g} s",
        "ok_frac": f"{ok} of {attempted} ops",
        "setup_s": f"{len(setups)} launches; wall {statistics.median(raw_setups):.4g} s",
        "peak_rss_mb": "1 worker",
    }
    return metrics, samples, attempted, failed, correct, result


def trace(workload: str, seed: int) -> tuple:
    """Traced run over fixed whole cycles: returns (metrics, samples, attempted, failed, correct, result)."""
    count = workloads.TRACE_CYCLES[workload] * workloads.cycle_length(workload)
    _, plain = _launch(workload, seed, "--count", str(count), timeout=WORKER_GRACE_S)
    spans_file = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json.gz"
    _, traced = _launch(workload, seed, "--count", str(count), "--trace", str(spans_file),
                        timeout=WORKER_GRACE_S)
    ops = traced["ops"]
    f = traced["speed_factor"]
    plain_s = sum(op["nominal_s"] for op in plain["ops"])
    traced_s = sum(op["nominal_s"] for op in ops)
    metrics = {name: {"value": m["value"] * f if m["unit"] == "s" else m["value"],
                      "unit": m["unit"]} for name, m in traced["layers"].items()}
    metrics["trace.op_total_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1, "unit": "ratio"}
    samples = {name: f"{count} ops" for name in metrics}
    return (metrics, samples, *_outcome(ops), traced)


def _attribution(result: dict) -> list:
    """Lines giving, per op kind, the spans with the largest self time."""
    totals = {}
    for op in result["ops"]:
        totals[op["kind"]] = totals.get(op["kind"], 0.0) + op["seconds"]
    lines = []
    for kind, selfs in sorted(result["by_kind"].items()):
        if kind not in totals:
            continue
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:4]
        shares = ", ".join(f"{name} {100 * s / totals[kind]:.0f}%" for name, s in top)
        lines.append(f"  {kind:<13} {totals[kind]:8.3f} s wall: {shares}")
    return lines


def _record(workload: str, seed: int, seconds: float, traced: bool, result: dict) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
        "git_commit": _git_commit(),
        "python": platform.python_version(), "numpy": result.get("numpy"),
        "nproc": os.cpu_count(), "optimize": sys.flags.optimize,
        "threads": {var: "1" for var in THREAD_VARS},
        "op_digest": result["digest"],
        "speed_factor": result["speed_factor"],
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple:
    measured = (trace(workload, seed) if traced else measure(workload, seed, seconds))
    metrics, samples, attempted, failed, correct, result = measured
    print(f"== {workload} (seed {seed}, {'traced' if traced else 'untraced'})")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']:<6} [{samples[name]}]")
    if traced:
        print("  self time by op kind, as a share of that kind's op time:")
        print("\n".join(_attribution(result)))
    for op in result["ops"]:
        if op["error"]:
            print(f"  FAILED {op['kind']}: {op['error']}")
    print("record " + json.dumps(_record(workload, seed, seconds, traced, result)))
    return metrics, attempted, failed, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run with python -O, which strips asserts", file=sys.stderr)
        return 1
    if not (ROOT / "src" / "macmahon" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 1

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            m, a, f, c = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted, failed, correct = attempted + a, failed + f, correct and c
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
