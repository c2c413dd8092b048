"""Seeded op lists for the three benchmark workloads, and how to run one op.

An op is a plain JSON-able dict, so a run is fully described by the list
the seed generates (see :func:`digest`).  ``api`` ops call a verifier of the
public library API; ``cli`` ops call the CLI entry point in-process.

Every workload is a sequence of *cycles*.  A cycle holds one op per *rung*
of the workload's cost ladder, in seeded order.  Each rung lists a few
near-equal-cost choices and deals them like a shuffled deck: every choice
once, in seeded order, before any repeats.  So the seed changes which ops
run and in what order, but a run holds nearly the same mix whatever the
seed.  The ladders are built so that a run of the benchmark's length holds
well over 100 ops, and so that the ops around the 50th and 90th percentile
(rungs 7/8-12/13 and 16/17-19) have similar cost: the reported p50 and p90 then
stay on one cost level from run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("windows", "express", "suite")

#: Ops generated per run; a run that gets through all of them starts over.
CYCLES = 60

#: Whole cycles replayed by a traced run, so that per-layer totals always
#: cover the same ops, whatever the speed of the program.
TRACE_CYCLES = {"windows": 3, "express": 3, "suite": 3}

# -- windows: (verifier, q_order, x_order).  Median op about (20, 8), p90
# about (28, 10), top rung (36, 12).
_A, _C = "verify_main_a", "verify_main_c"
_WINDOWS_RUNGS = (
    [[(s, q, x) for s in (_A, _C) for q in qs] for qs, x in
     (((12, 13), 4), ((14, 15), 4), ((16, 17), 4), ((14, 15), 6), ((16, 17), 6), ((18, 19), 6))]
    + [[(_A, 19, 8), (_A, 20, 8), (_C, 20, 8), (_C, 21, 8)]] * 6
    + [[(s, q, x) for s in (_A, _C) for q in qs] for qs, x in
       (((22, 23), 8), ((24, 25), 8), ((22, 23), 10))]
    + [[(_A, 26, 10), (_A, 27, 10), (_C, 27, 10), (_C, 28, 10), (_C, 29, 10)]] * 4
    + [[(s, q, 12) for s in (_A, _C) for q in (36, 37)]]
)

# -- express: (target, --q-order or None for the default).  A larger
# --q-order makes the A side's divisor-sum cross-check steeply dearer;
# rungs 16-19 are the p90 band and rung 20 the top.
_EXPRESS_RUNGS = (
    [[("C:2", None)], [("A:2", None)], [("C:2", 32), ("A:2", 36), ("C:2", 40)],
     [("C:3", None)], [("C:3", 32), ("C:3", 34)], [("A:3", None)]]
    + [[("A:3", 32), ("A:3", 33), ("C:3", 38), ("C:3", 39)]] * 6
    + [[("C:4", None)], [("A:3", 35), ("C:3", 40)], [("C:5", None), ("C:5", 32), ("C:5", 34)]]
    + [[("A:4", 28), ("A:4", 29)]] * 4
    + [[("A:5", None), ("A:4", None)]]
)

# -- suite: (command, identity or check, options); TAU is drawn per op.
TAU = object()


def _verify(identity, **opts):
    return ("verify", identity, opts)


def _numeric(check, **opts):
    return ("numeric", check, opts)


_SUITE_RUNGS = (
    [[_numeric("multitangent", ks=",".join(["2"] * d), tau=TAU, cutoff=c)
      for d in (1, 2, 3) for c in (10_000, 30_000, 100_000)]] * 2
    + [[_numeric("monotangent", k=k, tau=TAU) for k in (2, 3, 4)]] * 2
    + [[_verify("lemma", n_max=n) for n in (20, 30, 40, 50)],
       [_verify("exp-qsh", n_max=n) for n in (6, 7)],
       [_numeric("limit", r=r, grid_k="4..10") for r in (1, 2, 3)]
       + [_verify("geng22", t_order=7, q_order=q) for q in (10, 11, 12)]]
    + [[_verify("geng22", t_order=7, q_order=16), _verify("geng22", t_order=9, q_order=10),
        _numeric("limit", r=1, grid_k="4..11")]] * 6
    + [[_verify("exp-qsh", n_max=8)],
       [_verify("geng22", t_order=7, q_order=q) for q in (18, 19)]
       + [_verify("geng22", t_order=9, q_order=11)],
       [_numeric("limit", r=r, grid_k="4..11") for r in (2, 3)]]
    + [[_numeric("limit", r=1, grid_k="4..12"), _verify("geng22", t_order=11, q_order=10),
        _verify("geng22", t_order=7, q_order=22), _verify("geng22", t_order=7, q_order=23)]] * 3
    + [[_verify("exp-qsh", n_max=n) for n in (9, 10)]]
)


def _windows_op(choice, rng):
    api, q_order, x_order = choice
    return {"api": api, "q_order": q_order, "x_order": x_order}


def _express_op(choice, rng):
    target, q_order = choice
    argv = ["express", "--target", target, "--format", "json"]
    if q_order is not None:
        argv += ["--q-order", str(q_order)]
    return {"cli": argv}


def _suite_op(choice, rng):
    command, name, opts = choice
    argv = [command, "--identity" if command == "verify" else "--check", name]
    for key, value in opts.items():
        if value is TAU:  # inside the unit box around i, well away from the real axis
            value = f"{rng.uniform(-0.5, 0.5):.3f},{rng.uniform(0.7, 1.3):.3f}"
        # "--tau=-0.2,1.0": a separate "-0.2,1.0" would parse as an option
        argv.append(f"--{key.replace('_', '-')}={value}")
    return {"cli": argv + ["--format", "json"]}


_LADDERS = {
    "windows": (_WINDOWS_RUNGS, _windows_op),
    "express": (_EXPRESS_RUNGS, _express_op),
    "suite": (_SUITE_RUNGS, _suite_op),
}


def cycle_length(workload: str) -> int:
    return len(_LADDERS[workload][0])


def generate(workload: str, seed: int, cycles: int = CYCLES) -> list:
    """The op list of ``workload`` for ``seed``: ``cycles`` shuffled cycles."""
    rungs, make = _LADDERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    decks = [[] for _ in rungs]
    ops = []
    for _ in range(cycles):
        cycle = []
        for choices, deck in zip(rungs, decks):
            if not deck:
                deck.extend(rng.sample(choices, len(choices)))
            cycle.append(make(deck.pop(), rng))
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops


def digest(ops: list) -> str:
    """sha256 of the canonical JSON form of an op list."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def kind(op: dict) -> str:
    """Short label of an op, used to group ops in reports."""
    if "api" in op:
        return "main-a" if op["api"] == "verify_main_a" else "main-c"
    argv = op["cli"]
    if argv[0] == "express":
        return "express-" + argv[2][0]
    return argv[argv.index("--identity" if argv[0] == "verify" else "--check") + 1]


def execute(op: dict, macmahon, cli):
    """Run one op and return its raw output.

    ``api`` ops return the verdict report; ``cli`` ops return
    ``(exit_code, stdout)``.
    """
    if "api" in op:
        return getattr(macmahon, op["api"])(op["q_order"], op["x_order"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(op["cli"]))
    return code, out.getvalue()
