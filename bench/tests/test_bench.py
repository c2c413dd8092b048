"""Tests of the benchmark itself: op generation, output checks and span arithmetic.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import contextlib
import io
import json
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import checks
import spans
import workloads
from conftest import BENCH_DIR

import macmahon
import macmahon.cli
from macmahon.identities import Mismatch, VerdictReport


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = macmahon.cli.main(argv)
    return code, out.getvalue()


# -- op generation ------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert workloads.digest(a) == workloads.digest(workloads.generate(workload, 7))
    b = workloads.generate(workload, 8)
    assert a != b
    assert workloads.digest(a) != workloads.digest(b)


def test_suite_options_survive_negative_values():
    ops = workloads.generate("suite", 11, cycles=20)
    taus = [a for op in ops for a in op["cli"] if a.startswith("--tau=")]
    assert any(t.startswith("--tau=-") for t in taus)
    argv = next(op["cli"] for op in ops
                if any(a.startswith("--tau=-") for a in op["cli"]) and "monotangent" in op["cli"])
    code, out = _cli(argv)
    assert code == 0
    assert checks.check({"cli": argv}, (code, out), checks.ExactOracle()) is None


# -- output checks --------------------------------------------------------------


def test_oracles_agree_with_the_library():
    oracle = checks.ExactOracle()
    for r in (1, 2, 3):
        assert oracle.macmahon("A", r, 25) == list(macmahon.macmahon_a(r, 25).coeffs)
        assert oracle.macmahon("C", r, 25) == list(macmahon.macmahon_c(r, 25).coeffs)
    for k in (2, 4, 6):
        assert oracle.generator(f"G{k}", 20) == list(macmahon.eisenstein(k, 20).coeffs)
        assert oracle.generator(f"Go{k}", 20) == list(macmahon.eisenstein_odd(k, 20).coeffs)


@pytest.mark.parametrize("target", ["A:2", "C:3"])
def test_express_check_passes_and_catches_one_changed_coefficient(target):
    argv = ["express", "--target", target, "--format", "json"]
    op = {"cli": argv}
    code, out = _cli(argv)
    oracle = checks.ExactOracle()
    assert checks.check(op, (code, out), oracle) is None

    envelope = json.loads(out)
    term = envelope["payload"]["terms"][0]
    term["coefficient"] = str(Fraction(term["coefficient"]) + Fraction(1, 7))
    assert checks.check(op, (code, json.dumps(envelope)), oracle) is not None

    envelope = json.loads(out)
    envelope["payload"]["constant"] = str(Fraction(envelope["payload"]["constant"]) * 2 + 1)
    assert checks.check(op, (code, json.dumps(envelope)), oracle) is not None


def test_express_check_rejects_failure_and_garbage():
    op = {"cli": ["express", "--target", "A:2", "--format", "json"]}
    oracle = checks.ExactOracle()
    assert checks.check(op, (2, ""), oracle) == "exit code 2"
    assert "malformed" in checks.check(op, (0, "not json"), oracle)


def test_mismatch_verdicts_fail():
    op = {"api": "verify_main_a", "q_order": 10, "x_order": 4}
    good = VerdictReport("main-a", {"q_order": 10, "x_order": 4}, "verified")
    bad = VerdictReport("main-a", {"q_order": 10, "x_order": 4}, "mismatch",
                        Mismatch({"x_exp": 2, "q_exp": 3}, "1", "2"))
    assert checks.check(op, good, None) is None
    assert "mismatch" in checks.check(op, bad, None)
    wrong_window = VerdictReport("main-a", {"q_order": 9, "x_order": 4}, "verified")
    assert checks.check(op, wrong_window, None) is not None

    argv = ["verify", "--identity", "lemma", "--n-max=20", "--format", "json"]
    code, out = _cli(argv)
    assert checks.check({"cli": argv}, (code, out), None) is None
    envelope = json.loads(out)
    envelope["payload"]["reports"][0]["status"] = "mismatch"
    assert checks.check({"cli": argv}, (0, json.dumps(envelope)), None) is not None


def test_numeric_checks_use_their_own_closed_forms():
    argv = ["numeric", "--check", "multitangent", "--ks=2,2", "--tau=0.1,0.9",
            "--cutoff=10000", "--format", "json"]
    code, out = _cli(argv)
    assert checks.check({"cli": argv}, (code, out), None) is None
    envelope = json.loads(out)
    envelope["payload"]["ratio_target"] *= 1.001
    assert checks.check({"cli": argv}, (0, json.dumps(envelope)), None) is not None

    argv = ["numeric", "--check", "limit", "--r=2", "--grid-k=4..10", "--format", "json"]
    code, out = _cli(argv)
    assert checks.check({"cli": argv}, (code, out), None) is None
    envelope = json.loads(out)
    envelope["payload"]["tolerance"] = 0.5
    assert "looser" in checks.check({"cli": argv}, (0, json.dumps(envelope)), None)


# -- spans ----------------------------------------------------------------------------


def _clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_a_nested_span_tree():
    # op [0, 10]: a [1, 6] holding b [2, 3] and a recursive a [3, 5]; c [7, 9]
    rec = spans.Recorder(clock=_clock([0, 1, 2, 3, 3, 5, 6, 7, 9, 10]))
    op, a, b, c = (rec.name_id(n) for n in ("op", "a", "b", "c"))
    s_op = rec.open(op)
    s_a = rec.open(a)
    rec.close(rec.open(b))
    rec.close(rec.open(a))
    rec.close(s_a)
    rec.close(rec.open(c))
    rec.close(s_op)

    assert spans.self_times(rec) == [10 - 5 - 2, 5 - 1 - 2, 1, 2, 2]
    summary = spans.summarize(rec)
    assert summary["a"] == {"calls": 2, "self_s": 4, "total_s": 5}
    assert summary["op"]["total_s"] == 10
    assert sum(v["self_s"] for v in summary.values()) == 10
    assert spans.self_by_op_kind(rec, {-1: "k"})["k"]["c"] == 2


def test_rebind_patches_every_binding():
    def original():
        return 1

    mods = [types.ModuleType(f"m{i}") for i in range(3)]
    mods[0].f = original
    mods[1].alias = original
    mods[2].f = lambda: 2
    changed = spans.rebind(original, "wrapped", mods)
    assert sorted(attr for _, attr in changed) == ["alias", "f"]
    assert mods[0].f == mods[1].alias == "wrapped"
    assert mods[2].f() == 2


def test_install_wraps_every_import_binding_and_uninstalls():
    import macmahon.identities
    import macmahon.qseries

    original = macmahon.qseries.macmahon_a
    rec = spans.Recorder()
    inst = spans.install(rec)
    try:
        wrapped = macmahon.qseries.macmahon_a
        assert wrapped is not original
        for module in (macmahon, macmahon.identities, macmahon.cli):
            assert module.macmahon_a is wrapped
        _cli(["express", "--target", "A:2", "--format", "json"])
        names = {rec.names[n] for n in rec.name}
        assert {"cli.main", "qseries.macmahon_a", "qseries.multiple_divisor_series",
                "identities.express_in_generators", "series.mul.d1"} <= names
        assert rec.counters["series.mul.d1.coeff_products"] > 0
    finally:
        inst.uninstall()
    for module in (macmahon, macmahon.qseries, macmahon.identities, macmahon.cli):
        assert module.macmahon_a is original
    assert "__mul__" in macmahon.series.Series.__dict__
    assert macmahon.series.Series.__mul__.__module__ == "macmahon.series"


def test_layer_metrics_cover_the_declared_metrics():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in declared["per_layer"]}
    produced = set(spans.layer_metrics({}, {})) | {"trace.op_total_s", "trace.overhead_frac"}
    assert per_layer == produced


# -- the runner -------------------------------------------------------------------------


def test_runner_refuses_optimized_python():
    proc = subprocess.run([sys.executable, "-O", str(BENCH_DIR / "run.py"),
                           "--workload", "windows", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "-O" in proc.stderr
    assert proc.stdout == ""


def test_op_cap_records_a_timeout_and_goes_on(monkeypatch):
    import time
    import worker

    monkeypatch.setattr(worker, "OP_CAP_S", 0.05)

    def execute(i, op):
        if op == "slow":
            time.sleep(1)
        return op

    records, wall, units = worker.run_ops(["slow", "fast"], 2, None, execute)
    assert records[0][3].startswith("timeout")
    assert records[1][2] == "fast" and records[1][3] is None
    assert 0.05 <= wall < 1 and len(units) >= 1
