"""End-to-end tests of the command-line interface and its contracts."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import macmahon
from macmahon import cli, identities
from macmahon.cli import main
from macmahon.qseries import RouteMismatchError
from macmahon.quasimodular import canonical_form
from macmahon.series import Series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python_dash_m(*argv):
    """``python -m macmahon *argv`` in a fresh process: (exit code, stdout, stderr)."""
    src = str(Path(macmahon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "macmahon", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestSeriesCommand:
    def test_a2_json(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "A", "--r", "2",
                           "--order", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["coefficients"] == ["0", "0", "0", "1", "3", "9"]

    def test_g2_text(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "G", "--k", "2", "--order", "2")
        assert code == 0
        assert out.splitlines()[1].split(": ")[1] == "-1/24 1 3"

    def test_nested_index(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "go", "--index", "2,2",
                           "--order", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["coefficients"] == ["0", "0", "0", "0", "1", "2"]

    def test_usage_errors(self, capsys):
        assert run(capsys, "series", "--name", "A", "--r", "0", "--order", "5")[0] == 1
        assert run(capsys, "series", "--name", "G", "--k", "3", "--order", "5")[0] == 1
        assert run(capsys, "series", "--name", "g", "--order", "5")[0] == 1
        assert run(capsys, "series", "--name", "A", "--r", "1", "--order", "-2")[0] == 1
        code, _, err = run(capsys, "series", "--name", "Z", "--order", "5")
        assert code == 1

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "series", "--name", "G", "--k", "4", "--order", "8",
                        "--format", "json")
        payload = json.loads(out)["payload"]
        coeffs = payload["coefficients"]
        assert [str(Fraction(c)) for c in coeffs] == coeffs

    def test_text_and_json_agree(self, capsys):
        _, out_t, _ = run(capsys, "series", "--name", "C", "--r", "2", "--order", "8")
        _, out_j, _ = run(capsys, "series", "--name", "C", "--r", "2", "--order", "8",
                          "--format", "json")
        text_coeffs = out_t.splitlines()[1].split(": ")[1].split()
        assert text_coeffs == json.loads(out_j)["payload"]["coefficients"]


class TestVerifyCommand:
    def test_lemma(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "lemma", "--n-max", "50")
        assert code == 0
        assert "verified" in out

    def test_main_a_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "main-a",
                           "--q-order", "8", "--x-order", "6", "--format", "json")
        assert code == 0
        report = json.loads(out)["payload"]["reports"][0]
        assert report["status"] == "verified"
        assert report["params"] == {"q_order": 8, "x_order": 6}

    def test_odd_x_order_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "main-a",
                           "--q-order", "8", "--x-order", "7")
        assert code == 1
        assert "even" in err

    def test_all_small_windows(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--q-order", "8",
                           "--x-order", "4", "--t-order", "5", "--n-max", "10",
                           "--format", "json")
        assert code == 0
        reports = json.loads(out)["payload"]["reports"]
        assert [r["identity"] for r in reports] == \
            ["main-a", "main-c", "geng22", "exp-qsh", "lemma"]
        assert all(r["status"] == "verified" for r in reports)

    def test_identity_required(self, capsys):
        assert run(capsys, "verify")[0] == 1

    def test_geng22(self, capsys):
        code, _, _ = run(capsys, "verify", "--identity", "geng22",
                         "--t-order", "5", "--q-order", "8")
        assert code == 0


class TestExpressCommand:
    def test_a1_auto(self, capsys):
        code, out, _ = run(capsys, "express", "--target", "A:1",
                           "--generators", "auto")
        assert code == 0
        assert out.strip() == "G2 + 1/24"

    def test_c2_auto(self, capsys):
        code, out, _ = run(capsys, "express", "--target", "C:2",
                           "--generators", "auto")
        assert code == 0
        assert out.strip() == "1/12*Go2 + 1/2*Go2^2 - 1/2*Go4"

    def test_a2_missing_generator(self, capsys):
        code, out, _ = run(capsys, "express", "--target", "A:2",
                           "--generators", "G2")
        assert code == 2
        assert "weight bound 4" in out

    def test_a2_json_payload(self, capsys):
        code, out, _ = run(capsys, "express", "--target", "A:2",
                           "--generators", "auto", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["status"] == "ok"
        assert payload["constant"] == "3/640"
        assert payload["underdetermined"] is False
        assert {"monomial": {"G2": 2}, "coefficient": "1/2"} in payload["terms"]

    def test_a3_json_terms_follow_polynomial_order(self, capsys):
        code, out, _ = run(capsys, "express", "--target", "A:3", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        pieces = []
        for term in payload["terms"]:
            body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in term["monomial"].items())
            c = term["coefficient"]
            pieces.append(body if c == "1" else f"{c}*{body}")
        pieces.append(payload["constant"])
        assert len(pieces) == 7
        assert " + ".join(pieces).replace("+ -", "- ") == payload["polynomial"]

    def test_solve_window_is_monomials_plus_ten(self, capsys):
        # A:3 has 7 candidate monomials in G2, G4, G6 up to weight 6
        code, out, err = run(capsys, "express", "--target", "A:3", "--q-order", "16")
        assert code == 1
        assert out == ""
        assert "(7 + 10)" in err
        assert run(capsys, "express", "--target", "A:3", "--q-order", "17")[0] == 0
        code, out, _ = run(capsys, "express", "--target", "A:3", "--format", "json")
        assert code == 0
        assert json.loads(out)["parameters"]["q_order"] == 30

    def test_usage_errors(self, capsys):
        assert run(capsys, "express", "--target", "B:1")[0] == 1
        assert run(capsys, "express", "--target", "A:0")[0] == 1
        assert run(capsys, "express", "--target", "A:1",
                   "--generators", "H5")[0] == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("at", [33, 60])
    def test_doctored_target_fails_where_it_was_doctored(self, capsys, monkeypatch, fmt, at):
        # the default q_order is 30: q^33 lies past the solve window, q^60 is the last row checked
        exact = cli.macmahon_a

        def doctored(r, order):
            coeffs = list(exact(r, order).coeffs)
            coeffs[at] += 1
            return Series(coeffs)

        monkeypatch.setattr(cli, "macmahon_a", doctored)
        code, out, err = run(capsys, "express", "--target", "A:2", "--format", fmt)
        assert (code, err) == (2, "")
        reason = f"candidate representation fails re-verification at q^{at}"
        if fmt == "json":
            assert json.loads(out)["payload"]["reason"] == reason
        else:
            assert out == f"no representation of A:2 at weight bound 4: {reason}\n"

    @pytest.mark.parametrize("argv", [
        ("--target", "A:02"),
        ("--target", "C:007"),
        ("--target", "A:2", "--generators", "G2,G02,G4"),
        ("--target", "C:2", "--generators", "Go02"),
        ("--target", "C:2", "--generators", "Go2,Go04"),
    ])
    def test_names_with_leading_zeros_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "express", *argv)
        assert (code, out) == (1, "")
        assert err.startswith(("error: cannot parse target", "error: generators must look like"))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("q_order", ["-100", "-1", "0", "16"])
    def test_short_q_order_is_refused_before_any_series(self, capsys, monkeypatch, q_order):
        def no_series(*args):
            raise AssertionError("a series was built")

        for name in ("eisenstein", "eisenstein_odd", "macmahon_a", "macmahon_c"):
            monkeypatch.setattr(cli, name, no_series)
        code, out, err = run(capsys, "express", "--target", "A:3", "--q-order", q_order)
        assert (code, out) == (1, "")
        assert err == "error: q_order must be >= number of candidate monomials + 10 (7 + 10)\n"

    @pytest.mark.parametrize("argv, err", [
        (("--target", "A:20"), "at most 190 candidate monomials (q_order <= 200); "
                               "A:20 has more at weight bound 40"),
        (("--target", "A:1000000000000"), "r <= 200"),
        (("--target", "A:1000000000000", "--weight-bound", "0"), "r <= 200"),
        (("--target", "A:2", "--weight-bound", "1000000"),
         "at most 190 candidate monomials (q_order <= 200); A:2 has more at weight bound 1000000"),
        (("--target", "A:2", "--q-order", "1000000000000000000"), "--q-order <= 200"),
        (("--target", "C:2", "--generators", "Go2,G1000000000"), "generator weights <= 400"),
        (("--target", "C:11"), "at most 190 candidate monomials (q_order <= 200); "
                               "C:11 has more at weight bound 22"),
    ])
    def test_past_the_limit_is_refused_before_any_series(self, capsys, monkeypatch, argv, err):
        def refused(*args):
            raise AssertionError("built past the limit")

        for name in ("eisenstein", "eisenstein_odd", "macmahon_a", "macmahon_c",
                     "_candidate_monomials"):
            monkeypatch.setattr(cli, name, refused)
        code, out, got = run(capsys, "express", *argv)
        assert (code, out, got) == (1, "", f"error: express admits {err}\n")

    def test_limit_admits_the_documented_solves(self):
        limit = cli.EXPRESS_LIMIT - identities._SOLVE_MARGIN
        count = identities._count_candidates
        assert count(range(2, 21, 2), 20, limit) == 139  # A:10 auto
        assert count([2, 4, 6], 24, limit) == 102  # A:12 --generators G2,G4,G6
        assert count([2, 2, 4], 16, limit) == 95  # C:8 --generators G2,Go2,Go4
        assert count(range(2, 23, 2), 22, limit) == limit + 1  # A:11 auto has 195
        assert count([2, 2, 4], 20, limit) == 161  # C:10 auto, canonical
        assert count([2, 2, 4], 22, limit) == limit + 1  # C:11 auto has 203


def express_json(capsys, *argv):
    code, out, err = run(capsys, "express", *argv, "--format", "json")
    assert (code, err) == (0, "")
    return json.loads(out)


class TestExpressCanonicalC:
    """C:r with auto generators: the canonical form in G2, Go2, Go4, with no solve."""

    @pytest.mark.parametrize("r,q_order", [(2, 30), (5, 30), (6, 30), (8, 48), (10, 81)])
    def test_default_q_order_and_unique_answer(self, capsys, r, q_order):
        loaded = express_json(capsys, "--target", f"C:{r}")
        assert loaded["parameters"]["generators"] == ["G2", "Go2", "Go4"]
        assert loaded["parameters"]["q_order"] == q_order
        assert loaded["payload"]["underdetermined"] is False
        assert loaded["payload"]["verified_to_order"] == 2 * q_order

    def test_answer_is_the_canonical_form(self, capsys):
        payload = express_json(capsys, "--target", "C:6")["payload"]
        terms = {tuple(sorted(n for n, e in t["monomial"].items() for _ in range(e))):
                 Fraction(t["coefficient"]) for t in payload["terms"]}
        assert terms == canonical_form("C", 6).terms
        assert payload["constant"] == "0"

    def test_no_solve_window_floor(self, capsys, monkeypatch):
        # d_5 = 34 candidates would ask for q_order >= 44 in a solve
        def no_solve(*args):
            raise AssertionError("a linear system was solved")

        monkeypatch.setattr(cli, "express_in_generators", no_solve)
        monkeypatch.setattr(identities, "_solve_exact", no_solve)
        loaded = express_json(capsys, "--target", "C:5", "--q-order", "32")
        assert loaded["payload"]["verified_to_order"] == 64

    @pytest.mark.parametrize("r,q_order,least", [(5, 16, 17), (5, 0, 17), (8, 47, 48),
                                                 (1, 1, 2), (10, -3, 81)])
    def test_q_order_below_half_the_candidates_is_refused(self, capsys, monkeypatch,
                                                          r, q_order, least):
        def no_series(*args):
            raise AssertionError("a series was built")

        for name in ("eisenstein", "eisenstein_odd", "macmahon_a", "macmahon_c"):
            monkeypatch.setattr(cli, name, no_series)
        code, out, err = run(capsys, "express", "--target", f"C:{r}", "--q-order", str(q_order))
        assert (code, out) == (1, "")
        count = identities._count_candidates([2, 2, 4], 2 * r, 10**6)
        assert err == ("error: q_order must be >= half the number of candidate monomials, "
                       f"rounded up ({count} / 2 -> {least})\n")

    def test_least_q_order_is_admitted(self, capsys):
        # C:1 has the 3 candidates 1, G2 and Go2: q^0..q^4 covers them
        payload = express_json(capsys, "--target", "C:1", "--q-order", "2")["payload"]
        assert payload["verified_to_order"] == 4

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_light_weight_bound_names_the_heaviest_monomial(self, capsys, fmt):
        code, out, err = run(capsys, "express", "--target", "C:3", "--weight-bound", "4",
                             "--format", fmt)
        assert (code, err) == (2, "")
        reason = "C_3 in G2, Go2, Go4 has the monomial G2*Go4 of weight 6"
        if fmt == "json":
            payload = json.loads(out)["payload"]
            assert payload == {"status": "no-representation", "reason": reason,
                               "weight_bound": 4}
        else:
            assert out == f"no representation of C:3 at weight bound 4: {reason}\n"

    def test_heavier_weight_bound_keeps_the_form(self, capsys):
        light = express_json(capsys, "--target", "C:3")["payload"]
        heavy = express_json(capsys, "--target", "C:3", "--weight-bound", "1000000")["payload"]
        assert heavy == light

    @pytest.mark.parametrize("at", [40, 60])
    def test_doctored_target_fails_where_it_was_doctored(self, capsys, monkeypatch, at):
        exact = cli.macmahon_c

        def doctored(r, order):
            coeffs = list(exact(r, order).coeffs)
            coeffs[at] += 1
            return Series(coeffs)

        monkeypatch.setattr(cli, "macmahon_c", doctored)
        code, out, err = run(capsys, "express", "--target", "C:3", "--format", "json")
        assert (code, err) == (2, "")
        assert json.loads(out)["payload"]["reason"] == \
            f"candidate representation fails re-verification at q^{at}"

    def test_user_bases_and_a_auto_still_solve(self, capsys, monkeypatch):
        def no_canonical(*args):
            raise AssertionError("the canonical route was taken")

        monkeypatch.setattr(cli, "express_canonical", no_canonical)
        assert run(capsys, "express", "--target", "A:3")[0] == 0
        assert run(capsys, "express", "--target", "C:3", "--generators", "G2,Go2,Go4")[0] == 0
        assert run(capsys, "express", "--target", "C:3", "--generators", "Go2,Go4,Go6")[0] == 0


class TestNumericCommand:
    def test_monotangent_ok(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                           "--tau", "0,1", "--cutoff", "20000", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["rel_error"] <= 1e-8

    def test_default_cutoff_comes_from_the_rule(self, capsys):
        from macmahon import numerics

        tau = complex(0.2, 0.9)
        code, out, _ = run(capsys, "numeric", "--check", "monotangent", "--k", "3",
                           "--tau=0.2,0.9", "--format", "json")
        assert code == 0
        envelope = json.loads(out)
        payload = envelope["payload"]
        cutoff = numerics._monotangent_cutoff(3, tau)
        assert payload["cutoff"] == envelope["parameters"]["cutoff"] == cutoff < 100_000
        assert list(payload) == ["check", "k", "tau", "cutoff", "lattice", "q_side",
                                 "rel_error", "tail_bound", "neglected_bound", "tolerance"]
        value = numerics.monotangent(3, tau, cutoff).value
        assert payload["lattice"] == [value.real, value.imag]

    @pytest.mark.parametrize("fmt", [(), ("--format", "json")])
    def test_cutoff_100000_prints_what_the_old_default_printed(self, capsys, monkeypatch, fmt):
        # the default was 10^5 whatever k and tau
        argv = ("numeric", "--check", "monotangent", "--k", "3", "--tau=0.2,0.9", *fmt)
        explicit = run(capsys, *argv, "--cutoff", "100000")
        monkeypatch.setattr(cli, "_monotangent_cutoff", lambda k, tau: 100_000)
        assert run(capsys, *argv) == explicit

    @pytest.mark.parametrize("tau, k, code, cutoff", [
        # the lattice value is the same at cutoffs 32 and 10^5
        ("0.1,10", 170, 0, 32),
        # int(|Re tau|) + 2 is past the cap, which wins: refused as before
        ("99999.5,1", 2, 1, None),
        # int(|Re tau|) + 2 is the cap: it runs there and misses, as before
        ("99998.5,1", 2, 2, 100_000),
    ])
    def test_default_cutoff_edges_keep_their_exit_codes(self, capsys, tau, k, code, cutoff):
        got, out, err = run(capsys, "numeric", "--check", "monotangent", "--k", str(k),
                            f"--tau={tau}", "--format", "json")
        assert got == code
        if cutoff is None:
            assert (out, err) == ("", "error: cutoff too small for this depth and tau\n")
        else:
            assert json.loads(out)["payload"]["cutoff"] == cutoff

    def test_monotangent_k1_usage(self, capsys):
        assert run(capsys, "numeric", "--check", "monotangent", "--k", "1",
                   "--tau", "0,1")[0] == 1

    def test_bad_tau_usage(self, capsys):
        assert run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                   "--tau", "0,-1")[0] == 1
        assert run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                   "--tau", "nope")[0] == 1

    @pytest.mark.parametrize("check", [("monotangent", "--k", "2"),
                                       ("multitangent", "--ks", "2,2")])
    @pytest.mark.parametrize("tau", ["nan,1", "inf,1", "0,inf"])
    def test_non_finite_tau_is_exit_one(self, capsys, check, tau):
        code, out, err = run(capsys, "numeric", "--check", *check, f"--tau={tau}")
        assert code == 1
        assert out == ""
        assert err == "error: tau must be finite\n"

    def test_multitangent_ratio(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "multitangent", "--ks", "2,2",
                           "--tau", "0,1", "--cutoff", "10000", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["rel_error"] <= 1e-6

    @pytest.mark.parametrize("ks", ["2", "2,2", "2,2,2"])
    def test_multitangent_ratio_takes_psi2_from_its_own_pass(self, capsys, monkeypatch, ks):
        from macmahon import numerics

        tau, cutoff = complex(-0.3, 0.9), 16384
        depth = len(ks.split(","))
        value = numerics.multitangent((2,) * depth, tau, cutoff).value
        ratio = value / numerics.monotangent(2, tau, cutoff).value
        passes = []
        engine = numerics._tangent_engine
        monkeypatch.setattr(numerics, "_tangent_engine",
                            lambda *args: passes.append(args) or engine(*args))
        code, out, _ = run(capsys, "numeric", "--check", "multitangent", "--ks", ks,
                           "--tau=-0.3,0.9", "--cutoff", str(cutoff), "--format", "json")
        assert code == 0
        assert len(passes) == 1
        assert json.loads(out)["payload"]["ratio_to_monotangent"] == [ratio.real, ratio.imag]

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "limit", "--r", "1",
                           "--grid-k", "4..9", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["rel_error"] <= 1e-3

    def test_limit_near_q_one(self, capsys):
        # the nearest point, q = 1 - 2^-19, walks the 5M-term cap
        code, out, _ = run(capsys, "numeric", "--check", "limit", "--r", "2",
                           "--grid-k", "4..19", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert len(payload["grid"]) == 16
        assert payload["rel_error"] <= 1e-6

    def test_limit_bad_grid(self, capsys):
        assert run(capsys, "numeric", "--check", "limit", "--r", "1",
                   "--grid-k", "10..4")[0] == 1


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_args_is_usage(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("argv, out", [
        (["--version"], macmahon.__version__ + "\n"),
        (["verify", "--identity", "geng22"], "geng22: verified (t_order=9, q_order=30)\n"),
    ])
    def test_python_dash_m(self, argv, out):
        assert python_dash_m(*argv) == (0, out, "")


class TestRobustness:
    def test_verify_all_n_max_50_finishes(self, capsys):
        # --n-max is shared by lemma and exp-qsh; n = 50 once hung exp-qsh
        code, out, _ = run(capsys, "verify", "--all", "--n-max", "50", "--format", "json")
        assert code == 0
        reports = json.loads(out)["payload"]["reports"]
        assert len(reports) == 5
        assert all(r["status"] == "verified" for r in reports)

    def test_nonconvergence_is_exit_one(self, capsys):
        # q = 1 - 2^-20 needs about 8.6e7 part sizes, past the 5e6 term cap
        code, out, err = run(capsys, "numeric", "--check", "limit", "--r", "1",
                             "--grid-k", "20..20")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_route_mismatch_is_exit_two(self, capsys, monkeypatch):
        def mismatch(r, order):
            raise RouteMismatchError("product-DP", "Andrews–Rose recurrence", "k=5, n=40")

        monkeypatch.setattr(cli, "macmahon_a", mismatch)
        code, out, err = run(capsys, "series", "--name", "A", "--r", "5", "--order", "40")
        assert code == 2
        assert out == ""
        assert err.startswith("error: product-DP vs Andrews–Rose recurrence at k=5")
        assert "Traceback" not in err

    def test_recursion_error_is_exit_one(self, capsys, monkeypatch):
        def too_deep(k, order):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "eisenstein", too_deep)
        code, out, err = run(capsys, "express", "--target", "A:2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--check", "limit", "--r", "200", "--grid-k", "4..5"),
        ("--check", "monotangent", "--k", "400", "--tau", "0,1"),
        ("--check", "multitangent", "--ks", "2,2", "--tau", "0,1e-300"),
    ])
    def test_float_overflow_is_exit_one(self, capsys, argv):
        # the lattice engine's numpy float errors raise instead of warning
        error = "FloatingPointError" if argv[1] == "multitangent" else "OverflowError"
        code, out, err = run(capsys, "numeric", *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {error}: ")
        assert "Traceback" not in err

    def test_lattice_cost_cap_is_exit_one(self, capsys):
        # 2e12 + 1 lattice points are refused before any array is allocated
        code, out, err = run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                             "--tau", "0,1", "--cutoff", "1000000000000")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: depth * (2 * cutoff + 1) = 2000000000001 ")

    def test_zero_division_is_exit_one(self, capsys, monkeypatch):
        def divide(*args):
            return 1 / 0

        monkeypatch.setattr(cli, "limit_check", divide)
        code, out, err = run(capsys, "numeric", "--check", "limit", "--r", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ZeroDivisionError: ")


class TestExplicitOptionValues:
    """An option given as 0 is used as given, never replaced by its default."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--identity", "lemma", "--n-max", "0"),
        ("verify", "--identity", "exp-qsh", "--n-max", "0"),
        ("numeric", "--check", "monotangent", "--k", "2", "--cutoff", "0"),
        ("numeric", "--check", "multitangent", "--ks", "2,2", "--cutoff", "0"),
        ("express", "--target", "A:2", "--q-order", "0"),
    ])
    def test_zero_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("--check", "monotangent", "--k", "2"),
        ("--check", "multitangent", "--ks", "2,2", "--cutoff", "1000"),
        ("--check", "limit", "--r", "1"),
    ])
    def test_zero_tolerance_is_honoured(self, capsys, argv):
        code, out, _ = run(capsys, "numeric", *argv, "--tol", "0", "--format", "json")
        assert code == 2
        payload = json.loads(out)["payload"]
        assert payload["tolerance"] == 0
        assert payload["rel_error"] > 0

    def test_zero_weight_bound_has_no_representation(self, capsys):
        code, out, _ = run(capsys, "express", "--target", "A:2", "--weight-bound", "0",
                           "--format", "json")
        assert code == 2
        payload = json.loads(out)["payload"]
        assert (payload["status"], payload["weight_bound"]) == ("no-representation", 0)

    def test_negative_weight_bound_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "express", "--target", "A:2", "--weight-bound", "-2")
        assert (code, out) == (1, "")
        assert err == "error: --weight-bound must be >= 0\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-8"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, tol):
        code, out, err = run(capsys, "numeric", "--check", "limit", "--r", "1", f"--tol={tol}")
        assert (code, out) == (1, "")
        assert err == "error: --tol must be a finite number >= 0\n"


# every subcommand in text and JSON, argparse errors, --help and --version,
# the CLI's own usage errors, library ValueErrors and an exit-2 verdict
CALLS = [
    ("series", "--name", "A", "--r", "2", "--order", "5"),
    ("series", "--name", "A", "--r", "2", "--order", "5", "--format", "json"),
    ("series", "--name", "go", "--index", "2,2", "--order", "6", "--format", "json"),
    ("series", "--name", "G", "--k", "3"),
    ("series", "--name", "Z"),
    ("verify", "--identity", "lemma", "--n-max", "20"),
    ("verify", "--identity", "main-a", "--q-order", "8", "--x-order", "6",
     "--format", "json"),
    ("verify", "--identity", "exp-qsh", "--n-max", "3", "--format", "json"),
    ("verify", "--identity", "geng22", "--t-order", "5", "--q-order", "8",
     "--format", "json"),
    ("verify", "--all", "--q-order", "8", "--x-order", "4", "--t-order", "5",
     "--n-max", "10", "--format", "json"),
    ("verify",),
    ("verify", "--identity", "main-a", "--x-order", "7"),
    ("verify", "--identity", "main-a", "--x-order", "7", "--format", "json"),
    ("express", "--target", "A:2"),
    ("express", "--target", "C:2", "--format", "json"),
    ("express", "--target", "A:2", "--generators", "G2"),
    ("express", "--target", "A:2", "--generators", "G2", "--format", "json"),
    ("express", "--target", "B:1"),
    ("express", "--target", "A:1", "--generators", "H5", "--format", "json"),
    ("express",),
    ("numeric", "--check", "monotangent", "--k", "2", "--cutoff", "1000"),
    ("numeric", "--check", "monotangent", "--k", "2", "--cutoff", "1000",
     "--format", "json"),
    ("numeric", "--check", "multitangent", "--ks", "2,2", "--cutoff", "1000"),
    ("numeric", "--check", "multitangent", "--ks", "2,2", "--cutoff", "1000",
     "--format", "json"),
    ("numeric", "--check", "limit", "--r", "1", "--grid-k", "4..9"),
    ("numeric", "--check", "limit", "--r", "1", "--grid-k", "4..9", "--format", "json"),
    ("numeric", "--check", "limit", "--r", "1", "--tol", "0", "--format", "json"),
    ("numeric", "--check", "monotangent", "--k", "2", "--cutoff", "1000000000000"),
    ("numeric", "--check", "limit", "--r", "1", "--tol", "nan"),
    ("numeric", "--check", "bessel"),
    ("--help",),
    ("series", "--help"),
    ("--version",),
    (),
    ("frobnicate",),
]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def two_passes():
    """Every call of ``CALLS`` in one process, twice, at a fixed help width."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        return [[call(argv) for argv in CALLS] for _ in range(2)]


class TestManyCallsInOneProcess:
    def test_both_passes_agree(self, two_passes):
        first, second = two_passes
        for argv, a, b in zip(CALLS, first, second):
            assert a == b, argv

    def test_every_parameter_error_is_one_error_line(self, two_passes):
        for argv, (code, out, err) in zip(CALLS, two_passes[0]):
            if code == 1 and not err.startswith("usage: "):
                assert out == "", argv
                assert err.startswith("error: ") and err.count("\n") == 1, argv

    @pytest.mark.parametrize("argv", [
        ("series", "--name", "A", "--r", "2", "--order", "5", "--format", "json"),
        ("series", "--name", "Z"),
        ("verify", "--identity", "main-a", "--x-order", "7"),
        ("express", "--target", "A:2", "--generators", "G2", "--format", "json"),
        ("--version",),
    ])
    def test_matches_a_fresh_process(self, two_passes, argv):
        assert python_dash_m(*argv) == two_passes[1][CALLS.index(argv)]

    def test_json_envelope(self, two_passes):
        checked = 0
        for argv, (code, out, _) in zip(CALLS, two_passes[0]):
            if "json" not in argv or code == 1:
                continue
            loaded = json.loads(out)
            assert list(loaded) == ["version", "command", "parameters", "payload"], argv
            assert loaded["version"] == macmahon.__version__
            assert loaded["command"] == argv[0]
            assert json.dumps(loaded) + "\n" == out, argv
            checked += 1
        assert checked == 12

    def test_second_call_builds_no_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        assert call(["--version"])[0] == 0
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert call(["series", "--name", "G", "--k", "2", "--order", "2"]) == \
            (0, "G2 to order 2\ncoefficients: -1/24 1 3\n", "")
        assert built == []
