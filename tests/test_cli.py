"""End-to-end tests of the command-line interface and its contracts."""

import json
from fractions import Fraction

import pytest

from macmahon import cli
from macmahon.cli import main
from macmahon.qseries import RouteMismatchError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_usage_errors(self, capsys):
        assert run(capsys, "express", "--target", "B:1")[0] == 1
        assert run(capsys, "express", "--target", "A:0")[0] == 1
        assert run(capsys, "express", "--target", "A:1",
                   "--generators", "H5")[0] == 1


class TestNumericCommand:
    def test_monotangent_ok(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                           "--tau", "0,1", "--cutoff", "20000", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["rel_error"] <= 1e-8

    def test_monotangent_k1_usage(self, capsys):
        assert run(capsys, "numeric", "--check", "monotangent", "--k", "1",
                   "--tau", "0,1")[0] == 1

    def test_bad_tau_usage(self, capsys):
        assert run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                   "--tau", "0,-1")[0] == 1
        assert run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                   "--tau", "nope")[0] == 1

    def test_multitangent_ratio(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "multitangent", "--ks", "2,2",
                           "--tau", "0,1", "--cutoff", "10000", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["rel_error"] <= 1e-6

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "numeric", "--check", "limit", "--r", "1",
                           "--grid-k", "4..9", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["rel_error"] <= 1e-3

    def test_limit_near_q_one(self, capsys):
        # the nearest point, q = 1 - 2^-20, walks the 5M-term cap
        code, out, _ = run(capsys, "numeric", "--check", "limit", "--r", "2",
                           "--grid-k", "4..20", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert len(payload["grid"]) == 17
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


class TestRobustness:
    def test_verify_all_n_max_50_finishes(self, capsys):
        # --n-max is shared by lemma and exp-qsh; n = 50 once hung exp-qsh
        code, out, _ = run(capsys, "verify", "--all", "--n-max", "50", "--format", "json")
        assert code == 0
        reports = json.loads(out)["payload"]["reports"]
        assert len(reports) == 5
        assert all(r["status"] == "verified" for r in reports)

    def test_nonconvergence_is_exit_one(self, capsys):
        code, out, err = run(capsys, "numeric", "--check", "monotangent", "--k", "2",
                             "--tau", "0,0.000001")
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
    @pytest.mark.filterwarnings("ignore:.*encountered in power:RuntimeWarning")
    def test_float_overflow_is_exit_one(self, capsys, argv):
        code, out, err = run(capsys, "numeric", *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: OverflowError: ")
        assert "Traceback" not in err

    def test_zero_division_is_exit_one(self, capsys, monkeypatch):
        def divide(*args):
            return 1 / 0

        monkeypatch.setattr(cli, "limit_check", divide)
        code, out, err = run(capsys, "numeric", "--check", "limit", "--r", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ZeroDivisionError: ")
