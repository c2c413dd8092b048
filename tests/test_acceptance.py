"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure report).  Tolerances and windows are pinned here, not configurable.
"""

import json
import math
import random
from fractions import Fraction as F

from macmahon.cli import main as cli_main
from macmahon.identities import (
    GeneratorPoly,
    express_in_generators,
    extract_polynomials,
    lemma_combinatorial_check,
    verify_geng22,
    verify_main_a,
    verify_main_c,
)
from macmahon.numerics import lipschitz_value, limit_check, monotangent, multitangent
from macmahon.oracles import nested_divisor_series, partition_oracle
from macmahon.qseries import eisenstein, eisenstein_odd, macmahon_a, macmahon_c
from macmahon.quasishuffle import HARMONIC
from macmahon.series import Series


def check(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {number:2d}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_01_main_identity_a():
    report = verify_main_a(40, 20)
    check(1, "A-side generating identity exact at q_order=40, x_order=20",
          report.ok, report.status)


def test_02_main_identity_c():
    report = verify_main_c(40, 20)
    check(2, "C-side generating identity exact at q_order=40, x_order=20",
          report.ok, report.status)


def test_03_triple_oracle_agreement():
    ok = True
    first_bad = ""
    for r in range(1, 6):
        a = macmahon_a(r, 30)
        ga = nested_divisor_series((2,) * r, 30)
        c = macmahon_c(r, 30)
        gc = nested_divisor_series((2,) * r, 30, odd=True)
        for n in range(31):
            if not (a[n] == ga[n] == partition_oracle(r, n)):
                ok, first_bad = False, f"A r={r} n={n}"
                break
            if not (c[n] == gc[n] == partition_oracle(r, n, odd=True)):
                ok, first_bad = False, f"C r={r} n={n}"
                break
    check(3, "product formula, nested enumeration and oracle agree (r<=5, N<=30)",
          ok, first_bad or "three independent routes, both parities")


def test_04_a1_is_shifted_g2():
    ok = macmahon_a(1, 100) == eisenstein(2, 100) + F(1, 24)
    check(4, "A_1 = G_2 + 1/24 exactly to q-order 100", ok)


def test_05_closed_forms_r2():
    a2_expected = GeneratorPoly({
        (): F(3, 640), ("G2",): F(1, 8), ("G2", "G2"): F(1, 2), ("G4",): F(-1, 2),
    })
    c2_expected = GeneratorPoly({
        ("Go2",): F(1, 12), ("Go2", "Go2"): F(1, 2), ("Go4",): F(-1, 2),
    })
    a_polys = extract_polynomials("A", 2)
    c_polys = extract_polynomials("C", 2)
    structural = a_polys[1] == a2_expected and c_polys[1] == c2_expected

    order = 60
    one = Series.constant(F(1), order)
    g_vals = {"G2": eisenstein(2, order), "G4": eisenstein(4, order)}
    go_vals = {"Go2": eisenstein_odd(2, order), "Go4": eisenstein_odd(4, order)}
    evaluated = (a_polys[1].evaluate(g_vals, one) == macmahon_a(2, order)
                 and c_polys[1].evaluate(go_vals, one) == macmahon_c(2, order))
    check(5, "A_2 and C_2 closed forms match and reproduce q-expansions to order 60",
          structural and evaluated,
          "A_2 = 3/640 + G2/8 + G2^2/2 - G4/2; C_2 = Go2/12 + Go2^2/2 - Go4/2")


def test_06_a3_in_weight_six_generators():
    order = 120
    gens = [("G2", 2, eisenstein(2, order)),
            ("G4", 4, eisenstein(4, order)),
            ("G6", 6, eisenstein(6, order))]
    a3 = macmahon_a(3, order)
    rep = express_in_generators(a3, gens, weight_bound=6, q_order=60)
    one = Series.constant(F(1), order)
    values = {name: series for name, _, series in gens}
    ok = rep.poly.evaluate(values, one) == a3 and not rep.underdetermined
    check(6, "A_3 is a weight-<=6 polynomial in G2, G4, G6, verified to q-order 120",
          ok, str(rep.poly))


def test_07_weight_graded_generating_identity():
    report = verify_geng22(9, 20)
    check(7, "weight-graded identity exact at t_order=9, q_order=20, L-homogeneous",
          report.ok, report.status)


def test_08_quasi_shuffle_properties():
    rng = random.Random(1234)

    def rand_word(max_len=4):
        return tuple(rng.randint(1, 5) for _ in range(rng.randint(0, max_len)))

    cases = 0
    ok = True
    while cases < 200 and ok:
        u, v = rand_word(), rand_word()
        w = rand_word(3)
        ok = (HARMONIC.product(u, v) == HARMONIC.product(v, u)
              and HARMONIC.product(HARMONIC.product(u, v), HARMONIC.word(*w))
              == HARMONIC.product(HARMONIC.word(*u), HARMONIC.product(v, w)))
        cases += 1
    exp_ok = (HARMONIC.exp_identity_check(2, 5) is None
              and HARMONIC.exp_identity_check(3, 5) is None)
    check(8, "quasi-shuffle commutativity/associativity (200 cases) and exp identity",
          ok and exp_ok, f"{cases} random cases; letters z2, z3 to n=5")


def test_09_lemma_exact_and_numeric():
    exact = lemma_combinatorial_check(50).ok
    tau = 1j
    psi2 = monotangent(2, tau, 10**4).value
    r22 = multitangent((2, 2), tau, 10**4).value / psi2
    r222 = multitangent((2, 2, 2), tau, 10**4).value / psi2
    e22 = abs(r22 - math.pi**2 / 3) / (math.pi**2 / 3)
    e222 = abs(r222 - 2 * math.pi**4 / 45) / (2 * math.pi**4 / 45)
    check(9, "lemma exact for n<=50; depth-2/3 ratios within 1e-6/1e-5 at cutoff 1e4",
          exact and e22 < 1e-6 and e222 < 1e-5,
          f"rel errors {e22:.2e}, {e222:.2e}")


def test_10_lipschitz_cross_check():
    worst = 0.0
    for k in (2, 3, 4):
        for tau in (1j, 0.25 + 1j, 0.1 + 0.8j):
            lattice = monotangent(k, tau, 10**5).value
            qside = lipschitz_value(k, tau)
            worst = max(worst, abs(lattice - qside) / abs(qside))
    check(10, "lattice vs q-side monotangent within 1e-8 (k in {2,3,4}, three tau)",
          worst < 1e-8, f"worst rel error {worst:.2e}")


def test_11_limits_toward_q_equals_one():
    grid = [1 - 2.0**-k for k in range(4, 11)]
    r1 = limit_check(1, grid)
    r2 = limit_check(2, grid)
    check(11, "(1-q)^2 A_1 -> pi^2/6 within 0.1%; (1-q)^4 A_2 -> pi^4/120 within 1%",
          r1.rel_error < 1e-3 and r2.rel_error < 1e-2,
          f"rel errors {r1.rel_error:.2e}, {r2.rel_error:.2e}")


def test_12_cli_contracts(capsys):
    # exit-code contract: 0 verified, 1 usage, 2 mismatch
    ok_all = cli_main(["verify", "--all"]) == 0
    usage = cli_main(["series", "--name", "A", "--r", "0", "--order", "3"]) == 1
    mismatch = cli_main(["express", "--target", "A:2", "--generators", "G2"]) == 2

    code = cli_main(["series", "--name", "A", "--r", "2", "--order", "6",
                     "--format", "json"])
    out = capsys.readouterr().out.splitlines()[-1]
    payload = json.loads(out)["payload"]
    round_trip = (code == 0
                  and [str(F(c)) for c in payload["coefficients"]]
                  == payload["coefficients"]
                  and payload["coefficients"] == ["0", "0", "0", "1", "3", "9", "15"])
    check(12, "CLI exit codes and JSON round-trip; `verify --all` returns 0",
          ok_all and usage and mismatch and round_trip)
