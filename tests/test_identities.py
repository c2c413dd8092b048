"""Tests for the identity verifiers, the extractor, and the exact solver."""

import random
from fractions import Fraction as F

import pytest

from macmahon.identities import (
    GENPOLYS,
    GeneratorPoly,
    NoRepresentationError,
    _compare_even_series,
    _generating_rhs,
    _solve_exact,
    express_in_generators,
    extract_polynomials,
    format_generator_poly,
    lemma_combinatorial_check,
    verify_exp_quasi_shuffle,
    verify_geng22,
    verify_main_a,
    verify_main_c,
    zeta_two_power,
)
from macmahon import qseries
from macmahon.qseries import bernoulli, eisenstein, eisenstein_odd, macmahon_a, macmahon_c, \
    multiple_divisor_series
from macmahon.series import (
    LAMBDAS,
    RATIONALS,
    LambdaPoly,
    Series,
    arcsin_series,
    lift_rationals,
    series_ring,
)


def lifted_x_route(gen_vals, x_order, inner, prefactor):
    """The generating right-hand side built literally in X, every rational factor lifted.

    The same route as ``test_straight_x_grading_agrees``, with exp and
    composition taken from their definitions (sum f^n/n!, Horner) so that it
    shares no algorithm with the library's Y-graded fast path.
    """
    s = lift_rationals(arcsin_series(x_order).dilate(F(1, 2)) * 2, inner)
    phi_coeffs = [inner.zero] * (x_order + 1)
    for j in range(1, x_order // 2 + 1):
        phi_coeffs[2 * j] = gen_vals[j] * F(1 if j % 2 else -1, j)
    phi = Series(phi_coeffs, inner)
    inner_arg = Series.constant(phi[x_order], x_order, inner)
    for i in range(x_order - 1, -1, -1):
        inner_arg = inner_arg * s + phi[i]
    rhs = power = Series.constant(inner.one, x_order, inner)
    for n in range(1, x_order + 1):
        power = power * inner_arg / n
        rhs = rhs + power
    if prefactor:
        u = (arcsin_series(x_order + 1).dilate(F(1, 2)) * 2).odd_part()
        pre = [F(0)] * (x_order + 1)
        for j in range(x_order // 2 + 1):
            pre[2 * j] = u[j]
        rhs = lift_rationals(Series(pre), inner) * rhs
    return rhs


class TestMainIdentities:
    def test_verify_a_small_window(self):
        report = verify_main_a(12, 8)
        assert report.ok
        assert report.params == {"q_order": 12, "x_order": 8}

    def test_verify_c_small_window(self):
        assert verify_main_c(12, 8).ok

    def test_verified_at_smaller_windows_too(self):
        for q, x in ((8, 6), (6, 4), (3, 2)):
            assert verify_main_a(q, x).ok
            assert verify_main_c(q, x).ok

    def test_window_validation(self):
        with pytest.raises(ValueError):
            verify_main_a(10, 7)  # odd x-order
        with pytest.raises(ValueError):
            verify_main_a(0, 4)
        with pytest.raises(ValueError):
            verify_main_c(10, 0)

    def test_mismatch_reporting(self):
        # doctor one coefficient and check the first-difference coordinates
        ring = series_ring(RATIONALS, 5)
        a = Series([ring.one, eisenstein(2, 5), ring.zero], ring)
        wrong = eisenstein(2, 5) + Series([0, 0, 0, 1, 0, 0])
        b = Series([ring.one, wrong, ring.zero], ring)
        report = _compare_even_series("probe", {"q_order": 5, "x_order": 4}, a, b)
        assert report.status == "mismatch"
        assert report.mismatch.coords == {"x_exp": 2, "q_exp": 3}
        assert 0 <= report.mismatch.coords["q_exp"] <= 5

    def test_straight_x_grading_agrees(self):
        # build the right-hand side literally in X (odd and even slots both
        # present) and check it reproduces 1 + sum A_r X^{2r} with vanishing
        # odd coefficients; this pins the even-graded fast path to the
        # unoptimized formula
        from macmahon.series import arcsin_series, lift_rationals

        q_order, x_order = 8, 6
        inner = series_ring(RATIONALS, q_order)
        s = lift_rationals(arcsin_series(x_order).dilate(F(1, 2)) * 2, inner)
        phi_coeffs = [inner.zero] * (x_order + 1)
        for j in range(1, x_order // 2 + 1):
            phi_coeffs[2 * j] = eisenstein(2 * j, q_order) * F(1 if j % 2 else -1, j)
        inner_exp = Series(phi_coeffs, inner).compose(s).exp()
        pre_coeffs = [F(0)] * (x_order + 1)
        u = (arcsin_series(x_order + 1).dilate(F(1, 2)) * 2).odd_part()
        for j in range(x_order // 2 + 1):
            pre_coeffs[2 * j] = u[j]
        rhs = lift_rationals(Series(pre_coeffs), inner) * inner_exp
        for r in range(x_order // 2 + 1):
            expected = macmahon_a(r, q_order) if r else Series.constant(F(1), q_order)
            assert rhs[2 * r] == expected
        for odd_exp in range(1, x_order + 1, 2):
            assert rhs[odd_exp] == inner.zero


class TestOneChainPerWindow:
    """verify_main_* build A_1..A_r (C_1..C_r) in one DP pass with one check."""

    @pytest.fixture
    def dp_calls(self, monkeypatch):
        calls = []
        rows = qseries._divisor_chain_rows

        def counted(parts, order, odd):
            calls.append((parts, order, odd))
            return rows(parts, order, odd)

        monkeypatch.setattr(qseries, "_divisor_chain_rows", counted)
        return calls

    @pytest.mark.parametrize("verify, odd", [(verify_main_a, False), (verify_main_c, True)])
    def test_one_dp_pass(self, dp_calls, verify, odd):
        assert verify(30, 16).ok
        assert dp_calls == [((2,) * 8, 30, odd)]

    @pytest.mark.parametrize("verify", [verify_main_a, verify_main_c])
    def test_verdicts_unchanged(self, verify):
        for q, x in ((3, 2), (8, 6), (20, 10), (40, 20)):
            report = verify(q, x)
            assert report.status == "verified"
            assert report.params == {"q_order": q, "x_order": x}

    def test_rows_are_the_single_series(self):
        for r in (1, 2, 5):
            assert qseries._macmahon_chain(r, 25, odd=False) == \
                [macmahon_a(k, 25) for k in range(1, r + 1)]
            assert qseries._macmahon_chain(r, 25, odd=True) == \
                [macmahon_c(k, 25) for k in range(1, r + 1)]

    def test_geng22_one_dp_pass(self, dp_calls):
        assert verify_geng22(9, 12).ok
        assert dp_calls == [((2,) * 4, 12, False)]


class TestFastRhsAgainstLiftedRoute:
    @pytest.mark.parametrize("side", ["A", "C"])
    def test_q_series_window(self, side):
        q_order, x_order = 12, 8
        inner = series_ring(RATIONALS, q_order)
        gen = eisenstein if side == "A" else eisenstein_odd
        gens = {j: gen(2 * j, q_order) for j in range(1, x_order // 2 + 1)}
        fast = _generating_rhs(gens, x_order // 2, inner, prefactor=(side == "A"))
        slow = lifted_x_route(gens, x_order, inner, prefactor=(side == "A"))
        assert fast.order == x_order // 2
        assert all(fast[r] == slow[2 * r] for r in range(x_order // 2 + 1))
        assert all(slow[k] == inner.zero for k in range(1, x_order + 1, 2))

    @pytest.mark.parametrize("side", ["A", "C"])
    def test_extracted_polynomials(self, side):
        r_max = 4
        prefix = "G" if side == "A" else "Go"
        gens = {j: GeneratorPoly.generator(f"{prefix}{2 * j}") for j in range(1, r_max + 1)}
        slow = lifted_x_route(gens, 2 * r_max, GENPOLYS, prefactor=(side == "A"))
        assert extract_polynomials(side, r_max) == [slow[2 * r] for r in range(1, r_max + 1)]
        assert all(slow[k] == GENPOLYS.zero for k in range(1, 2 * r_max + 1, 2))


class TestExtractPolynomials:
    def test_a_side_first_two(self):
        p1, p2 = extract_polynomials("A", 2)
        assert p1 == GeneratorPoly({(): F(1, 24), ("G2",): 1})
        assert p2 == GeneratorPoly({
            (): F(3, 640), ("G2",): F(1, 8), ("G2", "G2"): F(1, 2), ("G4",): F(-1, 2),
        })

    def test_c_side_first_two(self):
        p1, p2 = extract_polynomials("C", 2)
        assert p1 == GeneratorPoly({("Go2",): 1})
        assert p2 == GeneratorPoly({
            ("Go2",): F(1, 12), ("Go2", "Go2"): F(1, 2), ("Go4",): F(-1, 2),
        })

    def test_evaluation_reproduces_a_series(self):
        order = 30
        values = {f"G{2 * j}": eisenstein(2 * j, order) for j in (1, 2, 3)}
        one = Series.constant(F(1), order)
        for r, poly in enumerate(extract_polynomials("A", 3), start=1):
            assert poly.evaluate(values, one) == macmahon_a(r, order)

    def test_evaluation_reproduces_c_series(self):
        order = 30
        values = {f"Go{2 * j}": eisenstein_odd(2 * j, order) for j in (1, 2, 3)}
        one = Series.constant(F(1), order)
        for r, poly in enumerate(extract_polynomials("C", 3), start=1):
            assert poly.evaluate(values, one) == macmahon_c(r, order)

    def test_constant_terms_cancel(self):
        # substituting the Eisenstein constants -B_2j/(2 (2j)!) must kill the
        # q^0 part, because A_r has no constant term for r >= 1
        from math import factorial

        for r, poly in enumerate(extract_polynomials("A", 4), start=1):
            consts = {f"G{2 * j}": F(-bernoulli(2 * j), 2 * factorial(2 * j))
                      for j in range(1, r + 1)}
            assert poly.evaluate(consts, F(1)) == 0

    def test_c_side_has_no_bare_constants(self):
        for poly in extract_polynomials("C", 4):
            assert poly.constant == 0

    def test_formatting(self):
        p1, p2 = extract_polynomials("A", 2)
        names = ["G2", "G4"]
        weights = {"G2": 2, "G4": 4}
        assert format_generator_poly(p1, names, weights) == "G2 + 1/24"
        assert format_generator_poly(p2, names, weights) == \
            "1/8*G2 + 1/2*G2^2 - 1/2*G4 + 3/640"


class TestExpressInGenerators:
    def test_a1_single_generator(self):
        rep = express_in_generators(
            macmahon_a(1, 30), [("G2", 2, eisenstein(2, 30))], 2, 15)
        assert rep.poly == GeneratorPoly({(): F(1, 24), ("G2",): 1})
        assert not rep.underdetermined

    def test_a2_two_generators(self):
        gens = [("G2", 2, eisenstein(2, 60)), ("G4", 4, eisenstein(4, 60))]
        rep = express_in_generators(macmahon_a(2, 60), gens, 4, 30)
        assert rep.poly == GeneratorPoly({
            (): F(3, 640), ("G2",): F(1, 8), ("G2", "G2"): F(1, 2), ("G4",): F(-1, 2),
        })

    def test_no_generators_no_representation(self):
        with pytest.raises(NoRepresentationError):
            express_in_generators(macmahon_a(1, 30), [], 4, 15)

    def test_a2_needs_g4(self):
        with pytest.raises(NoRepresentationError):
            express_in_generators(
                macmahon_a(2, 60), [("G2", 2, eisenstein(2, 60))], 4, 30)

    def test_underdetermined_flagged(self):
        # the same series under two names gives a one-dimensional null space
        gens = [("X1", 2, eisenstein(2, 40)), ("X2", 2, eisenstein(2, 40))]
        rep = express_in_generators(macmahon_a(1, 40), gens, 2, 20)
        assert rep.underdetermined
        one = Series.constant(F(1), 40)
        values = {"X1": eisenstein(2, 40), "X2": eisenstein(2, 40)}
        assert rep.poly.evaluate(values, one) == macmahon_a(1, 40)

    def test_margin_validation(self):
        with pytest.raises(ValueError, match="monomials"):
            express_in_generators(
                macmahon_a(1, 30), [("G2", 2, eisenstein(2, 30))], 2, 11)
        with pytest.raises(ValueError, match="order"):
            express_in_generators(
                macmahon_a(1, 20), [("G2", 2, eisenstein(2, 20))], 2, 15)

    def test_duplicate_names_rejected(self):
        gens = [("G2", 2, eisenstein(2, 30)), ("G2", 2, eisenstein(2, 30))]
        with pytest.raises(ValueError):
            express_in_generators(macmahon_a(1, 30), gens, 2, 15)

    def test_solver_agrees_with_extractor_for_a3(self):
        # two independent routes: symbolic expansion of the identity vs the
        # linear solve against the raw q-expansion
        gens = [("G2", 2, eisenstein(2, 100)), ("G4", 4, eisenstein(4, 100)),
                ("G6", 6, eisenstein(6, 100))]
        rep = express_in_generators(macmahon_a(3, 100), gens, 6, 50)
        assert rep.poly == extract_polynomials("A", 3)[2]


class TestExactSolver:
    @staticmethod
    def gauss_oracle(matrix):
        # plain Fraction Gaussian elimination, written independently
        rows = [list(map(F, row)) for row in matrix]
        n = len(rows[0]) - 1
        x = [F(0)] * n
        piv = []
        r = 0
        for c in range(n):
            p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            rows[r] = [v / rows[r][c] for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            piv.append(c)
            r += 1
        for i in range(r, len(rows)):
            if rows[i][-1]:
                return None
        for i, c in enumerate(piv):
            x[c] = rows[i][-1]
        return x

    def test_against_gauss_random(self):
        rng = random.Random(321)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 5)
            matrix = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                      for _ in range(m)]
            sol = [F(rng.randint(-4, 4)) for _ in range(n)]
            aug = [row + [sum(a * s for a, s in zip(row, sol))] for row in matrix]
            expect = self.gauss_oracle(aug)
            got, _ = _solve_exact([row[:] for row in aug])
            assert expect is not None
            # both must satisfy the system (solutions may differ if singular)
            for row in aug:
                assert sum(a * g for a, g in zip(row[:-1], got)) == row[-1]

    def test_inconsistent_detected(self):
        rng = random.Random(654)
        for _ in range(20):
            n = rng.randint(1, 4)
            row = [F(rng.randint(1, 5)) for _ in range(n)]
            aug = [row + [F(1)], row + [F(2)]]
            with pytest.raises(NoRepresentationError):
                _solve_exact(aug)


class TestGeng22:
    def test_verified(self):
        report = verify_geng22(9, 10)
        assert report.ok

    def test_bigger_window(self):
        # products over L-polynomials are Kronecker products: about 0.2 s
        assert verify_geng22(15, 30).status == "verified"

    def test_depth_one_fourier_expansion(self):
        # the T^3 coefficient identity: zeta(2) + L*g(2) = L*G_2(q)
        order = 15
        zeta2 = zeta_two_power(1)
        assert zeta2 == LambdaPoly({1: F(-1, 24)})
        g2_lift = multiple_divisor_series(2, order).map_coefficients(
            lambda c: LambdaPoly({1: c}), LAMBDAS)
        lhs = g2_lift + Series.constant(zeta2, order, LAMBDAS)
        rhs = eisenstein(2, order).map_coefficients(
            lambda c: LambdaPoly({1: c}), LAMBDAS)
        assert lhs == rhs

    def test_zeta_two_powers(self):
        assert zeta_two_power(0) == LambdaPoly({0: 1})
        assert zeta_two_power(2) == LambdaPoly({2: F(1, 16 * 120)})

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_geng22(8, 10)
        with pytest.raises(ValueError):
            verify_geng22(1, 10)


class TestLemma:
    def test_by_hand(self):
        # n = 1: 1/(1! 1!) = 2/2!; n = 2: 1/(1! 3!) + 1/(3! 1!) = 1/3 = 8/4!
        assert F(1) == F(2, 2)
        assert F(1, 6) + F(1, 6) == F(8, 24)

    def test_range(self):
        assert lemma_combinatorial_check(50).ok

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma_combinatorial_check(0)


class TestExpQshReport:
    def test_verified(self):
        report = verify_exp_quasi_shuffle((2, 3), 5)
        assert report.ok
        assert report.params == {"letters": [2, 3], "n_max": 5}


class TestReports:
    def test_to_dict_round_trip_fields(self):
        report = verify_main_a(6, 4)
        d = report.to_dict()
        assert d["identity"] == "main-a"
        assert d["status"] == "verified"
        assert "mismatch" not in d
