"""Tests for the identity verifiers, the extractor, and the exact solver."""

import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from macmahon.identities import (
    GENPOLYS,
    GeneratorPoly,
    Mismatch,
    NoRepresentationError,
    _first_mismatch,
    _generating_rhs,
    _solve_exact,
    express_in_generators,
    extract_polynomials,
    format_generator_poly,
    generator_names,
    lemma_combinatorial_check,
    verify_exp_quasi_shuffle,
    verify_geng22,
    verify_main_a,
    verify_main_c,
    zeta_two_power,
)
from macmahon import identities, qseries
from macmahon.qseries import bernoulli, eisenstein, eisenstein_odd, macmahon_a, macmahon_c, \
    multiple_divisor_series
from macmahon.series import (
    RATIONALS,
    Series,
    series_ring,
)

from lambda_poly import LAMBDAS, LambdaPoly
from series_reference import arcsin_series, dilate, map_coefficients


def lift_rationals(f, ring):
    """Embed a rational series into ``ring`` coefficientwise (c -> c * one)."""
    return map_coefficients(f, lambda c: ring.one * c, ring)


def lifted_x_route(gen_vals, x_order, inner, prefactor):
    """The generating right-hand side built literally in X, every rational factor lifted.

    The same route as ``test_straight_x_grading_agrees``, with exp and
    composition taken from their definitions (sum f^n/n!, Horner) so that it
    shares no algorithm with the library's Y-graded fast path.
    """
    s = lift_rationals(dilate(arcsin_series(x_order), F(1, 2)) * 2, inner)
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
        u = (dilate(arcsin_series(x_order + 1), F(1, 2)) * 2).odd_part()
        pre = [F(0)] * (x_order + 1)
        for j in range(x_order // 2 + 1):
            pre[2 * j] = u[j]
        rhs = lift_rationals(Series(pre), inner) * rhs
    return rhs


def l_tracked_geng22(t_order, q_order):
    """Both sides of the weight-graded identity as series in T over q-series in L.

    Every rational q-series is lifted to L-polynomial coefficients with
    ``map_coefficients`` and carries its power of L, and Z(T) and its powers
    are built in T itself: the route that tracks L instead of setting
    L = 1, and that multiplies q-series over L-polynomials.
    """
    inner = series_ring(LAMBDAS, q_order)
    half = (t_order - 1) // 2

    def lift(f, e):
        return map_coefficients(f, lambda c: LambdaPoly({e: c}), LAMBDAS)

    arg = [inner.zero] * (t_order + 1)
    for k in range(1, half + 1):
        arg[2 * k] = lift(identities.eisenstein(2 * k, q_order), k) * F(1 if k % 2 else -1, k)
    lhs = Series(arg, inner).exp().shift(1)
    z_coeffs = [inner.zero] * (t_order + 1)
    for j in range(half + 1):
        z_j = LambdaPoly({j: identities.zeta_two_power(j)})
        z_coeffs[2 * j + 1] = Series.constant(z_j, q_order, LAMBDAS)
    z = Series(z_coeffs, inner)
    z_sq = z * z
    rhs = power = z
    chain = identities._macmahon_chain(half, q_order, odd=False)
    for l in range(1, half + 1):
        power = power * z_sq
        rhs = rhs + power * lift(chain[l - 1], l)
    return lhs, rhs


def doctored_chain(chain):
    """``_macmahon_chain`` with one wrong q^5 coefficient of A_2 = g({2}^2)."""
    def doctored(*args, **kwargs):
        out = chain(*args, **kwargs)
        out[1] = out[1] + Series([0] * 5 + [1] + [0] * (out[1].order - 5))
        return out
    return doctored


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

    def test_verify_a_bigger_window(self):
        assert verify_main_a(200, 40).status == "verified"

    def test_verify_c_bigger_window(self):
        assert verify_main_c(200, 40).status == "verified"

    def test_verify_a_biggest_window(self):
        # the largest windows pinned here
        assert verify_main_a(400, 60).status == "verified"

    def test_verify_c_biggest_window(self):
        assert verify_main_c(400, 60).status == "verified"

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
        report = _first_mismatch("probe", {"q_order": 5, "x_order": 4}, a, b, "x_exp", 2)
        assert report.status == "mismatch"
        assert report.mismatch.coords == {"x_exp": 2, "q_exp": 3}
        assert 0 <= report.mismatch.coords["q_exp"] <= 5

    def test_straight_x_grading_agrees(self):
        # build the right-hand side literally in X (odd and even slots both
        # present) and check it reproduces 1 + sum A_r X^{2r} with vanishing
        # odd coefficients; this pins the even-graded fast path to the
        # unoptimized formula
        q_order, x_order = 8, 6
        inner = series_ring(RATIONALS, q_order)
        s = lift_rationals(dilate(arcsin_series(x_order), F(1, 2)) * 2, inner)
        phi_coeffs = [inner.zero] * (x_order + 1)
        for j in range(1, x_order // 2 + 1):
            phi_coeffs[2 * j] = eisenstein(2 * j, q_order) * F(1 if j % 2 else -1, j)
        inner_exp = Series(phi_coeffs, inner).compose(s).exp()
        pre_coeffs = [F(0)] * (x_order + 1)
        u = (dilate(arcsin_series(x_order + 1), F(1, 2)) * 2).odd_part()
        for j in range(x_order // 2 + 1):
            pre_coeffs[2 * j] = u[j]
        rhs = lift_rationals(Series(pre_coeffs), inner) * inner_exp
        for r in range(x_order // 2 + 1):
            expected = macmahon_a(r, q_order) if r else Series.constant(F(1), q_order)
            assert rhs[2 * r] == expected
        for odd_exp in range(1, x_order + 1, 2):
            assert rhs[odd_exp] == inner.zero


def with_bernoulli(monkeypatch, k, factor):
    """Scale bernoulli(k) by ``factor`` for every caller, the Eisenstein constants included."""
    true_bernoulli = qseries.bernoulli
    monkeypatch.setattr(qseries, "bernoulli",
                        lambda j: true_bernoulli(j) * factor if j == k else true_bernoulli(j))


def mismatch(identity, q_order, x_order, coords, lhs, rhs):
    return {"identity": identity, "params": {"q_order": q_order, "x_order": x_order},
            "status": "mismatch", "mismatch": {"coords": coords, "lhs": lhs, "rhs": rhs}}


class TestTwoFactors:
    """verify_main_a checks the constant factor and the q-part as two exact identities.

    The expected reports are those of the single-identity check this one
    replaced, byte for byte.
    """

    def test_constant_factor_is_one_to_y60(self):
        # (2/X) asin(X/2) exp(sum (-1)^(j-1)/j G_2j(0) S^2j) = 1, built in Y
        # from arcsin_series, and the library's form of it in U = S^2
        y = 60
        u = (dilate(arcsin_series(2 * y + 1), F(1, 2)) * 2).odd_part()
        phi = Series([0] + [-bernoulli(2 * j) / (2 * math.factorial(2 * j)) * F(1 if j % 2 else -1, j)
                            for j in range(1, y + 1)])
        assert u * phi.compose((u * u).shift(1)).exp() == Series.constant(1, y)
        assert phi.exp() == identities._half_sinc(y)
        assert identities._even_arcsin_factor(y) == u

    @pytest.mark.parametrize("verify, identity, lhs, rhs", [
        (verify_main_a, "main-a", "10", "9"), (verify_main_c, "main-c", "3", "2")])
    def test_doctored_chain(self, monkeypatch, verify, identity, lhs, rhs):
        monkeypatch.setattr(identities, "_macmahon_chain",
                            doctored_chain(identities._macmahon_chain))
        for q, x in ((12, 8), (20, 10)):
            assert verify(q, x).to_dict() == mismatch(identity, q, x, {"x_exp": 4, "q_exp": 5},
                                                      lhs, rhs)

    @pytest.mark.parametrize("verify", [verify_main_a, verify_main_c, verify_geng22])
    def test_sigma_one_is_sieved_once(self, monkeypatch, verify):
        # G_2 (or G^o_2) and the chain check share one sigma_1 sieve; X^8
        # and T^9 both need G_2 .. G_8
        powers = []
        sieve = qseries.divisor_power_sums
        monkeypatch.setattr(qseries, "divisor_power_sums",
                            lambda power, order: powers.append(power) or sieve(power, order))
        assert (verify(9, 20) if verify is verify_geng22 else verify(20, 8)).ok
        assert sorted(powers) == [1, 3, 5, 7]

    def test_non_constant_eisenstein_coefficient(self, monkeypatch):
        # G_4 + q^3/7 enters only the q-part
        eis = identities.eisenstein
        monkeypatch.setattr(identities, "eisenstein", lambda k, q: eis(k, q) + Series(
            [0, 0, 0, F(1, 7)] + [0] * (q - 3)) if k == 4 else eis(k, q))
        assert verify_main_a(12, 8).to_dict() == mismatch(
            "main-a", 12, 8, {"x_exp": 4, "q_exp": 3}, "1", "13/14")
        assert verify_main_c(12, 8).ok

    def test_bernoulli_enters_the_constant_factor_only(self, monkeypatch):
        # the full identity first fails at q^0, where it reads A_r(0) = 0
        # against the constant factor's Y^r coefficient
        with_bernoulli(monkeypatch, 4, 2)
        assert verify_main_a(12, 8).to_dict() == mismatch(
            "main-a", 12, 8, {"x_exp": 4, "q_exp": 0}, "0", "-1/2880")
        y = 4
        u = identities._even_arcsin_factor(y)
        consts = {j: identities.eisenstein(2 * j, 3)[0] for j in range(1, y + 1)}
        phi = Series([0] + [consts[j] * F(1 if j % 2 else -1, j) for j in range(1, y + 1)])
        factor = u * phi.compose((u * u).shift(1)).exp()
        assert [factor[r] for r in range(y + 1)] == [1, 0, F(-1, 2880), factor[3], factor[4]]
        assert verify_main_c(12, 8).ok  # G^o_k has no constant term

    def test_odd_constant_term(self, monkeypatch):
        # for C the constant factor is 1 exactly when every G^o_2j(0) is 0
        odd = identities.eisenstein_odd
        monkeypatch.setattr(identities, "eisenstein_odd",
                            lambda k, q: odd(k, q) + F(1, 7) if k == 4 else odd(k, q))
        assert verify_main_c(12, 8).to_dict() == mismatch(
            "main-c", 12, 8, {"x_exp": 4, "q_exp": 0}, "0", "-1/14")

    @pytest.mark.parametrize("k, coords, lhs, rhs", [
        (4, {"x_exp": 4, "q_exp": 0}, "0", "-1/2880"),  # the constant factor fails first
        (6, {"x_exp": 4, "q_exp": 5}, "10", "9"),       # the q-part fails first
    ])
    def test_both_factors_fail(self, monkeypatch, k, coords, lhs, rhs):
        with_bernoulli(monkeypatch, k, 2)
        monkeypatch.setattr(identities, "_macmahon_chain",
                            doctored_chain(identities._macmahon_chain))
        assert verify_main_a(20, 10).to_dict() == mismatch("main-a", 20, 10, coords, lhs, rhs)

    def test_no_prefactor_on_the_verify_path(self, monkeypatch):
        def refused(*args):
            raise AssertionError("_scale_by_rationals called")

        monkeypatch.setattr(identities, "_scale_by_rationals", refused)
        assert verify_main_a(20, 10).ok and verify_main_c(20, 10).ok


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


#: User bases by their ``--generators`` text, as (name, weight) pairs.
BASES = {"G2,G4,G6": (("G2", 2), ("G4", 4), ("G6", 6))}


@functools.cache
def express_inputs(side, r, basis="auto"):
    """The generators, target and least q_order for side:r at weight bound 2r.

    ``basis`` is "auto", the CLI's default basis, or a key of ``BASES``.
    """
    names = generator_names(side, r) if basis == "auto" else BASES[basis]
    candidates, q_order = identities._candidate_monomials([w for _, w in names], 2 * r)
    gen = eisenstein if side == "A" else eisenstein_odd
    gens = [(n, w, gen(w, 2 * q_order)) for n, w in names]
    target = (macmahon_a if side == "A" else macmahon_c)(r, 2 * q_order)
    return gens, target, candidates, q_order


def monomial_expansion(gens, exps, order):
    """The q-expansion of one monomial to ``order``, by Fraction convolutions."""
    acc = [F(1)] + [F(0)] * order
    for (_, _, s), e in zip(gens, exps):
        g = s.coeffs[: order + 1]
        for _ in range(e):
            acc = [sum((acc[i] * g[k - i] for i in range(k + 1)), F(0)) for k in range(order + 1)]
    return acc


class TestExpressCheck:
    """The returned polynomial is checked exactly on every q^0..q^(2 q_order)."""

    def test_moved_coefficient_fails_at_its_first_power(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        solve = identities._solve_exact

        @hypothesis.settings(derandomize=True, database=None, max_examples=60, deadline=None)
        @hypothesis.given(st.sampled_from("AC"), st.integers(1, 3), st.data(),
                          st.fractions(max_denominator=10**6).filter(bool))
        def check(side, r, data, delta):
            gens, target, candidates, q_order = express_inputs(side, r)
            i = data.draw(st.integers(0, len(candidates) - 1), label="moved monomial")

            def moved(matrix):
                x, free = solve(matrix)
                return x[:i] + [x[i] + delta] + x[i + 1:], free

            expansion = monomial_expansion(gens, candidates[i], 2 * q_order)
            n = next(n for n, c in enumerate(expansion) if delta * c)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(identities, "_solve_exact", moved)
                with pytest.raises(NoRepresentationError,
                                   match=rf"^candidate representation fails re-verification "
                                         rf"at q\^{n}$"):
                    express_in_generators(target, gens, 2 * r, q_order)

        check()

    @pytest.mark.parametrize("side,r,basis", [(side, r, "auto") for side in "AC"
                                               for r in range(1, 5)] + [("A", 6, "G2,G4,G6")])
    def test_answer_matches_an_independent_re_expansion(self, side, r, basis):
        # the returned polynomial, re-expanded by Fraction convolutions that
        # share no code with the library's prefix table, is the target
        gens, target, _, q_order = express_inputs(side, r, basis)
        rep = express_in_generators(target, gens, 2 * r, q_order)
        order = 2 * q_order
        got = [F(0)] * (order + 1)
        for mon, c in rep.poly.terms.items():
            exps = [mon.count(name) for name, _, _ in gens]
            got = [a + c * b for a, b in zip(got, monomial_expansion(gens, exps, order))]
        assert got == list(target.coeffs[: order + 1])


class TestExpressPrefixTable:
    """Each candidate monomial's expansion is formed once, for the solve and the check."""

    @pytest.mark.parametrize("side,r,basis", [("A", 5, "auto"), ("C", 4, "auto"),
                                               ("A", 6, "G2,G4,G6"), ("A", 6, "auto"),
                                               ("C", 6, "auto")])
    def test_one_series_product_per_non_constant_candidate(self, side, r, basis, monkeypatch):
        gens, target, candidates, q_order = express_inputs(side, r, basis)
        products = 0
        mul = Series.__mul__

        def counting_mul(self, other):
            nonlocal products
            products += isinstance(other, Series)
            return mul(self, other)

        monkeypatch.setattr(Series, "__mul__", counting_mul)
        express_in_generators(target, gens, 2 * r, q_order)
        assert products == len(candidates) - 1

    def test_prefixes_need_not_come_in_weight_order(self):
        # G10 sorts before G2, so the prefix of G10*G2 is G10, of higher weight
        table = identities._prefix_table(
            [("G10", "G2"), ("G2",)], {"G2": Series([1, 2, 0]), "G10": Series([1, 0, 3])},
            Series.constant(F(1), 2))
        assert table.keys() == {(), ("G10",), ("G10", "G2"), ("G2",)}
        assert table[("G10", "G2")] == Series([1, 2, 3])


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
        return x, r

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
            for row in aug:
                assert sum(a * g for a, g in zip(row[:-1], got)) == row[-1]

    @pytest.mark.parametrize("shape", ["overdetermined", "rank-deficient"])
    def test_same_solution_as_gauss(self, shape):
        # Both eliminate columns left to right, so they find the same pivot
        # columns, and both set free variables to zero; so on a singular
        # system they must return the same member of the solution space,
        # not merely some solution.
        # The underdetermined express answers (A:4 auto and up) rest on this.
        rng = random.Random(f"solver-{shape}")
        dens = [1, 2, 3, 10**6 + 3, 10**12 + 39]
        underdetermined = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            m = rng.randint(n + 1, n + 4) if shape == "overdetermined" else rng.randint(1, n + 2)
            k = rng.randint(1, min(m, n))  # rank <= k
            # one denominator per column of C, up to 10**12 + 39, so the entries of
            # B*C share it column by column
            col_dens = [rng.choice(dens + [rng.randint(1, 10**12 + 39)]) for _ in range(n)]
            c = [[F(rng.randint(-10**6, 10**6), d) if rng.random() < 0.8 else F(0)
                  for d in col_dens] for _ in range(k)]
            b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
            a = [[sum(bi[t] * c[t][j] for t in range(k)) for j in range(n)] for bi in b]
            sol = [F(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)]
            aug = [row + [sum(x * s for x, s in zip(row, sol))] for row in a]
            expect, rank = self.gauss_oracle(aug)
            got, free = _solve_exact([row[:] for row in aug])
            assert got == expect
            assert free == (rank < n)
            underdetermined += free
        assert underdetermined >= 10

    def test_candidate_count_matches_the_list(self):
        rng = random.Random(99)
        for _ in range(300):
            weights = [rng.randint(1, 8) for _ in range(rng.randint(0, 5))]
            bound, limit = rng.randint(0, 24), rng.randint(0, 400)
            n = len(identities._candidate_monomials(weights, bound)[0])
            assert identities._count_candidates(weights, bound, limit) == min(n, limit + 1)

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
        assert verify_geng22(15, 30).status == "verified"

    def test_biggest_window(self):
        # the largest window pinned here
        assert verify_geng22(31, 80).status == "verified"

    def test_value_mismatch_report(self, monkeypatch):
        # one wrong q^5 coefficient of A_2 = g({2}^2) surfaces at T^5 q^5
        monkeypatch.setattr(identities, "_macmahon_chain",
                            doctored_chain(identities._macmahon_chain))
        report = verify_geng22(9, 10)
        assert report.to_dict() == {
            "identity": "geng22", "params": {"t_order": 9, "q_order": 10},
            "status": "mismatch",
            "mismatch": {"coords": {"t_exp": 5, "q_exp": 5},
                         "lhs": "33/4*L^2", "rhs": "37/4*L^2"},
        }

    def test_zeta_mismatch_report(self, monkeypatch):
        # zeta({2}^2) times 3/2 in Z(T) surfaces at T^5 q^0, both sides in L^2
        zeta = identities.zeta_two_power
        monkeypatch.setattr(identities, "zeta_two_power",
                            lambda j: zeta(j) * F(3, 2) if j == 2 else zeta(j))
        assert verify_geng22(9, 10).to_dict()["mismatch"] == {
            "coords": {"t_exp": 5, "q_exp": 0}, "lhs": "1/1920*L^2", "rhs": "1/1280*L^2"}

    def test_eisenstein_mismatch_report(self, monkeypatch):
        # G_4 + 1/7 on the left surfaces at T^5 q^0
        eis = identities.eisenstein
        monkeypatch.setattr(identities, "eisenstein",
                            lambda k, q: eis(k, q) + F(1, 7) if k == 4 else eis(k, q))
        assert verify_geng22(9, 10).to_dict()["mismatch"] == {
            "coords": {"t_exp": 5, "q_exp": 0}, "lhs": "-953/13440*L^2", "rhs": "1/1920*L^2"}

    @pytest.mark.parametrize("t_order, q_order", [(5, 6), (7, 8), (9, 10)])
    def test_l_tracked_reference_route(self, t_order, q_order):
        # with L tracked, the T^(2m+1) coefficients hold only L^m, the even
        # ones vanish, and the two sides agree where the L = 1 check does
        lhs, rhs = l_tracked_geng22(t_order, q_order)
        for side in (lhs, rhs):
            for a in range(t_order + 1):
                degrees = {e for c in side[a].coeffs for e in c.terms}
                assert degrees <= ({(a - 1) // 2} if a % 2 else set())
        assert lhs == rhs
        assert verify_geng22(t_order, q_order).ok

    def test_l_tracked_route_sees_the_doctored_chain(self, monkeypatch):
        monkeypatch.setattr(identities, "_macmahon_chain",
                            doctored_chain(identities._macmahon_chain))
        reference = _first_mismatch("geng22", {}, *l_tracked_geng22(9, 10), "t_exp", 1)
        checked = verify_geng22(9, 10)
        assert reference.mismatch == checked.mismatch == Mismatch(
            {"t_exp": 5, "q_exp": 5}, "33/4*L^2", "37/4*L^2")

    def test_depth_one_fourier_expansion(self):
        # the T^3 coefficient identity: zeta(2) + L*g(2) = L*G_2(q)
        order = 15
        zeta2 = zeta_two_power(1)
        assert zeta2 == F(-1, 24)
        g2_lift = map_coefficients(multiple_divisor_series(2, order),
                                   lambda c: LambdaPoly({1: c}), LAMBDAS)
        lhs = g2_lift + Series.constant(LambdaPoly({1: zeta2}), order, LAMBDAS)
        rhs = map_coefficients(eisenstein(2, order), lambda c: LambdaPoly({1: c}), LAMBDAS)
        assert lhs == rhs

    def test_zeta_two_powers(self):
        # the rational z_j of zeta({2}^j) = z_j L^j
        assert zeta_two_power(0) == 1
        assert zeta_two_power(2) == F(1, 16 * 120)
        assert zeta_two_power(3) == F(-1, 64 * 5040)
        assert all(type(zeta_two_power(j)) is F for j in range(4))
        with pytest.raises(ValueError):
            zeta_two_power(-1)

    @pytest.mark.parametrize("e", [0, 1, 2, 7])
    @pytest.mark.parametrize("c", [0, 1, -1, F(0), F(1), F(3, 2), F(-1, 7), 10**30 + F(1, 3)])
    def test_l_monomial_text(self, e, c):
        # the reports render c*L^e as the L-polynomial reference ring does
        assert identities._l_monomial(e, c) == str(LambdaPoly({e: c}))

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_geng22(8, 10)
        with pytest.raises(ValueError):
            verify_geng22(1, 10)


def l_power(zeta, j):
    """zeta({2}^j) = z_j L^j as a polynomial in L, with z_j = ``zeta(j)``."""
    return LambdaPoly({j: zeta(j)})


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

    def test_weight_graded_mismatch_report(self, monkeypatch):
        true_zeta = identities.zeta_two_power

        def off_at_three(j):
            return true_zeta(j) * 2 if j == 3 else true_zeta(j)

        monkeypatch.setattr(identities, "zeta_two_power", off_at_three)
        report = lemma_combinatorial_check(10)
        # zeta({2}^3) first enters the convolution at n = 4
        assert report.status == "mismatch"
        assert report.mismatch.coords == {"n": 4}
        assert report.mismatch.note == "weight-graded form"
        conv = sum((l_power(off_at_three, e - 1) * l_power(off_at_three, 4 - e)
                    for e in range(1, 5)), LambdaPoly())
        assert report.mismatch.lhs == str(conv)
        assert report.mismatch.rhs == str(LambdaPoly({3: F(-1, 64) * F(2**7, math.factorial(8))}))

    # 1 + 10^-30 moves no integer part: only the remainders show it
    @pytest.mark.parametrize("factor", [F(3, 2), F(-1, 7), 0, 1 + F(1, 10**30)])
    def test_non_integral_zeta_is_a_mismatch(self, monkeypatch, factor):
        true_zeta = identities.zeta_two_power

        def off_at_two(j):
            return true_zeta(j) * factor if j == 2 else true_zeta(j)

        monkeypatch.setattr(identities, "zeta_two_power", off_at_two)
        report = lemma_combinatorial_check(10)
        assert report.mismatch.coords == {"n": 3}
        assert report.mismatch.note == "weight-graded form"
        conv = sum((l_power(off_at_two, e - 1) * l_power(off_at_two, 3 - e)
                    for e in range(1, 4)), LambdaPoly())
        assert report.mismatch.lhs == str(conv)

    def test_mismatch_under_optimize(self):
        # python -O strips asserts; a non-integral coefficient still gives a report
        script = (
            "from fractions import Fraction\n"
            "from macmahon import identities\n"
            "real = identities.zeta_two_power\n"
            "identities.zeta_two_power = lambda j: real(j) * Fraction(3, 2) if j == 3 else real(j)\n"
            "assert False, 'asserts are live'\n"
            "report = identities.lemma_combinatorial_check(10)\n"
            "print(report.status, report.mismatch.coords, report.mismatch.note)\n"
        )
        src = str(Path(identities.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mismatch {'n': 4} weight-graded form\n"

    def test_scalar_mismatch_report_is_in_fractions(self, monkeypatch):
        def comb(n, k):
            return math.comb(n, k) + (n == 6 and k == 1)

        monkeypatch.setattr(identities, "comb", comb)
        report = lemma_combinatorial_check(10)
        # n = 3: (C(6, 1) + 1 + C(6, 3) + C(6, 5))/6! = 33/720 against 2^5/6!
        assert report.status == "mismatch"
        assert report.mismatch.coords == {"n": 3}
        assert (report.mismatch.lhs, report.mismatch.rhs) == ("11/240", "2/45")
        assert report.mismatch.note == ""


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

    def test_reports_hold_no_instance_dict(self):
        # the benchmark keeps every report until its run ends, so each one
        # is kept small: slots, no per-instance __dict__
        mismatch = Mismatch({"x_exp": 2, "q_exp": 0}, "1", "2", "note")
        report = identities.VerdictReport("main-a", {"q_order": 1}, "mismatch", mismatch)
        for obj in (mismatch, report, verify_main_a(6, 4)):
            assert not hasattr(obj, "__dict__")
            assert type(obj).__slots__
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, dataclasses.fields(obj)[0].name, None)  # and frozen
        assert report.to_dict()["mismatch"] == {"coords": {"x_exp": 2, "q_exp": 0}, "lhs": "1",
                                                "rhs": "2", "note": "note"}
