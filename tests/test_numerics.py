"""Tests for the floating-point lattice sums and limit checks."""

import math
import tracemalloc

import pytest

from macmahon import numerics
from macmahon.numerics import (
    DivergenceError,
    NonConvergenceError,
    _eval_macmahon,
    eval_qseries_at,
    limit_check,
    lipschitz_value,
    monotangent,
    multitangent,
    richardson,
)
from macmahon.qseries import macmahon_a, macmahon_c


class TestMonotangent:
    def test_lipschitz_cross_check(self):
        for k in (2, 3, 4):
            lattice = monotangent(k, 1j, 10**4)
            qside = lipschitz_value(k, 1j)
            assert abs(lattice.value - qside) / abs(qside) < 1e-8

    def test_periodicity(self):
        a = monotangent(2, 0.25 + 1j, 10**4).value
        b = monotangent(2, 1.25 + 1j, 10**4).value
        assert abs(a - b) / abs(a) < 1e-9

    def test_partial_sums_converge_monotonically(self):
        tau = 1j
        diffs = []
        for n in (2500, 5000, 10000, 20000):
            s1 = monotangent(2, tau, n).partial
            s2 = monotangent(2, tau, 2 * n).partial
            diffs.append(abs(s2 - s1))
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_tail_bound_dominates_observed_difference(self):
        tau = 0.25 + 1j
        for k in (2, 3):
            m = monotangent(k, tau, 5000)
            further = monotangent(k, tau, 10000)
            assert m.tail_bound >= abs(further.partial - m.partial)

    def test_value_is_partial_plus_correction(self):
        m = monotangent(2, 1j, 5000)
        assert m.value == m.partial + m.correction
        assert abs(m.correction) > 0

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            monotangent(1, 1j, 100)

    def test_upper_half_plane_required(self):
        with pytest.raises(ValueError):
            monotangent(2, 1 - 1j, 100)
        with pytest.raises(ValueError):
            lipschitz_value(2, 0.5)


class TestMultitangent:
    def test_depth_one_same_code_path(self):
        a = monotangent(2, 1j, 4000)
        b = multitangent((2,), 1j, 4000)
        assert a == b

    def test_lemma_ratio_depth_two(self):
        tau = 1j
        psi2 = monotangent(2, tau, 10**4).value
        psi22 = multitangent((2, 2), tau, 10**4).value
        target = math.pi**2 / 3
        assert abs(psi22 / psi2 - target) / target < 1e-6

    def test_lemma_ratio_depth_three(self):
        tau = 1j
        psi2 = monotangent(2, tau, 10**4).value
        psi222 = multitangent((2, 2, 2), tau, 10**4).value
        target = 2 * math.pi**4 / 45
        assert abs(psi222 / psi2 - target) / target < 1e-5

    def test_ratio_is_tau_independent(self):
        taus = (1j, 0.25 + 1j, 0.1 + 0.8j)
        ratios = []
        for tau in taus:
            psi2 = monotangent(2, tau, 10**4).value
            psi22 = multitangent((2, 2), tau, 10**4).value
            ratios.append(psi22 / psi2)
        for i in range(len(ratios)):
            for j in range(i + 1, len(ratios)):
                assert abs(ratios[i] - ratios[j]) / abs(ratios[i]) < 1e-5

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            multitangent((2, 1), 1j, 100)

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            multitangent((2, 2), 1j, 1)


class TestEvalAt:
    def test_a1_matches_coefficient_sum(self):
        direct = eval_qseries_at("A", 1, 0.5)
        coeffs = macmahon_a(1, 60)
        coefficient_side = sum(float(coeffs[n]) * 0.5**n for n in range(61))
        assert abs(direct.value - coefficient_side) / coefficient_side < 1e-12
        assert direct.converged

    def test_c1_matches_coefficient_sum(self):
        direct = eval_qseries_at("C", 1, 0.5)
        coeffs = macmahon_c(1, 60)
        coefficient_side = sum(float(coeffs[n]) * 0.5**n for n in range(61))
        assert abs(direct.value - coefficient_side) / coefficient_side < 1e-12

    def test_a2_matches_coefficient_sum(self):
        direct = eval_qseries_at("A", 2, 0.4)
        coeffs = macmahon_a(2, 80)
        coefficient_side = sum(float(coeffs[n]) * 0.4**n for n in range(81))
        assert abs(direct.value - coefficient_side) / coefficient_side < 1e-12

    def test_small_q_is_leading_term(self):
        q = 1e-4
        v = eval_qseries_at("A", 1, q)
        assert abs(v.value / q - 1) < 1e-3

    def test_eisenstein_value(self):
        from macmahon.qseries import eisenstein

        direct = eval_qseries_at("G", 2, 0.5)
        coeffs = eisenstein(2, 60)
        coefficient_side = sum(float(coeffs[n]) * 0.5**n for n in range(61))
        assert abs(direct.value - coefficient_side) / abs(coefficient_side) < 1e-12

    def test_odd_eisenstein_value(self):
        from macmahon.qseries import eisenstein_odd

        direct = eval_qseries_at("Go", 4, 0.5)
        coeffs = eisenstein_odd(4, 60)
        coefficient_side = sum(float(coeffs[n]) * 0.5**n for n in range(61))
        assert abs(direct.value - coefficient_side) / coefficient_side < 1e-12

    def test_nonconvergence_raises(self):
        with pytest.raises(NonConvergenceError):
            eval_qseries_at("A", 1, 0.99999, max_terms=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            eval_qseries_at("A", 1, 1.5)
        with pytest.raises(ValueError):
            eval_qseries_at("A", 0, 0.5)
        with pytest.raises(ValueError):
            eval_qseries_at("G", 3, 0.5)
        with pytest.raises(ValueError):
            eval_qseries_at("B", 1, 0.5)


def scalar_eval_macmahon(r, q, odd, max_terms, rel_tol):
    """The per-size Python loop over m_1 > ... > m_r: (value, terms, converged)."""
    need = math.log(rel_tol) + 3 * math.log1p(-q) - 6.0
    m_top = max(1, int(need / math.log(q)) + 1)
    capped = m_top > max_terms
    m_top = min(m_top, max_terms)
    if odd and m_top % 2 == 0:
        m_top = max(1, m_top - 1)
    sums = [1.0] + [0.0] * r
    terms = 0
    for m in range(m_top, 0, -2 if odd else -1):
        f = q**m / (1 - q**m) ** 2
        for i in range(r, 0, -1):
            sums[i] += f * sums[i - 1]
        terms += 1
    return sums[r], terms, not capped


class TestEvalMacmahonChunked:
    """The chunked cumulative sums against the scalar loop written here."""

    @staticmethod
    def check(r, q, odd, max_terms=5_000_000):
        got = _eval_macmahon(r, q, odd, max_terms, 1e-15)
        value, terms, converged = scalar_eval_macmahon(r, q, odd, max_terms, 1e-15)
        # numpy's power and libm's pow differ in the last ulp of some q^m
        assert abs(got.value - value) <= 1e-12 * value
        assert (got.terms, got.converged) == (terms, converged)
        return terms

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("odd", [False, True])
    def test_grid_against_scalar_loop(self, r, odd):
        # k = 11, 12 walk 1.3e5 and 2.7e5 sizes, across chunk boundaries
        for k in range(1, 13):
            self.check(r, 1 - 2.0**-k, odd)

    @pytest.mark.parametrize("odd", [False, True])
    def test_term_count_an_exact_multiple_of_the_chunk(self, odd):
        # the cap at 4 chunks of sizes is 4 (even) or 2 (odd) whole chunks
        terms = self.check(2, 1 - 2.0**-12, odd, max_terms=4 * numerics._CHUNK)
        assert terms % numerics._CHUNK == 0

    @pytest.mark.parametrize("odd", [False, True])
    def test_small_chunks(self, odd, monkeypatch):
        q = 1 - 2.0**-6
        terms = scalar_eval_macmahon(3, q, odd, 5_000_000, 1e-15)[1]
        for chunk in (1, 2, 7, terms - 1, terms, terms + 1, terms // 3, 2 * terms):
            monkeypatch.setattr(numerics, "_CHUNK", chunk)
            self.check(3, q, odd)

    def test_capped_path_still_raises(self):
        with pytest.raises(NonConvergenceError, match="term cap 1000"):
            _eval_macmahon(2, 1 - 2.0**-10, False, 1000, 1e-15)
        # capped but with a negligible next term: a value, marked unconverged
        assert self.check(1, 1 - 2.0**-8, True, max_terms=10_000) == 5000

    def test_memory_is_bounded_by_the_chunk(self):
        # q = 1 - 2^-20 walks the whole 5M-term cap; one float64 array of
        # every term would be 40 MB
        tracemalloc.start()
        try:
            value = eval_qseries_at("A", 2, 1 - 2.0**-20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (value.terms, value.converged) == (5_000_000, False)
        assert peak < 16 * 2**20


class TestRichardson:
    def test_exact_on_quadratic(self):
        # y(h) = 3 - 2h + 5h^2 must extrapolate exactly with two levels
        hs = [2.0**-k for k in range(3, 8)]
        ys = [3 - 2 * h + 5 * h * h for h in hs]
        assert abs(richardson(ys, hs, levels=2) - 3) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            richardson([1.0], [0.5, 0.25])


class TestLimitCheck:
    def test_r1_limit(self):
        report = limit_check(1, [1 - 2.0**-k for k in range(4, 11)])
        assert report.rel_error < 1e-3
        assert abs(report.target - math.pi**2 / 6) < 1e-12

    def test_r2_limit(self):
        report = limit_check(2, [1 - 2.0**-k for k in range(4, 11)])
        assert report.rel_error < 1e-2
        assert abs(report.target - math.pi**4 / 120) < 1e-12

    def test_errors_shrink_with_longer_grid(self):
        short = limit_check(1, [1 - 2.0**-k for k in range(4, 8)])
        long = limit_check(1, [1 - 2.0**-k for k in range(4, 11)])
        assert long.rel_error <= short.rel_error

    def test_single_point_grid(self):
        report = limit_check(1, [0.5])
        assert report.extrapolated == report.scaled_values[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            limit_check(1, [])
        with pytest.raises(ValueError):
            limit_check(1, [0.9, 0.5])
        with pytest.raises(ValueError):
            limit_check(0, [0.5])
