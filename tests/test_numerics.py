"""Tests for the floating-point lattice sums and limit checks."""

import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

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

    @pytest.mark.parametrize("tau", [complex(math.nan, 1), complex(math.inf, 1),
                                     complex(0, math.inf), complex(-math.inf, math.nan)])
    def test_finite_tau_required(self, tau, monkeypatch):
        def engine(*args):
            pytest.fail("the lattice engine ran on a non-finite tau")

        monkeypatch.setattr(numerics, "_tangent_engine", engine)
        for call in (lambda: monotangent(2, tau, 100), lambda: lipschitz_value(2, tau)):
            with pytest.raises(ValueError, match="^tau must be finite$"):
                call()

    def test_high_order(self):
        # (tau + n)^-62 underflows toward 0 far out; the Euler-Maclaurin tail
        # once overflowed to nan there
        lattice = monotangent(62, 1j, 10**5)
        qside = lipschitz_value(62, 1j)
        assert abs(lattice.value - qside) <= 1e-13 * abs(qside)


class TestDefaultCutoff:
    @pytest.mark.parametrize("tau", [1j, 0.5 + 0.7j, -0.45 + 0.2j, 0.2 + 2j, 3000.25 + 0.9j])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_least_margin_meeting_the_rounding_floor(self, k, tau):
        cutoff = numerics._monotangent_cutoff(k, tau)
        c, p = numerics._em_remainder(k)
        floor = 2.0**-53 * tau.imag ** -k

        def margin(n):
            return n + 1 - abs(tau.real)

        assert c * margin(cutoff) ** -p <= floor
        assert margin(cutoff - 1) < numerics._MIN_MARGIN or c * margin(cutoff - 1) ** -p > floor

    def test_floor_and_cap(self):
        assert numerics._monotangent_cutoff(12, 1j) == 31
        assert numerics._monotangent_cutoff(9, 0.3 + 0.05j) == 32
        assert numerics._monotangent_cutoff(2, 1e6j) == 100_000
        # int(|Re tau|) + 2, the least cutoff monotangent takes, above the cap
        assert numerics._monotangent_cutoff(2, 99999.5 + 1j) == 100_000

    @pytest.mark.parametrize("k", [2, 3, 9, 62, 170, 400, 10**6, 10**400])
    def test_never_raises(self, k):
        for im in (1e-300, 1e-100, 1e-10, 0.05, 1.0, 10.0, 1e3):
            for re in (0.0, -0.3, 2.5, -99998.5, 99999.5, 1e300):
                cutoff = numerics._monotangent_cutoff(k, complex(re, im))
                assert type(cutoff) is int
                assert min(int(abs(re)) + 2, 100_000) <= cutoff <= 100_000
        # monotangent refuses these itself
        for tau in (-1j, 0j, complex(math.nan, 1), complex(0, math.inf)):
            assert numerics._monotangent_cutoff(k, tau) == 100_000


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

    @pytest.mark.parametrize("ks", [(2,), (3,), (2, 2), (3, 2), (2, 2, 2), (2, 3, 4)])
    def test_partial_is_the_plain_ordered_box_sum(self, ks):
        cutoff = 30
        for tau in (1j, 0.25 + 1j, -0.3 + 0.5j):
            direct = 0j
            for ns in itertools.combinations(range(cutoff, -cutoff - 1, -1), len(ks)):
                term = 1 + 0j
                for n, k in zip(ns, ks):  # n_1 > ... > n_r
                    term *= (tau + n) ** (-k)
                direct += term
            partial = multitangent(ks, tau, cutoff).partial
            assert abs(partial - direct) <= 1e-13 * abs(direct)

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            multitangent((2, 1), 1j, 100)

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            multitangent((2, 2), 1j, 1)

    @pytest.mark.parametrize("ks", [(2,), (2, 2), (3, 2, 2)])
    def test_bounds_are_periodic_in_tau(self, ks):
        # shifting tau and the cutoff by N leaves the bounds as they are, and
        # costs no more near the term cap than at N = 0
        tau, cutoff = 0.25 + 0.5j, 100
        for shift in (1, 1000, 10**6, 5 * 10**7):
            assert numerics._tangent_bounds(ks, tau + shift, cutoff + shift) == \
                numerics._tangent_bounds(ks, tau, cutoff)

    def test_tail_bound_dominates_at_large_real_part(self):
        tau = 1000.25 + 1j
        for ks in ((2,), (3,), (2, 2), (3, 2)):
            m = multitangent(ks, tau, 5000)
            further = multitangent(ks, tau, 10000)
            assert m.tail_bound >= abs(further.partial - m.partial)


def in_fresh_thread(f, *args):
    """f(*args) in a new thread, with its own numeric workspace: its value, or its exception."""
    out = []

    def run():
        try:
            out.append(f(*args))
        except Exception as exc:  # re-raised in the caller's thread
            out.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and out
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


def whole_box_engine(ks, tau, cutoff):
    """The lattice engine over whole arrays of all 2*cutoff + 1 points: (corrected, raw).

    ``corrected`` holds the corrected value after every level, for k_1..k_i.
    """
    import numpy as np

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        ns = np.arange(cutoff, -cutoff - 1, -1, dtype=np.float64)
        inv = np.reciprocal(ns + tau)
        scratch = np.empty_like(inv)
        raw = np.empty(len(ns) + 1, dtype=np.complex128)
        cor = np.empty_like(raw)
        psi, corrected = 1.0 + 0j, []
        for i, k in enumerate(ks):
            # (tau + n)^(-k) as the product of k reciprocals, left to right
            v = inv
            for _ in range(k - 1):
                v = v * inv
            if i == 0:
                seed = numerics._em_tail(k, tau, cutoff + 1, +1)
                np.cumsum(v, out=raw[1:])
                np.add(raw[1:], seed, out=cor[1:])
            else:
                seed = 0.0
                np.cumsum(np.multiply(v, raw[:-1], out=scratch), out=raw[1:])
                np.cumsum(np.multiply(v, cor[:-1], out=v), out=cor[1:])
            raw[0] = 0.0
            cor[0] = seed
            psi = complex(cor[-1]) + numerics._em_tail(k, tau, cutoff + 1, -1) * psi
            corrected.append(psi)
    return tuple(corrected), complex(raw[-1])


ENGINE_KS = [(2,), (3,), (2, 2), (3, 2), (2, 2, 2), (2, 3, 4), (2, 2, 2, 2), (4, 2, 3, 2)]
ENGINE_TAUS = [1j, 0.25 + 1j, -0.3 + 0.5j, -1.7 + 0.2j]


class TestBlockedEngine:
    """The blocked engine against the whole-array one, bit for bit."""

    @pytest.mark.parametrize("ks", ENGINE_KS)
    def test_cutoffs_around_block_edges(self, ks):
        half = numerics._CHUNK // 2
        # 2*cutoff + 1 points: one block short, one point over, two and three blocks
        for cutoff in (3, half - 1, half, numerics._CHUNK, 3 * half - 1, 3 * half):
            for tau in ENGINE_TAUS:
                assert numerics._tangent_engine(ks, tau, cutoff) == \
                    whole_box_engine(ks, tau, cutoff), (cutoff, tau)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_small_chunks(self, chunk, monkeypatch):
        monkeypatch.setattr(numerics, "_CHUNK", chunk)
        for ks in ENGINE_KS:
            for cutoff in (len(ks) + 2, 7, 8, 30):
                for tau in ENGINE_TAUS:
                    assert numerics._tangent_engine(ks, tau, cutoff) == \
                        whole_box_engine(ks, tau, cutoff), (ks, cutoff, tau)

    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    def test_leading_values_are_their_own_passes(self, chunk, monkeypatch):
        # Psi_{k_1..k_i} read off the deeper pass equals its own call, bit for bit
        if chunk is None:
            half = numerics._CHUNK // 2
            cutoffs = (half - 1, half, numerics._CHUNK, 3 * half)
        else:
            monkeypatch.setattr(numerics, "_CHUNK", chunk)
            cutoffs = (6, 7, 8, 30)
        for ks in ((2, 2), (2, 2, 2), (3, 2), (2, 3, 4), (4, 2, 3, 2)):
            for cutoff in cutoffs:
                for tau in ENGINE_TAUS:
                    leading = multitangent(ks, tau, cutoff).leading
                    assert leading[0] == monotangent(ks[0], tau, cutoff).value
                    assert leading == tuple(multitangent(ks[:i], tau, cutoff).value
                                            for i in range(1, len(ks) + 1)), (ks, cutoff, tau)

    def test_memory_is_bounded_by_the_block(self):
        # whole arrays of the 2e6 + 1 points would take about 144 MB; a fresh
        # thread makes its own workspace, so the peak counts it, and numpy is
        # imported untraced, so it does not
        import numpy  # noqa: F401

        tracemalloc.start()
        try:
            in_fresh_thread(multitangent, (2, 2, 2), 0.3 + 1j, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_cost_cap_raises_before_any_work(self, monkeypatch):
        def engine(*args):
            pytest.fail("the lattice engine ran past the cost cap")

        monkeypatch.setattr(numerics, "_tangent_engine", engine)
        with pytest.raises(ValueError, match="above the limit of 100000000"):
            multitangent((2,), 1j, 5 * 10**7)  # 10^8 + 1 terms
        with pytest.raises(ValueError, match="above the limit"):
            multitangent((2, 2, 2), 0.3 + 1j, 10**12)


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

    def test_eisenstein_terms_count_part_sizes(self):
        # G_2 - G_2's constant is A_1: the same sizes m, each with its whole d-sum
        g2, a1 = eval_qseries_at("G", 2, 0.9), eval_qseries_at("A", 1, 0.9)
        assert g2.terms == a1.terms
        assert g2.value == a1.value - 1 / 24

    def test_eisenstein_float_error_raises_without_warning(self):
        # (1 - q^m)^40 underflows to zero for q = 1 - 2^-30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError):
                eval_qseries_at("G", 40, 1 - 2.0**-30)

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
    c = math.log(rel_tol) - 6.0 + math.log1p(-q)
    m_top = max(1, int((c + 2 * math.log1p(-math.exp(c))) / math.log(q)) + 1)
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
        got = _eval_macmahon(r, q, odd, max_terms)
        value, terms, converged = scalar_eval_macmahon(r, q, odd, max_terms, 1e-15)
        # the run table's q^m and libm's pow differ in the last ulps of some q^m
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
            _eval_macmahon(2, 1 - 2.0**-10, False, 1000)
        # capped but with a negligible tail: a value, marked unconverged
        assert self.check(1, 1 - 2.0**-8, True, max_terms=10_000) == 5000

    def test_capped_guard_bounds_the_truncation_error(self):
        # capped at M = 5M sizes, A_1 misses at most T = q^(M+1)/((1-q)(1-q^(M+1))^2),
        # below 1e-9 of its value at q = 1 - 2^-18 and 1 - 2^-19
        for k in (18, 19):
            value = eval_qseries_at("A", 1, 1 - 2.0**-k)
            assert (value.terms, value.converged) == (5_000_000, False)
        # A_2 at q = 1 - 2^-20 may miss up to T times the full A_1, above
        # 1e-9 of its value (the capped sum is about 1.7e-8 too small)
        with pytest.raises(NonConvergenceError, match="term cap 5000000"):
            eval_qseries_at("A", 2, 1 - 2.0**-20)

    def test_memory_is_bounded_by_the_chunk(self):
        # q = 1 - 2^-19 walks the whole 5M-term cap; one float64 array of
        # every term would be 40 MB.  As for the lattice: a fresh workspace
        # is counted, numpy's import is not
        import numpy  # noqa: F401

        tracemalloc.start()
        try:
            value = in_fresh_thread(eval_qseries_at, "A", 2, 1 - 2.0**-19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (value.terms, value.converged) == (5_000_000, False)
        assert peak < 16 * 2**20


def whole_size_sum(r, q, odd, k):
    """_eval_macmahon over one whole array of all part sizes: (value, terms)."""
    import numpy as np

    c = math.log(1e-15) - 6.0 + math.log1p(-q)
    m_top = max(1, int((c + k * math.log1p(-math.exp(c))) / math.log(q)) + 1)
    if odd and m_top % 2 == 0:
        m_top -= 1
    step, run = (2 if odd else 1), numerics._RUN
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        # q^m = q^(1 + step*run*a) * q^(step*j) for the size m = 1 + step*(run*a + j)
        i = np.arange((m_top - 1) // step, -1, -1)
        bases = np.array([q ** (1 + step * run * a) for a in range(i[0] // run + 1)])
        table = np.power(q, step * np.arange(run, dtype=np.float64))
        f = numerics._power_sum(k - 1, bases[i // run] * table[i % run])
        before = np.ones_like(f)
        for _ in range(r):
            sums = np.cumsum(f * before)
            before = np.concatenate(([0.0], sums[:-1]))
    return float(sums[-1]) / math.factorial(k - 1) ** r, len(f)


class TestEvalMacmahonBlocked:
    """The blocked q-side sums against the whole-array ones, bit for bit."""

    @staticmethod
    def check(r, q, odd, k):
        got = _eval_macmahon(r, q, odd, 5_000_000, k=k)
        assert (got.value, got.terms) == whole_size_sum(r, q, odd, k), (r, q, odd, k)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("k", [2, 4])
    def test_default_chunk(self, r, odd, k):
        # q = 1 - 2^-12 walks 2.7e5 (k = 2) and 3.4e5 (k = 4) sizes, over many blocks
        for q in (0.5, 1 - 2.0**-6, 1 - 2.0**-12):
            self.check(r, q, odd, k)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_small_chunks(self, chunk, monkeypatch):
        monkeypatch.setattr(numerics, "_CHUNK", chunk)
        for r, odd, k in itertools.product([1, 2, 3, 4], [False, True], [2, 4]):
            for q in (0.5, 1 - 2.0**-4):
                self.check(r, q, odd, k)

    @pytest.mark.parametrize("chunk", [1, 2, 7, None])
    @pytest.mark.parametrize("run", [1, 3, 50])
    def test_short_runs(self, chunk, run, monkeypatch):
        # runs shorter than the blocks, and blocks shorter than the runs
        if chunk is not None:
            monkeypatch.setattr(numerics, "_CHUNK", chunk)
        monkeypatch.setattr(numerics, "_RUN", run)
        for r, odd, k in itertools.product([1, 3], [False, True], [2, 4]):
            for q in (0.5, 1 - 2.0**-4):
                self.check(r, q, odd, k)


HALF = numerics._CHUNK // 2

# lattice calls of depths 1, 3 and 4 over 7 points, one point short of a block,
# and two or three blocks and a point; q-side calls (r, q, odd, k) of 1 to 17 blocks
WORKSPACE_LATTICE = [((2, 2, 2), 0.25 + 1j, numerics._CHUNK), ((3,), -0.3 + 0.5j, 3),
                     ((4, 2, 3, 2), 1j, 3 * HALF), ((2, 3, 4), -1.7 + 0.2j, HALF - 1)]
WORKSPACE_QSIDE = [(3, 1 - 2.0**-12, False, 2), (1, 0.5, True, 4),
                   (2, 1 - 2.0**-6, True, 2), (4, 1 - 2.0**-10, False, 4)]


def workspace_calls():
    """Interleaved lattice and q-side calls, each with its whole-array reference value."""
    def qside(r, q, odd, k):
        value = _eval_macmahon(r, q, odd, 5_000_000, k=k)
        return value.value, value.terms

    calls = []
    for box, sizes in zip(WORKSPACE_LATTICE, WORKSPACE_QSIDE):
        calls.append((functools.partial(numerics._tangent_engine, *box), whole_box_engine(*box)))
        calls.append((functools.partial(qside, *sizes), whole_size_sum(*sizes)))
    return calls


class TestWorkspace:
    """The kernels' per-thread block buffers: allocated once, never read stale."""

    @pytest.mark.parametrize("call", [
        lambda: multitangent((2, 2, 2), 0.3 + 1j, 10**4),
        lambda: _eval_macmahon(3, 1 - 2**-12, False, numerics._MAX_TERMS),
    ], ids=["lattice", "q-side"])
    def test_warm_calls_allocate_nothing_block_sized(self, call):
        # a block's float64 row alone is 128 KB, a complex one 256 KB
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_poisoned_workspace(self):
        # every row is nan between calls: a stale read would show as nan or raise
        for call, expected in workspace_calls() * 2:
            assert call() == expected
            numerics._workspace.mem.fill(math.nan)

    def test_one_workspace_for_both_dtypes(self):
        # float64 rows are views of the complex rows' bytes: after the first,
        # depth >= 2, lattice pass no call allocates, and about 1.9 MB is held
        def held_after_each():
            held = []
            for call, _ in workspace_calls():
                call()
                held.append(numerics._workspace.mem)
            return held

        held = in_fresh_thread(held_after_each)
        assert all(mem is held[0] for mem in held)
        assert held[0].nbytes < 2 * 10**6

    def test_two_threads_get_the_sequential_bits(self):
        # the threads run the calls in opposite orders, switching often, so
        # lattice and q-side blocks interleave
        calls = [call for call, _ in workspace_calls()]
        expected = [call() for call in calls]
        barrier = threading.Barrier(2)
        results = [None, None]

        def worker(slot, order):
            barrier.wait(timeout=60)
            results[slot] = [(i, calls[i]()) for _ in range(3) for i in order]

        threads = [threading.Thread(target=worker, args=(0, range(len(calls)))),
                   threading.Thread(target=worker, args=(1, range(len(calls) - 1, -1, -1)))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert got is not None
            for i, value in got:
                assert value == expected[i], i


class TestPythonScalars:
    """Numeric results are Python floats and complexes, not numpy scalars."""

    def test_series_values(self):
        for name, param in (("A", 1), ("A", 3), ("C", 2), ("G", 4), ("Go", 2)):
            assert type(eval_qseries_at(name, param, 0.9).value) is float

    @pytest.mark.parametrize("grid", [[0.5], [1 - 2.0**-k for k in range(4, 9)]])
    def test_limit_report(self, grid):
        report = limit_check(2, grid)
        assert all(type(x) is float for x in (report.target, report.extrapolated,
                                               report.rel_error))
        assert all(type(x) is float for x in report.grid + report.scaled_values)

    @pytest.mark.parametrize("ks", [(2,), (3, 2), (2, 2, 2)])
    def test_tangent_sum(self, ks):
        value = multitangent(ks, 0.3 + 1j, 50)
        assert all(type(x) is complex for x in (value.value, value.partial, value.correction))
        assert all(type(x) is float for x in (value.tail_bound, value.neglected_bound))


class TestRichardson:
    def test_exact_on_quadratic(self):
        # y(h) = 3 - 2h + 5h^2 must extrapolate exactly with two levels
        hs = [2.0**-k for k in range(3, 8)]
        ys = [3 - 2 * h + 5 * h * h for h in hs]
        assert abs(richardson(ys, hs) - 3) < 1e-12

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


# Runs in a fresh interpreter and prints whether numpy is loaded after the
# exact-only calls, then after a numeric check.
NUMPY_PROBE = """
import contextlib, io, sys
import macmahon, macmahon.cli
status = [macmahon.verify_main_a(12, 4).status]
with contextlib.redirect_stdout(io.StringIO()):
    status.append(macmahon.cli.main(["express", "--target", "A:3"]))
    status.append("numpy" in sys.modules)
    status.append(macmahon.cli.main(["numeric", "--check", "monotangent",
                                     "--k", "4", "--tau", "0,1"]))
    status.append("numpy" in sys.modules)
print(status)
"""


def test_numpy_is_imported_by_numeric_checks_only():
    src = str(Path(numerics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['verified', 0, False, 0, True]"
