"""Tests for the q-series constructors and the enumeration oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from math import factorial, isqrt
from pathlib import Path

import pytest

import macmahon
from macmahon import qseries
from macmahon.oracles import nested_divisor_series
from macmahon.qseries import (
    RouteMismatchError,
    bernoulli,
    divisor_power_sums,
    eisenstein,
    eisenstein_odd,
    macmahon_a,
    macmahon_c,
    multiple_divisor_series,
    multiple_divisor_series_odd,
    partition_oracle,
)
from macmahon.series import Series

from chain_reference import dominating_coefficients, list_chain_rows


def sigma_brute(power, n):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)

    def test_known_table(self):
        assert bernoulli(6) == F(1, 42)
        assert bernoulli(8) == F(-1, 30)
        assert bernoulli(12) == F(-691, 2730)
        assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9, 11))


class TestEisenstein:
    def test_g2_expansion(self):
        assert eisenstein(2, 4) == Series([F(-1, 24), 1, 3, 4, 7])

    def test_g4_low_coefficients(self):
        g4 = eisenstein(4, 2)
        assert g4[0] == F(1, 1440)
        assert g4[1] == F(1, 6)

    def test_sieve_matches_trial_division(self):
        for k in (2, 4):
            sig = divisor_power_sums(k - 1, 100)
            assert sig[1:] == [sigma_brute(k - 1, n) for n in range(1, 101)]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            eisenstein(3, 5)
        with pytest.raises(ValueError):
            eisenstein(0, 5)


class TestEisensteinOdd:
    def test_go2_expansion(self):
        assert eisenstein_odd(2, 5) == Series([0, 1, 2, 4, 4, 6])

    def test_no_constant_term(self):
        for k in (2, 4, 6):
            assert eisenstein_odd(k, 3)[0] == 0

    def test_go4_q2(self):
        # only (m, n) = (1, 2) contributes: n^3/3! = 8/6
        assert eisenstein_odd(4, 2)[2] == F(8, 6)

    def test_subtraction_equals_direct(self):
        # G_k(q) - G_k(q^2) vs the odd-m double sum, reassembled here
        for k in (2, 4, 6, 8):
            order = 100
            g = eisenstein(k, 2 * order)
            direct = eisenstein_odd(k, order)
            for n in range(order + 1):
                sub = g[n] - (g[n // 2] if n and n % 2 == 0 else 0)
                if n == 0:
                    sub = g[0] - g[0]
                assert direct[n] == sub

    def test_route_disagreement_raises(self, monkeypatch):
        real = qseries._eisenstein_odd_direct

        def corrupted(k, order):
            s = real(k, order)
            return s + Series([0] * 7 + [1] + [0] * (order - 7))

        monkeypatch.setattr(qseries, "_eisenstein_odd_direct", corrupted)
        with pytest.raises(RouteMismatchError, match="k=4, n=7"):
            eisenstein_odd(4, 20)


class TestMultipleDivisorSeries:
    def test_depth_one_is_a1(self):
        assert multiple_divisor_series(2, 3) == Series([0, 1, 3, 4])

    def test_depth_two_first_coefficient(self):
        # q^3 comes from m = (2, 1), n = (1, 1) only
        assert multiple_divisor_series((2, 2), 3)[3] == 1

    def test_no_constant_term(self):
        for idx in (2, 3, (2, 2), (3, 1)):
            assert multiple_divisor_series(idx, 4)[0] == 0

    def test_depth_one_is_shifted_eisenstein(self):
        for k in (2, 4):
            assert multiple_divisor_series(k, 40) == eisenstein(k, 40) - eisenstein(k, 40)[0]

    def test_odd_variant_small(self):
        godd = multiple_divisor_series_odd((2, 2), 5)
        assert godd[4] == 1  # m = (3, 1), n = (1, 1)
        assert godd[5] == 2  # m = (3, 1), n = (1, 2)

    def test_odd_depth_one_is_go(self):
        assert multiple_divisor_series_odd(2, 30) == eisenstein_odd(2, 30)

    def test_general_index_weights(self):
        # g(3)[n] = sigma_2(n)/2, directly from the definition
        g3 = multiple_divisor_series(3, 20)
        for n in range(1, 21):
            assert g3[n] == F(sigma_brute(2, n), 2)


#: Index/parity cases where the slot order and the exponents all matter.
MIXED_INDICES = [(1,), (3,), (1, 1), (2, 2), (3, 2), (2, 3), (5, 1), (1, 4),
                 (4, 1, 2), (2, 1, 3), (1, 2, 1), (2, 2, 2), (3, 1, 1, 2)]


class TestDivisorDP:
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("index", MIXED_INDICES)
    def test_matches_enumeration(self, index, odd):
        assert multiple_divisor_series(index, 30, odd) == nested_divisor_series(index, 30, odd)

    def test_odd_alias(self):
        assert multiple_divisor_series_odd((3, 2), 25) == multiple_divisor_series((3, 2), 25, odd=True)

    def test_rows_are_the_tails(self):
        rows = qseries._divisor_chain_rows((4, 1, 2), 20, False)
        for j, tail in enumerate([(2,), (1, 2), (4, 1, 2)], start=1):
            scale = 1
            for k in tail:
                scale *= factorial(k - 1)
            assert [F(c, scale) for c in rows[j]] == list(nested_divisor_series(tail, 20).coeffs)

    def test_order_zero(self):
        assert multiple_divisor_series((2, 2), 0) == Series([0])
        assert multiple_divisor_series((3,), 0, odd=True) == Series([0])


def recurrence_chain(r, order, odd):
    """A_1..A_r (C_1..C_r) from a divisor sum and the Andrews-Rose recurrence only."""
    sigma = [sigma_brute(1, n) for n in range(order + 1)]
    first = Series([sigma[n] - (sigma[n // 2] if odd and n % 2 == 0 else 0)
                    for n in range(order + 1)])
    chain = [first]
    for k in range(2, r + 1):
        prev = chain[-1]
        d_prev = Series([n * c for n, c in enumerate(prev.coeffs)])
        if odd:
            nxt = ((2 * first + (k - 1) ** 2) * prev - d_prev) * F(1, 2 * k * (2 * k - 1))
        else:
            nxt = ((6 * first + k * (k - 1)) * prev - 2 * d_prev) * F(1, 2 * k * (2 * k + 1))
        chain.append(nxt)
    return chain


class TestChainCheck:
    @pytest.mark.parametrize("odd", [False, True])
    def test_depth_12_order_200_pinned_to_recurrence(self, odd):
        expected = recurrence_chain(12, 200, odd)[-1]
        got = multiple_divisor_series((2,) * 12, 200, odd)
        assert got == expected
        low = 144 if odd else 78
        assert got[low] == 1 and all(c == 0 for c in got.coeffs[:low])
        assert all(c.denominator == 1 for c in got.coeffs)

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("row", [1, 2, 4])
    def test_corrupted_row_raises_under_optimize(self, row, odd):
        # python -O strips asserts; the chain check must survive it
        script = (
            "import sys\n"
            "from macmahon import qseries\n"
            "real = qseries._divisor_chain_rows\n"
            "def corrupted(*args):\n"
            "    rows = real(*args)\n"
            f"    rows[{row}][-1] += 1\n"
            "    return rows\n"
            "qseries._divisor_chain_rows = corrupted\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            f"    qseries.multiple_divisor_series((2,) * 4, 30, odd={odd})\n"
            "except qseries.RouteMismatchError as exc:\n"
            "    print('caught', exc)\n"
        )
        src = str(Path(macmahon.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        route = "divisor sieve at k=1" if row == 1 else "Andrews–Rose recurrence at k="
        assert proc.stdout.startswith(f"caught product-DP vs {route}")


class TestPackedChain:
    """The packed product against the list DP it replaced (tests/chain_reference.py)."""

    @pytest.mark.parametrize("odd", [False, True])
    def test_every_window_shape(self, odd):
        # the benchmark's windows build (2,)*r at q_order 12..37, r = x_order/2 = 2..6
        for order in range(12, 38):
            for r in range(2, 7):
                assert qseries._divisor_chain_rows((2,) * r, order, odd) == \
                    list_chain_rows((2,) * r, order, odd), (order, r)

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("order", [200, 400])
    def test_deep_chains(self, order, odd):
        # rows past the last one that reaches q^order are all zero
        assert qseries._divisor_chain_rows((2,) * 30, order, odd) == \
            list_chain_rows((2,) * 30, order, odd)

    @pytest.mark.parametrize("parts, order, odd", [
        ((3, 2, 4), 60, False), ((3, 2, 4), 60, True), ((5, 1, 3, 2), 40, False),
        ((5, 1, 3, 2), 40, True), ((6,), 100, True), ((6,), 100, False),
        ((1,) * 9, 50, False), ((7, 1, 1), 45, True), ((2, 6, 1, 3, 2), 70, False),
        ((12,), 100, False), ((8, 3), 150, True),
    ])
    def test_mixed_indices(self, parts, order, odd):
        assert qseries._divisor_chain_rows(parts, order, odd) == \
            list_chain_rows(parts, order, odd)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_tiny_orders(self, order):
        for parts in [(1,), (2,), (2, 2), (4, 1, 3), (2,) * 5]:
            for odd in (False, True):
                assert qseries._divisor_chain_rows(parts, order, odd) == \
                    list_chain_rows(parts, order, odd)

    @pytest.mark.parametrize("top_exp", [0, 1, 2, 3, 5])
    def test_closed_form_bounds_hold(self, top_exp):
        # the two bounds of _chain_slot_bytes against c_E(t) and the rows:
        # c_E(t) <= exp(pi sqrt(2kt/3)) < 2^(isqrt(14kt) + 1), k = (E+1) E!,
        # and a row j value <= p(t) (t/j)^(jE) with p(t) < 2^(isqrt(14t) + 1)
        order, k = 60, (top_exp + 1) * factorial(top_exp)
        c = dominating_coefficients(top_exp, order)
        p = dominating_coefficients(0, order)
        rows = list_chain_rows((top_exp + 1,) * 6, order, False)
        for t in range(1, order + 1):
            assert math.log(c[t]) <= math.pi * math.sqrt(2 * k * t / 3)
            assert math.pi * math.sqrt(2 * k * t / 3) < (isqrt(14 * k * t) + 1) * math.log(2)
            assert p[t].bit_length() <= isqrt(14 * t) + 1
            for j in range(1, 7):
                assert rows[j][t] <= c[t]
                assert rows[j][t] * j ** (j * top_exp) <= p[t] * t ** (j * top_exp)

    @pytest.mark.parametrize("top_exp, order, depth", [
        (0, 0, 0), (0, 40, 3), (1, 12, 4), (1, 34, 6), (1, 35, 6), (1, 37, 6), (1, 400, 27),
        (2, 40, 2), (2, 60, 3), (3, 60, 4), (4, 30, 6), (5, 100, 1), (5, 400, 1), (6, 12, 1),
    ])
    def test_slot_is_the_least_that_holds_the_bound(self, top_exp, order, depth):
        # the smaller of 2^(isqrt(14kt) + 1) and 2^(isqrt(14t) + 1) * (t/j)^(jE)
        # (j <= depth, read up to the next power of two), with a sign, at
        # t = order; the slot sizes are 1, 2, 4, 8, 9, 10, ... bytes
        k = (top_exp + 1) * factorial(top_exp)
        weight = max([math.floor(F(order, j) ** (j * top_exp)).bit_length()
                      for j in range(1, depth + 1)], default=0)
        bits = min(isqrt(14 * k * order), isqrt(14 * order) + weight) + 1
        width = qseries._chain_slot_bytes(top_exp, order, depth)
        smaller = {1: 0, 2: 1, 4: 2, 8: 4}.get(width, width - 1)
        assert 8 * smaller < bits + 1 <= 8 * width

    @pytest.mark.parametrize("parts, order, odd", [
        ((2,) * 30, 400, False), ((2,) * 30, 400, True), ((1,) * 20, 200, False),
        ((3,), 40, False), ((3, 3), 40, False), ((5, 1, 3, 2), 40, False),
        ((3, 2, 4), 60, False), ((4,) * 6, 30, False), ((7,), 12, False)])
    def test_slot_holds_every_row(self, parts, order, odd):
        rows = list_chain_rows(parts, order, odd)
        d = max(j for j, row in enumerate(rows) if any(row))
        width = qseries._chain_slot_bytes(max(parts) - 1, order, d)
        assert max(map(max, rows)).bit_length() + 1 <= 8 * width

    @pytest.mark.parametrize("top_exp", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [0, 1, 7, 40])
    def test_product_keeps_no_slot_past_the_order(self, top_exp, order):
        # with every slot picked and no row shift, the product over all
        # sizes is c_E(0..order); the masks keep the int inside q^order
        bits = 128
        state = qseries._packed_product([(top_exp, -1)], order, 1, bits, 0)
        assert state >> ((order + 1) * bits) == 0
        assert [(state >> (t * bits)) & ((1 << bits) - 1) for t in range(order + 1)] == \
            dominating_coefficients(top_exp, order)

    def test_eulerian_numbers(self):
        # sum_{n>0} n^e x^n (1 - x)^(e+1) = x A_e(x), to x^12
        for e in range(8):
            a = qseries._eulerian(e)
            assert sum(a) == factorial(e)
            lhs = [n**e if n else 0 for n in range(13)]
            for _ in range(e + 1):
                lhs = [c - (lhs[i - 1] if i else 0) for i, c in enumerate(lhs)]
            assert lhs == [0] + list(a) + [0] * (12 - len(a))


def _corrupt(monkeypatch, k, n, value):
    real = qseries._divisor_chain_rows

    def corrupted(*args):
        rows = real(*args)
        rows[k][n] = value(rows[k][n])
        return rows

    monkeypatch.setattr(qseries, "_divisor_chain_rows", corrupted)


class TestChainCheckMessages:
    """A corrupted slot of a packed-product row is named by its first bad (k, n)."""

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("n", ["middle", "order"])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("value", [lambda c: c + 1, lambda c: c - 1, lambda c: -1 - c])
    def test_first_bad_slot_is_named(self, monkeypatch, odd, n, k, value):
        order = 37
        n = order if n == "order" else 19
        _corrupt(monkeypatch, k, n, value)
        with pytest.raises(RouteMismatchError) as exc:
            multiple_divisor_series((2,) * 6, order, odd)
        route = "divisor sieve" if k == 1 else "Andrews–Rose recurrence"
        assert str(exc.value) == f"product-DP vs {route} at k={k}, n={n}"

    @pytest.mark.parametrize("odd", [False, True])
    def test_last_row_is_checked(self, monkeypatch, odd):
        _corrupt(monkeypatch, 6, 37, lambda c: c + 1)
        with pytest.raises(RouteMismatchError, match="k=6, n=37$"):
            multiple_divisor_series((2,) * 6, 37, odd)

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("n", [0, 11])
    @pytest.mark.parametrize("delta", [1, F(1, 2)])
    def test_a_given_sieve_is_checked(self, odd, n, delta):
        order = 30
        sieve = eisenstein_odd(2, order) if odd else eisenstein(2, order) + F(1, 24)
        assert qseries._macmahon_chain(4, order, odd, sieve) == \
            qseries._macmahon_chain(4, order, odd)
        wrong = sieve + Series([0] * n + [delta] + [0] * (order - n))
        with pytest.raises(RouteMismatchError) as exc:
            qseries._macmahon_chain(4, order, odd, wrong)
        assert str(exc.value) == f"product-DP vs divisor sieve at k=1, n={n}"


class TestMacMahon:
    def test_a1(self):
        assert macmahon_a(1, 4) == Series([0, 1, 3, 4, 7])

    def test_a2(self):
        assert macmahon_a(2, 5) == Series([0, 0, 0, 1, 3, 9])

    def test_c1(self):
        assert macmahon_c(1, 4) == Series([0, 1, 2, 4, 4])

    def test_c2_low_degrees(self):
        c2 = macmahon_c(2, 4)
        assert c2[3] == 0  # below the minimal degree r^2 = 4
        assert c2[4] == 1

    def test_a_minimal_degree(self):
        for r in range(1, 7):
            low = r * (r + 1) // 2
            a = macmahon_a(r, low)
            assert a[low] == 1
            assert all(a[n] == 0 for n in range(low))

    def test_c_minimal_degree(self):
        for r in range(1, 5):
            low = r * r
            c = macmahon_c(r, low)
            assert c[low] == 1
            assert all(c[n] == 0 for n in range(low))

    def test_validation(self):
        with pytest.raises(ValueError):
            macmahon_a(0, 5)
        with pytest.raises(ValueError):
            macmahon_c(1, -1)


class TestPartitionOracle:
    def test_frozen_examples(self):
        assert partition_oracle(2, 5) == 9
        assert partition_oracle(1, 6) == 12
        assert partition_oracle(3, 5) == 0

    def test_sigma_row(self):
        for n in range(1, 20):
            assert partition_oracle(1, n) == sigma_brute(1, n)

    def test_three_routes_agree_small(self):
        for r in (1, 2, 3):
            a = macmahon_a(r, 15)
            g = nested_divisor_series((2,) * r, 15)
            for n in range(16):
                assert a[n] == g[n] == partition_oracle(r, n)

    def test_three_routes_agree_odd_small(self):
        for r in (1, 2, 3):
            c = macmahon_c(r, 15)
            g = nested_divisor_series((2,) * r, 15, odd=True)
            for n in range(16):
                assert c[n] == g[n] == partition_oracle(r, n, odd=True)


class TestIndex:
    def test_validation(self):
        with pytest.raises(ValueError):
            multiple_divisor_series((), 8)
        with pytest.raises(ValueError):
            multiple_divisor_series((2, 0), 8)
        # a float part raises, as eisenstein(4.0, 5) does, and is never truncated
        with pytest.raises(TypeError):
            multiple_divisor_series((2.5, 2), 8)
        with pytest.raises(TypeError):
            multiple_divisor_series(2.0, 8)
