"""Tests for the truncated power series engine."""

import operator
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from macmahon.series import (
    RATIONALS,
    NonzeroConstantTermError,
    Series,
    _bias,
    _pack,
    _SLOT_CODES,
    _unpack,
    series_ring,
)
from macmahon.identities import GENPOLYS, GeneratorPoly
from macmahon.qseries import eisenstein, eisenstein_odd
from macmahon.quasishuffle import HARMONIC

from lambda_poly import LAMBDAS, LambdaPoly
from series_reference import arcsin_series, dilate, map_coefficients, one_like, power


def lift_rationals(f, ring):
    """Embed a rational series into ``ring`` coefficientwise (c -> c * one)."""
    return map_coefficients(f, lambda c: ring.one * c, ring)


def sigma1_brute(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def schoolbook(a, b):
    """Truncated convolution of two coefficient sequences, straight from the definition."""
    n = min(len(a), len(b))
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n))


def taylor_exp(f):
    """exp(f) = sum_n f^n / n!, summed to the truncation order of f."""
    total = term = one_like(f)
    for n in range(1, f.order + 1):
        term = term * f
        total = total + term / factorial(n)
    return total


def horner_compose(f, g):
    """f(g) by Horner's rule over peers: f_n, then acc * g + f_i down to i = 0."""
    acc = Series.constant(f[g.order], g.order, f.ring)
    for i in range(g.order - 1, -1, -1):
        acc = acc * g + f[i]
    return acc


def rand_series(rng, order, zero_constant=False):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = F(0)
    return Series(coeffs)


class TestAdd:
    def test_cancellation(self):
        one_plus = Series([1, 1])
        one_minus = Series([1, -1])
        assert one_plus + one_minus == Series([2, 0])

    def test_zero_identity(self):
        f = Series([F(1, 3), 2, F(-5, 7)])
        assert f + Series.constant(F(0), 2) == f

    def test_g2_shift_is_divisor_sums(self):
        # adding back 1/24 removes the constant and leaves sum sigma_1(n) q^n
        f = eisenstein(2, 12) + F(1, 24)
        assert f.coeffs == tuple(F(sigma1_brute(n)) for n in range(13))

    def test_order_is_min(self):
        assert (Series([1, 2, 3]) + Series([1, 1])).order == 1


class TestMul:
    def test_difference_of_squares(self):
        assert Series([1, 1, 0]) * Series([1, -1, 0]) == Series([1, 0, -1])

    def test_one_identity(self):
        f = Series([F(2, 3), -1, F(7, 5), 0])
        assert f * Series.constant(F(1), 3) == f

    def test_square_of_n_qn(self):
        # q/(1-q)^2 = sum n q^n; freeze its square against a direct convolution
        base = Series([F(n) for n in range(6)])
        brute = [sum(a * (n - a) for a in range(n + 1)) for n in range(6)]
        assert (base * base).coeffs == tuple(F(b) for b in brute)
        assert (base * base) == Series([0, 0, 1, 4, 10, 20])

    def test_scalar_paths(self):
        f = Series([1, 2, 3])
        assert f * 2 == 2 * f == Series([2, 4, 6])
        assert f / 2 == Series([F(1, 2), 1, F(3, 2)])

    def test_commutative_associative_random(self):
        rng = random.Random(20260810)
        for _ in range(40):
            a = rand_series(rng, 8)
            b = rand_series(rng, 8)
            c = rand_series(rng, 8)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


class TestExp:
    def test_taylor(self):
        x = Series([0, 1, 0, 0])
        assert x.exp() == Series([1, 1, F(1, 2), F(1, 6)])

    def test_exp_zero(self):
        z = Series.constant(F(0), 5)
        assert z.exp() == Series.constant(F(1), 5)

    def test_exp_of_eisenstein_times_x_squared(self):
        qring = series_ring(RATIONALS, 8)
        g2 = eisenstein(2, 8)
        f = Series([qring.zero, qring.zero, g2, qring.zero, qring.zero], qring)
        assert f.exp()[4] == (g2 * g2) / 2

    def test_constant_term_guard(self):
        with pytest.raises(NonzeroConstantTermError):
            Series([1, 1, 0]).exp()

    def test_homomorphism_random(self):
        rng = random.Random(4242)
        for _ in range(20):
            a = rand_series(rng, 7, zero_constant=True)
            b = rand_series(rng, 7, zero_constant=True)
            assert (a + b).exp() == a.exp() * b.exp()


class TestCompose:
    def test_square_substitution(self):
        f = Series([0, 0, 1, 0, 0])
        g = Series([0, 1, 0, F(1, 24), 0])
        assert f.compose(g)[4] == F(1, 12)

    def test_identity_substitution(self):
        f = Series([F(3, 7), -2, F(1, 5), 4])
        x = Series([0, 1, 0, 0])
        assert f.compose(x) == f

    def test_affine_through_double_arcsin(self):
        f = Series([1, 1, 0, 0, 0, 0])
        two_asin_half = dilate(arcsin_series(5), F(1, 2)) * 2
        composed = f.compose(two_asin_half)
        assert composed == Series([1, 1, 0, F(1, 24), 0, F(3, 640)])

    def test_inner_constant_guard(self):
        with pytest.raises(NonzeroConstantTermError):
            Series([0, 1, 0]).compose(Series([1, 1, 0]))

    def test_arcsin_inverts_sine(self):
        # 2*arcsin(x/2) composed with 2*sin(x/2) is x; the sine side comes
        # from the factorial formula, independent of the arcsin recurrence
        order = 11
        sin_coeffs = [F(0)] * (order + 1)
        for j in range(0, (order - 1) // 2 + 1):
            sin_coeffs[2 * j + 1] = F((-1) ** j, 4**j * factorial(2 * j + 1))
        two_sin_half = Series(sin_coeffs)
        two_asin_half = dilate(arcsin_series(order), F(1, 2)) * 2
        x = Series([0, 1] + [0] * (order - 1))
        assert two_asin_half.compose(two_sin_half) == x


class TestArcsin:
    def test_low_order(self):
        assert arcsin_series(5) == Series([0, 1, 0, F(1, 6), 0, F(3, 40)])

    def test_even_coefficients_vanish(self):
        s = arcsin_series(10)
        assert all(s[2 * j] == 0 for j in range(6))

    def test_matches_central_binomial_formula(self):
        s = arcsin_series(25)
        for j in range(13):
            assert s[2 * j + 1] == F(comb(2 * j, j), 4**j * (2 * j + 1))

    def test_even_prefactor_series(self):
        # (2/x) * arcsin(x/2) as a series in y = x^2
        u = (dilate(arcsin_series(9), F(1, 2)) * 2).odd_part()
        assert u == Series([1, F(1, 24), F(3, 640), F(5, 7168), F(35, 294912)])

    def test_needs_positive_order(self):
        with pytest.raises(ValueError):
            arcsin_series(0)


class TestStructure:
    def test_truncate_and_shift(self):
        f = Series([1, 2, 3, 4])
        assert f.truncate(1) == Series([1, 2])
        assert f.shift(2) == Series([0, 0, 1, 2])
        assert f.shift(9) == Series([0, 0, 0, 0])
        with pytest.raises(ValueError):
            f.truncate(9)

    def test_even_odd_parts(self):
        f = Series([1, 2, 3, 4, 5])
        assert f.even_part() == Series([1, 3, 5])
        assert f.odd_part() == Series([2, 4])

    def test_getitem_bounds(self):
        f = Series([1, 2])
        with pytest.raises(IndexError):
            f[2]

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series([1.5, 0])
        with pytest.raises(TypeError):
            Series([1, 0]) * 0.5

    def test_rationals_take_only_ints_and_fractions(self):
        # a series over the rationals always has its integer form
        for bad in (LambdaPoly({1: 2}), HARMONIC.word(2), eisenstein(2, 3), "1", None):
            with pytest.raises(TypeError):
                Series([bad])
            with pytest.raises(TypeError):
                Series([0, bad])
        assert Series([LambdaPoly({1: 2})], LAMBDAS)[0] == LambdaPoly({1: 2})

    def test_getitem_reads_one_coefficient(self):
        f = Series([F(1, 2), 3, F(-4, 6)])
        values = [f[i] for i in range(3)]
        assert values == [F(1, 2), F(3), F(-2, 3)] and all(type(c) is F for c in values)
        assert f._coeffs is None  # no tuple of every coefficient was built
        assert list(f.coeffs) == values == [f[i] for i in range(3)]

    def test_pow(self):
        f = Series([1, 1, 0, 0])
        assert power(f, 0) == Series.constant(F(1), 3)
        assert power(f, 3) == Series([1, 3, 3, 1])

    def test_nested_ring_orders_are_uniform(self):
        qring = series_ring(RATIONALS, 5)
        outer = Series([qring.one, qring.zero, eisenstein(2, 5)], qring)
        squared = outer * outer
        assert all(c.order == 5 for c in squared.coeffs)

    def test_lift_rationals(self):
        qring = series_ring(RATIONALS, 3)
        lifted = lift_rationals(Series([F(1, 2), 3]), qring)
        assert lifted[0] == Series.constant(F(1, 2), 3)
        assert lifted[1] == Series.constant(F(3), 3)

    def test_mixed_depth_operands_embed_as_scalars(self):
        # a q-series combined with an X-series acts on the X^0 coefficient,
        # from either side
        qring = series_ring(RATIONALS, 4)
        inner = eisenstein(2, 4)
        outer = Series([qring.zero, qring.one], qring)
        assert (inner + outer) == (outer + inner)
        assert (inner + outer)[0] == inner
        assert (inner * outer) == (outer * inner)
        assert (inner - outer) == -(outer - inner)


class TestLambdaPoly:
    def test_arithmetic(self):
        a = LambdaPoly({0: F(-1, 24), 1: F(1, 2)})
        b = LambdaPoly({1: F(2)})
        assert a + b == LambdaPoly({0: F(-1, 24), 1: F(5, 2)})
        assert a * b == LambdaPoly({1: F(-1, 12), 2: F(1)})
        assert (a - a) == LambdaPoly()
        assert a / 2 == LambdaPoly({0: F(-1, 48), 1: F(1, 4)})

    def test_scalar_interplay(self):
        a = LambdaPoly({1: F(3)})
        assert a + 1 == LambdaPoly({0: 1, 1: 3})
        assert 2 * a == LambdaPoly({1: 6})
        assert LambdaPoly({0: F(5)}) == 5
        assert LambdaPoly() == 0

    def test_homogeneity(self):
        # the degrees present are the keys of terms; products add them
        assert LambdaPoly({3: F(1, 7)}).terms.keys() == {3}
        assert not LambdaPoly({2: 0}).terms
        assert (LambdaPoly({1: 2}) * LambdaPoly({2: F(-1, 5)})).terms.keys() == {3}
        assert LambdaPoly({0: 1, 1: 1}).terms.keys() == {0, 1}

    def test_str(self):
        assert str(LambdaPoly({0: F(-1, 24), 1: F(1, 2)})) == "-1/24 + 1/2*L"
        assert str(LambdaPoly()) == "0"

    def test_as_series_coefficients(self):
        f = Series([LambdaPoly({1: 1}), LAMBDAS.one], LAMBDAS)
        sq = f * f
        assert sq == Series([LambdaPoly({2: 1}), LambdaPoly({1: 2})], LAMBDAS)


class TestSparsePoly:
    """The constructor and the kind checks shared by the three polynomial types."""

    KINDS = [(LambdaPoly, 2), (GeneratorPoly, ("G4", "G2")), (HARMONIC.combo, (2, 1))]

    @pytest.mark.parametrize("make, mon", KINDS)
    def test_only_int_and_fraction_coefficients(self, make, mon):
        for bad in (0.1, "1/2", 1j, None, True):
            with pytest.raises(TypeError):
                make({mon: bad})
        p = make({mon: F(1, 2)})
        assert list(p.terms.values()) == [F(1, 2)]
        assert make({mon: 3}) == p * 6
        assert not make({mon: 0}).terms and not make({mon: F(0)}).terms

    def test_monomials_are_checked_and_normalised(self):
        assert GeneratorPoly({("G4", "G2"): 1, ("G2", "G4"): F(1, 2)}).terms == {
            ("G2", "G4"): F(3, 2)}
        assert not GeneratorPoly({("G4", "G2"): 1, ("G2", "G4"): -1})
        for bad in (-1, "2", 1.0):
            with pytest.raises((TypeError, ValueError)):
                LambdaPoly({bad: 1})
        for bad in ((0,), (2, -1), (2.0,)):
            with pytest.raises((TypeError, ValueError)):
                HARMONIC.combo({bad: 1})

    def test_kinds_do_not_mix(self):
        polys = [LambdaPoly({1: 2}), GeneratorPoly({("G2",): 2}), HARMONIC.word(2)]
        for x in polys:
            for y in polys:
                if x is y:
                    continue
                assert x != y
                for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                    with pytest.raises(TypeError):
                        op(x, y)

    @pytest.mark.parametrize("make, mon", KINDS)
    def test_integral_scalar_products_are_ints(self, make, mon):
        p = make({mon: F(3, 2)})
        for q, value in ((p * 2, 3), (p / F(1, 4), 6), (p * F(-2, 3), -1), (6 * p, 9)):
            (c,) = q.terms.values()
            assert type(c) is int and c == value
            # equal to, and printed as, the same polynomial with a Fraction held
            assert q == make({mon: F(value)}) and str(q) == str(make({mon: F(value)}))
        (c,) = (p * 3).terms.values()
        assert c == F(9, 2) and type(c) is F

    def test_quasi_shuffle_exp_runs_on_ints(self):
        z = [HARMONIC.ring.zero] + [HARMONIC.word(2 * k) * F(1 if k % 2 else -1, k)
                                    for k in range(1, 7)]
        b = Series(z, HARMONIC.ring).exp()
        for n in range(7):
            assert b[n] == HARMONIC.combo({(2,) * n: 1})
            assert all(type(c) is int for c in b[n].terms.values())
        # a series over the rationals still reads as Fractions
        assert all(type(c) is F for c in Series([1, 2, F(4, 2)]).coeffs)

    def test_products_own_their_terms(self):
        x = HARMONIC.product((2,), (3, 1))
        cached = HARMONIC._cache[((2,), (3, 1))]
        assert x.terms == cached and x.terms is not cached
        assert HARMONIC.product((), (2,)).terms is not HARMONIC.product((), (2,)).terms


def reference_pack(nums, width):
    """The packed int as defined: sum_i nums[i] * 256^(width*i)."""
    return sum(c << (8 * width * i) for i, c in enumerate(nums))


class TestPacking:
    """``_pack``/``_unpack`` at every struct slot width and one wider one."""

    @pytest.mark.parametrize("width", sorted(_SLOT_CODES) + [3, 13])
    def test_round_trip(self, width):
        rng = random.Random(width)
        half = 1 << (8 * width - 1)
        for size in (1, 2, 7, 38, 200):
            for _ in range(2):  # the second round meets a cached bias
                nums = [rng.randint(-half + 1, half - 1) for _ in range(size)]
                nums[0], nums[-1] = -half + 1, half - 1
                packed = _pack(nums, width)
                assert packed == reference_pack(nums, width)
                assert _unpack(packed, width, size) == tuple(nums)
                # higher slots are dropped whatever they hold
                assert _unpack(packed + (rng.randint(-9, 9) << (8 * width * size)),
                               width, size) == tuple(nums)
                assert _bias(width, size) == int.from_bytes(
                    half.to_bytes(width, "little") * size, "little")


class TestKroneckerProduct:
    """Rational products against a schoolbook convolution written here."""

    @staticmethod
    def rand_coeffs(rng, order):
        out = []
        for _ in range(order + 1):
            kind = rng.random()
            if kind < 0.2:
                out.append(F(0))
            elif kind < 0.3:
                out.append(F(rng.randint(-2**520, 2**520), rng.randint(1, 2**40)))
            else:
                out.append(F(rng.randint(-50, 50), rng.randint(1, 30)))
        return out

    def test_random_against_schoolbook(self):
        rng = random.Random(20261017)
        for _ in range(150):
            a = self.rand_coeffs(rng, rng.randint(0, 30))
            b = self.rand_coeffs(rng, rng.randint(0, 30))
            prod = Series(a) * Series(b)
            assert prod.coeffs == schoolbook(a, b)
            assert prod.ring is RATIONALS
            assert all(type(c) is F for c in prod.coeffs)

    def test_signs_and_cancellation(self):
        # (1 - x)(1 + x + x^2 + ...) = 1 exactly, with negative numerators
        geometric = Series([1] * 12)
        assert (Series([1, -1] + [0] * 10) * geometric) == Series.constant(F(1), 11)
        neg = Series([F(-3, 7), F(-1, 2), F(-5)])
        assert (neg * neg).coeffs == schoolbook(neg.coeffs, neg.coeffs)

    def test_zero_operands(self):
        zero = Series.constant(F(0), 6)
        f = Series([F(1, 3), -2, 0, F(7, 5), 0, 0, F(-9, 4)])
        assert (zero * f) == zero
        assert (f * zero) == zero
        assert (zero * zero) == zero
        sparse = Series([0, 0, 0, F(2, 9), 0, 0, 0])
        assert (sparse * f).coeffs == schoolbook(sparse.coeffs, f.coeffs)

    def test_order_zero(self):
        assert (Series([F(-2, 3)]) * Series([F(9, 4)])) == Series([F(-3, 2)])
        assert (Series([F(5)]) * Series([F(1, 2), 4, 7])) == Series([F(5, 2)])

    def test_unequal_orders_truncate_to_min(self):
        a = Series([F(1, 2), 3, F(-4, 5), 6, 7, 8])
        b = Series([2, F(-1, 3), 5])
        assert (a * b).order == (b * a).order == 2
        assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs)
        assert (b * a).coeffs == schoolbook(b.coeffs, a.coeffs)

    def test_huge_next_to_tiny(self):
        big = 2**501 + 12345
        a = Series([F(big, 3), F(1, big), F(-big), F(1, 7), F(0), F(-1)])
        b = Series([F(-1, big), F(big, big + 2), F(3), F(-big, 11), F(1), F(2**600)])
        assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs)
        assert (a * a).coeffs == schoolbook(a.coeffs, a.coeffs)

    def test_q_series_products(self):
        g2, g4 = eisenstein(2, 40), eisenstein(4, 40)
        assert (g2 * g4).coeffs == schoolbook(g2.coeffs, g4.coeffs)
        assert power(g2, 3).coeffs == schoolbook(schoolbook(g2.coeffs, g2.coeffs), g2.coeffs)


class TestLambdaProduct:
    """Products over L-polynomials against the schoolbook convolution written here."""

    @staticmethod
    def rand_poly(rng):
        terms = {}
        for e in rng.sample(range(7), rng.randint(0, 4)):  # 0 exponents: the empty poly
            kind = rng.random()
            if kind < 0.15:
                terms[e] = F(0)
            elif kind < 0.25:
                terms[e] = F(rng.randint(-2**300, 2**300), rng.randint(1, 2**40))
            else:
                terms[e] = F(rng.randint(-40, 40), rng.randint(1, 720))
        return LambdaPoly(terms)

    @staticmethod
    def check(a, b):
        prod = Series(a, LAMBDAS) * Series(b, LAMBDAS)
        expected = schoolbook(a, b)
        assert prod.ring is LAMBDAS
        assert all(type(c) is LambdaPoly for c in prod.coeffs)
        assert prod.coeffs == expected
        assert [str(c) for c in prod.coeffs] == [str(c) for c in expected]

    def test_random_mixed_degrees(self):
        rng = random.Random(20261018)
        for _ in range(120):
            a = [self.rand_poly(rng) for _ in range(rng.randint(1, 25))]
            b = [self.rand_poly(rng) for _ in range(rng.randint(1, 25))]
            self.check(a, b)

    def test_zero_and_empty_coefficients(self):
        empty = LambdaPoly()
        f = [LambdaPoly({0: F(1, 3), 2: -1}), empty, LambdaPoly({5: F(7, 2)}), empty]
        self.check([empty] * 4, f)
        self.check(f, [empty] * 4)
        self.check([empty, empty, LambdaPoly({1: 2}), empty], f)
        # terms that cancel across exponent pairs leave no zero entries behind
        x = [LambdaPoly({0: 1, 1: 1}), LambdaPoly({0: 1, 1: -1})]
        prod = Series(x, LAMBDAS) * Series([LambdaPoly({0: 1, 1: -1}), LambdaPoly()], LAMBDAS)
        assert prod.coeffs[0].terms == {0: F(1), 2: F(-1)}
        assert prod.coeffs[1].terms == {0: F(1), 1: F(-2), 2: F(1)}

    def test_order_zero_and_unequal_orders(self):
        self.check([LambdaPoly({1: F(-2, 3), 3: 5})], [LambdaPoly({0: F(9, 4)})])
        a = [LambdaPoly({e: F(e + 1, 2 + i) for e in range(i % 4)}) for i in range(9)]
        b = [LambdaPoly({2: F(-1, 3)}), LambdaPoly({0: 1, 4: F(2, 5)}), LambdaPoly({1: 7})]
        assert (Series(a, LAMBDAS) * Series(b, LAMBDAS)).order == 2
        self.check(a, b)
        self.check(b, a)

    def test_bare_rational_coefficients(self):
        # ints and bare Fractions are embedded as L^0 polys
        a = Series([F(1, 2), LambdaPoly({1: 3}), 4], LAMBDAS)
        b = Series([LambdaPoly({2: F(-1, 5)}), F(0), F(-3, 7)], LAMBDAS)
        assert (a * b).coeffs == schoolbook(a.coeffs, b.coeffs)

    def test_lifted_q_series(self):
        lift = lambda f, e: map_coefficients(f, lambda c: LambdaPoly({e: c}), LAMBDAS)  # noqa: E731
        g2, g4 = lift(eisenstein(2, 30), 1), lift(eisenstein(4, 30), 2)
        mixed = g2 + g4 + Series.constant(LambdaPoly({0: F(1, 6)}), 30, LAMBDAS)
        self.check(mixed.coeffs, mixed.coeffs)
        self.check(g2.coeffs, g4.coeffs)


class TestLambdaRows:
    """Series over L-polynomials against LambdaPoly arithmetic."""

    SCALARS = (-3, 7, F(-7, 12), F(2**300 + 1, 3**190), F(-(2**300), 2**300 - 1))

    @staticmethod
    def rand_list(rng, size):
        if rng.random() < 0.15:
            return [LambdaPoly()] * size  # the zero series
        return [TestLambdaProduct.rand_poly(rng) for _ in range(size)]

    @staticmethod
    def check(s, expected):
        """``s`` holds exactly the polynomials ``expected``."""
        assert s.ring is LAMBDAS
        assert len(s) == len(expected)
        assert all(type(c) is LambdaPoly for c in s.coeffs)
        assert s.coeffs == tuple(expected)
        assert [str(c) for c in s.coeffs] == [str(c) for c in expected]
        assert s == Series(s.coeffs, LAMBDAS)  # rebuilt from the coefficients

    def pairs(self, seed, count=60):
        rng = random.Random(seed)
        for _ in range(count):
            a = self.rand_list(rng, rng.randint(1, 16))
            b = self.rand_list(rng, rng.randint(1, 16))
            yield a, b

    def test_sum_difference_and_negation(self):
        for a, b in self.pairs(20261019):
            x, y = Series(a, LAMBDAS), Series(b, LAMBDAS)
            self.check(x, a)
            self.check(x + y, [p + q for p, q in zip(a, b)])
            self.check(x - y, [p - q for p, q in zip(a, b)])
            self.check(-x, [-p for p in a])

    def test_rows_that_cancel(self):
        a = [LambdaPoly({0: F(1, 3), 2: -1}), LambdaPoly({2: F(5, 7)}), LambdaPoly({4: 2})]
        b = [LambdaPoly({0: F(-1, 3), 2: 1}), LambdaPoly({1: F(1, 9)}), LambdaPoly({4: -2})]
        total = Series(a, LAMBDAS) + Series(b, LAMBDAS)
        self.check(total, [LambdaPoly(), LambdaPoly({1: F(1, 9), 2: F(5, 7)}), LambdaPoly()])
        zero = Series(a, LAMBDAS) - Series(a, LAMBDAS)
        self.check(zero, [LambdaPoly()] * 3)
        assert zero == Series.constant(LAMBDAS.zero, 2, LAMBDAS)
        assert zero != Series.constant(LAMBDAS.zero, 3, LAMBDAS)  # the order is kept

    def test_scalar_products_and_quotients(self):
        for a, _ in self.pairs(20261020, 30):
            x = Series(a, LAMBDAS)
            for c in self.SCALARS:
                self.check(x * c, [p * c for p in a])
                self.check(c * x, [p * c for p in a])
                self.check(x / c, [p / c for p in a])
            self.check(x * 0, [LambdaPoly()] * len(a))
            with pytest.raises(ZeroDivisionError):
                x / 0
            with pytest.raises(TypeError):
                x * 0.5
        with pytest.raises(TypeError):
            Series([LambdaPoly({1: 1}), 0.5], LAMBDAS)

    def test_selections(self):
        for a, _ in self.pairs(20261021, 40):
            x, n = Series(a, LAMBDAS), len(a)
            for k in range(n):
                self.check(x.truncate(k), a[: k + 1])
            for k in range(n + 2):
                self.check(x.shift(k), ([LambdaPoly()] * k + a)[:n])
            self.check(x.even_part(), a[0::2])
            if n > 1:
                self.check(x.odd_part(), a[1::2])

    def test_products(self):
        for a, b in self.pairs(20261022, 40):
            self.check(Series(a, LAMBDAS) * Series(b, LAMBDAS), schoolbook(a, b))

    def test_same_series_by_two_routes(self):
        for a, b in self.pairs(20261023, 40):
            x, y = Series(a, LAMBDAS), Series(b, LAMBDAS)
            n = min(len(a), len(b)) - 1
            assert (x + y) - y == x.truncate(n)
            assert x * y == Series(schoolbook(a, b), LAMBDAS)
            assert x * F(-2**300, 3) / F(-2**300, 3) == x
            assert x != Series(a + [LambdaPoly()], LAMBDAS)
            if len(a) > 1:
                assert x.shift(1).odd_part() == x.truncate(len(a) - 2).even_part()
        # a bare rational and an int are the L^0 part
        assert Series([F(1, 2), 3], LAMBDAS) == Series([LambdaPoly({0: F(1, 2)}),
                                                       LambdaPoly({0: 3})], LAMBDAS)

    @staticmethod
    def nested_product(a, b):
        """Truncated product of two lists of LambdaPoly lists, all inner lists equally long."""
        m = min(len(a), len(b))
        return [[sum(col, LambdaPoly()) for col in zip(*(schoolbook(a[i], b[k - i])
                                                          for i in range(k + 1)))]
                for k in range(m)]

    def depth_two(self, rng, q_order, x_order, zero_constant=False):
        rows = [self.rand_list(rng, q_order + 1) for _ in range(x_order + 1)]
        if zero_constant:
            rows[0] = [LambdaPoly()] * (q_order + 1)
        return rows

    def test_depth_two_product_and_exp(self):
        rng = random.Random(20261024)
        for _ in range(8):
            q_order, x_order = rng.randint(0, 4), rng.randint(0, 4)
            ring = series_ring(LAMBDAS, q_order)
            a = self.depth_two(rng, q_order, x_order)
            b = self.depth_two(rng, q_order, rng.randint(0, 4))
            f = self.depth_two(rng, q_order, x_order, zero_constant=True)
            outer = lambda rows: Series([Series(r, LAMBDAS) for r in rows], ring)  # noqa: E731
            prod = outer(a) * outer(b)
            for got, want in zip(prod.coeffs, self.nested_product(a, b), strict=True):
                self.check(got, want)
            zero = [LambdaPoly()] * (q_order + 1)
            # odd-only outer coefficients, like Z(T): a whole zero series in every other slot
            odd = [row if k % 2 else zero for k, row in enumerate(a)]
            for x, y in ((odd, b), (b, odd), (odd, odd)):
                prod = outer(x) * outer(y)
                for got, want in zip(prod.coeffs, self.nested_product(x, y), strict=True):
                    self.check(got, want)
            one = [LambdaPoly({0: 1})] + [LambdaPoly()] * q_order
            term = total = [one] + [zero] * x_order
            for j in range(1, x_order + 1):
                term = [[c / j for c in row] for row in self.nested_product(term, f)]
                total = [[s + t for s, t in zip(rs, rt)] for rs, rt in zip(total, term)]
            for got, want in zip(outer(f).exp().coeffs, total, strict=True):
                self.check(got, want)


class TestExpRecurrence:
    """The recurrence exp against sum f^n/n! in every ring it serves."""

    def test_rationals(self):
        rng = random.Random(1017)
        for order in range(0, 14):
            f = rand_series(rng, order, zero_constant=True)
            assert f.exp() == taylor_exp(f)

    def test_q_series_coefficients(self):
        rng = random.Random(1018)
        qring = series_ring(RATIONALS, 9)
        for _ in range(3):
            coeffs = [qring.zero] + [rand_series(rng, 9) for _ in range(6)]
            f = Series(coeffs, qring)
            assert f.exp() == taylor_exp(f)
        odd = Series([qring.zero] + [eisenstein_odd(2 * j, 9) for j in range(1, 6)], qring)
        assert odd.exp() == taylor_exp(odd)

    def test_lambda_polys(self):
        rng = random.Random(1019)
        for _ in range(5):
            coeffs = [LAMBDAS.zero] + [
                LambdaPoly({rng.randint(0, 3): F(rng.randint(-5, 5), rng.randint(1, 5)),
                            rng.randint(0, 3): F(rng.randint(-5, 5), rng.randint(1, 5))})
                for _ in range(8)]
            f = Series(coeffs, LAMBDAS)
            assert f.exp() == taylor_exp(f)

    def test_generator_polys(self):
        g = [GeneratorPoly.generator(f"G{2 * j}") for j in range(1, 5)]
        coeffs = [GENPOLYS.zero, g[0], g[1] * F(-1, 2), g[0] * g[1] + F(1, 3), GENPOLYS.zero,
                  g[3] * F(2, 5)]
        f = Series(coeffs, GENPOLYS)
        assert f.exp() == taylor_exp(f)

    def test_word_combos(self):
        w = HARMONIC.word
        coeffs = [HARMONIC.ring.zero, w(2), w(4) * F(-1, 2), w(2, 3) + w(1) * 3,
                  HARMONIC.ring.zero, w(5) * F(1, 7)]
        f = Series(coeffs, HARMONIC.ring)
        assert f.exp() == taylor_exp(f)

    def test_sparse_argument(self):
        # only even powers present: the recurrence skips the zero pairs
        f = Series([0, 0, F(1, 3), 0, F(-2), 0, 0, 0, F(5, 2), 0])
        assert f.exp() == taylor_exp(f)
        assert all(f.exp()[k] == 0 for k in range(1, 10, 2))


class TestPackedSums:
    """exp and compose over q-series whose sums fill their slots, against other routes.

    Every numerator is as large as its bit length allows and all have one
    sign, so the packed sums reach the bound their slot width is chosen
    from: a slot one bit too narrow shows as a wrong coefficient.
    """

    @pytest.mark.parametrize("bits", list(range(1, 70, 4)) + [90, 130])
    def test_full_slots(self, bits):
        for q_order in (0, 11):
            qring = series_ring(RATIONALS, q_order)
            for sign in (1, -1):
                row = Series([sign * (2**bits - 1)] * (q_order + 1))
                f = Series([qring.zero] + [row] * 8, qring)
                assert f.exp() == taylor_exp(f)
                g = f.exp() - 1  # rows that came out of packed sums
                assert g.exp() == taylor_exp(g)
                inner = Series([0] + [1] * 8)
                assert f.compose(inner) == horner_compose(f, lift_rationals(inner, qring))


class TestComposeRationalInner:
    """Composition with a rational inner series acting by scalars."""

    def test_rational_against_horner(self):
        rng = random.Random(1020)
        for order in range(0, 12):
            f = rand_series(rng, order)
            g = rand_series(rng, order, zero_constant=True)
            assert f.compose(g) == horner_compose(f, g)

    def test_q_series_outer_against_lifted_peer(self):
        rng = random.Random(1021)
        qring = series_ring(RATIONALS, 8)
        for _ in range(3):
            outer = Series([rand_series(rng, 8) for _ in range(7)], qring)
            inner = rand_series(rng, 6, zero_constant=True)
            fast = outer.compose(inner)
            lifted = lift_rationals(inner, qring)
            assert fast == outer.compose(lifted)
            assert fast == horner_compose(outer, lifted)

    def test_generator_outer_against_lifted_peer(self):
        g2, g4 = GeneratorPoly.generator("G2"), GeneratorPoly.generator("G4")
        outer = Series([GENPOLYS.zero, g2, g4 * F(-1, 2), g2 * g4, g2 * g2 * F(1, 3)], GENPOLYS)
        inner = (dilate(arcsin_series(4), F(1, 2)) * 2)
        assert outer.compose(inner) == horner_compose(outer, lift_rationals(inner, GENPOLYS))

    def test_unequal_orders(self):
        qring = series_ring(RATIONALS, 4)
        outer = Series([eisenstein(2, 4)] * 8, qring)
        inner = Series([0, 1, F(1, 2), F(-1, 3)])
        assert outer.compose(inner).order == 3
        assert outer.compose(inner) == horner_compose(outer.truncate(3), lift_rationals(inner, qring))

    def test_other_inner_rings_rejected(self):
        qring = series_ring(RATIONALS, 4)
        outer = Series([eisenstein(2, 4)] * 3, qring)
        with pytest.raises(TypeError):
            outer.compose(Series([LAMBDAS.zero, LAMBDAS.one, LAMBDAS.zero], LAMBDAS))
        with pytest.raises(NonzeroConstantTermError):
            outer.compose(Series([1, 1, 0]))
