"""Property tests of the series kernel (skipped when hypothesis is absent)."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction as F  # noqa: E402
from math import comb, gcd  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from macmahon.identities import GeneratorPoly, _scale_by_rationals  # noqa: E402
from macmahon.quasishuffle import HARMONIC  # noqa: E402
from lambda_poly import LAMBDAS, LambdaPoly  # noqa: E402
from series_reference import map_coefficients  # noqa: E402
from macmahon.series import RATIONALS, Series, series_ring  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)

numerators = st.one_of(st.integers(-1000, 1000), st.integers(-2**700, 2**700))
rationals = st.builds(F, numerators, st.integers(1, 10**12))
coeff_lists = st.lists(rationals, min_size=1, max_size=24)
lambda_polys = st.dictionaries(st.integers(0, 6), rationals, max_size=4).map(LambdaPoly)
lambda_lists = st.lists(lambda_polys, min_size=1, max_size=12)


def schoolbook(a, b):
    n = min(len(a), len(b))
    return tuple(sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n))


@PROPERTY
@given(coeff_lists, coeff_lists)
def test_product_is_truncated_convolution(a, b):
    assert (Series(a) * Series(b)).coeffs == schoolbook(a, b)


@PROPERTY
@given(coeff_lists, coeff_lists, coeff_lists)
def test_product_distributes_over_sum(a, b, c):
    x, y, z = Series(a), Series(b), Series(c)
    assert x * (y + z) == x * y + x * z


@PROPERTY
@given(st.lists(rationals, min_size=0, max_size=10), st.lists(rationals, min_size=0, max_size=10))
def test_exp_is_a_homomorphism(a, b):
    n = min(len(a), len(b))
    x, y = Series([0] + a[:n]), Series([0] + b[:n])
    assert (x + y).exp() == x.exp() * y.exp()


@PROPERTY
@given(lambda_lists, lambda_lists)
def test_lambda_product_is_truncated_convolution(a, b):
    x, y = Series(a, LAMBDAS), Series(b, LAMBDAS)
    assert (x * y).coeffs == schoolbook(a, b)
    assert x * y == y * x


@PROPERTY
@given(lambda_lists, lambda_lists, lambda_lists)
def test_lambda_product_distributes_over_sum(a, b, c):
    x, y, z = Series(a, LAMBDAS), Series(b, LAMBDAS), Series(c, LAMBDAS)
    assert x * (y + z) == x * y + x * z


# -- the integer form of rational series --------------------------------------
#
# A series over the rationals is stored as integer numerators over one
# denominator.  Every operation below is checked against Fraction arithmetic
# written here, and every result against the canonical form.

big_rationals = st.builds(F, st.integers(-2**300, 2**300), st.integers(1, 2**300))
entries = st.one_of(st.just(F(0)), st.integers(-9, 9), rationals, big_rationals)
rational_lists = st.one_of(
    st.lists(entries, min_size=1, max_size=24),
    st.integers(1, 24).map(lambda n: [F(0)] * n),  # the zero series
)
scalars = st.one_of(st.integers(-10**6, 10**6), rationals, big_rationals)


def assert_canonical(s):
    # one positive denominator sharing no factor with all the numerators;
    # for the zero series that forces denominator 1
    assert s._den > 0
    assert gcd(s._den, *s._nums) == 1
    assert all(type(c) is F for c in s.coeffs)


@PROPERTY
@given(rational_lists, rational_lists)
def test_sum_difference_and_negation_match_fractions(a, b):
    x, y = Series(a), Series(b)
    assert (x + y).coeffs == tuple(F(p) + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(F(p) - q for p, q in zip(a, b))
    assert (-x).coeffs == tuple(-F(p) for p in a)
    for s in (x, y, x + y, x - y, -x):
        assert_canonical(s)


@PROPERTY
@given(rational_lists, scalars)
def test_scalar_product_and_quotient_match_fractions(a, c):
    x = Series(a)
    assert (x * c).coeffs == (c * x).coeffs == tuple(F(p) * c for p in a)
    assert_canonical(x * c)
    if c:
        assert (x / c).coeffs == tuple(F(p) / c for p in a)
        assert_canonical(x / c)
    else:
        with pytest.raises(ZeroDivisionError):
            x / c


@PROPERTY
@given(rational_lists, rational_lists)
def test_peer_product_matches_fractions(a, b):
    prod = Series(a) * Series(b)
    assert prod.coeffs == schoolbook([F(p) for p in a], [F(q) for q in b])
    assert_canonical(prod)


@PROPERTY
@given(rational_lists, rational_lists, scalars)
def test_same_series_by_two_routes_is_equal(a, b, c):
    x, y = Series(a), Series(b)
    n = min(len(a), len(b)) - 1
    assert x * y == Series(schoolbook([F(p) for p in a], [F(q) for q in b]))
    assert (x + y) - y == x.truncate(n)
    assert x - x == Series([0] * len(a)) == Series.constant(0, len(a) - 1)
    if c:
        assert (x * c) / c == x
        assert x * c == Series([F(p) * c for p in a])
    if len(a) > 1:
        assert x.shift(1).odd_part() == x.truncate(len(a) - 2).even_part()
    assert x != Series(a + [0])  # a different order is a different series


def taylor_exp_local(f, q_order):
    """exp of [[q-coefficients] per X-power] by the sum of f^j / j!, in Fractions."""
    m = len(f) - 1
    zero = [F(0)] * (q_order + 1)

    def outer(a, b):
        return [[sum(col, F(0)) for col in zip(*(schoolbook(a[i], b[k - i])
                                                  for i in range(k + 1)))]
                for k in range(m + 1)]

    term = [[F(1)] + zero[1:]] + [zero] * m
    total = [list(row) for row in term]
    for j in range(1, m + 1):
        term = [[c / j for c in row] for row in outer(term, f)]
        total = [[s + t for s, t in zip(rs, rt)] for rs, rt in zip(total, term)]
    return total


@PROPERTY
@given(st.integers(0, 6), st.integers(1, 5), st.data())
def test_depth_two_compose_and_exp_match_fractions(q_order, x_order, data):
    row = st.lists(entries, min_size=q_order + 1, max_size=q_order + 1)
    phi = [[F(0)] * (q_order + 1)] + [[F(c) for c in data.draw(row)] for _ in range(x_order)]
    s = [F(0)] + [F(c) for c in data.draw(st.lists(entries, min_size=x_order,
                                                     max_size=x_order))]
    ring = series_ring(RATIONALS, q_order)
    outer = Series([Series(r) for r in phi], ring)
    composed = outer.compose(Series(s))
    result = composed.exp()

    powers = [[F(1)] + [F(0)] * x_order]
    for _ in range(x_order):
        powers.append(schoolbook(powers[-1], s))
    local = [[sum((phi[i][k] * powers[i][j] for i in range(j + 1)), F(0))
              for k in range(q_order + 1)] for j in range(x_order + 1)]
    assert [c.coeffs for c in composed.coeffs] == [tuple(r) for r in local]
    assert [c.coeffs for c in result.coeffs] == \
        [tuple(r) for r in taylor_exp_local(local, q_order)]
    for c in composed.coeffs + result.coeffs:
        assert_canonical(c)


def lift(f):
    """A series over the rationals as one over L-polynomials of degree 0, which has no integer form."""
    return map_coefficients(f, lambda c: LambdaPoly({0: c}), LAMBDAS)


def unlift(f):
    return [c.constant for c in f.coeffs]


@PROPERTY
@given(st.integers(0, 6), st.integers(1, 6), st.data())
def test_integer_sums_match_the_generic_loops(q_order, x_order, data):
    # exp, compose and the scalar sums over rational q-series (one packed sum
    # per coefficient) and over rationals (one integer sum per coefficient)
    # against the same recurrences run term by term in a ring without an
    # integer form
    row = st.lists(entries, min_size=q_order + 1, max_size=q_order + 1)
    scalar_row = st.lists(entries, min_size=x_order, max_size=x_order)
    rows = [[0] * (q_order + 1)] + [data.draw(row) for _ in range(x_order)]
    inner = Series([0] + data.draw(scalar_row))
    u = Series([1] + data.draw(scalar_row))
    fast = Series([Series(r) for r in rows], series_ring(RATIONALS, q_order))
    slow = Series([lift(Series(r)) for r in rows], series_ring(LAMBDAS, q_order))
    pairs = [(fast.exp(), slow.exp()), (fast.compose(inner), slow.compose(inner)),
             (fast.compose(inner).exp(), slow.compose(inner).exp()),
             (_scale_by_rationals(fast, u), _scale_by_rationals(slow, u))]
    for a, b in pairs:
        assert [unlift(c) for c in b.coeffs] == [list(c.coeffs) for c in a.coeffs]
        for c in a.coeffs:
            assert_canonical(c)
    # the same at depth 1: rational coefficients against degree-0 L-polynomials
    first = Series([0] + [F(r[0]) for r in rows[1:]])
    for a, b in ((first.exp(), lift(first).exp()), (first.compose(inner), lift(first).compose(inner))):
        assert unlift(b) == list(a.coeffs)
        assert_canonical(a)


# -- series over L-polynomials ------------------------------------------------
#
# Every operation on a series over LAMBDAS is checked against LambdaPoly
# arithmetic coefficient by coefficient.

big_lambda_polys = st.dictionaries(
    st.integers(0, 6), st.one_of(st.just(F(0)), rationals, big_rationals), max_size=4,
).map(LambdaPoly)
lambda_series_lists = st.one_of(
    st.lists(big_lambda_polys, min_size=1, max_size=16),
    st.integers(1, 16).map(lambda n: [LambdaPoly()] * n),  # the zero series
)


def assert_rows_canonical(s, expected):
    assert s.ring is LAMBDAS
    assert s.coeffs == tuple(expected)
    assert all(type(c) is LambdaPoly for c in s.coeffs)


@PROPERTY
@given(lambda_series_lists, lambda_series_lists, scalars)
def test_lambda_rows_match_lambda_polys(a, b, c):
    x, y = Series(a, LAMBDAS), Series(b, LAMBDAS)
    assert_rows_canonical(x, a)
    assert_rows_canonical(x + y, [p + q for p, q in zip(a, b)])
    assert_rows_canonical(x - y, [p - q for p, q in zip(a, b)])
    assert_rows_canonical(-x, [-p for p in a])
    assert_rows_canonical(x * c, [p * c for p in a])
    if c:
        assert_rows_canonical(x / c, [p / c for p in a])
        assert (x * c) / c == x
    n = len(a)
    assert_rows_canonical(x.truncate(n // 2), a[: n // 2 + 1])
    assert_rows_canonical(x.shift(n // 3 + 1), ([LambdaPoly()] * (n // 3 + 1) + a)[:n])
    assert_rows_canonical(x.even_part(), a[0::2])
    if n > 1:
        assert_rows_canonical(x.odd_part(), a[1::2])
    assert_rows_canonical(x * y, schoolbook(a, b))
    assert x * y == Series(schoolbook(a, b), LAMBDAS)  # the same series by two routes
    assert (x + y) - y == x.truncate(min(len(a), len(b)) - 1)


# -- the ring laws of the sparse polynomials -----------------------------------
#
# L-polynomials, generator polynomials and combinations of harmonic words are
# one sparse-polynomial type with three kinds of monomial.  Each kind is
# checked for the commutative-ring laws, its units, scalars acting as constant
# polynomials, and the canonical form of every result.

poly_coeffs = st.one_of(st.just(0), st.integers(-9, 9),
                        st.builds(F, st.integers(-9, 9), st.integers(1, 9)))


def polys(monomials, make, terms=4):
    return st.dictionaries(monomials, poly_coeffs, max_size=terms).map(make)


def assert_poly_canonical(p, kind):
    assert type(p) is kind
    assert all(c and type(c) in (int, F) for c in p.terms.values())
    if kind is GeneratorPoly:
        assert all(list(m) == sorted(m) for m in p.terms)


def check_ring_laws(x, y, z, s, const):
    """Ring laws on x, y, z and the scalar s; const(c) is c as a constant polynomial."""
    zero, one = const(0), const(1)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * (x - y) == x * x - y * y  # the cross terms cancel inside one product
    assert x + zero == x == x * one and x * zero == zero == x - x
    assert x + 0 == x == x * 1 and x * 0 == 0
    assert x * s == s * x == x * const(s)
    assert x + s == s + x == x + const(s)
    assert x - s == x - const(s) and s - x == const(s) - x
    results = [x + y, x - y, -x, x * y, (x * y) * z, x * (y + z), (x + y) * (x - y),
               x * s, x + s, s - x]
    if s:
        assert x / s == x * const(F(1, s))
        results.append(x / s)
    for p in results:
        assert_poly_canonical(p, type(x))


@PROPERTY
@given(*[polys(st.integers(0, 6), LambdaPoly)] * 3, poly_coeffs)
def test_lambda_polys_form_a_ring(x, y, z, s):
    check_ring_laws(x, y, z, s, lambda c: LambdaPoly({0: c}))


@PROPERTY
@given(*[polys(st.lists(st.sampled_from(("G2", "G4", "Go2")), max_size=3).map(tuple),
               GeneratorPoly)] * 3, poly_coeffs)
def test_generator_polys_form_a_ring(x, y, z, s):
    check_ring_laws(x, y, z, s, lambda c: GeneratorPoly({(): c}))


@PROPERTY
@given(*[polys(st.lists(st.integers(1, 4), max_size=3).map(tuple), HARMONIC.combo, 3)] * 3,
       poly_coeffs)
def test_word_combos_form_a_ring(x, y, z, s):
    check_ring_laws(x, y, z, s, lambda c: HARMONIC.combo({(): c}))


# -- the harmonic product of two words -----------------------------------------
#
# A term of u * v is a lattice path from (0, 0) to (|u|, |v|) with the steps
# (1, 0), (0, 1) and (1, 1): take the next letter of u, of v, or of both
# contracted to z_{a+b}.  So the multiplicities are positive and sum to the
# number of Delannoy paths, D(|u|, |v|) = sum_k C(|u|, k) C(|v|, k) 2^k, and a
# path with k contractions is a word of |u| + |v| - k letters that has the
# weight (letter sum) of u and v together.

words = st.lists(st.integers(1, 6), max_size=5).map(tuple)


@PROPERTY
@given(words, words)
def test_harmonic_product_counts_delannoy_paths(u, v):
    m, n = len(u), len(v)
    terms = HARMONIC.product(u, v).terms
    assert all(type(c) is int and c > 0 for c in terms.values())
    delannoy = sum(comb(m, k) * comb(n, k) * 2**k for k in range(min(m, n) + 1))
    assert sum(terms.values()) == delannoy
    for word in terms:
        assert sum(word) == sum(u) + sum(v)
        assert max(m, n) <= len(word) <= m + n
