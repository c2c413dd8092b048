"""Property tests of the series kernel (skipped when hypothesis is absent)."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction as F  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from macmahon.series import LAMBDAS, LambdaPoly, Series  # noqa: E402

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
