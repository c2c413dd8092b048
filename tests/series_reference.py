"""Series operations that only the tests use, kept as straight reference routes.

No library code calls these: the library builds its X-graded objects in
Y = X^2.  The tests build the same objects literally in X from these
functions, so that the library's fast paths are checked against routes
that share none of their code.
"""

from fractions import Fraction

from macmahon.series import Series


def one_like(f: Series) -> Series:
    """The unit series of the ring and order of ``f``."""
    return Series.constant(f.ring.one, f.order, f.ring)


def power(f: Series, n: int) -> Series:
    """f^n by repeated squaring, truncated at the order of ``f``."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("series powers take a non-negative integer exponent")
    result, base = one_like(f), f
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def dilate(f: Series, c) -> Series:
    """Rescale the argument: f(c*x)."""
    out, scale = [], 1
    for a in f.coeffs:
        out.append(a * scale)
        scale = scale * c
    return Series(out, f.ring)


def map_coefficients(f: Series, fn, ring) -> Series:
    """The series with coefficients fn(c) over ``ring``."""
    return Series([fn(c) for c in f.coeffs], ring)


def arcsin_series(x_order: int) -> Series:
    """Taylor expansion of arcsin(x) to the given order, exact rationals.

    Coefficients come from the term-ratio recurrence
    c_{j+1} = c_j * (2j+1)^2 / ((2j+2)(2j+3)), which matches the closed form
    binom(2j, j) / (4^j (2j+1)) for the coefficient of x^(2j+1).
    """
    if x_order < 1:
        raise ValueError("arcsin series needs x_order >= 1")
    coeffs = [Fraction(0)] * (x_order + 1)
    c = Fraction(1)
    j = 0
    while 2 * j + 1 <= x_order:
        coeffs[2 * j + 1] = c
        c = c * (2 * j + 1) ** 2 / ((2 * j + 2) * (2 * j + 3))
        j += 1
    return Series(coeffs)
