"""Truncated formal power series over exact coefficient rings.

The engine is deliberately generic: coefficients only need ``+``, ``-``,
``*``, ``==`` and division by integers, plus a :class:`CoeffRing`
descriptor supplying the two units.  The same :class:`Series` class then
covers every nesting used in this package:

* series in q over `Fraction` (divisor generating functions),
* series in q over :class:`LambdaPoly` (weight-graded expansions),
* series in X or T whose coefficients are themselves series in q,
* series in X over polynomials in named generators.

Truncation is explicit and lossy: a binary operation returns a series whose
order is the minimum of the operands' orders, i.e. exactly the range of
coefficients both inputs determine.  All values are immutable after
construction and every operation is a pure function.

Costs, for order n and coefficient products counted as one step each:

* ``a * b`` between two series over :data:`RATIONALS` is one big-integer
  product by Kronecker substitution (the numerators over a common
  denominator are packed into one int each), so the convolution runs in
  CPython's Karatsuba multiply.  Over :data:`LAMBDAS` it is one such
  product per pair of L-exponents present in the operands.  The other
  rings use the O(n^2) schoolbook convolution.
* :meth:`Series.exp` uses the recurrence for b' = a'b: O(n^2) coefficient
  products.
* :meth:`Series.compose` builds the n powers of the inner series (n series
  products) and then takes O(n^2) coefficient-times-scalar products.  An
  inner series over :data:`RATIONALS` acts through rational scalars, so the
  outer coefficients are never multiplied by each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable


class NonzeroConstantTermError(ValueError):
    """A series operation required a vanishing constant term."""


def _reject_float(x):
    if isinstance(x, (float, complex)):
        raise TypeError("exact arithmetic only: float/complex not allowed here")
    return x


class CoeffRing:
    """Descriptor of a commutative coefficient ring.

    Elements carry their own arithmetic through operators; the descriptor
    only pins down the additive and multiplicative units so generic series
    code can build constants of the right kind.
    """

    __slots__ = ("zero", "one")

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one

    def __eq__(self, other):
        if not isinstance(other, CoeffRing):
            return NotImplemented
        return self.zero == other.zero and self.one == other.one

    def __repr__(self):
        return f"CoeffRing(zero={self.zero!r}, one={self.one!r})"


#: The rational numbers, the base ring of everything else.
RATIONALS = CoeffRing(Fraction(0), Fraction(1))


class LambdaPoly:
    """Polynomial in the formal weight symbol L = (2*pi*i)^2.

    Keeps track of the powers of 2*pi*i attached to weight-graded objects;
    under this convention pi^2 = -L/4.  Stored sparsely as
    ``{exponent: Fraction}`` with no zero entries, so equality is
    structural.  The L^0 part is the purely rational component.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                e = int(e)
                if e < 0:
                    raise ValueError("negative L exponent")
                c = Fraction(_reject_float(c))
                if c:
                    clean[e] = c
        self.coeffs = clean

    @classmethod
    def term(cls, exponent: int, coeff=1) -> "LambdaPoly":
        return cls({exponent: Fraction(coeff)})

    @property
    def constant(self) -> Fraction:
        return self.coeffs.get(0, Fraction(0))

    def exponents(self):
        return set(self.coeffs)

    def is_homogeneous(self, degree: int) -> bool:
        """True when every monomial (if any) has exponent ``degree``."""
        return all(e == degree for e in self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, LambdaPoly):
            out = dict(self.coeffs)
            for e, c in other.coeffs.items():
                s = out.get(e, 0) + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
            return LambdaPoly(out)
        if isinstance(other, (int, Fraction)):
            return self + LambdaPoly({0: other})
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, LambdaPoly) else LambdaPoly({0: -Fraction(other)}))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LambdaPoly):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return LambdaPoly(out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return LambdaPoly()
            return LambdaPoly({e: c * other for e, c in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return LambdaPoly({e: c / Fraction(other) for e, c in self.coeffs.items()})
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, LambdaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({0: Fraction(other)} if other else {})
        return NotImplemented

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("L" if e == 1 else f"L^{e}")
            else:
                parts.append(f"{c}*L" if e == 1 else f"{c}*L^{e}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"LambdaPoly({self.coeffs!r})"


#: Polynomials in L = (2*pi*i)^2 as a coefficient ring.
LAMBDAS = CoeffRing(LambdaPoly(), LambdaPoly({0: 1}))


def _depth(x) -> int:
    return x._series_depth if isinstance(x, Series) else 0


def _pack(nums, width: int) -> int:
    """sum_i nums[i] * 256^(width*i) for signed ints that fit in width-byte slots."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in nums)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in nums)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_ints(a: list, b: list) -> list:
    """Truncated product of two equally long lists of ints, as one int product.

    Every product coefficient is a sum of at most ``len(a)`` products, so a
    slot of bitlen(len * max|a| * max|b|) + 1 bits (the extra bit for the
    sign), rounded up to whole bytes, holds it exactly.  The packed operands
    are multiplied as plain ints; adding half a slot to each of the low
    ``len(a)`` slots makes them all non-negative, so they are read off the
    bytes of the product without carries.
    """
    size = len(a)
    bound = size * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * size
    width = (bound.bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    low = (_pack(a, width) * _pack(b, width) + bias) & ((1 << (8 * width * size)) - 1)
    raw = low.to_bytes(width * size, "little")
    return [int.from_bytes(raw[k:k + width], "little") - half
            for k in range(0, width * size, width)]


def _kronecker_product(a: tuple, b: tuple) -> tuple:
    """Truncated product of two equally long tuples of rationals.

    Each operand becomes integer numerators over its lcm denominator, and
    the numerators are multiplied by :func:`_kronecker_ints`.
    """
    den_a = lcm(*(c.denominator for c in a))
    den_b = lcm(*(c.denominator for c in b))
    num_a = [c.numerator * (den_a // c.denominator) for c in a]
    num_b = [c.numerator * (den_b // c.denominator) for c in b]
    den = den_a * den_b
    return tuple(Fraction(c, den) for c in _kronecker_ints(num_a, num_b))


def _split_by_exponent(coeffs: tuple) -> dict:
    """{e: the rational coefficients of L^e} of a tuple of L-polynomials.

    A bare rational coefficient counts as its own L^0 part; missing terms
    are zero.
    """
    zero = Fraction(0)
    rows = {}
    for k, c in enumerate(coeffs):
        for e, v in (c.coeffs.items() if isinstance(c, LambdaPoly) else ((0, c),)):
            if v:
                rows.setdefault(e, [zero] * len(coeffs))[k] = v
    return rows


def _lambda_product(a: tuple, b: tuple) -> tuple:
    """Truncated product of two equally long tuples of L-polynomials.

    Every pair of L-exponents (e1, e2) contributes the rational product of
    their coefficient rows, by :func:`_kronecker_product`, to exponent
    e1 + e2.
    """
    rows_b = _split_by_exponent(b).items()
    out = {}
    for e1, row_a in _split_by_exponent(a).items():
        for e2, row_b in rows_b:
            prod = _kronecker_product(row_a, row_b)
            e = e1 + e2
            out[e] = prod if e not in out else [x + y for x, y in zip(out[e], prod)]
    return tuple(LambdaPoly({e: row[k] for e, row in out.items()}) for k in range(len(a)))


class Series:
    """A truncated power series: ``coeffs[i]`` is the coefficient of x^i.

    ``order`` is the highest retained power; higher coefficients are
    unknown, not zero.  Coefficients live in ``ring``; integers passed as
    coefficients are embedded via ``ring.one``.

    >>> x = Series([0, 1, 0, 0])
    >>> ((1 + x) * (1 - x)).coeffs
    (Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1), Fraction(0, 1))
    """

    __slots__ = ("ring", "coeffs", "_series_depth")

    def __init__(self, coeffs, ring: CoeffRing = RATIONALS):
        coeffs = tuple(
            ring.one * c if isinstance(c, int) else _reject_float(c)
            for c in coeffs
        )
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self.ring = ring
        self.coeffs = coeffs
        self._series_depth = 1 + _depth(coeffs[0])

    @classmethod
    def constant(cls, value, order: int, ring: CoeffRing = RATIONALS) -> "Series":
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls((value,) + (ring.zero,) * order, ring)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int):
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} outside truncation order {self.order}")
        return self.coeffs[i]

    def __len__(self):
        return len(self.coeffs)

    def _zero_like(self, order=None):
        return Series.constant(self.ring.zero, self.order if order is None else order, self.ring)

    def _one_like(self, order=None):
        return Series.constant(self.ring.one, self.order if order is None else order, self.ring)

    def _is_peer(self, other) -> bool:
        return isinstance(other, Series) and other._series_depth == self._series_depth

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if self._is_peer(other):
            n = min(self.order, other.order)
            return Series(
                tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])),
                self.ring,
            )
        if isinstance(other, Series) and other._series_depth > self._series_depth:
            return other + self  # the deeper series absorbs this one as a scalar
        _reject_float(other)
        return Series((self.coeffs[0] + other,) + self.coeffs[1:], self.ring)

    __radd__ = __add__

    def __neg__(self):
        return Series(tuple(-c for c in self.coeffs), self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product truncated at the smaller order; a non-peer operand acts as a scalar.

        Two series over :data:`RATIONALS` multiply by Kronecker substitution
        (:func:`_kronecker_product`): one big-integer product plus O(n)
        packing and n + 1 fraction reductions.  Two series over
        :data:`LAMBDAS` are split by L-exponent into rational rows and
        multiply as one Kronecker product per pair of exponents
        (:func:`_lambda_product`).  The other rings (generator polynomials,
        quasi-shuffle words, nested series) use the schoolbook convolution,
        (n + 1)(n + 2)/2 coefficient products.
        """
        if self._is_peer(other):
            n = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            if self.ring is RATIONALS and other.ring is RATIONALS:
                return Series(_kronecker_product(a[: n + 1], b[: n + 1]))
            if self.ring is LAMBDAS and other.ring is LAMBDAS:
                return Series(_lambda_product(a[: n + 1], b[: n + 1]), LAMBDAS)
            out = []
            for k in range(n + 1):
                acc = a[0] * b[k]
                for i in range(1, k + 1):
                    acc = acc + a[i] * b[k - i]
                out.append(acc)
            return Series(tuple(out), self.ring)
        if isinstance(other, Series) and other._series_depth > self._series_depth:
            return other * self  # the deeper series absorbs this one as a scalar
        _reject_float(other)
        return Series(tuple(c * other for c in self.coeffs), self.ring)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            raise TypeError("series division is not supported; divide by a scalar")
        _reject_float(other)
        return Series(tuple(c / other for c in self.coeffs), self.ring)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers take a non-negative integer exponent")
        result = self._one_like()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if self._is_peer(other):
            return self.order == other.order and self.coeffs == other.coeffs
        if isinstance(other, Series):
            return False
        try:
            return self == Series.constant(other, self.order, self.ring)
        except TypeError:
            return NotImplemented

    # -- structural helpers -------------------------------------------

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return Series(self.coeffs[: order + 1], self.ring)

    def shift(self, k: int) -> "Series":
        """Multiply by x^k, keeping the same truncation order."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        if k > self.order:
            return self._zero_like()
        zeros = (self.ring.zero,) * k
        return Series(zeros + self.coeffs[: self.order + 1 - k], self.ring)

    def dilate(self, c) -> "Series":
        """Rescale the argument: return f(c*x)."""
        _reject_float(c)
        out, power = [], None
        for i, a in enumerate(self.coeffs):
            power = 1 if i == 0 else (c if i == 1 else power * c)
            out.append(a if i == 0 else a * power)
        return Series(tuple(out), self.ring)

    def even_part(self) -> "Series":
        """Coefficients of even powers, reindexed: f(x) = g(x^2) + x*h(x^2) -> g."""
        return Series(self.coeffs[0::2], self.ring)

    def odd_part(self) -> "Series":
        """Coefficients of odd powers, reindexed: f(x) = g(x^2) + x*h(x^2) -> h."""
        if self.order < 1:
            raise ValueError("need order >= 1 for an odd part")
        return Series(self.coeffs[1::2], self.ring)

    def map_coefficients(self, fn: Callable, ring: CoeffRing) -> "Series":
        return Series(tuple(fn(c) for c in self.coeffs), ring)

    # -- analytic operations ------------------------------------------

    def exp(self) -> "Series":
        """exp of a series with zero constant term, truncated at this order.

        b = exp(a) solves b' = a'b with b_0 = 1, which gives the recurrence
        b_k = (1/k) * sum_{i=1..k} (i a_i) b_{k-i}.  It holds in every
        commutative Q-algebra and costs O(n^2) coefficient products (pairs
        with a zero factor are skipped).
        """
        zero = self.ring.zero
        if not self.coeffs[0] == zero:
            raise NonzeroConstantTermError("exp needs a vanishing constant term")
        scaled = [(i, i * c) for i, c in enumerate(self.coeffs) if i and not c == zero]
        out = [self.ring.one]
        nonzero = [True]
        for k in range(1, self.order + 1):
            acc = zero
            for i, ia in scaled:
                if i > k:
                    break
                if nonzero[k - i]:
                    acc = acc + ia * out[k - i]
            out.append(acc / k)
            nonzero.append(not acc == zero)
        return Series(out, self.ring)

    def compose(self, inner: "Series") -> "Series":
        """Substitute ``inner`` (zero constant term) into this series.

        ``inner`` is either a peer of this series or a series over
        :data:`RATIONALS`, whose coefficients then act as scalars on this
        series' coefficients.  With P_i = inner^i (n series products),
        coefficient j of the result is sum_{i<=j} self[i] * P_i[j]: O(n^2)
        coefficient-times-scalar products, zero scalars skipped.
        """
        if not (self._is_peer(inner) or (isinstance(inner, Series) and inner.ring is RATIONALS)):
            raise TypeError("composition needs an inner series over the same ring level "
                            "or over the rationals")
        zero = inner.ring.zero
        if not inner.coeffs[0] == zero:
            raise NonzeroConstantTermError("composition needs a vanishing inner constant term")
        order = min(self.order, inner.order)
        inner = inner.truncate(order)
        powers = [Series.constant(inner.ring.one, order, inner.ring), inner][: order + 1]
        while len(powers) <= order:
            powers.append(powers[-1] * inner)
        out = []
        for j in range(order + 1):
            acc = self.ring.zero
            for c, power in zip(self.coeffs, powers[: j + 1]):
                if not power[j] == zero:
                    acc = acc + c * power[j]
            out.append(acc)
        return Series(out, self.ring)

    # -- display -------------------------------------------------------

    def poly_str(self, var: str = "q") -> str:
        """Readable polynomial rendering, omitting zero terms."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            cs = str(c)
            wrap = f"({cs})" if any(ch in cs[1:] for ch in "+-* ") else cs
            if i == 0:
                parts.append(wrap)
            elif wrap == "1":
                parts.append(var if i == 1 else f"{var}^{i}")
            else:
                parts.append(f"{wrap}*{var}" if i == 1 else f"{wrap}*{var}^{i}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    def __str__(self):
        return self.poly_str("x")


def series_ring(coeff_ring: CoeffRing, order: int) -> CoeffRing:
    """Ring descriptor whose elements are order-``order`` series over ``coeff_ring``.

    Using it as the coefficient ring of an outer :class:`Series` gives
    two-level objects (series in X or T of series in q) in which every inner
    series shares the same truncation order by construction.
    """
    return CoeffRing(
        Series.constant(coeff_ring.zero, order, coeff_ring),
        Series.constant(coeff_ring.one, order, coeff_ring),
    )


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


def lift_rationals(f: Series, ring: CoeffRing) -> Series:
    """Embed a rational series into ``ring`` coefficientwise (c -> c * one)."""
    return f.map_coefficients(lambda c: ring.one * c, ring)
