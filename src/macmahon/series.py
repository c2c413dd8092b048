"""Truncated formal power series over exact coefficient rings.

The engine is deliberately generic: coefficients only need ``+``, ``-``,
``*``, ``==`` and division by integers, plus a :class:`CoeffRing`
descriptor supplying the two units.  The same :class:`Series` class then
covers every nesting used in this package:

* series in q over `Fraction` (divisor generating functions),
* series in X or Y = T^2 whose coefficients are themselves series in q,
* series in X over polynomials in named generators,
* series in T over linear combinations of quasi-shuffle words.

The two polynomial rings, polynomials in named generators
(:class:`~macmahon.identities.GeneratorPoly`) and combinations of words
(:class:`~macmahon.quasishuffle.WordCombo`), are thin subclasses of
:class:`SparsePoly`, which holds their one copy of the sparse
``{monomial: coefficient}`` arithmetic; each subclass adds only its
monomials, their product and its rendering.

Truncation is explicit and lossy: a binary operation returns a series whose
order is the minimum of the operands' orders, i.e. exactly the range of
coefficients both inputs determine.  All values are immutable after
construction and every operation is a pure function.

A series over :data:`RATIONALS` is stored as integer numerators over one
positive common denominator, reduced so that the gcd of the denominator and
all numerators is 1 (a zero series has denominator 1).  The form is unique,
so ``==`` compares integers.  :attr:`Series.coeffs` builds the `Fraction`
tuple on first read and keeps it.  Sums, negation, scalar products and
quotients by an int or `Fraction`, peer products and the coefficient
selections (``truncate``, ``shift``, ``even_part``, ``odd_part``) work on
the integers and reduce once per result with one gcd pass, never once per
coefficient.  Every other ring holds its coefficients as they are.

Costs, for order n and coefficient products counted as one step each:

* ``a * b`` between two series over :data:`RATIONALS` is one big-integer
  product of the packed numerators by Kronecker substitution, so the
  convolution runs in CPython's Karatsuba multiply; the denominators
  multiply.  The other rings use the O(n^2) schoolbook convolution.
  Slots of 1, 2, 4 or 8 bytes are packed and read by ``struct`` in C,
  wider ones byte string by byte string.
* ``a + b`` and scalar products of a series over :data:`RATIONALS` take
  O(n) integer operations plus the gcd pass.
* :meth:`Series.exp` uses the recurrence for b' = a'b: O(n^2) coefficient
  products.
* :meth:`Series.compose` builds the n powers of the inner series (n series
  products) and then takes O(n^2) coefficient-times-scalar products.  An
  inner series over :data:`RATIONALS` acts through rational scalars, so the
  outer coefficients are never multiplied by each other.

The recurrence of :meth:`Series.exp` and the sums of :meth:`Series.compose`
are one algorithm for every ring; only the way one output coefficient's
sum is formed depends on the ring (:class:`_RingRows`).  Over q-series in
integer form (series in X or Y of rational q-series) each operand is
packed once per call and slot width, and each output coefficient is one
sum of packed products or scalar multiples, read out and reduced once:
O(n^2) big-integer products and O(n) read-outs, where the term-by-term sum
takes O(n^2) of each, plus a gcd pass per term.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


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


def _integral(x):
    """An int or `Fraction` ``x`` as an int if its value is one, else as it is."""
    return x.numerator if x.denominator == 1 else x


class SparsePoly:
    """Sparse polynomial with rational coefficients, ``terms = {monomial: coefficient}``.

    Coefficients are ints or `Fraction`s and no zero one is stored, so
    equality is structural.  A scalar product or quotient keeps every
    coefficient whose value is an integer as an int, so the products and
    sums that follow stay in ints.  A subclass says what a monomial is: ``UNIT``,
    the monomial of the constants; :meth:`_monomial`, which checks and
    normalises a monomial given to the public constructor; and
    :meth:`_mul_monomials`, the product of two monomials as
    ``(monomial, multiplicity)`` pairs.  Sums, negation, scalar products and
    quotients by an int or `Fraction`, ``==`` (a scalar is the constant
    polynomial) and the one bilinear product live here.  A polynomial holds
    its terms and nothing else.  Only the public constructor validates;
    every arithmetic result is built by :meth:`_from_terms` from a fresh
    dict that is already canonical, shared with no operand or memo.
    Polynomials of two different subclasses do not mix: their sums and
    products raise ``TypeError``.
    """

    __slots__ = ("terms",)

    UNIT = ()

    def __init__(self, terms=None):
        clean = {}
        for mon, c in (terms or {}).items():
            if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
                raise TypeError("exact arithmetic only: coefficients must be int or Fraction, "
                                f"not {type(c).__name__}")
            mon = self._monomial(mon)
            clean[mon] = clean.get(mon, 0) + c
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def _from_terms(cls, terms: dict) -> "SparsePoly":
        """The polynomial holding ``terms`` as they are: canonical, and not shared."""
        self = object.__new__(cls)
        self.terms = terms
        return self

    def _peer(self, other) -> bool:
        return type(other) is type(self)

    @property
    def constant(self):
        return self.terms.get(self.UNIT, Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if self._peer(other):
            out = dict(self.terms)
            for m, c in other.terms.items():
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            return self._from_terms(out)
        if isinstance(other, (int, Fraction)):
            return self + self._from_terms({self.UNIT: other} if other else {})
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self._from_terms({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if self._peer(other) or isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if self._peer(other):
            mul = self._mul_monomials
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    c = c1 * c2
                    for m, k in mul(m1, m2):
                        out[m] = out.get(m, 0) + (c if k == 1 else c * k)
            return self._from_terms({m: c for m, c in out.items() if c})
        if isinstance(other, (int, Fraction)):
            return self._from_terms({m: _integral(c * other) for m, c in self.terms.items()}
                                    if other else {})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __eq__(self, other):
        if self._peer(other):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({self.UNIT: other} if other else {})
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


def _depth(x) -> int:
    return x._series_depth if isinstance(x, Series) else 0


# the struct codes of the slot widths in bytes that a C integer holds: such
# slots are packed and read by struct, not one by one
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _width(bits: int) -> int:
    """Bytes of a slot for ints of ``bits`` bits and a sign: a C integer size, or whole bytes."""
    width = (bits + 8) // 8
    return next((w for w in _SLOT_CODES if w >= width), width)


# every _pack and _unpack needs a bias: a verify_main_a/c window of q_order
# 12-37 makes about 46 calls over about 17 (width, size) pairs, and 128
# entries hold the about 115 pairs of all such windows.  An entry holds
# width * size bytes
@lru_cache(maxsize=128)
def _bias(width: int, size: int) -> int:
    """Half a slot in each of ``size`` slots of ``width`` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * size, "little")


def _pack(nums, width: int) -> int:
    """sum_i nums[i] * 256^(width*i) for signed ints that lie strictly within half a slot of zero.

    Each number, shifted up by half a slot, is non-negative; the shift is
    taken off the packed int as a whole.  For a C integer slot the shifted
    number is the two's complement one with its top bit flipped.
    """
    bias = _bias(width, len(nums))
    code = _SLOT_CODES.get(width)
    if code:
        raw = struct.pack(f"<{len(nums)}{code}", *nums)
        return (int.from_bytes(raw, "little") ^ bias) - bias
    half = 1 << (8 * width - 1)
    return int.from_bytes(b"".join([(c + half).to_bytes(width, "little") for c in nums]),
                          "little") - bias


def _unpack(value: int, width: int, size: int) -> tuple:
    """The ``size`` low slots of a packed int, as signed ints.

    Every low slot must lie strictly within half a slot of zero.  Shifted up
    by half a slot they are non-negative, so no carry crosses a slot; the
    slots above ``size`` are dropped, whatever they hold.
    """
    bias = _bias(width, size)
    shifted = (value + bias) & ((1 << (8 * width * size)) - 1)
    code = _SLOT_CODES.get(width)
    if code:
        return struct.unpack(f"<{size}{code}", (shifted ^ bias).to_bytes(width * size, "little"))
    half = 1 << (8 * width - 1)
    raw = shifted.to_bytes(width * size, "little")
    return tuple([int.from_bytes(raw[k:k + width], "little") - half
                  for k in range(0, width * size, width)])


def _kronecker_ints(a, b) -> tuple:
    """Truncated product of two equally long lists of ints, as one int product.

    Every product coefficient is a sum of at most ``len(a)`` products, so a
    slot for bitlen(len * max|a| * max|b|) bits (:func:`_width`) holds it
    exactly.  The packed operands are multiplied as plain ints and the low
    ``len(a)`` slots read off.
    """
    size = len(a)
    bound = size * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return (0,) * size
    width = _width(bound.bit_length())
    return _unpack(_pack(a, width) * _pack(b, width), width, size)


class _RingRows:
    """The coefficient sums of :meth:`Series.exp` and :meth:`Series.compose`, term by term.

    The rows are ring elements, each with an index.  :meth:`add_products`
    appends (sum of rows[x] * rows[y] over its (x, y) pairs) / den;
    :meth:`scalar_sums` gives, per output, the sum of rows[x] * s over its
    (s, x) pairs.  Subclasses form the same sums in integers.
    """

    def __init__(self, ring: CoeffRing):
        self.zero = ring.zero
        self.rows = []

    def add(self, c) -> int:
        self.rows.append(c)
        return len(self.rows) - 1

    def add_products(self, pairs: list, den: int) -> int:
        acc = self.zero
        for x, y in pairs:
            acc = acc + self.rows[x] * self.rows[y]
        return self.add(acc / den)

    def scalar_sums(self, outputs: list) -> list:
        out = []
        for terms in outputs:
            acc = self.zero
            for s, x in terms:
                acc = acc + self.rows[x] * s
            out.append(acc)
        return out


class _PackedRows(_RingRows):
    """The sums of :class:`_RingRows` over integer-form q-series of one length.

    An output is formed over one common denominator as one packed int (the
    products by Kronecker substitution, as in :func:`_kronecker_ints`),
    then read out and reduced once.  A row is packed from its first nonzero
    numerator on, once per call and slot width, and shifted into place; a
    product only multiplies the slots that reach below the row length.
    """

    def __init__(self, ring: CoeffRing):
        super().__init__(ring)
        self.size = len(ring.one)
        self.width = 1
        self.bits = []  # bit length of each row's largest |numerator|
        self.vals = []  # index of each row's first nonzero numerator (size if none)
        self.packed = []  # (width, numerators from vals[x] on packed at that width) of each row

    def add(self, c) -> int:
        nums = c._nums
        self.bits.append(max(map(abs, nums)).bit_length())
        self.vals.append(next((i for i, n in enumerate(nums) if n), self.size))
        self.packed.append((0, 0))
        return super().add(c)

    def _packed(self, x: int) -> int:
        entry = self.packed[x]
        if entry[0] != self.width:
            entry = self.packed[x] = (self.width, _pack(self.rows[x]._nums[self.vals[x]:],
                                                        self.width))
        return entry[1]

    def _sums(self, outputs: list, products: bool) -> list:
        """Each output (den, [(s, x, y)]) as the series sum s * rows[x] * rows[y] / den.

        y is None for a scalar multiple of rows[x].  The weights of an
        output are brought over one denominator; the slots then hold
        sum |weight| * max|rows[x]| * max|rows[y]|, times the row length for
        products, plus a sign bit.
        """
        rows, bits = self.rows, self.bits
        plans, need = [], 0
        for den, terms in outputs:
            dens = [s.denominator * rows[x]._den * (rows[y]._den if products else 1)
                    for s, x, y in terms]
            common = lcm(*dens)
            weights = [s.numerator * (common // d) for (s, _, _), d in zip(terms, dens)]
            for w, (_, x, y) in zip(weights, terms):
                need = max(need, w.bit_length() + bits[x] + (bits[y] if products else 0))
            plans.append((common * den, weights, terms))
        need += max([len(t) for _, t in outputs]).bit_length()
        if products:
            need += self.size.bit_length()
        self.width = width = max(self.width, _width(need))
        packed, vals, out = self._packed, self.vals, []
        for common, weights, terms in plans:
            total = 0
            for w, (_, x, y) in zip(weights, terms):
                shift = vals[x] + (vals[y] if products else 0)
                if shift >= self.size:
                    continue
                p = packed(x)
                if products:
                    # only the slots that land below the row length
                    mask = (1 << (8 * width * (self.size - shift))) - 1
                    p = (p & mask) * (packed(y) & mask)
                total += (p if w == 1 else w * p) << (8 * width * shift)
            out.append(Series._from_ints(_unpack(total, width, self.size), common))
        return out

    def add_products(self, pairs: list, den: int) -> int:
        return self.add(self._sums([(den, [(1, x, y) for x, y in pairs])], True)[0])

    def scalar_sums(self, outputs: list) -> list:
        return self._sums([(1, [(s, x, None) for s, x in terms]) for terms in outputs], False)


def _row_sums(ring: CoeffRing, rows) -> _RingRows:
    """:class:`_PackedRows` over integer-form q-series of one length, else :class:`_RingRows`.

    ``ring``'s unit and every one of ``rows`` must be such q-series.
    """
    one = ring.one
    if isinstance(one, Series) and one._nums is not None and all(
            [c._nums is not None and c._len == one._len for c in rows]):
        return _PackedRows(ring)
    return _RingRows(ring)


class Series:
    """A truncated power series: ``coeffs[i]`` is the coefficient of x^i.

    ``order`` is the highest retained power; higher coefficients are
    unknown, not zero.  Coefficients live in ``ring``; ints and `Fraction`s
    passed as coefficients are embedded via ``ring.one``.  Over
    :data:`RATIONALS` every coefficient must be an int or `Fraction`
    (``TypeError`` otherwise), held as integer numerators over one
    denominator (see the module docstring); ``coeffs`` still reads as
    `Fraction`s.

    >>> x = Series([0, 1, 0, 0])
    >>> ((1 + x) * (1 - x)).coeffs
    (Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1), Fraction(0, 1))
    """

    # over RATIONALS: _nums and _den hold the series and _coeffs is None until
    # read.  Over any other ring _coeffs holds the series and _nums, _den are
    # None.
    __slots__ = ("ring", "_coeffs", "_nums", "_den", "_len", "_series_depth")

    def __init__(self, coeffs, ring: CoeffRing = RATIONALS):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least its constant coefficient")
        self._nums = self._den = self._coeffs = None
        if ring is RATIONALS:
            if not all([isinstance(c, (int, Fraction)) for c in coeffs]):
                raise TypeError("exact arithmetic only: a series over the rationals takes "
                                "int or Fraction coefficients")
            den = lcm(*[c.denominator for c in coeffs])
            # over the lcm of reduced denominators the numerators share no factor with it
            self._nums = tuple([c.numerator * (den // c.denominator) for c in coeffs])
            self._den = den
            self._series_depth = 1
        else:
            self._coeffs = tuple([ring.one * c if isinstance(c, (int, Fraction))
                                  else _reject_float(c) for c in coeffs])
            self._series_depth = 1 + _depth(self._coeffs[0])
        self.ring = ring
        self._len = len(coeffs)

    @classmethod
    def _from_ints(cls, nums, den: int = 1) -> "Series":
        """The series over :data:`RATIONALS` with coefficients nums[i] / den, reduced."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self = object.__new__(cls)
        self.ring = RATIONALS
        self._nums = tuple(nums)
        self._coeffs = None
        self._den = den
        self._len = len(self._nums)
        self._series_depth = 1
        return self

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = tuple([Fraction(c, self._den) for c in self._nums])
        return self._coeffs

    @classmethod
    def constant(cls, value, order: int, ring: CoeffRing = RATIONALS) -> "Series":
        if order < 0:
            raise ValueError("order must be >= 0")
        if ring is RATIONALS and isinstance(value, (int, Fraction)):
            return cls._from_ints([value.numerator] + [0] * order, value.denominator)
        return cls((value,) + (ring.zero,) * order, ring)

    @property
    def order(self) -> int:
        return self._len - 1

    def __getitem__(self, i: int):
        if not 0 <= i < self._len:
            raise IndexError(f"coefficient {i} outside truncation order {self.order}")
        # a series in integer form reads one coefficient without building them all
        return self._coeffs[i] if self._nums is None else Fraction(self._nums[i], self._den)

    def __len__(self):
        return self._len

    def _zero_like(self, order=None):
        return Series.constant(self.ring.zero, self.order if order is None else order, self.ring)

    def _is_peer(self, other) -> bool:
        return isinstance(other, Series) and other._series_depth == self._series_depth

    def _select(self, pick) -> "Series":
        """The series with coefficients pick(coefficients, zero).

        ``pick`` may only drop, reorder or repeat coefficients and insert
        ``zero``, so a series in integer form is picked on its numerators.
        """
        if self._nums is not None:
            return Series._from_ints(pick(self._nums, 0), self._den)
        return Series(pick(self._coeffs, self.ring.zero), self.ring)

    def _scaled(self, p: int, q: int) -> "Series":
        """This series, in integer form, times p / q."""
        return Series._from_ints([c * p for c in self._nums], self._den * q)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if self._is_peer(other):
            if self._nums is not None and other._nums is not None:
                # ma, mb bring both numerators over lcm(da, db) = da * ma
                da, db = self._den, other._den
                g = gcd(da, db)
                ma, mb = db // g, da // g
                # zip stops at the shorter operand: the smaller order
                return Series._from_ints(
                    [a * ma + b * mb for a, b in zip(self._nums, other._nums)], da * ma)
            n = min(self.order, other.order)
            return Series([a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])],
                          self.ring)
        if isinstance(other, Series) and other._series_depth > self._series_depth:
            return other + self  # the deeper series absorbs this one as a scalar
        _reject_float(other)
        if self._den is not None and isinstance(other, (int, Fraction)):
            nums = [c * other.denominator for c in self._nums]
            nums[0] += other.numerator * self._den
            return Series._from_ints(nums, self._den * other.denominator)
        return Series((self.coeffs[0] + other,) + self.coeffs[1:], self.ring)

    __radd__ = __add__

    def __neg__(self):
        if self._den is not None:
            return self._scaled(-1, 1)
        return Series([-c for c in self._coeffs], self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product truncated at the smaller order; a non-peer operand acts as a scalar.

        Two series over :data:`RATIONALS` multiply their numerators by
        Kronecker substitution (:func:`_kronecker_ints`: O(n) packing, one
        big-integer product, O(n) read-out) and their denominators, then
        reduce once.  A scalar int or `Fraction` scales the numerators and
        the denominator.  The other rings (generator polynomials,
        quasi-shuffle words, nested series) use the schoolbook
        convolution, at most (n + 1)(n + 2)/2 coefficient products: pairs
        with a zero factor are skipped, as in :meth:`exp`.
        """
        if self._is_peer(other):
            n = min(self.order, other.order)
            if self._nums is not None and other._nums is not None:
                return Series._from_ints(
                    _kronecker_ints(self._nums[: n + 1], other._nums[: n + 1]),
                    self._den * other._den)
            zero, b = self.ring.zero, other.coeffs
            a = [(i, c) for i, c in enumerate(self.coeffs[: n + 1]) if not c == zero]
            b_nonzero = [not c == zero for c in b[: n + 1]]
            out = []
            for k in range(n + 1):
                acc = zero
                for i, c in a:
                    if i > k:
                        break
                    if b_nonzero[k - i]:
                        acc = acc + c * b[k - i]
                out.append(acc)
            return Series(out, self.ring)
        if isinstance(other, Series) and other._series_depth > self._series_depth:
            return other * self  # the deeper series absorbs this one as a scalar
        if self._den is not None and isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        _reject_float(other)
        return Series([c * other for c in self.coeffs], self.ring)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Series):
            raise TypeError("series division is not supported; divide by a scalar")
        if self._den is not None and isinstance(other, (int, Fraction)):
            if not other:  # also for the zero series, which has no numerator to divide
                raise ZeroDivisionError("series division by zero")
            return self._scaled(other.denominator, other.numerator)
        _reject_float(other)
        return Series([c / other for c in self.coeffs], self.ring)

    def __eq__(self, other):
        if self._is_peer(other):
            # both reduced, so equal series have equal numerators and denominators
            if self._nums is not None and other._nums is not None:
                return self._den == other._den and self._nums == other._nums
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
        return self._select(lambda c, zero: c[: order + 1])

    def shift(self, k: int) -> "Series":
        """Multiply by x^k, keeping the same truncation order."""
        if k < 0:
            raise ValueError("shift amount must be >= 0")
        if k > self.order:
            return self._zero_like()
        return self._select(lambda c, zero: (zero,) * k + c[: len(c) - k])

    def even_part(self) -> "Series":
        """Coefficients of even powers, reindexed: f(x) = g(x^2) + x*h(x^2) -> g."""
        return self._select(lambda c, zero: c[0::2])

    def odd_part(self) -> "Series":
        """Coefficients of odd powers, reindexed: f(x) = g(x^2) + x*h(x^2) -> h."""
        if self.order < 1:
            raise ValueError("need order >= 1 for an odd part")
        return self._select(lambda c, zero: c[1::2])

    # -- analytic operations ------------------------------------------

    def exp(self) -> "Series":
        """exp of a series with zero constant term, truncated at this order.

        b = exp(a) solves b' = a'b with b_0 = 1, which gives the recurrence
        b_k = (1/k) * sum_{i=1..k} (i a_i) b_{k-i}.  It holds in every
        commutative Q-algebra and costs O(n^2) coefficient products (pairs
        with a zero factor are skipped).  Over integer-form q-series each
        b_k is one packed sum of products (:class:`_PackedRows`).
        """
        zero = self.ring.zero
        if not self.coeffs[0] == zero:
            raise NonzeroConstantTermError("exp needs a vanishing constant term")
        sums = _row_sums(self.ring, self.coeffs)
        # (i, row of i * a_i), and the row of each b_m so far
        scaled = [(i, sums.add(i * c)) for i, c in enumerate(self.coeffs) if i and not c == zero]
        rows = [sums.add(self.ring.one)]
        nonzero = [True]
        for k in range(1, self.order + 1):
            pairs = []
            for i, x in scaled:
                if i > k:
                    break
                if nonzero[k - i]:
                    pairs.append((x, rows[k - i]))
            rows.append(sums.add_products(pairs, k))
            nonzero.append(not sums.rows[rows[-1]] == zero)
        return Series([sums.rows[x] for x in rows], self.ring)

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
        return self._combinations(
            [[(i, p[j]) for i, p in enumerate(powers[: j + 1]) if not p[j] == zero]
             for j in range(order + 1)],
            scalars=inner.ring is RATIONALS)

    def _combinations(self, weights: list, scalars: bool = True) -> "Series":
        """The series whose coefficient j is sum self[i] * s over (i, s) in ``weights[j]``.

        With ``scalars`` every s is an int or `Fraction`, and over
        integer-form q-series each coefficient is one packed sum.
        """
        coeffs = self.coeffs
        sums = _row_sums(self.ring, coeffs) if scalars else _RingRows(self.ring)
        rows = [sums.add(c) for c in coeffs]
        return Series(sums.scalar_sums([[(s, rows[i]) for i, s in terms] for terms in weights]),
                      self.ring)

    # -- display -------------------------------------------------------

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    def __str__(self):
        """Readable polynomial rendering in x, omitting zero terms."""
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            cs = str(c)
            wrap = f"({cs})" if any(ch in cs[1:] for ch in "+-* ") else cs
            if i == 0:
                parts.append(wrap)
            elif wrap == "1":
                parts.append("x" if i == 1 else f"x^{i}")
            else:
                parts.append(f"{wrap}*x" if i == 1 else f"{wrap}*x^{i}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")


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

