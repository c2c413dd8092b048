"""Constructors for the divisor-sum q-series.

Everything here is exact: coefficients are `Fraction`s and every series is a
:class:`~macmahon.series.Series` over the rationals, truncated at a caller
supplied order.

The series:

* ``eisenstein(k)``:  G_k = -B_k/(2*k!) + (1/(k-1)!) * sum_{m,n>=1} n^(k-1) q^(mn)
* ``eisenstein_odd(k)``:  G^o_k = G_k(q) - G_k(q^2), equivalently the same
  double sum restricted to odd m (no constant term)
* ``multiple_divisor_series(k_1,...,k_r, odd=False)``:  nested double sum
  over m_1 > ... > m_r > 0 (all odd if ``odd``) and n_1,...,n_r > 0 of
  prod_i n_i^(k_i - 1)/(k_i - 1)! * q^(m_1 n_1 + ... + m_r n_r)
* ``macmahon_a(r)`` / ``macmahon_c(r)``: MacMahon's generalized sums of
  divisors, i.e. sum over m_1 > ... > m_r > 0 (all odd, for C) of
  prod_i q^(m_i)/(1 - q^(m_i))^2

Every nested sum comes from one dynamic programme over the part size m
(:func:`_divisor_chain_rows`), which builds all tails g(k_j, ..., k_r) in
one pass.  Since q^m/(1-q^m)^2 = sum_{n>0} n q^(mn), ``macmahon_a(r)`` is
``multiple_divisor_series((2,)*r)`` and ``macmahon_c(r)`` its odd twin; for
that index the tails are A_1, ..., A_r (C_1, ..., C_r), and the whole chain
is checked against a divisor sieve and MacMahon's recurrence in the form of
Andrews and Rose (J. reine angew. Math. 676, 2013):

    (2k)(2k+1) A_k = (6 A_1 + k(k-1)) A_{k-1} - 2 D A_{k-1}
    (2k)(2k-1) C_k = (2 C_1 + (k-1)^2) C_{k-1} - D C_{k-1}

with D = q d/dq.  A disagreement raises :class:`RouteMismatchError`, which
``python -O`` does not strip.  The enumeration oracles live in
:mod:`macmahon.oracles`; ``partition_oracle`` is re-exported here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .oracles import partition_oracle  # noqa: F401  (re-exported)
from .series import Series, _kronecker_ints


class RouteMismatchError(ArithmeticError):
    """Two independent routes to the same series disagree.

    The message names both routes and the first coefficient that differs,
    e.g. ``product-DP vs Andrews–Rose recurrence at k=5, n=37``.
    """

    def __init__(self, route_a: str, route_b: str, where: str):
        super().__init__(f"{route_a} vs {route_b} at {where}")


_BERNOULLI_CACHE = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()  # appends must not interleave


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number via the defining recurrence, memoized.

    Convention: B_1 = -1/2, B_2 = 1/6, so that the Eisenstein constant term
    -B_2/(2*2!) comes out as -1/24.
    """
    if k < 0:
        raise ValueError("Bernoulli numbers need k >= 0")
    if len(_BERNOULLI_CACHE) <= k:
        with _BERNOULLI_LOCK:
            while len(_BERNOULLI_CACHE) <= k:
                m = len(_BERNOULLI_CACHE)
                # sum_{j=0}^{m} C(m+1, j) B_j = 0
                acc = sum(comb(m + 1, j) * _BERNOULLI_CACHE[j] for j in range(m))
                _BERNOULLI_CACHE.append(Fraction(-acc, m + 1))
    return _BERNOULLI_CACHE[k]


def divisor_power_sums(power: int, order: int) -> list:
    """Sieve of sigma_power(n) = sum_{d | n} d^power for n = 0..order (entry 0 is 0)."""
    out = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d**power
        for n in range(d, order + 1, d):
            out[n] += dp
    return out


def eisenstein(k: int, order: int) -> Series:
    """Eisenstein series G_k of weight k as a q-expansion up to ``order``."""
    if k < 2 or k % 2:
        raise ValueError("Eisenstein weight must be an even integer >= 2")
    if order < 0:
        raise ValueError("order must be >= 0")
    sig = divisor_power_sums(k - 1, order)
    fk = factorial(k - 1)
    coeffs = [Fraction(-bernoulli(k), 2 * factorial(k))]
    coeffs += [Fraction(sig[n], fk) for n in range(1, order + 1)]
    return Series(coeffs)


def _eisenstein_odd_direct(k: int, order: int) -> Series:
    # double sum over odd m >= 1, n >= 1 of n^(k-1) q^(mn) / (k-1)!
    out = [0] * (order + 1)
    for m in range(1, order + 1, 2):
        for n in range(1, order // m + 1):
            out[m * n] += n ** (k - 1)
    fk = factorial(k - 1)
    return Series([Fraction(c, fk) for c in out])


def eisenstein_odd(k: int, order: int) -> Series:
    """Odd Eisenstein series G^o_k = G_k(q) - G_k(q^2); no constant term.

    Computed both by the subtraction and by the direct odd-m double sum;
    if they differ, :class:`RouteMismatchError` names the first coefficient.
    """
    g = eisenstein(k, order)
    sub = [g.coeffs[n] - (g.coeffs[n // 2] if n % 2 == 0 else 0) for n in range(order + 1)]
    # constant term cancels exactly
    sub[0] = Fraction(0)
    direct = _eisenstein_odd_direct(k, order)
    for n, (a, b) in enumerate(zip(sub, direct.coeffs)):
        if a != b:
            raise RouteMismatchError("G_k(q) - G_k(q^2)", "odd-m double sum", f"k={k}, n={n}")
    return direct


@dataclass(frozen=True)
class Index:
    """An integer composition (k_1, ..., k_r), the index of a nested sum."""

    parts: tuple

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError("an index needs at least one part, all parts >= 1")
        object.__setattr__(self, "parts", parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def admissible(self) -> bool:
        return self.parts[0] >= 2

    @property
    def all_geq_two(self) -> bool:
        return min(self.parts) >= 2


def _as_parts(index) -> tuple:
    if isinstance(index, Index):
        return index.parts
    if isinstance(index, int):
        return (index,)
    return Index(index).parts


def _divisor_chain_rows(parts: tuple, order: int, odd: bool) -> list:
    """Integer numerators of every tail of the nested sum, in one pass.

    ``rows[j]`` is the series of g(k_{r-j+1}, ..., k_r) times
    prod (k_i - 1)!: the sum over m_{r-j+1} > ... > m_r > 0 (odd if asked)
    and n_i > 0 of prod n_i^(k_i - 1) q^(sum m_i n_i); ``rows[0]`` is 1.
    Part sizes are taken in increasing order.  Size m may fill slot j (the
    j-th smallest size of a chain, exponent k_{r-j+1} - 1) by multiplying
    ``rows[j-1]`` with sum_n n^(k_{r-j+1} - 1) q^(mn); going through the
    slots downwards uses each size at most once per chain.
    """
    r = len(parts)
    exps = (None,) + tuple(k - 1 for k in reversed(parts))
    rows = [[1] + [0] * order] + [[0] * (order + 1) for _ in range(r)]
    step = 2 if odd else 1
    for i, m in enumerate(range(1, order + 1, step)):
        # the first i sizes fill at most i slots, so slot i + 1 is the highest reachable
        for j in range(min(r, i + 1), 0, -1):
            prev, cur, e = rows[j - 1], rows[j], exps[j]
            # prev starts at m = 1, 2, ..., j-1 (or 1, 3, ..., 2j-3), all n = 1
            lo = (j - 1) ** 2 if odd else (j - 1) * j // 2
            tail = prev[lo:]
            for n in range(1, (order - lo) // m + 1):
                s = lo + m * n
                w = n**e
                cur[s:] = [c + w * p for c, p in zip(cur[s:], tail)]
    return rows


def _check_macmahon_chain(rows: list, odd: bool) -> None:
    """Check rows A_1..A_r (or C_1..C_r) against a sieve and the recurrence.

    ``rows[1]`` must be sigma_1 (for C: sigma_1(n) - sigma_1(n/2), the sum
    of n/m over odd m | n).  Each later row must satisfy the Andrews–Rose
    form of MacMahon's recurrence given in the module docstring, evaluated
    in integers with one big-int product per row.  The first disagreement
    raises :class:`RouteMismatchError`.
    """
    order = len(rows[0]) - 1
    sig = divisor_power_sums(1, order)
    sieve = [sig[n] - (sig[n // 2] if odd and n % 2 == 0 else 0) for n in range(order + 1)]
    for n, (a, b) in enumerate(zip(rows[1], sieve)):
        if a != b:
            raise RouteMismatchError("product-DP", "divisor sieve", f"k=1, n={n}")
    one = rows[1]
    for k in range(2, len(rows)):
        if odd:
            lead, p_mul, shift, d_mul = 2 * k * (2 * k - 1), 2, (k - 1) ** 2, 1
        else:
            lead, p_mul, shift, d_mul = 2 * k * (2 * k + 1), 6, k * (k - 1), 2
        prev = rows[k - 1]
        prod = _kronecker_ints(one, prev)
        for n in range(order + 1):
            if lead * rows[k][n] != p_mul * prod[n] + (shift - d_mul * n) * prev[n]:
                raise RouteMismatchError("product-DP", "Andrews–Rose recurrence", f"k={k}, n={n}")


def _checked_rows(parts: tuple, order: int, odd: bool) -> list:
    """:func:`_divisor_chain_rows`, checked by :func:`_check_macmahon_chain` for (2, ..., 2)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = _divisor_chain_rows(parts, order, odd)
    if set(parts) == {2}:
        _check_macmahon_chain(rows, odd)
    return rows


def _macmahon_chain(r: int, order: int, odd: bool) -> list:
    """[A_1, ..., A_r] (with ``odd``, [C_1, ..., C_r]) from one DP pass and one check."""
    return [Series([Fraction(c) for c in row]) for row in _checked_rows((2,) * r, order, odd)[1:]]


def multiple_divisor_series(index, order: int, odd: bool = False) -> Series:
    """The nested divisor-sum series g(k_1, ..., k_r) up to ``order``.

    With ``odd`` the part sizes m_1 > ... > m_r are all odd.  For the index
    (2, ..., 2) the result and every shorter tail are checked by
    :func:`_check_macmahon_chain`.
    """
    parts = _as_parts(index)
    rows = _checked_rows(parts, order, odd)
    denom = 1
    for k in parts:
        denom *= factorial(k - 1)
    return Series([Fraction(c, denom) for c in rows[-1]])


def multiple_divisor_series_odd(index, order: int) -> Series:
    """Same nested sum restricted to odd m_1, ..., m_r."""
    return multiple_divisor_series(index, order, odd=True)


def macmahon_a(r: int, order: int) -> Series:
    """MacMahon's A_r: generalized sums of divisors over r distinct part sizes."""
    if r < 1:
        raise ValueError("need r >= 1")
    return multiple_divisor_series((2,) * r, order)


def macmahon_c(r: int, order: int) -> Series:
    """MacMahon's C_r: the odd-part-size variant of A_r."""
    if r < 1:
        raise ValueError("need r >= 1")
    return multiple_divisor_series((2,) * r, order, odd=True)
