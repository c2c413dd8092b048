"""Constructors for the divisor-sum q-series.

Everything here is exact: every series is a :class:`~macmahon.series.Series`
over the rationals, truncated at a caller supplied order, and is built
straight from integer numerators over one denominator.

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

Every nested sum comes from one product over the part sizes m
(:func:`_divisor_chain_rows`), which builds all tails g(k_j, ..., k_r) at
once.  With x = q^m, size m multiplies by 1 + Y f_e(x), where Y counts the
parts taken, e = k_i - 1 is the exponent of the part it fills, and

    f_e(x) = sum_{n>0} n^e x^n = x A_e(x) / (1 - x)^(e+1)

with A_e the Eulerian polynomial; the Y^j coefficient is the tail of length
j.  All tails live in one int, q-slot by q-slot, in fixed-width slots, and
each factor is a few shifts, adds and masks of that int: A_e(x), then
the division by (1 - x)^(e+1) as the product of (1 + x^s)^(e+1) over
s = 1, 2, 4, ..., each cut at q^order.
Every value met is a nonnegative partial sum of a final coefficient.  A
final coefficient at q^t weighs each partition of t, part m_i taken n_i
times, by prod n_i^(e_i) <= prod n_i^E, E the largest exponent, so it is at
most c_E(t) = [q^t] prod_m (1 + sum_n n^E q^(mn)), which is below
exp(pi sqrt(2kt/3)) for k = (E+1) E!; for a row of j parts, AM-GM gives
p(t) (t/j)^(jE).  Each slot holds the smaller of the two bounds at
t = order (:func:`_chain_slot_bytes`), so no carry crosses a slot and the
int reads off as the rows.

Since q^m/(1-q^m)^2 = sum_{n>0} n q^(mn), ``macmahon_a(r)`` is
``multiple_divisor_series((2,)*r)`` and ``macmahon_c(r)`` its odd twin; for
that index the tails are A_1, ..., A_r (C_1, ..., C_r), and the whole chain
is checked against a divisor sieve and MacMahon's recurrence in the form of
Andrews and Rose (J. reine angew. Math. 676, 2013):

    (2k)(2k+1) A_k = (6 A_1 + k(k-1)) A_{k-1} - 2 D A_{k-1}
    (2k)(2k-1) C_k = (2 C_1 + (k-1)^2) C_{k-1} - D C_{k-1}

with D = q d/dq (:func:`_andrews_rose` holds the constants).  A
disagreement raises :class:`RouteMismatchError`, which ``python -O`` does
not strip.  The same recurrence, run with Ramanujan's D on polynomials in
G2, G4, G6 (or G2, Go2, Go4) instead of on q-coefficients, gives the
canonical quasimodular forms of :mod:`macmahon.quasimodular`.  The
enumeration oracles live in :mod:`macmahon.oracles`; ``partition_oracle``
is re-exported here.

The library starts no thread, but it may be called from several.  Two
places depend on that: the Bernoulli cache here, whose appends a lock keeps
from interleaving, and the numeric kernels' block buffers
(:mod:`macmahon.numerics`), one workspace per thread.
"""

from __future__ import annotations

import operator
import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, lcm

from .oracles import partition_oracle  # noqa: F401  (re-exported)
from .series import Series, _kronecker_ints, _unpack, _width


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
    const = -bernoulli(k) / (2 * factorial(k))
    den = lcm(const.denominator, fk)
    scale = den // fk
    nums = [s * scale for s in sig]
    nums[0] = const.numerator * (den // const.denominator)
    return Series._from_ints(nums, den)


def _eisenstein_odd_direct(k: int, order: int) -> Series:
    # double sum over odd m >= 1, n >= 1 of n^(k-1) q^(mn) / (k-1)!
    out = [0] * (order + 1)
    for m in range(1, order + 1, 2):
        for n in range(1, order // m + 1):
            out[m * n] += n ** (k - 1)
    return Series._from_ints(out, factorial(k - 1))


def eisenstein_odd(k: int, order: int) -> Series:
    """Odd Eisenstein series G^o_k = G_k(q) - G_k(q^2); no constant term.

    Computed both by the subtraction and by the direct odd-m double sum, on
    integer numerators; if they differ, :class:`RouteMismatchError` names
    the first coefficient.
    """
    g = eisenstein(k, order)
    nums = g._nums
    # numerators over g's denominator; the constant term cancels exactly (n = 0)
    sub = [c - (nums[n // 2] if n % 2 == 0 else 0) for n, c in enumerate(nums)]
    direct = _eisenstein_odd_direct(k, order)
    for n, (a, b) in enumerate(zip(sub, direct._nums)):
        if a * direct._den != b * g._den:
            raise RouteMismatchError("G_k(q) - G_k(q^2)", "odd-m double sum", f"k={k}, n={n}")
    return direct


def _as_parts(index) -> tuple:
    """The parts (k_1, ..., k_r) of an index given as one int or a sequence of ints.

    Each part is taken with ``operator.index``, so a float raises `TypeError`.
    """
    if isinstance(index, int):
        index = (index,)
    parts = tuple([operator.index(k) for k in index])
    if not parts or min(parts) < 1:
        raise ValueError("an index needs at least one part, all parts >= 1")
    return parts


@lru_cache(maxsize=None)
def _eulerian(e: int) -> tuple:
    """A(e, 0..e-1), the coefficients of the Eulerian polynomial A_e (A_0 = 1).

    sum_{n>0} n^e x^n = x A_e(x) / (1 - x)^(e+1).
    """
    row = [1]
    for m in range(2, e + 1):
        row = [(j + 1) * (row[j] if j < m - 1 else 0) + (m - j) * (row[j - 1] if j else 0)
               for j in range(m)]
    return tuple(row)


def _packed_product(groups: list, order: int, step: int, q_bits: int, y_bits: int) -> int:
    """The packed product over the part sizes m = 1, 1 + step, ... <= ``order``.

    q-slot t of the int, ``q_bits`` wide, holds the q^t coefficients, and
    the product starts at 1.  Size m adds f_e(q^m) times the slots that each
    (e, mask) of ``groups`` picks, moved ``y_bits`` up, with f_e as in
    :func:`_divisor_chain_rows`; ``groups`` runs through the exponents in
    decreasing order.  Only the picked slots at q^0..q^(order-m) matter.
    They are multiplied by the terms q^(im) of A_e(q^m) and divided by
    (1 - q^m)^(e+1), Horner-wise: the terms of exponent e are divided
    e - e' times before those of the next exponent e' join them.  Each
    division by (1 - q^m)^p multiplies by (1 + q^s)^p for s = m, 2m, 4m,
    ... <= order - m, since (1 + x)(1 + x^2)...(1 + x^(2^(K-1))) is
    1 + x + ... + x^(2^K - 1).  After every shift the q-slots past
    q^(order-m) are cut off, and the sum moves up m q-slots.  Every value
    met is a partial sum of a final coefficient, so slots that hold the
    final ones never carry into each other.
    """
    lowers = [e for e, _ in groups[1:]] + [-1]
    plan = [(mask, _eulerian(e)[1:], [comb(e - lower, i) for i in range(1, e - lower + 1)])
            for (e, mask), lower in zip(groups, lowers)]
    state = 1
    for m in range(1, order + 1, step):
        span = order + 1 - m  # q-slots that move up to q^m..q^order
        low = (1 << (span * q_bits)) - 1
        window = state & low
        term = 0
        for mask, eulerian, binomials in plan:
            src = window & mask
            term += src
            for c, shift in zip(eulerian, range(m, span, m)):
                term += c * ((src << (shift * q_bits)) & low)
            s = m
            while s < span:  # times (1 + q^s)^p, p = len(binomials)
                base = term
                for c, shift in zip(binomials, range(s, span, s)):
                    term += c * ((base << (shift * q_bits)) & low)
                s <<= 1
        state += term << (m * q_bits + y_bits)
    return state


def _divisor_chain_rows(parts: tuple, order: int, odd: bool) -> list:
    """Integer numerators of every tail of the nested sum, in one pass.

    ``rows[j]`` is the series of g(k_{r-j+1}, ..., k_r) times
    prod (k_i - 1)!: the sum over m_{r-j+1} > ... > m_r > 0 (odd if asked)
    and n_i > 0 of prod n_i^(k_i - 1) q^(sum m_i n_i); ``rows[0]`` is 1.
    The rows are the Y^j coefficients of one product over the part sizes m,
    taken in increasing order: size m adds Y * f_e(q^m) * row j to row
    j + 1, where e = k_{r-j} - 1 and

        f_e(x) = sum_{n>0} n^e x^n = x A_e(x) / (1 - x)^(e+1)

    with A_e the Eulerian polynomial (:func:`_eulerian`).  All rows live in
    one int (:func:`_packed_product`), q-major: q-slot t holds the q^t
    coefficients of rows 0..d, the rows that reach q^order, in slots of
    :func:`_chain_slot_bytes` bytes, and one row slot up is one
    more factor Y.  The masks pick the rows of each exponent; the top row
    is in none of them, so nothing moves past it.
    """
    r = len(parts)
    exps = [k - 1 for k in reversed(parts)]  # exps[j] takes row j to row j + 1
    # row j starts at q^(1+2+...+j) (q^(1+3+...+(2j-1)) if odd): rows past d are 0
    d = r
    while (d * d if odd else d * (d + 1) // 2) > order:
        d -= 1
    width = _chain_slot_bytes(max(exps[:d], default=0), order, d)
    groups = []
    for e in sorted(set(exps[:d]), reverse=True):
        slots = b"".join([b"\xff" * width if exps[j] == e else bytes(width) for j in range(d)])
        groups.append((e, int.from_bytes((slots + bytes(width)) * (order + 1), "little")))
    state = _packed_product(groups, order, 2 if odd else 1, 8 * width * (d + 1), 8 * width)
    flat = _unpack(state, width, (order + 1) * (d + 1))
    return [list(flat[j::d + 1]) for j in range(d + 1)] + [[0] * (order + 1)
                                                          for _ in range(r - d)]


def _chain_slot_bytes(top_exp: int, order: int, depth: int) -> int:
    """Bytes of a slot for every value of the rows 0..``depth`` of :func:`_divisor_chain_rows`.

    With E = ``top_exp``, a value at q^t is at most

        c_E(t) = [q^t] prod_{m>0} (1 + sum_{n>0} n^E q^(mn)),

    whose terms are the partitions of t, part m_i taken n_i times, of weight
    prod n_i^E; a row j value takes only the partitions with j distinct
    parts.  Two bounds follow, and the slot holds the smaller:

    * n^E <= E! C(n+E-1, E), so 1 + sum_n n^E x^n <= (1-x)^(-k) with
      k = (E+1) E!, and c_E(t) <= p_k(t) <= exp(pi sqrt(2kt/3)), which is
      below 2^(isqrt(14kt) + 1);
    * by AM-GM a weight with j distinct parts is at most (t/j)^(jE), so a
      row j value is at most p(t) (t/j)^(jE), and p(t) < 2^(isqrt(14t) + 1).

    Both grow with t, so t = ``order`` bounds every slot.  The size is the
    one :func:`~macmahon.series._width` gives a signed slot.
    """
    bits = isqrt(14 * (top_exp + 1) * factorial(top_exp) * order) + 1
    weight = max([(order ** (j * top_exp) // j ** (j * top_exp)).bit_length()
                  for j in range(1, depth + 1)], default=0)
    return _width(min(bits, isqrt(14 * order) + 1 + weight))


def _andrews_rose(k: int, odd: bool) -> tuple:
    """(lead, p, s, d) with lead * X_k = (p X_1 + s) X_{k-1} - d D X_{k-1}, X = A (C if ``odd``).

    The Andrews–Rose recurrence of the module docstring, for k >= 2.
    """
    if odd:
        return 2 * k * (2 * k - 1), 2, (k - 1) ** 2, 1
    return 2 * k * (2 * k + 1), 6, k * (k - 1), 2


def _check_macmahon_chain(rows: list, odd: bool, sieve: Series | None = None) -> None:
    """Check rows A_1..A_r (or C_1..C_r) against a sieve and the recurrence.

    ``rows[1]`` must equal ``sieve``: the q-series of sigma_1 (for C:
    sigma_1(n) - sigma_1(n/2), the sum of n/m over odd m | n) from a divisor
    sieve, which is built here unless the caller has one, such as
    G_2 - G_2(0) or G^o_2.  Each later row must satisfy the Andrews–Rose
    form of MacMahon's recurrence given in the module docstring, evaluated
    in integers with one big-int product per row.  The first disagreement
    raises :class:`RouteMismatchError`.
    """
    order = len(rows[0]) - 1
    if sieve is None:
        sig = divisor_power_sums(1, order)
        sieve = Series._from_ints([sig[n] - (sig[n // 2] if odd and n % 2 == 0 else 0)
                                   for n in range(order + 1)])
    for n, (a, b) in enumerate(zip(rows[1], sieve._nums)):
        if a * sieve._den != b:
            raise RouteMismatchError("product-DP", "divisor sieve", f"k=1, n={n}")
    one = rows[1]
    for k in range(2, len(rows)):
        lead, p_mul, shift, d_mul = _andrews_rose(k, odd)
        prev = rows[k - 1]
        prod = _kronecker_ints(one, prev)
        for n in range(order + 1):
            if lead * rows[k][n] != p_mul * prod[n] + (shift - d_mul * n) * prev[n]:
                raise RouteMismatchError("product-DP", "Andrews–Rose recurrence", f"k={k}, n={n}")


def _checked_rows(parts: tuple, order: int, odd: bool, sieve: Series | None = None) -> list:
    """:func:`_divisor_chain_rows`, checked by :func:`_check_macmahon_chain` for (2, ..., 2)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    rows = _divisor_chain_rows(parts, order, odd)
    if set(parts) == {2}:
        _check_macmahon_chain(rows, odd, sieve)
    return rows


def _macmahon_chain(r: int, order: int, odd: bool, sieve: Series | None = None) -> list:
    """[A_1, ..., A_r] (with ``odd``, [C_1, ..., C_r]) from one DP pass and one check.

    ``sieve``, if given, is the caller's sigma_1 series of the same order
    (:func:`_check_macmahon_chain`), so that no second sieve is built.
    """
    return [Series._from_ints(row) for row in _checked_rows((2,) * r, order, odd, sieve)[1:]]


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
    return Series._from_ints(rows[-1], denom)


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
