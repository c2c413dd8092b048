"""Enumeration oracles for the nested divisor sums, for tests and audits.

Neither function shares code with the dynamic programme in
:mod:`macmahon.qseries`; both walk the defining sums directly and cost
close to exponential time in the order, so they are meant for small
windows only.

* ``nested_divisor_series(index, order, odd)``: the whole series
  g(k_1, ..., k_r) (or its odd-m variant) by depth-first search over every
  tuple m_1 > ... > m_r > 0, n_1, ..., n_r > 0 with sum m_i n_i <= order.
* ``partition_oracle(r, n, odd)``: one coefficient of A_r (or C_r), with no
  series arithmetic at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .series import Series


def nested_divisor_series(index, order: int, odd: bool = False) -> Series:
    """g(k_1, ..., k_r) up to ``order`` by bounded depth-first search.

    Accumulates the weight prod n_i^(k_i - 1) at exponent sum m_i n_i and
    divides by prod (k_i - 1)! at the end.  Level i is entered with the
    smallest row first, so parts are consumed in reverse.
    """
    parts = (index,) if isinstance(index, int) else tuple(index)
    r = len(parts)
    coeffs = [0] * (order + 1)
    rev = parts[::-1]  # rev[i] is the exponent for the (i+1)-th smallest m
    step = 2 if odd else 1

    def recurse(level, m_floor, budget, weight, total):
        # minimal extra cost if we place the remaining rows as tightly as possible
        k = rev[level]
        m = m_floor + step
        remaining = r - level
        while True:
            min_cost = remaining * m + step * (remaining * (remaining - 1)) // 2
            if min_cost > budget:
                return
            tail_min = min_cost - m  # rows above this one, at their cheapest
            mn = m
            n = 1
            while mn + tail_min <= budget:
                w = weight * (n ** (k - 1))
                if level + 1 == r:
                    coeffs[total + mn] += w
                else:
                    recurse(level + 1, m, budget - mn, w, total + mn)
                n += 1
                mn += m
            m += step

    recurse(0, 1 - step, order, 1, 0)
    denom = 1
    for k in parts:
        denom *= factorial(k - 1)
    return Series([Fraction(c, denom) for c in coeffs])


def partition_oracle(r: int, n: int, odd: bool = False) -> int:
    """Coefficient of q^n in A_r (or C_r), with no series arithmetic at all.

    Exhaustively enumerates solutions of m_1 n_1 + ... + m_r n_r = n with
    m_1 > ... > m_r > 0 (odd m if requested) and n_i > 0, summing the
    weights prod n_i.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    step = 2 if odd else 1

    def count(level, m_floor, remaining):
        # level = rows still to place, ordered smallest m first
        total = 0
        m = m_floor + step
        while True:
            min_cost = level * m + step * (level * (level - 1)) // 2
            if min_cost > remaining:
                return total
            tail_min = min_cost - m
            mn = m
            n_i = 1
            while mn + tail_min <= remaining:
                if level == 1:
                    if mn == remaining:
                        total += n_i
                else:
                    total += n_i * count(level - 1, m, remaining - mn)
                n_i += 1
                mn += m
            m += step

    return count(r, 1 - step, n)
