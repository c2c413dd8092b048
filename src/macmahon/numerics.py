"""Floating-point evaluation: lattice sums, series values near q = 1, limits.

The monotangent and multitangent functions are the ordered sums

    Psi_k(tau)            = sum_{n in Z} (tau + n)^(-k),
    Psi_{k_1,...,k_r}(tau) = sum_{n_1 > ... > n_r} prod_i (tau + n_i)^(-k_i),

for tau in the upper half plane and all exponents >= 2.  A symmetric box
|n_i| <= cutoff is summed exactly (via cumulative sums, so depth r costs
O(cutoff * r) and not O(cutoff^r)) and the parts of the sum outside the box
are restored with Euler-Maclaurin boundary corrections.  For k = 2 the raw
box sum converges only like 1/cutoff, far too slowly for the tolerances
used here, so the corrected value is the primary output; the raw partial
sum, the correction, and bounds for both the raw tail and the neglected
remainder are all reported alongside.

``lipschitz_value`` gives the independent q-expansion evaluation
(-2*pi*i)^k/(k-1)! * sum_d d^(k-1) q^d of the same monotangent, and
``eval_qseries_at`` sums the defining double sums of the divisor series at
a numeric q in (0, 1), which feeds the radius-of-convergence limit check

    (1-q)^(2r) A_r(q)  ->  pi^(2r)/(2r+1)!   as q -> 1.

A_r and C_r are nested sums over part sizes m_1 > ... > m_r, summed by the
same cumulative-sum idiom as the lattice sums: the sizes go in numpy
chunks of fixed length, so the cost is O(terms * r) vectorised operations
and the memory does not grow with the number of terms (up to millions
near q = 1).

numpy is imported by the two functions that use it, on their first call,
so the exact layers and the CLI commands that need no numerics do not pay
its import time and memory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence


class DivergenceError(ValueError):
    """The requested lattice sum does not converge (some exponent < 2)."""


class NonConvergenceError(RuntimeError):
    """A numeric summation hit its term cap while terms were still large."""


def _require_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane (positive imaginary part)")
    return tau


@dataclass(frozen=True)
class TangentSum:
    """A lattice-sum evaluation with explicit error accounting.

    ``value = partial + correction``; ``tail_bound`` bounds the part of the
    exact sum missing from ``partial``, and ``neglected_bound`` estimates
    what ``value`` still omits (Euler-Maclaurin remainders and, for depth
    >= 2, dropped corner terms).
    """

    value: complex
    partial: complex
    correction: complex
    tail_bound: float
    neglected_bound: float


def _em_tail(k: int, tau: complex, a: int, sign: int) -> complex:
    """Euler-Maclaurin value of sum_{n>=a} (tau + sign*n)^(-k)."""
    z = tau + sign * a
    integral = sign * z ** (1 - k) / (k - 1)
    f = z ** (-k)
    fp = -k * sign * z ** (-k - 1)
    return integral + f / 2 - fp / 12


def _one_sided_tail_bound(k: int, tau: complex, n: int) -> float:
    margin = n - abs(tau.real)
    return margin ** (1 - k) / (k - 1)


def _tangent_engine(ks: Sequence[int], tau: complex, cutoff: int, corrected: bool):
    """Ordered box sum over cutoff >= n_1 > ... > n_r >= -cutoff, by cumulative sums.

    With ``corrected`` the two dominant boundary channels are restored at
    each depth: the upper seed of the innermost level and, at every level,
    the lower tail weighted by the full lower-depth value.  A float
    overflow, division by zero or invalid value in the arrays raises
    ``FloatingPointError`` instead of warning and going on with inf or nan.
    """
    import numpy as np

    with np.errstate(over="raise", divide="raise", invalid="raise"):
        ns = np.arange(cutoff, -cutoff - 1, -1, dtype=np.float64)
        psi = 1.0 + 0j
        level_sum = None
        for i, k in enumerate(ks):
            v = (tau + ns) ** (-k)
            if i == 0:
                seed = _em_tail(k, tau, cutoff + 1, +1) if corrected else 0.0
                w = v
            else:
                seed = 0.0  # O(cutoff^-(k_i + k_{i-1} - 1)); folded into neglected_bound
                w = v * level_sum
            csum = seed + np.cumsum(w)
            lower = _em_tail(k, tau, cutoff + 1, -1) * psi if corrected else 0.0
            psi = complex(csum[-1]) + lower
            level_sum = np.empty_like(csum)
            level_sum[0] = seed
            level_sum[1:] = csum[:-1]
    return psi


def _tangent_bounds(ks, tau, cutoff):
    # tail_bound: union bound over "index i escapes the box" channels, each
    # |sum outside| * product of absolute full sums of the other levels
    full_abs, tails = [], []
    c = abs(tau.real)
    start = max(40, int(c) + 2)
    for k in ks:
        tails.append(2 * _one_sided_tail_bound(k, tau, cutoff))
        # sum_n |tau+n|^-k bounded through |tau+n| >= max(|n - |Re tau||, Im tau),
        # with the range |n| >= start completed by the integral bound
        head = 2 * sum(max(abs(n - c), tau.imag) ** -k for n in range(1, start)) + abs(tau) ** -k
        full_abs.append(head + 2 * (start - 1 - c) ** (1 - k) / (k - 1))
    tail_bound = 0.0
    for i in range(len(ks)):
        prod = tails[i]
        for j in range(len(ks)):
            if j != i:
                prod *= full_abs[j]
        tail_bound += prod
    # neglected after correction: E-M remainder of level 1, plus the dropped
    # corner channels of the deeper levels
    k1 = ks[0]
    a = cutoff + 1 - abs(tau.real)
    rem = 2 * (k1 * (k1 + 1) * (k1 + 2) / 720) * a ** (-k1 - 3)
    scale = 1.0
    for i in range(1, len(ks)):
        rem += 2 * _one_sided_tail_bound(ks[i], tau, cutoff) * \
            _one_sided_tail_bound(ks[i - 1], tau, cutoff) * scale
        scale *= full_abs[i - 1]
    return tail_bound, rem


def multitangent(ks, tau: complex, cutoff: int) -> TangentSum:
    """Ordered lattice sum Psi_{k_1,...,k_r}(tau) over the symmetric box.

    Depth 1 is the monotangent; ``monotangent`` is literally this function
    with a single exponent.
    """
    ks = tuple(int(k) for k in (ks if isinstance(ks, (tuple, list)) else (ks,)))
    if not ks:
        raise ValueError("need at least one exponent")
    if any(k < 2 for k in ks):
        raise DivergenceError("all exponents must be >= 2 for the sum to converge")
    tau = _require_tau(tau)
    if cutoff < max(len(ks), int(abs(tau.real)) + 2):
        raise ValueError("cutoff too small for this depth and tau")
    value = _tangent_engine(ks, tau, cutoff, corrected=True)
    partial = _tangent_engine(ks, tau, cutoff, corrected=False)
    tail_bound, neglected = _tangent_bounds(ks, tau, cutoff)
    return TangentSum(value, partial, value - partial, tail_bound, neglected)


def monotangent(k: int, tau: complex, cutoff: int) -> TangentSum:
    """Psi_k(tau) = sum_{n in Z} (tau+n)^(-k), corrected symmetric partial sum."""
    return multitangent((k,), tau, cutoff)


def lipschitz_value(k: int, tau: complex, rel_tol: float = 1e-17,
                    max_terms: int = 100_000) -> complex:
    """q-side evaluation (-2*pi*i)^k/(k-1)! * sum_{d>0} d^(k-1) q^d, q = e^(2*pi*i*tau)."""
    if k < 2:
        raise DivergenceError("need k >= 2")
    tau = _require_tau(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    acc = 0j
    qd = 1.0 + 0j
    for d in range(1, max_terms + 1):
        qd *= q
        term = d ** (k - 1) * qd
        acc += term
        if abs(term) < rel_tol * max(abs(acc), 1e-300):
            break
    else:
        raise NonConvergenceError("q-expansion did not converge within the term cap")
    return (-2j * cmath.pi) ** k / math.factorial(k - 1) * acc


@dataclass(frozen=True)
class SeriesValue:
    value: float
    terms: int
    converged: bool


def eval_qseries_at(name: str, param: int, q: float, max_terms: int = 5_000_000,
                    rel_tol: float = 1e-15) -> SeriesValue:
    """Numeric value of A_r, C_r, G_k or Go_k at q in (0, 1), from the defining sums.

    The divisor series are summed as their nested m-sums (numpy cumulative
    sums over chunks of part sizes, so depth r costs O(terms * r)); the
    Eisenstein series as their (m, n) double sums.  No truncated
    coefficient lists are involved, so this is usable arbitrarily close to
    q = 1, subject to the term cap.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    if name in ("A", "C"):
        if param < 1:
            raise ValueError("need r >= 1")
        return _eval_macmahon(param, q, odd=(name == "C"), max_terms=max_terms,
                              rel_tol=rel_tol)
    if name in ("G", "Go"):
        if param < 2 or param % 2:
            raise ValueError("need even k >= 2")
        return _eval_eisenstein(param, q, odd=(name == "Go"), max_terms=max_terms,
                                rel_tol=rel_tol)
    raise ValueError(f"unknown series name {name!r}")


# part sizes per numpy chunk in _eval_macmahon: keeps memory independent of
# the term count, which can reach max_terms
_CHUNK = 1 << 16


def _eval_macmahon(r: int, q: float, odd: bool, max_terms: int, rel_tol: float):
    import numpy as np

    # the tail over m > M of q^m/(1-q^m)^2 is below q^(M+1)/(1-q)^3, so pick
    # M with q^M < rel_tol * (1-q)^3, plus a few digits of slack
    need = math.log(rel_tol) + 3 * math.log1p(-q) - 6.0
    m_top = max(1, int(need / math.log(q)) + 1)
    capped = m_top > max_terms
    m_top = min(m_top, max_terms)
    if odd and m_top % 2 == 0:
        m_top = max(1, m_top - 1)
    # sums[i] is the sum of prod f(m_j) over m_1 > ... > m_i among the sizes
    # seen so far.  Sizes go downwards in chunks; within a chunk, level i is
    # the cumulative sum of f times level i-1 as it stood before each size
    # (the ordered-sum idiom of _tangent_engine)
    sums = [0.0] * (r + 1)
    step = 2 if odd else 1
    terms = 0
    for hi in range(m_top, 0, -step * _CHUNK):
        qm = q ** np.arange(hi, max(hi - step * _CHUNK, 0), -step, dtype=np.float64)
        f = qm / (1 - qm) ** 2
        before = np.ones_like(f)  # level 0 is 1 before every size
        for i in range(1, r + 1):
            w = f * before
            w[0] += sums[i]  # seeding the first element keeps the additions sequential
            csum = np.cumsum(w)
            before = np.empty_like(csum)
            before[0] = sums[i]
            before[1:] = csum[:-1]
            sums[i] = float(csum[-1])
        terms += len(f)
    value = sums[r]
    if capped:
        nxt = q ** (m_top + 1) / (1 - q) ** 2
        if nxt > 1e-9 * abs(value):
            raise NonConvergenceError(
                f"term cap {max_terms} reached with next term ~{nxt:.2e}")
    return SeriesValue(value, terms, not capped)


def _eval_eisenstein(k: int, q: float, odd: bool, max_terms: int, rel_tol: float):
    const = 0.0
    if not odd:
        from .qseries import bernoulli

        const = float(-bernoulli(k) / (2 * math.factorial(k)))
    acc = 0.0
    terms = 0
    m = 1
    step = 2 if odd else 1
    capped = False
    while True:
        x = q**m
        inner = 0.0
        n = 1
        xn = x
        while True:
            term = n ** (k - 1) * xn
            inner += term
            terms += 1
            if term < rel_tol * max(inner, 1e-300) or terms >= max_terms:
                break
            n += 1
            xn *= x
        acc += inner
        if terms >= max_terms:
            capped = True
            break
        # the remaining outer terms shrink at least geometrically with ratio ~q
        if inner * q / (1 - q) < rel_tol * max(acc, 1e-300):
            break
        m += step
    value = const + acc / math.factorial(k - 1)
    if capped and inner > 1e-9 * abs(value):
        raise NonConvergenceError(f"term cap {max_terms} reached while summing G series")
    return SeriesValue(value, terms, not capped)


def richardson(values: Sequence[float], steps: Sequence[float], levels: int = 2) -> float:
    """Polynomial extrapolation of values(h) to h = 0 (Neville scheme).

    Eliminates the leading ``levels`` powers of h using the last
    ``levels + 1`` nodes; with fewer nodes the scheme degrades gracefully.
    """
    if len(values) != len(steps) or not values:
        raise ValueError("values and steps must be equally sized and non-empty")
    levels = min(levels, len(values) - 1)
    use = len(values) - levels - 1
    r = list(values[use:])
    h = list(steps[use:])
    for j in range(1, levels + 1):
        nxt = []
        for i in range(len(r) - 1):
            num = h[i] * r[i + 1] - h[i + j] * r[i]
            nxt.append(num / (h[i] - h[i + j]))
        r = nxt
    return r[0]


@dataclass(frozen=True)
class LimitReport:
    r: int
    target: float
    grid: tuple
    scaled_values: tuple
    extrapolated: float
    rel_error: float


def limit_check(r: int, q_grid: Sequence[float], levels: int = 2,
                max_terms: int = 5_000_000) -> LimitReport:
    """Evaluate (1-q)^(2r) A_r(q) on the grid and extrapolate q -> 1.

    The limit is zeta({2}^r) = pi^(2r)/(2r+1)!.  A single-point grid skips
    extrapolation and reports the raw scaled value.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    grid = tuple(float(q) for q in q_grid)
    if not grid or any(not 0 < q < 1 for q in grid):
        raise ValueError("q_grid must contain values in (0, 1)")
    if list(grid) != sorted(grid):
        raise ValueError("q_grid must increase toward 1")
    scaled = tuple((1 - q) ** (2 * r) * _eval_macmahon(r, q, False, max_terms, 1e-15).value
                   for q in grid)
    target = math.pi ** (2 * r) / math.factorial(2 * r + 1)
    if len(grid) == 1:
        extrapolated = scaled[0]
    else:
        extrapolated = richardson(scaled, [1 - q for q in grid], levels)
    rel = abs(extrapolated - target) / target
    return LimitReport(r, target, grid, scaled, extrapolated, rel)
