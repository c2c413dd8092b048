"""Floating-point evaluation: lattice sums, series values near q = 1, limits.

The monotangent and multitangent functions are the ordered sums

    Psi_k(tau)            = sum_{n in Z} (tau + n)^(-k),
    Psi_{k_1,...,k_r}(tau) = sum_{n_1 > ... > n_r} prod_i (tau + n_i)^(-k_i),

for tau in the upper half plane and all exponents >= 2, over the symmetric
box |n_i| <= cutoff with Euler-Maclaurin corrections for the parts outside
it.  For k = 2 the raw sum converges only like 1/cutoff, so the corrected
value is the primary output; the raw sum, the correction, and bounds for
the raw tail and the neglected remainder are reported alongside.  The
pass builds the index level by level, so the corrected value of every
leading sub-index k_1..k_i comes out of it too, bit for bit the value of
its own call: ``numeric --check multitangent`` reads Psi_2 there and runs
one lattice pass per check.  Depth times (2 * cutoff + 1) is capped at
10^8 lattice terms, seconds of work.  ``numeric --check monotangent``
takes its default cutoff from ``_monotangent_cutoff``: the least one whose
Euler-Maclaurin remainder is below the rounding of the largest term.

Every q-side sum is built on sum_{d>=1} d^n x^d = x A_n(x)/(1 - x)^(n+1),
A_n the Eulerian polynomial (``_power_sum``, for scalars and arrays).
``lipschitz_value`` is the q-expansion (-2*pi*i)^k/(k-1)! * sum_d d^(k-1) q^d
of the monotangent.  ``eval_qseries_at`` sums A_r, C_r, G_k and Go_k at a
numeric q in (0, 1) as nested sums over part sizes m_1 > ... > m_r of
f(m) = sum_d d^(k-1) q^(m*d)/(k-1)!, which feeds the limit check

    (1-q)^(2r) A_r(q)  ->  pi^(2r)/(2r+1)!   as q -> 1.

Both nested sums are one kernel, ``_ordered_sums``: cumulative sums over
the points (lattice points n or part sizes m) in numpy blocks of fixed
length, so depth r costs O(points * r) time, not O(points^r), and the
memory does not grow with the number of points (millions near q = 1).
Its weights come by multiplication, with no power per point: the lattice
weight (tau + n)^(-k) is a product of k factors 1/(tau + n) from one
reciprocal (``_lattice_weights``), and q^m is one scalar power of q per
run of sizes times a table of powers built once per call
(``_size_powers``).  Each weight depends on its point alone, so every sum
is bit for bit the same however the points are blocked.  The blocks live
in one workspace per thread, allocated on first use and reused by every
later call, so a warm call allocates nothing block-sized and faults no
page in; it holds about 1.9 MB, one depth >= 2 lattice pass's worth.

numpy is imported on first use, so the exact layers and the CLI commands
that need no numerics do not pay its import time and memory.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

from .qseries import _eulerian as _eulerian_ints


class DivergenceError(ValueError):
    """The requested lattice sum does not converge (some exponent < 2)."""


class NonConvergenceError(RuntimeError):
    """A numeric summation hit its term cap while terms were still large."""


def _require_tau(tau: complex) -> complex:
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise ValueError("tau must be finite")
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half plane (positive imaginary part)")
    return tau


@dataclass(frozen=True)
class TangentSum:
    """A lattice-sum evaluation with explicit error accounting.

    ``value = partial + correction``; ``tail_bound`` bounds the part of the
    exact sum missing from ``partial``, and ``neglected_bound`` estimates
    what ``value`` still omits (Euler-Maclaurin remainders and, for depth
    >= 2, dropped corner terms).  Both cover truncation only, not the
    floating-point rounding of the terms and of their cumulative sum, which
    grows with the cutoff and dominates past a few hundred points.
    ``leading[i - 1]`` is the corrected value of the sub-index k_1..k_i,
    from the same pass; the last is ``value``.
    """

    value: complex
    partial: complex
    correction: complex
    tail_bound: float
    neglected_bound: float
    leading: tuple = ()


def _em_tail(k: int, tau: complex, a: int, sign: int) -> complex:
    """Euler-Maclaurin value of sum_{n>=a} (tau + sign*n)^(-k).

    The terms are powers of r = 1/(tau + sign*a), which underflow toward 0
    as the terms do; Python forms z^(-k-1) as 1/z^(k+1), which is nan once
    z^(k+1) overflows (k = 62 at a = 10^5).
    """
    r = 1 / (tau + sign * a)
    integral = sign * r ** (k - 1) / (k - 1)
    f = r ** k
    fp = -k * sign * r ** (k + 1)
    return integral + f / 2 - fp / 12


def _one_sided_tail_bound(k: int, tau: complex, n: int) -> float:
    margin = n - abs(tau.real)
    return margin ** (1 - k) / (k - 1)


def _em_remainder(k: int) -> tuple:
    """``(c, p)``: c * a^-p bounds the Euler-Maclaurin remainders of both level-1 tails.

    a = cutoff + 1 - |Re tau| is the least distance from tau to a point
    outside the box.
    """
    return 2 * (k * (k + 1) * (k + 2) / 720), k + 3


# the least margin a the default monotangent cutoff takes: with a smaller
# one the tail's Euler-Maclaurin terms past the remainder bound show where
# Im tau is small (with none, k = 9 at tau = 0.3+0.05i takes cutoff 2 and
# errs 1.3e-10)
_MIN_MARGIN = 32

# the default monotangent cutoff never exceeds this
_MAX_DEFAULT_CUTOFF = 100_000


def _monotangent_cutoff(k: int, tau: complex) -> int:
    """Depth-1 cutoff whose level-1 remainder falls below the rounding of the largest term.

    The smallest margin a = cutoff + 1 - |Re tau| with c * a^-p
    (``_em_remainder``) at most 2^-53 * Im(tau)^-k, the double-precision
    floor of the largest lattice term, solved in logs so that no power
    overflows; at least ``_MIN_MARGIN``, and the cutoff at least
    int(|Re tau|) + 2 and at most ``_MAX_DEFAULT_CUTOFF``.  A tau that is
    not finite or not in the upper half plane gets the cap, and
    ``monotangent`` refuses it.
    """
    if not (cmath.isfinite(tau) and tau.imag > 0):
        return _MAX_DEFAULT_CUTOFF
    # past 2^53 the exponent is not a float; the margin then barely moves with k
    k = min(k, 1 << 53)
    c, p = _em_remainder(k)
    log_a = (math.log(c) + 53 * math.log(2) + k * math.log(tau.imag)) / p
    a = max(_MIN_MARGIN, math.exp(min(log_a, math.log(_MAX_DEFAULT_CUTOFF + 1))))
    cutoff = max(math.ceil(a - 1 + abs(tau.real)), int(abs(tau.real)) + 2)
    return min(cutoff, _MAX_DEFAULT_CUTOFF)


# points per numpy block in _ordered_sums: memory stays O(_CHUNK) whatever
# the cutoff or term count, and each block's arrays stay cache-resident
_CHUNK = 1 << 14

# multitangent refuses depth * (2 * cutoff + 1) above this many lattice terms
_MAX_LATTICE_TERMS = 10**8

# _eval_macmahon's tail target (times e^-6) and default cap on part sizes
_REL_TOL = 1e-15
_MAX_TERMS = 5_000_000

# part sizes per run of _size_powers: one scalar power each, and the table's length
_RUN = 1 << 12


# the weights of _ordered_sums get this many free rows of the workspace
_FREE = 3

# this thread's workspace: ``mem``, float64 words, and the _CHUNK it was made for
_workspace = threading.local()


def _workspace_rows(dtype, count: int) -> tuple:
    """This thread's float64 point block and ``count`` ``dtype`` rows, each _CHUNK + 1 long.

    All are views of one float64 array per thread, made on first use and
    made again only for a new _CHUNK or a call that needs more rows, so
    float64 and complex128 rows share their bytes.  They hold whatever the
    last call left; every caller writes an element before it reads it.
    """
    import numpy as np

    n = _CHUNK + 1
    words = np.dtype(dtype).itemsize // 8
    need = n * (1 + count * words)
    mem = getattr(_workspace, "mem", None)
    if mem is None or len(mem) < need or _workspace.chunk != _CHUNK:
        _workspace.mem = None  # free the old array before the new one is made
        mem = _workspace.mem = np.empty(need)
        _workspace.chunk = _CHUNK
    return mem[:n], list(mem[n:need].view(dtype).reshape(count, n))


def _ordered_sums(weights, depth: int, points: range, dtype, seeds: Sequence = ()) -> list:
    """Level-i sums over points p_0 > ... > p_i of prod_j w_j(p_j), for i < depth.

    The points, a descending range, go in blocks of ``_CHUNK``, and
    ``weights(block, free)`` yields a block's ``depth`` weight arrays, level
    by level; ``free`` is a list of ``_FREE`` ``dtype`` buffers of the
    block's length for it to write, and every level may yield the same
    array.  These sums are the raw chain; each seed adds a chain whose
    level-0 partial sums are the raw ones plus the seed.  Returns the level
    totals of every chain, raw first, as ``dtype`` scalars.

    Each level carries its total from block to block and seeds it into the
    first element of the block's cumulative sum, so every float addition
    happens in the order of one cumulative sum over all the points.  The
    block, the weights' buffers and the cumulative-sum rows are this
    thread's workspace (``_workspace_rows``), allocated once: memory is
    O(_CHUNK) whatever the number of points, a warm call allocates none of
    it, and about 1.9 MB stays held between calls.  A float overflow,
    division by zero or invalid value raises ``FloatingPointError`` instead
    of warning and going on with inf or nan.
    """
    import numpy as np

    size = min(_CHUNK, len(points))
    chains = 1 + len(seeds)
    # tot[c][i]: chain c's level-i sum over the blocks done
    tot = [[dtype()] * depth for _ in range(chains)]
    # pre[c][j]: chain c's sums at the current level over the points before
    # point j (pre[c][0] the carried total), which weight the next level; it
    # writes its own into spare, then the two swap.  Products get their own
    # output: numpy rounds an in-place one-element complex product
    # differently.  Level 0 alone needs only the raw row
    block, rows = _workspace_rows(dtype, _FREE + (2 * chains if depth > 1 else 1))
    free, rows = rows[:_FREE], rows[_FREE:]
    pre, spare = rows[:chains], rows[chains:]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        # the first block's points, exact integer partial sums
        block = block[:size]
        block.fill(points.step)
        block[0] = points.start
        np.add.accumulate(block, out=block)
        for start in range(0, len(points), size):
            m = min(size, len(points) - start)
            if start:
                np.add(block, size * points.step, out=block)
            for i, w in enumerate(weights(block[:m], [buf[:m] for buf in free])):
                if i == 0:
                    # w may be the next level's weights too: restore w[0]
                    first = w[0]
                    w[0] += tot[0][0]
                    np.add.accumulate(w, out=pre[0][1:m + 1])
                    w[0] = first
                    pre[0][0], tot[0][0] = tot[0][0], pre[0][m]
                    for dst, seed in zip(pre[1:], seeds):
                        np.add(pre[0][:m], seed, out=dst[:m])
                    continue
                for src, dst, sums in zip(pre, spare, tot):
                    terms = np.multiply(w, src[:m], out=dst[1:m + 1])
                    terms[0] += sums[i]
                    np.add.accumulate(terms, out=terms)
                    dst[0], sums[i] = sums[i], dst[m]
                pre, spare = spare, pre
    for sums, seed in zip(tot[1:], seeds):
        sums[0] = tot[0][0] + seed
    return [[dtype(t) for t in sums] for sums in tot]


def _lattice_weights(ks: Sequence[int], tau: complex):
    """The ``weights`` of ``_ordered_sums`` for (tau + n)^(-k_i) at level i.

    Each block takes one reciprocal r = 1/(tau + n), and (tau + n)^(-k) is
    the product r * r * ... * r of k factors, left to right, so a weight
    depends on n and k alone and no intermediate exceeds the weight's own
    size as (tau + n)^k would.  A level whose exponent grows goes on from
    the previous level's product, one that keeps it reuses that product,
    and one whose exponent falls starts again from r.  Every product goes
    into a buffer apart from its inputs (see ``_ordered_sums``).
    """
    import numpy as np

    def levels(ns, free):
        # n + 0j first: np.add(ns, tau) would cast ns through a fresh 128 KB buffer
        np.copyto(free[0], ns)
        inv = np.reciprocal(np.add(free[0], tau, out=free[0]), out=free[1])
        outs = (free[0], free[2])
        w, power = inv, 1
        for k in ks:
            if k < power:
                w, power = inv, 1
            # the product of j + 1 factors goes into the buffer w is not in
            for j in range(power, k):
                w = np.multiply(w, inv, out=outs[j % 2])
            power = k
            yield w

    return levels


def _tangent_engine(ks: Sequence[int], tau: complex, cutoff: int) -> tuple:
    """Ordered box sum over cutoff >= n_1 > ... > n_r >= -cutoff: ``(corrected, raw)``.

    ``_ordered_sums`` with weights (tau + n)^(-k_i) at level i, products of
    one reciprocal per point (``_lattice_weights``).  The raw chain is the
    box sum alone; the corrected one restores the two dominant boundary
    channels at each depth: the upper seed of the innermost level and, at
    every level, the lower tail weighted by the full lower-depth value.
    ``corrected`` holds that value at every depth i, for k_1..k_i; level i
    of the pass reads only the levels before it, so each equals the pass
    over k_1..k_i alone.
    """
    points = range(cutoff, -cutoff - 1, -1)
    # only the innermost level has an upper seed, the others' are
    # O(cutoff^-(k_i + k_(i-1) - 1)) and folded into neglected_bound
    upper = _em_tail(ks[0], tau, cutoff + 1, +1)
    levels = _lattice_weights(ks, tau)
    raw, cor = _ordered_sums(levels, len(ks), points, complex, (upper,))
    psi, corrected = 1.0 + 0j, []
    for k, total in zip(ks, cor):
        psi = total + _em_tail(k, tau, cutoff + 1, -1) * psi
        corrected.append(psi)
    return tuple(corrected), raw[-1]


def _tangent_bounds(ks, tau, cutoff):
    # tail_bound: union bound over "index i escapes the box" channels, each
    # |sum outside| * product of absolute full sums of the other levels
    full_abs, tails = [], []
    # sum_n |tau+n|^-k is periodic in tau, so it is bounded at the shift of
    # tau with |Re| <= 1/2, in O(1) whatever Re tau
    near = complex(tau.real - round(tau.real), tau.imag)
    c = abs(near.real)
    start = 40
    for k in ks:
        tails.append(2 * _one_sided_tail_bound(k, tau, cutoff))
        # sum_n |near+n|^-k bounded through |near+n| >= max(|n - c|, Im tau),
        # with the range |n| >= start completed by the integral bound
        head = 2 * sum(max(abs(n - c), tau.imag) ** -k for n in range(1, start)) + abs(near) ** -k
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
    c, p = _em_remainder(ks[0])
    rem = c * (cutoff + 1 - abs(tau.real)) ** -p
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
    ks = tuple([int(k) for k in (ks if isinstance(ks, (tuple, list)) else (ks,))])
    if not ks:
        raise ValueError("need at least one exponent")
    if any(k < 2 for k in ks):
        raise DivergenceError("all exponents must be >= 2 for the sum to converge")
    tau = _require_tau(tau)
    if cutoff < max(len(ks), int(abs(tau.real)) + 2):
        raise ValueError("cutoff too small for this depth and tau")
    terms = len(ks) * (2 * cutoff + 1)
    if terms > _MAX_LATTICE_TERMS:
        raise ValueError(f"depth * (2 * cutoff + 1) = {terms} lattice terms, above the "
                         f"limit of {_MAX_LATTICE_TERMS}; lower the cutoff")
    leading, partial = _tangent_engine(ks, tau, cutoff)
    value = leading[-1]
    tail_bound, neglected = _tangent_bounds(ks, tau, cutoff)
    return TangentSum(value, partial, value - partial, tail_bound, neglected, leading)


def monotangent(k: int, tau: complex, cutoff: int) -> TangentSum:
    """Psi_k(tau) = sum_{n in Z} (tau+n)^(-k), corrected symmetric partial sum."""
    return multitangent((k,), tau, cutoff)


@functools.lru_cache(maxsize=None)
def _eulerian(n: int) -> tuple:
    """A(n, 0..n-1) of the Eulerian polynomial A_n (:func:`qseries._eulerian`) as floats."""
    return tuple([float(c) for c in _eulerian_ints(n)])


def _power_sum(n: int, x, out=None, tmp=None):
    """sum_{d>=1} d^n x^d = x A_n(x)/(1 - x)^(n+1), n >= 1, for a scalar or numpy array x.

    A_n goes by Horner's rule; for n = 1 this is exactly ``x / (1 - x) ** 2``.
    Given buffers ``out`` and ``tmp`` of x's length, an array's value goes
    into ``out`` by the same ufuncs in the same order, in place.
    """
    coeffs = _eulerian(n)
    if out is None:
        num = x
        if n > 1:
            poly = coeffs[-1]
            for c in coeffs[-2::-1]:
                poly = poly * x + c
            num = x * poly
        return num / (1 - x) ** (n + 1)
    import numpy as np

    num = x
    if n > 1:
        num = np.multiply(x, coeffs[-1], out=tmp)
        num += coeffs[-2]
        for c in coeffs[-3::-1]:
            num *= x
            num += c
        num *= x
    den = np.subtract(1, x, out=out)
    den **= n + 1
    return np.divide(num, den, out=den)


def lipschitz_value(k: int, tau: complex) -> complex:
    """q-side evaluation (-2*pi*i)^k/(k-1)! * sum_{d>0} d^(k-1) q^d, q = e^(2*pi*i*tau).

    The d-sum is the closed form ``_power_sum``: no term count, no stopping rule.
    """
    if k < 2:
        raise DivergenceError("need k >= 2")
    tau = _require_tau(tau)
    q = cmath.exp(2j * cmath.pi * tau)
    return (-2j * cmath.pi) ** k / math.factorial(k - 1) * _power_sum(k - 1, q)


@dataclass(frozen=True)
class SeriesValue:
    """An ``eval_qseries_at`` value; ``terms`` counts part sizes m, for G_k and Go_k too."""

    value: float
    terms: int
    converged: bool


def eval_qseries_at(name: str, param: int, q: float,
                    max_terms: int = _MAX_TERMS) -> SeriesValue:
    """Numeric value of A_r, C_r, G_k or Go_k at q in (0, 1), from the defining sums.

    All four are ``_eval_macmahon`` sums: A_r and C_r with k = 2, G_k and
    Go_k at depth 1 plus the constant term of ``qseries.eisenstein``; C_r and
    Go_k take odd sizes only.  No truncated coefficient lists are involved, so
    this is usable arbitrarily close to q = 1, subject to the term cap.  Float
    overflow, division by zero or an invalid value raises ``FloatingPointError``.
    """
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    if name in ("A", "C"):
        if param < 1:
            raise ValueError("need r >= 1")
        return _eval_macmahon(param, q, name == "C", max_terms)
    if name in ("G", "Go"):
        if param < 2 or param % 2:
            raise ValueError("need even k >= 2")
        const = 0.0
        if name == "G":
            from .qseries import eisenstein

            const = float(eisenstein(param, 0)[0])
        sums = _eval_macmahon(1, q, name == "Go", max_terms, k=param)
        return SeriesValue(const + sums.value, sums.terms, sums.converged)
    raise ValueError(f"unknown series name {name!r}")


def _size_powers(q: float, step: int, count: int):
    """q^m for the part sizes m = 1 + step*i, i < ``count``, in descending blocks.

    Size m = 1 + step*i lies in run i // _RUN; each run takes one scalar
    power of q at its smallest size, times q^(step*j) from a table of one
    run built here.  So q^m depends on m alone, however the sizes are
    blocked, and is the product of two powers within 1 ulp each: its
    relative error is below 5 * 2^-53.  Returns ``fill(ms, out)``, which
    writes q^m for the descending sizes ``ms`` into ``out`` and returns it.
    """
    import numpy as np

    width = min(_RUN, count)
    # table[t] = q^(step*j) for j = width - 1 - t: a run's sizes in descending
    # order, the powers written over their exponents, so one array is made
    table = np.arange(step * (width - 1), -1, -step, dtype=np.float64)
    np.power(q, table, out=table)

    def fill(ms, out):
        i, pos = (int(ms[0]) - 1) // step, 0
        while pos < len(ms):
            run, j = divmod(i, _RUN)
            n = min(j + 1, len(ms) - pos)
            t = width - 1 - j
            np.multiply(table[t:t + n], q ** (1 + step * _RUN * run), out=out[pos:pos + n])
            i, pos = i - n, pos + n
        return out

    return fill


def _eval_macmahon(r: int, q: float, odd: bool, max_terms: int, k: int = 2) -> SeriesValue:
    """Sum over part sizes m_1 > ... > m_r of prod f(m_i), f(m) = sum_d d^(k-1) q^(md)/(k-1)!."""
    # f(m) = q^m A_(k-1)(q^m)/((k-1)! (1-q^m)^k) <= q^m/(1-q^(M+1))^k for m > M,
    # as A_(k-1) <= (k-1)! on [0, 1].  With e^c = _REL_TOL * e^-6 * (1-q), pick
    # M with q^M < e^c (1-e^c)^k: then q^(M+1) < e^c, and the tail over m > M
    # is below q^(M+1)/((1-q)(1-e^c)^k) < q * _REL_TOL * e^-6
    c = math.log(_REL_TOL) - 6.0 + math.log1p(-q)
    m_top = max(1, int((c + k * math.log1p(-math.exp(c))) / math.log(q)) + 1)
    capped = m_top > max_terms
    m_top = min(m_top, max_terms)
    if odd and m_top % 2 == 0:
        m_top = max(1, m_top - 1)
    step = 2 if odd else 1
    sizes = range(m_top, 0, -step)
    powers = _size_powers(q, step, len(sizes))

    # f goes without its 1/(k-1)!, which divides the total once per level
    def levels(ms, free):
        return itertools.repeat(_power_sum(k - 1, powers(ms, free[0]), *free[1:]), r)

    fact = math.factorial(k - 1)
    totals = _ordered_sums(levels, r, sizes, float)[0]
    value = totals[-1] / fact ** r
    if capped:
        # f past M = m_top sums to at most tail (the bound above); a chain with a
        # size past M has its largest there, so the depth-j sum misses at most
        # tail * bound(j - 1), bound(j) = (depth-j sum) + that, bound(0) = 1
        top = q ** (m_top + 1)
        tail = top / ((1 - q) * (1 - top) ** k)
        bound = 1.0
        for j, total in enumerate(totals[:-1], 1):
            bound = total / fact ** j + tail * bound
        if tail * bound >= 1e-9 * abs(value):
            raise NonConvergenceError(
                f"term cap {max_terms} reached with truncation error up to ~{tail * bound:.2e}")
    return SeriesValue(value, len(sizes), not capped)


def richardson(values: Sequence[float], steps: Sequence[float]) -> float:
    """Polynomial extrapolation of values(h) to h = 0 (Neville scheme).

    Eliminates the leading two powers of h using the last three nodes, or
    one power with two nodes.
    """
    if len(values) != len(steps) or not values:
        raise ValueError("values and steps must be equally sized and non-empty")
    levels = min(2, len(values) - 1)
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


def limit_check(r: int, q_grid: Sequence[float]) -> LimitReport:
    """Evaluate (1-q)^(2r) A_r(q) on the grid and extrapolate q -> 1.

    The limit is zeta({2}^r) = pi^(2r)/(2r+1)!.  A single-point grid skips
    extrapolation and reports the raw scaled value.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    grid = tuple([float(q) for q in q_grid])
    if not grid or any(not 0 < q < 1 for q in grid):
        raise ValueError("q_grid must contain values in (0, 1)")
    if list(grid) != sorted(grid):
        raise ValueError("q_grid must increase toward 1")
    scaled = tuple([(1 - q) ** (2 * r) * _eval_macmahon(r, q, False, _MAX_TERMS).value
                    for q in grid])
    target = math.pi ** (2 * r) / math.factorial(2 * r + 1)
    if len(grid) == 1:
        extrapolated = scaled[0]
    else:
        extrapolated = richardson(scaled, [1 - q for q in grid])
    rel = abs(extrapolated - target) / target
    return LimitReport(r, target, grid, scaled, extrapolated, rel)
