"""Double precision against 50-digit mpmath: the power sum, the q-side and the lattice."""

import cmath
import math

import pytest

mpmath = pytest.importorskip("mpmath")
np = pytest.importorskip("numpy")

from macmahon.numerics import (  # noqa: E402
    _monotangent_cutoff,
    _power_sum,
    eval_qseries_at,
    lipschitz_value,
    monotangent,
)

EPS = 2.0**-53
TAUS = (1j, 0.25 + 1j, 0.1 + 0.8j, 0.5 + 0.2j, -0.3 + 0.5j, 2.5 + 0.3j)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def eulerian_explicit(n):
    """A(n, i) = sum_j (-1)^j C(n+1, j) (i+1-j)^n, independent of the recurrence."""
    return [sum((-1) ** j * math.comb(n + 1, j) * (i + 1 - j) ** n for j in range(i + 1))
            for i in range(n)]


def horner_scale(n, x):
    """|x| sum_i A(n, i) |x|^i / |1 - x|^(n+1), the scale of the closed form's rounding."""
    coeffs = eulerian_explicit(n)
    return abs(x) * sum(c * abs(x) ** i for i, c in enumerate(coeffs)) / abs(1 - x) ** (n + 1)


def mp_q_side(k, tau):
    q = mpmath.exp(2j * mpmath.pi * mpmath.mpmathify(tau))
    return (-2j * mpmath.pi) ** k / mpmath.factorial(k - 1) * mpmath.polylog(1 - k, q)


def mp_eisenstein(k, q, odd):
    """G_k or Go_k at q by the Lambert form sum_d d^(k-1) q^d/(1 - q^d) (or 1 - q^(2d))."""
    q = mpmath.mpf(q)
    acc, qd, d = mpmath.mpf(0), mpmath.mpf(1), 0
    peak = (k - 1) / -math.log(q)  # the terms decrease from here on
    while True:
        d += 1
        qd *= q
        term = d ** (k - 1) * qd / (1 - (qd * qd if odd else qd))
        acc += term
        if d > peak and term < mpmath.mpf(10) ** -30 * acc:
            break
    const = 0 if odd else -mpmath.bernoulli(k) / (2 * mpmath.factorial(k))
    return const + acc / mpmath.factorial(k - 1)


POINTS = ([0.01, 0.5, 0.9, 0.95, 0.99]  # (0, 1)
          + [-0.05, -0.3, -0.5, -0.8, -0.95]  # negative
          + [0.95j, -0.6 + 0.7j, 0.5 + 0.5j, 0.67 - 0.67j, cmath.rect(0.9, 0.3 * math.pi),
             cmath.rect(0.94, 0.9 * math.pi), cmath.rect(0.95, -2.0), -0.46 - 0.02j])


@pytest.mark.parametrize("n", range(1, 13))
def test_power_sum_against_polylog(n):
    # Horner's rule errs by at most about 2n eps times sum_i A(n, i) |x|^i,
    # hence horner_scale; it is the relative error on (0, 1), where nothing
    # cancels, and it keeps the test honest near the negative real zeros of
    # A_n, where any double-precision evaluation loses relative accuracy
    for x in POINTS:
        got = _power_sum(n, complex(x))
        ref = mpmath.polylog(-n, mpmath.mpmathify(x))
        assert abs(mpmath.mpmathify(got) - ref) <= 4 * (n + 1) * EPS * horner_scale(n, x), x


@pytest.mark.parametrize("k", range(2, 11))
def test_lipschitz_value_against_polylog(k):
    # the power-sum bound at n = k - 1, widened by 4 eps * scale for the
    # rounding of q = e^(2 pi i tau) and of the prefactor
    for tau in TAUS:
        ref = mp_q_side(k, tau)
        q = cmath.exp(2j * cmath.pi * tau)
        scale = (2 * math.pi) ** k / math.factorial(k - 1) * horner_scale(k - 1, q)
        err = abs(mpmath.mpmathify(lipschitz_value(k, tau)) - ref)
        assert err <= 4 * (k + 1) * EPS * scale, tau


@pytest.mark.parametrize("name", ["G", "Go"])
@pytest.mark.parametrize("k", [2, 4, 8, 12])
def test_eisenstein_values(name, k):
    for q in (0.5, 0.9, 0.99):
        ref = mp_eisenstein(k, q, name == "Go")
        got = eval_qseries_at(name, k, q).value
        assert abs(got - ref) <= 2e-15 * abs(ref), q


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_monotangent_within_its_bounds(k):
    # neglected_bound covers the truncation only; the box sum also carries
    # the rounding of its terms and of its cumulative sum, bounded to first
    # order by eps * (sum_j |partial sum_j| + k * sum_j |term_j|)
    for tau in TAUS:
        ref = mp_q_side(k, tau)
        for cutoff in (100, 1000, 10**4, 10**5):  # 10**5 caps the CLI default
            m = monotangent(k, tau, cutoff)
            terms = (tau + np.arange(cutoff, -cutoff - 1, -1.0)) ** (-k)
            rounding = EPS * (np.abs(np.cumsum(terms)).sum() + k * np.abs(terms).sum())
            err = abs(mpmath.mpmathify(m.value) - ref)
            assert err <= m.neglected_bound + rounding + 1e-15 * abs(m.value), (tau, cutoff)


# the unit box around i that the benchmark draws from, the real-axis edge
# of the default cutoff's floor on the margin, a large Im tau and a large Re tau
GATE_TAUS = (0.5 + 0.7j, -0.5 + 0.7j, 0.5 + 1.3j, -0.5 + 1.3j, 1j, 0.1 + 0.7j,
             0.3 + 0.05j, -0.45 + 0.2j, 0.2 + 2j, 3000.25 + 0.9j)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 9, 12])
def test_default_cutoff_as_accurate_as_the_cap(k):
    # the two small-Im taus catch a floor set too low: with none, k = 9 at
    # 0.3+0.05i takes cutoff 2 and errs 1.3e-10; with a floor of 16, k = 5
    # there takes 16 and errs 3.2e-14
    for tau in GATE_TAUS:
        ref = mp_q_side(k, tau)
        default, capped = [abs(mpmath.mpmathify(monotangent(k, tau, c).value) - ref) / abs(ref)
                           for c in (_monotangent_cutoff(k, tau), 10**5)]
        assert default <= max(2 * capped, 2e-14), tau
