"""The numeric kernel's weights against 50-digit mpmath, one weight at a time."""

import math

import pytest

mpmath = pytest.importorskip("mpmath")
np = pytest.importorskip("numpy")

from macmahon import numerics  # noqa: E402

U = 2.0**-53  # unit roundoff

# lattice points: every |n| <= 30, then log-spaced out to the CLI's default cutoff
POINTS = sorted({n for e in np.linspace(1.5, 5, 36) for n in (round(10**e), -round(10**e))}
                | set(range(-30, 31)), reverse=True)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


@pytest.mark.parametrize("im", [1e-3, 0.5, 1.1])
@pytest.mark.parametrize("re", [0.0, 0.3, -0.45])
def test_lattice_weights(re, im):
    # the reciprocal 1/(tau + n) errs by at most 4u relative (Smith's method,
    # with no cancellation in its denominator) and each complex product by
    # sqrt(5) u (Brent, Percival and Zimmermann, Math. Comp. 76, 2007), so k
    # reciprocal factors and k - 1 products give (4k + sqrt(5) (k - 1)) u to
    # first order; 1.01 covers the higher orders
    tau = complex(re, im)
    ks = tuple(range(2, 9))
    ns = np.array(POINTS, dtype=np.float64)
    free = [np.empty(len(ns), dtype=complex) for _ in range(numerics._FREE)]
    levels = numerics._lattice_weights(ks, tau)(ns, free)
    for k, weights in zip(ks, levels):
        bound = 1.01 * (4 * k + math.sqrt(5) * (k - 1)) * U
        for n, w in zip(POINTS, weights):
            exact = (mpmath.mpc(re, im) + n) ** -k
            assert abs(mpmath.mpc(w.real, w.imag) - exact) <= bound * abs(exact), (k, n)


@pytest.mark.parametrize("q", [0.5, 1 - 2.0**-6, 1 - 2.0**-12])
@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("run", [None, 50])
def test_size_powers(q, step, run, monkeypatch):
    # the run's base and the table entry are powers within 1 ulp (2u relative)
    # each, and their product rounds once more: 5u relative, for every q^m in
    # the normal range.  The sizes span three whole runs and part of a fourth,
    # in blocks that cross the runs' edges; step 2 gives the odd sizes of C_r
    # and Go_k, step 1 every size.  Runs of 50 sizes cross their edges before
    # 0.5^m leaves the normal range
    if run is not None:
        monkeypatch.setattr(numerics, "_RUN", run)
    count = 3 * numerics._RUN + 17
    sizes = np.arange(1 + step * (count - 1), 0, -step, dtype=np.float64)
    fill = numerics._size_powers(q, step, count)
    whole = fill(sizes, np.empty(count)).copy()
    for start in range(0, count, 37):
        block = sizes[start:start + 37]
        assert np.array_equal(fill(block, np.empty(len(block))), whole[start:start + 37])
    exact = mpmath.mpf(q)
    for m, w in zip(sizes.astype(int), whole):
        power = exact ** int(m)
        if power >= 2.0**-1022:
            assert abs(w - power) <= 5 * U * power, m


def test_euler_maclaurin_tail_of_high_order():
    # (tau + a)^-61 is near the bottom of the double range, and (tau + a)^63
    # is past its top: the tail comes from powers of 1/(tau + a)
    k, tau, a = 62, 1j, 10**5 + 1
    z = mpmath.mpc(0, 1) + a
    exact = z ** (1 - k) / (k - 1) + z ** -k / 2 + k * z ** (-k - 1) / 12
    tail = numerics._em_tail(k, tau, a, +1)
    assert abs(mpmath.mpc(tail.real, tail.imag) - exact) <= 1e-13 * abs(exact)
