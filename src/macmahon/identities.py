"""Identity verifiers and quasimodular expression machinery.

The two generating-series identities checked by :func:`verify_main_a` and
:func:`verify_main_c` state that, with S = 2*arcsin(X/2),

    1 + sum_{r>=1} A_r(q) X^(2r)
        = (S/X) * exp( sum_{j>=1} (-1)^(j-1)/j * G_{2j}(q)  * S^(2j) ),
    1 + sum_{r>=1} C_r(q) X^(2r)
        =         exp( sum_{j>=1} (-1)^(j-1)/j * G^o_{2j}(q) * S^(2j) ).

Both sides are even in X, so the verifiers work on the X^2-graded form
(Y = X^2) and compare every coefficient of Y^r q^n in the requested window.

Each identity is checked as two exact factors.  Write G_{2j} = G_{2j}(0) +
G'_{2j}, with the constant term G_{2j}(0) = -B_{2j}/(2 (2j)!) and the
divisor sum G'_{2j}.  exp turns sums into products, so the right-hand side
of the first identity is F * E with

    F = (S/X) * exp( sum_j (-1)^(j-1)/j * G_{2j}(0) * S^(2j) ),
    E =         exp( sum_j (-1)^(j-1)/j * G'_{2j}(q) * S^(2j) ).

F = 1 is Euler's product for sin, log(sin t / t) = sum_n (-1)^n 2^(2n-1)
B_{2n} t^(2n) / (n (2n)!) at t = S/2.  It is checked as a rational series in
U = S^2, where S/X = (S/2)/sin(S/2) and it reads exp(sum_j (-1)^(j-1)/j *
G_{2j}(0) * U^j) = sin(S/2)/(S/2); U = Y * (1 + O(Y)), so F is 1 to Y^r
exactly when this holds to U^r, and the first wrong coefficient is the same
in both.  Then 1 + sum A_r Y^r = E is checked on every Y^r q^n: it has no
Bernoulli denominators and no prefactor.  Together the two are exactly the
first identity.  For the second, G^o_{2j}(0) = 0, so its constant factor is
exp(0) = 1; the same two checks run, with 1 in place of sin(S/2)/(S/2).

Expanding the right-hand side over formal generators instead of actual
q-expansions (:func:`extract_polynomials`) yields closed polynomial
expressions for A_r and C_r in the (odd) Eisenstein series; there the
prefactor S/X multiplies the coefficients as rational scalars.

:func:`verify_geng22` checks the weight-graded counterpart: with
L = (2*pi*i)^2 tracking powers of the period,

    T * exp( sum_{k>=1} (-1)^(k-1)/k * L^k G_{2k}(q) T^(2k) )
        = sum_{l>=0} L^l g({2}^l)(q) * Z(T)^(2l+1),

where Z(T) = sum_j (-L/4)^j T^(2j+1)/(2j+1)! is sin(pi*i*T)/(pi*i) written
in terms of L, and g({2}^l) is the nested divisor sum whose l = r case is
A_r.  Every L arrives with T^2, so on both sides the T^(2m+1) coefficient
is L^m times a rational q-series: the homogeneous weight is structural, and
the identity is checked at L = 1 in the grading Y = T^2, the same way as
the two identities above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Optional, Sequence

# macmahon_a is not called here; the benchmark's span tests expect this binding
from .qseries import _macmahon_chain, eisenstein, eisenstein_odd, macmahon_a  # noqa: F401
from .quasishuffle import HARMONIC
from .series import (
    RATIONALS,
    CoeffRing,
    Series,
    SparsePoly,
    series_ring,
)


class NoRepresentationError(Exception):
    """No polynomial in the given generators matches the target series."""


# ---------------------------------------------------------------------------
# polynomials in named generators
# ---------------------------------------------------------------------------


class GeneratorPoly(SparsePoly):
    """Polynomial with rational coefficients in named commuting generators.

    Monomials are stored as sorted tuples of generator names with
    multiplicity, e.g. G2^2*G4 -> ("G2", "G2", "G4"); the empty tuple is the
    constant monomial.
    """

    __slots__ = ()

    @staticmethod
    def _monomial(mon):
        return tuple(sorted(mon))

    @staticmethod
    def _mul_monomials(m1, m2):
        return ((tuple(sorted(m1 + m2)), 1),)

    @classmethod
    def generator(cls, name: str) -> "GeneratorPoly":
        return cls({(name,): 1})

    def evaluate(self, values: dict, one):
        """Substitute ring elements for the generators; ``one`` is the target ring unit.

        The monomials' expansions come from one prefix table
        (:func:`_prefix_table`), the one :func:`express_in_generators` reads,
        so monomials that share factors (G2^2*G4 and G2^2*G6) share them.
        """
        table = _prefix_table(self.terms, values, one)
        return sum((table[mon] * c for mon, c in self.terms.items()), one * Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        return format_generator_poly(self, sorted({n for m in self.terms for n in m}))


def _prefix_table(monomials, values: dict, one) -> dict:
    """``{monomial: expansion}`` for every prefix of the sorted ``monomials``.

    ``values`` maps each generator name to its ring element and ``()`` maps
    to ``one``.  Each monomial is its longest proper prefix times its last
    generator: one product per distinct non-constant prefix, in whatever
    order the monomials come (names sort as strings, so G10 precedes G2).
    """
    table = {(): one}
    for mon in monomials:
        for k in range(1, len(mon) + 1):
            if mon[:k] not in table:
                table[mon[:k]] = table[mon[:k - 1]] * values[mon[k - 1]]
    return table


#: Polynomials in named generators as a coefficient ring.
GENPOLYS = CoeffRing(GeneratorPoly(), GeneratorPoly({(): 1}))


def _ordered_monomials(poly: GeneratorPoly, names: Sequence[str],
                       weights: Optional[dict] = None) -> list:
    """The non-constant monomials of ``poly`` in display order.

    Monomials are ordered by (total weight, exponent vector) with the
    exponent vector taken in the declared generator order and compared
    reverse-lexicographically, so e.g. G2^2 precedes G4.  Without
    ``weights`` the i-th name has weight i + 1.
    """
    weights = weights or {n: i + 1 for i, n in enumerate(names)}
    return sorted((m for m in poly.terms if m),
                  key=lambda m: (sum(weights[n] for n in m), tuple([-m.count(n) for n in names])))


def format_generator_poly(poly: GeneratorPoly, names: Sequence[str],
                          weights: Optional[dict] = None) -> str:
    """Render a generator polynomial deterministically.

    Monomials come by total weight, then by exponent vector in the declared
    generator order, larger exponents first (:func:`_ordered_monomials`,
    which the JSON ``terms`` of ``macmahon express`` share); the constant
    term comes last.
    """
    names = list(names)

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
    for mon in _ordered_monomials(poly, names, weights):
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


@dataclass(frozen=True, slots=True)
class Mismatch:
    coords: dict
    lhs: str
    rhs: str
    note: str = ""


@dataclass(frozen=True, slots=True)
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
    return Series([Fraction(comb(2 * j, j), 16**j * (2 * j + 1)) for j in range(y_order + 1)])


def _half_sinc(order: int) -> Series:
    """sin(S/2)/(S/2) in U = S^2: coefficient of U^n is z_n = (-1)^n/(4^n (2n+1)!)."""
    return Series([zeta_two_power(n) for n in range(order + 1)])


def _scale_by_rationals(f: Series, u: Series) -> Series:
    """f * u for a series u over the rationals whose coefficients act on f's as scalars."""
    order, c = min(f.order, u.order), u.coeffs
    return f._combinations([[(k - j, c[j]) for j in range(k + 1) if c[j]]
                            for k in range(order + 1)])


def _log_series(gen_vals: dict, order: int, ring: CoeffRing) -> Series:
    """sum_{j>=1} (-1)^(j-1)/j * gen_vals[j] * U^j, the exponent of the RHS in U = S^2."""
    return Series(
        [ring.zero] + [gen_vals[j] * Fraction(1 if j % 2 else -1, j) for j in range(1, order + 1)],
        ring,
    )


def _generating_rhs(gen_vals: dict, y_order: int, inner: CoeffRing, prefactor: bool) -> Series:
    """RHS of the generating identities in the Y = X^2 grading.

    ``gen_vals[j]`` is the weight-2j coefficient object (a q-expansion or a
    formal generator).  The arcsin factors stay rational series: the square
    of 2*arcsin(X/2) enters through a composition with rational scalars, and
    the prefactor (2/X)*arcsin(X/2) multiplies the coefficients as scalars.
    """
    u = _even_arcsin_factor(y_order)
    asin_sq = (u * u).shift(1)  # (2 arcsin(X/2))^2 as a series in Y
    rhs = _log_series(gen_vals, y_order, inner).compose(asin_sq).exp()
    return _scale_by_rationals(rhs, u) if prefactor else rhs


def _validate_window(q_order: int, x_order: int):
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    if x_order < 2 or x_order % 2:
        raise ValueError("x_order must be an even integer >= 2 (both sides are even in X)")


def _first_mismatch(identity: str, params: dict, lhs: Series, rhs: Series,
                    coord: str, step: int, offset: int = 0,
                    render=lambda r, c: str(c)) -> VerdictReport:
    """Coefficientwise verdict on two series whose coefficients are q-series.

    The first differing q-coefficient is reported at ``{coord: step * r +
    offset, "q_exp": n}`` for the coefficient of the r-th outer power and
    q^n, each side written as ``render(r, value)``.
    """
    for r in range(lhs.order + 1):
        a, b = lhs[r], rhs[r]
        if a == b:
            continue
        for n in range(a.order + 1):
            if a[n] != b[n]:
                return VerdictReport(
                    identity, params, "mismatch",
                    Mismatch({coord: step * r + offset, "q_exp": n},
                             render(r, a[n]), render(r, b[n])),
                )
    return VerdictReport(identity, params, "verified")


def _verify_main(odd: bool, q_order: int, x_order: int) -> VerdictReport:
    """The A_r (or, with ``odd``, the C_r) generating identity on a finite window.

    The identity is checked as two exact factors (see the module
    docstring).  Both sides are compared at every Y^r q^n, and the first
    coordinate where either factor fails is reported.  A constant factor
    that is off first at U^r is off first at Y^r by the same amount: at
    q^0 the identity reads A_r(0) against that coefficient, and both are
    reported at (x_exp 2r, q_exp 0).
    """
    _validate_window(q_order, x_order)
    y_order = x_order // 2
    identity = "main-c" if odd else "main-a"
    params = {"q_order": q_order, "x_order": x_order}
    inner = series_ring(RATIONALS, q_order)
    gen = eisenstein_odd if odd else eisenstein
    gens = {j: gen(2 * j, q_order) for j in range(1, y_order + 1)}
    consts = {j: g[0] for j, g in gens.items()}
    # the constant factor in U = S^2: exp(phi_0(U)) against the reciprocal of
    # the prefactor, sin(S/2)/(S/2) for A (Euler's product for sin) and 1 for C
    target = Series.constant(1, y_order) if odd else _half_sinc(y_order)
    off = _log_series(consts, y_order, RATIONALS).exp() - target
    q_parts = {j: g - consts[j] for j, g in gens.items()}
    rhs = _generating_rhs(q_parts, y_order, inner, prefactor=False)
    # A_1 = G_2 - G_2(0) and C_1 = G^o_2: the chain check reads its sieve there
    lhs = Series([inner.one] + _macmahon_chain(y_order, q_order, odd, q_parts[1]), inner)
    report = _first_mismatch(identity, params, lhs, rhs, "x_exp", 2)
    r = next((r for r in range(1, y_order + 1) if off[r]), None)
    if r is None or (not report.ok and report.mismatch.coords["x_exp"] < 2 * r):
        return report
    return VerdictReport(identity, params, "mismatch",
                         Mismatch({"x_exp": 2 * r, "q_exp": 0}, str(lhs[r][0]), str(off[r])))


def verify_main_a(q_order: int, x_order: int) -> VerdictReport:
    """Coefficientwise check of the A_r generating identity on a finite window."""
    return _verify_main(False, q_order, x_order)


def verify_main_c(q_order: int, x_order: int) -> VerdictReport:
    """Coefficientwise check of the C_r generating identity on a finite window."""
    return _verify_main(True, q_order, x_order)


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


_SOLVE_MARGIN = 10  # solve-window coefficients beyond one per candidate monomial


def _candidate_monomials(weights: Sequence[int], bound: int,
                         q_order: Optional[int] = None) -> tuple:
    """The candidate monomials of :func:`express_in_generators` and its least q_order.

    The candidates are the exponent vectors with sum of weights <= bound,
    graded-lex ordered; the solve window needs one q-coefficient per
    candidate plus ``_SOLVE_MARGIN``.  A ``q_order`` below that raises
    ``ValueError``.
    """
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
                               tuple([-e for e in exps])))
    if q_order is not None and q_order < len(out) + _SOLVE_MARGIN:
        raise ValueError(f"q_order must be >= number of candidate monomials + {_SOLVE_MARGIN} "
                         f"({len(out)} + {_SOLVE_MARGIN})")
    return out, len(out) + _SOLVE_MARGIN


def _count_candidates(weights: Sequence[int], bound: int, limit: int) -> int:
    """The number of :func:`_candidate_monomials`, or ``limit + 1`` once it passes ``limit``.

    Nothing is enumerated past ``limit``: only the weights of the partial
    monomials are kept, and a generator heavier than ``bound`` is skipped.
    """
    sums = [0]
    for w in weights:
        if w > bound:
            continue
        grown = []
        for s in sums:
            if len(grown) + (bound - s) // w + 1 > limit:
                return limit + 1
            grown.extend(range(s, bound + 1, w))
        sums = grown
    return len(sums)


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

    Each row is scaled to integers by the lcm ``den`` of its denominators:
    entry x becomes ``x.numerator * (den // x.denominator)``, an exact
    integer product with no gcd normalisation.  Those integers are the
    ``x * den`` of every entry, so the elimination sees the same matrix.
    An int row has ``den`` 1 and passes through unchanged.
    """
    rows = []
    for row in matrix:
        den = 1
        for x in row:
            den = lcm(den, x.denominator)
        rows.append([x.numerator * (den // x.denominator) for x in row])
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
    linear system matches coefficients q^0..q^{q_order}.  The returned
    polynomial is then expanded at the generator series, in integers, and
    its q-expansion must equal ``target`` on every q^0..q^{2*q_order}
    (``verify_order``), so the supplied series must carry at least order
    2*q_order.

    One prefix table (:func:`_prefix_table`), built once to ``verify_order``,
    holds every candidate's expansion: one series product per non-constant
    candidate, since every prefix of a candidate is a candidate.  The matrix
    columns and the check both read it.  The check therefore proves that the
    returned polynomial, expanded with the table's columns, equals the
    target, which comes from the divisor-chain DP and not from the
    generators; it does not derive each monomial's expansion a second time.

    The matrix is the table's integer numerators: column j holds the
    numerators of candidate j over its denominator den_j, and the last
    column those of the target over den_t.  That is the rational system
    with column j scaled by den_t/den_j, so its unknown y_j is x_j *
    den_t/den_j and the answer is x_j = y_j * den_j/den_t.  Scaling a
    column by a nonzero constant scales every minor through it by the same
    constant, so the elimination takes the same pivot columns, the free
    unknowns (set to zero) are the same, and the answer is the one the
    rational matrix gives.  Both ``target`` and the generator series must be
    series over the rationals (``ValueError`` otherwise).

    Raises :class:`NoRepresentationError` when the system is inconsistent
    or when the expansion differs from ``target`` anywhere in that window
    (the message names the first differing q^n).  A positive dimensional
    solution space is reported via ``underdetermined``; one solution (free
    variables zero) is still returned.
    """
    gens = [(str(n), int(w), s) for n, w, s in generators]
    if len({n for n, _, _ in gens}) != len(gens):
        raise ValueError("generator names must be distinct")
    if any(w < 1 for _, w, _ in gens):
        raise ValueError("generator weights must be positive")
    if not isinstance(target, Series) or target.ring is not RATIONALS:
        raise ValueError("target must be a series over the rationals")
    for n, _, s in gens:
        if not isinstance(s, Series) or s.ring is not RATIONALS:
            raise ValueError(f"generator {n} must be a series over the rationals")
    verify_order = 2 * q_order
    if target.order < verify_order or any(s.order < verify_order for _, _, s in gens):
        raise ValueError(f"target and generator series need order >= {verify_order} "
                         "(solve window plus re-verification window)")

    exps_list, _ = _candidate_monomials([w for _, w, _ in gens], weight_bound, q_order)

    monomials = [GeneratorPoly._monomial([n for (n, _, _), e in zip(gens, exps) for _ in range(e)])
                 for exps in exps_list]
    one = Series.constant(Fraction(1), verify_order)
    table = _prefix_table(monomials, {n: s.truncate(verify_order) for n, _, s in gens}, one)
    columns = [table[mon] for mon in monomials]
    matrix = [[col._nums[n] for col in columns] + [target._nums[n]] for n in range(q_order + 1)]
    scaled, underdetermined = _solve_exact(matrix)
    solution = [y * col._den / target._den for y, col in zip(scaled, columns)]
    poly = GeneratorPoly({mon: c for c, mon in zip(solution, monomials) if c})
    got = sum((table[mon] * c for mon, c in poly.terms.items()), one * Fraction(0))
    want = target.truncate(verify_order)
    if got != want:
        n = next(n for n in range(verify_order + 1) if got[n] != want[n])
        raise NoRepresentationError(f"candidate representation fails re-verification at q^{n}")
    return Representation(poly, underdetermined, len(exps_list), q_order, verify_order)


# ---------------------------------------------------------------------------
# the weight-graded generating identity and the lemma
# ---------------------------------------------------------------------------


def zeta_two_power(j: int) -> Fraction:
    """The rational z_j with zeta({2}^j) = z_j * L^j, where L = (2*pi*i)^2.

    zeta({2}^j) = pi^(2j)/(2j+1)! and pi^2 = -L/4, so z_j = (-1/4)^j/(2j+1)!.

    >>> zeta_two_power(2)
    Fraction(1, 1920)
    """
    if j < 0:
        raise ValueError("need j >= 0")
    return Fraction((-1) ** j, 4**j * factorial(2 * j + 1))


def _l_monomial(e: int, c) -> str:
    """The text of c * L^e: ``0``, ``c``, ``L``, ``L^e``, ``c*L`` or ``c*L^e``."""
    if not c:
        return "0"
    if e == 0:
        return str(c)
    power = "L" if e == 1 else f"L^{e}"
    return power if c == 1 else f"{c}*{power}"


def verify_geng22(t_order: int, q_order: int) -> VerdictReport:
    """Check the weight-graded identity for the generating series of G_{2,...,2}.

    On the left, L^k G_{2k} sits at T^(2k); on the right, (-L/4)^j sits at
    T^(2j+1) in Z(T) and L^l g({2}^l) multiplies Z(T)^(2l+1).  So each
    side's T^(2m+1) coefficient is L^m times its value at L = 1, and the two
    sides divided by T are compared at L = 1 as series in Y = T^2 over
    rational q-series, for every T^a q^b in the window:

        exp( sum_k (-1)^(k-1)/k * G_{2k} Y^k )
            = (Z/T)(Y) * sum_l g({2}^l) * (Z^2)(Y)^l.

    A mismatch in Y^m is reported at T^(2m+1), both sides times L^m.
    """
    if t_order < 3 or t_order % 2 == 0:
        raise ValueError("t_order must be an odd integer >= 3")
    if q_order < 1:
        raise ValueError("q_order must be >= 1")
    params = {"t_order": t_order, "q_order": q_order}
    inner = series_ring(RATIONALS, q_order)
    half = (t_order - 1) // 2

    gens = {k: eisenstein(2 * k, q_order) for k in range(1, half + 1)}
    lhs = _log_series(gens, half, inner).exp()

    # zeta({2}^j) at L = 1 is the coefficient of Y^j in Z/T, which is sin(T/2)/(T/2)
    z_over_t = _half_sinc(half)
    z_sq = (z_over_t * z_over_t).shift(1)
    # G_{2,...,2} of depth l is A_l; the chain check reads its sieve in A_1 = G_2 - G_2(0)
    chain = _macmahon_chain(half, q_order, odd=False, sieve=gens[1] - gens[1][0])
    rhs = _scale_by_rationals(Series([inner.one] + chain, inner).compose(z_sq), z_over_t)
    return _first_mismatch("geng22", params, lhs, rhs, "t_exp", 2, 1, _l_monomial)


def lemma_combinatorial_check(n_max: int) -> VerdictReport:
    """Exact check of sum_{e=1}^n 1/((2e-1)!(2n-2e+1)!) = 2^(2n-1)/(2n)! for n <= n_max.

    Also verifies the same identity in its weight-graded form: the
    convolution sum_e zeta({2}^(e-1)) zeta({2}^(n-e)) equals
    pi^(2n-2) * 2^(2n-1)/(2n)!.  With zeta({2}^j) = z_j L^j, both sides are
    L^(n-1) times a rational, so the form is checked in integers: times
    (2n)! 4^(n-1), each term z_(e-1) z_(n-e) is an exact integer quotient
    (for the true z_j = (-1)^j/(4^j (2j+1)!) it is (-1)^(n-1) C(2n, 2e-1)),
    and their sum must be (-1)^(n-1) 2^(2n-1).  The n that pass fix every
    z_j they reach up to one common sign, so the integer form first fails
    where the rational one does; its two sides are summed as `Fraction`s
    only to report that mismatch.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    params = {"n_max": n_max}
    zetas = [zeta_two_power(j) for j in range(n_max)]
    for n in range(1, n_max + 1):
        # the scalar form times (2n)!: sum_e C(2n, 2e-1) = 2^(2n-1)
        lhs = sum(comb(2 * n, 2 * e - 1) for e in range(1, n + 1))
        rhs = Fraction(2 ** (2 * n - 1), factorial(2 * n))
        if lhs != 2 ** (2 * n - 1):
            return VerdictReport("lemma", params, "mismatch",
                                 Mismatch({"n": n}, str(Fraction(lhs, factorial(2 * n))),
                                          str(rhs)))
        pairs = list(zip(zetas[:n], reversed(zetas[:n])))
        scale = factorial(2 * n) * 4 ** (n - 1)
        quotients = [divmod(scale * a.numerator * b.numerator, a.denominator * b.denominator)
                     for a, b in pairs]
        if any(r for _, r in quotients) or \
                sum(t for t, _ in quotients) != (-1) ** (n - 1) * 2 ** (2 * n - 1):
            conv = sum(a * b for a, b in pairs)
            target = Fraction((-1) ** (n - 1), 4 ** (n - 1)) * rhs
            return VerdictReport("lemma", params, "mismatch",
                                 Mismatch({"n": n}, _l_monomial(n - 1, conv),
                                          _l_monomial(n - 1, target), note="weight-graded form"))
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
