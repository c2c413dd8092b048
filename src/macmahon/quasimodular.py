"""Ramanujan's D on two quasimodular rings, and the canonical forms of A_r and C_r.

D = q d/dq maps each of the rings below into itself, and each has
algebraically independent generators (Kaneko–Zagier, "A generalized
Jacobi theta function and quasimodular forms", 1995), so a polynomial in
them is determined by its q-expansion.  :data:`RINGS` gives D of each
generator, in the ring's own generators, as integers over one denominator.

* A side, Q[G2, G4, G6].  In this package's normalisation E2 = -24 G2,
  E4 = 1440 G4 and E6 = -60480 G6, so Ramanujan's equations (Trans.
  Cambridge Philos. Soc. 22, 1916) D E2 = (E2^2 - E4)/12, D E4 =
  (E2 E4 - E6)/3 and D E6 = (E2 E6 - E4^2)/2 read

      D G2 = -2 G2^2 + 5 G4,
      D G4 = -8 G2 G4 + 14 G6,
      D G6 = -12 G2 G6 + (120/7) G4^2.

* C side, Q[G2, Go2, Go4] = M(Gamma0(2))[G2].  With F2 = 2 E2(q^2) - E2 =
  48 Go2 - 24 G2, the modular forms on Gamma0(2) are Q[F2, E4], and the
  table rests on two relations among them (:data:`LEVEL2_RELATIONS`):

      Go4 = (E4 - F2^2)/1152          (weight 4),
      E6  = 4 F2^3 - 3 F2 E4          (weight 6).

  Each side of each is a modular form on Gamma0(2), of index 3 in
  SL2(Z), so by Sturm's bound (LNM 1240, 1987) the coefficients q^0..q^1
  (q^0..q^(k/4) in weight k) prove it.  With Ramanujan's equations and
  D(f(q^2)) = 2 (Df)(q^2) they give

      D G2  = 8 Go2^2 - 8 G2 Go2 + 4 Go4,
      D Go2 = -4 Go2^2 + 6 Go4,
      D Go4 = 32 Go2 Go4 - 24 G2 Go4.

:func:`canonical_form` runs MacMahon's recurrence in the form of Andrews
and Rose (:func:`~macmahon.qseries._andrews_rose`) with this D, from
A_1 = G2 + 1/24 or C_1 = Go2.  No linear system is solved, and the result
is the unique polynomial in the ring's generators whose expansion is A_r
(C_r).  :func:`express_canonical` checks it the way
:func:`~macmahon.identities.express_in_generators` checks a solved answer:
expanded at the generator series and compared with the divisor-chain DP
rows in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .identities import (
    GeneratorPoly,
    NoRepresentationError,
    Representation,
    _check_expansion,
    _checked_inputs,
    _count_candidates,
    _monomial_text,
    _ordered_monomials,
)
from .qseries import _andrews_rose
from .series import Series


@dataclass(frozen=True)
class _Ring:
    """Q[generators] with D, on exponent vectors in the order of ``names``.

    D of generator i is ``images[i]``, numerators over ``den``; the
    recurrence starts from ``first``, numerators over ``first_den``.
    """

    names: tuple
    weights: tuple
    den: int
    images: tuple
    first: dict
    first_den: int


#: The ring of each side: "A" is Q[G2, G4, G6], "C" is Q[G2, Go2, Go4].
RINGS = {
    "A": _Ring(("G2", "G4", "G6"), (2, 4, 6), 7,
               ({(2, 0, 0): -14, (0, 1, 0): 35},
                {(1, 1, 0): -56, (0, 0, 1): 98},
                {(1, 0, 1): -84, (0, 2, 0): 120}),
               {(1, 0, 0): 24, (0, 0, 0): 1}, 24),
    "C": _Ring(("G2", "Go2", "Go4"), (2, 2, 4), 1,
               ({(0, 2, 0): 8, (1, 1, 0): -8, (0, 0, 1): 4},
                {(0, 2, 0): -4, (0, 0, 1): 6},
                {(0, 1, 1): 32, (1, 0, 1): -24}),
               {(0, 1, 0): 1}, 1),
}

#: The forms of the level-2 relations in the generators: E4, E6 and F2.
LEVEL2_FORMS = {
    "E4": GeneratorPoly({("G4",): 1440}),
    "E6": GeneratorPoly({("G6",): -60480}),
    "F2": GeneratorPoly({("Go2",): 48, ("G2",): -24}),
}

#: {form: (numerators, den, weight)}: the form is the polynomial in E4 and F2 over den.
LEVEL2_RELATIONS = {
    "Go4": (GeneratorPoly({("E4",): 1, ("F2", "F2"): -1}), 1152, 4),
    "E6": (GeneratorPoly({("F2", "F2", "F2"): 4, ("E4", "F2"): -3}), 1, 6),
}


def _ring(side: str) -> _Ring:
    if side not in RINGS:
        raise ValueError("side must be 'A' or 'C'")
    return RINGS[side]


def canonical_form(side: str, r: int) -> GeneratorPoly:
    """A_r in Q[G2, G4, G6] (``side`` "A") or C_r in Q[G2, Go2, Go4] ("C").

    Each step of the Andrews–Rose recurrence, lead X_k = (p X_1 + s)
    X_{k-1} - d D X_{k-1}, runs on integer numerators over one
    denominator and is reduced by their gcd once.

    >>> print(canonical_form("C", 2))
    1/12*Go2 + 1/2*Go2^2 - 1/2*Go4
    """
    ring = _ring(side)
    if r < 1:
        raise ValueError("need r >= 1")
    first, e1, t = ring.first, ring.first_den, ring.den
    nums, den = dict(first), e1
    for k in range(2, r + 1):
        lead, p, s, d = _andrews_rose(k, side == "C")
        # (p X_1 + s) X_{k-1} - d D X_{k-1}, all over e1 * t * den
        out = {}
        for mon, c in nums.items():
            for m1, c1 in first.items():
                key = tuple([a + b for a, b in zip(mon, m1)])
                out[key] = out.get(key, 0) + p * t * c1 * c
            out[mon] = out.get(mon, 0) + s * e1 * t * c
            for i, e in enumerate(mon):
                if not e:
                    continue
                lowered = mon[:i] + (e - 1,) + mon[i + 1:]
                for m1, c1 in ring.images[i].items():
                    key = tuple([a + b for a, b in zip(lowered, m1)])
                    out[key] = out.get(key, 0) - d * e1 * e * c * c1
        den *= lead * e1 * t
        g = gcd(den, *out.values())
        nums, den = {mon: c // g for mon, c in out.items() if c}, den // g
    return GeneratorPoly({tuple([n for n, e in zip(ring.names, mon) for _ in range(e)]):
                          Fraction(c, den) for mon, c in nums.items()})


def express_canonical(side: str, r: int, target: Series, generators: Sequence,
                      weight_bound: int, q_order: int) -> Representation:
    """:func:`canonical_form`, checked against ``target`` on q^0..q^(2 q_order).

    ``generators`` are the ring's (name, weight, series) triples, in the
    order of ``RINGS[side].names``; the series and ``target`` need order
    >= 2 q_order.  The form is expanded at the generator series (one
    prefix table, as in :meth:`GeneratorPoly.evaluate`) and compared with
    ``target``.  ``underdetermined`` is always false: the form is unique.

    Raises :class:`NoRepresentationError` when a monomial of the form is
    heavier than ``weight_bound`` (no lighter polynomial exists, since
    the form is unique), naming the heaviest, or when the expansion
    differs from ``target``, naming the first differing q^n.
    """
    ring = _ring(side)
    verify_order = 2 * q_order
    gens = _checked_inputs(target, generators, verify_order)
    if [(n, w) for n, w, _ in gens] != list(zip(ring.names, ring.weights)):
        raise ValueError(f"generators must be {', '.join(ring.names)} in that order")
    poly = canonical_form(side, r)
    weight_of = dict(zip(ring.names, ring.weights))
    weights = {mon: sum(weight_of[n] for n in mon) for mon in poly.terms}
    # the first of the top weight in display order
    heaviest = max(_ordered_monomials(poly, ring.names, weight_of), key=weights.get)
    if weights[heaviest] > weight_bound:
        raise NoRepresentationError(
            f"{side}_{r} in {', '.join(ring.names)} has the monomial "
            f"{_monomial_text(heaviest, ring.names)} of weight {weights[heaviest]}")
    one = Series.constant(Fraction(1), verify_order)
    got = poly.evaluate({n: s.truncate(verify_order) for n, _, s in gens}, one)
    _check_expansion(got, target, verify_order)
    # every exponent of a candidate is at most r, so (r + 1)^3 bounds the count
    count = _count_candidates(ring.weights, 2 * r, (r + 1) ** 3)
    return Representation(poly, False, count, q_order, verify_order)
