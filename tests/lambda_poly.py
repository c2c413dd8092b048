"""Polynomials in L = (2*pi*i)^2, kept as a test-only reference ring.

The library carries zeta({2}^j) as the rational z_j of z_j L^j and checks
the weight-graded identities at L = 1.  This ring keeps the power of L
explicit, so the tests can build series over a non-rational
:class:`~macmahon.series.SparsePoly` ring and check the library's L = 1
routes and their rendered text against a route that tracks L.
"""

import operator

from macmahon.series import CoeffRing, SparsePoly


class LambdaPoly(SparsePoly):
    """Polynomial in the formal weight symbol L = (2*pi*i)^2.

    Keeps track of the powers of 2*pi*i attached to weight-graded objects;
    under this convention pi^2 = -L/4.  ``terms`` maps exponents e >= 0 to
    coefficients; the L^0 part is the purely rational component.
    """

    __slots__ = ()

    UNIT = 0

    @staticmethod
    def _monomial(e):
        e = operator.index(e)
        if e < 0:
            raise ValueError("negative L exponent")
        return e

    @staticmethod
    def _mul_monomials(e1, e2):
        return ((e1 + e2, 1),)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("L" if e == 1 else f"L^{e}")
            else:
                parts.append(f"{c}*L" if e == 1 else f"{c}*L^{e}")
        return " + ".join(parts).replace("+ -", "- ")


#: Polynomials in L = (2*pi*i)^2 as a coefficient ring.
LAMBDAS = CoeffRing(LambdaPoly(), LambdaPoly({0: 1}))
