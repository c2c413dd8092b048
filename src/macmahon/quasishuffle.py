"""The harmonic quasi-shuffle algebra on words over the letters z_1, z_2, ...

A word is a tuple of positive letter indices; ``()`` is the unit word and
the identity.  The harmonic quasi-shuffle product (Hoffman, J. Algebraic
Combin. 11, 2000), the product of nested divisor sums and of multiple zeta
values, is the bilinear product fixed by the recursion

    a*w  x  b*v  =  a (w x b*v) + b (a*w x v) + (a+b) (w x v):

two letters multiply as z_a <> z_b = z_{a+b}.

Linear combinations of words (:class:`WordCombo`) are sparse polynomials
whose monomials are words (:class:`~macmahon.series.SparsePoly`), and the
product of two words comes from the one memo of :data:`HARMONIC`.  So
combinations can be coefficients of the generic
:class:`~macmahon.series.Series` engine, and
:meth:`QuasiShuffleAlgebra.exp_identity_check` verifies, inside the algebra,
the exponential identity

    1 + sum_n a^n T^n  =  exp( sum_n (-1)^(n-1) z_{na} T^n / n )

relating the concatenation powers a^n of a letter z_a to its letter powers z_{na}.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional

from .series import CoeffRing, Series, SparsePoly


class WordCombo(SparsePoly):
    """Rational combination of words, ``{word: coefficient}``, under the harmonic product."""

    __slots__ = ()

    @staticmethod
    def _monomial(word):
        word = tuple([operator.index(x) for x in word])
        if any(x < 1 for x in word):
            raise ValueError("letter indices must be >= 1")
        return word

    @staticmethod
    def _mul_monomials(u, v):
        return HARMONIC._product_words(u, v).items()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            name = "1" if not w else "".join(f"z{k}" for k in w)
            parts.append(name if c == 1 and w else f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")


# the memo of word-pair products empties once it holds this many; a product of
# words of lengths m and n memoises at most m * n pairs, and
# ``exp_identity_check`` for the letters 2 and 3 up to n = 10 needs 90
_MEMO_ENTRIES = 1 << 12


class QuasiShuffleAlgebra:
    """Words with the harmonic quasi-shuffle product, memoised per pair of words in ``_cache``.

    Every :class:`WordCombo` product reads the memo of :data:`HARMONIC`.  The
    memo holds at most ``_MEMO_ENTRIES`` pairs: a full memo is emptied before
    the next pair goes in, so memory stays bounded for the life of the process.
    """

    def __init__(self):
        self._cache = {}
        self.ring = CoeffRing(WordCombo(), WordCombo({(): 1}))

    def combo(self, terms) -> WordCombo:
        return WordCombo(terms)

    def word(self, *letters) -> WordCombo:
        return WordCombo({tuple(letters): 1})

    def _product_words(self, u: tuple, v: tuple) -> dict:
        if not u:
            return {v: 1}
        if not v:
            return {u: 1}
        key = (u, v)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        a, w = u[0], u[1:]
        b, x = v[0], v[1:]
        out = {}
        for head, sub in (((a,), self._product_words(w, v)),
                          ((b,), self._product_words(u, x)),
                          ((a + b,), self._product_words(w, x))):
            for word, c in sub.items():
                word = head + word
                out[word] = out.get(word, 0) + c
        if len(self._cache) >= _MEMO_ENTRIES:
            self._cache.clear()
        self._cache[key] = out
        return out

    def product(self, x, y) -> WordCombo:
        """Quasi-shuffle product of two words (tuples) or combinations."""
        x = x if isinstance(x, WordCombo) else self.word(*x)
        y = y if isinstance(y, WordCombo) else self.word(*y)
        return x * y

    def exp_identity_check(self, letter: int, n_max: int) -> Optional[int]:
        """Check 1 + sum a^n T^n = exp(sum (-1)^(n-1) z_{na} T^n / n) up to T^n_max.

        The check runs inside the algebra (no homomorphism applied): the
        exponential is computed with quasi-shuffle multiplication, and the
        T^n coefficient is compared against the concatenation word a^n.
        Returns the first failing n, or None if all orders agree.
        """
        if n_max < 1:
            raise ValueError("need n_max >= 1")
        coeffs = [self.ring.zero]
        for k in range(1, n_max + 1):
            sign = 1 if k % 2 else -1
            coeffs.append(self.word(k * letter) * Fraction(sign, k))
        rhs = Series(coeffs, self.ring).exp()
        for n in range(1, n_max + 1):
            if rhs[n] != self.combo({(letter,) * n: 1}):
                return n
        return None


#: The harmonic quasi-shuffle algebra (z_a <> z_b = z_{a+b}).
HARMONIC = QuasiShuffleAlgebra()
