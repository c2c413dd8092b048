"""Quasi-shuffle algebras on words over the letters z_1, z_2, ...

A word is a tuple of positive letter indices; ``()`` is the unit word.  The
quasi-shuffle product attached to a commutative, associative letter product
``diamond`` is the bilinear product fixed by the recursion

    a*w  x  b*v  =  a (w x b*v) + b (a*w x v) + (a<>b) (w x v)

with the unit word acting as identity.  The harmonic case
``diamond(a, b) = a + b`` (z_{a} <> z_{b} = z_{a+b}) is the default; it is
the multiplication rule satisfied by nested divisor sums and by multiple
zeta values and is the one used everywhere else in this package.

Linear combinations of words (class :class:`WordCombo`) are sparse
polynomials whose monomials are words: their sums, scalar multiples and
bilinear product are those of :class:`~macmahon.series.SparsePoly`, and the
algebra supplies only the product of two words, memoised in its cache.  So
combinations can be used as coefficients of the generic
:class:`~macmahon.series.Series` engine.  That is how
:meth:`QuasiShuffleAlgebra.exp_identity_check` verifies, inside the algebra
itself, the exponential identity

    1 + sum_n a^n T^n  =  exp( sum_n (-1)^(n-1) a^<>n T^n / n )

relating concatenation powers a^n to diamond powers a^<>n of a letter.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Optional

from .series import CoeffRing, Series, SparsePoly


def harmonic_diamond(a: int, b: int) -> int:
    return a + b


class WordCombo(SparsePoly):
    """A finite rational linear combination of words of one algebra.

    ``terms`` maps words (tuples of letter indices) to nonzero coefficients;
    the product is the quasi-shuffle product of ``algebra``, and combinations
    of two different algebras do not mix (``ValueError``).
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra: "QuasiShuffleAlgebra", terms=None):
        self.algebra = algebra
        super().__init__(terms)

    def _new(self, terms: dict) -> "WordCombo":
        out = self._from_terms(terms)
        out.algebra = self.algebra
        return out

    def _peer(self, other) -> bool:
        if type(other) is not WordCombo:
            return False
        if other.algebra is not self.algebra:
            raise ValueError("cannot mix combinations from different algebras")
        return True

    @staticmethod
    def _monomial(word):
        word = tuple([operator.index(x) for x in word])
        if any(x < 1 for x in word):
            raise ValueError("letter indices must be >= 1")
        return word

    def _mul_monomials(self, u, v):
        return self.algebra._product_words(u, v).items()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            name = "1" if not w else "".join(f"z{k}" for k in w)
            parts.append(name if c == 1 and w else f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")


class QuasiShuffleAlgebra:
    """Words with a quasi-shuffle product built from a letter product.

    A custom ``diamond`` is sampled for commutativity and associativity on a
    few letters at construction; these are preconditions of the recursion,
    not consequences of it.
    """

    def __init__(self, diamond: Callable[[int, int], int] = harmonic_diamond):
        self.diamond = diamond
        self._cache = {}
        if diamond is not harmonic_diamond:
            self._sample_check(diamond)
        self.ring = CoeffRing(WordCombo(self), WordCombo(self, {(): 1}))

    @staticmethod
    def _sample_check(diamond):
        letters = (1, 2, 3, 4)
        for a in letters:
            for b in letters:
                if diamond(a, b) != diamond(b, a):
                    raise ValueError(f"diamond is not commutative on ({a},{b})")
                for c in letters:
                    if diamond(diamond(a, b), c) != diamond(a, diamond(b, c)):
                        raise ValueError(f"diamond is not associative on ({a},{b},{c})")

    def combo(self, terms) -> WordCombo:
        return WordCombo(self, terms)

    def word(self, *letters) -> WordCombo:
        return WordCombo(self, {tuple(letters): 1})

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
                          ((self.diamond(a, b),), self._product_words(w, x))):
            for word, c in sub.items():
                word = head + word
                out[word] = out.get(word, 0) + c
        self._cache[key] = out
        return out

    def product(self, x, y) -> WordCombo:
        """Quasi-shuffle product of two words (tuples) or combinations."""
        x = x if isinstance(x, WordCombo) else self.word(*x)
        y = y if isinstance(y, WordCombo) else self.word(*y)
        return x * y

    def star_power(self, letter: int, n: int) -> WordCombo:
        """n-fold quasi-shuffle power of the single-letter word."""
        if n < 1:
            raise ValueError("need n >= 1")
        acc = self.word(letter)
        for _ in range(n - 1):
            acc = self.product(acc, self.word(letter))
        return acc

    def diamond_power(self, letter: int, n: int) -> int:
        """n-fold diamond power of a letter (a letter again)."""
        if n < 1:
            raise ValueError("need n >= 1")
        out = letter
        for _ in range(n - 1):
            out = self.diamond(out, letter)
        return out

    def exp_identity_check(self, letter: int, n_max: int) -> Optional[int]:
        """Check 1 + sum a^n T^n = exp(sum (-1)^(n-1) a^<>n T^n / n) up to T^n_max.

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
            coeffs.append(self.word(self.diamond_power(letter, k)) * Fraction(sign, k))
        rhs = Series(coeffs, self.ring).exp()
        for n in range(1, n_max + 1):
            if rhs[n] != self.combo({(letter,) * n: 1}):
                return n
        return None


#: Shared harmonic-product algebra (z_a <> z_b = z_{a+b}).
HARMONIC = QuasiShuffleAlgebra()
