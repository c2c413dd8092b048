"""Tests for the quasi-shuffle algebra."""

import random
from fractions import Fraction as F

import pytest

from macmahon import quasishuffle
from macmahon.quasishuffle import HARMONIC


def rand_word(rng, max_len=4, max_letter=5, min_len=0):
    return tuple(rng.randint(1, max_letter) for _ in range(rng.randint(min_len, max_len)))


class TestProduct:
    def test_z2_z2(self):
        assert HARMONIC.product((2,), (2,)) == HARMONIC.combo({(2, 2): 2, (4,): 1})

    def test_unit_law(self):
        assert HARMONIC.product((), (5, 3)) == HARMONIC.word(5, 3)
        assert HARMONIC.product((5, 3), ()) == HARMONIC.word(5, 3)

    def test_z2_z3(self):
        expected = HARMONIC.combo({(2, 3): 1, (3, 2): 1, (5,): 1})
        assert HARMONIC.product((2,), (3,)) == expected

    def test_bilinear_extension(self):
        x = HARMONIC.word(2) * 2 + HARMONIC.word(3)
        y = HARMONIC.word(2)
        out = HARMONIC.product(x, y)
        expected = HARMONIC.product((2,), (2,)) * 2 + HARMONIC.product((3,), (2,))
        assert out == expected

    def test_commutative_random(self):
        rng = random.Random(11)
        for _ in range(100):
            u, v = rand_word(rng), rand_word(rng)
            assert HARMONIC.product(u, v) == HARMONIC.product(v, u)

    def test_associative_random(self):
        rng = random.Random(13)
        for _ in range(100):
            u, v, w = rand_word(rng, 3), rand_word(rng, 3), rand_word(rng, 3)
            lhs = HARMONIC.product(HARMONIC.product(u, v), HARMONIC.word(*w))
            rhs = HARMONIC.product(HARMONIC.word(*u), HARMONIC.product(v, w))
            assert lhs == rhs

    def test_weight_grading(self):
        rng = random.Random(17)
        for _ in range(60):
            u, v = rand_word(rng), rand_word(rng)
            total = sum(u) + sum(v)
            for word in HARMONIC.product(u, v).terms:
                assert sum(word) == total

    def test_depth_bounds(self):
        rng = random.Random(19)
        for _ in range(60):
            u, v = rand_word(rng, min_len=1), rand_word(rng, min_len=1)
            for word in HARMONIC.product(u, v).terms:
                assert max(len(u), len(v)) <= len(word) <= len(u) + len(v)

    def test_admissible_and_all_geq2_closure(self):
        rng = random.Random(23)
        for _ in range(60):
            # first letters >= 2: admissible; all letters >= 2: the smaller span
            u = (rng.randint(2, 5),) + rand_word(rng, 3)
            v = (rng.randint(2, 5),) + rand_word(rng, 3)
            for word in HARMONIC.product(u, v).terms:
                assert word[0] >= 2
            u2 = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 4)))
            v2 = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 4)))
            for word in HARMONIC.product(u2, v2).terms:
                assert min(word) >= 2


class TestMemo:
    def test_memo_stops_growing_and_products_stay_equal(self, monkeypatch):
        rng = random.Random(5)
        pairs = [(rand_word(rng), rand_word(rng)) for _ in range(300)]
        monkeypatch.setattr(HARMONIC, "_cache", {})
        expected = [HARMONIC.product(u, v) for u, v in pairs]
        grown = len(HARMONIC._cache)
        # a bound far below one pass's needs empties the memo many times,
        # in the middle of a product's recursion too
        monkeypatch.setattr(quasishuffle, "_MEMO_ENTRIES", 16)
        HARMONIC._cache.clear()
        for (u, v), product in zip(pairs, expected):
            assert HARMONIC.product(u, v) == product
            assert len(HARMONIC._cache) <= 16
        assert grown > 16

    def test_default_bound_holds_the_exp_identity_memo(self, monkeypatch):
        monkeypatch.setattr(HARMONIC, "_cache", {})
        assert HARMONIC.exp_identity_check(2, 10) is None
        assert HARMONIC.exp_identity_check(3, 10) is None
        assert len(HARMONIC._cache) < quasishuffle._MEMO_ENTRIES


class TestPowers:
    def test_star_square(self):
        w = HARMONIC.word(2)
        assert w * w == HARMONIC.product((2,), (2,))

    def test_star_cube_leading_coefficient(self):
        w = HARMONIC.word(2)
        assert (w * w * w).terms[(2, 2, 2)] == 6


class TestExpIdentity:
    def test_depth_one_trivial(self):
        assert HARMONIC.exp_identity_check(2, 1) is None

    def test_n2_rearrangement(self):
        # the T^2 coefficient states z2z2 = (z2 * z2 - z4)/2
        lhs = HARMONIC.word(2, 2)
        rhs = (HARMONIC.product((2,), (2,)) - HARMONIC.word(4)) / 2
        assert lhs == rhs

    def test_exhaustive_small_letters(self):
        assert HARMONIC.exp_identity_check(2, 5) is None
        assert HARMONIC.exp_identity_check(3, 5) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            HARMONIC.exp_identity_check(2, 0)


class TestComboArithmetic:
    def test_scalar_ops(self):
        c = HARMONIC.combo({(2,): F(1, 2), (3, 1): 1})
        assert c * 2 == HARMONIC.combo({(2,): 1, (3, 1): 2})
        assert c - c == HARMONIC.combo({})
        assert (c / 2).terms[(2,)] == F(1, 4)
        assert HARMONIC.combo({(): F(3)}) == 3

    def test_zero_terms_dropped(self):
        c = HARMONIC.combo({(2,): 1}) + HARMONIC.combo({(2,): -1})
        assert not c.terms

    def test_str(self):
        c = HARMONIC.combo({(2, 2): 2, (4,): 1})
        assert str(c) == "z4 + 2*z2z2"
