"""Tests for Ramanujan's D tables, the level-2 relations and the canonical forms."""

import functools
from fractions import Fraction as F

import pytest

from macmahon import identities
from macmahon.identities import GeneratorPoly, NoRepresentationError, express_in_generators
from macmahon.qseries import eisenstein, eisenstein_odd, macmahon_a, macmahon_c
from macmahon.quasimodular import (
    LEVEL2_FORMS,
    LEVEL2_RELATIONS,
    RINGS,
    canonical_form,
    express_canonical,
)
from macmahon.series import Series

ORDER = 100


@functools.cache
def generator_series(name, order):
    weight = int(name.lstrip("Go"))
    return (eisenstein_odd if name.startswith("Go") else eisenstein)(weight, order)


def at_generators(poly, order):
    """``poly`` expanded at the generator series to ``order``."""
    names = {n for mon in poly.terms for n in mon}
    return poly.evaluate({n: generator_series(n, order) for n in names},
                         Series.constant(F(1), order))


def q_derivative(s):
    """D = q d/dq, coefficient by coefficient: n * a_n."""
    return Series([n * c for n, c in enumerate(s.coeffs)])


def ring_poly(ring, nums, den=1):
    """The polynomial whose exponent vectors (in ``ring.names``) carry ``nums`` over ``den``."""
    return GeneratorPoly({tuple([n for n, e in zip(ring.names, mon) for _ in range(e)]):
                          F(c, den) for mon, c in nums.items()})


class TestRamanujanTables:
    @pytest.mark.parametrize("side,i", [(side, i) for side in "AC" for i in range(3)])
    def test_each_image_is_the_q_derivative(self, side, i):
        ring = RINGS[side]
        image = ring_poly(ring, ring.images[i], ring.den)
        assert at_generators(image, ORDER) == \
            q_derivative(generator_series(ring.names[i], ORDER))

    @pytest.mark.parametrize("side", "AC")
    def test_images_are_homogeneous_of_weight_plus_two(self, side):
        ring = RINGS[side]
        for i, image in enumerate(ring.images):
            assert {sum(e * w for e, w in zip(mon, ring.weights)) for mon in image} == \
                {ring.weights[i] + 2}

    @pytest.mark.parametrize("form,relation", LEVEL2_RELATIONS.items())
    def test_level2_relations(self, form, relation):
        nums, den, weight = relation
        values = {n: at_generators(p, ORDER) for n, p in LEVEL2_FORMS.items()}
        lhs = values[form] if form in values else generator_series(form, ORDER)
        rhs = nums.evaluate(values, Series.constant(F(1), ORDER)) * F(1, den)
        assert lhs == rhs
        # the relation is between modular forms of this weight on Gamma0(2):
        # every monomial has it
        weight_of = {"E4": 4, "F2": 2}
        assert {sum(weight_of[n] for n in mon) for mon in nums.terms} == {weight}


class TestCanonicalForm:
    @pytest.mark.parametrize("side,r", [("A", r) for r in range(1, 13)]
                             + [("C", r) for r in range(1, 11)])
    def test_expansion_is_the_divisor_sum(self, side, r):
        target = (macmahon_a if side == "A" else macmahon_c)(r, 60)
        assert at_generators(canonical_form(side, r), 60) == target

    def test_first_forms(self):
        assert canonical_form("A", 1) == GeneratorPoly({("G2",): 1, (): F(1, 24)})
        assert canonical_form("C", 1) == GeneratorPoly({("Go2",): 1})
        assert canonical_form("C", 2) == GeneratorPoly({
            ("Go2",): F(1, 12), ("Go2", "Go2"): F(1, 2), ("Go4",): F(-1, 2)})

    @pytest.mark.parametrize("side,r", [("A", 5), ("C", 7)])
    def test_monomials_have_weight_at_most_2r_and_reach_it(self, side, r):
        ring = RINGS[side]
        weight_of = dict(zip(ring.names, ring.weights))
        weights = {sum(weight_of[n] for n in mon) for mon in canonical_form(side, r).terms}
        assert max(weights) == 2 * r

    @pytest.mark.parametrize("side,r", [("B", 2), ("A", 0), ("C", -1)])
    def test_bad_arguments(self, side, r):
        with pytest.raises(ValueError):
            canonical_form(side, r)


@functools.cache
def solved(side, r):
    """express_in_generators on the ring's generators at weight bound 2r, least q_order."""
    ring = RINGS[side]
    _, q_order = identities._candidate_monomials(ring.weights, 2 * r)
    gens = [(n, w, generator_series(n, 2 * q_order)) for n, w in zip(ring.names, ring.weights)]
    target = (macmahon_a if side == "A" else macmahon_c)(r, 2 * q_order)
    return express_in_generators(target, gens, 2 * r, q_order)


class TestAgainstTheSolve:
    """Two routes, the recurrence with D and the q-window solve, give one polynomial."""

    @pytest.mark.parametrize("side,r", [("A", r) for r in range(1, 11)]
                             + [("C", r) for r in range(1, 9)])
    def test_same_polynomial_and_the_solve_is_unique(self, side, r):
        rep = solved(side, r)
        assert rep.underdetermined is False
        assert canonical_form(side, r).terms == rep.poly.terms


def rank_mod_prime(columns, p=(1 << 61) - 1):
    """Rank of the integer columns modulo the prime ``p``: a lower bound on the rank over Q."""
    rows = [list(row) for row in zip(*columns)]
    rank = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("r", [1, 4, 8, 10])
def test_the_c_check_window_is_injective(r):
    # the candidates of weight <= 2r in G2, Go2, Go4 expand to linearly
    # independent series on q^0..q^(2 q) with q = ceil(d_r / 2), the CLI's
    # least q_order: a polynomial of this weight that matches C_r there is C_r
    ring = RINGS["C"]
    exps, _ = identities._candidate_monomials(ring.weights, 2 * r)
    order = 2 * ((len(exps) + 1) // 2)
    columns = []
    for e in exps:
        mon = GeneratorPoly({tuple([n for n, k in zip(ring.names, e) for _ in range(k)]): 1})
        columns.append(list(at_generators(mon, order)._nums))
    assert rank_mod_prime(columns) == len(exps)


def canonical_inputs(side, r, q_order):
    ring = RINGS[side]
    gens = [(n, w, generator_series(n, 2 * q_order)) for n, w in zip(ring.names, ring.weights)]
    return (macmahon_a if side == "A" else macmahon_c)(r, 2 * q_order), gens


class TestExpressCanonical:
    @pytest.mark.parametrize("side,r", [("A", 4), ("C", 5)])
    def test_checked_answer(self, side, r):
        target, gens = canonical_inputs(side, r, 30)
        rep = express_canonical(side, r, target, gens, 2 * r, 30)
        assert rep.poly == canonical_form(side, r)
        assert (rep.underdetermined, rep.q_order, rep.verify_order) == (False, 30, 60)
        assert rep.n_monomials == identities._count_candidates(RINGS[side].weights, 2 * r, 10**6)

    @pytest.mark.parametrize("at", [0, 17, 60])
    def test_doctored_target_fails_where_it_was_doctored(self, at):
        target, gens = canonical_inputs("C", 4, 30)
        coeffs = list(target.coeffs)
        coeffs[at] += 1
        with pytest.raises(NoRepresentationError,
                           match=rf"^candidate representation fails re-verification at q\^{at}$"):
            express_canonical("C", 4, Series(coeffs), gens, 8, 30)

    def test_light_weight_bound_names_the_heaviest_monomial(self):
        target, gens = canonical_inputs("C", 3, 30)
        with pytest.raises(NoRepresentationError,
                           match=r"^C_3 in G2, Go2, Go4 has the monomial G2\*Go4 of weight 6$"):
            express_canonical("C", 3, target, gens, 5, 30)
        assert express_canonical("C", 3, target, gens, 6, 30).poly == canonical_form("C", 3)

    @pytest.mark.parametrize("names", [("Go2", "G2", "Go4"), ("G2", "Go2"), ("G2", "G4", "G6")])
    def test_generators_must_be_the_ring_basis(self, names):
        target, _ = canonical_inputs("C", 2, 10)
        gens = [(n, int(n.lstrip("Go")), generator_series(n, 20)) for n in names]
        with pytest.raises(ValueError, match="generators must be G2, Go2, Go4 in that order"):
            express_canonical("C", 2, target, gens, 4, 10)

    def test_short_series_are_refused(self):
        target, gens = canonical_inputs("C", 2, 10)
        with pytest.raises(ValueError, match="need order >= 22"):
            express_canonical("C", 2, target, gens, 4, 11)
