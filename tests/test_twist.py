import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewclifford as sk
from skewclifford.freealg import LinearMap, NcPoly
from skewclifford.rewrite import PresentedAlgebra
from skewclifford.twist import (
    DiagonalAutomorphism,
    mu_from_lambdas,
    relation_span_equal,
    twist_criterion,
    twist_presentation,
)

from conftest import NONZERO_SMALL, example21_mu
from oracles import local_rank, twist_witness_cubic


def commutative_ring(n):
    return sk.build_skew_ring(sk.MuMatrix.ones(n))


class TestDiagonalAutomorphism:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            DiagonalAutomorphism((1, 0))

    def test_apply_scales_words(self):
        tau = DiagonalAutomorphism((1, 2))
        assert tau.apply(NcPoly({(1, 1): 1, (0,): 3})) == NcPoly({(1, 1): 4, (0,): 3})

    def test_inverse_and_power(self):
        tau = DiagonalAutomorphism((2, 3))
        assert tau.inverse().lambdas == (Fraction(1, 2), Fraction(1, 3))
        assert tau.power(2).lambdas == (4, 9)


class TestTwistPresentation:
    def test_polynomial_ring_to_quantum_plane(self):
        tau = DiagonalAutomorphism((1, 2))
        twisted = twist_presentation(commutative_ring(2), tau.inverse())
        expected = sk.build_skew_ring(mu_from_lambdas((1, 2)))
        assert relation_span_equal(twisted.relations, expected.relations, 2)
        assert twisted.relations == (NcPoly({(1, 0): 1, (0, 1): -2}),)

    def test_identity_preserves_span(self, ex21):
        _, _, pres, _ = ex21
        alg = pres.presentation()
        twisted = twist_presentation(alg, DiagonalAutomorphism((1, 1, 1)))
        assert relation_span_equal(twisted.relations, alg.relations, 3)

    def test_inverse_round_trip(self, ex21):
        _, _, pres, _ = ex21
        alg = pres.presentation()
        phi = LinearMap.from_rows([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
        there = twist_presentation(alg, phi)
        back = twist_presentation(there, phi.inverse())
        assert relation_span_equal(back.relations, alg.relations, 3)

    def test_composition(self):
        alg = commutative_ring(2)
        phi = DiagonalAutomorphism((2, 3))
        psi = DiagonalAutomorphism((1, 5))
        composed = DiagonalAutomorphism((2, 15))
        via_two = twist_presentation(twist_presentation(alg, psi), phi)
        at_once = twist_presentation(alg, composed)
        assert relation_span_equal(via_two.relations, at_once.relations, 2)

    def test_non_quadratic_rejected(self):
        alg = PresentedAlgebra(2, [NcPoly({(0, 0, 1): 1})])
        with pytest.raises(ValueError, match="non-quadratic"):
            twist_presentation(alg, DiagonalAutomorphism((1, 2)))

    def test_singular_map_rejected(self):
        with pytest.raises(ValueError, match="singular map"):
            twist_presentation(commutative_ring(2), LinearMap.from_rows([[1, 1], [1, 1]]))


class TestTwistCriterion:
    def test_worked_example_witness(self):
        verdict = twist_criterion(example21_mu())
        assert not verdict.is_twist
        assert verdict.witness == (0, 1, 2)
        assert str(verdict) == "not-twist witness (1,2,3)"

    def test_multiplicative_mu(self):
        mu = sk.validate_mu([[1, 2, 2], [Fraction(1, 2), 1, 1], [Fraction(1, 2), 1, 1]])
        verdict = twist_criterion(mu)
        assert verdict.is_twist and verdict.lambdas == (1, 2, 2)

    def test_all_ones(self):
        verdict = twist_criterion(sk.MuMatrix.ones(3))
        assert verdict.is_twist and verdict.lambdas == (1, 1, 1)

    def test_equals_the_cubic_check(self):
        # mu_ij = lambda_j / lambda_i is of twist type; scaling one entry
        # pair by v != 1, or drawing every pair at random, usually breaks it
        outcomes = set()

        @settings(max_examples=150)
        @given(
            st.integers(1, 5).flatmap(
                lambda n: st.tuples(
                    st.lists(st.sampled_from(NONZERO_SMALL), min_size=n * n, max_size=n * n),
                    st.booleans(),
                    st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(NONZERO_SMALL)),
                )
            )
        )
        def check(data):
            draws, from_lambdas, edit = data
            n = math.isqrt(len(draws))
            if from_lambdas:
                grid = [[draws[j] / draws[i] for j in range(n)] for i in range(n)]
            else:
                grid = [[draws[i * n + j] if i < j else Fraction(1) for j in range(n)] for i in range(n)]
                for i in range(n):
                    for j in range(i):
                        grid[i][j] = 1 / grid[j][i]
            if edit is not None and edit[0] != edit[1]:
                i, j, v = edit
                grid[i][j] *= v
                grid[j][i] /= v
            mu = sk.validate_mu(grid)
            verdict = twist_criterion(mu)
            witness = twist_witness_cubic(mu)
            assert verdict.is_twist is (witness is None)
            assert verdict.witness == witness
            if verdict.is_twist:
                assert verdict.lambdas[0] == 1
                assert all(mu[i, j] == verdict.lambdas[j] / verdict.lambdas[i] for i in range(n) for j in range(n))
            outcomes.add(verdict.is_twist)

        check()
        assert outcomes == {True, False}


class TestMuFromLambdas:
    def test_examples(self):
        mu = mu_from_lambdas((1, 2, 2))
        assert mu[0, 1] == 2 and mu[0, 2] == 2 and mu[1, 2] == 1

    def test_constant_lambdas(self):
        assert mu_from_lambdas((Fraction(5), Fraction(5))).is_ones()

    def test_two(self):
        mu = mu_from_lambdas((1, 2))
        assert mu[0, 1] == 2 and mu[1, 0] == Fraction(1, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mu_from_lambdas((1, 0))


class TestInvariants:
    def test_criterion_recovers_ratios(self):
        rng = random.Random(77)
        for _ in range(20):
            lams = tuple(rng.choice(NONZERO_SMALL) for _ in range(3))
            verdict = twist_criterion(mu_from_lambdas(lams))
            assert verdict.is_twist
            for i in range(3):
                for j in range(3):
                    assert verdict.lambdas[j] / verdict.lambdas[i] == lams[j] / lams[i]

    def test_twist_of_polynomial_ring_matches_skew_ring(self):
        rng = random.Random(78)
        for _ in range(5):
            lams = tuple(rng.choice(NONZERO_SMALL) for _ in range(3))
            tau = DiagonalAutomorphism(lams)
            twisted = twist_presentation(commutative_ring(3), tau.inverse())
            skew = sk.build_skew_ring(mu_from_lambdas(lams))
            assert relation_span_equal(twisted.relations, skew.relations, 3)


COEFFS = st.sampled_from([Fraction(v) for v in (1, 2, -1, -3, Fraction(1, 2), Fraction(-2, 3))])


def _combination(polys, weights):
    out = NcPoly.zero()
    for p, c in zip(polys, weights):
        out = out + p.scale(c)
    return out


@st.composite
def relation_span_pairs(draw):
    """(n, A, B, kind): B is A permuted, scaled and recombined, combinations of all but A's first, or on other words.

    The two lists are swapped half the time, so sub-spans occur on either side.
    """
    n = draw(st.integers(2, 3))
    words = [(i, j) for i in range(n) for j in range(n)]
    kind = draw(st.sampled_from(("recombined", "fewer", "other words")))
    pool = [w for w in words if w[0] <= w[1]] if kind == "other words" else words

    def relations(pool, lo, hi):
        count = draw(st.integers(lo, hi))
        return [NcPoly(draw(st.dictionaries(st.sampled_from(pool), COEFFS, min_size=1, max_size=3))) for _ in range(count)]

    a = relations(pool, 1, 4)
    if kind == "recombined":
        scaled = [p.scale(draw(COEFFS)) for p in a]
        # adding a multiple of the next relation is invertible (unipotent)
        b = [p + scaled[i + 1].scale(draw(COEFFS)) if i + 1 < len(a) else p for i, p in enumerate(scaled)]
        b += [_combination(a, [draw(COEFFS) for _ in a]) for _ in range(draw(st.integers(0, 2)))]
        b = draw(st.permutations(b))
    elif kind == "fewer":
        b = [_combination(a[1:], [draw(COEFFS) for _ in a[1:]]) for _ in range(draw(st.integers(0, 3)))]
    else:
        b = relations([w for w in words if w[0] > w[1]], 0, 3)
    b = [p for p in b if p]  # a combination may cancel to zero, which is no relation
    if draw(st.booleans()):
        a, b = b, a
    return n, a, b


def _dense(polys, n):
    words = [(i, j) for i in range(n) for j in range(n)]
    return [[p.terms.get(w, 0) for w in words] for p in polys]


class TestRelationSpanEqual:
    def test_matches_the_rank_oracle(self):
        seen = set()

        @settings(max_examples=200)
        @given(relation_span_pairs())
        def check(case):
            n, a, b = case
            ra, rb, rab = (local_rank(_dense(polys, n)) for polys in (a, b, a + b))
            expected = ra == rb == rab
            assert relation_span_equal(a, b, n) == expected
            if expected:
                seen.add("equal")
            elif rab == ra:
                seen.add("second inside first")
            elif rab == rb:
                seen.add("first inside second")
            else:
                seen.add("neither")

        check()
        assert seen == {"equal", "second inside first", "first inside second", "neither"}

    def test_generator_out_of_range_rejected(self):
        inside = NcPoly({(0, 1): 1})
        with pytest.raises(ValueError, match=r"relation uses generator 4 but n = 3"):
            relation_span_equal([NcPoly({(0, 3): 1})], [inside], 3)
        with pytest.raises(ValueError, match=r"relation uses generator 3 but n = 2"):
            relation_span_equal([inside], [NcPoly({(2, 2): 1, (0, 1): 2})], 2)

    @pytest.mark.parametrize(
        "rel",
        [NcPoly.zero(), NcPoly({(0,): 1}), NcPoly({(0, 1, 1): 1}), NcPoly({(0, 1): 1, (1,): 1})],
        ids=["zero", "linear", "cubic", "inhomogeneous"],
    )
    def test_zero_and_non_quadratic_relations_rejected(self, rel):
        with pytest.raises(ValueError, match="non-quadratic relation"):
            relation_span_equal([NcPoly({(0, 1): 1})], [rel], 2)
