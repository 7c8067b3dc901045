import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewclifford as sk
from skewclifford import rewrite
from skewclifford.freealg import NcPoly, word_key
from skewclifford.rewrite import (
    DegreeBoundError,
    PresentedAlgebra,
    degree_basis,
    finite_dim_check,
    groebner,
    hilbert_coeffs,
    normal_form,
    reduce_poly,
)

from conftest import example21_matrices, example21_mu
from oracles import free_quotient_dims, naive_reduce, skew_quotient_dims

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
COEFFS = st.sampled_from([Fraction(v) for v in (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-2, 3))])


def skew_ring_21():
    return sk.build_skew_ring(example21_mu())


def triangular_gca_quotient(seed, n):
    """Skew ring (mu = 1) modulo n quadrics, the k-th on z_k..z_n with a nonzero z_k^2 term.

    The triangular shape leaves the origin as the only common zero, so the
    quotient is a complete intersection of dimension 2^n.
    """
    rng = random.Random(seed)
    entries = [Fraction(v) for v in (-2, -1, 0, 0, 1, 2)]
    squares = [Fraction(v) for v in (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-1, 2))]
    grids = []
    for k in range(n):
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(k, n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.choice(squares) if i == j == k else rng.choice(entries)
        grids.append(g)
    system = sk.quadric_system_of(sk.build_gca(grids))
    rels = list(sk.build_skew_ring(sk.MuMatrix.ones(n)).relations) + [q.as_ncpoly() for q in system.forms]
    return PresentedAlgebra(n, rels)


def _polys(n, lo, hi, max_terms, min_terms=0):
    """Terms on words of length lo..hi (repeated words keep the last coefficient)."""
    word = st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi).map(tuple)
    return st.lists(st.tuples(word, COEFFS), min_size=min_terms, max_size=max_terms).map(lambda t: NcPoly(dict(t)))


@st.composite
def reduction_problems(draw):
    """(p, monic basis): leading words may repeat, degrees mix, and rules need not be homogeneous.

    Such a basis is not confluent, so the remainder depends on the reduction
    strategy and only the fixed one reproduces the oracle.
    """
    n = draw(st.integers(2, 3))
    basis = []
    for _ in range(draw(st.integers(2, 5))):
        g = draw(_polys(n, 1, 3, 4, min_terms=1)).monic()
        basis.append(g)
        if draw(st.booleans()):  # another rule for the same leading word
            lw = g.lead_word()
            tail = draw(_polys(n, 0, len(lw), 3)).terms
            basis.append(NcPoly({**{w: c for w, c in tail.items() if word_key(w) < word_key(lw)}, lw: 1}))
    order = draw(st.permutations(range(len(basis))))
    p = draw(_polys(n, 2, 6, 4))
    # a word holding two leading words, so that rules compete for positions
    gap = st.lists(st.integers(0, n - 1), max_size=1).map(tuple)
    i, j = draw(st.integers(0, len(basis) - 1)), draw(st.integers(0, len(basis) - 1))
    w = draw(gap) + basis[i].lead_word() + draw(gap) + basis[j].lead_word() + draw(gap)
    p = p + NcPoly({w: draw(COEFFS)})
    return p, [basis[i] for i in order]


@st.composite
def presentations(draw):
    """(n, homogeneous relations of degree 2 or 3, completeness bound)."""
    n = draw(st.integers(2, 3))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.sampled_from((2, 2, 3)))
        rels.append(draw(_polys(n, deg, deg, 3, min_terms=1)))
    return n, rels, 5 if n == 2 else 4


class TestPresentedAlgebra:
    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            PresentedAlgebra(2, [NcPoly({(0, 1): 1, (0,): 1})])

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError, match="degree 1"):
            PresentedAlgebra(2, [NcPoly({(0,): 1})])

    def test_monic_storage(self):
        alg = PresentedAlgebra(2, [NcPoly({(1, 0): 3, (0, 1): -6})])
        assert alg.relations[0].lead_coeff() == 1
        assert alg.relations[0] == NcPoly({(1, 0): 1, (0, 1): -2})

    def test_drops_zero_relations(self):
        assert PresentedAlgebra(2, [NcPoly.zero()]).relations == ()

    def test_generator_range_enforced(self):
        with pytest.raises(ValueError, match="generator 3"):
            PresentedAlgebra(2, [NcPoly({(2, 2): 1})])

    def test_generator_count_cap(self):
        with pytest.raises(ValueError, match="1..16"):
            PresentedAlgebra(17, [])


class TestGroebner:
    def test_skew_ring_is_self_complete(self):
        ring = skew_ring_21()
        gb = groebner(ring, 6)
        assert gb.elements == ring.relations
        assert gb.complete_through == 6

    def test_empty_presentation(self):
        gb = groebner(PresentedAlgebra(2, []), 5)
        assert gb.elements == ()
        assert hilbert_coeffs(gb, 3) == [1, 2, 4, 8]

    def test_example_gsca_dims(self):
        mu = example21_mu()
        pres = sk.build_gsca(mu, example21_matrices(mu))
        gb = pres.groebner(6)
        assert hilbert_coeffs(gb, 6) == [1, 3, 6, 10, 15, 21, 28]

    def test_determinism(self):
        mu = example21_mu()
        pres = sk.build_gsca(mu, example21_matrices(mu))
        a = pres.groebner(7)
        b = pres.groebner(7)
        assert a.elements == b.elements
        assert a == b

    def test_interreduced_and_monic(self):
        mu = example21_mu()
        gb = sk.build_gsca(mu, example21_matrices(mu)).groebner(6)
        leads = gb.lead_words()
        for g in gb.elements:
            assert g.lead_coeff() == 1
        for u in leads:
            for v in leads:
                if u == v:
                    continue
                assert not any(v[p : p + len(u)] == u for p in range(len(v) - len(u) + 1))

    @PROPERTY
    @given(presentations(), st.randoms(use_true_random=False))
    def test_reduced_basis_invariant_under_permuting_scaling_and_recombining(self, case, rnd):
        n, rels, bound = case
        changed = [r.scale(rnd.choice([2, -1, Fraction(1, 3)])) for r in rels]
        rnd.shuffle(changed)
        for i in range(1, len(changed)):
            j = rnd.randrange(i)
            if changed[i].homogeneous_degree() == changed[j].homogeneous_degree():
                changed[i] = changed[i] + changed[j].scale(rnd.choice([1, -2]))  # same span
        base = groebner(PresentedAlgebra(n, rels), bound)
        assert groebner(PresentedAlgebra(n, changed), bound).elements == base.elements

    def test_reduction_count(self, monkeypatch):
        # Interreduction revisits only the elements a new leading word reaches;
        # re-reducing every element after each new one took 1456 calls here.
        calls = []
        counted = rewrite.reduce_poly

        def count(*args):
            calls.append(1)
            return counted(*args)

        monkeypatch.setattr(rewrite, "reduce_poly", count)
        gb = groebner(triangular_gca_quotient(4, 5), 12)
        assert finite_dim_check(gb).dimension == 32
        assert len(calls) == 270

    def test_n6_quotient_within_budget(self):
        alg = triangular_gca_quotient(6, 6)
        start = time.perf_counter()
        verdict = finite_dim_check(groebner(alg, 14))
        elapsed = time.perf_counter() - start
        assert verdict.finite and verdict.dimension == 64
        assert elapsed < 5.0, f"n=6 quotient through degree 14 took {elapsed:.1f} s"


class TestReducePoly:
    @PROPERTY
    @given(reduction_problems())
    def test_matches_the_naive_strategy_on_non_confluent_bases(self, problem):
        p, basis = problem
        assert reduce_poly(p, basis) == naive_reduce(p, basis)

    def test_strategy_rules(self):
        # x1*x2*x2 holds x1*x2 at position 0 and x2*x2 at position 1: the leftmost wins
        left = NcPoly({(0, 1): 1, (2,): -1})
        right = NcPoly({(1, 1): 1, (0,): -1})
        assert reduce_poly(NcPoly.word((0, 1, 1)), [right, left]) == NcPoly.word((2, 1))
        # x1*x2 and x1*x2*x2 both match at position 0: the smaller leading word wins
        longer = NcPoly({(0, 1, 1): 1, (0, 0, 0): -1})
        assert reduce_poly(NcPoly.word((0, 1, 1)), [longer, left]) == NcPoly.word((2, 1))
        # equal leading words: the first listed wins
        other = NcPoly({(0, 1): 1, (0,): -1})
        assert reduce_poly(NcPoly.word((0, 1)), [other, left]) == NcPoly.word((0,))
        assert reduce_poly(NcPoly.word((0, 1)), [left, other]) == NcPoly.word((2,))


class TestNormalForm:
    def test_skew_rewrite(self):
        gb = groebner(skew_ring_21(), 4)
        assert normal_form(NcPoly({(1, 0): 1}), gb) == NcPoly({(0, 1): 2})

    def test_gsca_sign_rewrite(self):
        mu = example21_mu()
        gb = sk.build_gsca(mu, example21_matrices(mu)).groebner(4)
        assert normal_form(NcPoly({(2, 0): 1}), gb) == NcPoly({(0, 2): -1})

    def test_gb_elements_reduce_to_zero(self):
        mu = example21_mu()
        gb = sk.build_gsca(mu, example21_matrices(mu)).groebner(6)
        for g in gb.elements:
            assert not normal_form(g, gb)

    def test_degree_bound_error(self):
        gb = groebner(skew_ring_21(), 3)
        with pytest.raises(DegreeBoundError):
            normal_form(NcPoly({(0, 1, 2, 0): 1}), gb)

    def test_idempotent_and_multiplicative(self):
        mu = example21_mu()
        gb = sk.build_gsca(mu, example21_matrices(mu)).groebner(8)
        rng = random.Random(23)
        for _ in range(15):
            p = NcPoly({tuple(rng.randrange(3) for _ in range(2)): Fraction(rng.randint(-2, 2))})
            q = NcPoly(
                {
                    tuple(rng.randrange(3) for _ in range(3)): Fraction(rng.randint(-2, 2)),
                    tuple(rng.randrange(3) for _ in range(3)): 1,
                }
            )
            nf_pq = normal_form(p * q, gb)
            assert normal_form(nf_pq, gb) == nf_pq
            assert normal_form(normal_form(p, gb) * normal_form(q, gb), gb) == nf_pq

    def test_linearity(self):
        gb = groebner(skew_ring_21(), 4)
        p = NcPoly({(1, 0): 1})
        q = NcPoly({(2, 1): 1})
        lhs = normal_form(p + q.scale(3), gb)
        assert lhs == normal_form(p, gb) + normal_form(q, gb).scale(3)


class TestDegreeBasis:
    def test_degree_zero(self):
        gb = groebner(skew_ring_21(), 3)
        assert degree_basis(gb, 0) == [()]

    def test_skew_ring_degree_two(self):
        gb = groebner(skew_ring_21(), 3)
        assert degree_basis(gb, 2) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]

    def test_free_algebra(self):
        gb = groebner(PresentedAlgebra(2, []), 4)
        words = degree_basis(gb, 3)
        assert len(words) == 8
        assert words == sorted(words)

    def test_bound_enforced(self):
        gb = groebner(skew_ring_21(), 3)
        with pytest.raises(DegreeBoundError):
            degree_basis(gb, 4)


class TestHilbert:
    def test_example_gsca(self):
        mu = example21_mu()
        gb = sk.build_gsca(mu, example21_matrices(mu)).groebner(5)
        assert hilbert_coeffs(gb, 5) == [1, 3, 6, 10, 15, 21]

    def test_free_two_generators(self):
        gb = groebner(PresentedAlgebra(2, []), 3)
        assert hilbert_coeffs(gb, 3) == [1, 2, 4, 8]

    def test_quadric_quotient_matches_straightening_oracle(self):
        mu = example21_mu()
        pres = sk.build_gsca(mu, example21_matrices(mu))
        system = sk.quadric_system_of(pres)
        ring = sk.build_skew_ring(mu)
        rels = list(ring.relations) + [q.as_ncpoly() for q in system.forms]
        gb = groebner(PresentedAlgebra(3, rels), 5)
        mu_grid = [[mu[i, j] for j in range(3)] for i in range(3)]
        form_terms = [{w: c for w, c in q.as_ncpoly().terms.items()} for q in system.forms]
        oracle = skew_quotient_dims(mu_grid, form_terms, 5)
        assert oracle[:5] == [1, 3, 3, 1, 0]
        assert hilbert_coeffs(gb, 5) == oracle

    def test_commutative_binomials(self):
        for n in range(1, 5):
            gb = groebner(sk.build_skew_ring(sk.MuMatrix.ones(n)), 6)
            assert hilbert_coeffs(gb, 6) == [math.comb(n - 1 + d, d) for d in range(7)]

    def test_gsca_dims_match_free_ideal_oracle(self):
        # cross-check of the rewriting engine against plain linear algebra in
        # the free algebra, with no reduction machinery involved
        mu = example21_mu()
        pres = sk.build_gsca(mu, example21_matrices(mu))
        gb = pres.groebner(4)
        rel_terms = [dict(r.terms) for r in pres.x_relations]
        assert hilbert_coeffs(gb, 4) == free_quotient_dims(3, rel_terms, 4)

    def test_alternating_quotient(self):
        # x^2 and xy + yx: normal words are y^d and x*y^(d-1)
        alg = PresentedAlgebra(2, [NcPoly({(0, 0): 1}), NcPoly({(0, 1): 1, (1, 0): 1})])
        gb = groebner(alg, 6)
        assert hilbert_coeffs(gb, 6) == [1, 2, 2, 2, 2, 2, 2]

    def test_random_presentations_match_free_ideal_oracle(self):
        rng = random.Random(31415)
        cases = 0
        while cases < 10:
            n = rng.choice((2, 3))
            through = 5 if n == 2 else 4
            rels = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.choice((2, 2, 2, 3))
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    w = tuple(rng.randrange(n) for _ in range(deg))
                    terms[w] = Fraction(rng.randint(-2, 2))
                p = NcPoly(terms)
                if p:
                    rels.append(p)
            if not rels:
                continue
            cases += 1
            alg = PresentedAlgebra(n, rels)
            gb = groebner(alg, through)
            rel_terms = [dict(r.terms) for r in alg.relations]
            assert hilbert_coeffs(gb, through) == free_quotient_dims(n, rel_terms, through), (
                f"n={n} relations={[str(r) for r in alg.relations]}"
            )


class TestFiniteDim:
    def test_quadric_quotient_dimension(self):
        mu = example21_mu()
        pres = sk.build_gsca(mu, example21_matrices(mu))
        rels = list(sk.build_skew_ring(mu).relations) + [
            q.as_ncpoly() for q in sk.quadric_system_of(pres).forms
        ]
        verdict = finite_dim_check(groebner(PresentedAlgebra(3, rels), 8))
        assert verdict.finite and verdict.dimension == 8

    def test_single_square_unknown(self):
        mu = sk.MuMatrix.ones(3)
        rels = list(sk.build_skew_ring(mu).relations) + [NcPoly({(0, 0): 2})]
        verdict = finite_dim_check(groebner(PresentedAlgebra(3, rels), 8))
        assert not verdict.finite
        assert verdict.dimension is None

    def test_free_algebra_unknown(self):
        verdict = finite_dim_check(groebner(PresentedAlgebra(2, []), 5))
        assert not verdict.finite
