import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skewclifford as sk
from skewclifford import rewrite
from skewclifford.analyze import is_central, is_normal, normal_locus_in_span, subalgebra_basis
from skewclifford.freealg import NcPoly, word_key
from skewclifford.rewrite import (
    DegreeBoundError,
    FiniteDimVerdict,
    PresentedAlgebra,
    degree_basis,
    finite_dim_check,
    groebner,
    hilbert_coeffs,
    normal_form,
    reduce_poly,
)

from conftest import HASHSEED_SPEC, example21_matrices, example21_mu, spec_quotient
from oracles import free_quotient_dims, free_reduced_basis, naive_reduce, skew_quotient_dims, sparse_rref

PROPERTY = settings(max_examples=200)
COEFFS = st.sampled_from([Fraction(v) for v in (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-2, 3))])
# large, coprime denominators, so most rewrites rescale the running denominator
COPRIME = st.sampled_from(
    [Fraction(v) for v in (1, -4, Fraction(3, 7), Fraction(-5, 11), Fraction(2, 13), Fraction(9, 77), Fraction(-1, 143), Fraction(6, 91))]
)


def skew_ring_21():
    return sk.build_skew_ring(example21_mu())


def triangular_gca(seed, n):
    """The GCA of n quadrics, the k-th on z_k..z_n with a nonzero z_k^2 term."""
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
    return sk.build_gca(grids)


def triangular_gca_quotient(seed, n):
    """Skew ring (mu = 1) modulo the quadrics of `triangular_gca`.

    The triangular shape leaves the origin as the only common zero, so the
    quotient is a complete intersection of dimension 2^n.
    """
    system = sk.quadric_system_of(triangular_gca(seed, n))
    rels = list(sk.build_skew_ring(sk.MuMatrix.ones(n)).relations) + [q.as_ncpoly() for q in system.forms]
    return PresentedAlgebra(n, rels)


def _polys(n, lo, hi, max_terms, min_terms=0, coeffs=COEFFS):
    """Terms on words of length lo..hi (repeated words keep the last coefficient)."""
    word = st.lists(st.integers(0, n - 1), min_size=lo, max_size=hi).map(tuple)
    return st.lists(st.tuples(word, coeffs), min_size=min_terms, max_size=max_terms).map(lambda t: NcPoly(dict(t)))


@st.composite
def reduction_problems(draw, coeffs=COEFFS):
    """(p, monic basis): leading words may repeat, degrees mix, and rules need not be homogeneous.

    Such a basis is not confluent, so the remainder depends on the reduction
    strategy and only the fixed one reproduces the oracle.
    """
    n = draw(st.integers(2, 3))
    basis = []
    for _ in range(draw(st.integers(2, 5))):
        g = draw(_polys(n, 1, 3, 4, min_terms=1, coeffs=coeffs)).monic()
        basis.append(g)
        if draw(st.booleans()):  # another rule for the same leading word
            lw = g.lead_word()
            tail = draw(_polys(n, 0, len(lw), 3, coeffs=coeffs)).terms
            basis.append(NcPoly({**{w: c for w, c in tail.items() if word_key(w) < word_key(lw)}, lw: 1}))
    order = draw(st.permutations(range(len(basis))))
    p = draw(_polys(n, 2, 6, 4, coeffs=coeffs))
    # a word holding two leading words, so that rules compete for positions
    gap = st.lists(st.integers(0, n - 1), max_size=1).map(tuple)
    i, j = draw(st.integers(0, len(basis) - 1)), draw(st.integers(0, len(basis) - 1))
    w = draw(gap) + basis[i].lead_word() + draw(gap) + basis[j].lead_word() + draw(gap)
    p = p + NcPoly({w: draw(coeffs)})
    return p, [basis[i] for i in order]


@st.composite
def presentations(draw, coeffs=COEFFS):
    """(n, homogeneous relations of degree 2 or 3, completeness bound)."""
    n = draw(st.integers(2, 3))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.sampled_from((2, 2, 3)))
        rels.append(draw(_polys(n, deg, deg, 3, min_terms=1, coeffs=coeffs)))
    return n, rels, 5 if n == 2 else 4


@st.composite
def presentations_above_the_bound(draw):
    """(n, relations, bound): quadrics and cubics up to the bound 2 or 3, and relations of the two degrees above it."""
    n = draw(st.integers(2, 3))
    bound = draw(st.integers(2, 3))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(2, bound))
        rels.append(draw(_polys(n, deg, deg, 3, min_terms=1)))
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(bound + 1, bound + 2))
        rels.append(draw(_polys(n, deg, deg, 3, min_terms=1)))
    return n, rels, bound


@st.composite
def presentations_with_shared_leads(draw):
    """presentations(), where one relation may get a partner with the same leading word."""
    n, rels, bound = draw(presentations())
    if draw(st.booleans()):
        lw = draw(st.sampled_from(rels)).lead_word()
        tail = draw(_polys(n, len(lw), len(lw), 2)).terms
        rels.append(NcPoly({**{w: c for w, c in tail.items() if w < lw}, lw: draw(COEFFS)}))
    return n, rels, bound


@st.composite
def skew_quotients(draw):
    """(n, the skew ring of a drawn mu modulo drawn quadrics, bound) with n = 2..3 and bound <= 5.

    mu is all ones, random, or the twist mu_ij = lambda_j / lambda_i with
    lambdas drawn from three values, so some repeat; the forms are dense,
    sparse or monomials on the ordered words z_i z_j, i <= j, or
    z_i^2 + c z_i z_l with a repeated letter, whose leading word starts with
    the letter it shares with a commutation word when l > i.
    """
    n = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("ones", "random", "twist")))
    grid = [[Fraction(1)] * n for _ in range(n)]
    lambdas = [draw(st.sampled_from((1, 2, -1))) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "random":
                v = draw(COEFFS)
            else:
                v = Fraction(lambdas[j], lambdas[i]) if kind == "twist" else Fraction(1)
            grid[i][j], grid[j][i] = v, 1 / v
    ordered = [(i, j) for i in range(n) for j in range(i, n)]
    shape = draw(st.sampled_from(("dense", "sparse", "monomial", "square")))
    forms = []
    for _ in range(draw(st.integers(1, n))):
        if shape == "square":
            i, l = draw(st.permutations(range(n)))[:2]
            terms = {(i, i): 1, (min(i, l), max(i, l)): draw(COEFFS)}
        elif shape == "dense":
            terms = {w: draw(st.sampled_from((Fraction(0), *COEFFS.elements))) for w in ordered}
        elif shape == "sparse":
            words = draw(st.lists(st.sampled_from(ordered), min_size=1, max_size=2, unique=True))
            terms = {w: draw(COEFFS) for w in words}
        else:
            terms = {draw(st.sampled_from(ordered)): 1}
        forms.append(NcPoly(terms))
    return n, sk.build_skew_ring(sk.validate_mu(grid)).with_relations(forms), draw(st.integers(3, 5))


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

    # fewer examples than PROPERTY: the oracle lists every word of each degree
    @settings(max_examples=60)
    @given(presentations_with_shared_leads())
    def test_elements_match_the_free_algebra_rref(self, case):
        n, rels, bound = case
        gb = groebner(PresentedAlgebra(n, rels), bound)
        assert [g.terms for g in gb.elements] == free_reduced_basis(n, [r.terms for r in rels], bound)

    def test_degree_above_the_bound_is_reduced_modulo_lower_degrees(self):
        # Through degree 3 the basis is complete; degree 4 is not, so its one
        # element is the degree-4 relation reduced modulo the elements of
        # degree 2 and 3.  The leftmost match in x2x1x2x2 is x2x1x2, which
        # gives x2x1x1x2; reducing by x2x2 first would give x2x1x1x1, which
        # is also in the ideal.
        square = NcPoly({(1, 1): 1, (1, 0): Fraction(1, 3)})
        gb = groebner(PresentedAlgebra(2, [square, NcPoly.word((1, 0, 1, 1))]), 3)
        assert gb.elements == (
            square,
            NcPoly({(1, 0, 1): 1, (1, 0, 0): Fraction(1, 3)}),
            NcPoly.word((1, 0, 0, 1)),
        )
        assert gb.complete_through == 3

    def test_degrees_above_the_bound_match_the_oracle(self):
        # Above the bound a degree's elements are its relations reduced
        # modulo every lower element, by the package's strategy, in reduced
        # echelon form; the oracle reduces by that strategy without an index
        # or a memo, and eliminates on its own
        reduced = []

        @settings(max_examples=100)
        @given(presentations_above_the_bound())
        def check(case):
            n, rels, bound = case
            alg = PresentedAlgebra(n, rels)
            elements = groebner(alg, bound).elements
            for d in sorted({len(r.lead_word()) for r in alg.relations} - set(range(bound + 1))):
                lower = [g for g in elements if len(g.lead_word()) < d]
                given_d = [r for r in alg.relations if len(r.lead_word()) == d]
                remainders = [naive_reduce(r, lower) for r in given_d]
                oracle = sparse_rref([h.terms for h in remainders])
                assert [g.terms for g in elements if len(g.lead_word()) == d] == [oracle[w] for w in sorted(oracle)]
                reduced.append(remainders != given_d)

        check()
        # some drawn relation above the bound is changed by the lower elements
        assert any(reduced)

    @staticmethod
    def _reductions(monkeypatch, alg, bound):
        calls = []
        counted = rewrite._DegreeStep.reduce

        def count(step, terms):
            calls.append(1)
            return counted(step, terms)

        monkeypatch.setattr(rewrite._DegreeStep, "reduce", count)
        return groebner(alg, bound), len(calls)

    def test_reduction_count(self, monkeypatch):
        # One call per relation (15) and one per S-polynomial that is reduced
        # (63): a nonzero remainder is adjoined without a second reduction,
        # and a degree is final before the next starts.  Of the 225
        # obstructions through degree 12, 162 are proved to resolve by the
        # chain and commutation rules of `groebner` or lie above degree 6,
        # the first with no normal word, where the loop stops; a higher count
        # means a rule stopped firing or some element is reduced again.
        # Against 99 calls with rule (iv) asking lead(f)_1 > i and no early
        # stop: lead(f)_1 = i skips 16 more, and the stop skips the 5 of
        # degree 7.  Before the rules the count was 256: 225 S-polynomials
        # plus 15 relations and 16 nonzero remainders, each reduced twice.
        gb, calls = self._reductions(monkeypatch, triangular_gca_quotient(4, 5), 12)
        assert finite_dim_check(gb).dimension == 32
        assert calls == 78

    def test_lower_degree_rewrites_are_memoized(self, monkeypatch):
        # Each degree rewrites a word modulo the lower degrees once, when its
        # row is first needed: 181 rewrite steps for the 78 reductions above,
        # against 1,191 when each reduction rewrote its words afresh with
        # `_reduce`.  A higher count means rows are filled again, or filled
        # for words no reduction reaches.
        steps = []
        match = rewrite._LeadIndex.match

        def spy(rules, w, longest=None):
            hit = match(rules, w, longest)
            assert longest is not None  # the degree loop rewrites only below its degree
            steps.append(hit is not None)
            return hit

        monkeypatch.setattr(rewrite._LeadIndex, "match", spy)
        gb = groebner(triangular_gca_quotient(4, 5), 12)
        assert finite_dim_check(gb).dimension == 32
        assert sum(steps) == 181

    def test_reduction_count_on_a_skew_quotient(self, monkeypatch):
        # A GSCA quotient with fractional mu, where some elements are not
        # z_j-homogeneous: 10 relations and 14 of the S-polynomials of
        # degrees 2 and 3.  Degree 3 has no normal word, so the 30 reduced
        # S-polynomials of degree 4 (6 of them also skipped by rule (iv) at
        # lead(f)_1 = i) are not formed: 54 calls with neither, 108 before
        # the rules, with 8 nonzero remainders reduced twice.
        gb, calls = self._reductions(monkeypatch, spec_quotient(HASHSEED_SPEC), 10)
        assert len(gb.elements) == 18 and finite_dim_check(gb).dimension == 11
        assert calls == 24

    def test_skew_quotient_bases_match_the_free_algebra_rref(self, monkeypatch):
        # rule (iv) at lead(f)_1 = i and the stop after an empty degree must
        # each skip work in some drawn case, or the oracle does not check them
        fired = {"lead(f)_1 = i": 0, "early stop": 0}
        homogeneous, pending = rewrite._Overlaps._homogeneous, rewrite._Overlaps.pending
        degrees = []

        def homogeneous_spy(overlaps, lw, j):
            found = homogeneous(overlaps, lw, j)
            # rule (iii) asks about lead(g) for a larger letter than lead(g)_1
            fired["lead(f)_1 = i"] += found and lw[0] == j
            return found

        def pending_spy(overlaps, degree):
            degrees.append(degree)
            return pending(overlaps, degree)

        monkeypatch.setattr(rewrite._Overlaps, "_homogeneous", homogeneous_spy)
        monkeypatch.setattr(rewrite._Overlaps, "pending", pending_spy)

        @PROPERTY
        @given(skew_quotients())
        def check(case):
            n, alg, bound = case
            degrees.clear()
            gb = groebner(alg, bound)
            fired["early stop"] += max(degrees) < bound
            assert [g.terms for g in gb.elements] == free_reduced_basis(n, [r.terms for r in alg.relations], bound)

        check()
        assert all(fired.values()), fired

    @settings(max_examples=100)
    @given(
        st.one_of(
            skew_quotients(),
            presentations(COPRIME).map(lambda case: (case[0], PresentedAlgebra(case[0], case[1]), case[2])),
        )
    )
    def test_rule_rows_stay_primitive(self, case):
        # Every rule is kept as a primitive int row over s > 0, so its
        # numbers are fixed by the element and cannot grow with the work done;
        # the non-monic relations over coprime denominators rescale most rows
        n, alg, bound = case
        gb = groebner(alg, bound)
        for s, tail in gb._rules.by_lead.values():
            assert type(s) is int and s > 0
            assert all(type(t) is int for t in tail.values())
            assert math.gcd(s, *tail.values()) == 1
        assert all(type(c) is Fraction for g in gb.elements for c in g.terms.values())
        assert [g.terms for g in gb.elements] == free_reduced_basis(n, [r.terms for r in alg.relations], bound)

    def test_commutation_overlaps_need_a_homogeneous_element(self):
        # Already z1^2 and z1*z2 scale differently under every z_j, so
        # z_j q = s q z_j holds for no j and the overlaps z_j * lead(g) and
        # lead(g) * z_i must be reduced; skipping them regardless gives 12
        # elements through degree 5 instead of 11
        mu = sk.validate_mu([[1, Fraction(1, 2), -1], [2, 1, 3], [-1, Fraction(1, 3), 1]])
        form = NcPoly({(0, 0): 3, (0, 1): 3, (0, 2): 3, (1, 1): 1, (2, 2): 1})
        alg = sk.build_skew_ring(mu).with_relations([form])
        gb = groebner(alg, 5)
        assert len(gb.elements) == 11
        assert [g.terms for g in gb.elements] == free_reduced_basis(3, [r.terms for r in alg.relations], 5)

    def test_left_overlaps_read_the_letter_moved(self):
        # The elements on z1, z2 scale alike under z1 and z2 but not under
        # z3 (mu_13 = 2/3, mu_23 = 1): z3 * lead(g) must be reduced, which
        # a homogeneity test on lead(g)'s first letter would skip
        mu = sk.validate_mu([[1, 1, Fraction(2, 3)], [1, 1, 1], [Fraction(3, 2), 1, 1]])
        forms = [NcPoly({(0, 0): -3, (0, 1): -3, (1, 1): 1}), NcPoly({(0, 0): 2, (1, 1): 1})]
        alg = sk.build_skew_ring(mu).with_relations(forms)
        gb = groebner(alg, 4)
        assert [g.terms for g in gb.elements] == free_reduced_basis(3, [r.terms for r in alg.relations], 4)

    def test_right_overlaps_need_a_larger_first_letter(self):
        # rule (iv) needs lead(f)'s first letter not below i: lead(f) = z1*z3
        # ends in z3 > z2 but starts below z2, so z2 * lead(f) lies above the
        # overlap word z1*z3*z2 and the overlap must be reduced although
        # every element is homogeneous
        alg = sk.build_skew_ring(sk.MuMatrix.ones(3)).with_relations(
            [NcPoly({(0, 2): 1}), NcPoly({(0, 0): 1, (1, 1): 1})]
        )
        gb = groebner(alg, 5)
        assert [g.terms for g in gb.elements] == free_reduced_basis(3, [r.terms for r in alg.relations], 5)

    FIRST_LETTER_I = NcPoly({(0, 2): 1, (0, 0): 1})

    def test_right_overlaps_at_a_first_letter_equal_to_i(self):
        # lead(f) = z1*z3 starts with the z1 of lead(g) = z3*z1.  With
        # mu_ij = 2 for i < j but mu_13 = 1, f = z1*z3 + z1^2 is
        # z1-homogeneous (mu_11 mu_31 = mu_11^2 = 1), though z1's scalars
        # are not all 1, so rule (iv) skips the overlap at z1*z3*z1
        grid = [[1, 2, 1], [Fraction(1, 2), 1, 2], [1, Fraction(1, 2), 1]]
        alg = sk.build_skew_ring(sk.validate_mu(grid)).with_relations([self.FIRST_LETTER_I])
        gb = groebner(alg, 5)
        assert [g.terms for g in gb.elements] == free_reduced_basis(3, [r.terms for r in alg.relations], 5)
        overlaps = rewrite._Overlaps(gb._rules, rewrite._commutation_columns(alg))
        assert overlaps._resolves((0, 2, 0), (0, 2), (2, 0))

    def test_right_overlaps_at_a_first_letter_equal_to_i_need_a_homogeneous_element(self, monkeypatch):
        # With mu_13 = 2, z1^2 and z1*z3 scale differently under z1, so the
        # overlap at z1*z3*z1 must be reduced; skipping it regardless gives
        # 8 elements through degree 5 instead of 9, and dimension 6 in degree 3
        grid = [[1, 2, 2], [Fraction(1, 2), 1, 2], [Fraction(1, 2), Fraction(1, 2), 1]]
        alg = sk.build_skew_ring(sk.validate_mu(grid)).with_relations([self.FIRST_LETTER_I])
        oracle = free_reduced_basis(3, [r.terms for r in alg.relations], 5)
        gb = groebner(alg, 5)
        assert [g.terms for g in gb.elements] == oracle and len(oracle) == 9
        assert hilbert_coeffs(gb, 5) == [1, 3, 5, 5, 6, 7]
        homogeneous = rewrite._Overlaps._homogeneous
        monkeypatch.setattr(
            rewrite._Overlaps, "_homogeneous", lambda overlaps, lw, j: lw[0] == j or homogeneous(overlaps, lw, j)
        )
        skipped = groebner(alg, 5)
        assert len(skipped.elements) == 8 and hilbert_coeffs(skipped, 5)[3] == 6

    def test_finite_quotient_stops_at_its_first_empty_degree(self, monkeypatch):
        # dimensions 1, 3, 3, 1, 0: nothing is reduced above degree 4, yet
        # the basis is complete through the bound and equals the one at 5
        alg = triangular_gca_quotient(4, 3)
        degrees = []
        reduce = rewrite._DegreeStep.reduce

        def spy(step, terms):
            degrees.extend(len(w) for w in terms)
            return reduce(step, terms)

        monkeypatch.setattr(rewrite._DegreeStep, "reduce", spy)
        gb = groebner(alg, 40)
        assert max(degrees) == 4
        assert gb.complete_through == 40
        assert not normal_form(NcPoly.word((2, 1, 0) * 13 + (1,)), gb)
        monkeypatch.undo()
        assert gb.elements == groebner(alg, 5).elements
        assert [g.terms for g in gb.elements] == free_reduced_basis(3, [r.terms for r in alg.relations], 5)
        assert hilbert_coeffs(gb, 5) == [1, 3, 3, 1, 0, 0]

    def test_one_lead_index_per_call(self, monkeypatch):
        # the index groebner builds is the one GroebnerData keeps and
        # normal_form reads
        built = []

        class Counted(rewrite._LeadIndex):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(rewrite, "_LeadIndex", Counted)
        gb = groebner(triangular_gca_quotient(4, 4), 8)
        assert len(built) == 1
        normal_form(NcPoly.word((3, 2, 1, 0)), gb)
        assert len(built) == 1

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

    @PROPERTY
    @given(reduction_problems(COPRIME))
    def test_exact_over_coprime_denominators(self, problem):
        # a rescale multiplies the running denominator and every live
        # numerator; the two must stay in step
        p, basis = problem
        out = reduce_poly(p, basis)
        assert out == naive_reduce(p, basis)
        assert all(type(c) is Fraction for c in out.terms.values())

    @PROPERTY
    @given(reduction_problems(), st.lists(COPRIME, min_size=10, max_size=10))
    def test_each_element_is_taken_monic(self, problem, scalars):
        # c*g spans the same ideal as g, so the remainder is the same
        p, basis = problem
        assert len(basis) <= len(scalars)
        scaled = [g.scale(c) for g, c in zip(basis, scalars)]
        assert reduce_poly(p, scaled) == reduce_poly(p, basis)

    def test_non_monic_element(self):
        # x2*x1 = 1/2*x1*x2 modulo 2*x2*x1 - x1*x2
        rule = NcPoly({(1, 0): 2, (0, 1): -1})
        assert reduce_poly(NcPoly.word((1, 0)), [rule]) == NcPoly({(0, 1): Fraction(1, 2)})

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


def _power(d):
    return NcPoly.word((0,) * d)


# each reader of a truncated basis, called so that it needs degree d
DEGREE_READERS = {
    "normal_form": lambda gb, d: normal_form(_power(d), gb),
    "degree_basis": lambda gb, d: degree_basis(gb, d),
    "hilbert_coeffs": lambda gb, d: hilbert_coeffs(gb, d),
    "is_normal": lambda gb, d: is_normal(_power(d - 1), gb),
    "is_central": lambda gb, d: is_central(_power(d - 1), gb),
    "subalgebra_basis": lambda gb, d: subalgebra_basis(gb, [_power(2)], d),
    "normal_locus_in_span": lambda gb, d: normal_locus_in_span(gb, [_power(d - 1)], [_power(1)], [(Fraction(1),)]),
}


@pytest.mark.parametrize("reader", sorted(DEGREE_READERS))
def test_every_reader_stops_at_the_completeness_bound(reader):
    gb = groebner(sk.build_skew_ring(sk.MuMatrix.ones(2)), 4)
    DEGREE_READERS[reader](gb, 4)
    with pytest.raises(DegreeBoundError, match=r"^degree 5 exceeds completeness bound 4$"):
        DEGREE_READERS[reader](gb, 5)


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


@st.composite
def lead_sets(draw):
    """(n, through, leading words): random words over n letters, none inside another, some longer than through."""
    n = draw(st.integers(1, 4))
    through = draw(st.integers(0, 7))
    drawn = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=9).map(tuple), max_size=8))
    leads = []
    for w in sorted(set(drawn), key=len):
        if not any(w[p : p + len(u)] == u for u in leads for p in range(len(w) - len(u) + 1)):
            leads.append(w)
    return n, through, leads


def lead_basis(n, through, leads):
    """A basis complete through `through` whose leading words are `leads`; the counts read nothing else."""
    rules = rewrite._LeadIndex()
    for lw in leads:
        rules.add(lw, (1, {}))
    return rewrite.GroebnerData(PresentedAlgebra(n, []), through, rules)


class TestDegreeWalk:
    """`degree_basis` lists the normal words; `hilbert_coeffs` and `finite_dim_check` count them on the automaton."""

    @PROPERTY
    @given(lead_sets())
    @example((1, 5, []))
    @example((2, 7, []))
    @example((2, 7, [(0, 0, 0)]))
    @example((2, 7, [(0, 1, 0, 1)]))
    @example((3, 7, [(0, 1, 0, 1), (1, 1, 0), (2, 0, 2, 0, 2)]))
    @example((2, 3, [(0, 1, 1, 0), (1, 0, 0, 0, 1)]))
    # a leading word inside others: at the end, at the start and in the middle,
    # and at the end of a proper prefix of (1, 0, 1, 1)
    @example((2, 6, [(0, 1), (1, 0, 1), (0, 1, 1), (1, 0, 1, 0)]))
    @example((2, 6, [(0, 1), (1, 0, 1, 1)]))
    def test_counts_equal_the_lengths_of_the_listing(self, case):
        n, through, leads = case
        gb = lead_basis(n, through, leads)
        listed = [len(words) for words in rewrite._normal_words(gb, through)]
        assert rewrite._normal_word_counts(gb, through) == listed

    def test_regularity_lists_no_word(self, monkeypatch):
        def listing(*args):
            raise AssertionError("a normal word was listed")

        monkeypatch.setattr(rewrite, "_normal_words", listing)
        report = sk.regularity_verdict(triangular_gca(7, 7), 16)
        assert report.regular and report.base_points.dimension == 2**7
        assert report.hilbert_computed == report.hilbert_expected == tuple(math.comb(6 + d, d) for d in range(17))

    @PROPERTY
    @given(st.one_of(presentations().map(lambda c: (c[0], PresentedAlgebra(c[0], c[1]), c[2])), skew_quotients()))
    def test_readers_agree_with_listing_every_word(self, case):
        n, alg, bound = case
        gb = groebner(alg, bound)
        leads = gb.lead_words()
        counts = []
        for d in range(bound + 1):
            words = [
                w
                for w in itertools.product(range(n), repeat=d)
                if not any(w[p : p + len(u)] == u for u in leads for p in range(d - len(u) + 1))
            ]
            assert degree_basis(gb, d) == words
            counts.append(len(words))
        assert hilbert_coeffs(gb, bound) == counts
        if 0 in counts:
            expected = FiniteDimVerdict(True, sum(counts[: counts.index(0)]), bound)
        else:
            expected = FiniteDimVerdict(False, None, bound)
        assert finite_dim_check(gb) == expected

    def test_hilbert_keeps_two_degrees_alive(self):
        # The GCA at n = 6 has C(5 + d, 5) normal words in degree d: 11628 in
        # degree 14 and 27132 below it.  Keeping every degree peaked at about
        # 5.6 MB, and a walk keeping the last two degrees at about 4.4 MB
        # (tracemalloc, CPython 3.11).  Counting on the automaton keeps no
        # word and stays far below the bound.
        gb = triangular_gca(6, 6).groebner(14)
        tracemalloc.start()
        try:
            coeffs = hilbert_coeffs(gb, 14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coeffs == [math.comb(5 + d, d) for d in range(15)]
        assert peak < 5_000_000, f"hilbert_coeffs peaked at {peak / 1e6:.2f} MB"


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
