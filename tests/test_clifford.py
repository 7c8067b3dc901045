import itertools
import json
import math
import random
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewclifford as sk
from skewclifford import analyze, clifford
from skewclifford.cli import main
from skewclifford.clifford import _normal_in_skew_ring, _pair_expression
from skewclifford.freealg import NcPoly
from skewclifford.rewrite import DegreeBoundError, PresentedAlgebra, groebner, normal_form

from conftest import NONZERO_SMALL, example21_matrices, example21_mu, random_gca, random_mu, random_mu_symmetric
from oracles import form_matrix


def raise_on_call(*args):
    raise AssertionError("unexpected normal_form call")


class TestValidateMu:
    def test_worked_example(self):
        mu = example21_mu()
        assert mu[0, 1] == 2 and mu[1, 0] == Fraction(1, 2)

    def test_all_ones(self):
        assert sk.MuMatrix.ones(4).is_ones()

    def test_product_violation(self):
        with pytest.raises(ValueError, match=r"\(1,2\)"):
            sk.validate_mu([[1, 2], [2, 1]])

    def test_diagonal_violation(self):
        with pytest.raises(ValueError, match=r"\(2,2\)"):
            sk.validate_mu([[1, 2], [Fraction(1, 2), 2]])

    def test_zero_entry(self):
        with pytest.raises(ValueError, match="zero"):
            sk.validate_mu([[1, 0], [1, 1]])


class TestMuSymmetric:
    def test_worked_example_m3(self):
        mu = example21_mu()
        m3 = sk.check_mu_symmetric([[0, 1, 0], [Fraction(1, 2), 0, 0], [0, 0, 2]], mu)
        assert m3[0, 1] == 1 == mu[0, 1] * m3[1, 0]

    def test_symmetric_when_ones(self):
        mu = sk.MuMatrix.ones(2)
        sk.check_mu_symmetric([[1, 5], [5, -2]], mu)

    def test_violation(self):
        mu = example21_mu()
        with pytest.raises(ValueError, match=r"not mu-symmetric at \(1,2\)"):
            sk.check_mu_symmetric([[0, 1, 0], [1, 0, 0], [0, 0, 0]], mu)


class TestFormMatrixIsomorphism:
    def test_diagonal_matrix(self):
        mu = example21_mu()
        m1 = example21_matrices(mu)[0]
        assert sk.quadratic_form_of(m1).coeffs == {(0, 0): Fraction(2)}

    def test_m3(self):
        mu = example21_mu()
        m3 = example21_matrices(mu)[2]
        q = sk.quadratic_form_of(m3)
        assert q.coeffs == {(0, 1): Fraction(2), (2, 2): Fraction(2)}
        assert str(q) == "2*z1*z2 + 2*z3^2"

    def test_offdiagonal_symmetric(self):
        mu = sk.MuMatrix.ones(2)
        m = sk.check_mu_symmetric([[0, 1], [1, 0]], mu)
        assert sk.quadratic_form_of(m).coeffs == {(0, 1): Fraction(2)}

    def test_matrix_of_form_examples(self):
        mu = example21_mu()
        zero = sk.check_mu_symmetric([[0] * 3 for _ in range(3)], mu)
        examples = (
            (sk.QuadraticForm(3, {(0, 1): 2, (2, 2): 2}), example21_matrices(mu)[2]),
            (sk.QuadraticForm(3, {}), zero),
            (sk.QuadraticForm(3, {(0, 0): 2}), example21_matrices(mu)[0]),
        )
        for q, m in examples:
            assert sk.quadratic_form_of(m) == q
            assert sk.check_mu_symmetric(form_matrix(mu.entries, q.coeffs), mu) == m

    def test_round_trip_random(self):
        rng = random.Random(41)
        for n in (3, 4):
            for _ in range(3):
                mu = random_mu(rng, n)
                for _ in range(20):
                    m = random_mu_symmetric(rng, mu)
                    assert sk.check_mu_symmetric(form_matrix(mu.entries, sk.quadratic_form_of(m).coeffs), mu) == m

    def test_straightening_route_agrees(self):
        # the direct coefficient formulas against genuine z^T M z reduction in S
        rng = random.Random(42)
        for _ in range(10):
            mu = random_mu(rng, 3)
            m = random_mu_symmetric(rng, mu)
            gb = groebner(sk.build_skew_ring(mu), 3)
            raw = NcPoly.zero()
            for i in range(3):
                for j in range(3):
                    raw = raw + NcPoly({(i, j): m[i, j]})
            assert normal_form(raw, gb) == sk.quadratic_form_of(m).as_ncpoly()


class TestBuildSkewRing:
    def test_worked_example(self):
        ring = sk.build_skew_ring(example21_mu())
        expected = {
            NcPoly({(1, 0): 1, (0, 1): -2}),
            NcPoly({(2, 0): 1, (0, 2): -1}),
            NcPoly({(2, 1): 1, (1, 2): -1}),
        }
        assert set(ring.relations) == expected

    def test_commutative(self):
        ring = sk.build_skew_ring(sk.MuMatrix.ones(3))
        assert len(ring.relations) == 3
        for rel in ring.relations:
            words = sorted(rel.terms)
            assert rel.terms[words[0]] == -1 and rel.terms[words[1]] == 1

    def test_single_generator(self):
        assert sk.build_skew_ring(sk.MuMatrix.ones(1)).relations == ()

    def test_equals_the_validated_presentation(self):
        # build_skew_ring lists its relations monic and sorted, skipping the cleaning
        rng = random.Random(2718)
        for n in range(1, 8):
            for _ in range(3):
                ring = sk.build_skew_ring(random_mu(rng, n))
                assert ring == PresentedAlgebra(n, ring.relations)


class TestBuildGsca:
    def test_worked_example(self, ex21):
        _, _, pres, gb = ex21
        expected = {
            NcPoly({(0, 1): 1, (1, 0): 2, (2, 2): -1}).monic(),
            NcPoly({(0, 2): 1, (2, 0): 1}),
            NcPoly({(1, 2): 1, (2, 1): 1}),
        }
        assert {r.monic() for r in pres.x_relations} == expected
        for k in range(3):
            assert pres.y_expressions[k] == NcPoly({(k, k): 1})

    def test_relation_count(self, ex21):
        _, _, pres, _ = ex21
        assert len(pres.x_relations) == 3  # n(n-1)/2

    def test_substitution_recovers_defining_relations(self, ex21):
        mu, matrices, pres, gb = ex21
        for i in range(3):
            for j in range(i, 3):
                lhs = _pair_expression(mu, i, j)
                rhs = NcPoly.zero()
                for k in range(3):
                    rhs = rhs + pres.y_expressions[k].scale(matrices[k][i, j])
                assert not normal_form(lhs - rhs, gb)

    def test_two_generator_case(self):
        mu = sk.validate_mu([[1, 2], [Fraction(1, 2), 1]])
        ms = [sk.check_mu_symmetric(g, mu) for g in ([[2, 0], [0, 0]], [[0, 0], [0, 2]])]
        pres = sk.build_gsca(mu, ms)
        assert [r.monic() for r in pres.x_relations] == [NcPoly({(0, 1): Fraction(1, 2), (1, 0): 1})]
        assert pres.y_expressions == {0: NcPoly({(0, 0): 1}), 1: NcPoly({(1, 1): 1})}

    def test_dependent_matrices_rejected(self):
        mu = sk.MuMatrix.ones(2)
        m = sk.check_mu_symmetric([[2, 0], [0, 0]], mu)
        with pytest.raises(ValueError, match="linearly dependent"):
            sk.build_gsca(mu, [m, m])

    @pytest.mark.parametrize("n", [0, 17])
    def test_generator_count_checked_up_front(self, n):
        with pytest.raises(ValueError, match=f"generator count must be in 1..16, got {n}"):
            sk.build_gsca(sk.MuMatrix.ones(n), [])

    def test_relation_count_random(self):
        rng = random.Random(55)
        built = 0
        while built < 5:
            mu = random_mu(rng, 3)
            ms = [random_mu_symmetric(rng, mu) for _ in range(3)]
            try:
                pres = sk.build_gsca(mu, ms)
            except ValueError:
                continue
            built += 1
            assert len(pres.x_relations) == 3
            assert sorted(pres.y_expressions) == [0, 1, 2]


    def test_presentation_is_the_one_cleaned_algebra(self, monkeypatch):
        # the presentation is built once, on the combinations build_gsca forms,
        # and cleaned there alone: its relations are x_relations
        inputs = []
        original = PresentedAlgebra._cleaned
        monkeypatch.setattr(PresentedAlgebra, "_cleaned", lambda self, rels: inputs.append(list(rels)) or original(self, rels))
        rng = random.Random(12)
        built = []
        while len(built) < 6:
            n = 2 + len(built) % 3
            mu = random_mu(rng, n) if len(built) % 2 else sk.MuMatrix.ones(n)
            try:
                built.append(sk.build_gsca(mu, [random_mu_symmetric(rng, mu) for _ in range(n)]))
            except ValueError:  # dependent matrices
                continue
            combinations = inputs[-1]
            assert built[-1].x_relations == PresentedAlgebra(n, combinations).relations
        built.append(random_gca(rng, 3))
        for pres in built:
            assert pres.presentation() is pres.presentation()
            assert pres.presentation().relations is pres.x_relations
        assert {pres.mu.is_ones() for pres in built} == {True, False}


class TestBuildGca:
    def test_diagonal_three(self):
        pres = sk.build_gca([[[2 * (i == j == k) for j in range(3)] for i in range(3)] for k in range(3)])
        assert {r.monic() for r in pres.x_relations} == {
            NcPoly({(0, 1): 1, (1, 0): 1}),
            NcPoly({(0, 2): 1, (2, 0): 1}),
            NcPoly({(1, 2): 1, (2, 1): 1}),
        }
        assert pres.y_expressions == {k: NcPoly({(k, k): 1}) for k in range(3)}

    def test_diagonal_two(self):
        pres = sk.build_gca([[[2, 0], [0, 0]], [[0, 0], [0, 2]]])
        assert [r.monic() for r in pres.x_relations] == [NcPoly({(0, 1): 1, (1, 0): 1})]

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            sk.build_gca([[[2, 0], [0, 0]], [[4, 0], [0, 0]]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not mu-symmetric"):
            sk.build_gca([[[0, 1], [0, 0]], [[0, 0], [0, 2]]])


class TestGcaCentrality:
    """ab + ba is central in a GCA: `is_central` on the anticommutator, against a bound-4 basis."""

    def diag3(self):
        return sk.build_gca([[[2 * (i == j == k) for j in range(3)] for i in range(3)] for k in range(3)])

    @staticmethod
    def anticommutator_central(pres, a, b):
        return sk.is_central(a * b + b * a, pres.groebner(4))

    def test_anticommuting_pair(self):
        verdict = self.anticommutator_central(self.diag3(), NcPoly.generator(0), NcPoly.generator(1))
        assert verdict.central

    def test_square(self):
        verdict = self.anticommutator_central(self.diag3(), NcPoly.generator(0), NcPoly.generator(0))
        assert verdict.central

    def test_random_valid_gcas(self):
        rng = random.Random(2026)
        for _ in range(3):
            pres = random_gca(rng, 3)
            a = NcPoly({(i,): Fraction(rng.randint(-2, 2)) for i in range(3)})
            b = NcPoly({(i,): Fraction(rng.randint(-2, 2)) for i in range(3)})
            if not a or not b:
                continue
            assert self.anticommutator_central(pres, a, b).central

    def test_passes_the_anticommutator_as_it_is(self):
        # is_central normal-forms its element: the raw anticommutator and its normal form agree
        gb = self.diag3().groebner(4)
        element = NcPoly.generator(0) * NcPoly.generator(1) + NcPoly.generator(1) * NcPoly.generator(0)
        assert element != normal_form(element, gb)
        verdict = sk.is_central(element, gb)
        assert verdict.central and verdict == sk.is_central(normal_form(element, gb), gb)

    def test_requires_ones_mu(self):
        # with mu_12 = 2 the plain anticommutator of x1, x2 fails against x1
        mu = example21_mu()
        pres = sk.build_gsca(mu, example21_matrices(mu))
        verdict = self.anticommutator_central(pres, NcPoly.generator(0), NcPoly.generator(1))
        assert not verdict.central and verdict.witness == 0


class TestQuadricSystem:
    def test_worked_example(self, ex21):
        _, _, pres, _ = ex21
        system = sk.quadric_system_of(pres)
        assert [str(q) for q in system.forms] == ["2*z1^2", "2*z2^2", "2*z1*z2 + 2*z3^2"]

    def test_diagonal_gca(self):
        pres = sk.build_gca([[[2 * (i == j == k) for j in range(3)] for i in range(3)] for k in range(3)])
        assert [str(q) for q in sk.quadric_system_of(pres).forms] == ["2*z1^2", "2*z2^2", "2*z3^2"]


class TestNormalizing:
    def test_worked_example_given_order(self, ex21):
        _, _, pres, _ = ex21
        verdict = sk.normalizing_check(sk.quadric_system_of(pres), 6)
        assert verdict.found and verdict.order == (0, 1, 2) and verdict.searched == 1

    def test_commutative(self):
        mu = sk.MuMatrix.ones(2)
        system = sk.QuadricSystem(mu, (sk.QuadraticForm(2, {(0, 0): 2}), sk.QuadraticForm(2, {(1, 1): 2})))
        assert sk.normalizing_check(system, 5).found

    def test_single_form_in_skew_ring(self):
        system = sk.QuadricSystem(example21_mu(), (sk.QuadraticForm(3, {(0, 1): 1}),))
        assert sk.normalizing_check(system, 5).found

    def test_not_found(self):
        # z1^2 + z2^2 in the quantum plane scales differently under z1 and z2
        mu = sk.validate_mu([[1, 2], [Fraction(1, 2), 1]])
        system = sk.QuadricSystem(mu, (sk.QuadraticForm(2, {(0, 0): 1, (1, 1): 1}),))
        verdict = sk.normalizing_check(system, 5)
        assert not verdict.found and verdict.order is None

    @staticmethod
    def four_form_system():
        # squares stay normal, and z1*z2 + z3*z4 is not normal since
        # mu_14 * mu_24 != mu_34, so all 4! orders fail at the mixed form
        grid = [[Fraction(1)] * 4 for _ in range(4)]
        grid[0][3], grid[3][0] = Fraction(2), Fraction(1, 2)
        forms = [sk.QuadraticForm(4, {(k, k): 1}) for k in range(3)]
        return sk.QuadricSystem(sk.validate_mu(grid), (*forms, sk.QuadraticForm(4, {(0, 1): 1, (2, 3): 1})))

    def test_full_search_builds_each_prefix_set_once(self, monkeypatch):
        system = self.four_form_system()
        inputs, checks = [], []
        build, check = clifford.groebner, analyze.is_normal

        def record(alg, max_degree):
            inputs.append(alg.relations)
            return build(alg, max_degree)

        def record_check(a, gb):
            checks.append(a)
            return check(a, gb)

        monkeypatch.setattr(clifford, "groebner", record)
        monkeypatch.setattr(analyze, "is_normal", record_check)
        verdict = sk.normalizing_check(system, 4)
        assert not verdict.found and verdict.searched == 24
        # one basis per subset of the three squares, and one check of the
        # mixed form after each: the squares are normal in the skew ring, so
        # they are never checked (60 of each without the memo)
        assert len(inputs) == len(set(inputs)) == 8
        assert len(checks) == 8 and set(checks) == {system.forms[3].as_ncpoly()}

    def test_forms_reach_is_normal_as_they_are(self, ex21, monkeypatch):
        # is_normal normal-forms each form and settles a zero one; the search forms no normal form itself
        monkeypatch.setattr(clifford, "normal_form", raise_on_call)
        verdict = sk.normalizing_check(sk.quadric_system_of(ex21[2]), 6)
        assert verdict.found and verdict.order == (0, 1, 2)
        verdict = sk.normalizing_check(self.four_form_system(), 4)
        assert not verdict.found and verdict.searched == 24
        # z1^2 listed twice: the second copy is zero modulo the first
        square = sk.QuadraticForm(2, {(0, 0): 1})
        assert sk.normalizing_check(sk.QuadricSystem(sk.MuMatrix.ones(2), (square, square)), 3).found
        # z1^2 + z2^2 in the quantum plane reaches is_normal and is zero modulo z1^2, z2^2
        mu = sk.validate_mu([[1, 2], [Fraction(1, 2), 1]])
        forms = (square, sk.QuadraticForm(2, {(1, 1): 1}), sk.QuadraticForm(2, {(0, 0): 1, (1, 1): 1}))
        verdict = sk.normalizing_check(sk.QuadricSystem(mu, forms), 3)
        assert verdict.found and verdict.order == (0, 1, 2)

    def test_prefix_bases_stop_at_degree_three(self, monkeypatch):
        # is_normal of a quadric against the degree-one side reads degree 3
        bounds = []
        build = clifford.groebner

        def record(alg, max_degree):
            bounds.append(max_degree)
            return build(alg, max_degree)

        monkeypatch.setattr(clifford, "groebner", record)
        assert not sk.normalizing_check(self.four_form_system(), 10).found
        assert bounds == [3] * 8
        bounds.clear()
        with pytest.raises(DegreeBoundError, match="degree 3 exceeds completeness bound 2"):
            sk.normalizing_check(self.four_form_system(), 2)
        assert bounds == [2]


class TestNormalizingGca:
    """mu = 1: the skew ring is commutative, so every form is normal and the search builds nothing."""

    @staticmethod
    def diag3_path():
        return str(resources.files("skewclifford").joinpath("fixtures/diag3.json"))

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"groebner": 0, "is_normal": 0}
        build, check = clifford.groebner, analyze.is_normal

        def record(alg, max_degree):
            calls["groebner"] += 1
            return build(alg, max_degree)

        def record_check(a, gb):
            calls["is_normal"] += 1
            return check(a, gb)

        monkeypatch.setattr(clifford, "groebner", record)
        monkeypatch.setattr(analyze, "is_normal", record_check)
        return calls

    def test_search_builds_no_basis_and_checks_nothing(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        # forms with mixed terms, normal only because mu = 1
        pres = sk.build_gca([
            [[1, 1, 0], [1, 0, 0], [0, 0, 2]],
            [[0, 0, 1], [0, 2, 0], [1, 0, 0]],
            [[2, 0, 0], [0, 0, 1], [0, 1, 1]],
        ])
        for bound in (3, 4, 8):
            verdict = sk.normalizing_check(sk.quadric_system_of(pres), bound)
            assert verdict.found and verdict.order == (0, 1, 2) and verdict.searched == 1
        assert calls == {"groebner": 0, "is_normal": 0}

    def test_bpf_builds_one_basis(self, monkeypatch, capsys):
        calls = self.count_calls(monkeypatch)
        assert main(["bpf", self.diag3_path(), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["evidence"]["warning"] is None
        assert calls == {"groebner": 1, "is_normal": 0}

    def test_bound_two_still_raises(self):
        squares = tuple(sk.QuadraticForm(2, {(k, k): 1}) for k in range(2))
        system = sk.QuadricSystem(sk.MuMatrix.ones(2), squares)
        with pytest.raises(DegreeBoundError, match="degree 3 exceeds completeness bound 2"):
            sk.normalizing_check(system, 2)

    def test_regular_at_bound_two_exits_two(self, capsys):
        assert main(["regular", self.diag3_path(), "--max-deg", "2"]) == 2
        assert "degree 3 exceeds completeness bound 2" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_settled_systems_pass_past_the_form_cap(self, n, tmp_path, capsys):
        # more forms than MAX_PERMUTATION_FORMS, each settled by the skew-ring rule: no search runs
        assert n > clifford.MAX_PERMUTATION_FORMS
        forms = [[["2" if i == j == k else "0" for j in range(n)] for i in range(n)] for k in range(n)]
        path = tmp_path / "diag.json"
        path.write_text(json.dumps({"kind": "gca", "n": n, "forms": forms}))
        assert main(["regular", str(path), "--format", "json"]) == 0
        evidence = json.loads(capsys.readouterr().out)["evidence"]
        assert evidence["order"] == list(range(1, n + 1))
        assert evidence["hilbert_computed"] == [math.comb(n - 1 + d, d) for d in range(2 * n + 3)]

    def test_an_unsettled_form_past_the_cap_exits_two(self, tmp_path, capsys):
        # mu_12 = 2 tells z1^2 and z3^2 apart under z2, so the first form needs the search
        n = clifford.MAX_PERMUTATION_FORMS + 1
        mu = [["1"] * n for _ in range(n)]
        mu[0][1], mu[1][0] = "2", "1/2"
        forms = [[["1" if i == j == k else "0" for j in range(n)] for i in range(n)] for k in range(n)]
        forms[0][2][2] = "1"
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"kind": "gsca", "n": n, "mu": mu, "forms": forms}))
        assert main(["regular", str(path)]) == 2
        assert capsys.readouterr().err == f"error: permutation search capped at {n - 1} forms\n"


@st.composite
def quadric_systems(draw):
    """One to three forms over n = 2..4, mu random, all ones, or lambda_j / lambda_i with repeated lambdas.

    Each form is either spread over all monomials or kept on one weight
    class: monomials z_i z_j sharing the scalars mu_ig mu_jg for every g.
    """
    n = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(("random", "ones", "lambdas")))
    if kind == "lambdas":
        lambdas = st.lists(st.sampled_from((1, 2, -1)), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1)
        mu = sk.mu_from_lambdas(draw(lambdas))
    else:
        grid = [[Fraction(1)] * n for _ in range(n)]
        if kind == "random":
            for i, j in itertools.combinations(range(n), 2):
                grid[i][j] = draw(st.sampled_from(NONZERO_SMALL[::-1]))  # simplest draw not 1
                grid[j][i] = 1 / grid[i][j]
        mu = sk.validate_mu(grid)
    monomials = [(i, j) for i in range(n) for j in range(i, n)]
    classes = {}
    for i, j in monomials:
        classes.setdefault(tuple(mu[i, g] * mu[j, g] for g in range(n)), []).append((i, j))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.sampled_from(sorted(classes.values()))) if draw(st.booleans()) else monomials
        forms.append(sk.QuadraticForm(n, {ij: Fraction(draw(st.integers(-2, 2))) for ij in support}))
    return sk.QuadricSystem(mu, tuple(forms))


class TestNormalInSkewRing:
    @staticmethod
    def normal_after(system, prefix, k, max_degree):
        """`is_normal` of form k on a fresh basis of the skew ring modulo the forms in prefix."""
        quotient = sk.QuadricSystem(system.mu, tuple(system.forms[j] for j in prefix)).quotient()
        return sk.is_normal(system.forms[k].as_ncpoly(), groebner(quotient, max_degree)).normal

    def test_fires_on_a_weight_class_when_mu_is_not_one(self):
        mu = sk.mu_from_lambdas([1, 1, 2])
        assert _normal_in_skew_ring(sk.QuadraticForm(3, {(0, 0): 1, (1, 1): 1, (0, 1): 3}), mu)
        assert not _normal_in_skew_ring(sk.QuadraticForm(3, {(0, 1): 1, (2, 2): 1}), mu)

    def test_every_generator_must_scale_alike(self):
        # z1 commutes with z2 and z3, so only z2 and z3 tell z2^2 and z3^2 apart
        mu = sk.validate_mu([[1, 1, 1], [1, 1, 2], [1, Fraction(1, 2), 1]])
        q = sk.QuadraticForm(3, {(1, 1): 1, (2, 2): 1})
        assert not _normal_in_skew_ring(q, mu)
        assert not sk.normalizing_check(sk.QuadricSystem(mu, (q,)), 3).found

    def test_accepted_forms_are_normal_after_every_prefix(self):
        @settings(max_examples=60)
        @given(quadric_systems())
        def check(system):
            m = len(system.forms)
            for k, q in enumerate(system.forms):
                if not _normal_in_skew_ring(q, system.mu):
                    continue
                others = [j for j in range(m) if j != k]
                for size in range(m):
                    for prefix in itertools.combinations(others, size):
                        assert self.normal_after(system, prefix, k, 3), (k, prefix)

        check()

    def test_search_matches_brute_force(self):
        def brute_force(system, max_degree):
            # every permutation, the given order first; is_normal at each step, no memo, no rule
            m = len(system.forms)
            given_order = tuple(range(m))
            orders = [given_order] + [p for p in itertools.permutations(range(m)) if p != given_order]
            for searched, order in enumerate(orders, 1):
                if all(self.normal_after(system, order[:t], order[t], max_degree) for t in range(m)):
                    return True, order, searched
            return False, None, len(orders)

        @settings(max_examples=60)
        @given(quadric_systems(), st.sampled_from((3, 4)))
        def check(system, max_degree):
            verdict = sk.normalizing_check(system, max_degree)
            assert (verdict.found, verdict.order, verdict.searched) == brute_force(system, max_degree)

        check()


class TestBasePointFree:
    def test_worked_example(self, ex21):
        _, _, pres, _ = ex21
        verdict = sk.base_point_free_check(sk.quadric_system_of(pres), 8)
        assert verdict.base_point_free and verdict.dimension == 8

    def test_single_square_not_free(self):
        system = sk.QuadricSystem(sk.MuMatrix.ones(3), (sk.QuadraticForm(3, {(0, 0): 2}),))
        verdict = sk.base_point_free_check(system, 8)
        assert not verdict.base_point_free and verdict.dimension is None

    def test_commutative_diagonal(self):
        forms = tuple(sk.QuadraticForm(3, {(k, k): 2}) for k in range(3))
        verdict = sk.base_point_free_check(sk.QuadricSystem(sk.MuMatrix.ones(3), forms), 8)
        assert verdict.base_point_free and verdict.dimension == 8


class TestRegularity:
    def test_worked_example(self, ex21):
        _, _, pres, _ = ex21
        report = sk.regularity_verdict(pres, 7)
        assert report.regular and report.hilbert_ok and not report.hard_failure
        assert report.hilbert_computed == tuple(math.comb(2 + d, d) for d in range(8))

    def test_base_points_block_regularity(self):
        # independent symmetric matrices whose forms share the base locus z1 = 0
        pres = sk.build_gca([
            [[2, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        ])
        report = sk.regularity_verdict(pres, 6)
        assert not report.regular
        assert report.normalizing.found  # commutative, so normalizing holds
        assert not report.base_points.base_point_free
        assert report.hilbert_ok is None and not report.hard_failure

    def test_diagonal_gca_regular(self):
        pres = sk.build_gca([[[2 * (i == j == k) for j in range(3)] for i in range(3)] for k in range(3)])
        report = sk.regularity_verdict(pres, 6)
        assert report.regular
        assert report.hilbert_computed == (1, 3, 6, 10, 15, 21, 28)
