import math
import random
from fractions import Fraction

import pytest

import skewclifford as sk
from skewclifford import analyze, clifford
from skewclifford.clifford import _pair_expression
from skewclifford.freealg import NcPoly
from skewclifford.rewrite import PresentedAlgebra, groebner, normal_form

from conftest import example21_matrices, example21_mu, random_gca, random_mu, random_mu_symmetric


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
        q = sk.QuadraticForm(3, {(0, 1): 2, (2, 2): 2})
        assert sk.matrix_of_form(q, mu) == example21_matrices(mu)[2]
        assert sk.matrix_of_form(sk.QuadraticForm(3, {}), mu).entries == tuple((Fraction(0),) * 3 for _ in range(3))
        assert sk.matrix_of_form(sk.QuadraticForm(3, {(0, 0): 2}), mu) == example21_matrices(mu)[0]

    def test_round_trip_random(self):
        rng = random.Random(41)
        for n in (3, 4):
            for _ in range(3):
                mu = random_mu(rng, n)
                for _ in range(20):
                    m = random_mu_symmetric(rng, mu)
                    assert sk.matrix_of_form(sk.quadratic_form_of(m), mu) == m

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
    def diag3(self):
        return sk.build_gca([[[2 * (i == j == k) for j in range(3)] for i in range(3)] for k in range(3)])

    def test_anticommuting_pair(self):
        verdict = sk.check_gca_centrality(self.diag3(), NcPoly.generator(0), NcPoly.generator(1), 4)
        assert verdict.central

    def test_square(self):
        verdict = sk.check_gca_centrality(self.diag3(), NcPoly.generator(0), NcPoly.generator(0), 4)
        assert verdict.central

    def test_random_valid_gcas(self):
        rng = random.Random(2026)
        for _ in range(3):
            pres = random_gca(rng, 3)
            a = NcPoly({(i,): Fraction(rng.randint(-2, 2)) for i in range(3)})
            b = NcPoly({(i,): Fraction(rng.randint(-2, 2)) for i in range(3)})
            if not a or not b:
                continue
            assert sk.check_gca_centrality(pres, a, b, 4).central

    def test_requires_ones_mu(self):
        mu = example21_mu()
        pres = sk.build_gsca(mu, example21_matrices(mu))
        with pytest.raises(ValueError, match="mu = 1"):
            sk.check_gca_centrality(pres, NcPoly.generator(0), NcPoly.generator(1), 4)


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

    def test_full_search_builds_each_prefix_set_once(self, monkeypatch):
        # squares stay normal, and z1*z2 + z3*z4 is not normal since
        # mu_14 * mu_24 != mu_34, so all 4! orders fail at the mixed form
        grid = [[Fraction(1)] * 4 for _ in range(4)]
        grid[0][3], grid[3][0] = Fraction(2), Fraction(1, 2)
        forms = [sk.QuadraticForm(4, {(k, k): 1}) for k in range(3)]
        system = sk.QuadricSystem(sk.validate_mu(grid), (*forms, sk.QuadraticForm(4, {(0, 1): 1, (2, 3): 1})))
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
        # one basis per subset of the three squares and one check per
        # (subset, next form) pair: 60 of each without the memo
        assert len(inputs) == len(set(inputs)) == 8
        assert len(checks) == 20


class TestBasePointFree:
    def test_worked_example(self, ex21):
        _, _, pres, _ = ex21
        verdict = sk.base_point_free_check(sk.quadric_system_of(pres), 8)
        assert verdict.base_point_free and verdict.dimension == 8 and verdict.warning is None

    def test_single_square_not_free(self):
        system = sk.QuadricSystem(sk.MuMatrix.ones(3), (sk.QuadraticForm(3, {(0, 0): 2}),))
        verdict = sk.base_point_free_check(system, 8)
        assert not verdict.base_point_free and verdict.dimension is None

    def test_commutative_diagonal(self):
        forms = tuple(sk.QuadraticForm(3, {(k, k): 2}) for k in range(3))
        verdict = sk.base_point_free_check(sk.QuadricSystem(sk.MuMatrix.ones(3), forms), 8)
        assert verdict.base_point_free and verdict.dimension == 8

    def test_warning_without_normalizing(self):
        mu = sk.validate_mu([[1, 2], [Fraction(1, 2), 1]])
        system = sk.QuadricSystem(mu, (sk.QuadraticForm(2, {(0, 0): 1, (1, 1): 1}),))
        verdict = sk.base_point_free_check(system, 6)
        assert verdict.warning is not None
        assert sk.base_point_free_check(system, 6, assume_normalizing=True).warning is None


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
