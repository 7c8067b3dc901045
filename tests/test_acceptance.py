"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value here is exact; the time budgets are part of the
criteria and are asserted alongside the results.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from importlib import resources

import skewclifford as sk
from skewclifford.analyze import (
    build_r_elements,
    default_grid,
    is_central,
    is_normal,
    normal_locus_in_span,
    subalgebra_basis,
    verify_twist_theorem,
)
from skewclifford.cli import Flags, dispatch, parse_spec
from skewclifford.freealg import LinearMap, NcPoly, parse_poly
from skewclifford.rewrite import groebner, normal_form
from skewclifford.twist import (
    DiagonalAutomorphism,
    mu_from_lambdas,
    relation_span_equal,
    twist_criterion,
    twist_presentation,
)

from conftest import NONZERO_SMALL, random_degree_one, random_gca


def fixture_path(name: str) -> str:
    return str(resources.files("skewclifford").joinpath(f"fixtures/{name}"))


def checked(number, name, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, f"took {elapsed:.2f}s, budget {budget_seconds}s"
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS  [{elapsed:.2f}s]")


def test_criterion_1_example_reconstruction():
    def body():
        spec = parse_spec(fixture_path("example21.json"))
        report = dispatch("build", spec, Flags())
        assert report.passed
        relations = {parse_poly(r, 3).monic() for r in report.evidence["relations"]}
        expected = {
            parse_poly("x1*x2 + 2*x2*x1 - x3^2", 3).monic(),
            parse_poly("x1*x3 + x3*x1", 3).monic(),
            parse_poly("x2*x3 + x3*x2", 3).monic(),
        }
        assert relations == expected
        # y_i = x_i^2, literally and as elements of the algebra
        for k in range(3):
            assert report.evidence["y_expressions"][f"y{k + 1}"] == f"x{k + 1}^2"
        gb = groebner(sk.PresentedAlgebra(3, [parse_poly(r, 3) for r in report.evidence["relations"]]), 4)
        for k in range(3):
            y = parse_poly(report.evidence["y_expressions"][f"y{k + 1}"], 3)
            assert not normal_form(y - NcPoly({(k, k): 1}), gb)

    checked(1, "example-reconstruction", 1.0, body)


def test_criterion_2_regularity_hilbert():
    def body():
        spec = parse_spec(fixture_path("example21.json"))
        report = dispatch("regular", spec, Flags(max_deg=7))
        assert report.passed
        assert report.verdicts["normalizing"] == "PASS"
        assert report.verdicts["base-point-free"] == "PASS"
        assert report.evidence["quotient_dimension"] == 8
        row = report.evidence["hilbert_computed"]
        assert row == [1, 3, 6, 10, 15, 21, 28, 36]
        assert row == [math.comb(2 + d, d) for d in range(8)]

    checked(2, "regularity-hilbert", 10.0, body)


def test_criterion_3_twist_criterion():
    def body():
        spec = parse_spec(fixture_path("example21.json"))
        report = dispatch("twist-check", spec, Flags())
        assert not report.passed
        assert report.evidence["witness"] == [1, 2, 3]
        assert report.evidence["mu_ik"] == "1" and report.evidence["mu_ij*mu_jk"] == "2"

        verdict = twist_criterion(mu_from_lambdas((1, 2, 2)))
        assert verdict.is_twist and verdict.lambdas == (1, 2, 2)

        rng = random.Random(20260301)
        for _ in range(20):
            n = rng.choice((2, 3, 4))
            lams = tuple(rng.choice(NONZERO_SMALL) for _ in range(n))
            recovered = twist_criterion(mu_from_lambdas(lams))
            assert recovered.is_twist
            for i in range(n):
                for j in range(n):
                    assert recovered.lambdas[j] / recovered.lambdas[i] == lams[j] / lams[i]

    checked(3, "twist-criterion", 1.0, body)


def test_criterion_4_central_pair_property():
    def body():
        rng = random.Random(1105)
        for _ in range(5):
            pres = random_gca(rng, 3)
            gb = pres.groebner(4)
            side = [NcPoly.generator(i) for i in range(3)]
            for _ in range(5):
                a = random_degree_one(rng, 3)
                b = random_degree_one(rng, 3)
                element = normal_form(a * b + b * a, gb)
                verdict = is_central(element, gb, side)
                assert verdict.central, f"ab+ba failed against generator {verdict.witness}"
        # the generators x1, x3 of a fresh GCA, against a bound-4 basis
        pres = random_gca(rng, 3)
        a, b = NcPoly.generator(0), NcPoly.generator(2)
        assert is_central(a * b + b * a, pres.groebner(4)).central

    checked(4, "central-pair-property", 30.0, body)


def test_criterion_5_twist_theorem_pipeline():
    def body():
        rng = random.Random(777)
        for n in (2, 3):
            grids = [[[2 * (i == j == k) for j in range(n)] for i in range(n)] for k in range(n)]
            taus = [(1, 2)] if n == 2 else [(1, 2, 2)]
            while len(taus) < 5:
                cand = tuple(rng.choice((1, 2, 3)) for _ in range(n))
                taus.append(cand)
            for lams in taus:
                report = verify_twist_theorem(grids, DiagonalAutomorphism(lams), 8)
                assert report.passed, f"n={n} lambda={lams}: {report}"
                mu = mu_from_lambdas(lams)
                for (k, i, j), scalar in report.normality_scalars.items():
                    assert scalar == mu[k, i] * mu[k, j]
                assert report.nu_cocycle
                expected = tuple(
                    math.comb(n - 1 + d // 2, d // 2) if d % 2 == 0 else 0 for d in range(9)
                )
                assert report.r_dims_computed == expected
                assert expected[:5] == (1, 0, n, 0, n * (n + 1) // 2)
                assert report.c_twist_ok
        # hand-verified instance at n=2, lambda=(1,2): r11*r22 = 16*r22*r11
        mu = mu_from_lambdas((1, 2))
        ms = [
            sk.check_mu_symmetric([[2, 0], [0, 0]], mu),
            sk.check_mu_symmetric([[0, 0], [0, 4]], mu),
        ]
        pres = sk.build_gsca(mu, ms)
        gb = pres.groebner(4)
        elems = {(r.i, r.j): r.value for r in build_r_elements(pres, DiagonalAutomorphism((1, 2)), gb)}
        lhs = normal_form(elems[(0, 0)] * elems[(1, 1)], gb)
        rhs = normal_form(elems[(1, 1)] * elems[(0, 0)], gb).scale(16)
        assert lhs == rhs and lhs
        assert mu[0, 1] ** 2 * mu[0, 1] ** 2 == 16

    checked(5, "twist-theorem-pipeline", 60.0, body)


def test_criterion_6_normal_locus():
    def body():
        spec = parse_spec(fixture_path("example21.json"))
        pres = sk.build_gsca(spec.mu, spec.forms)
        gb = pres.groebner(8)
        y = pres.y_normal_forms(gb)

        # y3 central in R through degree 8: against the R-basis in degrees 2..6
        sub = subalgebra_basis(gb, y, 6)
        side = [p for d in (2, 4, 6) for p in sub.per_degree[d]]
        assert is_central(y[2], gb, side).central

        report = normal_locus_in_span(gb, y, y, default_grid(3, 2))
        assert len(report.points) == 5**3 - 1
        for point in report.points:
            c1, c2, c3 = point.point
            if c1 or c2:
                assert not point.normal, f"{point.point} expected not-normal"
                assert point.certificate is not None, f"{point.point} missing a minor certificate"
                minor = report.minors[point.certificate]
                assert minor.poly.evaluate(point.point) != 0
            else:
                assert point.normal, f"(0,0,{c3}) expected normal"

    checked(6, "normal-locus", 60.0, body)


def test_criterion_7_twist_engine_invariants():
    def body():
        spec = parse_spec(fixture_path("example21.json"))
        alg = sk.build_gsca(spec.mu, spec.forms).presentation()
        identity = DiagonalAutomorphism((1, 1, 1))
        assert relation_span_equal(twist_presentation(alg, identity).relations, alg.relations, 3)

        rng = random.Random(4242)
        for _ in range(5):
            while True:
                rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
                phi = LinearMap.from_rows(rows)
                try:
                    phi.inverse()
                    break
                except ValueError:
                    continue
            round_trip = twist_presentation(twist_presentation(alg, phi), phi.inverse())
            assert relation_span_equal(round_trip.relations, alg.relations, 3)

        commutative = sk.build_skew_ring(sk.MuMatrix.ones(3))
        for _ in range(5):
            lams = tuple(rng.choice(NONZERO_SMALL) for _ in range(3))
            tau = DiagonalAutomorphism(lams)
            twisted = twist_presentation(commutative, tau.inverse())
            skew = sk.build_skew_ring(mu_from_lambdas(lams))
            assert relation_span_equal(twisted.relations, skew.relations, 3)

    checked(7, "twist-engine-invariants", 5.0, body)


def test_criterion_8_form_matrix_round_trip():
    def body():
        from conftest import random_mu, random_mu_symmetric
        from oracles import form_matrix

        rng = random.Random(808)
        for n in (3, 4):
            for _ in range(3):
                mu = random_mu(rng, n)
                for _ in range(20):
                    m = random_mu_symmetric(rng, mu)
                    q = sk.quadratic_form_of(m)
                    back = sk.check_mu_symmetric(form_matrix(mu.entries, q.coeffs), mu)
                    assert back == m
                    assert sk.quadratic_form_of(back) == q

    checked(8, "form-matrix-round-trip", 1.0, body)


def test_criterion_9_commutative_hilbert_oracle():
    def body():
        for n in range(1, 5):
            ring = sk.build_skew_ring(sk.MuMatrix.ones(n))
            gb = groebner(ring, 8)
            coeffs = sk.hilbert_coeffs(gb, 8)
            assert coeffs == [math.comb(n - 1 + d, d) for d in range(9)]

    checked(9, "commutative-hilbert-oracle", 5.0, body)
