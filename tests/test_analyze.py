import itertools
import json
import math
import random
import time
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import skewclifford as sk
import skewclifford.analyze as analyze_module
import skewclifford.rewrite as rewrite_module
from skewclifford.analyze import (
    GRID_POINT_CAP,
    build_r_elements,
    default_grid,
    is_central,
    is_normal,
    normal_locus_in_span,
    nu_cocycle_holds,
    subalgebra_basis,
    verify_twist_from_gsca,
    verify_twist_theorem,
)
from skewclifford.cli import main
from skewclifford.exact import ParamPoly
from skewclifford.freealg import NcPoly
from skewclifford.clifford import _pair_expression
from skewclifford.rewrite import DegreeBoundError, PresentedAlgebra, groebner, normal_form
from skewclifford.twist import DiagonalAutomorphism, mu_from_lambdas, twist_presentation

from conftest import (
    MIXED_LAMBDAS,
    NONZERO_SMALL,
    TAU_STABLE_RECIPES,
    example21_matrices,
    example21_mu,
    random_gca,
    random_mu,
    random_mu_symmetric,
    tau_stable_gca,
)
from oracles import full_growth, leibniz_det, local_rank, naive_reduce, nu_cocycle_cubic, pair_elements, twist_pair_clauses


def quantum_pair():
    """The n = 2 twisted diagonal case: mu_12 = 2, relation x1*x2 + 2*x2*x1."""
    mu = mu_from_lambdas((1, 2))
    ms = [
        sk.check_mu_symmetric([[2, 0], [0, 0]], mu),
        sk.check_mu_symmetric([[0, 0], [0, 4]], mu),
    ]
    return sk.build_gsca(mu, ms)


def diag_grids(n):
    return [[[2 * (i == j == k) for j in range(n)] for i in range(n)] for k in range(n)]


class TestIsNormal:
    def test_x3_in_worked_example(self, ex21):
        _, _, _, gb = ex21
        verdict = is_normal(NcPoly.generator(2), gb)
        assert verdict.normal
        # x1*x3 = -x3*x1 and x2*x3 = -x3*x2
        assert verdict.left[0] == (-1, 0, 0)
        assert verdict.left[1] == (0, -1, 0)
        assert verdict.right[0] == (-1, 0, 0)

    def test_linear_form_in_commutative_ring(self):
        gb = groebner(sk.build_skew_ring(sk.MuMatrix.ones(2)), 4)
        verdict = is_normal(NcPoly({(0,): 1, (1,): 1}), gb)
        assert verdict.normal

    def test_r22_scalar_is_mu_squared(self):
        pres = quantum_pair()
        gb = pres.groebner(4)
        r22 = NcPoly({(1, 1): 4})
        verdict = is_normal(r22, gb)
        assert verdict.normal
        assert verdict.left[0] == (4, 0)  # x1*r22 = 4*r22*x1
        assert verdict.right[0] == (Fraction(1, 4), 0)

    def test_not_normal_witness(self):
        # x1 + x2 in the quantum plane is not normal
        gb = groebner(sk.build_skew_ring(mu_from_lambdas((1, 2))), 4)
        verdict = is_normal(NcPoly({(0,): 1, (1,): 1}), gb)
        assert not verdict.normal
        assert verdict.witness is not None

    def test_scaling_invariance(self, ex21):
        _, _, _, gb = ex21
        base = is_normal(NcPoly.generator(2), gb)
        scaled = is_normal(NcPoly.generator(2).scale(Fraction(-7, 3)), gb)
        assert scaled.normal and scaled.left == base.left and scaled.right == base.right

    def test_central_gives_unit_scalars(self):
        gb = groebner(sk.build_skew_ring(sk.MuMatrix.ones(3)), 4)
        p = NcPoly({(0,): 2, (2,): -1})
        verdict = is_normal(p, gb)
        assert verdict.normal
        for g in range(3):
            unit = tuple(Fraction(1) if h == g else Fraction(0) for h in range(3))
            assert verdict.left[g] == unit and verdict.right[g] == unit

    def test_zero_is_normal(self, ex21):
        _, _, _, gb = ex21
        assert is_normal(NcPoly.zero(), gb).normal

    def test_degree_bound(self, ex21):
        _, _, pres, _ = ex21
        gb = pres.groebner(2)
        with pytest.raises(DegreeBoundError):
            is_normal(NcPoly.generator(0) * NcPoly.generator(1), gb)

    def test_mixed_degree_sides_agree_with_per_degree_calls(self, ex21):
        """One call on a shuffled side of x's and y's equals one call per degree, spread over the side.

        The witness is the lowest failing side index, left before right.
        """
        rng = random.Random(0)
        seen = set()
        diag3 = sk.build_gca(diag_grids(3))
        for pres in (ex21[2], diag3, quantum_pair(), seeded_gsca(1, 3, NONZERO_SMALL)):
            gb = pres.groebner(4)
            x = [NcPoly.generator(i) for i in range(pres.n)]
            y = [v for v in pres.y_normal_forms(gb) if v]
            for a in [*x, *y]:
                for _ in range(3):
                    side = [*x, *y]
                    rng.shuffle(side)
                    verdict = is_normal(a, gb, side)
                    groups = {}
                    for i, g in enumerate(side):
                        groups.setdefault(g.homogeneous_degree(), []).append(i)
                    parts = [(idx, is_normal(a, gb, [side[i] for i in idx])) for idx in groups.values()]
                    # (side index, containment) of each degree's witness, in degree-group order
                    failing = [(idx[v.witness[1]], v.witness[0]) for idx, v in parts if not v.normal]
                    assert verdict.normal == (not failing)
                    if failing:
                        index, containment = min(failing)
                        assert verdict.witness == (containment, index)
                        seen.add("lowest first" if index != failing[0][0] else "not normal")
                        continue
                    seen.add("normal")
                    for idx, v in parts:
                        for pos, g in enumerate(idx):
                            for full, part in ((verdict.left, v.left), (verdict.right, v.right)):
                                row = [Fraction(0)] * len(side)
                                for q, h in enumerate(idx):
                                    row[h] = part[pos][q]
                                assert full[g] == tuple(row)
        # "lowest first": the degree-group order would name another witness
        assert seen == {"normal", "not normal", "lowest first"}


class TestIsCentral:
    def test_y3_central_in_r(self, ex21):
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        assert is_central(y[2], gb, y).central

    def test_unit_central(self, ex21):
        _, _, _, gb = ex21
        assert is_central(NcPoly.one(), gb).central

    def test_y_central_in_ambient_gca(self):
        rng = random.Random(123)
        pres = random_gca(rng, 3)
        gb = pres.groebner(4)
        for y in pres.y_normal_forms(gb):
            assert is_central(y, gb).central

    def test_x1_not_central_in_worked_example(self, ex21):
        _, _, _, gb = ex21
        verdict = is_central(NcPoly.generator(0), gb)
        assert not verdict.central and verdict.witness is not None

    def test_central_implies_normal_with_unit_scalars(self, ex21):
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        assert is_central(y[2], gb, y).central
        verdict = is_normal(y[2], gb, y)
        assert verdict.normal
        for g in range(3):
            unit = tuple(Fraction(1) if h == g else Fraction(0) for h in range(3))
            assert verdict.left[g] == unit and verdict.right[g] == unit


# x1^2 and x2^2 in the free algebra on two letters, through 6: they do not q-commute
FREE_SQUARES = (sk.PresentedAlgebra(2, []), [NcPoly({(0, 0): 1}), NcPoly({(1, 1): 1})], 6)
# the same modulo x1 x2 = 0: g1 g2 = 0 but g2 g1 != 0, so they do not q-commute either
ZERO_ONE_WAY = (sk.PresentedAlgebra(2, [NcPoly({(0, 1): 1})]), FREE_SQUARES[1], 6)


@st.composite
def subalgebra_inputs(draw):
    """(twisted algebra A, degree-2 generators, bound) for `subalgebra_basis`.

    B is diagonal, tau-stable (`tau_stable_gca`, both recipes, lambdas with
    mixed classes), or triangular with a seeded tau that need not be an
    automorphism of B.  A is the twist of B by tau, and the generators are
    the squares r_kk or all pair elements r_ij = lambda_i x_i x_j + lambda_j
    x_j x_i (dependent once there are more than n), perhaps with a zero
    generator or a repeated one put in.
    """
    n = draw(st.sampled_from((4, 3, 2)))
    kind = draw(st.sampled_from(("diagonal", "block-triangular", "dense", "triangular")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lams = tuple(draw(st.sampled_from(MIXED_LAMBDAS if kind in TAU_STABLE_RECIPES else NONZERO_SMALL)) for _ in range(n))
    if kind == "diagonal":
        grids = diag_grids(n)
    elif kind == "triangular":  # one block: perfbench's triangular recipe
        grids = tau_stable_gca(rng, (1,) * n, "block-triangular")
    else:
        grids = tau_stable_gca(rng, lams, kind)
    try:
        B = sk.build_gca(grids)
    except ValueError:  # dependent forms
        assume(False)
    alg = twist_presentation(B.presentation(), DiagonalAutomorphism(lams))
    x = NcPoly.generator
    pairs = [(i, i) for i in range(n)] if draw(st.booleans()) else [(i, j) for i in range(n) for j in range(i, n)]
    generators = [x(i) * x(j) * lams[i] + x(j) * x(i) * lams[j] for i, j in pairs]
    extra = draw(st.sampled_from(("none", "zero", "repeat")))
    if extra != "none":
        at = draw(st.integers(0, len(generators)))
        generators.insert(at, NcPoly.zero() if extra == "zero" else generators[draw(st.integers(0, len(generators) - 1))].scale(2))
    return alg, generators, draw(st.sampled_from((8, 6, 4)))


class TestSubalgebraBasis:
    def test_worked_example_degree_two(self, ex21):
        _, _, pres, gb = ex21
        sub = subalgebra_basis(gb, pres.y_normal_forms(gb), 2)
        assert len(sub.per_degree[2]) == 3
        assert sub.per_degree[0] == [NcPoly.one()]
        assert sub.per_degree[1] == []

    def test_quantum_pair_degree_four(self):
        pres = quantum_pair()
        gb = pres.groebner(6)
        sub = subalgebra_basis(gb, pres.y_normal_forms(gb), 4)
        assert len(sub.per_degree[4]) == 3  # coefficient of t^4 in 1/(1-t^2)^2

    def test_monotone_under_more_generators(self, ex21):
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        small = subalgebra_basis(gb, y[:2], 6).dims()
        large = subalgebra_basis(gb, y, 6).dims()
        assert all(a <= b for a, b in zip(small, large))

    def test_work_grows_with_the_chosen_basis(self, monkeypatch):
        # products are formed only from the chosen lower-degree basis, and the
        # diagonal generators q-commute, so from degree 6 on only sorted words:
        # 5 generator normal forms, 5 at degree 2, 5 * 5 at degree 4, then the
        # sorted words C(7, 3) = 35, C(8, 4) = 70 and C(9, 5) = 126 at degrees
        # 6, 8 and 10 (full growth forms 5 + 5 * (1 + 5 + 15 + 35 + 70) = 635)
        pres = sk.build_gca(diag_grids(5))
        gb = pres.groebner(10)
        y = pres.y_normal_forms(gb)
        calls = []

        def counting(p, gb):
            calls.append(p)
            return normal_form(p, gb)

        monkeypatch.setattr(analyze_module, "normal_form", counting)
        sub = subalgebra_basis(gb, y, 10)
        assert len(calls) == 5 + 5 + 25 + 35 + 70 + 126
        assert sub.dims() == (1, 0, 5, 0, 15, 0, 35, 0, 70, 0, 126)

    def test_zero_generators_skipped(self, ex21):
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        with_zero = subalgebra_basis(gb, [NcPoly.zero()] + y, 4)
        without = subalgebra_basis(gb, y, 4)
        assert with_zero.dims() == without.dims()

    def test_equals_full_growth(self, monkeypatch):
        outcomes = set()
        original = analyze_module._q_commute
        monkeypatch.setattr(analyze_module, "_q_commute", lambda *a: outcomes.add(verdict := original(*a)) or verdict)

        @settings(max_examples=60)
        @given(subalgebra_inputs())
        @example(FREE_SQUARES)
        @example(ZERO_ONE_WAY)
        def check(data):
            alg, generators, through = data
            gb = groebner(alg, through)
            sub = subalgebra_basis(gb, generators, through)
            assert sub.per_degree == full_growth(gb.elements, generators, through)

        check()
        assert outcomes == {True, False}

    def test_generators_that_do_not_q_commute_grow_in_full(self):
        # x1^2 and x2^2 in the free algebra: all 2^m words are independent,
        # where sorted words alone would give m + 1
        alg, generators, through = FREE_SQUARES
        gb = groebner(alg, through)
        pairs = {(a, b): normal_form(generators[a] * generators[b], gb) for a in range(2) for b in range(2)}
        assert not analyze_module._q_commute(generators, pairs, gb)
        assert subalgebra_basis(gb, generators, through).dims() == (1, 0, 2, 0, 4, 0, 8)

    def test_q_commutation_takes_zero_scalars_and_dependent_generators(self, monkeypatch):
        # modulo x2 x1 = 0, g = (x1^2, 2 x1^2, x2^2) has g2 g1 = g1 g2,
        # g3 g1 = 0 * g1 g3 and g3 g2 = 0 * g2 g3; g2 is not chosen at degree
        # 2, so the test normal-forms its pairs itself
        alg = sk.PresentedAlgebra(2, [NcPoly({(1, 0): 1})])
        gb = groebner(alg, 8)
        g = [NcPoly({(0, 0): 1}), NcPoly({(0, 0): 2}), NcPoly({(1, 1): 1})]
        outcomes = []
        original = analyze_module._q_commute
        monkeypatch.setattr(analyze_module, "_q_commute", lambda *a: outcomes.append(verdict := original(*a)) or verdict)
        sub = subalgebra_basis(gb, g, 8)
        assert outcomes == [True]
        assert sub.per_degree == full_growth(gb.elements, g, 8)
        assert sub.dims() == (1, 0, 2, 0, 3, 0, 4, 0, 5)
        # a zero product must be matched by a zero product: with the dependent
        # generator last, g3 g2 = 2 x1^2 x2^2 while g2 g3 = 0
        assert not original([g[0], g[2], g[1]], {}, gb)

    def test_products_formed_on_a_tau_stable_spec(self, monkeypatch):
        # A = the twist of block-triangular tau-stable B at lambda = (1, 1, 1, 3, 3),
        # through 12: R is a polynomial ring in the 5 y's, so after 5 generator
        # normal forms, 5 at degree 2 and 5 * 5 at degree 4, each degree forms
        # its sorted words, C(7, 3) = 35, C(8, 4) = 70, C(9, 5) = 126 and
        # C(10, 6) = 210 (full growth: 5 + 5 * (1 + 5 + 15 + 35 + 70 + 126) = 1,265)
        lams = (1, 1, 1, 3, 3)
        mu = mu_from_lambdas(lams)
        grids = tau_stable_gca(random.Random(1), lams, "block-triangular")
        A = sk.build_gsca(mu, [sk.check_mu_symmetric([[lams[j] * g[i][j] for j in range(5)] for i in range(5)], mu) for g in grids])
        gb = A.groebner(12)
        y = A.y_normal_forms(gb)
        calls = []
        monkeypatch.setattr(analyze_module, "normal_form", lambda *a: calls.append(1) or normal_form(*a))
        sub = subalgebra_basis(gb, y, 12)
        assert sub.dims() == (1, 0, 5, 0, 15, 0, 35, 0, 70, 0, 126, 0, 210)
        assert len(calls) == 5 + 5 + 25 + 35 + 70 + 126 + 210


class TestNormalLocus:
    def test_worked_example_grid_points(self, ex21):
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        grid = [
            (Fraction(0), Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(-2)),
        ]
        report = normal_locus_in_span(gb, y, y, grid)
        by_point = {p.point: p for p in report.points}
        assert by_point[(0, 0, 1)].normal
        assert by_point[(0, 0, -2)].normal
        bad = by_point[(1, 0, 0)]
        assert not bad.normal and bad.certificate is not None
        cert = report.minors[bad.certificate]
        assert cert.poly.evaluate((1, 0, 0)) != 0

    def test_single_normal_generator_span(self, ex21):
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        report = normal_locus_in_span(gb, [y[2]], y, [(Fraction(c),) for c in (-2, -1, 1, 2)])
        assert all(p.normal for p in report.points)

    def test_grid_points_of_wrong_length_are_rejected(self, ex21):
        diag3 = sk.build_gca(diag_grids(3))
        for pres, gb in ((diag3, diag3.groebner(4)), ex21[2:]):
            y = pres.y_normal_forms(gb)
            with pytest.raises(ValueError, match="wrong number of parameter values"):
                normal_locus_in_span(gb, y, y, [(Fraction(1),), (1, 2, 3, 4)])

    def test_default_grid_shape(self):
        grid = default_grid(2, 1)
        assert len(grid) == 8 and (0, 0) not in grid

    @pytest.mark.parametrize("radius", [0, -1])
    def test_default_grid_rejects_radius_below_one(self, radius):
        with pytest.raises(ValueError, match="radius"):
            default_grid(2, radius)

    def test_default_grid_counts_its_points_before_listing_them(self, monkeypatch):
        # 5^16 - 1 tuples would never be listed: the count is refused first
        def no_product(*args, **kwargs):
            raise AssertionError("a grid point was built")

        monkeypatch.setattr(analyze_module.itertools, "product", no_product)
        with pytest.raises(ValueError, match=f"152587890624 points, above the cap of {GRID_POINT_CAP}"):
            default_grid(16, 2)

    def test_rows_come_from_the_products_not_the_word_basis(self, ex21, monkeypatch):
        # count degree_basis at every binding a caller could reach it by
        calls = []
        for module in (sk, analyze_module, rewrite_module):
            original = getattr(module, "degree_basis", None)
            if original is not None:
                monkeypatch.setattr(module, "degree_basis", lambda *a, _f=original: calls.append(a) or _f(*a))
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        report = normal_locus_in_span(gb, y, y, default_grid(3, 1), every_minor=True)
        assert calls == []
        assert len(report.minors) == 308


def element_at(point, gens):
    a = NcPoly.zero()
    for c, g in zip(point, gens):
        a = a + g.scale(c)
    return a


def seeded_gsca(seed, n, mu_values):
    """A GSCA whose off-diagonal mu entries are drawn from mu_values, and random mu-symmetric forms."""
    rng = random.Random(seed)
    while True:
        grid = [[Fraction(1)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.choice(mu_values))
                grid[i][j], grid[j][i] = v, 1 / v
        mu = sk.validate_mu(grid)
        try:
            return sk.build_gsca(mu, [random_mu_symmetric(rng, mu) for _ in range(n)])
        except ValueError:
            continue


class TestLocusPointVerdicts:
    """Every point verdict equals is_normal at that point, which the locus no longer calls."""

    def verdicts_match(self, gb, gens, side, grid, monkeypatch):
        """Run the locus with is_normal counted (monkeypatch is undone after it), then compare."""
        calls = []
        monkeypatch.setattr(analyze_module, "is_normal", lambda *a, **k: calls.append(a) or is_normal(*a, **k))
        report = normal_locus_in_span(gb, gens, side, grid)
        monkeypatch.undo()
        assert calls == []
        kinds = set()
        for p in report.points:
            expected = is_normal(element_at(p.point, gens), gb, side)
            assert p.normal == expected.normal, p.point
            kinds.add((p.certificate is not None, expected.witness[0] if expected.witness else None))
        return kinds

    def test_worked_example_radius_two(self, ex21, monkeypatch):
        _, _, pres, gb = ex21
        y = pres.y_normal_forms(gb)
        kinds = self.verdicts_match(gb, y, y, default_grid(3, 2), monkeypatch)
        assert kinds == {(True, "left"), (False, None)}

    def test_seeded_gscas(self, monkeypatch):
        kinds = set()
        x = [NcPoly.generator(i) for i in range(3)]
        for pres in [seeded_gsca(seed, 3, NONZERO_SMALL) for seed in range(3)] + [random_gca(random.Random(5))]:
            gb = pres.groebner(6)
            y = pres.y_normal_forms(gb)
            kinds |= self.verdicts_match(gb, y, y, default_grid(3, 1), monkeypatch)
            kinds |= self.verdicts_match(gb, y, x, default_grid(3, 1), monkeypatch)
        # mu entries +-1 leave points where every minor vanishes and yet a is
        # not normal, failing either containment
        for n, seed in ((2, 30), (2, 33), (2, 40), (3, 53)):
            pres = seeded_gsca(seed, n, (1, -1, 1, -1, 2, Fraction(1, 2)))
            gb = pres.groebner(2 * n + 2)
            y = pres.y_normal_forms(gb)
            kinds |= self.verdicts_match(gb, y, y, default_grid(n, 1), monkeypatch)
        assert kinds == {(True, "left"), (False, None), (False, "left"), (False, "right")}


class TestLocusColumnTest:
    """Families settled by the column test are exactly those the rule names, and none hides a nonzero minor."""

    @staticmethod
    def families(gb, gens, side):
        """Each containment family's columns and augmented column, as {word: ParamPoly} maps, built here.

        Left family g: columns a * side[h], augmented side[g] * a; right: the mirror.
        """
        m = len(gens)
        variables = tuple(f"c{k + 1}" for k in range(m))
        units = [tuple(int(t == k) for t in range(m)) for k in range(m)]

        def column(products):
            entries = {}
            for k, p in enumerate(products):
                for w, c in normal_form(p, gb).terms.items():
                    entries.setdefault(w, {})[units[k]] = c
            return {w: ParamPoly(variables, terms) for w, terms in entries.items()}

        a_side = [column([g * h for g in gens]) for h in side]
        side_a = [column([h * g for g in gens]) for h in side]
        return {
            (name, g): [*cols, augs[g]]
            for name, cols, augs in (("left", a_side, side_a), ("right", side_a, a_side))
            for g in range(len(side))
        }

    @staticmethod
    def branch(columns, m):
        """The column test on dense rational vectors over (word, k), ranked by the oracle."""
        keys = sorted({(w, k) for col in columns for w, p in col.items() for k in range(m) if p.terms})
        units = [tuple(int(t == k) for t in range(m)) for k in range(m)]
        dense = [[col[w].terms.get(units[k], 0) if w in col else 0 for (w, k) in keys] for col in columns]
        s = len(columns) - 1
        if local_rank(dense) == local_rank(dense[:s]):
            return "contained"
        return "dependent" if local_rank(dense[:s]) < s else "expanded"

    @staticmethod
    def case(kind, seed, n, side_kind):
        rng = random.Random(seed)
        if kind == "gca":
            pres = random_gca(rng, n)
        else:
            pres = seeded_gsca(seed, n, (1, -1, 2, Fraction(1, 2), 3))
        gb = pres.groebner(4)
        y = pres.y_normal_forms(gb)
        side = {
            "x": [NcPoly.generator(i) for i in range(n)],
            "y": y,
            "repeat": y + [y[rng.randrange(n)]],
            "zero": y + [NcPoly.zero()],
        }[side_kind]
        return gb, y, side

    # n = 3 only on a GSCA with the x side (degree 3, at most 10 rows): a
    # skipped n = 3 family with the y side has up to 15 rows, and the oracle
    # then takes seconds per family
    SOUNDNESS_SHAPES = [
        *((kind, 2, side_kind) for kind in ("gca", "gsca") for side_kind in ("x", "y", "repeat", "zero")),
        ("gsca", 3, "x"),
    ]

    def test_column_test_is_sound(self, monkeypatch):
        seen = set()

        @settings(max_examples=25)
        @given(
            st.sampled_from(self.SOUNDNESS_SHAPES),
            st.integers(0, 50),
        )
        def check(shape, seed):
            kind, n, side_kind = shape
            gb, y, side = self.case(kind, seed, n, side_kind)
            grid = default_grid(n, 1)
            families = self.families(gb, y, side)
            branches = {key: self.branch(cols, n) for key, cols in families.items()}
            s = len(side)
            expanded = 0
            for key, cols in families.items():
                rows = [[col.get(w, 0) for col in cols] for w in sorted({w for col in cols for w in col})]
                if branches[key] == "expanded":
                    expanded += len(rows) >= s + 1
                    continue
                # every (s + 1)-minor over the nonzero rows; a minor on a zero row is zero
                for rsub in itertools.combinations(rows, s + 1):
                    assert leibniz_det(rsub, n) == {}, (key, branches[key])
            calls = []
            original = analyze_module.parametric_minors
            monkeypatch.setattr(analyze_module, "parametric_minors", lambda *a: calls.append(1) or original(*a))
            try:
                if side_kind == "zero":
                    with pytest.raises(ValueError, match="side basis elements must be nonzero"):
                        normal_locus_in_span(gb, y, side, grid, every_minor=True)
                    report = None
                else:
                    report = normal_locus_in_span(gb, y, side, grid, every_minor=True)
            finally:
                monkeypatch.undo()
            assert len(calls) == expanded
            if report is not None:
                for p in report.points:
                    assert p.normal == is_normal(element_at(p.point, y), gb, side).normal, p.point
            seen.update(branches.values())
            if all(b == "contained" for b in branches.values()):
                seen.add(("all contained", side_kind == "zero"))

        check()
        assert {"contained", "dependent", "expanded", ("all contained", True), ("all contained", False)} <= seen

    def test_minors_are_every_nonzero_minor_over_every_word(self):
        """The minor list is, family by family, every nonzero (s+1)-minor over all rows, by the oracle.

        A one-generator span with the x side gives augmented columns that
        hold words no column holds, so those rows carry minors too.
        """
        extra_rows = 0
        for kind in ("gca", "gsca"):
            for n in (2, 3):
                for seed in range(3):
                    rng = random.Random(seed)
                    pres = random_gca(rng, n) if kind == "gca" else seeded_gsca(seed, n, (1, -1, 2, Fraction(1, 2), 3))
                    gb = pres.groebner(3)
                    x = [NcPoly.generator(i) for i in range(n)]
                    for gens in (x, x[:1]):
                        m = len(gens)
                        expected = []
                        for (name, g), cols in self.families(gb, gens, x).items():
                            extra_rows += bool(set(cols[n]) - {w for col in cols[:n] for w in col})
                            rows = [[col.get(w, 0) for col in cols] for w in sorted({w for col in cols for w in col})]
                            for rsub in itertools.combinations(rows, n + 1):
                                det = leibniz_det(rsub, m)
                                if det:
                                    expected.append((name, g, det))
                        report = normal_locus_in_span(gb, gens, x, default_grid(m, 1), every_minor=True)
                        assert [(r.side, r.g_index, r.poly.terms) for r in report.minors] == expected
        assert extra_rows


class TestLocusCertificateMinors:
    """The default minor list, built on demand, against the exhaustive one (`every_minor=True`)."""

    def test_certificates_agree_with_the_exhaustive_list(self):
        seen = set()

        # mu entries +-1 leave points where a is not normal and every minor
        # vanishes (see TestLocusPointVerdicts); these draws reach them
        signs = (1, -1, 1, -1, 2, Fraction(1, 2))
        half = [Fraction(1, 2), Fraction(-1), Fraction(1)]

        @settings(max_examples=30)
        @given(
            st.integers(2, 3),
            st.integers(0, 60),
            st.sampled_from([(1, -1, 2, Fraction(1, 2), 3), signs]),
            st.sampled_from(["y", "x"]),
            st.lists(st.fractions(-3, 3, max_denominator=4), min_size=3, max_size=3),
        )
        @example(2, 30, signs, "y", half)
        @example(3, 53, signs, "y", half)
        def check(n, seed, mu_values, side_kind, extra):
            # one grid point off the integers, after the radius-1 grid
            assume(any(v.denominator > 1 for v in extra[:n]))
            pres = seeded_gsca(seed, n, mu_values)
            gb = pres.groebner(4)
            y = pres.y_normal_forms(gb)
            side = y if side_kind == "y" else [NcPoly.generator(i) for i in range(n)]
            grid = default_grid(n, 1) + [tuple(extra[:n])]
            default = normal_locus_in_span(gb, y, side, grid)
            every = normal_locus_in_span(gb, y, side, grid, every_minor=True)
            assert [p.point for p in default.points] == [p.point for p in every.points]
            assert [p.normal for p in default.points] == [p.normal for p in every.points]
            assert [p.certificate is None for p in default.points] == [p.certificate is None for p in every.points]
            exhaustive = [(r.side, r.g_index, r.poly) for r in every.minors]
            assert all((r.side, r.g_index, r.poly) in exhaustive for r in default.minors)
            for p in default.points:
                nonzero = [idx for idx, r in enumerate(default.minors) if r.poly.evaluate(p.point)]
                assert p.certificate == (nonzero[0] if nonzero else None), p.point
            assert {p.certificate for p in default.points} - {None} == set(range(len(default.minors)))
            if default.minors:
                seen.add("listed")
            if any(not p.normal and p.certificate is None for p in default.points):
                seen.add("not normal without a certificate")
            if not default.points[-1].normal:
                seen.add("off-integer point not normal")

        check()
        assert seen == {"listed", "not normal without a certificate", "off-integer point not normal"}

    @pytest.mark.parametrize(("name", "count", "every"), [("example21.json", 4, 308), ("qplane3.json", 2, 50)])
    def test_fixture_minor_counts(self, name, count, every, monkeypatch, capsys):
        """One parametric_minors call per listed minor by default; the exhaustive count behind --every-minor."""
        path = str(resources.files("skewclifford").joinpath(f"fixtures/{name}"))
        calls = []
        original = analyze_module.parametric_minors
        monkeypatch.setattr(analyze_module, "parametric_minors", lambda *a: calls.append(1) or original(*a))
        counts = []
        for flags in ([], ["--every-minor"]):
            assert main(["normal-locus", path, "--grid", "1", "--format", "json", *flags]) == 0
            counts.append(json.loads(capsys.readouterr().out)["evidence"]["minor_count"])
            if not flags:
                assert len(calls) == count
        assert counts == [count, every]


class TestRElements:
    def test_quantum_pair_values(self):
        pres = quantum_pair()
        tau = DiagonalAutomorphism((1, 2))
        elems = {(r.i, r.j): r for r in build_r_elements(pres, tau)}
        assert elems[(0, 0)].value == NcPoly({(0, 0): 2})
        assert elems[(1, 1)].value == NcPoly({(1, 1): 4})
        assert elems[(0, 1)].is_zero  # the defining relation kills x1*x2 + 2*x2*x1

    def test_identity_tau_gives_anticommutators(self):
        pres = sk.build_gca(diag_grids(3))
        tau = DiagonalAutomorphism((1, 1, 1))
        gb = pres.groebner(4)
        elems = {(r.i, r.j): r for r in build_r_elements(pres, tau, gb)}
        for i in range(3):
            raw = NcPoly({(i, i): 2})
            assert elems[(i, i)].value == normal_form(raw, gb)

    def test_raw_substitution_n3(self):
        # lambda = (1,2,2): the raw pair element is x1*x2 + 2*x2*x1, which the
        # twisted relations kill, so it is retained as a flagged zero.
        lams = (1, 2, 2)
        mu = mu_from_lambdas(lams)
        ms = [
            sk.check_mu_symmetric([[2 * lams[j] * (i == j == k) for j in range(3)] for i in range(3)], mu)
            for k in range(3)
        ]
        pres = sk.build_gsca(mu, ms)
        raw = NcPoly.generator(0) * NcPoly.generator(1) * 1 + NcPoly.generator(1) * NcPoly.generator(0) * 2
        assert raw == NcPoly({(0, 1): 1, (1, 0): 2})
        elems = {(r.i, r.j): r for r in build_r_elements(pres, DiagonalAutomorphism(lams))}
        assert elems[(0, 1)].is_zero

    def test_mu_tau_mismatch(self, ex21):
        _, _, pres, _ = ex21
        with pytest.raises(ValueError, match="mu/tau mismatch"):
            build_r_elements(pres, DiagonalAutomorphism((1, 2, 2)))

    def test_pairs_match_the_generator_product_oracle(self):
        # r_ij = lambda_i e_ij at mu_ij = lambda_j / lambda_i, and the C-side
        # sums are e_ij at mu = 1, against the products that define them
        zero_seen = set()

        @settings(max_examples=40)
        @given(gca_grids_and_tau())
        def check(data):
            grids, tau, _ = data
            lams = tau.lambdas
            n = len(lams)
            mu = mu_from_lambdas(lams)
            ones = sk.MuMatrix.ones(n)
            try:
                B = sk.build_gca(grids)
                A = sk.build_gsca(mu, [sk.check_mu_symmetric([[lams[j] * g[i][j] for j in range(n)] for i in range(n)], mu) for g in grids])
            except ValueError:  # dependent grids
                assume(False)
            raw_r, sums = pair_elements(lams)
            gb_a, gb_b = A.groebner(2), B.groebner(2)
            elems = build_r_elements(A, tau, gb_a)
            assert [(r.i, r.j) for r in elems] == list(raw_r)
            for r in elems:
                assert _pair_expression(mu, r.i, r.j).scale(lams[r.i]) == raw_r[r.i, r.j]
                assert r.value == naive_reduce(raw_r[r.i, r.j], gb_a.elements)
                zero_seen.add(r.is_zero)
            for (i, j), e in sums.items():
                assert _pair_expression(ones, i, j) == e
                assert normal_form(_pair_expression(ones, i, j), gb_b) == naive_reduce(e, gb_b.elements)

        check()
        assert zero_seen == {True, False}


BPF_WARNING = "quadric system of B not verified base-point-free; theorem hypotheses not established"
TAU_WARNING = "tau is not an automorphism of B; theorem hypotheses not established"


@st.composite
def gca_grids_and_tau(draw):
    """Symmetric integer grids for a GCA at n = 2..4, a diagonal tau and a bound 4..6; the grids may be dependent."""
    n = draw(st.integers(2, 4))
    entry = st.sampled_from((0, 1, -1, 2, -2))
    grids = []
    for _ in range(n):
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = draw(entry)
        grids.append(grid)
    lams = tuple(draw(st.sampled_from(NONZERO_SMALL)) for _ in range(n))
    return grids, DiagonalAutomorphism(lams), draw(st.integers(4, 6))


class TestVerifyTwistTheorem:
    def test_n2_hand_instance(self):
        report = verify_twist_theorem(diag_grids(2), DiagonalAutomorphism((1, 2)), 8)
        assert report.passed
        assert report.construction_consistent
        assert report.zero_pairs == ((0, 1),)
        assert report.normality_scalars[(0, 1, 1)] == 4  # x1 * r22 = mu_12^2 * r22 * x1
        assert dict(report.dagger_checks)[(0, 0, 1, 1)] is True
        assert report.r_dims_computed == (1, 0, 2, 0, 3, 0, 4, 0, 5)
        # the hand-checked instance: r11*r22 = 16 * r22*r11
        pres = quantum_pair()
        gb = pres.groebner(4)
        r11 = NcPoly({(0, 0): 2})
        r22 = NcPoly({(1, 1): 4})
        assert normal_form(r11 * r22, gb) == normal_form(r22 * r11, gb).scale(16)

    def test_identity_tau(self):
        report = verify_twist_theorem(diag_grids(3), DiagonalAutomorphism((1, 1, 1)), 8)
        assert report.passed
        assert all(v == 1 for v in report.normality_scalars.values())
        assert report.r_dims_computed == (1, 0, 3, 0, 6, 0, 10, 0, 15)

    def test_a_failing_construction_fails_the_report(self, monkeypatch):
        report = verify_twist_theorem(diag_grids(2), DiagonalAutomorphism((1, 2)), 8)
        assert report.passed and report.construction_consistent
        monkeypatch.setattr(analyze_module, "relation_span_equal", lambda *args: False)
        report = verify_twist_theorem(diag_grids(2), DiagonalAutomorphism((1, 2)), 8)
        assert report.construction_consistent is False
        assert report.normality_ok and report.dagger_ok and report.r_hilbert_ok and report.c_twist_ok
        assert not report.passed

    def test_rejects_worked_example(self):
        mu = example21_mu()
        report = verify_twist_from_gsca(mu, example21_matrices(mu), 8)
        assert report.rejected and not report.passed
        assert report.criterion.witness == (0, 1, 2)

    def test_normality_scalars_match_is_normal(self):
        # two code paths: the asserted scalar mu_ki*mu_kj against the solver
        pres = quantum_pair()
        gb = pres.groebner(4)
        mu = pres.mu
        verdict = is_normal(NcPoly({(1, 1): 4}), gb)
        assert verdict.left[0][0] == mu[0, 1] * mu[0, 1]

    def test_nu_cocycle_exhaustive(self):
        rng = random.Random(9)
        for n in (2, 3, 4):
            lams = tuple(rng.choice(NONZERO_SMALL) for _ in range(n))
            mu = mu_from_lambdas(lams)

            def nu(i, j, k, p):
                return mu[i, k] ** 2 * mu[j, p] ** 2

            for i, j, k, p, a, b in itertools.product(range(n), repeat=6):
                assert nu(i, j, k, p) * nu(k, p, a, b) == nu(i, j, a, b)

    def test_nu_cocycle_helper_matches_brute_force(self):
        def brute(mu):
            n = mu.n

            def nu(i, j, k, p):
                return mu[i, k] ** 2 * mu[j, p] ** 2

            return all(
                nu(i, j, k, p) * nu(k, p, a, b) == nu(i, j, a, b)
                for i, j, k, p, a, b in itertools.product(range(n), repeat=6)
            )

        rng = random.Random(11)
        outcomes = set()
        for n in (2, 3):
            for _ in range(40):
                mu = random_mu(rng, n)
                expected = brute(mu)
                outcomes.add(expected)
                assert nu_cocycle_holds(mu) == expected
        assert outcomes == {True, False}
        # n = 3, mu_12 = 2 with the other pairs 1: not of twist type and the
        # identity fails; mu_12 = -1: not of twist type, yet the identity holds
        for v, expected in ((2, False), (-1, True)):
            grid = [[Fraction(1)] * 3 for _ in range(3)]
            grid[0][1], grid[1][0] = Fraction(v), 1 / Fraction(v)
            mu = sk.validate_mu(grid)
            assert not sk.twist_criterion(mu).is_twist
            assert brute(mu) is expected
            assert nu_cocycle_holds(mu) is expected

    def test_nu_cocycle_equals_the_cubic_check(self):
        # mu_ij = +-lambda_j / lambda_i satisfies the cocycle (only squares
        # enter); scaling one entry pair by v breaks it unless v^2 = 1
        outcomes = set()

        @settings(max_examples=120)
        @given(
            st.integers(1, 5).flatmap(
                lambda n: st.tuples(
                    st.lists(st.sampled_from(NONZERO_SMALL), min_size=n, max_size=n),
                    st.lists(st.booleans(), min_size=n * n, max_size=n * n),
                    st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(NONZERO_SMALL)),
                )
            )
        )
        def check(data):
            lams, flips, edit = data
            n = len(lams)
            grid = [[(-1 if flips[i * n + j] and i != j else 1) * lams[j] / lams[i] for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i):
                    grid[i][j] = 1 / grid[j][i]
            if edit is not None and edit[0] != edit[1]:
                i, j, v = edit
                grid[i][j] *= v
                grid[j][i] /= v
            mu = sk.validate_mu(grid)
            expected = nu_cocycle_cubic(mu)
            assert nu_cocycle_holds(mu) is expected
            outcomes.add(expected)

        check()
        assert outcomes == {True, False}

    def test_n5_through_10_within_budget(self):
        start = time.perf_counter()
        report = verify_twist_theorem(diag_grids(5), DiagonalAutomorphism((1, 2, -1, 3, 1)), 10)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert report.r_dims_computed == tuple(
            math.comb(4 + d // 2, 4) if d % 2 == 0 else 0 for d in range(11)
        )
        assert elapsed < 10, f"took {elapsed:.2f}s, budget 10s"

    def test_degree_two_spans_agree(self):
        # span{r_ij} equals span{y_k} in degree two, both ways
        for n, lams in ((2, (1, 2)), (3, (1, 2, 2))):
            mu = mu_from_lambdas(lams)
            ms = [
                sk.check_mu_symmetric(
                    [[2 * lams[j] * (i == j == k) for j in range(n)] for i in range(n)], mu
                )
                for k in range(n)
            ]
            pres = sk.build_gsca(mu, ms)
            gb = pres.groebner(4)
            r_vals = [r.value for r in build_r_elements(pres, DiagonalAutomorphism(lams), gb) if not r.is_zero]
            y_vals = pres.y_normal_forms(gb)
            words = sorted({w for p in r_vals + y_vals for w in p.terms})
            index = {w: i for i, w in enumerate(words)}

            def vec(p):
                row = [Fraction(0)] * len(words)
                for w, c in p.terms.items():
                    row[index[w]] = c
                return row

            for p in r_vals:
                assert sk.solve_in_span(vec(p), [vec(q) for q in y_vals]) is not None
            for q in y_vals:
                assert sk.solve_in_span(vec(q), [vec(p) for p in r_vals]) is not None

    def test_pair_clauses_match_the_ordered_pair_oracle(self):
        outcomes = set()

        # only e_11 and e_13 fail to commute: the first and third pair sums, so no adjacent pair fails
        far_apart = [[[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[2, 2, 0], [2, 2, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]

        @settings(max_examples=80)
        @given(gca_grids_and_tau())
        @example((far_apart, DiagonalAutomorphism((1, 2, -1)), 4))
        def check(data):
            grids, tau, through = data
            try:
                B = sk.build_gca(grids)
            except ValueError:  # dependent grids
                assume(False)
            report = verify_twist_theorem(grids, tau, through)
            # A as the twist of B, not from the scaled matrices the pipeline builds it from
            A = twist_presentation(B.presentation(), tau)
            expected = twist_pair_clauses(tau.lambdas, groebner(A, 4).elements, B.groebner(4).elements)
            assert (report.dagger_checks, report.dagger_ok, report.c_twist_ok) == expected
            outcomes.update({("dagger", report.dagger_ok), ("c-twist", report.c_twist_ok)})

        check()
        assert outcomes == {(clause, ok) for clause in ("dagger", "c-twist") for ok in (True, False)}

    def test_each_unordered_pair_is_normal_formed_once(self, monkeypatch, capsys):
        # diag3.json (n = 3, bound 8) has 6 r elements, 3 of them nonzero, and 6
        # pair sums: 6 r elements + 9 normality + 3 dagger + 40 subalgebra
        # (3 generators, 3 at degree 2, 3 * 3 at degree 4, then the sorted words
        # C(5, 3) = 10 and C(6, 4) = 15) + 6 sums + 15 C-side pairs = 79.
        # Growing R from every product made 102 calls (63 subalgebra calls,
        # 3 + 3 * (1 + 3 + 6 + 10)), and checking every ordered pair as well 135.
        calls = []
        original = analyze_module.normal_form
        monkeypatch.setattr(analyze_module, "normal_form", lambda *a: calls.append(1) or original(*a))
        path = str(resources.files("skewclifford").joinpath("fixtures/diag3.json"))
        assert main(["verify-theorem", path]) == 0
        capsys.readouterr()
        assert len(calls) == 6 + 9 + 3 + 40 + 6 + 15

    def test_one_run_cleans_each_relation_list_once(self, monkeypatch, capsys):
        # diag3.json: B and A clean their relations when built, B's quadric
        # quotient cleans its forms, and the twist of B cleans its images;
        # rebuilding the algebra on every presentation() call made it 5
        calls = []
        original = PresentedAlgebra._cleaned
        monkeypatch.setattr(PresentedAlgebra, "_cleaned", lambda self, rels: calls.append(1) or original(self, rels))
        path = str(resources.files("skewclifford").joinpath("fixtures/diag3.json"))
        assert main(["verify-theorem", path]) == 0
        capsys.readouterr()
        assert len(calls) == 4

    def test_tau_stable_b_passes_every_clause_when_regular(self):
        # the theorem's setting: B regular and tau a diagonal automorphism of
        # B; every form of `tau_stable_gca` lies on one weight class of tau
        seen = set()

        # the largest n and bound come first, where hypothesis draws most
        @settings(max_examples=60)
        @given(
            st.sampled_from((4, 3, 2)).flatmap(
                lambda n: st.tuples(
                    st.lists(st.sampled_from(MIXED_LAMBDAS), min_size=n, max_size=n),
                    st.sampled_from(TAU_STABLE_RECIPES),
                    st.integers(0, 2**32),
                    st.sampled_from((8, 6, 4)),
                )
            )
        )
        def check(data):
            lams, recipe, seed, through = data
            grids = tau_stable_gca(random.Random(seed), lams, recipe)
            try:
                B = sk.build_gca(grids)
            except ValueError:  # dependent forms
                assume(False)
            regular = sk.regularity_verdict(B, through)
            # a form of the class of z_k^2 holding a monomial off k's block
            mixed = any(
                grids[k][i][j] and {lams[i], lams[j]} != {lams[k]} for k, i, j in itertools.product(range(len(lams)), repeat=3)
            )
            seen.update({recipe, ("mixed", mixed)})
            if regular.regular and regular.hilbert_ok:
                seen.add("regular")
                report = verify_twist_theorem(grids, DiagonalAutomorphism(lams), through)
                assert report.passed, report
                assert report.warnings == ()

        check()
        assert seen == {*TAU_STABLE_RECIPES, ("mixed", True), ("mixed", False), "regular"}

    def test_requires_bound_four(self):
        with pytest.raises(ValueError, match=">= 4"):
            verify_twist_theorem(diag_grids(2), DiagonalAutomorphism((1, 2)), 3)

    def test_rejects_non_diagonal_automorphism(self):
        from skewclifford.freealg import LinearMap

        phi = LinearMap.from_rows([[1, 1], [0, 1]])
        with pytest.raises(ValueError, match="diagonalize"):
            verify_twist_theorem(diag_grids(2), phi, 8)

    @pytest.mark.parametrize(("through", "warned"), [(4, True), (5, False)])
    def test_base_point_check_runs_at_the_bound(self, through, warned):
        # the quotient of diagonal B at n = 4 vanishes in degree 5, so its
        # finite dimension shows from bound 5 on, not at 4
        report = verify_twist_theorem(diag_grids(4), DiagonalAutomorphism((1, 2, -1, 3)), through)
        assert report.passed
        assert report.warnings == ((BPF_WARNING,) if warned else ())

    # the forms of perfbench's triangular generator at seed 1, n = 4, mu = 1
    TRIANGULAR_N4 = [
        [[3, 1, -2, 0], [1, -2, 0, 0], [-2, 0, 0, 2], [0, 0, 2, 0]],
        [[0, 0, 0, 0], [0, -1, -2, 0], [0, -2, -2, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, Fraction(-3, 2), -2], [0, 0, -2, 2]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, Fraction(1, 3)]],
    ]

    def test_warns_when_tau_is_not_an_automorphism_of_b(self):
        # tau does not map the span of B's relations onto itself; the clauses
        # still run, and three of them fail
        report = verify_twist_theorem(self.TRIANGULAR_N4, DiagonalAutomorphism((2, 3, -1, Fraction(1, 2))), 6)
        assert report.warnings == (TAU_WARNING,)
        assert (report.normality_ok, report.dagger_ok, report.r_hilbert_ok) == (False, False, False)

    def test_a_scalar_tau_is_an_automorphism_of_b(self):
        report = verify_twist_theorem(self.TRIANGULAR_N4, DiagonalAutomorphism((2, 2, 2, 2)), 6)
        assert report.warnings == ()
        assert report.passed

    def test_warns_on_base_points(self):
        # dependent rows would fail the build; use independent matrices with a
        # common base point instead
        grids = [
            [[2, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        ]
        report = verify_twist_theorem(grids, DiagonalAutomorphism((1, 1, 1)), 6)
        assert report.warnings
        assert report.c_twist_ok is False  # x1x2 + x2x1 and x1x3 + x3x1 do not commute in B
