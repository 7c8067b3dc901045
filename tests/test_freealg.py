import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewclifford.freealg import (
    LinearMap,
    NcPoly,
    apply_linear,
    parse_poly,
    poly_str,
    word_key,
)

from oracles import local_rank


def x(i):
    return NcPoly.generator(i)


def composed(a: LinearMap, b: LinearMap) -> LinearMap:
    """a after b: the product of their matrices."""
    n = a.n
    return LinearMap.from_rows(
        [[sum((a.matrix[i, k] * b.matrix[k, j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]
    )


def deglex_sign(a, b) -> int:
    """-1, 0 or 1 as a sorts before, with or after b under `word_key`."""
    ka, kb = word_key(a), word_key(b)
    return (ka > kb) - (ka < kb)


@st.composite
def square_matrices(draw):
    """2x2 to 4x4 rational matrices, mostly invertible; sometimes the last row is a combination of the others."""
    n = draw(st.integers(2, 4))
    entry = st.sampled_from([Fraction(v) for v in (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 5))])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        weights = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((w * row[c] for w, row in zip(weights, rows)), Fraction(0)) for c in range(n)]
    return rows


class TestNcMul:
    def test_generators(self):
        assert x(0) * x(1) == NcPoly({(0, 1): 1})

    def test_no_commuting(self):
        p = (x(0) + x(1)) * (x(0) - x(1))
        assert p == NcPoly({(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1})

    def test_unit(self):
        p = NcPoly({(0, 1): 2, (2,): Fraction(-1, 3)})
        assert NcPoly.one() * p == p
        assert p * NcPoly.one() == p

    def test_degree_additive(self):
        rng = random.Random(3)
        for _ in range(20):
            a = NcPoly({tuple(rng.randrange(3) for _ in range(2)): 1, tuple(rng.randrange(3) for _ in range(2)): 2})
            b = NcPoly({tuple(rng.randrange(3) for _ in range(3)): -1})
            prod = a * b
            if a and b:
                assert prod.homogeneous_degree() == 5


class TestDeglex:
    def test_degree_first(self):
        assert deglex_sign((2,), (0, 1)) == -1

    def test_lex_tiebreak(self):
        assert deglex_sign((0, 1), (1, 0)) == -1

    def test_empty_smallest(self):
        assert deglex_sign((), (0,)) == -1
        assert deglex_sign((0,), (0,)) == 0

    def test_total_order_and_multiplicative(self):
        rng = random.Random(11)
        words = [tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))) for _ in range(30)]
        for a in words:
            for b in words:
                c = deglex_sign(a, b)
                assert c == -deglex_sign(b, a)
                if c == 0:
                    assert a == b
                if c == -1:
                    for w in [(0,), (2, 1), ()]:
                        assert deglex_sign(w + a, w + b) == -1
                        assert deglex_sign(a + w, b + w) == -1


class TestApplyLinear:
    def test_diagonal(self):
        phi = LinearMap.diagonal([Fraction(2), Fraction(3)])
        assert apply_linear(phi, NcPoly({(0, 1): 1})) == NcPoly({(0, 1): 6})

    def test_identity(self):
        phi = LinearMap.identity(3)
        p = NcPoly({(0, 2): 2, (1,): Fraction(1, 2)})
        assert apply_linear(phi, p) == p

    def test_diag_square(self):
        phi = LinearMap.diagonal([1, 2])
        assert apply_linear(phi, NcPoly({(1, 1): 1})) == NcPoly({(1, 1): 4})

    def test_composition(self):
        rng = random.Random(5)
        for _ in range(10):
            a = LinearMap.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            b = LinearMap.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            p = NcPoly({(0, 1): 1, (1, 1): -2})
            assert apply_linear(composed(a, b), p) == apply_linear(a, apply_linear(b, p))

    def test_inverse(self):
        phi = LinearMap.from_rows([[1, 1], [0, 1]])
        inv = phi.inverse()
        p = NcPoly({(0, 1): 3})
        assert apply_linear(inv, apply_linear(phi, p)) == p

    def test_singular(self):
        with pytest.raises(ValueError, match="singular map"):
            LinearMap.from_rows([[1, 2], [2, 4]]).inverse()

    @settings(max_examples=150)
    @given(square_matrices())
    def test_inverse_composes_to_the_identity(self, rows):
        phi = LinearMap.from_rows(rows)
        if local_rank(rows) < len(rows):
            with pytest.raises(ValueError, match="singular map"):
                phi.inverse()
        else:
            identity = LinearMap.identity(len(rows))
            assert composed(phi, phi.inverse()) == identity == composed(phi.inverse(), phi)


class TestPolyText:
    def test_render(self):
        p = NcPoly({(0, 1): 1, (1, 0): 2, (2, 2): -1})
        assert poly_str(p) == "x1*x2 + 2*x2*x1 - x3^2"

    def test_caret_only_for_repeats(self):
        assert poly_str(NcPoly({(0, 1, 1, 0): 1})) == "x1*x2^2*x1"

    def test_zero_and_unit(self):
        assert poly_str(NcPoly.zero()) == "0"
        assert poly_str(NcPoly({(): Fraction(-1, 2)})) == "-1/2"

    def test_parse_round_trip(self):
        rng = random.Random(17)
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 4)))
                terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            p = NcPoly(terms)
            assert parse_poly(poly_str(p), 3) == p

    def test_parse_z_letters(self):
        assert parse_poly("z2*z1 - 2*z1*z2", 2) == NcPoly({(1, 0): 1, (0, 1): -2})

    def test_parse_coefficients(self):
        assert parse_poly("1/2*x1^3", 1) == NcPoly({(0, 0, 0): Fraction(1, 2)})
        assert parse_poly("-x1 + x2", 2) == NcPoly({(0,): -1, (1,): 1})

    @pytest.mark.parametrize(
        ("text", "terms"),
        [
            ("", {}),
            ("   ", {}),
            ("x1 - - x2", {(0,): 1, (1,): 1}),
            ("x1 - + x2", {(0,): 1, (1,): -1}),
            ("--x1", {(0,): 1}),
            ("x1 + -2*x2", {(0,): 1, (1,): -2}),
            ("-3", {(): -3}),
            ("2*x1*3*x2^2", {(0, 1, 1): 6}),
            ("x1 ^ 2 - x1*x1", {}),
            ("X1*z2 + x2*x1", {(0, 1): 1, (1, 0): 1}),
        ],
    )
    def test_parse_table(self, text, terms):
        # consecutive signs multiply; letters and blanks are free
        assert parse_poly(text, 3) == NcPoly(terms)

    @pytest.mark.parametrize(
        "bad",
        [
            # rejected by the grammar as before
            "x0", "x4", "x1^0", "x1 x2", "x1^1/2", "1.5*x1", "&", "2^3", "x1^x2",
            # a sign or "*" with no factor after it, or a "*" with none before
            "x1 +", "*x1", "x1*", "x1**x2", "-", "+ -", "x1^", "2 x1",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad, 3)


class TestNcPolyBasics:
    def test_homogeneous_degree(self):
        assert NcPoly({(0, 1): 1, (1, 0): 2}).homogeneous_degree() == 2
        assert NcPoly({(0,): 1, (1, 0): 2}).homogeneous_degree() is None
        assert NcPoly.zero().homogeneous_degree() is None

    def test_lead_and_monic(self):
        p = NcPoly({(0, 1): 1, (1, 0): 2, (2, 2): -1})
        assert p.lead_word() == (2, 2)
        assert p.monic().lead_coeff() == 1
        assert p.monic().terms[(0, 1)] == -1

    def test_word_key_orders_render(self):
        words = [(2, 2), (0, 1), (1, 0)]
        assert sorted(words, key=word_key) == [(0, 1), (1, 0), (2, 2)]
