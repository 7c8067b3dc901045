import itertools
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewclifford.exact import (
    Echelon,
    ExactMatrix,
    ParamPoly,
    parametric_minors,
    parse_scalar,
    rank,
    rref,
    scalar_str,
    solve_in_span,
)

from conftest import example21_matrices, example21_mu
from oracles import join_terms, leibniz_det, local_rank, naive_rref


class TestScalars:
    def test_parse(self):
        assert parse_scalar("1/2") == Fraction(1, 2)
        assert parse_scalar("-3") == Fraction(-3)
        assert parse_scalar(" 7 ") == Fraction(7)
        assert parse_scalar(5) == Fraction(5)

    @pytest.mark.parametrize("bad", ["0.5", "x", "1/0", "1//2", "", "1e3", 2.5, None, True])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_scalar(bad)

    def test_str(self):
        assert scalar_str(Fraction(1, 2)) == "1/2"
        assert scalar_str(Fraction(-3)) == "-3"
        assert parse_scalar(scalar_str(Fraction(22, 8))) == Fraction(11, 4)


VARS3 = ("c1", "c2", "c3")


def rendered_polys():
    """Terms of ParamPolys in three variables: negative, unit, fractional and constant coefficients, or none at all."""
    coeff = st.one_of(
        st.sampled_from([Fraction(v) for v in (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 4))]),
        st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    )
    exps = st.tuples(*[st.integers(0, 2)] * len(VARS3))
    return st.dictionaries(exps, coeff, max_size=6)


class TestParamPoly:
    VARS = ("c1", "c2")

    def test_zero_coefficients_dropped(self):
        p = ParamPoly(self.VARS, {(1, 0): 0, (0, 1): Fraction(0)})
        assert not p
        assert p.terms == {}

    def test_evaluate(self):
        p = ParamPoly(self.VARS, {(1, 1): 2, (0, 0): Fraction(1, 2)})
        assert p.evaluate([Fraction(3), Fraction(-1)]) == Fraction(-11, 2)

    @settings(max_examples=200)
    @given(rendered_polys())
    @example({})
    @example({(0, 0, 0): Fraction(-1, 2), (1, 0, 0): 1, (0, 1, 1): -1, (2, 0, 0): Fraction(7, 3), (0, 0, 1): -2})
    def test_text_matches_the_fraction_rendering(self, terms):
        p = ParamPoly(VARS3, terms)

        def monomial(exp):
            return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(VARS3, exp) if e)

        order = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
        assert str(p) == join_terms((p.terms[e], monomial(e)) for e in order)


class TestRank:
    def test_identity(self):
        assert rank(ExactMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(ExactMatrix([[0] * 4 for _ in range(2)])) == 0

    def test_pair_matrix_of_worked_example(self):
        # rows indexed by ordered pairs (i <= j), columns by the matrices
        mu = example21_mu()
        matrices = example21_matrices(mu)
        pairs = [(i, j) for i in range(3) for j in range(i, 3)]
        rows = [[m[i, j] for m in matrices] for (i, j) in pairs]
        assert rank(ExactMatrix(rows)) == 3
        assert local_rank(rows) == 3

    def test_matches_independent_pivot_order(self):
        rng = random.Random(20260811)
        for _ in range(40):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
            assert rank(ExactMatrix(rows)) == local_rank(rows)


def matrices_and_target():
    """Small integer rows (often dependent) plus a target of the same width."""
    entry = st.integers(-2, 2).map(Fraction)
    return st.integers(1, 5).flatmap(
        lambda ncols: st.tuples(
            st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6),
            st.lists(entry, min_size=ncols, max_size=ncols),
        )
    )


def tagged_echelon(rows):
    ech = Echelon()
    accepted = [ech.add(row, tag=j) for j, row in enumerate(rows)]
    return ech, accepted


# derandomized and without an example database, so runs repeat exactly
PROPERTY = settings(max_examples=150)


class TestEchelon:
    @PROPERTY
    @given(matrices_and_target())
    def test_accepted_adds_count_the_rank(self, data):
        rows, _ = data
        ech, accepted = tagged_echelon(rows)
        assert sum(accepted) == len(ech) == local_rank(rows)
        untagged = Echelon()
        assert sum(untagged.add(row) for row in rows) == local_rank(rows)

    @PROPERTY
    @given(matrices_and_target(), st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    def test_solve_rebuilds_a_combination(self, data, weights):
        rows, target = data
        target = [sum((w * row[i] for w, row in zip(weights, rows)), Fraction(0)) for i in range(len(target))]
        ech, _ = tagged_echelon(rows)
        sol = ech.solve(target, len(rows))
        assert sol is not None and len(sol) == len(rows)
        rebuilt = [sum((c * row[i] for c, row in zip(sol, rows)), Fraction(0)) for i in range(len(target))]
        assert rebuilt == target

    @PROPERTY
    @given(matrices_and_target())
    def test_rejected_inputs_get_zero(self, data):
        rows, target = data
        ech, accepted = tagged_echelon(rows)
        sol = ech.solve(target, len(rows))
        if sol is not None:
            assert all(c == 0 for c, ok in zip(sol, accepted) if not ok)

    @PROPERTY
    @given(matrices_and_target())
    def test_solve_fails_exactly_when_rank_rises(self, data):
        rows, target = data
        ech, _ = tagged_echelon(rows)
        rises = local_rank(rows + [target]) > local_rank(rows)
        assert (ech.solve(target, len(rows)) is None) == rises
        assert (not ech.reduce(target)) == (not rises)

    def test_word_columns(self):
        ech = Echelon()
        assert ech.add({(0, 1): 2, (1, 0): 1}, tag=0)
        assert not ech.add({(0, 1): 4, (1, 0): 2}, tag=1)
        assert ech.add({(1, 1): 1}, tag=2)
        assert ech.solve({(0, 1): 6, (1, 0): 3, (1, 1): -1}, 3) == (3, 0, -1)
        assert ech.solve({(0, 0): 1}, 3) is None

    def test_pivot_rows_are_monic_and_keyed_by_lowest_column(self):
        ech = Echelon()
        ech.add([0, 2, 4])
        ech.add([3, 3, 0])
        # the second row is reduced against the first before it is stored
        assert ech.rows == {1: {1: 1, 2: 2}, 0: {0: 1, 2: -2}}

    def test_a_mapping_that_is_not_a_dict_is_read_by_column(self):
        # read as a sequence, the proxy would give its keys at positions 0 and 1
        ech = Echelon()
        assert ech.add(types.MappingProxyType({2: 4, 5: 2}))
        assert ech.rows == {2: {2: 1, 5: Fraction(1, 2)}}

    def test_reduced_of_no_rows_and_zero_rows(self):
        assert Echelon().reduced() == {}
        ech = Echelon()
        assert not ech.add([0, 0])
        assert ech.reduced() == {}

    def test_untagged_rows_cannot_solve(self):
        ech = Echelon()
        ech.add([1, 0])
        assert ech.solve([0, 0], 0) == ()
        with pytest.raises(ValueError, match="without a tag"):
            ech.solve([1, 0], 0)


@st.composite
def low_rank_matrices(draw):
    """Rows that are combinations of at most min(rows, cols) base rows: wide, tall, rank-deficient, zero rows."""
    entry = st.sampled_from([Fraction(v) for v in (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 11))])
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    bases = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=min(nrows, ncols)))
    rows = []
    for _ in range(nrows):
        weights = draw(st.lists(st.sampled_from((0, 0, 1, -2, Fraction(1, 3))), min_size=len(bases), max_size=len(bases)))
        rows.append([sum((w * b[c] for w, b in zip(weights, bases)), Fraction(0)) for c in range(ncols)])
    return rows


class TestRref:
    @PROPERTY
    @given(low_rank_matrices())
    def test_rref_and_rank_match_the_oracles(self, rows):
        reduced, pivots = rref(rows)
        assert (reduced, pivots) == naive_rref(rows)
        assert all(type(e) is Fraction for row in reduced for e in row)
        assert rank(ExactMatrix(rows)) == local_rank(rows)

    @PROPERTY
    @given(low_rank_matrices())
    def test_echelon_reduced_matches_gauss_jordan(self, rows):
        ech = Echelon()
        for row in rows:
            ech.add(row)
        stored = {p: dict(row) for p, row in ech.rows.items()}
        reduced = ech.reduced()
        work, pivots = naive_rref(rows)
        assert list(reduced) == pivots
        assert reduced == {p: {c: v for c, v in enumerate(row) if v} for p, row in zip(pivots, work)}
        assert ech.rows == stored  # the echelon itself is left as it was

    def test_shapes(self):
        assert rref([]) == ([], [])
        assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
        # back-substitution clears the first row above the second pivot
        assert rref([[1, 2, 3], [2, 4, 7], [0, 0, 1]]) == ([[1, 2, 0], [0, 0, 1], [0, 0, 0]], [0, 2])


class TestSolveInSpan:
    def test_first_basis_vector(self):
        basis = [(1, 0, 2), (0, 1, 1)]
        assert solve_in_span((1, 0, 2), basis) == (1, 0)

    def test_empty_basis(self):
        assert solve_in_span((1, 0), []) is None
        assert solve_in_span((0, 0), []) == ()

    def test_scalar_multiple(self):
        assert solve_in_span((2, 4), [(1, 2)]) == (2,)

    def test_not_in_span(self):
        assert solve_in_span((0, 0, 1), [(1, 0, 0), (0, 1, 0)]) is None

    def test_recombination(self):
        rng = random.Random(7)
        for _ in range(25):
            dim = rng.randint(1, 5)
            count = rng.randint(1, 4)
            basis = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(count)]
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(count)]
            target = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(dim))
            sol = solve_in_span(target, basis)
            assert sol is not None
            rebuilt = tuple(sum(c * b[i] for c, b in zip(sol, basis)) for i in range(dim))
            assert rebuilt == target


class TestParametricMinors:
    VARS = ("c1", "c2")

    def c(self, name):
        return ParamPoly(self.VARS, {tuple(int(v == name) for v in self.VARS): 1})

    def test_diagonal(self):
        m = ExactMatrix([[self.c("c1"), 0], [0, self.c("c2")]])
        minors = parametric_minors(m, 2)
        assert len(minors) == 1
        assert minors[0] == ParamPoly(self.VARS, {(1, 1): 1})

    def test_constant_identity(self):
        minors = parametric_minors(ExactMatrix.identity(2), 2)
        assert len(minors) == 1
        assert minors[0].evaluate([]) == 1

    def test_symmetric_two_by_two(self):
        c1, c2 = self.c("c1"), self.c("c2")
        minors = parametric_minors(ExactMatrix([[c1, c2], [c2, c1]]), 2)
        assert minors == [ParamPoly(self.VARS, {(2, 0): 1, (0, 2): -1})]
        assert str(minors[0]) == "c1^2 - c2^2"

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="empty minor order"):
            parametric_minors(ExactMatrix.identity(2), 0)

    def test_mixed_variable_lists_rejected(self):
        other = ParamPoly(("d1",), {(1,): 1})
        with pytest.raises(ValueError, match="different variable lists"):
            parametric_minors(ExactMatrix([[self.c("c1"), Fraction(1)], [other, self.c("c2")]]), 2)

    def test_specialization_commutes(self):
        rng = random.Random(99)
        variables = ("c1", "c2", "c3")
        for _ in range(10):
            rows = rng.randint(2, 4)
            cols = rng.randint(2, 4)
            order = rng.randint(1, min(rows, cols))
            grid = []
            for _ in range(rows):
                row = []
                for _ in range(cols):
                    terms = {}
                    for k in range(3):
                        exp = tuple(1 if t == k else 0 for t in range(3))
                        terms[exp] = Fraction(rng.randint(-2, 2))
                    terms[(0, 0, 0)] = Fraction(rng.randint(-1, 1))
                    row.append(ParamPoly(variables, terms))
                grid.append(row)
            m = ExactMatrix(grid)
            point = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            symbolic = [p.evaluate(point) for p in parametric_minors(m, order)]
            specialized = ExactMatrix([[e.evaluate(point) for e in row] for row in grid])
            direct = [p.evaluate([]) for p in parametric_minors(specialized, order)]
            assert symbolic == direct


def rational_matrices():
    """Matrices of ParamPoly entries of degree at most 2 in three variables, or plain entries, over non-integer rationals.

    Some rows are all zero, and the minor order ranges below min(rows, cols)
    so that several column subsets occur.  Degree-2 entries (squares and
    mixed products) make `_MinorTable`'s packing base order * 2 + 1, where
    linear ones left it at order + 1.
    """
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
    exps = [e for e in itertools.product(range(3), repeat=len(VARS3)) if sum(e) <= 2]
    poly = st.dictionaries(st.sampled_from(exps), coeff, max_size=4).map(lambda terms: ParamPoly(VARS3, terms))
    entry = st.one_of(poly, coeff)

    def matrix(shape):
        nrows, ncols = shape
        rows = st.lists(
            st.one_of(st.just([Fraction(0)] * ncols), st.lists(entry, min_size=ncols, max_size=ncols)),
            min_size=nrows,
            max_size=nrows,
        )
        return st.tuples(rows, st.integers(1, min(nrows, ncols)))

    return st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(matrix)


class TestMinorTable:
    @PROPERTY
    @given(rational_matrices())
    def test_matches_leibniz_in_row_major_order(self, data):
        rows, order = data
        m = ExactMatrix(rows)
        minors = parametric_minors(m, order)
        nvars = len(VARS3) if any(isinstance(e, ParamPoly) for row in rows for e in row) else 0
        expected = [
            leibniz_det([[rows[i][j] for j in cols] for i in rsub], nvars)
            for rsub in itertools.combinations(range(m.rows), order)
            for cols in itertools.combinations(range(m.cols), order)
        ]
        assert [p.terms for p in minors] == expected
        for p in minors:
            assert all(type(c) is Fraction for c in p.terms.values())
