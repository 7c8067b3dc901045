"""Exact rational scalars, parameter polynomials, a sparse echelon kernel and parametric minors."""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_scalar(text) -> Fraction:
    """Parse "p" or "p/q" into an exact rational.

    Integers are also accepted directly; floats and anything non-rational
    are rejected so no value ever passes through binary floating point.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"malformed scalar {text!r} (expected string or integer)")
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        num, den = num.strip(), den.strip()
        if not (_INT_RE.match(num) and _INT_RE.match(den)):
            raise ValueError(f"malformed scalar string {text!r}")
        if int(den) == 0:
            raise ValueError(f"zero denominator in scalar {text!r}")
        return Fraction(int(num), int(den))
    if not _INT_RE.match(s):
        raise ValueError(f"malformed scalar string {text!r}")
    return Fraction(int(s))


def scalar_str(x: Fraction) -> str:
    """Render a rational as "p/q", with "/q" omitted when q = 1."""
    return str(x)


def join_terms(parts: Iterable[Tuple[Fraction, str]]) -> str:
    """Render (coefficient, monomial) pairs as "m1 - 2*m2 + 1/2"; an empty monomial is a constant, no pairs is "0"."""
    pieces = []
    for c, mono in parts:
        num, den = c.numerator, c.denominator
        negative = num < 0
        if negative:
            num = -num
        # the text of |c| as `scalar_str` writes it
        scalar = f"{num}/{den}" if den != 1 else str(num)
        if not mono:
            body = scalar
        elif num == 1 and den == 1:
            body = mono
        else:
            body = f"{scalar}*{mono}"
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces) if pieces else "0"


def int_scaled(coeffs: Mapping) -> Tuple[int, Dict]:
    """(s, {key: c * s}) with s the lcm of the denominators of the Fraction values, so every value is an int."""
    # lcm of a list, not of a generator: unpacking a generator builds the
    # argument tuple by resizing one of a guessed size, so every call takes a
    # tuple from one size's free list and returns it to another's, and those
    # lists fill up and hold memory (about 1 MB over a few hundred jobs)
    scale = math.lcm(*[c.denominator for c in coeffs.values()])
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in coeffs.items()}


class ParamPoly:
    """Commutative polynomial in named parameters with exact coefficients.

    Terms map exponent tuples (one slot per variable) to nonzero Fractions.
    Instances are immutable values with no arithmetic: `_MinorTable`
    expands the minors that produce them on packed ints.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms=None):
        self.variables = tuple(variables)
        clean = {}
        for exp, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(self.variables) or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for variables {self.variables}")
            clean[exp] = c
        self.terms = clean

    @classmethod
    def _make(cls, variables: tuple, terms: dict) -> "ParamPoly":
        """Wrap terms that are already canonical (tuple exponents, nonzero Fractions) without re-validating."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.variables == other.variables and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, values: Sequence) -> Fraction:
        values = [Fraction(v) for v in values]
        if len(values) != len(self.variables):
            raise ValueError("wrong number of parameter values")
        total = Fraction(0)
        for exp, c in self.terms.items():
            prod = c
            for v, e in zip(values, exp):
                prod *= v ** e
            total += prod
        return total

    def __str__(self):
        def monomial(exp):
            return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(self.variables, exp) if e)

        order = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        return join_terms((self.terms[exp], monomial(exp)) for exp in order)

    def __repr__(self):
        return f"ParamPoly({self})"


class ExactMatrix:
    """Dense matrix with Fraction or ParamPoly entries; immutable after construction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(row) for row in entries)
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        if any(len(row) != self.cols for row in grid):
            raise ValueError("ragged matrix")
        self.entries = grid

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i) -> tuple:
        return self.entries[i]

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def _sparse(vec) -> Dict:
    """Nonzero entries of a dense sequence or a column -> value mapping."""
    # dict first: it answers without the slow ABC check that any other Mapping needs
    items = vec.items() if isinstance(vec, (dict, Mapping)) else enumerate(vec)
    return {col: Fraction(v) for col, v in items if v}


class Echelon:
    """Sparse incremental row echelon form over the rationals.

    Rows are dicts column -> Fraction, keyed by their lowest (pivot) column,
    with the pivot entry scaled to 1.  Columns are any mutually comparable
    keys: dense positions, or the words of one homogeneous degree.  A row
    added with a tag also records itself as a combination of the tagged
    inputs, so `solve` can answer in those terms; span-only callers add
    untagged rows and skip that bookkeeping.
    """

    __slots__ = ("rows", "_combos")

    def __init__(self):
        self.rows: Dict = {}
        self._combos: Dict = {}

    def __len__(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: Dict, combo: Optional[Dict]) -> Dict:
        """Cancel every pivot column of vec, lowest first, in place.

        When combo is given it accumulates, per tag, the multiple of the
        tagged inputs that was subtracted from vec.
        """
        rows = self.rows
        heap = [c for c in vec if c in rows]
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)
            f = vec.get(p)
            if not f:
                continue  # cancelled since it was queued
            for col, v in rows[p].items():
                old = vec.get(col)
                new = -f * v if old is None else old - f * v
                if new:
                    if old is None and col in rows:
                        heapq.heappush(heap, col)
                    vec[col] = new
                else:
                    del vec[col]
            if combo is not None:
                row_combo = self._combos.get(p)
                if row_combo is None:
                    raise ValueError("echelon row was added without a tag; it has no combination to report")
                for tag, v in row_combo.items():
                    new = combo.get(tag, 0) + f * v
                    if new:
                        combo[tag] = new
                    else:
                        combo.pop(tag, None)
        return vec

    def reduce(self, vec) -> Dict:
        """The residual of vec modulo the rows, as a sparse dict (empty iff vec is in the span)."""
        return self._eliminate(_sparse(vec), None)

    def add(self, vec, tag=None) -> bool:
        """Append vec when it is independent of the rows; returns whether it was."""
        combo = None if tag is None else {}
        vec = self._eliminate(_sparse(vec), combo)
        if not vec:
            return False
        pivot = min(vec)
        inv = 1 / vec[pivot]
        self.rows[pivot] = {col: v * inv for col, v in vec.items()}
        if tag is not None:
            # the reduced vec is input[tag] less the combination in combo; the row is inv times it
            row_combo = {t: -v * inv for t, v in combo.items()}
            row_combo[tag] = row_combo.get(tag, 0) + inv
            self._combos[pivot] = {t: v for t, v in row_combo.items() if v}
        return True

    def solve(self, vec, size: int):
        """Coefficients, per tag 0..size-1, of vec as a combination of the tagged inputs.

        Returns None when vec is not in the span.  Inputs that `add`
        rejected get coefficient zero, so the answer is the one with
        first-pivot preference and depends only on the inputs' order.
        """
        combo: Dict = {}
        if self._eliminate(_sparse(vec), combo):
            return None
        return tuple(Fraction(combo.get(t, 0)) for t in range(size))

    def reduced(self) -> Dict:
        """The unique reduced echelon form, Gauss-Jordan's, as {pivot: row} in pivot order; the rows stay as they are."""
        out: Dict = {}
        for p in sorted(self.rows, reverse=True):
            # rows with larger pivots are already reduced, so each subtraction
            # clears one pivot column and fills no other
            row = dict(self.rows[p])
            for q in [col for col in row if col in out]:
                f = row[q]
                for col, v in out[q].items():
                    new = row.get(col, 0) - f * v
                    if new:
                        row[col] = new
                    else:
                        del row[col]
            out[p] = row
        return {p: out[p] for p in reversed(out)}


def rank(m: ExactMatrix) -> int:
    """Exact rank over the rationals: the number of rows an `Echelon` accepts."""
    ech = Echelon()
    for row in m.entries:
        ech.add(row)
    return len(ech)


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form with first-pivot preference, as dense rows.

    Returns (new_rows, pivot_columns): the rows of `Echelon.reduced` in
    pivot order, then zero rows up to the input's row count.
    """
    ncols = len(rows[0]) if rows else 0
    ech = Echelon()
    for row in rows:
        ech.add(row)
    reduced = ech.reduced()
    zero = Fraction(0)
    out = [[r.get(col, zero) for col in range(ncols)] for r in reduced.values()]
    out.extend([zero] * ncols for _ in range(len(rows) - len(reduced)))
    return out, list(reduced)


def solve_in_span(target: Sequence[Fraction], basis: Sequence[Sequence[Fraction]]):
    """Express target as an exact combination of the basis vectors.

    Returns the coefficient tuple, or None when the target is not in the
    span.  Free coefficients are set to zero (first-pivot preference), so
    the answer is deterministic.
    """
    if any(len(b) != len(target) for b in basis):
        raise ValueError("basis vectors and target must have equal length")
    ech = Echelon()
    for j, b in enumerate(basis):
        ech.add(b, tag=j)
    return ech.solve(target, len(basis))


class _MinorTable:
    """Minors of one matrix, with the sub-minors they share computed once.

    Each row is lifted once and scaled by the lcm of its coefficients'
    denominators, so every cell is a polynomial with int coefficients.
    Monomials are packed into one int each, exponent e_i weighted by
    base**i: no minor of order k raises a variable above k times the
    largest exponent in any cell, so with base = order * that + 1 a digit
    never carries and a product of monomials is a sum of their keys.
    det(rows, cols) expands along the last chosen column, and the
    (k-1)-minors it needs are memoized on (rows, cols), so row and column
    subsets share them.  Scaling row r by s_r scales any minor on r by
    s_r, so `minor` divides by the product of its rows' scales.
    """

    __slots__ = ("variables", "cells", "scales", "_memo", "_base", "_exponents")

    def __init__(self, entries, order):
        variables = None
        lifted = []
        for row in entries:
            cells = []
            for e in row:
                if isinstance(e, ParamPoly):
                    if variables not in (None, e.variables):
                        raise ValueError("parameter polynomials over different variable lists")
                    variables = e.variables
                    cells.append(e.terms)
                else:
                    # a scalar is a constant; its empty exponent packs to key 0 whatever the variables
                    cells.append({(): Fraction(e)} if e else {})
            lifted.append(cells)
        self.variables = variables = variables or ()
        top = max((x for row in lifted for terms in row for exp in terms for x in exp), default=0)
        self._base = base = order * top + 1
        weights = [base**i for i in range(len(variables))]
        self.cells = []
        self.scales = []
        for row in lifted:
            # `int_scaled` over every cell of the row (a list, not a generator: see there)
            scale = math.lcm(*[c.denominator for terms in row for c in terms.values()])
            self.cells.append(
                [{sum(map(operator.mul, e, weights)): c.numerator * (scale // c.denominator) for e, c in t.items()} for t in row]
            )
            self.scales.append(scale)
        self._memo: Dict = {}
        self._exponents: Dict[int, tuple] = {}

    def _expand(self, rows: tuple, cols: tuple) -> Dict:
        """Integer det of the scaled rows on cols, by Laplace expansion along cols[-1]."""
        last, rest = cols[-1], cols[:-1]
        total: Dict = {}
        for i, r in enumerate(rows):
            entry = self.cells[r][last]
            if not entry:
                continue
            sub = self._subminor(rows[:i] + rows[i + 1 :], rest)
            sign = -1 if (i + len(rows) - 1) % 2 else 1
            for k1, c1 in entry.items():
                c1 *= sign
                for k2, c2 in sub.items():
                    k = k1 + k2
                    s = total.get(k, 0) + c1 * c2
                    if s:
                        total[k] = s
                    else:
                        del total[k]
        return total

    def _subminor(self, rows: tuple, cols: tuple) -> Dict:
        if len(rows) == 1:
            return self.cells[rows[0]][cols[0]]
        key = (rows, cols)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._expand(rows, cols)
        return hit

    def _exponent(self, key: int) -> tuple:
        """The exponent tuple a packed monomial key stands for, decoded once per table."""
        exp = self._exponents.get(key)
        if exp is None:
            rest, digits = key, []
            for _ in self.variables:
                rest, digit = divmod(rest, self._base)
                digits.append(digit)
            exp = self._exponents[key] = tuple(digits)
        return exp

    def minor(self, rows: tuple, cols: tuple) -> ParamPoly:
        """det of the (rows, cols) submatrix of the original entries."""
        ints = self._expand(rows, cols) if len(rows) > 1 else self.cells[rows[0]][cols[0]]
        den = math.prod(self.scales[r] for r in rows)
        return ParamPoly._make(self.variables, {self._exponent(k): Fraction(c, den) for k, c in ints.items()})


def parametric_minors(m: ExactMatrix, order: int):
    """All order x order minors, row-major over index subsets, as ParamPoly.

    Row subsets vary slowest; each minor is expanded to canonical form.
    The minors share one table of sub-minors (see `_MinorTable`).
    """
    if order == 0:
        raise ValueError("empty minor order")
    if order > min(m.rows, m.cols):
        raise ValueError(f"minor order {order} exceeds matrix shape {m.rows}x{m.cols}")
    table = _MinorTable(m.entries, order)
    return [
        table.minor(rows, cols)
        for rows in itertools.combinations(range(m.rows), order)
        for cols in itertools.combinations(range(m.cols), order)
    ]
