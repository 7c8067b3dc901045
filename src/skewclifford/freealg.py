"""Noncommutative polynomials on degree-one generators with a graded monomial order."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Sequence, Tuple

from .exact import Echelon, ExactMatrix, join_terms, parse_scalar

# Words are tuples of 0-based generator indices; rendering is 1-based.
Word = Tuple[int, ...]

MAX_GENERATORS = 16


def word_key(w: Word):
    """Sort key realizing the degree-lexicographic order (index 0 smallest)."""
    return (len(w), w)


class NcPoly:
    """Element of the free algebra: a map from words to nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(w)] = c
        self.terms = clean

    @classmethod
    def _make(cls, terms: dict) -> "NcPoly":
        """Wrap terms that are already canonical (tuple words, nonzero Fractions) without re-validating."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def generator(cls, i: int) -> "NcPoly":
        return cls({(i,): Fraction(1)})

    @classmethod
    def word(cls, letters: Sequence[int], coeff=1) -> "NcPoly":
        return cls({tuple(letters): Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        return isinstance(other, NcPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "NcPoly") -> "NcPoly":
        terms = dict(self.terms)
        for w, c in other.terms.items():
            old = terms.get(w)
            if old is None:
                terms[w] = c
            else:
                s = old + c
                if s:
                    terms[w] = s
                else:
                    del terms[w]
        return NcPoly._make(terms)

    def __neg__(self) -> "NcPoly":
        return NcPoly._make({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __mul__(self, other) -> "NcPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                old = terms.get(w)
                if old is None:
                    terms[w] = c1 * c2
                else:
                    s = old + c1 * c2
                    if s:
                        terms[w] = s
                    else:
                        del terms[w]
        return NcPoly._make(terms)

    def __rmul__(self, other) -> "NcPoly":
        return self.scale(other)

    def scale(self, c) -> "NcPoly":
        c = Fraction(c)
        if not c:
            return NcPoly.zero()
        return NcPoly._make({w: c * v for w, v in self.terms.items()})

    def lead_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial has no leading word")
        return max(self.terms, key=word_key)

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_word()]

    def monic(self) -> "NcPoly":
        if not self.terms:
            return self
        return self.scale(1 / self.lead_coeff())

    def degree(self):
        """Maximal word length; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def homogeneous_degree(self):
        """The common degree of all words, or None (zero or inhomogeneous)."""
        degs = {len(w) for w in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def max_letter(self):
        letters = [i for w in self.terms for i in w]
        return max(letters) if letters else None

    def sorted_terms(self) -> Iterator[tuple]:
        for w in sorted(self.terms, key=word_key):
            yield w, self.terms[w]

    def canonical_key(self):
        return tuple((w, (c.numerator, c.denominator)) for w, c in self.sorted_terms())

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"NcPoly({poly_str(self)})"


class LinearMap:
    """Linear action on the degree-one span; column j is the image of generator j."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: ExactMatrix):
        if matrix.rows != matrix.cols:
            raise ValueError("linear map matrix must be square")
        self.matrix = matrix

    @classmethod
    def from_rows(cls, rows) -> "LinearMap":
        return cls(ExactMatrix([[Fraction(e) for e in row] for row in rows]))

    @classmethod
    def diagonal(cls, lams: Sequence[Fraction]) -> "LinearMap":
        lams = [Fraction(v) for v in lams]
        n = len(lams)
        return cls(ExactMatrix([[lams[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(ExactMatrix.identity(n))

    @property
    def n(self) -> int:
        return self.matrix.rows

    def image_of_generator(self, j: int) -> NcPoly:
        return NcPoly({(i,): self.matrix[i, j] for i in range(self.n)})

    def inverse(self) -> "LinearMap":
        """The inverse map: row j of the inverse matrix writes e_j in the rows of this one."""
        n = self.n
        rows = Echelon()
        for i in range(n):
            rows.add(self.matrix.row(i), tag=i)
        if len(rows) < n:
            raise ValueError("singular map")
        return LinearMap(ExactMatrix([rows.solve({j: 1}, n) for j in range(n)]))

    def apply(self, p: NcPoly) -> NcPoly:
        return apply_linear(self, p)

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.matrix == other.matrix


def apply_linear(phi: LinearMap, p: NcPoly) -> NcPoly:
    """Extend the degree-one action of phi to an algebra endomorphism."""
    result = NcPoly.zero()
    images = [phi.image_of_generator(j) for j in range(phi.n)]
    for w, c in p.terms.items():
        factor = NcPoly.one()
        for letter in w:
            if letter >= phi.n:
                raise ValueError(f"generator index {letter + 1} outside the map's span")
            factor = factor * images[letter]
        result = result + factor.scale(c)
    return result


def poly_str(p: NcPoly, letter: str = "x") -> str:
    """Render as e.g. "x1*x2 + 2*x2*x1 - x3^2" (caret only for repeated letters)."""

    def monomial(w: Word) -> str:
        factors = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            name = f"{letter}{w[i] + 1}"
            factors.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(factors)

    return join_terms((c, monomial(w)) for w, c in p.sorted_terms())


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<gen>[A-Za-z]\d+)|(?P<op>[+\-*^]))")


def parse_poly(text: str, n: int) -> NcPoly:
    """Parse the rendering grammar back into an NcPoly, e.g. "x1*x2 + 2*x2*x1 - x3^2".

    poly := [signs] term (signs term)*, term := factor ("*" factor)*,
    factor := number | generator ["^" positive int].  A generator is any
    letter (x, z, X, Z, ...) with a 1-based index.  Consecutive signs
    multiply, so "x1 - -x2" is x1 + x2.  Blank text is 0.
    """
    tokens = []  # (kind, text), last token first, so that pop() takes the next one
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse polynomial near {text[pos:pos+12]!r}")
        pos = m.end()
        tokens.append((m.lastgroup, m[m.lastgroup]))
    tokens.reverse()

    def next_is(*ops) -> bool:
        return bool(tokens) and tokens[-1][1] in ops

    def factor(word: list) -> Fraction:
        """One factor: its coefficient, with a generator's letters put onto word."""
        if not tokens:
            raise ValueError("polynomial ends where a factor is expected")
        kind, val = tokens.pop()
        if kind == "num":
            return parse_scalar(val)
        if kind != "gen":
            raise ValueError(f"expected a number or generator, found {val!r}")
        index = int(val[1:]) - 1
        if not 0 <= index < n:
            raise ValueError(f"generator {val!r} out of range 1..{n}")
        power = 1
        if next_is("^"):
            tokens.pop()
            digits = tokens.pop()[1] if tokens else ""
            if not digits.isdigit() or int(digits) < 1:
                raise ValueError("exponent must be a positive integer")
            power = int(digits)
        word.extend([index] * power)
        return Fraction(1)

    result = NcPoly.zero()
    while tokens:
        coeff, word = Fraction(1), []
        while next_is("+", "-"):
            if tokens.pop()[1] == "-":
                coeff = -coeff
        coeff *= factor(word)
        while next_is("*"):
            tokens.pop()
            coeff *= factor(word)
        result = result + NcPoly.word(word, coeff)
        if tokens and not next_is("+", "-"):
            raise ValueError(f"missing operator before {tokens[-1][1]!r}")
    return result
