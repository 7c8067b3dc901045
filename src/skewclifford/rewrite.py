"""Truncated noncommutative Groebner bases for graded presentations.

Relations are homogeneous, so overlap obstructions can be resolved strictly
degree by degree: once every obstruction of degree <= D reduces to zero, the
words avoiding all leading words form a basis of each graded piece up to D,
and normal forms of elements of degree <= D are unique.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Union

from .exact import int_scaled
from .freealg import MAX_GENERATORS, NcPoly, Word, word_key


class DegreeBoundError(ValueError):
    """Raised when an operation needs completeness beyond the computed bound."""


class PresentedAlgebra:
    """Graded algebra on n degree-one generators with homogeneous relations of degree >= 2."""

    __slots__ = ("n", "relations")

    def __init__(self, n: int, relations: Sequence[NcPoly]):
        if not 1 <= n <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 1..{MAX_GENERATORS}, got {n}")
        cleaned = []
        for r in relations:
            if not r:
                continue
            deg = r.homogeneous_degree()
            if deg is None:
                raise ValueError(f"inhomogeneous relation rejected: {r}")
            if deg < 2:
                raise ValueError(f"relation of degree {deg} rejected (must be >= 2): {r}")
            top = r.max_letter()
            if top is not None and top >= n:
                raise ValueError(f"relation uses generator {top + 1} but n = {n}")
            cleaned.append(r.monic())
        cleaned.sort(key=lambda p: (word_key(p.lead_word()), p.canonical_key()))
        self.n = n
        self.relations = tuple(cleaned)

    def __eq__(self, other):
        return isinstance(other, PresentedAlgebra) and self.n == other.n and self.relations == other.relations

    def __repr__(self):
        return f"PresentedAlgebra(n={self.n}, relations={len(self.relations)})"


class _LeadIndex:
    """The rewriting rules of a set of monic polynomials, indexed by leading word.

    `by_lead` maps each leading word to its polynomial (the first one given
    when several share a leading word) and `lengths` lists the distinct
    leading-word lengths in increasing order, so the smallest leading word
    at a position is found by hashing one slice per length.  `_tails` holds
    each rule as (s, tail): s is the lcm of the denominators of its other
    coefficients, and tail lists its other words with their negated
    coefficients times s, as ints, so the leading word equals
    sum(t * word for word, t in tail) / s.
    """

    __slots__ = ("by_lead", "lengths", "_tails")

    def __init__(self, basis: Sequence[NcPoly] = ()):
        self.by_lead: Dict[Word, NcPoly] = {}
        self.lengths: List[int] = []
        self._tails: Dict[Word, tuple] = {}
        for g in basis:
            lw = g.lead_word()
            if lw not in self.by_lead:
                self.add(lw, g)

    def add(self, lw: Word, g: NcPoly) -> None:
        """Index g under its leading word lw, replacing any rule indexed there."""
        self.by_lead[lw] = g
        scale, rest = int_scaled({w: c for w, c in g.terms.items() if w != lw})
        self._tails[lw] = (scale, tuple((w, -t) for w, t in rest.items()))
        if len(lw) not in self.lengths:
            bisect.insort(self.lengths, len(lw))

    def match(self, w: Word):
        """(position, length, (s, tail)) of the leftmost, smallest rule matching w, or None."""
        get = self._tails.get
        lengths = self.lengths
        n = len(w)
        if not lengths:
            return None
        for pos in range(n - lengths[0] + 1):
            for L in lengths:
                end = pos + L
                if end > n:
                    break
                tail = get(w[pos:end])
                if tail is not None:
                    return pos, L, tail
        return None


def _descending(w: Word) -> int:
    """Heap key that pops words in decreasing deglex order (letters are < 256)."""
    return -int.from_bytes(b"\x01" + bytes(w), "big")


def reduce_poly(p: NcPoly, basis: Union[Sequence[NcPoly], _LeadIndex]) -> NcPoly:
    """Fully reduce p modulo a list (or lead index) of monic polynomials.

    Strategy is fixed for reproducibility: rewrite the deglex-largest
    reducible word, at its leftmost reducible position, by the smallest
    matching leading word (the first listed, among equal leading words).
    A rewrite replaces a word by deglex-smaller ones, so words are taken
    off a max-heap, and a word found irreducible is final.

    The arithmetic is fraction-free: live terms are int numerators over one
    running denominator den.  Rewriting c*w by a rule (s, tail) adds
    (c/g)*t for each tail entry t, where g = gcd(c, s), after every live
    numerator and den are multiplied by s/g.  A word found irreducible
    leaves as the exact Fraction c/den.
    """
    rules = basis if isinstance(basis, _LeadIndex) else _LeadIndex(basis)
    if not rules.by_lead:
        return p
    match = rules.match
    gcd = math.gcd
    den, terms = int_scaled(p.terms)
    heap = [(_descending(w), w) for w in terms]
    heapq.heapify(heap)
    done = {}
    while heap:
        w = heapq.heappop(heap)[1]
        c = terms.pop(w, None)
        if c is None:
            continue  # cancelled since it was queued
        hit = match(w)
        if hit is None:
            done[w] = Fraction(c, den)
            continue
        pos, L, (scale, tail) = hit
        if scale != 1:
            g = gcd(c, scale)
            k = scale // g
            if k != 1:
                den *= k
                for live in terms:
                    terms[live] *= k
            c //= g
        left, right = w[:pos], w[pos + L :]
        for gw, t in tail:
            d = c * t
            nw = left + gw + right
            old = terms.get(nw)
            if old is None:
                terms[nw] = d
                heapq.heappush(heap, (_descending(nw), nw))
            else:
                s = old + d
                if s:
                    terms[nw] = s
                else:
                    del terms[nw]
    return NcPoly._make(done)


def _interreduce(rules: _LeadIndex, polys: Sequence[NcPoly]) -> None:
    """Adjoin polys of one degree d to rules that are inter-reduced and final below d.

    Each p is reduced modulo the rules and, if nonzero, made monic as h.  No
    element of lower degree has a word of degree d, and a word of degree d
    holds lead(h) only by being it, so subtracting c*h from each rule that
    has lead(h) with coefficient c keeps degree d in reduced echelon form.
    Then h is indexed.
    """
    by_lead = rules.by_lead
    for p in polys:
        h = reduce_poly(p, rules)
        if not h:
            continue
        h = h.monic()
        lw = h.lead_word()
        for other, g in list(by_lead.items()):
            c = g.terms.get(lw)
            if c is not None:
                rules.add(other, g - h.scale(c))
        rules.add(lw, h)


class GroebnerData:
    """A truncated, inter-reduced rewriting system for a graded presentation.

    `elements` lists the rules of the lead index in deglex order of their
    leading words.  Normal forms are unique through `max_degree`, and
    `require` is the one check every reader makes before relying on that.
    """

    __slots__ = ("source", "max_degree", "elements", "_basis_cache", "_rules")

    def __init__(self, source: PresentedAlgebra, max_degree: int, rules: _LeadIndex):
        self.source = source
        self.max_degree = max_degree
        self.elements = tuple(rules.by_lead[lw] for lw in sorted(rules.by_lead, key=word_key))
        self._basis_cache: dict = {}
        self._rules = rules

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def complete_through(self) -> int:
        return self.max_degree

    def require(self, degree: int) -> None:
        """Raise DegreeBoundError when degree lies beyond the completeness bound."""
        if degree > self.max_degree:
            raise DegreeBoundError(f"degree {degree} exceeds completeness bound {self.max_degree}")

    def lead_words(self) -> List[Word]:
        return [g.lead_word() for g in self.elements]

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerData)
            and self.source == other.source
            and self.elements == other.elements
            and self.max_degree == other.max_degree
        )

    def __repr__(self):
        return f"GroebnerData(n={self.n}, elements={len(self.elements)}, complete_through={self.max_degree})"


def _obstructions(by_lead: Dict[Word, NcPoly], degree: int):
    """Overlap ambiguities a*lead(g) = lead(f)*b whose word has the given total degree.

    Each item is (a, f, g, b); items are sorted by (ambiguity word, overlap
    length, length of lead(f)) for determinism.  Those three values fix the
    pair, so no two items tie.
    """
    obs = []
    for u in by_lead:
        for v in by_lead:
            ell = len(u) + len(v) - degree
            if 0 < ell < min(len(u), len(v)) and u[len(u) - ell :] == v[:ell]:
                obs.append((word_key(u + v[ell:]), ell, len(u), u, v))
    obs.sort()
    return [(u[: len(u) - ell], by_lead[u], by_lead[v], v[ell:]) for _, ell, _, u, v in obs]


def _s_polynomial(a: Word, f: NcPoly, g: NcPoly, b: Word) -> NcPoly:
    """f*b - a*g, formed by shifting the words of f and g."""
    terms = {w + b: c for w, c in f.terms.items()}
    for w, c in g.terms.items():
        w = a + w
        old = terms.get(w)
        if old is None:
            terms[w] = -c
        else:
            s = old - c
            if s:
                terms[w] = s
            else:
                del terms[w]
    return NcPoly._make(terms)


def groebner(alg: PresentedAlgebra, max_degree: int) -> GroebnerData:
    """Resolve all overlap obstructions of degree <= max_degree.

    The basis is built one degree d at a time.  Relations are homogeneous,
    so every element of lower degree is final when degree d starts.  Degree
    d adjoins its relations, then the nonzero remainders of its
    S-polynomials in (word, overlap) order, each through `_interreduce`.
    Through max_degree the output is the reduced Groebner basis truncated
    there, which is canonical.  A degree above max_degree that holds a
    relation is not complete: its elements are the relations of that
    degree, reduced modulo all lower-degree elements, in reduced echelon
    form.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    by_degree: Dict[int, List[NcPoly]] = {}
    for r in alg.relations:
        by_degree.setdefault(len(r.lead_word()), []).append(r)
    rules = _LeadIndex()
    for d in range(2, max([max_degree, *by_degree]) + 1):
        _interreduce(rules, by_degree.get(d, ()))
        if d <= max_degree:
            for a, f, g, b in _obstructions(rules.by_lead, d):
                h = reduce_poly(_s_polynomial(a, f, g, b), rules)
                if h:
                    _interreduce(rules, [h])
    return GroebnerData(alg, max_degree, rules)


def normal_form(p: NcPoly, gb: GroebnerData) -> NcPoly:
    """Unique normal form of p; requires deg(p) within the completeness bound."""
    deg = p.degree()
    if deg is not None:
        gb.require(deg)
    return reduce_poly(p, gb._rules)


def degree_basis(gb: GroebnerData, d: int) -> List[Word]:
    """All degree-d words with no leading word as a subword, in deglex order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    gb.require(d)
    cache = gb._basis_cache
    if d in cache:
        return cache[d]
    leads = gb._rules.by_lead
    lengths = gb._rules.lengths
    start = max((k for k in cache if k <= d), default=None)
    if start is None:
        cache[0] = [()]
        start = 0
    words = cache[start]
    for k in range(start + 1, d + 1):
        nxt = []
        for w in words:
            for i in range(gb.n):
                cand = w + (i,)
                # w is already normal, so only suffixes ending at the new
                # letter can introduce a leading word.
                if any(len(cand) >= L and cand[len(cand) - L :] in leads for L in lengths):
                    continue
                nxt.append(cand)
        cache[k] = nxt
        words = nxt
    return cache[d]


def hilbert_coeffs(gb: GroebnerData, through: int) -> List[int]:
    """Dimensions of the graded pieces 0..through."""
    return [len(degree_basis(gb, d)) for d in range(through + 1)]


@dataclass(frozen=True)
class FiniteDimVerdict:
    finite: bool
    dimension: Optional[int]
    bound: int

    def __str__(self):
        if self.finite:
            return f"finite (dimension {self.dimension})"
        return f"unknown at bound {self.bound}"


def finite_dim_check(gb: GroebnerData) -> FiniteDimVerdict:
    """Detect finite total dimension from a vanishing graded piece.

    A zero piece in degree d kills every higher degree because the algebra
    is generated in degree one.
    """
    total = 0
    for d in range(gb.complete_through + 1):
        count = len(degree_basis(gb, d))
        if count == 0:
            return FiniteDimVerdict(True, total, gb.complete_through)
        total += count
    return FiniteDimVerdict(False, None, gb.complete_through)
