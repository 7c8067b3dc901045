"""Truncated noncommutative Groebner bases for graded presentations.

Relations are homogeneous, so overlap obstructions can be resolved strictly
degree by degree: once every obstruction of degree <= D reduces to zero, the
words avoiding all leading words form a basis of each graded piece up to D,
and normal forms of elements of degree <= D are unique.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

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
    each rule's other words with their negated coefficients, None for 1,
    so that a rewrite multiplies only where it must.
    """

    __slots__ = ("by_lead", "lengths", "_length_counts", "_tails")

    def __init__(self, basis: Sequence[NcPoly] = ()):
        self.by_lead: Dict[Word, NcPoly] = {}
        self.lengths: List[int] = []
        self._length_counts: Dict[int, int] = {}
        self._tails: Dict[Word, tuple] = {}
        for g in basis:
            lw = g.lead_word()
            if lw not in self.by_lead:
                self.add(lw, g)

    def add(self, lw: Word, g: NcPoly) -> None:
        """Index g under its leading word lw, which must be new to the index."""
        self.by_lead[lw] = g
        self._tails[lw] = tuple((w, None if c == -1 else -c) for w, c in g.terms.items() if w != lw)
        count = self._length_counts.get(len(lw), 0)
        self._length_counts[len(lw)] = count + 1
        if not count:
            bisect.insort(self.lengths, len(lw))

    def remove(self, lw: Word) -> None:
        del self.by_lead[lw]
        del self._tails[lw]
        count = self._length_counts.pop(len(lw)) - 1
        if count:
            self._length_counts[len(lw)] = count
        else:
            self.lengths.remove(len(lw))

    def match(self, w: Word):
        """(position, length, tail) of the leftmost, smallest rule matching w, or None."""
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
    """
    rules = basis if isinstance(basis, _LeadIndex) else _LeadIndex(basis)
    if not rules.by_lead:
        return p
    match = rules.match
    terms = dict(p.terms)
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
            done[w] = c
            continue
        pos, L, tail = hit
        left, right = w[:pos], w[pos + L :]
        for gw, factor in tail:
            d = c if factor is None else c * factor
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
    out = NcPoly.__new__(NcPoly)
    out.terms = done
    return out


def _occurs(lw: Word, g: NcPoly) -> bool:
    """Whether some word of g has lw as a subword."""
    if lw in g.terms:
        return True
    L = len(lw)
    return any(
        w[pos : pos + L] == lw for w in g.terms if len(w) > L for pos in range(len(w) - L + 1)
    )


def _interreduce(rules: _LeadIndex, polys: Sequence[NcPoly]) -> None:
    """Adjoin polys to the inter-reduced rules and restore inter-reduction in place.

    Each step is the one the fixed-point definition takes: replace the
    smallest element (by leading word, then canonical key) that is
    reducible modulo the others by its monic remainder, dropping zeros.
    An element that is not queued is irreducible modulo the others, and it
    is queued only when a new leading word occurs in one of its words.  For
    homogeneous input a new element h occurs only in words of degree
    >= deg h, so same-degree elements get a tail update and only longer
    ones can lose their leading word.  Input relations may share a leading
    word; the index then holds the smallest of them and the word stays
    queued until the others are reduced.
    """
    by_lead = rules.by_lead
    dups: Dict[Word, List[NcPoly]] = {}  # the others sharing an indexed leading word, by canonical key
    todo: List[tuple] = []
    queued = set()

    def queue(lw):
        if lw not in queued:
            queued.add(lw)
            heapq.heappush(todo, (len(lw), lw))

    def adjoin(g):
        """Index g; returns its leading word.  Elements whose words contain a new leading word are queued."""
        lw = g.lead_word()
        if lw in by_lead:
            group = sorted([by_lead[lw], *dups.get(lw, ()), g], key=NcPoly.canonical_key)
            rules.remove(lw)
            rules.add(lw, group[0])
            dups[lw] = group[1:]
            queue(lw)
        else:
            for other, h in by_lead.items():
                if len(other) >= len(lw) and other not in queued and _occurs(lw, h):
                    queue(other)
            rules.add(lw, g)
        return lw

    for p in polys:
        if p:
            queue(adjoin(p.monic()))
    while todo:
        lw = heapq.heappop(todo)[1]
        queued.discard(lw)
        g = by_lead.get(lw)
        if g is None:
            continue  # left since it was queued
        rest = dups.pop(lw, None)
        rules.remove(lw)
        if rest:
            rules.add(lw, rest[0])
            if len(rest) > 1:
                dups[lw] = rest[1:]
            queue(lw)
        elif all(rules.match(w) is None for w in g.terms):
            rules.add(lw, g)  # irreducible: it stays
            continue
        h = reduce_poly(g, rules)
        if h:
            adjoin(h.monic())  # irreducible modulo the others, so not queued


class GroebnerData:
    """A truncated, inter-reduced rewriting system for a graded presentation."""

    __slots__ = ("source", "max_degree", "elements", "complete_through", "_basis_cache", "_rules")

    def __init__(self, source: PresentedAlgebra, max_degree: int, elements: Sequence[NcPoly], complete_through: int):
        self.source = source
        self.max_degree = max_degree
        self.elements = tuple(elements)
        self.complete_through = complete_through
        self._basis_cache: dict = {}
        self._rules = _LeadIndex(self.elements)

    @property
    def n(self) -> int:
        return self.source.n

    def lead_words(self) -> List[Word]:
        return [g.lead_word() for g in self.elements]

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerData)
            and self.source == other.source
            and self.elements == other.elements
            and self.complete_through == other.complete_through
        )

    def __repr__(self):
        return f"GroebnerData(n={self.n}, elements={len(self.elements)}, complete_through={self.complete_through})"


def _obstructions(by_lead: Dict[Word, NcPoly], degree: int):
    """Overlap ambiguities a*lead(g) = lead(f)*b whose word has the given total degree.

    Each item is (a, f, g, b); items are sorted by (ambiguity word,
    overlap length, polynomial keys) for determinism.
    """
    obs = []
    for u in by_lead:
        for v in by_lead:
            ell = len(u) + len(v) - degree
            if 0 < ell < min(len(u), len(v)) and u[len(u) - ell :] == v[:ell]:
                obs.append((word_key(u + v[ell:]), ell, u, v))
    keys: Dict[Word, tuple] = {}

    def key(lw: Word) -> tuple:
        if lw not in keys:
            keys[lw] = by_lead[lw].canonical_key()
        return keys[lw]

    obs.sort(key=lambda t: (t[0], t[1], key(t[2]), key(t[3])))
    return [(u[: len(u) - ell], by_lead[u], by_lead[v], v[ell:]) for _, ell, u, v in obs]


def groebner(alg: PresentedAlgebra, max_degree: int) -> GroebnerData:
    """Resolve all overlap obstructions of degree <= max_degree.

    Obstructions are processed in (degree, word) order and every nonzero
    reduced S-polynomial is adjoined monic; the basis is kept inter-reduced
    throughout, so the output is canonical.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    rules = _LeadIndex()
    _interreduce(rules, alg.relations)
    for d in range(3, max_degree + 1):
        for a, f, g, b in _obstructions(rules.by_lead, d):
            # Stale pairs (f or g replaced by interreduction) still yield
            # ideal members, so reducing them is sound either way.
            s = f * NcPoly.word(b) - NcPoly.word(a) * g
            h = reduce_poly(s, rules)
            if h:
                _interreduce(rules, [h])
    elements = [rules.by_lead[lw] for lw in sorted(rules.by_lead, key=word_key)]
    return GroebnerData(alg, max_degree, elements, max_degree)


def normal_form(p: NcPoly, gb: GroebnerData) -> NcPoly:
    """Unique normal form of p; requires deg(p) within the completeness bound."""
    deg = p.degree()
    if deg is not None and deg > gb.complete_through:
        raise DegreeBoundError(
            f"degree {deg} exceeds completeness bound {gb.complete_through}"
        )
    return reduce_poly(p, gb._rules)


def degree_basis(gb: GroebnerData, d: int) -> List[Word]:
    """All degree-d words with no leading word as a subword, in deglex order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > gb.complete_through:
        raise DegreeBoundError(f"degree {d} exceeds completeness bound {gb.complete_through}")
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
