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
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .exact import int_scaled
from .freealg import MAX_GENERATORS, NcPoly, Word, word_key


class DegreeBoundError(ValueError):
    """Raised when an operation needs completeness beyond the computed bound."""


def _relation_key(p: NcPoly):
    return (word_key(p.lead_word()), p.canonical_key())


def _check_generator_count(n: int) -> None:
    if not 1 <= n <= MAX_GENERATORS:
        raise ValueError(f"generator count must be in 1..{MAX_GENERATORS}, got {n}")


class PresentedAlgebra:
    """Graded algebra on n degree-one generators with homogeneous relations of degree >= 2."""

    __slots__ = ("n", "relations")

    def __init__(self, n: int, relations: Sequence[NcPoly]):
        _check_generator_count(n)
        self.n = n
        self.relations = tuple(self._cleaned(relations))

    @classmethod
    def _trusted(cls, n: int, relations: Iterable[NcPoly]) -> "PresentedAlgebra":
        """The algebra on relations that are already nonzero, valid for n, monic and in `_relation_key` order."""
        alg = object.__new__(cls)
        alg.n = n
        alg.relations = tuple(relations)
        return alg

    def _cleaned(self, relations: Sequence[NcPoly]) -> List[NcPoly]:
        """The nonzero relations, validated against self.n, made monic and sorted."""
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
            if top is not None and top >= self.n:
                raise ValueError(f"relation uses generator {top + 1} but n = {self.n}")
            cleaned.append(r.monic())
        cleaned.sort(key=_relation_key)
        return cleaned

    def with_relations(self, relations: Sequence[NcPoly]) -> "PresentedAlgebra":
        """This algebra modulo more relations; only the new ones are validated.

        Equal to PresentedAlgebra(n, self.relations + relations): both lists
        are sorted, so merging them gives the same order.
        """
        return PresentedAlgebra._trusted(self.n, heapq.merge(self.relations, self._cleaned(relations), key=_relation_key))

    def __eq__(self, other):
        return isinstance(other, PresentedAlgebra) and self.n == other.n and self.relations == other.relations

    def __repr__(self):
        return f"PresentedAlgebra(n={self.n}, relations={len(self.relations)})"


class _LeadIndex:
    """The rewriting rules of a set of nonzero polynomials, as primitive integer rows.

    `by_lead` maps each leading word to its rule (s, tail) (the first one
    given when several share a leading word): tail maps the rule's other
    words to ints, with the leading word equal to
    sum(t * word for word, t in tail.items()) / s and s > 0.  `of_length`
    lists the leading words of each length and `lengths` the distinct
    lengths in increasing order, so the smallest leading word at a position
    is found by hashing one slice per length.
    """

    __slots__ = ("by_lead", "of_length", "lengths")

    def __init__(self, basis: Sequence[NcPoly] = ()):
        self.by_lead: Dict[Word, tuple] = {}
        self.of_length: Dict[int, List[Word]] = {}
        self.lengths: List[int] = []
        for g in basis:
            lw = g.lead_word()
            if lw not in self.by_lead:
                # the rule of g divided by its lead coefficient, which spans the same ideal
                lc = g.terms[lw]
                scale, rest = int_scaled({w: -c / lc for w, c in g.terms.items() if w != lw})
                self.add(lw, (scale, rest))

    def add(self, lw: Word, rule: tuple) -> None:
        """Index the rule (s, tail) under a leading word that has none yet."""
        self.by_lead[lw] = rule
        L = len(lw)
        if L not in self.of_length:
            self.of_length[L] = []
            bisect.insort(self.lengths, L)
        self.of_length[L].append(lw)

    def element(self, lw: Word) -> NcPoly:
        """The monic polynomial of the rule indexed under lw."""
        s, tail = self.by_lead[lw]
        return NcPoly._make({lw: Fraction(1), **{w: Fraction(-t, s) for w, t in tail.items()}})

    def match(self, w: Word, longest: Optional[int] = None):
        """(position, length, (s, tail)) of the leftmost, smallest rule matching w, or None.

        With longest given, only leading words of at most that length count.
        """
        get = self.by_lead.get
        lengths = self.lengths
        if longest is not None:
            lengths = lengths[: bisect.bisect_right(lengths, longest)]
        n = len(w)
        if not lengths:
            return None
        for pos in range(n - lengths[0] + 1):
            for L in lengths:
                end = pos + L
                if end > n:
                    break
                rule = get(w[pos:end])
                if rule is not None:
                    return pos, L, rule
        return None


def _descending(w: Word) -> int:
    """Heap key that pops words in decreasing deglex order (letters are < 256)."""
    return -int.from_bytes(b"\x01" + bytes(w), "big")


def _reduce(rules: _LeadIndex, den: int, terms: Dict[Word, int]) -> Tuple[int, Dict[Word, int]]:
    """Fully reduce sum(c * w for w, c in terms.items()) / den modulo rules, in ints.

    Returns (den', done): the remainder is sum(c * w for w, c in
    done.items()) / den', and done lists its words in decreasing deglex
    order.  terms is consumed.

    Strategy is fixed for reproducibility: rewrite the deglex-largest
    reducible word, at its leftmost reducible position, by the smallest
    matching leading word (the first listed, among equal leading words).
    A rewrite replaces a word by deglex-smaller ones, so words are taken
    off a max-heap, and a word found irreducible is final.

    The arithmetic is fraction-free: rewriting c*w by a rule (s, tail) adds
    (c/g)*t for each tail entry t, where g = gcd(c, s), after every live
    and finished numerator and den are multiplied by s/g.

    The rewrite of a word depends on the word alone, and a word leaves the
    heap only once every larger word has, with all its coefficient
    gathered.  So the remainder is linear in terms: sum c * NF(w), where
    NF(w) is w for an irreducible word and NF of its rewrite otherwise.
    This is the kernel of `reduce_poly` and `normal_form`; `groebner`
    computes the same NF from memoized rows instead (`_DegreeStep`).
    """
    match = rules.match
    gcd = math.gcd
    heap = [(_descending(w), w) for w in terms]
    heapq.heapify(heap)
    done: Dict[Word, int] = {}
    while heap:
        w = heapq.heappop(heap)[1]
        c = terms.pop(w, None)
        if c is None:
            continue  # cancelled since it was queued
        hit = match(w)
        if hit is None:
            done[w] = c
            continue
        pos, L, (scale, tail) = hit
        if scale != 1:
            g = gcd(c, scale)
            k = scale // g
            if k != 1:
                den *= k
                for live in terms:
                    terms[live] *= k
                for final in done:
                    done[final] *= k
            c //= g
        left, right = w[:pos], w[pos + L :]
        for gw, t in tail.items():
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
    return den, done


def reduce_poly(p: NcPoly, basis: Union[Sequence[NcPoly], _LeadIndex]) -> NcPoly:
    """Fully reduce p modulo a list (or lead index) of nonzero polynomials, each taken monic.

    A wrapper over the integer kernel `_reduce`, with its strategy: p's
    coefficients are scaled to ints over one denominator, and each word of
    the remainder leaves as the exact Fraction c/den.
    """
    rules = basis if isinstance(basis, _LeadIndex) else _LeadIndex(basis)
    if not rules.by_lead:
        return p
    den, terms = int_scaled(p.terms)
    den, done = _reduce(rules, den, terms)
    for w, c in done.items():
        done[w] = Fraction(c, den)
    return NcPoly._make(done)


def _adjoin(rules: _LeadIndex, h: Dict[Word, int]) -> None:
    """Adjoin the nonzero int remainder h of degree d, its words in decreasing order, to rules final below d.

    Dividing h by its content, signed like its lead coefficient, gives the
    new rule's primitive row.  No element of lower degree has a word of
    degree d, and a word of degree d holds lead(h) only by being it, so
    substituting the new rule for lead(h) in each rule of degree d that
    has it keeps degree d in reduced echelon form; each changed row is
    made primitive again.
    """
    gcd = math.gcd
    lw, c = next(iter(h.items()))
    g = gcd(*h.values())
    if c < 0:
        g = -g
    s = c // g
    tail = {w: -(t // g) for w, t in h.items() if w != lw}
    by_lead = rules.by_lead
    for other in rules.of_length.get(len(lw), ()):
        so, to = by_lead[other]
        t = to.get(lw)
        if t is None:
            continue
        q = gcd(s, t)
        ms, mt = s // q, t // q
        new = {w: x * ms for w, x in to.items() if w != lw}
        for w, x in tail.items():
            y = new.get(w, 0) + mt * x
            if y:
                new[w] = y
            else:
                del new[w]
        so *= ms
        content = gcd(so, *new.values())
        if content != 1:
            so //= content
            new = {w: x // content for w, x in new.items()}
        by_lead[other] = (so, new)
    rules.add(lw, (s, tail))


def _row_sum(parts, rows: Dict[Word, tuple]) -> Tuple[int, Dict[Word, int]]:
    """(m, acc) with acc / m = sum(t * rows[w] for w, t in parts), m the lcm of the rows' denominators.

    Each rows[w] is a row (den_w, row_w) standing for row_w / den_w.
    """
    gcd = math.gcd
    m = 1
    for w, _ in parts:
        dw = rows[w][0]
        if dw != 1:
            m = m // gcd(m, dw) * dw
    acc: Dict[Word, int] = {}
    for w, t in parts:
        dw, row = rows[w]
        k = t * (m // dw)
        for v, c in row.items():
            e = acc.get(v, 0) + k * c
            if e:
                acc[v] = e
            else:
                del acc[v]
    return m, acc


class _DegreeStep:
    """Reduction of the polynomials of one degree d modulo rules final below d.

    `rows` memoizes, for each degree-d word met, its primitive row
    (den, row): the word's normal form modulo the rules of degree < d is
    sum(c * v for v, c in row.items()) / den, with den > 0 and
    gcd(den, *row) = 1.  The rules of lower degree stay fixed while degree
    d runs, since `_adjoin` only rewrites rules of the degree it adjoins
    to, so a row once filled stays valid until the degree ends and the
    step is dropped.

    A row is filled by `_LeadIndex.match` capped at length d - 1, so each
    word takes the rewrite `_reduce` would give it: a reducible word holds
    no leading word of degree d, since those are irreducible modulo the
    lower rules, so its leftmost, smallest match has length < d.  The
    rewrite replaces the word by smaller words of the same degree, whose
    rows come first; an explicit stack stands in for the recursion.
    """

    __slots__ = ("rules", "degree", "rows")

    def __init__(self, rules: _LeadIndex, degree: int):
        self.rules = rules
        self.degree = degree
        self.rows: Dict[Word, tuple] = {}

    def _fill(self, words: List[Word]) -> None:
        """Memoize the rows of words and of every word their rewrites reach."""
        rows = self.rows
        match = self.rules.match
        longest = self.degree - 1
        gcd = math.gcd
        # (word, None) asks for the word's row; (word, (s, parts)) sums the
        # rows of its rewrite, sum(t * y for y, t in parts) / s, once the
        # entries pushed above it have filled them
        stack = [(w, None) for w in words]
        while stack:
            x, rewrite = stack.pop()
            if rewrite is None:
                if x in rows:
                    continue  # filled since it was queued
                hit = match(x, longest)
                if hit is None:
                    rows[x] = (1, {x: 1})
                    continue
                pos, L, (scale, tail) = hit
                left, right = x[:pos], x[pos + L :]
                rewrite = (scale, [(left + tw + right, t) for tw, t in tail.items()])
                stack.append((x, rewrite))
                stack.extend([(y, None) for y, _ in rewrite[1] if y not in rows])
                continue
            m, acc = _row_sum(rewrite[1], rows)
            den = rewrite[0] * m
            g = gcd(den, *acc.values())
            if g != 1:
                den //= g
                acc = {v: c // g for v, c in acc.items()}
            rows[x] = (den, acc)

    def reduce(self, terms: Dict[Word, int]) -> Dict[Word, int]:
        """A positive multiple of `_reduce`'s remainder of terms, its words in decreasing order.

        The sum of memoized rows is the normal form modulo the rules of
        degree < d.  Its words hold no lower leading word, and a word of
        degree d holds one of degree d only by being it, so one pass that
        substitutes the degree-d rules finishes it: their tails hold no
        leading word.  Both this and `_reduce` apply the linear map NF,
        and every word takes the same rewrite in each, so the remainders
        agree up to their denominators.
        """
        lengths = self.rules.lengths
        if lengths and lengths[0] < self.degree:
            rows = self.rows
            missing = [w for w in terms if w not in rows]
            if missing:
                self._fill(missing)
            acc = _row_sum(terms.items(), rows)[1]
        else:
            acc = dict(terms)  # no rule is shorter than d: every row is its word
        by_lead = self.rules.by_lead
        gcd = math.gcd
        for lw in [w for w in acc if w in by_lead]:
            c = acc.pop(lw)
            scale, tail = by_lead[lw]
            if scale != 1:
                g = gcd(c, scale)
                k = scale // g
                if k != 1:
                    for w in acc:
                        acc[w] *= k
                c //= g
            for w, t in tail.items():
                e = acc.get(w, 0) + c * t
                if e:
                    acc[w] = e
                else:
                    del acc[w]
        return {w: acc[w] for w in sorted(acc, reverse=True)}


def _interreduce(step: _DegreeStep, polys: Sequence[NcPoly]) -> None:
    """Adjoin polys of the step's degree d to its rules, which are inter-reduced and final below d.

    Each p is reduced by the step and, if nonzero, adjoined by `_adjoin`.
    """
    for p in polys:
        h = step.reduce(int_scaled(p.terms)[1])
        if h:
            _adjoin(step.rules, h)


class GroebnerData:
    """A truncated, inter-reduced rewriting system for a graded presentation.

    The rules stay integer rows in the lead index; `elements` builds their
    monic polynomials, in deglex order of the leading words, on each read.
    Normal forms are unique through `max_degree`, and `require` is the one
    check every reader makes before relying on that.
    """

    __slots__ = ("source", "max_degree", "_rules")

    def __init__(self, source: PresentedAlgebra, max_degree: int, rules: _LeadIndex):
        self.source = source
        self.max_degree = max_degree
        self._rules = rules

    @property
    def elements(self) -> Tuple[NcPoly, ...]:
        return tuple(self._rules.element(lw) for lw in self.lead_words())

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
        return sorted(self._rules.by_lead, key=word_key)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerData)
            and self.source == other.source
            and self.elements == other.elements
            and self.max_degree == other.max_degree
        )

    def __repr__(self):
        return f"GroebnerData(n={self.n}, elements={len(self._rules.by_lead)}, complete_through={self.max_degree})"


def _commutation_columns(alg: PresentedAlgebra) -> Optional[List[Optional[Dict[int, int]]]]:
    """The skew ring's scalars by letter, when alg has a commutation relation for every pair; else None.

    With z_j z_l = mu[l][j] z_l z_j, entry j is {l: mu[l][j] * D_j} with
    D_j the lcm of the column's denominators, or None when every mu[l][j]
    is 1.  A commutation relation is z_j z_i - q z_i z_j with j > i and q
    nonzero; the first listed counts when a pair has several.
    """
    n = alg.n
    mu = [[Fraction(1)] * n for _ in range(n)]
    pairs = set()
    for r in alg.relations:
        if len(r.terms) != 2:
            continue
        lw = r.lead_word()
        if len(lw) != 2 or lw[0] <= lw[1] or lw in pairs:
            continue
        j, i = lw
        q = r.terms.get((i, j))
        if q is not None:
            pairs.add(lw)
            mu[i][j], mu[j][i] = -q, -1 / q
    if len(pairs) != n * (n - 1) // 2:
        return None
    columns = [{l: mu[l][j] for l in range(n)} for j in range(n)]
    return [None if all(x == 1 for x in col.values()) else int_scaled(col)[1] for col in columns]


class _Overlaps:
    """The overlap obstructions of a growing basis, less those proved to resolve.

    Leading words join once their degree is finished, indexed by length and
    proper prefix, so `pending(d)` finds each overlap u*b = a*v of total
    degree d from a suffix of u without pairing every two leading words.
    `columns` is the skew ring's scalars by letter when the presentation
    holds every commutation relation (`_commutation_columns`), else None.
    Rules (iii) and (iv) of `groebner` ask whether z_j scales one element
    as a whole; `_homogeneous` answers for one leading word and one letter
    at a time, in ints, and at once for a letter whose scalars are all 1.
    """

    __slots__ = ("rules", "columns", "finished", "starts", "_scaled")

    def __init__(self, rules: _LeadIndex, columns: Optional[List[Optional[Dict[int, int]]]]):
        self.rules = rules
        self.columns = columns
        self.finished: List[Word] = []
        self.starts: Dict[tuple, List[Word]] = {}
        self._scaled: Dict[tuple, bool] = {}

    def finish(self, degree: int) -> None:
        """Index the leading words of a degree that is final."""
        for lw in self.rules.of_length.get(degree, ()):
            self.finished.append(lw)
            for ell in range(1, degree):
                self.starts.setdefault((degree, lw[:ell]), []).append(lw)

    def pending(self, degree: int):
        """(a, f, g, b) for each obstruction a*lead(g) = lead(f)*b of the given degree not proved to resolve.

        f and g are the rules (s, tail) of the lead index.

        Items are sorted by (ambiguity word, overlap length, length of
        lead(f)); those three values fix the pair, so no two items tie.
        """
        obs = []
        starts = self.starts
        for u in self.finished:
            lu = len(u)
            for ell in range(1, lu):
                for v in starts.get((degree - lu + ell, u[lu - ell :]), ()):
                    obs.append((u + v[ell:], ell, lu, u, v))
        obs.sort()
        by_lead = self.rules.by_lead
        return [
            (u[: lu - ell], by_lead[u], by_lead[v], v[ell:])
            for w, ell, lu, u, v in obs
            if not self._resolves(w, u, v)
        ]

    def _resolves(self, w: Word, u: Word, v: Word) -> bool:
        """Whether the obstruction at w of u on the left and v on the right provably resolves."""
        by_lead = self.rules.by_lead
        d, lu, lv = len(w), len(u), len(v)
        # (i) a third leading word t inside w covers the overlap
        for p in range(1, d - lv):
            for L in self.rules.lengths:
                if p + L >= d:
                    break
                if p + L > lu and w[p : p + L] in by_lead:
                    return True
        if self.columns is None:
            return False
        left = lu == 2 and u[0] > u[1]
        right = lv == 2 and v[0] > v[1]
        if left and right:
            return True  # (ii)
        if left:
            return self._homogeneous(v, u[0])  # (iii)
        if right:
            return u[0] >= v[1] and self._homogeneous(u, v[1])  # (iv)
        return False

    def _homogeneous(self, lw: Word, j: int) -> bool:
        """Whether prod_{l in m} mu[l][j] is one scalar over the words m of the element led by lw; memoized.

        The element is homogeneous, so each product over the int column
        is the scalar times the same power of its denominator.
        """
        col = self.columns[j]
        if col is None:
            return True
        key = (lw, j)
        found = self._scaled.get(key)
        if found is None:
            prod = math.prod
            first = prod([col[l] for l in lw])
            found = self._scaled[key] = all(prod([col[l] for l in m]) == first for m in self.rules.by_lead[lw][1])
        return found


def _extensions(rules: _LeadIndex, n: int, w: Word) -> List[Word]:
    """The words w + (i,) with no leading word as a subword, in deglex order; w is such a word."""
    # w is normal, so only suffixes ending at the new letter can hold a leading word
    leads, d = rules.by_lead, len(w) + 1
    return [c for c in (w + (i,) for i in range(n)) if not any(d >= L and c[d - L :] in leads for L in rules.lengths)]


def _normal_word(rules: _LeadIndex, n: int, prev: Word) -> Optional[Word]:
    """A word of degree len(prev) + 1 with no leading word as a subword, or None when there is none.

    prev is such a word of one degree less.  prev extended by a letter is
    tried first; failing that, a depth-first search over the normal words
    returns the deglex-first one.
    """
    grown = _extensions(rules, n, prev)
    if grown:
        return grown[0]
    d = len(prev) + 1
    stack: List[Word] = [()]
    while stack:
        w = stack.pop()
        if len(w) == d:
            return w
        stack.extend(reversed(_extensions(rules, n, w)))
    return None


def groebner(alg: PresentedAlgebra, max_degree: int) -> GroebnerData:
    """Resolve all overlap obstructions of degree <= max_degree.

    The basis is built one degree d at a time.  Relations are homogeneous,
    so every element of lower degree is final when degree d starts.  Degree
    d adjoins its relations through `_interreduce`, then the nonzero
    remainders of its S-polynomials in (word, overlap) order through
    `_adjoin`.  Through max_degree the output is the reduced Groebner basis
    truncated there, which is canonical.  A degree above max_degree that
    holds a relation is not complete: its elements are the relations of that
    degree, reduced modulo all lower-degree elements, in reduced echelon
    form.

    The loop stops after a degree d that has no normal word, i.e. when
    every word of degree d holds a leading word.  Every word of a higher
    degree then holds one in its first d letters, so every later relation
    and S-polynomial reduces to zero and would adjoin nothing; the output
    is the same, and `complete_through` stays max_degree.  The normal word
    of each degree comes from `_normal_word`, which first extends the one of
    the degree before by a letter.

    The loop runs on the primitive integer rows of `_LeadIndex` from start
    to finish, with no Fraction in it.  For rules f = (s_f, tail_f) and
    g = (s_g, tail_g), s_f * s_g * (f*b - a*g) is s_f * a*tail_g -
    s_g * tail_f*b, as the leading words cancel.  Each degree d reduces
    its relations and S-polynomials through one `_DegreeStep`, dropped when
    the degree ends.  Its memo holds each degree-d word's normal form
    modulo the rules of degree < d; those rules are final, so the memo
    stays valid for the whole degree, and each word is rewritten once
    however many polynomials hold it.  A polynomial is then a sum of memo
    rows with the degree-d rules substituted in one pass.  The rewrite of
    a word depends only on the word, so this is the linear map `_reduce`
    applies, and the remainders agree up to a scalar; only whether a
    remainder is zero and its direction matter.  `_adjoin` makes a
    nonzero remainder primitive and substitutes it into the rules of its
    own degree alone, so every adjoined rule, and the elements above
    max_degree, are those `_reduce` would give.  Polynomials are built
    from the rows only when `GroebnerData.elements` is read.

    An obstruction a*lead(g) = lead(f)*b at the word W, with u = lead(f)
    and v = lead(g), need not be reduced when f*b - a*g is a combination of
    x*h*y, h in the basis, with every x*lead(h)*y below W: it then resolves
    (Bergman's diamond lemma), so the remainders adjoined are those of the
    other obstructions alone.  `_Overlaps` skips four kinds.

    (i) Chain (Mora 1994), for every presentation.  A leading word t
    occurs in W other than as u at 0 or v at the end.  Leading words of a
    reduced basis are no subwords of one another, so t lies in neither u
    nor v: it starts inside u, ends inside v and covers the overlap.  Then
    u, t and t, v overlap in words of lower degree, whose obstructions are
    resolved, and f*b - a*g is the sum of their S-polynomials, each
    shifted into W, so every term stays below W.

    (ii)-(iv) need the relations to include z_j z_i - q z_i z_j, q != 0,
    for every j > i, as every skew-ring quotient does; this is read off the
    input (`_commutation_columns`).  With z_j z_l = mu_lj z_l z_j, every
    pair z_j z_i, j > i, is then a leading word of degree 2, the only
    leading words with a descent are these commutation words, and each
    commutation element is its relation plus degree-2 elements with
    smaller leading words.  An element h is z_j-homogeneous when
    prod_{l in m} mu_lj is one scalar s over the words m of h; then
    z_j h = s h z_j in the skew ring, by commutation steps that each move
    z_j past one letter.

    (ii) u and v are commutation words, W = z_k z_j z_i with k > j > i.
    Both rewritings of W reach mu_ij mu_ik mu_jk z_i z_j z_k through words
    below W: the diamond of the skew ring.

    (iii) u = z_j z_l is a commutation word, so W = z_j v, and g is
    z_j-homogeneous.  Moving z_j to the right through z_j m, for each word
    m of g, passes only words that start with m_1 <= l < j, so all lie
    below W but the first step for m = v, which is f*b.  So f*b - z_j g is
    -s g z_j modulo terms below W, and v z_j < W since l < j.

    (iv) v = z_l z_i is a commutation word, so W = u z_i, with u_1 >= i
    and f z_i-homogeneous.  u is not a commutation word (that is case
    (ii)), so it is sorted: each of its letters is at least i, and the
    last, l, exceeds i.  Moving z_i to the left through m z_i, for each
    word m of f, steps through the words that insert z_i into m, by
    commutation relations whose shifts are led by such words.  Inserting
    z_i at one place into m <= u keeps the order, so the word is at most
    u with z_i inserted there.  That is W when z_i comes last; otherwise
    it is below W, smaller where z_i meets a letter of u above i, and
    equal to z_i u where z_i joins the run of i's that starts u.  So all
    steps lie below W but the first step for m = u, which is a*g, and the
    S-polynomial is a multiple of z_i f modulo terms below W.  z_i u < W:
    z_i u is sorted and W is not, as it ends in i after l > i.  With
    u_1 < i, z_i u lies above W.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    by_degree: Dict[int, List[NcPoly]] = {}
    for r in alg.relations:
        by_degree.setdefault(len(r.lead_word()), []).append(r)
    rules = _LeadIndex()
    overlaps = _Overlaps(rules, _commutation_columns(alg))
    top = max([max_degree, *by_degree])
    witness: Optional[Word] = (0,)  # z_1 is normal: no rule has degree 1
    for d in range(2, top + 1):
        step = _DegreeStep(rules, d)
        _interreduce(step, by_degree.get(d, ()))
        if d <= max_degree:
            for a, (sf, tf), (sg, tg), b in overlaps.pending(d):
                # s_f * s_g * (f*b - a*g): the leading words cancel
                terms = {a + w: sf * t for w, t in tg.items()}
                for w, t in tf.items():
                    w += b
                    c = terms.get(w, 0) - sg * t
                    if c:
                        terms[w] = c
                    else:
                        del terms[w]
                h = step.reduce(terms)
                if h:
                    _adjoin(rules, h)
            overlaps.finish(d)
        if d < top:
            witness = _normal_word(rules, alg.n, witness)
            if witness is None:
                break
    return GroebnerData(alg, max_degree, rules)


def normal_form(p: NcPoly, gb: GroebnerData) -> NcPoly:
    """Unique normal form of p; requires deg(p) within the completeness bound."""
    deg = p.degree()
    if deg is not None:
        gb.require(deg)
    return reduce_poly(p, gb._rules)


def _normal_words(gb: GroebnerData, through: int) -> Iterator[List[Word]]:
    """The words with no leading word as a subword, one deglex list per degree 0..through.

    Each degree grows from the one before by a letter and nothing else is kept.
    """
    gb.require(through)
    words: List[Word] = [()]
    yield words
    for _ in range(through):
        words = [c for w in words for c in _extensions(gb._rules, gb.n, w)]
        yield words


def degree_basis(gb: GroebnerData, d: int) -> List[Word]:
    """All degree-d words with no leading word as a subword, in deglex order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    for words in _normal_words(gb, d):
        pass
    return words


def _normal_word_counts(gb: GroebnerData, through: int) -> List[int]:
    """The number of words with no leading word as a subword, for each degree 0..through.

    The counts are those of `_normal_words`, taken without listing a word:
    they count the paths of Ufnarovski's graph of normal words (1982),
    built as the Aho-Corasick automaton (1975) of the leading words.  Its
    states are the prefixes of the leading words, and reading a letter
    moves to the longest suffix of the word read so far that is a state.
    A state is dead when it ends in a leading word: it or a state on its
    failure chain (its suffixes that are states) is a leading word.  A
    word is normal exactly when reading it passes no dead state, so the
    normal words of degree d + 1 are those of degree d moved by one
    letter to a live state, and a count per state carries them.
    Leading words longer than through can hold no word read, so they are
    left out.
    """
    gb.require(through)
    n = gb.n
    children: List[Dict[int, int]] = [{}]
    dead = [False]
    for lw in gb._rules.by_lead:
        if len(lw) > through:
            continue
        s = 0
        for a in lw:
            t = children[s].get(a)
            if t is None:
                t = children[s][a] = len(children)
                children.append({})
                dead.append(False)
            s = t
        dead[s] = True
    # breadth first, so a state's failure target, which is shorter, is done before it
    step: List[List[int]] = [[]] * len(children)
    step[0] = [children[0].get(a, 0) for a in range(n)]
    fail = [0] * len(children)
    queue = list(children[0].values())
    for s in queue:
        base = step[fail[s]]
        dead[s] = dead[s] or dead[fail[s]]
        row = list(base)
        for a, t in children[s].items():
            fail[t] = base[a]
            row[a] = t
            queue.append(t)
        step[s] = row
    live = [[t for t in row if not dead[t]] for row in step]
    counts = [1]
    frontier: Dict[int, int] = {0: 1}
    for _ in range(through):
        nxt: Dict[int, int] = {}
        for s, c in frontier.items():
            for t in live[s]:
                nxt[t] = nxt.get(t, 0) + c
        frontier = nxt
        counts.append(sum(nxt.values()))
    return counts


def hilbert_coeffs(gb: GroebnerData, through: int) -> List[int]:
    """Dimensions of the graded pieces 0..through."""
    return _normal_word_counts(gb, through)


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
    counts = _normal_word_counts(gb, gb.complete_through)
    if 0 in counts:
        return FiniteDimVerdict(True, sum(counts[: counts.index(0)]), gb.complete_through)
    return FiniteDimVerdict(False, None, gb.complete_through)
