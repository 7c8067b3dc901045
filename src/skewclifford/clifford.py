"""Skew-commutation data, quadratic forms, and the graded (skew) Clifford builders."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import Echelon
from .freealg import NcPoly, poly_str
from .rewrite import (
    GroebnerData,
    PresentedAlgebra,
    _check_generator_count,
    finite_dim_check,
    groebner,
    hilbert_coeffs,
    normal_form,
)

MAX_PERMUTATION_FORMS = 8


class MuMatrix:
    """Skew-commutation scalars: mu_ii = 1 and mu_ij * mu_ji = 1, all entries nonzero."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        grid = tuple(tuple(Fraction(e) for e in row) for row in entries)
        n = len(grid)
        if any(len(row) != n for row in grid):
            raise ValueError("mu matrix must be square")
        for i in range(n):
            for j in range(n):
                if grid[i][j] == 0:
                    raise ValueError(f"mu constraint violated at ({i + 1},{j + 1}): entry is zero")
        for i in range(n):
            if grid[i][i] != 1:
                raise ValueError(f"mu constraint violated at ({i + 1},{i + 1}): diagonal entry must be 1")
        # symmetric in i and j, and row-major order meets the upper entry of a pair first
        for i in range(n):
            for j in range(i + 1, n):
                if grid[i][j] * grid[j][i] != 1:
                    raise ValueError(
                        f"mu constraint violated at ({i + 1},{j + 1}): mu_ij*mu_ji != 1"
                    )
        self.n = n
        self.entries = grid

    @classmethod
    def ones(cls, n: int) -> "MuMatrix":
        return cls([[Fraction(1)] * n for _ in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, MuMatrix) and self.entries == other.entries

    def is_ones(self) -> bool:
        return all(e == 1 for row in self.entries for e in row)

    def __repr__(self):
        return f"MuMatrix(n={self.n})"


def validate_mu(entries: Sequence[Sequence]) -> MuMatrix:
    return MuMatrix(entries)


class MuSymmetricMatrix:
    """Matrix M with M_ij = mu_ij * M_ji for all i, j."""

    __slots__ = ("mu", "entries")

    def __init__(self, mu: MuMatrix, entries: Sequence[Sequence[Fraction]]):
        grid = tuple(tuple(Fraction(e) for e in row) for row in entries)
        if len(grid) != mu.n or any(len(row) != mu.n for row in grid):
            raise ValueError(f"matrix size does not match mu (n = {mu.n})")
        # with mu_ii = 1 and mu_ij * mu_ji = 1 the condition at (j, i) is the one
        # at (i, j), and row-major order meets the upper entry of a pair first
        for i in range(mu.n):
            for j in range(i + 1, mu.n):
                if grid[i][j] != mu[i, j] * grid[j][i]:
                    raise ValueError(f"not mu-symmetric at ({i + 1},{j + 1})")
        self.mu = mu
        self.entries = grid

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, MuSymmetricMatrix) and self.mu == other.mu and self.entries == other.entries

    def __repr__(self):
        return f"MuSymmetricMatrix({self.entries})"


def check_mu_symmetric(entries: Sequence[Sequence], mu: MuMatrix) -> MuSymmetricMatrix:
    return MuSymmetricMatrix(mu, entries)


class QuadraticForm:
    """Element of the degree-two piece of the skew ring, on ordered monomials z_i z_j (i <= j)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Dict[Tuple[int, int], Fraction]):
        clean = {}
        for (i, j), c in coeffs.items():
            if not 0 <= i <= j < n:
                raise ValueError(f"monomial index ({i + 1},{j + 1}) not ordered within 1..{n}")
            c = Fraction(c)
            if c:
                clean[(i, j)] = c
        self.n = n
        self.coeffs = clean

    def as_ncpoly(self) -> NcPoly:
        return NcPoly._make(dict(self.coeffs))

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.n == other.n and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return poly_str(self.as_ncpoly(), letter="z")

    def __repr__(self):
        return f"QuadraticForm({self})"


def _normal_in_skew_ring(q: QuadraticForm, mu: MuMatrix) -> bool:
    """Whether each generator scales every term of q alike: z_g q = s_g q z_g in the skew ring.

    z_g z_i z_j = mu_ig mu_jg z_i z_j z_g, so s_g exists when mu_ig mu_jg is
    the same for all terms (i, j) of q.  True for every form when mu = 1 and
    for every monomial form.
    """
    return all(len({mu[i, g] * mu[j, g] for (i, j) in q.coeffs}) <= 1 for g in range(q.n))


@dataclass(frozen=True)
class QuadricSystem:
    mu: MuMatrix
    forms: Tuple[QuadraticForm, ...]

    def __post_init__(self):
        if any(q.n != self.mu.n for q in self.forms):
            raise ValueError("all forms must live over the same mu")

    def quotient(self, ring: Optional[PresentedAlgebra] = None) -> PresentedAlgebra:
        """The skew ring modulo the forms (zero forms drop out as relations).

        `ring` is build_skew_ring(self.mu), built here when not given: a
        caller taking many quotients over one mu builds it once, and each
        quotient then validates only its forms.
        """
        if ring is None:
            ring = build_skew_ring(self.mu)
        return ring.with_relations([q.as_ncpoly() for q in self.forms])


class CliffordPresentation:
    """Quadratic x-presentation of a graded (skew) Clifford algebra.

    Carries the defining mu-symmetric matrices, the algebra on the
    eliminated quadratic relations among the x generators (built, and so
    cleaned, once), and the expressions of the degree-two generators y_k in
    terms of the x's.
    """

    __slots__ = ("mu", "matrices", "_algebra", "y_expressions")

    def __init__(self, mu, matrices, x_relations, y_expressions):
        self.mu = mu
        self.matrices = tuple(matrices)
        self._algebra = PresentedAlgebra(mu.n, x_relations)
        self.y_expressions = dict(y_expressions)

    @property
    def n(self) -> int:
        return self.mu.n

    @property
    def x_relations(self) -> Tuple[NcPoly, ...]:
        return self._algebra.relations

    def presentation(self) -> PresentedAlgebra:
        return self._algebra

    def groebner(self, max_degree: int) -> GroebnerData:
        return groebner(self.presentation(), max_degree)

    def y_normal_forms(self, gb: GroebnerData) -> List[NcPoly]:
        return [normal_form(self.y_expressions[k], gb) for k in range(self.n)]

    def __repr__(self):
        return f"CliffordPresentation(n={self.n}, relations={len(self.x_relations)})"


def quadratic_form_of(m: MuSymmetricMatrix) -> QuadraticForm:
    """The form z^T M z with unordered monomials straightened to z_i z_j, i <= j.

    Straightening z_j z_i -> mu_ij z_i z_j merges M_ji into the ordered slot,
    giving c_ii = M_ii and c_ij = 2 M_ij for i < j.
    """
    n = m.mu.n
    coeffs = {}
    for i in range(n):
        coeffs[(i, i)] = m[i, i]
        for j in range(i + 1, n):
            coeffs[(i, j)] = 2 * m[i, j]
    return QuadraticForm(n, coeffs)


def build_skew_ring(mu: MuMatrix) -> PresentedAlgebra:
    """The ambient skew ring: relations z_j z_i - mu_ij z_i z_j for i < j.

    Each relation is monic with leading word z_j z_i, so listing them by j,
    then i, is their `_relation_key` order and they need no cleaning.
    """
    _check_generator_count(mu.n)
    one = Fraction(1)
    relations = [NcPoly._make({(j, i): one, (i, j): -mu[i, j]}) for j in range(mu.n) for i in range(j)]
    return PresentedAlgebra._trusted(mu.n, relations)


def _pair_index(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _pair_expression(mu: MuMatrix, i: int, j: int) -> NcPoly:
    """e_ij = x_i x_j + mu_ij x_j x_i (reduces to 2 x_i^2 on the diagonal)."""
    if i == j:
        return NcPoly({(i, i): Fraction(2)})
    return NcPoly({(i, j): Fraction(1), (j, i): mu[i, j]})


def build_gsca(mu: MuMatrix, matrices: Sequence[MuSymmetricMatrix]) -> CliffordPresentation:
    """Eliminate the degree-two generators from the defining relations.

    Pair r = (i, j), i <= j, gives x_i x_j + mu_ij x_j x_i = sum_k (M_k)_ij y_k as
    one sparse row: (M_k)_ij in column k < n, and 1 in column n + r for e_ij.
    In the reduced echelon form pivot k < n solves y_k in the e_ij, and the rows
    with pivot >= n, zero on the y columns, are the quadratic x-relations.
    """
    n = mu.n
    _check_generator_count(n)
    if len(matrices) != n:
        raise ValueError(f"expected {n} matrices, got {len(matrices)}")
    for m in matrices:
        if m.mu != mu:
            raise ValueError("matrix attached to a different mu")
    pairs = _pair_index(n)
    ech = Echelon()
    for r, (i, j) in enumerate(pairs):
        row = {k: matrices[k][i, j] for k in range(n)}
        row[n + r] = Fraction(1)
        ech.add(row)
    reduced = ech.reduced()
    if any(k not in reduced for k in range(n)):
        raise ValueError(
            "matrices linearly dependent: the y generators are not expressible in the degree-two span"
        )
    exprs = [_pair_expression(mu, i, j) for (i, j) in pairs]

    def combo(row) -> NcPoly:
        return sum((exprs[col - n].scale(c) for col, c in sorted(row.items()) if col >= n), NcPoly.zero())

    y_expressions = {k: combo(reduced[k]) for k in range(n)}
    x_relations = [combo(row) for p, row in reduced.items() if p >= n]
    return CliffordPresentation(mu, matrices, x_relations, y_expressions)


def build_gca(matrices: Sequence[Sequence[Sequence]]) -> CliffordPresentation:
    """Graded Clifford algebra from symmetric matrices (grids): `build_gsca` at mu = 1.

    Centrality of the degree-two generators is a consequence, checked by
    `is_central(a*b + b*a, gb)` rather than imposed.
    """
    if not matrices:
        raise ValueError("at least one matrix required")
    ones = MuMatrix.ones(len(matrices))
    return build_gsca(ones, [check_mu_symmetric(m, ones) for m in matrices])


def quadric_system_of(pres: CliffordPresentation) -> QuadricSystem:
    return QuadricSystem(pres.mu, tuple(quadratic_form_of(m) for m in pres.matrices))


@dataclass(frozen=True)
class NormalizingVerdict:
    found: bool
    order: Optional[Tuple[int, ...]]  # 0-based positions into the form list
    searched: int

    def __str__(self):
        if self.found:
            return "normalizing in order " + ",".join(str(i + 1) for i in self.order)
        return f"not-found (searched {self.searched} orders)"


def normalizing_check(sys: QuadricSystem, max_degree: int) -> NormalizingVerdict:
    """Search the given order, then all permutations, for a normalizing sequence.

    Sequential normality: each form must be normal in the quotient of the
    skew ring by its predecessors.  A not-found verdict only means no
    permutation of the given forms works, not that no sequence exists.
    The quotient depends only on the set of predecessors (the presentation
    sorts its relations), so each set's basis and each (set, form) verdict
    is computed once: at most 2^m bases instead of m * m!.  `is_normal` of
    a quadric against the degree-one side reads degree 3, and a basis
    truncated at 3 agrees through 3 with one truncated higher, so each
    basis stops at min(max_degree, 3).  The skew ring is built at most once
    per search, so each prefix quotient validates only its forms.

    Some forms are settled before the search.  Since z_g z_i = mu_ig z_i z_g
    in the skew ring S, z_g z_i z_j = mu_ig mu_jg z_i z_j z_g.  If that
    scalar s_g is the same for all terms (i, j) of q, for every generator g
    (`_normal_in_skew_ring`), then z_g q = s_g q z_g with s_g nonzero, so
    q is normal in S.  The identity maps to every quotient S/I, which the
    z_g still generate, so q is normal after every prefix and needs neither
    a basis nor `is_normal`.  The rule only skips work: the verdicts, the
    visiting order and `searched` are those of the full search.  When it
    settles every form, the given order, the first one visited, passes, so
    that verdict is returned at once, whatever the number of forms.  It is
    off below bound 3, where the degree-3 products that `is_normal` reads
    lie past the basis, so `is_normal` still raises the `DegreeBoundError`
    that says the search cannot run there.
    """
    from .analyze import is_normal  # local import avoids a module cycle

    m = len(sys.forms)
    normal_in_ring = [max_degree >= 3 and _normal_in_skew_ring(q, sys.mu) for q in sys.forms]
    if all(normal_in_ring):
        return NormalizingVerdict(True, tuple(range(m)), 1)
    if m > MAX_PERMUTATION_FORMS:
        raise ValueError(f"permutation search capped at {MAX_PERMUTATION_FORMS} forms")
    ring = build_skew_ring(sys.mu)
    bases: Dict[frozenset, GroebnerData] = {}
    verdicts: Dict[Tuple[frozenset, int], bool] = {}

    def normal_after(prefix: frozenset, k: int) -> bool:
        if normal_in_ring[k]:
            return True
        if (prefix, k) not in verdicts:
            gb = bases.get(prefix)
            if gb is None:
                quotient = QuadricSystem(sys.mu, tuple(sys.forms[j] for j in sorted(prefix))).quotient(ring)
                gb = bases[prefix] = groebner(quotient, min(max_degree, 3))
            verdicts[prefix, k] = is_normal(sys.forms[k].as_ncpoly(), gb).normal
        return verdicts[prefix, k]

    searched = 0
    for order in itertools.permutations(range(m)):  # the given order first
        searched += 1
        if all(normal_after(frozenset(order[:t]), order[t]) for t in range(m)):
            return NormalizingVerdict(True, order, searched)
    return NormalizingVerdict(False, None, searched)


@dataclass(frozen=True)
class BasePointVerdict:
    base_point_free: bool
    dimension: Optional[int]
    bound: int

    def __str__(self):
        if self.base_point_free:
            return f"base-point-free (dimension {self.dimension})"
        return f"has-or-unknown at bound {self.bound}"


def base_point_free_check(sys: QuadricSystem, max_degree: int) -> BasePointVerdict:
    """Finite-dimensionality of the skew ring modulo the quadric system.

    The finite-dimension criterion characterizes base-point freeness only
    for normalizing systems; callers that rely on it establish that
    hypothesis themselves (`normalizing_check`).
    """
    verdict = finite_dim_check(groebner(sys.quotient(), max_degree))
    return BasePointVerdict(verdict.finite, verdict.dimension, verdict.bound)


@dataclass(frozen=True)
class RegularityReport:
    normalizing: NormalizingVerdict
    base_points: BasePointVerdict
    regular: bool
    hilbert_expected: Optional[Tuple[int, ...]]
    hilbert_computed: Optional[Tuple[int, ...]]
    hilbert_ok: Optional[bool]
    hard_failure: bool


def regularity_verdict(pres: CliffordPresentation, max_degree: int) -> RegularityReport:
    """Normalizing + base-point-free verdicts with a Hilbert-series cross-check.

    When both conditions hold the algebra is declared quadratic and regular
    (by the criterion, not a homological computation), and the dimensions of
    the x-presentation are checked against binomial(n-1+d, d); a mismatch is
    a hard failure since it contradicts the declared verdict.
    """
    system = quadric_system_of(pres)
    norm = normalizing_check(system, max_degree)
    bpf = base_point_free_check(system, max_degree)
    regular = norm.found and bpf.base_point_free
    expected = computed = None
    hilbert_ok = None
    hard_failure = False
    if regular:
        n = pres.n
        gb = pres.groebner(max_degree)
        computed = tuple(hilbert_coeffs(gb, max_degree))
        expected = tuple(math.comb(n - 1 + d, d) for d in range(max_degree + 1))
        hilbert_ok = computed == expected
        hard_failure = not hilbert_ok
    return RegularityReport(norm, bpf, regular, expected, computed, hilbert_ok, hard_failure)
