"""Skew-commutation data, quadratic forms, and the graded (skew) Clifford builders."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exact import ExactMatrix, rank, rref
from .freealg import NcPoly, poly_str, word_key
from .rewrite import GroebnerData, PresentedAlgebra, finite_dim_check, groebner, hilbert_coeffs, normal_form

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
        for i in range(n):
            for j in range(n):
                if i != j and grid[i][j] * grid[j][i] != 1:
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
        for i in range(mu.n):
            for j in range(mu.n):
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
        return NcPoly({(i, j): c for (i, j), c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, QuadraticForm) and self.n == other.n and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        return poly_str(self.as_ncpoly(), letter="z")

    def __repr__(self):
        return f"QuadraticForm({self})"


@dataclass(frozen=True)
class QuadricSystem:
    mu: MuMatrix
    forms: Tuple[QuadraticForm, ...]

    def __post_init__(self):
        if any(q.n != self.mu.n for q in self.forms):
            raise ValueError("all forms must live over the same mu")


class CliffordPresentation:
    """Quadratic x-presentation of a graded (skew) Clifford algebra.

    Carries the defining mu-symmetric matrices, the eliminated quadratic
    relations among the x generators, and the expressions of the degree-two
    generators y_k in terms of the x's.
    """

    __slots__ = ("mu", "matrices", "x_relations", "y_expressions")

    def __init__(self, mu, matrices, x_relations, y_expressions):
        self.mu = mu
        self.matrices = tuple(matrices)
        self.x_relations = tuple(x_relations)
        self.y_expressions = dict(y_expressions)

    @property
    def n(self) -> int:
        return self.mu.n

    def presentation(self) -> PresentedAlgebra:
        return PresentedAlgebra(self.n, self.x_relations)

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


def matrix_of_form(q: QuadraticForm, mu: MuMatrix) -> MuSymmetricMatrix:
    """Inverse of quadratic_form_of (2 is invertible, so halving is exact)."""
    if q.n != mu.n:
        raise ValueError("form size does not match mu")
    n = mu.n
    grid = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in q.coeffs.items():
        if i == j:
            grid[i][i] = c
        else:
            grid[i][j] = c / 2
            grid[j][i] = mu[j, i] * c / 2
    return MuSymmetricMatrix(mu, grid)


def build_skew_ring(mu: MuMatrix) -> PresentedAlgebra:
    """The ambient skew ring: relations z_j z_i - mu_ij z_i z_j for i < j."""
    relations = []
    for i in range(mu.n):
        for j in range(i + 1, mu.n):
            relations.append(NcPoly({(j, i): Fraction(1), (i, j): -mu[i, j]}))
    return PresentedAlgebra(mu.n, relations)


def _pair_index(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _pair_expression(mu: MuMatrix, i: int, j: int) -> NcPoly:
    """e_ij = x_i x_j + mu_ij x_j x_i (reduces to 2 x_i^2 on the diagonal)."""
    if i == j:
        return NcPoly({(i, i): Fraction(2)})
    return NcPoly({(i, j): Fraction(1), (j, i): mu[i, j]})


def build_gsca(mu: MuMatrix, matrices: Sequence[MuSymmetricMatrix]) -> CliffordPresentation:
    """Eliminate the degree-two generators from the defining relations.

    The (i<=j) instances of x_i x_j + mu_ij x_j x_i = sum_k (M_k)_ij y_k are
    row-reduced with rows in lexicographic (i,j) order: pivot rows solve each
    y_k as a combination of the pair expressions e_ij, and the left kernel of
    the coefficient matrix supplies the n(n-1)/2 quadratic x-relations.
    """
    n = mu.n
    if len(matrices) != n:
        raise ValueError(f"expected {n} matrices, got {len(matrices)}")
    for m in matrices:
        if m.mu != mu:
            raise ValueError("matrix attached to a different mu")
    pairs = _pair_index(n)
    coeff_rows = [[matrices[k][i, j] for k in range(n)] for (i, j) in pairs]
    if rank(ExactMatrix(coeff_rows)) < n:
        raise ValueError(
            "matrices linearly dependent: the y generators are not expressible in the degree-two span"
        )
    npairs = len(pairs)
    aug = [coeff_rows[r] + [Fraction(1) if c == r else Fraction(0) for c in range(npairs)] for r in range(npairs)]
    reduced, pivots = rref(aug)
    exprs = {(i, j): _pair_expression(mu, i, j) for (i, j) in pairs}
    y_expressions = {}
    x_relations = []
    for r, row in enumerate(reduced):
        combo = NcPoly.zero()
        for c in range(npairs):
            if row[n + c]:
                combo = combo + exprs[pairs[c]].scale(row[n + c])
        if r < len(pivots) and pivots[r] < n:
            y_expressions[pivots[r]] = combo
        elif combo:
            x_relations.append(combo.monic())
    x_relations.sort(key=lambda p: (word_key(p.lead_word()), p.canonical_key()))
    return CliffordPresentation(mu, matrices, x_relations, y_expressions)


def build_gca(matrices: Sequence[Sequence[Sequence]]) -> CliffordPresentation:
    """Graded Clifford algebra from symmetric matrices: the mu = 1 case.

    Centrality of the degree-two generators is a consequence, checked by
    check_gca_centrality rather than imposed.
    """
    if not matrices:
        raise ValueError("at least one matrix required")
    n = len(matrices[0]) if not isinstance(matrices[0], MuSymmetricMatrix) else matrices[0].mu.n
    mu = MuMatrix.ones(n)
    wrapped = []
    for m in matrices:
        if isinstance(m, MuSymmetricMatrix):
            if not m.mu.is_ones():
                raise ValueError("GCA matrices must be symmetric (mu = 1)")
            wrapped.append(MuSymmetricMatrix(mu, m.entries))
        else:
            wrapped.append(check_mu_symmetric(m, mu))
    return build_gsca(mu, wrapped)


@dataclass(frozen=True)
class CentralityVerdict:
    central: bool
    witness: Optional[int]  # 0-based generator index, or None


def check_gca_centrality(pres: CliffordPresentation, a: NcPoly, b: NcPoly, depth: int) -> CentralityVerdict:
    """Check that ab + ba commutes with every generator, within the bound."""
    if not pres.mu.is_ones():
        raise ValueError("centrality check requires mu = 1 (a GCA)")
    for p in (a, b):
        if p.homogeneous_degree() != 1:
            raise ValueError("inputs must be homogeneous of degree 1")
    gb = pres.groebner(max(depth, 3))
    from .analyze import is_central  # local import avoids a module cycle

    element = normal_form(a * b + b * a, gb)
    verdict = is_central(element, gb)
    return CentralityVerdict(verdict.central, verdict.witness)


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
    is computed once: at most 2^m bases instead of m * m!.
    """
    from .analyze import is_normal  # local import avoids a module cycle

    m = len(sys.forms)
    if m > MAX_PERMUTATION_FORMS:
        raise ValueError(f"permutation search capped at {MAX_PERMUTATION_FORMS} forms")
    ring = build_skew_ring(sys.mu)
    bases: Dict[frozenset, GroebnerData] = {}
    verdicts: Dict[Tuple[frozenset, int], bool] = {}

    def normal_after(prefix: frozenset, k: int) -> bool:
        if (prefix, k) not in verdicts:
            gb = bases.get(prefix)
            if gb is None:
                rels = list(ring.relations) + [sys.forms[j].as_ncpoly() for j in sorted(prefix)]
                gb = bases[prefix] = groebner(PresentedAlgebra(sys.mu.n, rels), max_degree)
            a = normal_form(sys.forms[k].as_ncpoly(), gb)
            # a form already zero in the quotient is trivially normal
            verdicts[prefix, k] = not a or is_normal(a, gb).normal
        return verdicts[prefix, k]

    given = tuple(range(m))
    orders = [given] + [p for p in itertools.permutations(range(m)) if p != given]
    searched = 0
    for order in orders:
        searched += 1
        if all(normal_after(frozenset(order[:t]), order[t]) for t in range(m)):
            return NormalizingVerdict(True, order, searched)
    return NormalizingVerdict(False, None, searched)


@dataclass(frozen=True)
class BasePointVerdict:
    base_point_free: bool
    dimension: Optional[int]
    bound: int
    warning: Optional[str] = None

    def __str__(self):
        if self.base_point_free:
            return f"base-point-free (dimension {self.dimension})"
        return f"has-or-unknown at bound {self.bound}"


def base_point_free_check(sys: QuadricSystem, max_degree: int, assume_normalizing: Optional[bool] = None) -> BasePointVerdict:
    """Finite-dimensionality of the skew ring modulo the quadric system.

    The finite-dimension criterion characterizes base-point freeness only
    for normalizing systems; a warning is attached otherwise.
    """
    if assume_normalizing is None:
        assume_normalizing = normalizing_check(sys, max_degree).found
    warning = None if assume_normalizing else "system not verified normalizing; criterion applies to normalizing systems"
    ring = build_skew_ring(sys.mu)
    rels = list(ring.relations) + [q.as_ncpoly() for q in sys.forms if q]
    gb = groebner(PresentedAlgebra(sys.mu.n, rels), max_degree)
    verdict = finite_dim_check(gb)
    return BasePointVerdict(verdict.finite, verdict.dimension, verdict.bound, warning)


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
    bpf = base_point_free_check(system, max_degree, assume_normalizing=norm.found)
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
