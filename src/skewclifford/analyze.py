"""Normality and centrality detection, subalgebra bases, and the twist-theorem pipeline."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .clifford import (
    CliffordPresentation,
    MuMatrix,
    MuSymmetricMatrix,
    _pair_expression,
    _pair_index,
    base_point_free_check,
    build_gsca,
    check_mu_symmetric,
    quadric_system_of,
)
from .exact import Echelon, ExactMatrix, ParamPoly, int_scaled, parametric_minors
from .freealg import NcPoly, word_key
from .rewrite import GroebnerData, normal_form
from .twist import DiagonalAutomorphism, TwistVerdict, mu_from_lambdas, relation_span_equal, twist_criterion, twist_presentation


def _element_and_side(a: NcPoly, gb: GroebnerData, side_basis: Optional[Sequence[NcPoly]]):
    """(NF(a), the side list), the generators by default, for `is_normal` and `is_central`.

    A zero NF(a) is returned before anything else is checked.  Otherwise a
    must be homogeneous, every side element nonzero and homogeneous, and
    every product of a with a side element within the completeness bound.
    """
    side = list(side_basis) if side_basis is not None else [NcPoly.generator(i) for i in range(gb.n)]
    a = normal_form(a, gb)
    if not a:
        return a, side
    a_deg = a.homogeneous_degree()
    if a_deg is None:
        raise ValueError("element must be homogeneous")
    for g in side:
        deg = g.homogeneous_degree()
        if deg is None:
            raise ValueError("side basis elements must be nonzero and homogeneous")
        gb.require(a_deg + deg)
    return a, side


@dataclass(frozen=True)
class NormalVerdict:
    normal: bool
    witness: Optional[Tuple[str, int]]  # ("left"|"right", side index) on failure
    left: Optional[Dict[int, Tuple[Fraction, ...]]]
    right: Optional[Dict[int, Tuple[Fraction, ...]]]


def is_normal(a: NcPoly, gb: GroebnerData, side_basis: Optional[Sequence[NcPoly]] = None) -> NormalVerdict:
    """Single-degree normality of a against the span generated by side_basis.

    Checks g*a in span{a*h} and a*g in span{h*a} for every g in the side
    basis.  For an algebra generated by the side span this propagates to
    aA = Aa.  Products of different degrees share no word, so one echelon
    per side keeps the degrees apart: the scalars of g involve only the h
    of g's degree.  The witness is the lowest failing side index, its left
    containment before its right.
    """
    a, side = _element_and_side(a, gb, side_basis)
    if not a:
        return NormalVerdict(True, None, {}, {})
    s = len(side)
    left_mults = [normal_form(g * a, gb).terms for g in side]
    right_mults = [normal_form(a * g, gb).terms for g in side]
    right_span, left_span = Echelon(), Echelon()
    for h in range(s):
        right_span.add(right_mults[h], tag=h)
        left_span.add(left_mults[h], tag=h)
    left: Dict[int, Tuple[Fraction, ...]] = {}
    right: Dict[int, Tuple[Fraction, ...]] = {}
    for g in range(s):
        left[g] = right_span.solve(left_mults[g], s)
        if left[g] is None:
            return NormalVerdict(False, ("left", g), None, None)
        right[g] = left_span.solve(right_mults[g], s)
        if right[g] is None:
            return NormalVerdict(False, ("right", g), None, None)
    return NormalVerdict(True, None, left, right)


@dataclass(frozen=True)
class CentralVerdict:
    central: bool
    witness: Optional[int]  # side index of a non-commuting element


def is_central(a: NcPoly, gb: GroebnerData, side_basis: Optional[Sequence[NcPoly]] = None) -> CentralVerdict:
    """Check NF(g*a - a*g) = 0 for every g in the side basis."""
    a, side = _element_and_side(a, gb, side_basis)
    if not a:
        return CentralVerdict(True, None)
    for idx, g in enumerate(side):
        if normal_form(g * a - a * g, gb):
            return CentralVerdict(False, idx)
    return CentralVerdict(True, None)


class SubalgebraBasis:
    """Degreewise bases of the subalgebra generated by degree-two elements."""

    __slots__ = ("ambient", "generators", "per_degree")

    def __init__(self, ambient: GroebnerData, generators: Sequence[NcPoly], per_degree: Dict[int, List[NcPoly]]):
        self.ambient = ambient
        self.generators = tuple(generators)
        self.per_degree = per_degree

    def dims(self) -> Tuple[int, ...]:
        return tuple(len(self.per_degree[d]) for d in sorted(self.per_degree))

    def __repr__(self):
        return f"SubalgebraBasis(dims={self.dims()})"


def subalgebra_basis(gb: GroebnerData, generators: Sequence[NcPoly], through: int) -> SubalgebraBasis:
    """Degreewise spans of products of the generators, degree by degree.

    Write g_w = g_w1 ... g_wm for a word w in the generator indices, and
    order the words of one length lexicographically.  Degree 2m is spanned
    by the chosen degree-(2m-2) basis times the generators, so only those
    products are normal-formed.  A maximal independent subset is kept by
    first-come pivoting in (prefix, generator) order, which is lex order of
    the words.  This picks the same elements as running over every length-m
    word: if the prefix u of uk was not chosen, NF(g_u) is a combination of
    NF(g_v) over lex-earlier v, and vk < uk, so uk would not be chosen
    either.

    Sorted growth.  Degree 4 is grown in full.  If its products show that
    the generators q-commute, NF(g_b g_a) = c_ab NF(g_a g_b) for every
    a < b (c_ab may be 0; see `_q_commute`), each degree from 6 on forms
    only value * g_k for k at least the last generator of value.  The
    chosen elements stay the same, in the same order:
    - Swapping a descent b > a of a word gives a lex-smaller word and
      multiplies g_w by c_ab modulo the relations (NF is the normal form of
      a two-sided ideal, complete through the bound).  So NF(g_w) =
      c NF(g_sort(w)) with sort(w) <= w.  On sorted words, that is on
      multisets, lex order is the reverse lex order of the exponent
      vectors, so it is multiplicative: u < v gives sort(ut) < sort(vt).
    - Hence an unsorted word is never chosen, the span of the words before
      w equals the span of the sorted words before it, and first-come
      pivoting over all words keeps exactly the sorted words independent
      of the sorted words before them: the standard words (Kandri-Rody &
      Weispfenning 1990).  They are an order ideal under prefixes, by the
      argument above, so every standard word of length m is one of length
      m - 1, chosen at degree 2m - 2, followed by a letter at least its
      last: a formed product.  When every c_ab is nonzero they are also
      closed under division: if t divides w and NF(g_t) is a combination
      of earlier g_u, then NF(g_w), a nonzero multiple of NF(g_t g_t'), is
      a combination of the NF(g_sort(ut')), and sort(ut') < w.
    - A skipped product value * g_k, with k below the last letter of value,
      has an unsorted word w.  NF(g_w) is a multiple of NF(g_sort(w)), a
      combination of standard words at most sort(w) < w, which are all
      formed before w.
    If the test fails, every degree is grown in full.
    """
    gb.require(through)
    gens = []
    for g in generators:
        g = normal_form(g, gb)
        if not g:
            continue
        if g.homogeneous_degree() != 2:
            raise ValueError("subalgebra generators must be homogeneous of degree 2")
        gens.append(g)
    per_degree: Dict[int, List[NcPoly]] = {d: [] for d in range(through + 1)}
    per_degree[0] = [NcPoly.one()]
    level = [(NcPoly.one(), 0)]  # the last degree's chosen elements, each with the index of its last generator
    sort = False
    pairs = {}  # (a, k): NF(g_a g_k), kept at degree 4 for the q-commutation test
    for m in range(1, through // 2 + 1):
        span = Echelon()
        chosen = []
        for value, last in level:
            for k in range(last if sort else 0, len(gens)):
                prod = normal_form(value * gens[k], gb)
                if m == 2:
                    pairs[last, k] = prod
                if span.add(prod.terms):
                    chosen.append((prod, k))
        per_degree[2 * m] = [prod for prod, _ in chosen]
        level = chosen
        if m == 2 and through >= 6:
            sort = _q_commute(gens, pairs, gb)
    return SubalgebraBasis(gb, gens, per_degree)


def _q_commute(gens: Sequence[NcPoly], pairs: Dict[Tuple[int, int], NcPoly], gb: GroebnerData) -> bool:
    """Whether NF(g_b g_a) is a scalar multiple of NF(g_a g_b) for every a < b.

    The scalar may be 0, and a zero NF(g_a g_b) needs a zero NF(g_b g_a).
    `pairs` holds the degree-4 products NF(g_a g_b) whose first factor was
    chosen at degree 2; a pair with another first factor is normal-formed
    here.
    """

    def product(a, b):
        if (a, b) not in pairs:
            pairs[a, b] = normal_form(gens[a] * gens[b], gb)
        return pairs[a, b]

    for a, b in itertools.combinations(range(len(gens)), 2):
        ab, ba = product(a, b), product(b, a)
        # the only candidate scalar is read off any word of ab (0 when ab is zero)
        w = next(iter(ab.terms), None)
        c = ba.terms.get(w, 0) / ab.terms[w] if w is not None else 0
        if ba != ab.scale(c):
            return False
    return True


@dataclass(frozen=True)
class MinorRecord:
    side: str  # "left" or "right" containment
    g_index: int
    poly: ParamPoly


@dataclass(frozen=True)
class PointVerdict:
    point: Tuple[Fraction, ...]
    normal: bool
    certificate: Optional[int]  # index into the minor list, for not-normal points


@dataclass(frozen=True)
class LocusReport:
    variables: Tuple[str, ...]
    minors: Tuple[MinorRecord, ...]
    points: Tuple[PointVerdict, ...]


# the most points `default_grid` lists: (2R + 1)^m - 1 grows too fast to
# check at every point once m or R is large
GRID_POINT_CAP = 100_000


def default_grid(m: int, radius: int = 2) -> List[Tuple[Fraction, ...]]:
    """All parameter tuples with entries in -radius..radius, zero tuple excluded.

    A radius below 1 would leave no point to check, and a grid of more than
    GRID_POINT_CAP points would not finish, so both are rejected before any
    point is built.
    """
    if radius < 1:
        raise ValueError(f"grid radius must be at least 1, got {radius}")
    count = (2 * radius + 1) ** m - 1
    if count > GRID_POINT_CAP:
        raise ValueError(f"a grid of radius {radius} in {m} parameters has {count} points, above the cap of {GRID_POINT_CAP}")
    values = [Fraction(v) for v in range(-radius, radius + 1)]
    return [pt for pt in itertools.product(values, repeat=m) if any(pt)]


def normal_locus_in_span(
    gb: GroebnerData,
    span_gens: Sequence[NcPoly],
    side_basis: Sequence[NcPoly],
    grid: Sequence[Tuple[Fraction, ...]],
    every_minor: bool = False,
) -> LocusReport:
    """Normality of a = sum c_k span_gens[k] across a parameter grid.

    Normal forms are linear, so NF(side[h] * a) and NF(a * side[h]) are
    fixed rational vectors over (word, k) keys: the coefficient of the word
    in NF(side[h] * g_k) or NF(g_k * side[h]).  At a point, each is the
    vector over words that sums c_k times its slice k.  Containment family
    (left, g) asks that side[g] * a lie in the span of the columns
    a * side[h], and (right, g) the mirror; `is_normal` asks this of every
    family.  So the containment matrices have entries linear in the
    parameters, and their rows are the words the s + 1 columns hold, in
    deglex order (every other row is zero).  Vanishing of all maximal
    minors of each augmented matrix is necessary for normality; a nonzero
    minor at a grid point is a sound not-normal certificate.

    One `Echelon` per side of its s columns decides whole families.  When
    the augmented column lies in the span of the columns, the family is
    contained at every point and every minor is zero.  An augmented column
    equal to the family's own column g is such a case, and a side made only
    of those builds no echelon at all.  When the columns
    alone are dependent, every minor is zero.  Only the remaining families
    are open.

    A point's certificate is the first listed minor nonzero there.  The
    list starts empty, or with `every_minor` as every nonzero minor of the
    open families with independent columns.  A point that no listed minor
    certifies runs one `Echelon` per open side of its columns at the point.
    It is normal exactly when every open family is contained there.  When an
    open family's augmented column leaves a residual while the s columns
    are independent there, the (s+1)-minor on the echelon's s pivot words
    and the residual's lowest word is listed and certifies the point: that
    submatrix is triangular on its pivots, so the minor is nonzero there,
    and with its rows in deglex order it is the exhaustive list's minor on
    that row set.  Every open family on both sides is tried before a point
    is left without one.  So a point has a certificate exactly when some
    family has rank s + 1 there, whichever list is kept, and under
    `every_minor` none is ever appended.
    """
    gens = [normal_form(g, gb) for g in span_gens]
    side = [normal_form(g, gb) for g in side_basis]
    degs = {g.homogeneous_degree() for g in gens if g}
    if len(degs) != 1:
        raise ValueError("span generators must be nonzero, homogeneous, of one common degree")
    span_deg = degs.pop()
    side_degs = {g.homogeneous_degree() for g in side if g}
    if len(side_degs) != 1:
        raise ValueError("side basis must be nonzero, homogeneous, of one common degree")
    side_deg = side_degs.pop()
    total = span_deg + side_deg
    gb.require(total)

    m = len(gens)
    s = len(side)
    grid = [tuple(Fraction(v) for v in point) for point in grid]
    if any(len(point) != m for point in grid):
        raise ValueError("wrong number of parameter values")
    if not all(side):
        # is_normal rejects a zero side element unless a is zero; such a
        # side has rank below s on both sides, so no point has a certificate
        a_flat = _flatten(gens)
        if any(any(_at_point(a_flat, point).values()) for point in grid):
            raise ValueError("side basis elements must be nonzero and homogeneous")
    variables = tuple(f"c{k + 1}" for k in range(m))
    # side[h] * a and a * side[h]: the right family's columns and the left
    # family's augmented columns, and the other way round.  products[h][k] is
    # NF(side[h] * gens[k]); when the span is the side, NF(gens[k] * side[h])
    # is products[k][h], so each product is normal-formed once.
    products = [[normal_form(h * g, gb) for g in gens] for h in side]
    side_a = [_flatten(row) for row in products]
    if gens == side:
        a_side = [_flatten([products[k][h] for k in range(m)]) for h in range(s)]
    else:
        a_side = [_flatten([normal_form(g * h, gb) for g in gens]) for h in side]
    units = [tuple(1 if t == k else 0 for t in range(m)) for k in range(m)]

    minors: List[MinorRecord] = []
    # each listed minor's coefficients scaled to ints (scaling does not move
    # its zeros), over the slots of one table of monomial values per point
    slot: Dict[tuple, int] = {}
    scaled_minors = []

    def listed(record: MinorRecord):
        minors.append(record)
        _, ints = int_scaled(record.poly.terms)
        scaled_minors.append([(slot.setdefault(e, len(slot)), c) for e, c in ints.items()])

    open_sides = []  # (side name, columns, augmented columns, families not contained everywhere) per side
    for side_name, col_flats, aug_flats in (("left", a_side, side_a), ("right", side_a, a_side)):
        # a family whose aug equals its own column g is contained at every
        # point, and every minor is zero; a side without another family
        # needs no echelon (every family of a central span is such a family)
        differing = [g for g in range(s) if aug_flats[g] != col_flats[g]]
        if not differing:
            continue
        columns = Echelon()
        for flat in col_flats:
            columns.add(flat)
        # so is a family whose aug reduces to zero: aug = sum lambda_h col_h
        open_g = [g for g in differing if columns.reduce(aug_flats[g])]
        if open_g:
            open_sides.append((side_name, col_flats, aug_flats, open_g))
        if not every_minor or len(columns) < s:
            continue  # listed on demand, or dependent columns: every minor zero
        col_cells = [_cells(flat, variables, units) for flat in col_flats]
        for g in open_g:
            cells = [*col_cells, _cells(aug_flats[g], variables, units)]
            # the rows are the words some column holds: every other row is zero
            words = sorted({w for column in cells for w in column}, key=word_key)
            if len(words) >= s + 1:
                rows = [[column.get(w, 0) for column in cells] for w in words]
                for poly in parametric_minors(ExactMatrix(rows), s + 1):
                    if poly:
                        listed(MinorRecord(side_name, g, poly))

    points: List[PointVerdict] = []
    for point in grid:
        values = [v.numerator if v.denominator == 1 else v for v in point]
        certificate = None
        if minors:
            table = [math.prod(v**e for v, e in zip(values, exp)) for exp in slot]
            certificate = next(
                (idx for idx, terms in enumerate(scaled_minors) if sum(c * table[j] for j, c in terms)), None
            )
        normal = certificate is None
        for side_name, col_flats, aug_flats, open_g in open_sides:
            if certificate is not None:
                break
            span = Echelon()
            for flat in col_flats:
                span.add(_at_point(flat, values))
            independent = len(span) == s
            if not (normal or independent):
                continue  # already not normal, and no certificate on this side
            for g in open_g:
                residual = span.reduce(_at_point(aug_flats[g], values))
                if residual:
                    normal = False
                    if independent:
                        words = sorted([*span.rows, min(residual)], key=word_key)
                        cells = [_cells(flat, variables, units) for flat in (*col_flats, aug_flats[g])]
                        rows = [[column.get(w, 0) for column in cells] for w in words]
                        certificate = len(minors)
                        listed(MinorRecord(side_name, g, parametric_minors(ExactMatrix(rows), s + 1)[0]))
                    break
        points.append(PointVerdict(point, normal, certificate))
    return LocusReport(variables, tuple(minors), tuple(points))


def _flatten(polys: Sequence[NcPoly]) -> Dict[Tuple[tuple, int], Fraction]:
    """One vector over (word, k) keys from the polys[k], one per parameter."""
    return {(w, k): c for k, p in enumerate(polys) for w, c in p.terms.items()}


def _cells(flat: Dict[Tuple[tuple, int], Fraction], variables: Tuple[str, ...], units) -> Dict[tuple, ParamPoly]:
    """The entries of one column over (word, k) as linear ParamPolys sum_k c * c_k, one per word it holds."""
    terms: Dict[tuple, dict] = {}
    for (w, k), c in flat.items():
        terms.setdefault(w, {})[units[k]] = c
    return {w: ParamPoly._make(variables, t) for w, t in terms.items()}


def _at_point(flat: Dict[Tuple[tuple, int], Fraction], values: Sequence) -> Dict[tuple, Fraction]:
    """sum_k values[k] * (slice k of flat), over words; cancelled entries stay as zeros."""
    out: Dict[tuple, Fraction] = {}
    for (w, k), c in flat.items():
        v = values[k]
        if v:
            out[w] = out.get(w, 0) + v * c
    return out


def _require_diagonal(tau):
    if not isinstance(tau, DiagonalAutomorphism):
        raise ValueError(
            "only diagonal automorphisms are supported here; diagonalize the map externally first"
        )


@dataclass(frozen=True)
class RElement:
    i: int
    j: int
    value: NcPoly  # stored in normal form; may be zero in the algebra

    @property
    def is_zero(self) -> bool:
        return not self.value


def build_r_elements(pres: CliffordPresentation, tau: DiagonalAutomorphism, gb: Optional[GroebnerData] = None) -> List[RElement]:
    """The twisted pair elements lambda_i x_i x_j + lambda_j x_j x_i, i <= j.

    With mu_ij = lambda_j / lambda_i (checked here) that is lambda_i e_ij,
    e_ij = x_i x_j + mu_ij x_j x_i, on the diagonal too (2 lambda_i x_i^2).
    Zero values (relations can kill a pair) are retained and flagged via
    is_zero so downstream checks can skip them while reporting the fact.
    """
    _require_diagonal(tau)
    if pres.mu != mu_from_lambdas(tau.lambdas):
        raise ValueError("mu/tau mismatch")
    if gb is None:
        gb = pres.groebner(2)
    lams = tau.lambdas
    return [RElement(i, j, normal_form(_pair_expression(pres.mu, i, j).scale(lams[i]), gb)) for i, j in _pair_index(pres.n)]


@dataclass
class TheoremReport:
    """Structured evidence for each clause of the twist-theorem pipeline."""

    criterion: TwistVerdict
    rejected: bool = False
    construction_consistent: Optional[bool] = None
    normality_scalars: Dict[Tuple[int, int, int], Fraction] = field(default_factory=dict)
    normality_ok: Optional[bool] = None
    dagger_checks: List[Tuple[Tuple[int, int, int, int], bool]] = field(default_factory=list)
    dagger_ok: Optional[bool] = None
    nu_cocycle: Optional[bool] = None
    r_dims_expected: Optional[Tuple[int, ...]] = None
    r_dims_computed: Optional[Tuple[int, ...]] = None
    r_hilbert_ok: Optional[bool] = None
    c_scalars: Dict[Tuple[int, int], Fraction] = field(default_factory=dict)
    c_twist_ok: Optional[bool] = None
    zero_pairs: Tuple[Tuple[int, int], ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """Whether the criterion and every clause hold; a rejected report runs no clause."""
        clauses = (
            self.construction_consistent,
            self.normality_ok,
            self.dagger_ok,
            self.nu_cocycle,
            self.r_hilbert_ok,
            self.c_twist_ok,
        )
        return self.criterion.is_twist and all(c is True for c in clauses)


def _skew_poly_dims(n: int, through: int) -> Tuple[int, ...]:
    """Coefficients of 1/(1-t^2)^n: the series of n q-commuting degree-2 generators."""
    return tuple(math.comb(n - 1 + d // 2, d // 2) if d % 2 == 0 else 0 for d in range(through + 1))


def nu_cocycle_holds(mu: MuMatrix) -> bool:
    """Whether nu(i,j,k,p) * nu(k,p,a,b) = nu(i,j,a,b) for all indices, in O(n^2).

    With nu(i,j,k,p) = mu_ik^2 * mu_jp^2 the ratio of the two sides is
    s(i,k,a) * s(j,p,b), where s(i,k,a) = mu_ik^2 * mu_ka^2 / mu_ia^2 > 0.
    Taking (j,p,b) = (i,k,a) forces s(i,k,a)^2 = 1, so the n^6 identities
    hold exactly when S_ik S_ka = S_ia for all i, k, a, with S = mu^2
    entrywise.  Its n^2 cases k = 0, S_i0 S_0a = S_ia, imply the rest: they
    give S_ik = S_i0 S_0k and S_ka = S_k0 S_0a, and S_0k S_k0 =
    (mu_0k mu_k0)^2 = 1, so S_ik S_ka = S_i0 S_0a = S_ia.
    """
    n = mu.n
    squares = [[mu[i, k] ** 2 for k in range(n)] for i in range(n)]
    return all(squares[i][0] * squares[0][a] == squares[i][a] for i in range(n) for a in range(n))


def verify_twist_theorem(matrices: Sequence, tau: DiagonalAutomorphism, through: int) -> TheoremReport:
    """Verify, exactly and within the degree bound, the full twist pipeline.

    The commutative algebra B is built from the symmetric matrices, its
    twist A by tau is constructed (and cross-checked against the directly
    scaled skew data), and five clauses are checked: the normality scalars
    of the pair elements, their q-commutation, the scalar cocycle identity,
    the dimensions of the subalgebra generated by the y's, and the twisted
    commutation of the corresponding elements on the commutative side.

    Two hypotheses get a warning when they are not established, and the
    clauses run either way: B's quadric system is base-point-free (a finite
    quotient at bound `through`), and tau maps B's relation span onto itself.

    Dagger: with delta(r1, r2) = r1 r2 - nu(r1, r2) r2 r1 and
    nu(r1, r2) = mu_{i1 i2}^2 mu_{j1 j2}^2, mu_ab mu_ba = 1 gives
    nu(r1, r2) nu(r2, r1) = 1, so delta(r2, r1) = -nu(r2, r1) delta(r1, r2),
    and mu_aa = 1 gives delta(r, r) = 0.  NF is linear, so each unordered
    pair takes one normal form; its result stands for both orders, and
    (r, r) holds.

    C side: with e_ij = NF_B(x_i x_j + x_j x_i), tau diagonal and NF
    linear give c_ij = NF_B(tau(x_i x_j + x_j x_i)) = lambda_i lambda_j e_ij
    (the `c_scalars` are lambda_i lambda_j).  With nu(i, j, k, p) = (lambda_k
    lambda_p / lambda_i lambda_j)^2 (mu_ab = lambda_b / lambda_a), the
    twisted commutation c_ij (lambda_k^2 lambda_p^2 c_kp) = nu(i, j, k, p)
    c_kp (lambda_i^2 lambda_j^2 c_ij) is, up to the nonzero scalar
    lambda_i lambda_j lambda_k^3 lambda_p^3, e_ij e_kp = e_kp e_ij in B: C
    is commutative.  That is antisymmetric in the two pairs and trivial on
    equal ones, so each unordered pair of sums takes one normal form.
    """
    _require_diagonal(tau)
    if through < 4:
        raise ValueError("through must be >= 4 (the checks involve degree-4 products)")
    n = tau.n
    if len(matrices) != n:
        raise ValueError("tau size does not match the matrices")
    ones = MuMatrix.ones(n)
    B = build_gsca(ones, [check_mu_symmetric(m, ones) for m in matrices])
    lams = tau.lambdas
    mu = mu_from_lambdas(lams)
    report = TheoremReport(criterion=twist_criterion(mu))

    warnings = []
    bpf = base_point_free_check(quadric_system_of(B), through)
    if not bpf.base_point_free:
        warnings.append("quadric system of B not verified base-point-free; theorem hypotheses not established")
    if not relation_span_equal(B.x_relations, [tau.apply(r) for r in B.x_relations], n):
        warnings.append("tau is not an automorphism of B; theorem hypotheses not established")

    scaled = [
        MuSymmetricMatrix(mu, [[lams[j] * B.matrices[k][i, j] for j in range(n)] for i in range(n)])
        for k in range(n)
    ]
    A = build_gsca(mu, scaled)
    twisted = twist_presentation(B.presentation(), tau)
    report.construction_consistent = relation_span_equal(A.x_relations, twisted.relations, n)

    gb_a = A.groebner(through)
    r_elems = build_r_elements(A, tau, gb_a)
    report.zero_pairs = tuple((r.i, r.j) for r in r_elems if r.is_zero)
    nonzero = [r for r in r_elems if not r.is_zero]

    normality_ok = True
    gens = [NcPoly.generator(k) for k in range(n)]
    for r in nonzero:
        for k, x_k in enumerate(gens):
            scalar = mu[k, r.i] * mu[k, r.j]
            report.normality_scalars[(k, r.i, r.j)] = scalar
            delta = x_k * r.value - (r.value * x_k).scale(scalar)
            if normal_form(delta, gb_a):
                normality_ok = False
    report.normality_ok = normality_ok

    held = {}
    for a, b in itertools.combinations(range(len(nonzero)), 2):
        r1, r2 = nonzero[a], nonzero[b]
        factor = mu[r1.i, r2.i] ** 2 * mu[r1.j, r2.j] ** 2
        held[a, b] = held[b, a] = not normal_form(r1.value * r2.value - (r2.value * r1.value).scale(factor), gb_a)
    report.dagger_checks = [
        ((r1.i, r1.j, r2.i, r2.j), held.get((a, b), True)) for a, r1 in enumerate(nonzero) for b, r2 in enumerate(nonzero)
    ]
    report.dagger_ok = all(ok for _, ok in report.dagger_checks)

    report.nu_cocycle = nu_cocycle_holds(mu)

    sub = subalgebra_basis(gb_a, A.y_normal_forms(gb_a), through)
    report.r_dims_computed = sub.dims()
    report.r_dims_expected = _skew_poly_dims(n, through)
    report.r_hilbert_ok = report.r_dims_computed == report.r_dims_expected

    gb_b = B.groebner(4)
    pairs = _pair_index(n)
    report.c_scalars = {(i, j): lams[i] * lams[j] for i, j in pairs}
    sums = [normal_form(_pair_expression(ones, i, j), gb_b) for i, j in pairs]
    report.c_twist_ok = not any(normal_form(e * f - f * e, gb_b) for e, f in itertools.combinations(sums, 2))
    report.warnings = tuple(warnings)
    return report


def verify_twist_from_gsca(mu, matrices: Sequence[MuSymmetricMatrix], through: int, tau: Optional[DiagonalAutomorphism] = None) -> TheoremReport:
    """Entry point for skew data: reject when mu is not of twist type.

    When the criterion passes, the commutative matrices are recovered by
    unscaling the columns and the pipeline runs on them.
    """
    crit = twist_criterion(mu)
    if not crit.is_twist:
        return TheoremReport(criterion=crit, rejected=True)
    if tau is not None:
        if mu_from_lambdas(tau.lambdas) != mu:
            raise ValueError("mu/tau mismatch")
        lams = tau.lambdas
    else:
        lams = crit.lambdas
    n = mu.n
    unscaled = [[[matrices[k][i, j] / lams[j] for j in range(n)] for i in range(n)] for k in range(n)]
    return verify_twist_theorem(unscaled, DiagonalAutomorphism(lams), through)
