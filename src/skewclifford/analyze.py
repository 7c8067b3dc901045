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

    Degree 2m is spanned by the chosen degree-(2m-2) basis times the
    generators, so only those products are normal-formed.  A maximal
    independent subset is kept by first-come pivoting in (prefix, generator)
    order.  This picks the same elements as running over every length-m
    word in the generators: a word whose prefix was not chosen gives a
    combination of earlier products, so it would not be chosen either.
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
    for m in range(1, through // 2 + 1):
        span = Echelon()
        chosen: List[NcPoly] = []
        for value in per_degree[2 * m - 2]:
            for g in gens:
                prod = normal_form(value * g, gb)
                if span.add(prod.terms):
                    chosen.append(prod)
        per_degree[2 * m] = chosen
    return SubalgebraBasis(gb, gens, per_degree)


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
    are expanded.  A point without a certificate is normal exactly when
    every family not contained everywhere is contained there, which one
    `Echelon` of that side's columns at the point decides.
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
    open_sides = []  # (columns, augmented columns, families not contained everywhere) per side
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
            open_sides.append((col_flats, aug_flats, open_g))
        if len(columns) < s:
            continue  # dependent columns: every minor zero
        col_cells = [_cells(flat, variables, units) for flat in col_flats]
        for g in open_g:
            cells = [*col_cells, _cells(aug_flats[g], variables, units)]
            # the rows are the words some column holds: every other row is zero
            words = sorted({w for column in cells for w in column}, key=word_key)
            if len(words) >= s + 1:
                rows = [[column.get(w, 0) for column in cells] for w in words]
                for poly in parametric_minors(ExactMatrix(rows), s + 1):
                    if poly:
                        minors.append(MinorRecord(side_name, g, poly))

    # Certificates: each minor over one table of monomial values, with its
    # coefficients scaled to ints (scaling does not move its zeros).
    monomials = sorted({e for record in minors for e in record.poly.terms})
    slot = {e: j for j, e in enumerate(monomials)}
    scaled_minors = []
    for record in minors:
        _, ints = int_scaled(record.poly.terms)
        scaled_minors.append([(slot[e], c) for e, c in ints.items()])

    points: List[PointVerdict] = []
    for point in grid:
        values = [v.numerator if v.denominator == 1 else v for v in point]
        certificate = None
        if minors:
            table = [math.prod(v**e for v, e in zip(values, exp)) for exp in monomials]
            certificate = next(
                (idx for idx, terms in enumerate(scaled_minors) if sum(c * table[j] for j, c in terms)), None
            )
        if certificate is not None:
            points.append(PointVerdict(point, False, certificate))
            continue
        normal = True
        for col_flats, aug_flats, open_g in open_sides:
            span = Echelon()
            for flat in col_flats:
                span.add(_at_point(flat, values))
            if any(span.reduce(_at_point(aug_flats[g], values)) for g in open_g):
                normal = False
                break
        points.append(PointVerdict(point, normal, None))
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

    Zero values (relations can kill a pair) are retained and flagged via
    is_zero so downstream checks can skip them while reporting the fact.
    """
    _require_diagonal(tau)
    if pres.mu != mu_from_lambdas(tau.lambdas):
        raise ValueError("mu/tau mismatch")
    if gb is None:
        gb = pres.groebner(2)
    lams = tau.lambdas
    out = []
    for i in range(pres.n):
        for j in range(i, pres.n):
            raw = NcPoly.generator(i) * NcPoly.generator(j) * lams[i] + NcPoly.generator(j) * NcPoly.generator(i) * lams[j]
            out.append(RElement(i, j, normal_form(raw, gb)))
    return out


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
        if self.rejected or not self.criterion.is_twist:
            return False
        clauses = (self.normality_ok, self.dagger_ok, self.nu_cocycle, self.r_hilbert_ok, self.c_twist_ok)
        return all(c is True for c in clauses)


def _skew_poly_dims(n: int, through: int) -> Tuple[int, ...]:
    """Coefficients of 1/(1-t^2)^n: the series of n q-commuting degree-2 generators."""
    return tuple(math.comb(n - 1 + d // 2, d // 2) if d % 2 == 0 else 0 for d in range(through + 1))


def nu_cocycle_holds(mu: MuMatrix) -> bool:
    """Whether nu(i,j,k,p) * nu(k,p,a,b) = nu(i,j,a,b) for all indices, in O(n^3).

    With nu(i,j,k,p) = mu_ik^2 * mu_jp^2 the ratio of the two sides is
    s(i,k,a) * s(j,p,b), where s(i,k,a) = mu_ik^2 * mu_ka^2 / mu_ia^2 > 0.
    Taking (j,p,b) = (i,k,a) forces s(i,k,a)^2 = 1, so the n^6 identities
    hold exactly when every s(i,k,a) is 1.
    """
    n = mu.n
    squares = [[mu[i, k] ** 2 for k in range(n)] for i in range(n)]
    return all(
        squares[i][k] * squares[k][a] == squares[i][a]
        for i, k, a in itertools.product(range(n), repeat=3)
    )


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
    for r in nonzero:
        for k in range(n):
            scalar = mu[k, r.i] * mu[k, r.j]
            report.normality_scalars[(k, r.i, r.j)] = scalar
            delta = NcPoly.generator(k) * r.value - (r.value * NcPoly.generator(k)).scale(scalar)
            if normal_form(delta, gb_a):
                normality_ok = False
    report.normality_ok = normality_ok

    def nu(i, j, k, p):
        return mu[i, k] ** 2 * mu[j, p] ** 2

    dagger_ok = True
    for r1 in nonzero:
        for r2 in nonzero:
            factor = nu(r1.i, r1.j, r2.i, r2.j)
            delta = r1.value * r2.value - (r2.value * r1.value).scale(factor)
            ok = not normal_form(delta, gb_a)
            report.dagger_checks.append(((r1.i, r1.j, r2.i, r2.j), ok))
            dagger_ok = dagger_ok and ok
    report.dagger_ok = dagger_ok

    report.nu_cocycle = nu_cocycle_holds(mu)

    sub = subalgebra_basis(gb_a, A.y_normal_forms(gb_a), through)
    report.r_dims_computed = sub.dims()
    report.r_dims_expected = _skew_poly_dims(n, through)
    report.r_hilbert_ok = report.r_dims_computed == report.r_dims_expected

    gb_b = B.groebner(4)
    c_twist_ok = True
    c_elements: Dict[Tuple[int, int], NcPoly] = {}
    for i in range(n):
        for j in range(i, n):
            e = NcPoly.generator(i) * NcPoly.generator(j) + NcPoly.generator(j) * NcPoly.generator(i)
            e_nf = normal_form(e, gb_b)
            c = normal_form(tau.apply(e), gb_b)
            report.c_scalars[(i, j)] = lams[i] * lams[j]
            c_elements[(i, j)] = c
            if e_nf and c != e_nf.scale(lams[i] * lams[j]):
                c_twist_ok = False
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for (i, j) in pairs:
        for (k, p) in pairs:
            lhs = c_elements[(i, j)] * c_elements[(k, p)].scale(lams[k] ** 2 * lams[p] ** 2)
            rhs = (c_elements[(k, p)] * c_elements[(i, j)].scale(lams[i] ** 2 * lams[j] ** 2)).scale(nu(i, j, k, p))
            if normal_form(lhs - rhs, gb_b):
                c_twist_ok = False
    report.c_twist_ok = c_twist_ok
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
