"""Twists of quadratic presentations by degree-zero automorphisms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .clifford import MuMatrix
from .exact import Echelon
from .freealg import LinearMap, NcPoly
from .rewrite import PresentedAlgebra


@dataclass(frozen=True)
class DiagonalAutomorphism:
    """Degree-zero automorphism acting by x_i -> lambda_i x_i."""

    lambdas: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(Fraction(v) for v in self.lambdas))
        if any(v == 0 for v in self.lambdas):
            raise ValueError("diagonal automorphism requires nonzero scalars")

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def inverse(self) -> "DiagonalAutomorphism":
        return DiagonalAutomorphism(tuple(1 / v for v in self.lambdas))

    def power(self, k: int) -> "DiagonalAutomorphism":
        return DiagonalAutomorphism(tuple(v**k for v in self.lambdas))

    def apply(self, p: NcPoly) -> NcPoly:
        terms = {}
        for w, c in p.terms.items():
            factor = Fraction(1)
            for letter in w:
                factor *= self.lambdas[letter]
            terms[w] = c * factor
        return NcPoly(terms)


Automorphism = Union[DiagonalAutomorphism, LinearMap]


def _inverse_generator_images(phi: Automorphism, n: int):
    if isinstance(phi, DiagonalAutomorphism):
        if phi.n != n:
            raise ValueError("automorphism size does not match the presentation")
        return [NcPoly({(j,): 1 / phi.lambdas[j]}) for j in range(n)]
    if phi.n != n:
        raise ValueError("automorphism size does not match the presentation")
    inv = phi.inverse()  # raises "singular map" when not invertible
    return [inv.image_of_generator(j) for j in range(n)]


def twist_presentation(alg: PresentedAlgebra, phi: Automorphism) -> PresentedAlgebra:
    """Presentation of the twist: the relation span transforms by identity (x) phi^{-1}.

    Each relation sum c_ab x_a x_b maps to sum c_ab x_a phi^{-1}(x_b);
    the output relations are renormalized to leading coefficient one.
    """
    inv_images = _inverse_generator_images(phi, alg.n)
    new_relations = []
    for rel in alg.relations:
        if rel.homogeneous_degree() != 2:
            raise ValueError(f"non-quadratic relation: {rel}")
        out = NcPoly.zero()
        for (a, b), c in rel.terms.items():
            out = out + (NcPoly.generator(a) * inv_images[b]).scale(c)
        new_relations.append(out)
    return PresentedAlgebra(alg.n, new_relations)


@dataclass(frozen=True)
class TwistVerdict:
    is_twist: bool
    lambdas: Optional[Tuple[Fraction, ...]]
    witness: Optional[Tuple[int, int, int]]  # 0-based (i, j, k) with mu_ik != mu_ij * mu_jk

    def __str__(self):
        if self.is_twist:
            return "is-twist lambda=(" + ",".join(str(v) for v in self.lambdas) + ")"
        i, j, k = self.witness
        return f"not-twist witness ({i + 1},{j + 1},{k + 1})"


def twist_criterion(mu: MuMatrix) -> TwistVerdict:
    """Multiplicativity test mu_ik = mu_ij * mu_jk over all triples, in O(n^2).

    A MuMatrix has mu_ii = 1 and mu_ij * mu_ji = 1.  The triples hold
    exactly when mu_ik = mu_i0 * mu_0k for every i, k: those are the
    triples with j = 0, and they imply the rest, since mu_ij * mu_jk =
    mu_i0 * (mu_0j * mu_j0) * mu_0k = mu_i0 * mu_0k = mu_ik.  So lambda_j =
    mu_0j (normalized by lambda_1 = 1) gives lambda_j / lambda_i =
    mu_0j * mu_i0 = mu_ij.  On failure the triples are scanned in
    `itertools.product` order, and the witness is the first that fails.
    """
    n = mu.n
    lams = tuple(mu[0, j] for j in range(n))
    if all(mu[i, k] == mu[i, 0] * lams[k] for i in range(n) for k in range(n)):
        return TwistVerdict(True, lams, None)
    triples = itertools.product(range(n), repeat=3)
    return TwistVerdict(False, None, next((i, j, k) for i, j, k in triples if mu[i, k] != mu[i, j] * mu[j, k]))


def mu_from_lambdas(lams: Sequence[Fraction]) -> MuMatrix:
    """mu_ij = lambda_j / lambda_i; always passes validate_mu and the criterion."""
    lams = [Fraction(v) for v in lams]
    if any(v == 0 for v in lams):
        raise ValueError("lambdas must be nonzero")
    n = len(lams)
    return MuMatrix([[lams[j] / lams[i] for j in range(n)] for i in range(n)])


def _relation_span(relations: Sequence[NcPoly], n: int) -> Echelon:
    """An `Echelon` of quadratic relations in n generators, keyed by word."""
    span = Echelon()
    for rel in relations:
        if rel.homogeneous_degree() != 2:
            raise ValueError(f"non-quadratic relation: {rel}")
        top = rel.max_letter()
        if top >= n:
            raise ValueError(f"relation uses generator {top + 1} but n = {n}")
        span.add(rel.terms)
    return span


def relation_span_equal(rels_a: Sequence[NcPoly], rels_b: Sequence[NcPoly], n: int) -> bool:
    """Whether two lists of quadratic relations span the same space: equal ranks, and B inside A."""
    span_a = _relation_span(rels_a, n)
    span_b = _relation_span(rels_b, n)
    return len(span_a) == len(span_b) and not any(span_a.reduce(row) for row in span_b.rows.values())
