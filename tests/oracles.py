"""Independent oracles for cross-checking the main code paths.

Everything here deliberately avoids the package's rewriting and elimination
machinery: straightening is done by explicit adjacent transpositions on the
ordered monomial basis of the skew ring, ranks come from a local row
reduction with a right-to-left pivot order, and `naive_reduce` rewrites by
re-sorting every term and scanning every leading word at each step.
"""

import itertools
from fractions import Fraction

from skewclifford.freealg import NcPoly, word_key


def straighten(mu_grid, word):
    """Scalar and ordered monomial for a free word in the skew ring.

    Adjacent letters p > q swap via z_p z_q = mu_qp z_q z_p, so the word
    collapses onto the ordered basis with an accumulated scalar.
    """
    letters = list(word)
    factor = Fraction(1)
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            p, q = letters[t], letters[t + 1]
            if p > q:
                factor *= Fraction(mu_grid[q][p])
                letters[t], letters[t + 1] = q, p
                changed = True
                break
    return factor, tuple(letters)


def ordered_monomials(n, degree):
    return list(itertools.combinations_with_replacement(range(n), degree))


def local_rank(rows):
    """Row reduction with right-to-left column pivoting (a distinct pivot order)."""
    work = [list(map(Fraction, row)) for row in rows if any(row)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for c in reversed(range(ncols)):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [e * inv for e in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def free_quotient_dims(n, relation_terms, through):
    """Graded dimensions of the free algebra modulo homogeneous relations.

    Pure linear algebra in the free algebra: the degree-d piece of the ideal
    is spanned by w1 * r * w2 over all word cofactors, with no rewriting
    involved.  Exponential in the degree, so keep `through` small.
    """
    dims = []
    for d in range(through + 1):
        basis = list(itertools.product(range(n), repeat=d))
        index = {w: i for i, w in enumerate(basis)}
        rows = []
        for r in relation_terms:
            deg = len(next(iter(r)))
            if deg > d:
                continue
            for left_len in range(d - deg + 1):
                right_len = d - deg - left_len
                for w1 in itertools.product(range(n), repeat=left_len):
                    for w2 in itertools.product(range(n), repeat=right_len):
                        row = [Fraction(0)] * len(basis)
                        for rw, rc in r.items():
                            row[index[w1 + tuple(rw) + w2]] += Fraction(rc)
                        rows.append(row)
        dims.append(len(basis) - local_rank(rows))
    return dims


def skew_quotient_dims(mu_grid, form_terms, through):
    """Graded dimensions of the skew ring modulo two-sided ideal of quadratic forms.

    form_terms: list of dicts mapping ordered degree-2 words to coefficients.
    The degree-d piece of the ideal is spanned by m1 * q * m2 over ordered
    monomials with |m1| + |m2| = d - 2; dimensions come from local_rank.
    """
    n = len(mu_grid)
    dims = []
    for d in range(through + 1):
        basis = ordered_monomials(n, d)
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        if d >= 2:
            for q in form_terms:
                for left_deg in range(d - 1):
                    right_deg = d - 2 - left_deg
                    for m1 in ordered_monomials(n, left_deg):
                        for m2 in ordered_monomials(n, right_deg):
                            row = [Fraction(0)] * len(basis)
                            for qw, qc in q.items():
                                factor, mono = straighten(mu_grid, m1 + tuple(qw) + m2)
                                row[index[mono]] += Fraction(qc) * factor
                            if any(row):
                                rows.append(row)
        dims.append(len(basis) - local_rank(rows))
    return dims


def naive_reduce(p, basis):
    """Reduce p modulo a list of monic polynomials by the package's fixed strategy.

    Rewrite the deglex-largest reducible word, at its leftmost reducible
    position, by the smallest matching leading word (the first listed, among
    equal leading words).  Every step re-sorts all terms and scans every
    leading word, so the strategy is spelled out rather than indexed.
    """
    if not basis:
        return p
    leads = sorted(((g.lead_word(), g) for g in basis), key=lambda t: word_key(t[0]))
    lead_words = [lw for lw, _ in leads]
    min_len = min(len(lw) for lw in lead_words)
    terms = dict(p.terms)
    while True:
        hit = None
        for w in sorted(terms, key=word_key, reverse=True):
            if len(w) < min_len:
                break
            for pos in range(len(w) - min_len + 1):
                for lw, g in leads:
                    if w[pos : pos + len(lw)] == lw:
                        hit = (w, pos, lw, g)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            break
        w, pos, lw, g = hit
        c = terms.pop(w)
        left, right = w[:pos], w[pos + len(lw) :]
        for gw, gc in g.terms.items():
            if gw == lw:
                continue
            nw = left + gw + right
            s = terms.get(nw, Fraction(0)) - c * gc
            if s:
                terms[nw] = s
            else:
                terms.pop(nw, None)
    return NcPoly(terms)
