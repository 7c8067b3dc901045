"""Independent oracles for cross-checking the main code paths.

Everything here deliberately avoids the package's rewriting and elimination
machinery: straightening is done by explicit adjacent transpositions on the
ordered monomial basis of the skew ring, ranks come from a local row
reduction with a right-to-left pivot order, `naive_rref` is dense
Gauss-Jordan elimination over whole rows, `sparse_rref` eliminates row
by row on dicts (and gives `free_reduced_basis` one RREF of the ideal per
degree), `naive_reduce` rewrites by
re-sorting every term and scanning every leading word at each step,
`leibniz_det` sums over permutations with its own polynomial arithmetic,
`form_matrix` inverts the form of a mu-symmetric matrix by its entry
formulas, `twist_pair_clauses` checks the dagger and C-side clauses of the
twist theorem on every ordered pair, as stated, with `naive_reduce`,
`full_growth` grows a subalgebra from every product with `naive_reduce` and
`sparse_rref`, `nu_cocycle_cubic` tests the cocycle and `twist_witness_cubic` the twist
criterion on every index triple,
and `join_terms` renders coefficients through `Fraction`'s own abs, sign
and text.
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


def naive_rref(rows):
    """Reduced row echelon form by dense Gauss-Jordan elimination, left-to-right pivots.

    Returns (rows, pivot columns): the pivot rows in pivot order, then the
    zero rows the elimination leaves, all as lists of Fractions.
    """
    work = [list(map(Fraction, row)) for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [e * inv for e in work[r]]
        for i in range(nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return work, pivots


def _free_ideal_rows(n, relation_terms, words):
    """Rows w1 * r * w2 spanning the ideal's piece of degree len(words[0]), indexed by words."""
    d = len(words[0])
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for r in relation_terms:
        deg = len(next(iter(r)))
        if deg > d:
            continue
        for left_len in range(d - deg + 1):
            right_len = d - deg - left_len
            for w1 in itertools.product(range(n), repeat=left_len):
                for w2 in itertools.product(range(n), repeat=right_len):
                    row = [Fraction(0)] * len(words)
                    for rw, rc in r.items():
                        row[index[w1 + tuple(rw) + w2]] += Fraction(rc)
                    rows.append(row)
    return rows


def free_quotient_dims(n, relation_terms, through):
    """Graded dimensions of the free algebra modulo homogeneous relations.

    Pure linear algebra in the free algebra: the degree-d piece of the ideal
    is spanned by w1 * r * w2 over all word cofactors, with no rewriting
    involved.  Exponential in the degree, so keep `through` small.
    """
    dims = []
    for d in range(through + 1):
        basis = list(itertools.product(range(n), repeat=d))
        dims.append(len(basis) - local_rank(_free_ideal_rows(n, relation_terms, basis)))
    return dims


def sparse_rref(rows):
    """Reduced row echelon form of sparse rows (dicts word -> Fraction) of one degree.

    Rows are taken one at a time: a row is cleared at every pivot it holds,
    and a nonzero remainder, scaled to 1 at its largest word, becomes a
    pivot row and is cleared from the pivot rows before it.  Returns
    {pivot word: row}.  The reduced form is unique, so this is the RREF that
    dense elimination with columns in descending word order gives.
    """

    def subtract(row, c, other):
        for w, e in other.items():
            s = row.get(w, Fraction(0)) - c * e
            if s:
                row[w] = s
            else:
                row.pop(w, None)

    reduced = {}
    for given in rows:
        row = {w: Fraction(c) for w, c in given.items() if c}
        for w in [w for w in row if w in reduced]:
            subtract(row, row[w], reduced[w])
        if not row:
            continue
        p = max(row)
        inv = 1 / row[p]
        row = {w: c * inv for w, c in row.items()}
        for other in reduced.values():
            if p in other:
                subtract(other, other[p], row)
        reduced[p] = row
    return reduced


def free_reduced_basis(n, relation_terms, through):
    """The reduced Groebner basis through degree `through`, from one RREF per degree.

    The RREF of the ideal's degree-d piece, with columns in descending
    deglex order, has the leading words of that piece as pivots and only
    normal words in its tails.  The reduced basis is the rows whose pivot
    word has no proper subword that is a lower-degree pivot.  Returns the
    elements as dicts word -> Fraction, in increasing deglex order of the
    pivot words.  Exponential in the degree, so keep `through` small.
    """
    elements = []
    pivots = set()
    for d in range(1, through + 1):
        words = list(itertools.product(range(n), repeat=d))
        rows = [{words[k]: v for k, v in enumerate(row) if v} for row in _free_ideal_rows(n, relation_terms, words)]
        reduced = sparse_rref(rows)
        for w in sorted(reduced):
            if not any(w[i:j] in pivots for i in range(d) for j in range(i + 1, d + 1)):
                elements.append(reduced[w])
        pivots.update(reduced)
    return elements


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


def twist_pair_clauses(lams, a_basis, b_basis):
    """(dagger_checks, dagger_ok, c_twist_ok) of the twist theorem for tau = diag(lams), every ordered pair checked.

    a_basis and b_basis are complete Groebner bases through degree 4 of the
    twisted algebra A and of the commutative algebra B, and normal forms
    are taken with `naive_reduce`.  With mu_ij = lambda_j / lambda_i and
    nu(i, j, k, p) = mu_ik^2 mu_jp^2:
    - dagger: r_ij = NF_A(lambda_i x_i x_j + lambda_j x_j x_i) for i <= j;
      for every ordered pair of nonzero r1, r2, r1 r2 - nu r2 r1 must
      reduce to 0;
    - C side: c_ij = NF_B(tau(x_i x_j + x_j x_i)) must equal lambda_i
      lambda_j NF_B(x_i x_j + x_j x_i), and for every ordered pair of pairs
      c_ij (lambda_k^2 lambda_p^2 c_kp) - nu(i, j, k, p) c_kp
      (lambda_i^2 lambda_j^2 c_ij) must reduce to 0.
    """
    n = len(lams)
    lams = [Fraction(v) for v in lams]
    a_basis = [g for g in a_basis if len(g.lead_word()) <= 4]
    b_basis = [g for g in b_basis if len(g.lead_word()) <= 4]

    def mu(i, j):
        return lams[j] / lams[i]

    def nu(i, j, k, p):
        return mu(i, k) ** 2 * mu(j, p) ** 2

    def x(i):
        return NcPoly.generator(i)

    def tau(p):
        terms = {}
        for w, c in p.terms.items():
            for letter in w:
                c *= lams[letter]
            terms[w] = c
        return NcPoly(terms)

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    r = {(i, j): naive_reduce(x(i) * x(j) * lams[i] + x(j) * x(i) * lams[j], a_basis) for i, j in pairs}
    nonzero = [ij for ij in pairs if r[ij]]
    dagger_checks = []
    for (i, j) in nonzero:
        for (k, p) in nonzero:
            delta = r[i, j] * r[k, p] - (r[k, p] * r[i, j]).scale(nu(i, j, k, p))
            dagger_checks.append(((i, j, k, p), not naive_reduce(delta, a_basis)))
    c_twist_ok = True
    c = {}
    for (i, j) in pairs:
        e = x(i) * x(j) + x(j) * x(i)
        e_nf = naive_reduce(e, b_basis)
        c[i, j] = naive_reduce(tau(e), b_basis)
        if e_nf and c[i, j] != e_nf.scale(lams[i] * lams[j]):
            c_twist_ok = False
    for (i, j) in pairs:
        for (k, p) in pairs:
            lhs = c[i, j] * c[k, p].scale(lams[k] ** 2 * lams[p] ** 2)
            rhs = (c[k, p] * c[i, j].scale(lams[i] ** 2 * lams[j] ** 2)).scale(nu(i, j, k, p))
            if naive_reduce(lhs - rhs, b_basis):
                c_twist_ok = False
    return dagger_checks, all(ok for _, ok in dagger_checks), c_twist_ok


def full_growth(basis, generators, through):
    """Degreewise bases {degree: [element]} of the subalgebra generated by degree-2 generators.

    Every product is formed: degree 2m takes NF(value * g) for every value
    kept at degree 2m - 2 and every nonzero generator g, in that order, and
    keeps a product when it raises the rank of the products kept before it
    (first-come pivoting).  Normal forms come from `naive_reduce` modulo
    `basis`, a complete Groebner basis through `through`, and ranks from
    `sparse_rref`.
    """
    gens = [g for g in (naive_reduce(g, basis) for g in generators) if g]
    per_degree = {d: [] for d in range(through + 1)}
    per_degree[0] = [NcPoly.one()]
    for m in range(1, through // 2 + 1):
        kept_rows = []
        for value in per_degree[2 * m - 2]:
            for g in gens:
                prod = naive_reduce(value * g, basis)
                if len(sparse_rref(kept_rows + [prod.terms])) > len(kept_rows):
                    kept_rows.append(prod.terms)
                    per_degree[2 * m].append(prod)
    return per_degree


def nu_cocycle_cubic(mu):
    """Whether s(i,k,a) = mu_ik^2 mu_ka^2 / mu_ia^2 is 1 for every index triple: the n^3 form of the nu cocycle."""
    n = mu.n
    return all(
        mu[i, k] ** 2 * mu[k, a] ** 2 == mu[i, a] ** 2 for i, k, a in itertools.product(range(n), repeat=3)
    )


def twist_witness_cubic(mu):
    """The first (i, j, k) in itertools.product order with mu_ik != mu_ij mu_jk, or None: the n^3 twist criterion."""
    n = mu.n
    for i, j, k in itertools.product(range(n), repeat=3):
        if mu[i, k] != mu[i, j] * mu[j, k]:
            return (i, j, k)
    return None


def leibniz_det(grid, nvars):
    """Determinant of a square matrix of ParamPoly or scalar entries, as exponent -> Fraction.

    The Leibniz formula: a signed sum over all permutations of products of
    one entry per row, with the sign read off the inversion count and the
    polynomials kept as plain dicts.
    """
    size = len(grid)
    cells = [
        [dict(e.terms) if hasattr(e, "terms") else ({(0,) * nvars: Fraction(e)} if e else {}) for e in row]
        for row in grid
    ]
    total = {}
    for perm in itertools.permutations(range(size)):
        inversions = sum(1 for a in range(size) for b in range(a + 1, size) if perm[a] > perm[b])
        product = {(0,) * nvars: Fraction(-1 if inversions % 2 else 1)}
        for row, col in enumerate(perm):
            nxt = {}
            for e1, c1 in product.items():
                for e2, c2 in cells[row][col].items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    nxt[e] = nxt.get(e, Fraction(0)) + c1 * c2
            product = nxt
        for e, c in product.items():
            total[e] = total.get(e, Fraction(0)) + c
    return {e: c for e, c in total.items() if c}


def form_matrix(mu_grid, coeffs):
    """The mu-symmetric grid M of the form sum c_ij z_i z_j (i <= j) that z^T M z straightens to.

    M_ii = c_ii, and an off-diagonal c_ij splits into M_ij = c_ij / 2 and
    M_ji = mu_ji * M_ij, so that z_j z_i -> mu_ij z_i z_j folds it back.
    """
    n = len(mu_grid)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in coeffs.items():
        if i == j:
            grid[i][i] = Fraction(c)
        else:
            grid[i][j] = Fraction(c) / 2
            grid[j][i] = Fraction(mu_grid[j][i]) * Fraction(c) / 2
    return grid


def join_terms(parts):
    """Render (coefficient, monomial) pairs as "m1 - 2*m2 + 1/2": the text of every polynomial the package prints.

    An empty monomial is a constant, a unit coefficient is left out, and no
    pairs is "0".  Signs, absolute values and "p/q" text come from Fraction.
    """
    pieces = []
    for c, mono in parts:
        c = Fraction(c)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if pieces:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces) if pieces else "0"
