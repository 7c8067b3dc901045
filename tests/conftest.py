import random
from fractions import Fraction

import pytest
from hypothesis import settings

import skewclifford as sk

# every property draws the same examples on every run, with no time limit;
# a test sets only its max_examples
settings.register_profile("derandomized", deadline=None, derandomize=True, database=None)
settings.load_profile("derandomized")

NONZERO_SMALL = [
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(-1),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1, 3),
]


# an n=4 GSCA with fractional mu and forms, whose quotient basis has 18 elements
HASHSEED_SPEC = {
    "n": 4,
    "kind": "gsca",
    "mu": [["1", "1/2", "-1/2", "-3/2"], ["2", "1", "2", "2/3"], ["-2", "1/2", "1", "-2"], ["-2/3", "3/2", "-1/2", "1"]],
    "forms": [
        [["1", "-1", "-2", "0"], ["-2", "0", "-1", "0"], ["4", "-1/2", "1", "-2"], ["0", "0", "1", "1"]],
        [["0", "0", "0", "0"], ["0", "-1", "-2", "2"], ["0", "-1", "-1", "0"], ["0", "3", "0", "0"]],
        [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "3", "0"], ["0", "0", "0", "-1"]],
        [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "2"]],
    ],
}


def spec_quotient(spec) -> "sk.PresentedAlgebra":
    """The skew ring of a spec's mu modulo the forms of its matrices."""
    mu = sk.validate_mu([[Fraction(e) for e in row] for row in spec["mu"]])
    matrices = [sk.check_mu_symmetric([[Fraction(e) for e in row] for row in m], mu) for m in spec["forms"]]
    return sk.QuadricSystem(mu, tuple(sk.quadratic_form_of(m) for m in matrices)).quotient()


def example21_mu():
    return sk.validate_mu([[1, 2, 1], [Fraction(1, 2), 1, 1], [1, 1, 1]])


def example21_matrices(mu):
    grids = (
        [[2, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 2, 0], [0, 0, 0]],
        [[0, 1, 0], [Fraction(1, 2), 0, 0], [0, 0, 2]],
    )
    return [sk.check_mu_symmetric(g, mu) for g in grids]


@pytest.fixture(scope="session")
def ex21():
    """Worked-example data: (mu, matrices, presentation, bound-8 Groebner data)."""
    mu = example21_mu()
    matrices = example21_matrices(mu)
    pres = sk.build_gsca(mu, matrices)
    gb = pres.groebner(8)
    return mu, matrices, pres, gb


def random_mu(rng: random.Random, n: int) -> "sk.MuMatrix":
    grid = [[Fraction(1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(NONZERO_SMALL)
            grid[i][j] = v
            grid[j][i] = 1 / v
    return sk.validate_mu(grid)


def random_mu_symmetric(rng: random.Random, mu: "sk.MuMatrix") -> "sk.MuSymmetricMatrix":
    n = mu.n
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = Fraction(rng.randint(-2, 2))
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-2, 2))
            grid[i][j] = v
            grid[j][i] = v / mu[i, j]
    return sk.check_mu_symmetric(grid, mu)


def random_gca(rng: random.Random, n: int = 3) -> "sk.CliffordPresentation":
    """A GCA with independent matrices and a base-point-free quadric system."""
    while True:
        grids = []
        for _ in range(n):
            g = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = Fraction(rng.randint(-2, 2))
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(-2, 2))
                    g[i][j] = v
                    g[j][i] = v
            grids.append(g)
        try:
            pres = sk.build_gca(grids)
        except ValueError:
            continue
        system = sk.quadric_system_of(pres)
        bpf = sk.base_point_free_check(system, 2 * n + 2)
        if bpf.base_point_free:
            return pres


TAU_STABLE_RECIPES = ("block-triangular", "dense")

# lambda values with coincident weights: 1 * 1 = (-1) * (-1), 1 * 4 = 2 * 2 = (-2) * (-2),
# so a weight class can hold squares or products from different blocks
MIXED_LAMBDAS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(4))


def tau_stable_gca(rng: random.Random, lams, recipe: str):
    """Symmetric grids of a GCA whose forms each lie on one weight class of tau = diag(lams).

    The variables of equal lambda form a block, and the monomial z_i z_j has
    weight lambda_i lambda_j.  Form k lies on the weight class of z_k^2, so
    tau scales it by lambda_k^2 and maps the relation span of B onto itself.
    A class mixes blocks when lambda_i lambda_j = lambda_k^2 with i or j
    outside k's block.
    - "block-triangular": form k holds the monomials of its class on the
      variables k..n, with a nonzero z_k^2 coefficient.  Inside one block
      this is perfbench's triangular recipe, and the forms are independent
      and have no common zero but the origin.
    - "dense": form k fills its whole class with nonzero entries (0 drawn is
      replaced by 1).  The forms may be dependent (`build_gca` then raises)
      or have base points.
    """
    if recipe not in TAU_STABLE_RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}")
    lams = [Fraction(v) for v in lams]
    n = len(lams)
    grids = []
    for k in range(n):
        weight = lams[k] ** 2
        first = k if recipe == "block-triangular" else 0
        g = [[Fraction(0)] * n for _ in range(n)]
        for i in range(first, n):
            for j in range(i, n):
                if lams[i] * lams[j] != weight:
                    continue
                if (i, j) == (k, k):
                    v = Fraction(rng.choice(NONZERO_SMALL))
                else:
                    v = Fraction(rng.randint(-2, 2))
                    if recipe == "dense" and not v:
                        v = Fraction(1)
                g[i][j] = g[j][i] = v
        grids.append(g)
    return grids


def tau_stable_spec(seed: int, lams, recipe: str) -> dict:
    """A `verify-theorem` spec file: `tau_stable_gca` drawn from random.Random(seed), and tau = diag(lams)."""
    grids = tau_stable_gca(random.Random(seed), lams, recipe)
    return {
        "kind": "gca",
        "n": len(lams),
        "forms": [[[str(v) for v in row] for row in g] for g in grids],
        "tau": [str(Fraction(v)) for v in lams],
    }


def random_degree_one(rng: random.Random, n: int) -> "sk.NcPoly":
    while True:
        p = sk.NcPoly({(i,): Fraction(rng.randint(-2, 2)) for i in range(n)})
        if p:
            return p
