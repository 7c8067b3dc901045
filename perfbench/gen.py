"""Seeded input generator for the skewclifford benchmark.

Every spec is valid by construction and the generator never imports
skewclifford:

- mu has mu_ii = 1 and mu_ij * mu_ji = 1, with nonzero entries;
- every matrix M is mu-symmetric: M_ji is set to M_ij * mu_ji;
- the n matrices are linearly independent: the diagonal of M_k is zero
  before position k and nonzero at k, so the diagonals form a triangular
  matrix with nonzero diagonal (the full-search matrices instead have
  disjoint supports).

Each job is a spec plus the CLI arguments to run on it, and the facts the
output checker needs (`n`, `gca`, `max_deg`, ...), all fixed by the construction.
Jobs cycle through a fixed list of size classes, so every seed sees the
same mix; only the scalars change.  Every job of a run, warm-up included,
has a distinct input.

Usage: python3 perfbench/gen.py --workload theorem --seed 1 --count 20 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

NONZERO = tuple(Fraction(v) for v in ("1", "2", "3", "-1", "-2", "1/2", "-1/2", "1/3", "2/3", "-3/2"))
ENTRY = tuple(Fraction(v) for v in (-2, -1, 0, 0, 1, 2))

# (class name, command, flags, n, form construction, mu construction, weight).  The
# weights set the mix of one schedule cycle.  Sizes keep a cycle's mean job
# near 0.2 s (2-core x86 VM), so a 20 s run holds about 100 jobs or more; larger
# sizes (n = 5 regularity or search, verify-theorem through 10) take 2-3 s a
# job, and quotient at n >= 7 or the normal locus at n >= 4 take hours.
# Weights also keep the 50th and 90th percentiles inside a block of
# similar-cost classes rather than on the step between two blocks.
CLASSES: Dict[str, List[tuple]] = {
    "theorem": [
        ("thm-n3-d8", "verify-theorem", ["--max-deg", "8"], 3, "diagonal", "ones", 4),
        ("thm-n3-d10", "verify-theorem", ["--max-deg", "10"], 3, "diagonal", "ones", 2),
        ("thm-n4-d6", "verify-theorem", ["--max-deg", "6"], 4, "diagonal", "ones", 4),
        ("thm-n4-d8", "verify-theorem", ["--max-deg", "8"], 4, "diagonal", "ones", 1),
        ("thm-n5-d6", "verify-theorem", ["--max-deg", "6"], 5, "diagonal", "ones", 2),
    ],
    "quotient": [
        *(
            (f"{cmd}-{kind}-n{n}", cmd, ["--algebra", "quotient"], n, "triangular", mu, {4: 3, 5: 1}[n])
            for n in (4, 5)
            for cmd in ("dim", "gb", "hilbert")
            for kind, mu in (("gca", "ones"), ("gsca", "random"))
        ),
        ("gb-gca-n6-d3", "gb", ["--algebra", "quotient", "--max-deg", "3"], 6, "triangular", "ones", 1),
    ],
    "regular": [
        ("regular-gca-n4-d5", "regular", ["--max-deg", "5"], 4, "triangular", "ones", 10),
        ("regular-gca-n4", "regular", [], 4, "triangular", "ones", 3),
        ("search-gsca-n4-d3", "normalizing", ["--max-deg", "3"], 4, "full_search", "full_search", 5),
        ("search-gsca-n4", "normalizing", [], 4, "full_search", "full_search", 2),
    ],
    "locus": [
        ("locus-gsca-n3-g1", "normal-locus", ["--grid", "1"], 3, "triangular", "random", 8),
        ("locus-gca-n3-g1", "normal-locus", ["--grid", "1"], 3, "triangular", "ones", 4),
    ],
}
WORKLOADS = tuple(CLASSES)


def _ones_mu(rng: random.Random, n: int) -> List[List[Fraction]]:
    return [[Fraction(1)] * n for _ in range(n)]


def _random_mu(rng: random.Random, n: int) -> List[List[Fraction]]:
    mu = _ones_mu(rng, n)
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(NONZERO[1:])  # never 1, so the data is skew
            mu[i][j], mu[j][i] = v, 1 / v
    return mu


def _full_search_mu(rng: random.Random, n: int) -> List[List[Fraction]]:
    """Random mu with mu_1n * mu_2n != mu_(n-1)n, which keeps the mixed form
    z1*z2 + z(n-1)*zn from ever being normal (see _full_search)."""
    while True:
        mu = _random_mu(rng, n)
        if mu[0][n - 1] * mu[1][n - 1] != mu[n - 2][n - 1]:
            return mu


def _matrix(mu, n: int, upper: Dict[Tuple[int, int], Fraction]) -> List[List[Fraction]]:
    """The mu-symmetric matrix with the given entries M_ij, i <= j."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in upper.items():
        m[i][j] = v
        m[j][i] = v * mu[j][i]
    return m


def _diagonal(rng, mu, n):
    """M_k = c_k E_kk: one seeded nonzero square per form."""
    return [_matrix(mu, n, {(k, k): rng.choice(NONZERO)}) for k in range(n)]


def _triangular(rng, mu, n):
    """M_k lives on the variables k..n with a nonzero z_k^2 term, so the
    quadrics have no common zero but the origin: the commutative quotient is
    a complete intersection of dimension 2^n."""
    forms = []
    for k in range(n):
        upper = {}
        for i in range(k, n):
            for j in range(i, n):
                upper[(i, j)] = rng.choice(NONZERO) if i == j == k else rng.choice(ENTRY)
        forms.append(_matrix(mu, n, upper))
    return forms


def _full_search(rng, mu, n):
    """Squares z_1^2..z_(n-1)^2 plus the mixed form a = c z1*z2 + d z(n-1)*zn.

    z_n*a and a*z_n share their two words and no other a*z_h reaches them, so
    a is normal only if mu_1n * mu_2n = mu_(n-1)n, which _full_search_mu
    excludes.  Squares stay normal, so every order fails at a: the search
    tries all n! orders and reports not-found.
    """
    forms = [_matrix(mu, n, {(k, k): rng.choice(NONZERO)}) for k in range(n - 1)]
    forms.append(_matrix(mu, n, {(0, 1): rng.choice(NONZERO) / 2, (n - 2, n - 1): rng.choice(NONZERO) / 2}))
    return forms


_FORMS = {"diagonal": _diagonal, "triangular": _triangular, "full_search": _full_search}
_MUS = {"ones": _ones_mu, "random": _random_mu, "full_search": _full_search_mu}


def _schedule(workload: str) -> List[tuple]:
    return [cls for cls in CLASSES[workload] for _ in range(cls[-1])]


def cycle_length(workload: str) -> int:
    """Jobs in one cycle of the workload's size-class schedule."""
    return len(_schedule(workload))


def _make_job(rng: random.Random, cls: tuple) -> dict:
    name, command, flags, n, form_kind, mu_kind, _ = cls
    mu = _MUS[mu_kind](rng, n)
    forms = _FORMS[form_kind](rng, mu, n)
    gca = mu_kind == "ones"
    spec: dict = {"n": n, "kind": "gca" if gca else "gsca"}
    if not gca:
        spec["mu"] = [[str(v) for v in row] for row in mu]
    spec["forms"] = [[[str(v) for v in row] for row in m] for m in forms]
    if command == "verify-theorem":
        spec["tau"] = [str(rng.choice(NONZERO)) for _ in range(n)]
    max_deg = int(flags[flags.index("--max-deg") + 1]) if "--max-deg" in flags else 2 * n + 2
    grid = int(flags[flags.index("--grid") + 1]) if "--grid" in flags else None
    return {
        "class": name,
        "argv": [command, *flags, "--format", "json"],
        "spec": spec,
        "n": n,
        "gca": gca,
        "max_deg": max_deg,
        "grid": grid,
    }


def spec_bytes(job: dict) -> bytes:
    return (json.dumps(job["spec"], sort_keys=True) + "\n").encode("ascii")


def generate(workload: str, seed: int) -> Tuple[List[dict], Iterator[dict]]:
    """(warm-up jobs, endless iterator of timed jobs) for one workload and seed.

    Warm-up jobs come from their own random stream, one per size class, and
    all inputs of the run are distinct from each other.
    """
    if workload not in CLASSES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    seen = set()

    def fresh(rng, cls, job_id):
        while True:
            job = _make_job(rng, cls)
            key = (spec_bytes(job), tuple(job["argv"]))
            if key not in seen:
                seen.add(key)
                job["id"] = job_id
                return job

    warm_rng = random.Random(f"warmup/{workload}/{seed}")
    warmups = [fresh(warm_rng, cls, f"warmup-{i}") for i, cls in enumerate(CLASSES[workload])]

    def timed():
        rng = random.Random(f"timed/{workload}/{seed}")
        schedule = _schedule(workload)
        i = 0
        while True:
            yield fresh(rng, schedule[i % len(schedule)], f"{workload}-{i:04d}")
            i += 1

    return warmups, timed()


def write_spec(job: dict, directory: str) -> str:
    path = os.path.join(directory, f"{job['id']}.json")
    with open(path, "wb") as handle:
        handle.write(spec_bytes(job))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write seeded benchmark spec files and a manifest of their jobs.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=20, help="number of timed jobs to write")
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    warmups, timed = generate(args.workload, args.seed)
    manifest = []
    for job in warmups + [next(timed) for _ in range(args.count)]:
        write_spec(job, args.out)
        manifest.append({k: v for k, v in job.items() if k != "spec"})
    with open(os.path.join(args.out, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
