"""Output checker for benchmark jobs; works for any seed.

Each rule checks the exit code and verdict, plus values the mathematics
fixes for the generator's constructions, computed here independently of
skewclifford.  `digest_fields` picks the report fields the mathematics
fixes (verdicts, reduced bases, dimensions, per-point normal flags), never
`minors` or `certificate`, whose form may legitimately change.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from typing import Optional

_FACTOR = re.compile(r"[xz]\d+(?:\^(\d+))?")


class CheckError(Exception):
    """The job's output is wrong; the message says how."""


def _require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def _term_degree(poly: str) -> int:
    """Degree of the first term of a rendered homogeneous polynomial."""
    first = re.split(r" [+-] ", poly.lstrip("-"))[0]
    return sum(int(e) if e else 1 for e in _FACTOR.findall(first))


def _all_pass(report: dict):
    bad = {k: v for k, v in report["verdicts"].items() if v != "PASS"}
    _require(not bad, f"verdicts not PASS: {bad}")


def _theorem(job, code, report):
    n, through = job["n"], job["max_deg"]
    _require(code == 0 and report["passed"], "twist theorem did not pass")
    _all_pass(report)
    expected = [math.comb(n - 1 + d // 2, d // 2) if d % 2 == 0 else 0 for d in range(through + 1)]
    _require(report["evidence"]["r_dims_computed"] == expected, "r_dims_computed != coefficients of 1/(1-t^2)^n")


def _dim(job, code, report):
    n, ev = job["n"], report["evidence"]
    finite = report["verdicts"]["finite-dimensional"] == "PASS"
    _require(code == (0 if finite else 1), f"exit code {code} does not match verdict")
    if job["gca"]:
        # The quadrics have no common zero, so the quotient is a complete
        # intersection of dimension 2^n, found finite by degree n + 1.
        _require(finite and ev["dimension"] == 2**n, f"GCA quotient dimension {ev['dimension']} != 2^{n}")
    elif finite:
        _require(ev["dimension"] >= 1 + n + n * (n - 1) // 2, "quotient dimension below its degree <= 2 part")


def _gb(job, code, report):
    n, ev = job["n"], report["evidence"]
    _require(code == 0 and report["passed"], "gb did not pass")
    _require(ev["count"] == len(ev["elements"]), "count != number of elements")
    _require(ev["complete_through"] == job["max_deg"], "complete_through != --max-deg")
    # n(n-1)/2 commutation relations and n independent quadrics span the
    # degree-2 part of the ideal; a reduced basis holds one element per dimension.
    quadratic = sum(1 for g in ev["elements"] if _term_degree(g) == 2)
    _require(quadratic == n * (n + 1) // 2, f"{quadratic} quadratic basis elements, expected {n * (n + 1) // 2}")


def _hilbert(job, code, report):
    n, coeffs = job["n"], report["evidence"]["coefficients"]
    _require(code == 0 and report["passed"], "hilbert did not pass")
    _require(len(coeffs) == job["max_deg"] + 1, "wrong number of coefficients")
    _require(coeffs[:3] == [1, n, n * (n - 1) // 2], f"degree <= 2 dimensions {coeffs[:3]} wrong")
    if job["gca"]:
        _require(coeffs == [math.comb(n, d) for d in range(len(coeffs))], "complete intersection series != (1+t)^n")


def _regular(job, code, report):
    n, ev = job["n"], report["evidence"]
    _require(code == 0 and report["passed"], "regularity did not pass")
    _all_pass(report)
    _require(ev["order"] == list(range(1, n + 1)), "central GCA forms are normalizing in the given order")
    _require(ev["quotient_dimension"] == 2**n, f"quotient dimension {ev['quotient_dimension']} != 2^{n}")
    expected = [math.comb(n - 1 + d, d) for d in range(job["max_deg"] + 1)]
    _require(ev["hilbert_computed"] == expected, "Hilbert coefficients != C(n-1+d, d)")


def _full_search(job, code, report):
    n, ev = job["n"], report["evidence"]
    _require(code == 1 and report["verdicts"] == {"normalizing": "FAIL"}, "search should report not-found")
    _require(ev["order"] is None and ev["orders_searched"] == math.factorial(n), f"expected all {n}! orders searched")


def _locus(job, code, report):
    n, ev = job["n"], report["evidence"]
    _require(code == 0 and report["passed"], "normal-locus did not pass")
    points = ev["points"]
    _require(len(points) == (2 * ev["grid_radius"] + 1) ** n - 1, "wrong number of grid points")
    normal = sum(1 for p in points if p["normal"])
    _require((ev["normal_points"], ev["not_normal_points"]) == (normal, len(points) - normal), "point tallies wrong")
    for p in points:
        cert = p["certificate"]
        _require(cert is None or (not p["normal"] and 0 <= cert < ev["minor_count"]), "bad certificate index")
    if job["gca"]:
        _require(normal == len(points), "degree-2 elements of a GCA are central, so every point is normal")


RULES = {
    "verify-theorem": _theorem,
    "dim": _dim,
    "gb": _gb,
    "hilbert": _hilbert,
    "regular": _regular,
    "normalizing": _full_search,
    "normal-locus": _locus,
}


def digest_fields(job: dict, report: dict) -> dict:
    ev = report["evidence"]
    fields = {
        "verify-theorem": ("r_dims_computed", "zero_pairs"),
        "dim": ("dimension",),
        "gb": ("elements",),
        "hilbert": ("coefficients",),
        "regular": ("order", "quotient_dimension", "hilbert_computed"),
        "normalizing": ("orders_searched",),
        "normal-locus": (),
    }[job["argv"][0]]
    out = {"verdicts": report["verdicts"], **{k: ev.get(k) for k in fields}}
    if job["argv"][0] == "normal-locus":
        out["points"] = [[p["point"], p["normal"]] for p in ev["points"]]
    return out


def digest(job: dict, report: dict) -> str:
    text = json.dumps(digest_fields(job, report), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check(job: dict, code, stdout: str, expected_digest: Optional[str] = None) -> Optional[str]:
    """None when the output is right, otherwise the reason it is wrong."""
    if not isinstance(code, int):
        return f"job did not finish: {code}"
    if code == 2:
        return "exit code 2 (error)"
    try:
        report = json.loads(stdout)
        _require(report["command"] == job["argv"][0], "report is for another command")
        RULES[job["argv"][0]](job, code, report)
        if expected_digest is not None:
            _require(digest(job, report) == expected_digest, "digest of fixed fields differs from the recorded one")
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    return None
