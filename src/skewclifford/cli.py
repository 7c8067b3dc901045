"""Command-line entry point: parse algebra description files, dispatch checks, emit reports."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Optional

from . import analyze
from .clifford import (
    CliffordPresentation,
    MuMatrix,
    MuSymmetricMatrix,
    QuadricSystem,
    base_point_free_check,
    build_gsca,
    build_skew_ring,
    normalizing_check,
    quadratic_form_of,
    regularity_verdict,
)
from .exact import parse_scalar, scalar_str
from .freealg import parse_poly, poly_str
from .rewrite import DegreeBoundError, finite_dim_check, groebner, hilbert_coeffs, normal_form
from .twist import DiagonalAutomorphism, twist_criterion, twist_presentation

class SpecFileError(ValueError):
    """Malformed algebra description file."""


@dataclass
class AlgebraSpecFile:
    n: int
    mu: MuMatrix
    forms: List[MuSymmetricMatrix]
    tau: Optional[DiagonalAutomorphism]
    kind: str
    digest: str


def _scalar_grid(raw, n: int, where: str):
    if not isinstance(raw, list) or len(raw) != n:
        raise SpecFileError(f"{where}: expected {n} rows")
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise SpecFileError(f"{where}[{i}]: expected {n} entries")
        out_row = []
        for j, entry in enumerate(row):
            try:
                out_row.append(parse_scalar(entry))
            except ValueError as exc:
                raise SpecFileError(f"{where}[{i}][{j}]: {exc}") from exc
        grid.append(out_row)
    return grid


def parse_spec(path: str) -> AlgebraSpecFile:
    """Load and fully validate an algebra description file."""
    with open(path, "rb") as handle:
        raw_bytes = handle.read()
    try:
        data = json.loads(raw_bytes.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SpecFileError("top level must be an object")
    unknown = set(data) - {"n", "mu", "forms", "tau", "kind"}
    if unknown:
        raise SpecFileError(f"unknown fields: {sorted(unknown)}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpecFileError("n: expected a positive integer")
    # before the default mu, which is n x n: a huge n with too few forms fails here at once
    raw_forms = data.get("forms")
    if not isinstance(raw_forms, list) or len(raw_forms) != n:
        raise SpecFileError(f"forms: expected a list of {n} matrices")
    if "mu" in data:
        mu_grid = _scalar_grid(data["mu"], n, "mu")
    else:
        mu_grid = [[Fraction(1)] * n for _ in range(n)]
    try:
        mu = MuMatrix(mu_grid)
    except ValueError as exc:
        raise SpecFileError(f"mu: {exc}") from exc
    forms = []
    for k, raw in enumerate(raw_forms):
        grid = _scalar_grid(raw, n, f"forms[{k}]")
        try:
            forms.append(MuSymmetricMatrix(mu, grid))
        except ValueError as exc:
            raise SpecFileError(f"forms[{k}]: {exc}") from exc
    tau = None
    if "tau" in data:
        raw_tau = data["tau"]
        if not isinstance(raw_tau, list) or len(raw_tau) != n:
            raise SpecFileError(f"tau: expected a list of {n} scalars")
        try:
            tau = DiagonalAutomorphism(tuple(parse_scalar(v) for v in raw_tau))
        except ValueError as exc:
            raise SpecFileError(f"tau: {exc}") from exc
    kind = data.get("kind")
    if kind is None:
        kind = "gca" if mu.is_ones() else "gsca"
    if kind not in ("gca", "gsca"):
        raise SpecFileError(f"kind: expected \"gca\" or \"gsca\", got {kind!r}")
    if kind == "gca" and not mu.is_ones():
        raise SpecFileError("kind: \"gca\" requires mu to be all ones")
    digest = hashlib.sha256(raw_bytes).hexdigest()
    return AlgebraSpecFile(n, mu, forms, tau, kind, digest)


@dataclass
class Flags:
    max_deg: Optional[int] = None
    fmt: str = "text"
    grid: int = 2
    tau: Optional[str] = None
    algebra: Optional[str] = None
    poly: Optional[str] = None
    side: str = "ambient"
    inverse: bool = False

    def normalized(self) -> dict:
        """The digest input: every flag except the output format."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "fmt"}


@dataclass
class Report:
    command: str
    digest: str
    passed: bool
    verdicts: Dict[str, str] = field(default_factory=dict)
    evidence: Dict[str, object] = field(default_factory=dict)
    timing_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "digest": self.digest,
            "passed": self.passed,
            "verdicts": self.verdicts,
            "evidence": self.evidence,
            "timing_ms": self.timing_ms,
        }


def emit_report(report: Report, fmt: str) -> str:
    """Stable line-oriented text, or JSON that round-trips losslessly."""
    if fmt == "json":
        return json.dumps(report.as_dict(), sort_keys=True, indent=2)
    lines = [f"command: {report.command}", f"digest: {report.digest}"]
    for name, verdict in report.verdicts.items():
        lines.append(f"clause {name}: {verdict}")
    for key, value in report.evidence.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{key}:")
            for item in value:
                lines.append("  " + json.dumps(item, sort_keys=True))
        else:
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    lines.append(f"overall: {'pass' if report.passed else 'fail'}")
    lines.append(f"timing_ms: {report.timing_ms:.1f}")
    return "\n".join(lines)


def _bound(spec: AlgebraSpecFile, flags: Flags) -> int:
    return flags.max_deg if flags.max_deg is not None else 2 * spec.n + 2


def _build(spec: AlgebraSpecFile) -> CliffordPresentation:
    # a "gca" spec already carries mu = 1 and forms checked against it
    return build_gsca(spec.mu, spec.forms)


def _quadric_system(spec: AlgebraSpecFile) -> QuadricSystem:
    # no build: the quadric commands need no elimination, nor independent forms
    return QuadricSystem(spec.mu, tuple(quadratic_form_of(m) for m in spec.forms))


def _presentation_for(spec: AlgebraSpecFile, algebra: str):
    """Returns (PresentedAlgebra, generator letter) for the selected algebra."""
    if algebra == "gsca":
        return _build(spec).presentation(), "x"
    if algebra == "skew":
        return build_skew_ring(spec.mu), "z"
    if algebra == "quotient":
        return _quadric_system(spec).quotient(), "z"
    raise ValueError(f"unknown algebra selector {algebra!r}")


def _tau_for(spec: AlgebraSpecFile, flags: Flags) -> DiagonalAutomorphism:
    if flags.tau is not None:
        return DiagonalAutomorphism(tuple(parse_scalar(v) for v in flags.tau.split(",")))
    if spec.tau is not None:
        return spec.tau
    raise ValueError("this command needs a diagonal automorphism: supply a \"tau\" field or --tau")


def _parse_element(spec: AlgebraSpecFile, flags: Flags):
    """The polynomial argument, after rejecting an exponent above the bound: parse_poly writes x1^k out as k letters."""
    bound = _bound(spec, flags)
    top = max(map(int, re.findall(r"\^\s*(\d+)", flags.poly)), default=0)
    if top > bound:
        raise DegreeBoundError(f"degree {top} exceeds completeness bound {bound}")
    return parse_poly(flags.poly, spec.n)


def _pair_label(i: int, j: int) -> str:
    return f"{i + 1},{j + 1}"


def _handle_build(spec, flags):
    pres = _build(spec)
    gb = pres.groebner(2)
    evidence = {
        "kind": spec.kind,
        "n": spec.n,
        "relations": [poly_str(r) for r in pres.x_relations],
        "relation_count": len(pres.x_relations),
        "y_expressions": {f"y{k + 1}": poly_str(pres.y_expressions[k]) for k in range(spec.n)},
        "y_normal_forms": {f"y{k + 1}": poly_str(v) for k, v in enumerate(pres.y_normal_forms(gb))},
    }
    return {"build": "PASS"}, evidence, True


def _handle_gb(spec, flags):
    algebra = flags.algebra or "gsca"
    pres, letter = _presentation_for(spec, algebra)
    gb = groebner(pres, _bound(spec, flags))
    elements = [poly_str(g, letter) for g in gb.elements]
    evidence = {
        "algebra": algebra,
        "max_degree": gb.max_degree,
        "complete_through": gb.complete_through,
        "elements": elements,
        "count": len(elements),
    }
    return {"groebner": "PASS"}, evidence, True


def _handle_nf(spec, flags):
    algebra = flags.algebra or "gsca"
    pres, letter = _presentation_for(spec, algebra)
    if flags.poly is None:
        raise ValueError("nf needs a polynomial argument")
    p = _parse_element(spec, flags)
    gb = groebner(pres, _bound(spec, flags))
    nf = normal_form(p, gb)
    evidence = {"algebra": algebra, "input": flags.poly, "normal_form": poly_str(nf, letter)}
    return {"normal-form": "PASS"}, evidence, True


def _handle_hilbert(spec, flags):
    algebra = flags.algebra or "gsca"
    pres, _ = _presentation_for(spec, algebra)
    bound = _bound(spec, flags)
    gb = groebner(pres, bound)
    coeffs = hilbert_coeffs(gb, bound)
    evidence = {"algebra": algebra, "through": bound, "coefficients": coeffs}
    return {"hilbert": "PASS"}, evidence, True


def _handle_dim(spec, flags):
    algebra = flags.algebra or "quotient"
    pres, _ = _presentation_for(spec, algebra)
    gb = groebner(pres, _bound(spec, flags))
    verdict = finite_dim_check(gb)
    evidence = {"algebra": algebra, "dimension": verdict.dimension, "bound": verdict.bound}
    return {"finite-dimensional": "PASS" if verdict.finite else "FAIL"}, evidence, verdict.finite


def _handle_bpf(spec, flags):
    system, bound = _quadric_system(spec), _bound(spec, flags)
    # the criterion characterizes base-point freeness only for normalizing
    # systems; below degree 3 the search cannot run, so none is verified
    try:
        normalizing = normalizing_check(system, bound).found
    except DegreeBoundError:
        normalizing = False
    verdict = base_point_free_check(system, bound)
    warning = None if normalizing else "system not verified normalizing; criterion applies to normalizing systems"
    evidence = {"dimension": verdict.dimension, "bound": verdict.bound, "warning": warning}
    return {"base-point-free": "PASS" if verdict.base_point_free else "FAIL"}, evidence, verdict.base_point_free


def _handle_normalizing(spec, flags):
    verdict = normalizing_check(_quadric_system(spec), _bound(spec, flags))
    evidence = {
        "order": [i + 1 for i in verdict.order] if verdict.found else None,
        "orders_searched": verdict.searched,
    }
    return {"normalizing": "PASS" if verdict.found else "FAIL"}, evidence, verdict.found


def _handle_regular(spec, flags):
    report = regularity_verdict(_build(spec), _bound(spec, flags))
    verdicts = {
        "normalizing": "PASS" if report.normalizing.found else "FAIL",
        "base-point-free": "PASS" if report.base_points.base_point_free else "FAIL",
    }
    if report.hilbert_ok is None:
        verdicts["hilbert"] = "SKIP"
    else:
        verdicts["hilbert"] = "PASS" if report.hilbert_ok else "FAIL"
    evidence = {
        "order": [i + 1 for i in report.normalizing.order] if report.normalizing.found else None,
        "quotient_dimension": report.base_points.dimension,
        "hilbert_computed": list(report.hilbert_computed) if report.hilbert_computed else None,
        "hilbert_expected": list(report.hilbert_expected) if report.hilbert_expected else None,
        "hard_failure": report.hard_failure,
    }
    passed = report.regular and report.hilbert_ok is True
    return verdicts, evidence, passed


def _handle_twist_check(spec, flags):
    verdict = twist_criterion(spec.mu)
    if verdict.is_twist:
        evidence = {"lambdas": [scalar_str(v) for v in verdict.lambdas]}
    else:
        i, j, k = verdict.witness
        evidence = {
            "witness": [i + 1, j + 1, k + 1],
            "mu_ik": scalar_str(spec.mu[i, k]),
            "mu_ij*mu_jk": scalar_str(spec.mu[i, j] * spec.mu[j, k]),
        }
    return {"twist-criterion": "PASS" if verdict.is_twist else "FAIL"}, evidence, verdict.is_twist


def _handle_twist(spec, flags):
    algebra = flags.algebra or "gsca"
    pres, letter = _presentation_for(spec, algebra)
    tau = _tau_for(spec, flags)
    phi = tau.inverse() if flags.inverse else tau
    twisted = twist_presentation(pres, phi)
    evidence = {
        "algebra": algebra,
        "lambdas": [scalar_str(v) for v in phi.lambdas],
        "inverse_applied": flags.inverse,
        "relations": [poly_str(r, letter) for r in twisted.relations],
    }
    return {"twist": "PASS"}, evidence, True


def _element_verdict(spec, flags, command: str, check):
    """check(element, basis, side) on the polynomial argument, for `normal` and `central`."""
    if flags.poly is None:
        raise ValueError(f"{command} needs a polynomial argument")
    pres = _build(spec)
    gb = pres.groebner(_bound(spec, flags))
    p = _parse_element(spec, flags)
    # the ambient side (None) is the degree-one generators
    return check(p, gb, pres.y_normal_forms(gb) if flags.side == "y" else None)


def _handle_normal(spec, flags):
    verdict = _element_verdict(spec, flags, "normal", analyze.is_normal)
    evidence: Dict[str, object] = {"element": flags.poly, "side": flags.side}
    if verdict.normal:
        evidence["left_scalars"] = {str(g + 1): [scalar_str(c) for c in row] for g, row in verdict.left.items()}
        evidence["right_scalars"] = {str(g + 1): [scalar_str(c) for c in row] for g, row in verdict.right.items()}
    else:
        side_name, idx = verdict.witness
        evidence["witness"] = {"containment": side_name, "generator": idx + 1}
    return {"normal": "PASS" if verdict.normal else "FAIL"}, evidence, verdict.normal


def _handle_central(spec, flags):
    verdict = _element_verdict(spec, flags, "central", analyze.is_central)
    evidence: Dict[str, object] = {"element": flags.poly, "side": flags.side}
    if not verdict.central:
        evidence["witness"] = {"generator": verdict.witness + 1}
    return {"central": "PASS" if verdict.central else "FAIL"}, evidence, verdict.central


def _handle_normal_locus(spec, flags):
    try:
        grid = analyze.default_grid(spec.n, flags.grid)
    except ValueError as exc:
        raise ValueError(f"--grid: {exc}") from exc
    pres = _build(spec)
    # the locus reads degree 4 (y span times y side), and a basis truncated
    # at 4 is the same through 4 as one truncated higher
    gb = pres.groebner(min(_bound(spec, flags), 4))
    y_nfs = pres.y_normal_forms(gb)
    report = analyze.normal_locus_in_span(gb, y_nfs, y_nfs, grid)
    evidence = {
        "parameters": list(report.variables),
        "grid_radius": flags.grid,
        "minor_count": len(report.minors),
        "minors": [
            {"side": m.side, "generator": m.g_index + 1, "poly": str(m.poly)} for m in report.minors
        ],
        "points": [
            {
                "point": [scalar_str(v) for v in p.point],
                "normal": p.normal,
                "certificate": p.certificate,
            }
            for p in report.points
        ],
        "normal_points": sum(1 for p in report.points if p.normal),
        "not_normal_points": sum(1 for p in report.points if not p.normal),
    }
    return {"normal-locus": "PASS"}, evidence, True


def _theorem_verdicts(report) -> Dict[str, str]:
    def mark(flag):
        if flag is None:
            return "SKIP"
        return "PASS" if flag else "FAIL"

    return {
        "criterion": "PASS" if report.criterion.is_twist else "FAIL",
        "construction": mark(report.construction_consistent),
        "normality": mark(report.normality_ok),
        "dagger": mark(report.dagger_ok),
        "nu-cocycle": mark(report.nu_cocycle),
        "r-hilbert": mark(report.r_hilbert_ok),
        "c-twist": mark(report.c_twist_ok),
    }


def _handle_verify_theorem(spec, flags):
    through = _bound(spec, flags)
    if spec.kind == "gca":
        tau = _tau_for(spec, flags)
        grids = [[[m[i, j] for j in range(spec.n)] for i in range(spec.n)] for m in spec.forms]
        report = analyze.verify_twist_theorem(grids, tau, through)
    else:
        tau = None
        if flags.tau is not None or spec.tau is not None:
            tau = _tau_for(spec, flags)
        report = analyze.verify_twist_from_gsca(spec.mu, spec.forms, through, tau)
    verdicts = _theorem_verdicts(report)
    evidence: Dict[str, object] = {"through": through, "warnings": list(report.warnings)}
    if report.criterion.is_twist:
        evidence["lambdas"] = [scalar_str(v) for v in report.criterion.lambdas]
    else:
        i, j, k = report.criterion.witness
        evidence["witness"] = [i + 1, j + 1, k + 1]
    if not report.rejected:
        evidence["zero_pairs"] = [_pair_label(i, j) for (i, j) in report.zero_pairs]
        evidence["normality_scalars"] = {
            f"k={k + 1},r={_pair_label(i, j)}": scalar_str(v)
            for (k, i, j), v in sorted(report.normality_scalars.items())
        }
        evidence["dagger_count"] = len(report.dagger_checks)
        evidence["r_dims_computed"] = list(report.r_dims_computed)
        evidence["r_dims_expected"] = list(report.r_dims_expected)
        evidence["c_scalars"] = {
            _pair_label(i, j): scalar_str(v) for (i, j), v in sorted(report.c_scalars.items())
        }
    return verdicts, evidence, report.passed


_HANDLERS = {
    "build": _handle_build,
    "gb": _handle_gb,
    "nf": _handle_nf,
    "hilbert": _handle_hilbert,
    "dim": _handle_dim,
    "bpf": _handle_bpf,
    "normalizing": _handle_normalizing,
    "regular": _handle_regular,
    "twist-check": _handle_twist_check,
    "twist": _handle_twist,
    "normal": _handle_normal,
    "central": _handle_central,
    "normal-locus": _handle_normal_locus,
    "verify-theorem": _handle_verify_theorem,
}


def dispatch(command: str, spec: AlgebraSpecFile, flags: Flags) -> Report:
    """Run one command against a parsed spec and assemble its report."""
    if command not in _HANDLERS:
        raise ValueError(f"unknown command {command!r}")
    start = time.perf_counter()
    verdicts, evidence, passed = _HANDLERS[command](spec, flags)
    elapsed = (time.perf_counter() - start) * 1000.0
    digest_src = spec.digest + json.dumps(flags.normalized(), sort_keys=True)
    digest = hashlib.sha256(digest_src.encode("utf-8")).hexdigest()
    return Report(command, digest, passed, verdicts, evidence, elapsed)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewclifford", description="Graded (skew) Clifford algebra toolkit")
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("file", help="algebra description file (JSON)")
    parser.add_argument("poly", nargs="?", help="polynomial argument for nf/normal/central")
    parser.add_argument("--max-deg", type=int, default=None, help="completeness bound (default 2n+2)")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    parser.add_argument("--grid", type=int, default=2, help="normal-locus grid radius")
    parser.add_argument("--tau", default=None, help="comma-separated diagonal scalars, e.g. 1,2,2")
    parser.add_argument("--algebra", choices=("gsca", "skew", "quotient"), default=None)
    parser.add_argument("--side", choices=("ambient", "y"), default="ambient")
    parser.add_argument("--inverse", action="store_true", help="twist by the inverse automorphism")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _make_parser().parse_args(argv)
    flags = Flags(**{f.name: getattr(args, f.name) for f in fields(Flags)})
    try:
        spec = parse_spec(args.file)
        report = dispatch(args.command, spec, flags)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(emit_report(report, flags.fmt))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
