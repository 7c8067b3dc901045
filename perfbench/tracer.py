"""Outside-in tracer: wraps skewclifford's public functions at every binding.

`from .rewrite import normal_form` copies the function into `clifford`,
`analyze` and `cli`, so each target is replaced in every skewclifford module
whose namespace holds it, and `restore` puts every original back.  Spans
(name, start, end, parent span, job id, info) stay in memory; `metrics`
derives self time and counts from them and `write` dumps them at the end.
A target missing from the package makes `install` raise, and a work count
that cannot be read from a result stops the job, so a refactor that moves
a target or changes a result's shape fails the traced run instead of
reading as zero work.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional

PACKAGE = "skewclifford"
ROOT = "job"


def _elements(args, result):
    return len(result.elements)


def _is_zero(args, result):
    return 0 if result else 1


def _cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if len(rows) else 0)


def _searched(args, result):
    return result.searched


def _points(args, result):
    return len(result.points)


def _count(args, result):
    return len(result)


def _report_bytes(args, result):
    """Size of a JSON report less its timing_ms value, the one field that varies between runs."""
    return len(result.encode("utf-8")) - len(json.dumps(args[0].timing_ms))


# Span name -> how to read the work it did from its arguments and result.
# `rewrite._interreduce` is private but wrapped so that pair reductions
# (direct children of `groebner`) can be told from interreduction.
TARGETS: Dict[str, Optional[Callable]] = {
    "cli.parse_spec": None,
    "cli.dispatch": None,
    "cli.emit_report": _report_bytes,
    "clifford.build_gca": None,
    "clifford.build_gsca": None,
    "clifford.normalizing_check": _searched,
    "clifford.base_point_free_check": None,
    "clifford.regularity_verdict": None,
    "twist.twist_presentation": None,
    "twist.relation_span_equal": None,
    "twist.twist_criterion": None,
    "analyze.is_normal": None,
    "analyze.is_central": None,
    "analyze.subalgebra_basis": None,
    "analyze.normal_locus_in_span": _points,
    "analyze.verify_twist_theorem": None,
    "analyze.build_r_elements": None,
    "rewrite.groebner": _elements,
    "rewrite._interreduce": None,
    "rewrite.reduce_poly": _is_zero,
    "rewrite.normal_form": None,
    "rewrite.degree_basis": None,
    "rewrite.hilbert_coeffs": None,
    "rewrite.finite_dim_check": None,
    "exact.rank": None,
    "exact.rref": _cells,
    "exact.solve_in_span": None,
    "exact.parametric_minors": _count,
    "freealg.NcPoly.mul": None,
}
_DUNDER = {"mul": "__mul__"}


def _groebner_key(args):
    alg, max_degree = args[0], args[1]
    return (alg.n, tuple(r.canonical_key() for r in alg.relations), max_degree)


def _resolve_targets():
    """(target name, owner, attribute, function) for every target; raises if one is missing."""
    found = []
    for name in TARGETS:
        module_name, *path = name.split(".")
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        if len(path) == 2:  # a method: Class.name
            owner = getattr(owner, path[0], None)
        attr = _DUNDER.get(path[-1], path[-1])
        fn = vars(owner).get(attr) if owner is not None else None
        if not callable(fn):
            raise LookupError(f"trace target {name} is not in {PACKAGE}; update tracer.TARGETS")
        found.append((name, owner, attr, fn))
    return found


class Tracer:
    """Collects spans for jobs run between `install` and `restore`."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._job = None
        self._seen_groebner: set = set()
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        groebner = name == "rewrite.groebner"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._job, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            if groebner:
                key = _groebner_key(args)
                span[5] = [span[5], int(key in self._seen_groebner)]
                self._seen_groebner.add(key)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, owner, attr, fn in _resolve_targets():
            wrapper = self._wrap(name, fn, TARGETS[name])
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, key, fn))
                        setattr(module, key, wrapper)

    def restore(self):
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()

    def run_job(self, job_id: str, fn: Callable):
        """Run fn() as one job under a root span; returns fn's result."""
        self._job = job_id
        self._seen_groebner = set()
        return self._wrap(ROOT, fn, None)()

    def metrics(self) -> Dict[str, float]:
        """Per-name calls, self time and work counts, plus trace quality."""
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        extra: Dict[str, float] = {}
        under_groebner: List[bool] = []
        pair_reductions = pair_zero = in_groebner = 0
        for name, start, end, parent, _job, info in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur
            if parent is not None:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - dur
            ancestor = parent is not None and (self.spans[parent][0] == "rewrite.groebner" or under_groebner[parent])
            under_groebner.append(ancestor)
            if name == "rewrite.reduce_poly" and info is not None:
                if ancestor:
                    in_groebner += 1
                if parent is not None and self.spans[parent][0] == "rewrite.groebner":
                    pair_reductions += 1
                    pair_zero += info
            elif name == "rewrite.groebner" and info is not None:
                extra["rewrite.groebner.elements"] = extra.get("rewrite.groebner.elements", 0) + info[0]
                extra["rewrite.groebner.repeats"] = extra.get("rewrite.groebner.repeats", 0) + info[1]
            elif info is not None:
                extra[name] = extra.get(name, 0) + info
        out: Dict[str, float] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["trace.unattributed_self_s"] = self_s.get(ROOT, 0.0)
        out["rewrite.groebner.elements"] = extra.get("rewrite.groebner.elements", 0)
        gb_calls = calls.get("rewrite.groebner", 0)
        out["rewrite.groebner.repeat_frac"] = extra.get("rewrite.groebner.repeats", 0) / gb_calls if gb_calls else 0.0
        out["rewrite.reduce_poly.in_groebner"] = in_groebner
        out["rewrite.reduce_poly.zero_frac"] = pair_zero / pair_reductions if pair_reductions else 0.0
        out["clifford.normalizing_check.orders"] = extra.get("clifford.normalizing_check", 0)
        out["analyze.normal_locus_in_span.points"] = extra.get("analyze.normal_locus_in_span", 0)
        out["exact.parametric_minors.minors"] = extra.get("exact.parametric_minors", 0)
        out["exact.rref.cells"] = extra.get("exact.rref", 0)
        out["cli.report_bytes"] = extra.get("cli.emit_report", 0)
        return out

    def write(self, path: str, origin: float):
        """One JSON list per span, times in seconds from origin."""
        with open(path, "w") as handle:
            for name, start, end, parent, job, info in self.spans:
                handle.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, job, info]))
                handle.write("\n")
