"""The package's public surface: the names it exports and the README's library example."""

import ast
import types
from pathlib import Path

import skewclifford

README = Path(__file__).resolve().parents[1] / "README.md"

# Removing a name is a break that CHANGES.md records; this list makes it a visible diff.
EXPORTED = {
    "CliffordPresentation",
    "DegreeBoundError",
    "DiagonalAutomorphism",
    "ExactMatrix",
    "FiniteDimVerdict",
    "GroebnerData",
    "LinearMap",
    "LocusReport",
    "MuMatrix",
    "MuSymmetricMatrix",
    "NcPoly",
    "NormalVerdict",
    "ParamPoly",
    "PresentedAlgebra",
    "QuadraticForm",
    "QuadricSystem",
    "RElement",
    "SubalgebraBasis",
    "TheoremReport",
    "TwistVerdict",
    "apply_linear",
    "base_point_free_check",
    "build_gca",
    "build_gsca",
    "build_r_elements",
    "build_skew_ring",
    "check_mu_symmetric",
    "default_grid",
    "degree_basis",
    "finite_dim_check",
    "groebner",
    "hilbert_coeffs",
    "is_central",
    "is_normal",
    "mu_from_lambdas",
    "normal_form",
    "normal_locus_in_span",
    "normalizing_check",
    "parametric_minors",
    "parse_poly",
    "parse_scalar",
    "poly_str",
    "quadratic_form_of",
    "quadric_system_of",
    "rank",
    "regularity_verdict",
    "relation_span_equal",
    "scalar_str",
    "solve_in_span",
    "subalgebra_basis",
    "twist_criterion",
    "twist_presentation",
    "validate_mu",
    "verify_twist_from_gsca",
    "verify_twist_theorem",
}


def test_exported_names():
    # submodules become attributes once imported (tests import `cli`), so they are not counted
    public = {
        name
        for name, value in vars(skewclifford).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTED


def library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_snippet_shows_its_values():
    """Each expression line of the snippet prints, under str, the value its comment states."""
    code = library_snippet()
    namespace: dict = {}
    shown = {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            shown[node.lineno] = str(value)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    lines = code.splitlines()
    stated = {lineno: lines[lineno - 1].partition("#")[2].strip() for lineno in shown}
    assert shown == stated
    assert sorted(stated.values()) == sorted(
        ["[1, 3, 6, 10, 15, 21, 28, 36]", "True", "not-twist witness (1,2,3)", "c1^2 - c2^2", "3"]
    )
