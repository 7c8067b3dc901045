import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest

import skewclifford
from skewclifford import analyze, cli, clifford, rewrite
from skewclifford.cli import Flags, Report, SpecFileError, dispatch, emit_report, main, parse_spec
from skewclifford.exact import Echelon

from conftest import HASHSEED_SPEC, tau_stable_spec
from oracles import skew_quotient_dims


def fixture_path(name: str) -> str:
    return str(resources.files("skewclifford").joinpath(f"fixtures/{name}"))


ALL_FIXTURES = ("example21.json", "diag2.json", "diag3.json", "qplane3.json")


class TestParseSpec:
    def test_worked_example_fixture(self):
        spec = parse_spec(fixture_path("example21.json"))
        assert spec.n == 3 and spec.kind == "gsca"
        assert spec.mu[0, 1] == 2 and spec.mu[1, 0] == Fraction(1, 2)
        assert spec.forms[2][1, 0] == Fraction(1, 2)
        assert spec.tau is None

    def test_omitted_mu_defaults_to_gca(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"n": 2, "forms": [[["2", "0"], ["0", "0"]], [["0", "0"], ["0", "2"]]]}))
        spec = parse_spec(str(path))
        assert spec.kind == "gca" and spec.mu.is_ones()

    def test_transpose_mismatch_reported_at_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"n": 2, "kind": "gsca", "mu": [["1", "2"], ["3", "1"]], "forms": [[["0"] * 2] * 2] * 2})
        )
        with pytest.raises(SpecFileError, match=r"\(1,2\)"):
            parse_spec(str(path))

    def test_malformed_scalar_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "forms": [[["2.5"]]]}))
        with pytest.raises(SpecFileError, match=r"forms\[0\]\[0\]\[0\]"):
            parse_spec(str(path))

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "forms": [[["2", "0"], ["0", "0"]]]}))
        with pytest.raises(SpecFileError, match="forms"):
            parse_spec(str(path))

    @pytest.mark.parametrize("n", [1500, 2**70], ids=["n1500", "n2pow70"])
    def test_forms_count_is_checked_before_the_default_mu(self, n, tmp_path, capsys):
        # the default mu is n x n; at 1500 it took seconds and at 2**70 it overflowed
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": n, "forms": []}))
        start = time.perf_counter()
        assert main(["build", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: forms: expected a list of {n} matrices\n"

    def test_gca_kind_requires_ones_mu(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "kind": "gca",
                    "mu": [["1", "2"], ["1/2", "1"]],
                    "forms": [[["2", "0"], ["0", "0"]], [["0", "0"], ["0", "2"]]],
                }
            )
        )
        with pytest.raises(SpecFileError, match="gca"):
            parse_spec(str(path))

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "forms": [[["2"]]], "extra": 1}))
        with pytest.raises(SpecFileError, match="unknown"):
            parse_spec(str(path))

    @pytest.mark.parametrize(
        ("field", "i", "j", "value", "message"),
        [
            ("forms", 1, 0, "5", "forms[2]: not mu-symmetric at (1,2)"),
            ("forms", 2, 1, "1", "forms[2]: not mu-symmetric at (2,3)"),
            ("mu", 1, 0, "3", "mu: mu constraint violated at (1,2): mu_ij*mu_ji != 1"),
            ("mu", 2, 0, "3", "mu: mu constraint violated at (1,3): mu_ij*mu_ji != 1"),
        ],
    )
    def test_lower_triangle_edit_names_the_upper_entry(self, field, i, j, value, message, tmp_path):
        # an edit below the diagonal is reported at its upper entry, as the checks run over i < j
        data = json.loads(open(fixture_path("example21.json")).read())
        grid = data["forms"][2] if field == "forms" else data["mu"]
        grid[i][j] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFileError) as caught:
            parse_spec(str(path))
        assert str(caught.value) == message

    def test_each_distinct_scalar_is_parsed_once(self, monkeypatch):
        parsed = []
        monkeypatch.setattr(cli, "parse_scalar", lambda text: parsed.append(text) or Fraction(text))
        spec = parse_spec(fixture_path("example21.json"))
        assert sorted(parsed) == ["0", "1", "1/2", "2"]
        assert spec.forms[2][1, 0] == Fraction(1, 2) and spec.mu[1, 0] == Fraction(1, 2)

    @pytest.mark.parametrize("entry", [True, False, 1.0, [1]], ids=["true", "false", "float", "list"])
    def test_a_memoized_equal_scalar_does_not_admit_another_type(self, entry, tmp_path):
        # 1 and 0 are parsed first, and True == 1, False == 0 == 0.0
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"n": 2, "forms": [[[1, 0], [0, entry]], [[1, 0], [0, 1]]]}))
        with pytest.raises(SpecFileError, match=r"^forms\[0\]\[1\]\[1\]: malformed scalar"):
            parse_spec(str(path))


class TestDispatch:
    def test_regular_worked_example(self):
        spec = parse_spec(fixture_path("example21.json"))
        report = dispatch("regular", spec, Flags(max_deg=7))
        assert report.passed
        assert report.evidence["hilbert_computed"] == [1, 3, 6, 10, 15, 21, 28, 36]
        assert report.evidence["quotient_dimension"] == 8

    def test_twist_check_witness(self):
        spec = parse_spec(fixture_path("example21.json"))
        report = dispatch("twist-check", spec, Flags())
        assert not report.passed
        assert report.evidence["witness"] == [1, 2, 3]

    def test_verify_theorem_diag2(self):
        spec = parse_spec(fixture_path("diag2.json"))
        report = dispatch("verify-theorem", spec, Flags(max_deg=8))
        assert report.passed
        assert all(v == "PASS" for v in report.verdicts.values())

    def test_unknown_command(self):
        spec = parse_spec(fixture_path("diag2.json"))
        with pytest.raises(ValueError, match="unknown command"):
            dispatch("frobnicate", spec, Flags())

    def test_determinism_modulo_timing(self):
        spec = parse_spec(fixture_path("example21.json"))
        a = dispatch("regular", spec, Flags(max_deg=6)).as_dict()
        b = dispatch("regular", spec, Flags(max_deg=6)).as_dict()
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert a == b


class TestEmitReport:
    def test_pass_token_once_per_clause(self):
        spec = parse_spec(fixture_path("example21.json"))
        report = dispatch("regular", spec, Flags(max_deg=6))
        text = emit_report(report, "text")
        assert text.count("PASS") == len(report.verdicts)
        assert text.splitlines()[-2] == "overall: pass"

    def test_json_round_trip(self):
        spec = parse_spec(fixture_path("diag2.json"))
        report = dispatch("twist-check", spec, Flags())
        parsed = json.loads(emit_report(report, "json"))
        expected = report.as_dict()
        parsed.pop("timing_ms")
        expected.pop("timing_ms")
        assert parsed == expected

    def test_witness_in_both_formats(self):
        spec = parse_spec(fixture_path("example21.json"))
        report = dispatch("twist-check", spec, Flags())
        text = emit_report(report, "text")
        blob = emit_report(report, "json")
        assert "[1, 2, 3]" in text
        assert json.loads(blob)["evidence"]["witness"] == [1, 2, 3]


class TestMain:
    @pytest.mark.parametrize("radius", ["0", "-1"])
    def test_grid_below_one_is_an_error(self, radius, capsys):
        assert main(["normal-locus", fixture_path("example21.json"), "--grid", radius]) == 2
        captured = capsys.readouterr()
        assert "--grid" in captured.err and captured.out == ""

    def test_grid_above_the_point_cap_is_an_error(self, tmp_path, capsys):
        # n = 16 at the default radius 2 would list 5^16 - 1 points
        n = 16
        spec = {"n": n, "kind": "gca", "forms": [_grid(n, {(k, k): "1"}) for k in range(n)]}
        path = tmp_path / "diag16.json"
        path.write_text(json.dumps(spec))
        assert main(["normal-locus", str(path)]) == 2
        captured = capsys.readouterr()
        assert "--grid: " in captured.err and "152587890624 points" in captured.err and captured.out == ""

    def test_exit_codes(self, capsys):
        ex = fixture_path("example21.json")
        assert main(["regular", ex, "--max-deg", "7"]) == 0
        assert main(["twist-check", ex]) == 1
        assert main(["regular", "/nonexistent.json"]) == 2
        capsys.readouterr()

    def test_verify_theorem_cli(self, capsys):
        assert main(["verify-theorem", fixture_path("diag2.json"), "--max-deg", "8"]) == 0
        out = capsys.readouterr().out
        assert "clause r-hilbert: PASS" in out

    def test_nf_command(self, capsys):
        assert main(["nf", fixture_path("example21.json"), "x3*x1", "--algebra", "gsca"]) == 0
        out = capsys.readouterr().out
        assert '"normal_form": "-x1*x3"' in out.replace("normal_form: ", '"normal_form": ')

    @pytest.mark.parametrize("command", ["nf", "normal", "central"])
    def test_power_above_the_bound_is_rejected_before_parsing(self, command, monkeypatch, capsys):
        ex = fixture_path("example21.json")
        # a power at the bound is parsed: nf reads degree 8, normal and central degree 9
        assert main([command, ex, "x1^8", "--max-deg", "8"]) == (0 if command == "nf" else 2)
        if command != "nf":
            assert capsys.readouterr().err == "error: degree 9 exceeds completeness bound 8\n"
        parsed = []
        monkeypatch.setattr(cli, "parse_poly", lambda *a: parsed.append(a))
        # x1^3000000000 written out would be a word of 3e9 letters
        assert main([command, ex, "x2 + 2*x1 ^ 3000000000", "--max-deg", "8"]) == 2
        assert capsys.readouterr().err == "error: degree 3000000000 exceeds completeness bound 8\n"
        assert parsed == []

    def test_exponent_too_long_for_int_names_the_bound(self, capsys):
        # int() refuses strings of more than 4300 digits by default
        nines = "9" * 5000
        assert main(["nf", fixture_path("example21.json"), f"x1^000{nines}"]) == 2
        assert capsys.readouterr().err == f"error: degree {nines} exceeds completeness bound 8\n"

    def test_repeated_calls_match_fresh_runs(self, capsys):
        ex = fixture_path("example21.json")
        runs = [
            ["twist", ex, "--algebra", "skew", "--tau", "2,3,-1", "--inverse", "--max-deg", "3", "--format", "json"],
            ["twist", ex, "--tau", "2,3,-1"],
            ["hilbert", ex, "--max-deg", "5", "--format", "json"],
        ]

        def untimed(out):
            return re.sub(r'(timing_ms"?: )[0-9.]+', r"\1T", out)

        in_process = []
        for argv in runs:
            code = main(argv)
            in_process.append((code, untimed(capsys.readouterr().out)))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(skewclifford.__file__))}
        fresh = []
        for argv in runs:
            done = subprocess.run([sys.executable, "-m", "skewclifford.cli", *argv], env=env, capture_output=True, text=True)
            fresh.append((done.returncode, untimed(done.stdout)))
        assert in_process == fresh
        assert '"inverse_applied": true' in in_process[0][1] and "inverse_applied: false" in in_process[1][1]

    def test_bad_poly_is_error(self, capsys):
        assert main(["nf", fixture_path("example21.json"), "x9"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["nf", "normal", "central"])
    @pytest.mark.parametrize("bad", ["x1 +", "*x1", "x1*", "x1**x2", "-", "x1 x2", "x9", "x1^0"])
    def test_malformed_polynomial_exits_2_before_any_basis(self, command, bad, monkeypatch, capsys):
        degrees = spy_groebner(monkeypatch)
        assert main([command, fixture_path("example21.json"), bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert degrees == []

    @pytest.mark.parametrize(
        ("argv", "degree", "code"),
        [
            (["nf", "x1"], 2, 0),
            (["nf", ""], 2, 0),
            (["nf", "x1*x2*x3"], 3, 0),
            (["nf", "x1^2*x2^3 + x3"], 5, 0),
            (["nf", "x1^3*x2^3", "--max-deg", "5"], 5, 2),
            (["normal", "x3"], 2, 0),
            (["normal", "x3", "--side", "y"], 3, 0),
            (["central", "3"], 2, 0),
            (["central", "x1*x2"], 3, 1),
            (["central", "x1*x2", "--side", "y"], 4, 1),
            (["normal", "x1^4", "--max-deg", "4"], 4, 2),
        ],
    )
    def test_element_basis_reaches_the_degree_the_check_reads(self, argv, degree, code, monkeypatch, capsys):
        # deg p for nf, deg p + 1 (ambient) or + 2 (y) for normal and central; at least 2, at most the bound
        degrees = spy_groebner(monkeypatch)
        command, *rest = argv
        assert main([command, fixture_path("example21.json"), *rest]) == code
        capsys.readouterr()
        assert degrees == [degree]

    def test_a_failing_construction_fails_overall(self, monkeypatch, capsys):
        monkeypatch.setattr(analyze, "relation_span_equal", lambda *args: False)
        assert main(["verify-theorem", fixture_path("diag2.json")]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "clause construction: FAIL" in out and "overall: fail" in out

    def test_deeply_nested_spec_is_an_input_error(self, tmp_path):
        # the JSON decoder recurses once per level and raises RecursionError past the interpreter's limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(skewclifford.__file__))}
        argv = [sys.executable, "-m", "skewclifford.cli", "build", str(path)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr == "error: invalid JSON: nesting too deep\n"  # one line, no traceback

    def test_json_format(self, capsys):
        assert main(["build", fixture_path("example21.json"), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["evidence"]["y_expressions"]["y3"] == "x3^2"


def spy_groebner(monkeypatch):
    """The max_degree of every Groebner basis built from now on, through the CLI's and clifford's imports."""
    degrees = []
    real = rewrite.groebner

    def spy(alg, max_degree):
        degrees.append(max_degree)
        return real(alg, max_degree)

    monkeypatch.setattr(cli, "groebner", spy)
    monkeypatch.setattr(clifford, "groebner", spy)
    return degrees


def applicable_commands(name: str):
    commands = [
        ("build", []),
        ("gb", []),
        ("nf", ["x1"]),
        ("hilbert", []),
        ("dim", []),
        ("bpf", []),
        ("normalizing", []),
        ("regular", []),
        ("twist-check", []),
        ("normal", ["x1"]),
        ("central", ["x1"]),
        ("normal-locus", ["--grid", "1", "--max-deg", "4"]),
        ("verify-theorem", []),
    ]
    # only the fixtures carrying tau give the twist command its automorphism
    commands.append(("twist", ["--tau", "1,2,2"] if name == "example21.json" else []))
    return commands


class TestFixtureCorpus:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_every_applicable_command_runs(self, name, capsys):
        # every command runs, passes exactly when each of its verdicts is
        # PASS, and exits 0 when it passes and 1 when it does not
        path = fixture_path(name)
        commands = applicable_commands(name)
        assert sorted(command for command, _ in commands) == sorted(cli._HANDLERS)
        for command, extra in commands:
            args = [command, path]
            if extra and not extra[0].startswith("-"):
                args.append(extra[0])
                extra = extra[1:]
            args.extend(extra)
            code = main([*args, "--format", "json"])
            report = json.loads(capsys.readouterr().out)
            assert report["passed"] is all(v == "PASS" for v in report["verdicts"].values()), command
            assert code == (0 if report["passed"] else 1), f"{command} on {name} exited {code}"


def report_digest(argv, capsys, code=0):
    """sha256 prefix of the JSON report of a run exiting with `code`.

    timing_ms is dropped and the rest serialized as json.dumps(..., sort_keys=True).
    """
    assert main([*argv, "--format", "json"]) == code
    report = json.loads(capsys.readouterr().out)
    report.pop("timing_ms")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()[:16]


# report_digest of each fixture's normal-locus report: the reports must not drift
LOCUS_DIGESTS = {
    ("diag2.json", 1): "bcd648c43fcc8220",
    ("diag2.json", 2): "7b6e0e51528a90dd",
    ("diag3.json", 1): "3a9c2a6fe74ce564",
    ("diag3.json", 2): "fa082d5b7459752f",
    ("example21.json", 1): "15020ccde1e29cdf",
    ("example21.json", 2): "3f831bb763041039",
    ("qplane3.json", 1): "9cc30729ce0d8f0e",
    ("qplane3.json", 2): "f6c7171467728198",
}


@pytest.mark.parametrize(("name", "radius"), sorted(LOCUS_DIGESTS))
def test_normal_locus_report_digest(name, radius, capsys):
    digest = report_digest(["normal-locus", fixture_path(name), "--grid", str(radius)], capsys)
    assert digest == LOCUS_DIGESTS[(name, radius)]


# report_digest of each fixture's quotient dim, gb and hilbert reports
QUOTIENT_DIGESTS = {
    ("dim", "diag2.json"): "2a47f38006023f69",
    ("gb", "diag2.json"): "13cb3276405fe5fd",
    ("hilbert", "diag2.json"): "f74c8f92365c9829",
    ("dim", "diag3.json"): "38878eb2672f7aef",
    ("gb", "diag3.json"): "4cd1e21130110fbb",
    ("hilbert", "diag3.json"): "0ef5f31209f19533",
    ("dim", "example21.json"): "08619473db009ce2",
    ("gb", "example21.json"): "7dc5555c3a6b0e71",
    ("hilbert", "example21.json"): "24691bc57c805dfd",
    ("dim", "qplane3.json"): "ca4d3d9623bd76be",
    ("gb", "qplane3.json"): "e48d58b06b20df0d",
    ("hilbert", "qplane3.json"): "a7e71012b6299871",
}


@pytest.mark.parametrize(("command", "name"), sorted(QUOTIENT_DIGESTS))
def test_quotient_report_digest(command, name, capsys):
    digest = report_digest([command, fixture_path(name), "--algebra", "quotient"], capsys)
    assert digest == QUOTIENT_DIGESTS[(command, name)]


# report_digest of each fixture's gb reports on the GSCA (the default
# algebra) and on the skew ring, and of its bpf, normalizing and regular reports
REPORT_DIGESTS = {
    ("bpf", "diag2.json"): "a67ca57250364604",
    ("bpf", "diag3.json"): "fb2017942267dc66",
    ("bpf", "example21.json"): "e70dc96b3b1cf978",
    ("bpf", "qplane3.json"): "1477fa3d14fb4391",
    ("normalizing", "diag2.json"): "b4b3509c08735615",
    ("normalizing", "diag3.json"): "030b9bc622710c8f",
    ("normalizing", "example21.json"): "8be435665baee1ad",
    ("normalizing", "qplane3.json"): "7b07c689ece0cf1a",
    ("gb", "diag2.json"): "c7cd9a101338568c",
    ("gb", "diag3.json"): "6070a2f05a1b66c9",
    ("gb", "example21.json"): "c474ebbb80f42272",
    ("gb", "qplane3.json"): "fda2d03d25ca6cc3",
    ("gb --algebra skew", "diag2.json"): "b23716fa4d3d54d4",
    ("gb --algebra skew", "diag3.json"): "c761c0be7c57e10d",
    ("gb --algebra skew", "example21.json"): "ff73ec5e564d4c1d",
    ("gb --algebra skew", "qplane3.json"): "a974affa37470681",
    ("regular", "diag2.json"): "3c31a45f2fcf79f1",
    ("regular", "diag3.json"): "7a9981568efeba39",
    ("regular", "example21.json"): "d33ca8eb072bb303",
    ("regular", "qplane3.json"): "da59dbce7f26b5cc",
}


@pytest.mark.parametrize(("command", "name"), sorted(REPORT_DIGESTS))
def test_report_digest(command, name, capsys):
    head, *flags = command.split()
    assert report_digest([head, fixture_path(name), *flags], capsys) == REPORT_DIGESTS[(command, name)]


# verify-theorem specs whose clauses fail, at bound 6: the triangular forms
# of perfbench's generator (seed 1, n = 4) with a tau that is not an
# automorphism of B (dagger FAILs), and forms with a common base point
# (c-twist FAILs)
THEOREM_SPECS = {
    "triangular-n4": {
        "kind": "gca",
        "n": 4,
        "forms": [
            [["3", "1", "-2", "0"], ["1", "-2", "0", "0"], ["-2", "0", "0", "2"], ["0", "0", "2", "0"]],
            [["0", "0", "0", "0"], ["0", "-1", "-2", "0"], ["0", "-2", "-2", "0"], ["0", "0", "0", "0"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "-3/2", "-2"], ["0", "0", "-2", "2"]],
            [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1/3"]],
        ],
        "tau": ["2", "3", "-1", "1/2"],
    },
    "base-points": {
        "kind": "gca",
        "n": 3,
        "forms": [
            [["2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
            [["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]],
        ],
        "tau": ["1", "1", "1"],
    },
    # tau-stable, non-diagonal B at lambda = (1, 1, 1, 3, 3): every clause passes,
    # and R grows from sorted words from degree 6 on
    "tau-stable-triangular-n5": tau_stable_spec(1, (1, 1, 1, 3, 3), "block-triangular"),
    "tau-stable-dense-n5": tau_stable_spec(1, (1, 1, 1, 3, 3), "dense"),
}

# (--max-deg, exit code) of verify-theorem on each of THEOREM_SPECS
THEOREM_RUNS = {
    "triangular-n4": (6, 1),
    "base-points": (6, 1),
    "tau-stable-triangular-n5": (10, 0),
    "tau-stable-dense-n5": (10, 0),
}

# report_digest of verify-theorem on every fixture and on THEOREM_SPECS
THEOREM_DIGESTS = {
    "example21.json": "720c14c824d7b9b0",
    "diag2.json": "71a50de42301d924",
    "diag3.json": "593b36ad5ca51e19",
    "qplane3.json": "ab8e1ecaaf31fbd7",
    "triangular-n4": "aab70a73cc65a3ff",
    "base-points": "57b70b45e1f79365",
    "tau-stable-triangular-n5": "aba1c63536a8b3df",
    "tau-stable-dense-n5": "38d7aad28d0b1253",
}


@pytest.mark.parametrize("name", sorted(THEOREM_DIGESTS))
def test_theorem_report_digest(name, tmp_path, capsys):
    if name in THEOREM_SPECS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(THEOREM_SPECS[name]))
        max_deg, code = THEOREM_RUNS[name]
        argv = [str(path), "--max-deg", str(max_deg)]
    else:
        argv, code = [fixture_path(name)], int(name == "example21.json")
    assert report_digest(["verify-theorem", *argv], capsys, code) == THEOREM_DIGESTS[name]


def _grid(n, entries, default="0"):
    """n x n scalar strings: the given {(row, col): value} entries (0-based), `default` elsewhere."""
    return [[entries.get((i, j), default) for j in range(n)] for i in range(n)]


# Normalizing searches the fixtures miss (each fixture is found in its
# given order): every one of the 4! orders fails at the mixed form; a twist
# mu (lambda = 1, 1, 2) where two forms lie on one weight class and the
# third mixes two; and a system first found at the fourth order.
SEARCH_SPECS = {
    "all-orders-fail": {
        "kind": "gsca",
        "n": 4,
        "mu": _grid(4, {(0, 3): "2", (3, 0): "1/2"}, "1"),
        "forms": [
            *(_grid(4, {(k, k): "1"}) for k in range(3)),
            _grid(4, {(0, 1): "1/2", (1, 0): "1/2", (2, 3): "1/2", (3, 2): "1/2"}),
        ],
    },
    "repeated-lambda": {
        "kind": "gsca",
        "n": 3,
        "mu": _grid(3, {(0, 2): "2", (1, 2): "2", (2, 0): "1/2", (2, 1): "1/2"}, "1"),
        "forms": [
            _grid(3, {(0, 0): "1", (1, 1): "1"}),
            _grid(3, {(0, 1): "1/2", (1, 0): "1/2"}),
            _grid(3, {(0, 1): "1/2", (1, 0): "1/2", (2, 2): "1"}),
        ],
    },
    "found-late": {
        "kind": "gsca",
        "n": 3,
        "mu": _grid(3, {(0, 1): "2", (1, 0): "1/2"}, "1"),
        "forms": [
            _grid(3, {(0, 1): "1", (1, 0): "1/2", (2, 2): "2"}),
            _grid(3, {(0, 0): "2"}),
            _grid(3, {(1, 1): "2"}),
        ],
    },
}

# report_digest of the bpf, normalizing and regular reports on SEARCH_SPECS
SEARCH_DIGESTS = {
    ("bpf", "all-orders-fail"): "620ac88845c82303",
    ("bpf", "found-late"): "a09f3022d6bc2274",
    ("bpf", "repeated-lambda"): "8f2b9b0319526abe",
    ("normalizing", "all-orders-fail"): "48f557cf74266f2e",
    ("normalizing", "found-late"): "710928f519800e1d",
    ("normalizing", "repeated-lambda"): "b7923af39c7d6def",
    ("regular", "all-orders-fail"): "427bfb812d2de0d4",
    ("regular", "found-late"): "4483d0ddd5bf5a9e",
    ("regular", "repeated-lambda"): "0f9589db1c77f518",
}


@pytest.mark.parametrize(("command", "name"), sorted(SEARCH_DIGESTS))
def test_search_report_digest(command, name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SEARCH_SPECS[name]))
    code = 1 if name == "all-orders-fail" else 0
    assert report_digest([command, str(path)], capsys, code) == SEARCH_DIGESTS[(command, name)]


def _triangular_spec(seed, n, skew):
    """A spec whose k-th form lives on z_k..z_n with a nonzero z_k^2 term, so the forms are independent.

    mu is all ones, or seeded with no entry equal to 1 when `skew`.
    """
    rng = random.Random(seed)
    nonzero = ("1", "2", "3", "-1", "-2", "1/2", "-1/2", "1/3", "2/3", "-3/2")
    mu = [[Fraction(1)] * n for _ in range(n)]
    if skew:
        for i in range(n):
            for j in range(i + 1, n):
                v = Fraction(rng.choice(nonzero[1:]))
                mu[i][j], mu[j][i] = v, 1 / v
    forms = []
    for k in range(n):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(k, n):
            for j in range(i, n):
                v = Fraction(rng.choice(nonzero) if i == j == k else rng.choice(("-2", "-1", "0", "0", "1", "2")))
                m[i][j], m[j][i] = v, v * mu[j][i]
        forms.append([[str(e) for e in row] for row in m])
    return {"kind": "gsca", "n": n, "mu": [[str(e) for e in row] for row in mu], "forms": forms}


TRIANGULAR_SPECS = {"gca-n5": _triangular_spec(5, 5, False), "gsca-n4": _triangular_spec(4, 4, True)}

# report_digest of the quotient and search reports on TRIANGULAR_SPECS, whose
# quotient bases resolve many overlaps; any change to the Groebner engine must
# leave them as they are.  `build` and `twist` print build_gsca's relations and
# y expressions in its order, so they guard the elimination as well.
TRIANGULAR_DIGESTS = {
    ("bpf", "gca-n5"): "00559d9ff0fe17a5",
    ("bpf", "gsca-n4"): "1cfce439e94e5e69",
    ("build", "gca-n5"): "5b9e0b9f9389d0ac",
    ("build", "gsca-n4"): "90c53662d4993136",
    ("dim --algebra quotient", "gca-n5"): "2fd47e868c7d2618",
    ("dim --algebra quotient", "gsca-n4"): "996a9a06528460d3",
    ("gb --algebra quotient", "gca-n5"): "671984ea1928c9b5",
    ("gb --algebra quotient", "gsca-n4"): "ffc19494a7f8aa85",
    ("hilbert --algebra quotient", "gca-n5"): "93f4af6fc6fc95f3",
    ("hilbert --algebra quotient", "gsca-n4"): "43d21f915fb3a172",
    ("regular", "gca-n5"): "b59df33f945c0fe5",
    ("regular", "gsca-n4"): "78fa411ca5405bd9",
    ("twist --tau 2,3,-1,1/2,-3", "gca-n5"): "71278133c858c02e",
    ("twist --tau 2,3,-1,1/2", "gsca-n4"): "877431d7953a5184",
}


@pytest.mark.parametrize(("command", "name"), sorted(TRIANGULAR_DIGESTS))
def test_triangular_report_digest(command, name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(TRIANGULAR_SPECS[name]))
    head, *flags = command.split()
    # the GSCA quotient has dimension 11, not 2^4, and its normalizing search fails
    code = 1 if command == "regular" and name == "gsca-n4" else 0
    assert report_digest([head, str(path), *flags], capsys, code) == TRIANGULAR_DIGESTS[(command, name)]


class TestQuadricCommands:
    """Commands on the quadric system read the spec's forms and build no Clifford presentation."""

    @pytest.mark.parametrize(
        ("command", "builds"),
        [
            ("bpf", 0),
            ("normalizing", 0),
            ("dim --algebra quotient", 0),
            ("gb --algebra quotient", 0),
            ("hilbert --algebra quotient", 0),
            ("regular", 1),
        ],
    )
    def test_build_count(self, command, builds, monkeypatch, capsys):
        calls = []
        original = cli.build_gsca

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "build_gsca", counted)
        head, *flags = command.split()
        assert main([head, fixture_path("example21.json"), *flags]) == 0
        capsys.readouterr()
        assert len(calls) == builds

    @pytest.fixture
    def dependent(self, tmp_path):
        # diag(1,0) and diag(2,0): the skew-ring quotient is k[z1,z2]/(z1^2)
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps({"n": 2, "forms": [[["1", "0"], ["0", "0"]], [["2", "0"], ["0", "0"]]]}))
        return str(path)

    def test_dependent_forms_have_a_quotient(self, dependent, capsys):
        assert main(["hilbert", dependent, "--algebra", "quotient", "--format", "json"]) == 0
        coefficients = json.loads(capsys.readouterr().out)["evidence"]["coefficients"]
        assert coefficients == skew_quotient_dims([[1, 1], [1, 1]], [{(0, 0): 1}, {(0, 0): 2}], 6)
        assert main(["normalizing", dependent, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["evidence"]["order"] == [1, 2]
        for command in ("dim", "bpf"):
            assert main([command, dependent]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["build", "regular"])
    def test_dependent_forms_have_no_clifford_presentation(self, dependent, command, capsys):
        assert main([command, dependent]) == 2
        assert "matrices linearly dependent" in capsys.readouterr().err


def test_every_flag_but_the_format_enters_the_digest():
    spec = parse_spec(fixture_path("diag2.json"))
    changed = {
        "max_deg": 7,
        "fmt": "json",
        "grid": 3,
        "tau": "1,2",
        "algebra": "skew",
        "poly": "x1",
        "side": "y",
        "inverse": True,
    }
    base = dispatch("twist-check", spec, Flags()).digest
    for f in dataclasses.fields(Flags):
        digest = dispatch("twist-check", spec, Flags(**{f.name: changed[f.name]})).digest
        assert (digest == base) == (f.name == "fmt"), f.name


def test_quotient_gb_report_is_independent_of_the_hash_seed(tmp_path):
    path = tmp_path / "gsca4.json"
    path.write_text(json.dumps(HASHSEED_SPEC))
    package_root = os.path.dirname(os.path.dirname(skewclifford.__file__))
    reports = {}
    # normalizing and regular exit 1: the spec fails its normalizing clause,
    # twist-check its criterion, and x1 is not central;
    # the locus runs on the n=3 fixture, since the n=4 spec's locus is slow,
    # and the theorem on diag2, whose mu is of twist type
    runs = (
        (str(path), ["build"], 0),
        (str(path), ["gb", "--algebra", "quotient"], 0),
        (str(path), ["nf", "x1*x2*x3"], 0),
        (str(path), ["hilbert"], 0),
        (str(path), ["twist", "--tau", "1,2,3,5"], 0),
        (str(path), ["twist-check"], 1),
        (str(path), ["dim"], 0),
        (str(path), ["bpf"], 0),
        (str(path), ["normalizing"], 1),
        (str(path), ["regular"], 1),
        (str(path), ["normal", "x1", "--side", "ambient"], 0),
        (str(path), ["central", "x1"], 1),
        (fixture_path("example21.json"), ["normal-locus", "--grid", "1"], 0),
        (fixture_path("diag2.json"), ["verify-theorem"], 0),
    )
    for spec_path, command, code in runs:
        outputs = []
        for seed in ("0", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
            argv = [sys.executable, "-m", "skewclifford.cli", command[0], spec_path, *command[1:], "--format", "json"]
            done = subprocess.run(argv, env=env, capture_output=True)
            assert done.returncode == code, done.stderr
            outputs.append(re.sub(rb'"timing_ms": [^,\n]+', b'"timing_ms": T', done.stdout))
        assert outputs[0] == outputs[1]
        reports[command[0]] = outputs[0]
    assert b'"count": 18' in reports["gb"]
    assert b'"normalizing": "FAIL"' in reports["regular"]
    assert b'"minor_count": 308' in reports["normal-locus"]
    assert b'"dimension": 11' in reports["dim"]
    assert b'"dimension": 11' in reports["bpf"]
    assert b'"orders_searched": 24' in reports["normalizing"]
    assert b'"normal": "PASS"' in reports["normal"]
    assert b'"construction": "PASS"' in reports["verify-theorem"]
    assert b'"y1": "2*x1^2"' in reports["build"]
    assert b'"normal_form": "x1*x2*x3"' in reports["nf"]
    assert b'"through": 10' in reports["hilbert"]
    assert b'"-2/15*x1*x4 + x4*x1"' in reports["twist"]
    assert b'"mu_ik": "-1/2"' in reports["twist-check"]
    assert b'"generator": 2' in reports["central"]


NOT_NORMALIZING = "system not verified normalizing; criterion applies to normalizing systems"


class TestBpfWarning:
    """`bpf` runs the normalizing search for its warning; the criterion itself reads one quotient basis."""

    @staticmethod
    def bpf(path, capsys, *flags):
        code = main(["bpf", path, *flags, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        return code, report["verdicts"], report["evidence"]

    def test_no_warning_on_a_normalizing_system(self, capsys):
        assert self.bpf(fixture_path("example21.json"), capsys) == (
            0, {"base-point-free": "PASS"}, {"bound": 8, "dimension": 8, "warning": None}
        )

    def test_warning_after_a_failed_search(self, tmp_path, capsys):
        path = tmp_path / "gsca4.json"
        path.write_text(json.dumps(HASHSEED_SPEC))
        assert main(["normalizing", str(path), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["evidence"]["orders_searched"] == 24
        assert self.bpf(str(path), capsys) == (
            0, {"base-point-free": "PASS"}, {"bound": 10, "dimension": 11, "warning": NOT_NORMALIZING}
        )

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_below_degree_three_no_search_is_verified(self, name, capsys):
        # the search needs degree 3, so bound 2 gives the verdict with the warning
        assert self.bpf(fixture_path(name), capsys, "--max-deg", "2") == (
            1, {"base-point-free": "FAIL"}, {"bound": 2, "dimension": None, "warning": NOT_NORMALIZING}
        )

    def test_bound_one_is_still_an_error(self, capsys):
        assert main(["bpf", fixture_path("diag2.json"), "--max-deg", "1"]) == 2
        assert "max_degree must be >= 2" in capsys.readouterr().err


def locus_report(argv, capsys):
    assert main(["normal-locus", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


# a GCA whose forms have every entry nonzero; its locus used to expand
# 93,024 symbolic 5x5 minors, every one of them zero
DENSE_GCA4_SPEC = {
    "n": 4,
    "kind": "gca",
    "forms": [
        [["-1", "1", "-2", "1"], ["1", "-2", "1", "1"], ["-2", "1", "1", "2"], ["1", "1", "2", "1"]],
        [["-1", "-2", "1", "-2"], ["-2", "1", "1", "1"], ["1", "1", "-2", "2"], ["-2", "1", "2", "1"]],
        [["1", "2", "-1", "1"], ["2", "-2", "1", "-2"], ["-1", "1", "-2", "-2"], ["1", "-2", "-2", "2"]],
        [["1", "-2", "1", "2"], ["-2", "-1", "1", "2"], ["1", "1", "-2", "1"], ["2", "2", "1", "-1"]],
    ],
}


class TestNormalLocusWork:
    def counted(self, monkeypatch):
        """Count parametric_minors calls, Echelon constructions and normal forms inside the locus."""
        counts = {"minors": 0, "echelons": 0, "normal_forms": 0}
        original = analyze.parametric_minors
        original_normal_form = analyze.normal_form

        def minors(*args):
            counts["minors"] += 1
            return original(*args)

        def normal_form(*args):
            counts["normal_forms"] += 1
            return original_normal_form(*args)

        class CountedEchelon(Echelon):
            def __init__(self):
                super().__init__()
                counts["echelons"] += 1

        monkeypatch.setattr(analyze, "parametric_minors", minors)
        monkeypatch.setattr(analyze, "Echelon", CountedEchelon)
        monkeypatch.setattr(analyze, "normal_form", normal_form)
        return counts

    def test_central_span_expands_no_minor_and_settles_no_point(self, monkeypatch, capsys):
        counts = self.counted(monkeypatch)
        report = locus_report([fixture_path("diag3.json"), "--grid", "2"], capsys)
        assert report["evidence"]["normal_points"] == 124
        # every family's augmented column is its own column: no column
        # echelon on either side, and none per point
        assert counts == {"minors": 0, "echelons": 0, "normal_forms": 15}

    def test_worked_example_still_expands_minors(self, monkeypatch, capsys):
        counts = self.counted(monkeypatch)
        evidence = locus_report([fixture_path("example21.json"), "--grid", "1"], capsys)["evidence"]
        assert counts["minors"] > 0
        # the 3 + 3 span and side elements and the 3 x 3 products side[h] * y_k,
        # whose transposes are the products y_k * side[h]
        assert counts["normal_forms"] == 15
        assert evidence["minor_count"] == 308
        assert any(p["certificate"] is not None for p in evidence["points"])

    def test_dense_n4_gca_within_budget(self, tmp_path, capsys):
        path = tmp_path / "dense4.json"
        path.write_text(json.dumps(DENSE_GCA4_SPEC))
        start = time.perf_counter()
        evidence = locus_report([str(path), "--grid", "1"], capsys)["evidence"]
        assert time.perf_counter() - start < 5.0
        assert evidence["minor_count"] == 0 and evidence["normal_points"] == 80


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_normal_locus_evidence_is_independent_of_the_bound(name, capsys):
    path = fixture_path(name)
    evidence = [
        locus_report([path, "--grid", "1", *flags], capsys)["evidence"]
        for flags in (["--max-deg", "4"], [], ["--max-deg", "10"])
    ]
    assert evidence[0] == evidence[1] == evidence[2]
    assert main(["normal-locus", path, "--grid", "1", "--max-deg", "3"]) == 2
    assert "degree 4 exceeds completeness bound 3" in capsys.readouterr().err
