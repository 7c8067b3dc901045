"""Tests for the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import skewclifford  # noqa: E402
from skewclifford import cli  # noqa: E402


def _jobs(workload, seed, count):
    warmups, timed = gen.generate(workload, seed)
    return warmups + [next(timed) for _ in range(count)]


@pytest.fixture
def runner(tmp_path):
    return run.JobRunner(cli.main, str(tmp_path), {})


def _first(workload, cls_name, seed=5):
    _, timed = gen.generate(workload, seed)
    return next(job for job in timed if job["class"] == cls_name)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(workload, tmp_path):
    outs = []
    for name in ("a", "b", "c"):
        seed = 7 if name != "c" else 8
        gen.main(["--workload", workload, "--seed", str(seed), "--count", "12", "--out", str(tmp_path / name)])
        outs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_specs_are_valid_and_distinct(workload, tmp_path):
    jobs = _jobs(workload, 3, 2 * gen.cycle_length(workload))
    keys = {(gen.spec_bytes(j), tuple(j["argv"])) for j in jobs}
    assert len(keys) == len(jobs)
    for job in jobs:
        spec = cli.parse_spec(gen.write_spec(job, str(tmp_path)))  # validates mu and mu-symmetry
        assert spec.n == job["n"] and spec.n <= (6 if workload == "quotient" else 5)
        cli._build(spec)  # raises when the matrices are dependent
        if workload == "locus":
            assert spec.n == 3


def test_checker_accepts_real_outputs_and_rejects_a_flipped_verdict(runner):
    job = _first("theorem", "thm-n3-d8")
    code, stdout, _ = runner.execute(job)
    assert check.check(job, code, stdout) is None
    report = json.loads(stdout)
    report["verdicts"]["dagger"] = "FAIL"
    assert "dagger" in check.check(job, code, json.dumps(report))
    report["verdicts"]["dagger"] = "PASS"
    report["evidence"]["r_dims_computed"][4] += 1
    assert "1/(1-t^2)^n" in check.check(job, code, json.dumps(report))


def test_checker_rejects_a_wrong_dimension(runner):
    job = _first("quotient", "dim-gca-n4")
    code, stdout, _ = runner.execute(job)
    assert check.check(job, code, stdout) is None
    report = json.loads(stdout)
    assert report["evidence"]["dimension"] == 16
    report["evidence"]["dimension"] = 15
    assert "2^4" in check.check(job, code, json.dumps(report))


def test_checker_rejects_a_changed_digest_and_failed_runs(runner):
    job = _first("regular", "search-gsca-n4-d3")
    code, stdout, _ = runner.execute(job)
    report = json.loads(stdout)
    assert code == 1 and report["evidence"]["orders_searched"] == math.factorial(4)
    good = check.digest(job, report)
    assert check.check(job, code, stdout, good) is None
    assert "digest" in check.check(job, code, stdout, "0" * 16)
    assert check.check(job, 2, "") == "exit code 2 (error)"
    assert "did not finish" in check.check(job, "exceeded the cap", "")


def test_wall_cap_records_a_failed_job(runner, monkeypatch):
    monkeypatch.setattr(run, "JOB_CAP_S", 0.02)
    reason, elapsed = runner.run(_first("theorem", "thm-n4-d8"))
    assert "cap" in reason and elapsed < 5
    monkeypatch.setattr(run, "JOB_CAP_S", 30.0)
    reason, _ = runner.run(_first("theorem", "thm-n3-d8", seed=6))
    assert reason is None


def _bindings():
    modules = [m for k, m in sys.modules.items() if k == "skewclifford" or k.startswith("skewclifford.")]
    snap = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    snap[("NcPoly", "__mul__")] = vars(skewclifford.NcPoly)["__mul__"]
    return snap


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        for module in ("rewrite", "clifford", "analyze", "cli"):
            wrapped = during[(f"skewclifford.{module}", "normal_form")]
            assert wrapped.__wrapped__ is before[("skewclifford.rewrite", "normal_form")]
        assert during[("skewclifford", "groebner")] is not before[("skewclifford", "groebner")]
        assert during[("NcPoly", "__mul__")] is not before[("NcPoly", "__mul__")]
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("bogus", ["rewrite.no_such_function", "freealg.NcPoly.no_such_method", "nomodule.f"])
def test_tracer_raises_on_a_missing_target_and_wraps_nothing(monkeypatch, bogus):
    before = _bindings()
    monkeypatch.setitem(tracer.TARGETS, bogus, None)
    t = tracer.Tracer()
    with pytest.raises(LookupError, match=bogus):
        t.install()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracer_fails_a_job_whose_result_changed_shape(runner, monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "rewrite.groebner", lambda args, result: result.no_such_field)
    t = tracer.Tracer()
    t.install()
    try:
        reason, _ = runner.run(_first("quotient", "gb-gca-n4"), t)
    finally:
        t.restore()
    assert reason is not None


def test_traced_counts_repeat_exactly(runner, tmp_path):
    jobs = _jobs("regular", 4, 0)[:1] + _jobs("theorem", 4, 0)[:2] + _jobs("locus", 4, 0)[:2]
    results = [run.traced_run(runner, jobs, str(tmp_path / f"spans{i}.jsonl")) for i in range(2)]
    counts = [{k: v for k, v in m.items() if not k.endswith("_s") and k != "trace.overhead_frac"} for m, _, _ in results]
    assert counts[0] == counts[1]
    metrics, attempted, failed = results[0]
    assert (attempted, failed) == (len(jobs), 0)
    assert metrics["clifford.normalizing_check.orders"] > 0 and metrics["exact.parametric_minors.minors"] > 0
    lines = (tmp_path / "spans0.jsonl").read_text().splitlines()
    assert sum(json.loads(line)[0] == tracer.ROOT for line in lines) == len(jobs)


def test_benchmark_json_metrics_are_all_produced():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    produced = set(tracer.Tracer().metrics()) | {"trace.overhead_frac"}
    assert {m["name"] for m in declared["per_layer"]} <= produced
    produced = set(run.end_to_end([1.0, 2.0], [1.0, 1.0, 1.0], [True, True], 3.0, 1)) | {"setup_s"}
    assert {m["name"] for m in declared["end_to_end"]} <= produced
    assert set(declared["command"]) == {"python3", "perfbench/run.py"}
