"""Tests of the benchmark itself, at tiny shapes.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import maxcsp
import run
import spans
import workloads
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, trace, seed=3):
    return run.run(name, seed, 0, trace, shape=TINY[name], setup_repeats=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(name, trace):
    result, info = tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, info["errors"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]
    assert set(info["machine"]) == {"nproc", "cpu", "python", "numpy", "scipy"}


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_inputs_come_from_the_seed():
    for name in WORKLOADS:
        a, b, c = (WORKLOADS[name](seed, **TINY[name]).texts for seed in (5, 5, 6))
        assert a == b and a != c


def test_generated_degrees_are_fixed_by_the_shape():
    inst = maxcsp.parse(workloads.wcnf_text(workloads._rng(1, "t", 0), 18, 60))[0]
    degrees = [sum(v in c.vars for c in inst.constraints) for v in range(1, 19)]
    assert degrees == [10] * 18
    inst = maxcsp.parse(workloads.e3cnf_text(workloads._rng(1, "t", 0), 20, 90))[0]
    degrees = [sum(v in c.vars for c in inst.constraints) for v in range(1, 21)]
    assert degrees == [13] * 10 + [14] * 10


def test_exact_counts_repeat_between_runs():
    exact = [
        "rng.assignment_bits.calls",
        "instance.constraint_evals",
        "bounds.counting_bound.records",
        "sampler.samples",
        "sampler.guarantee_miss_rate",
        "oracle.members_checked",
    ]
    for name in WORKLOADS:
        first, second = (tiny(name, 1)[0]["metrics"] for _ in range(2))
        assert [first[k] for k in exact] == [second[k] for k in exact], name


def test_corrupted_best_weight_is_a_failure(monkeypatch):
    solve = maxcsp.solve

    def corrupted(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, best_weight=res.best_weight + 1.0)

    monkeypatch.setattr(maxcsp, "solve", corrupted)
    result, info = tiny("sample_wcnf_wide", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1  # every solve; the parse check passes
    assert any("best_weight" in e for e in info["errors"])


def test_check_solve_flags_a_wrong_weight_and_a_missing_clamp():
    inst = maxcsp.parse(workloads.e3cnf_text(workloads._rng(0, "t", 0), 10, 30))[0]
    res = maxcsp.solve(inst, maxcsp.SamplerConfig(epsilon=0.1, max_iterations=50))
    assert workloads.check_solve(inst, res, clamped=True) == []
    assert workloads.check_solve(inst, dataclasses.replace(res, best_weight=res.best_weight - 1), True)
    assert workloads.check_solve(inst, res, clamped=False)


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "ksat_desk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert run.tail_ms([1.0] * 99) is None
    assert run.tail_ms([1.0] * 100)["percentile"] == 90
    assert run.tail_ms([1.0] * 1000)["percentile"] == 99


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = spans.Span(0, "p", 0.0, 10.0, None, 1, 0)
    kids = [spans.Span(i, "c", a, b, 0, t, 0) for i, (a, b, t) in enumerate([(1, 4, 2), (3, 5, 3), (7, 8, 2)], 1)]
    assert spans.self_time(parent, kids) == 10.0 - 4.0 - 1.0


def test_worker_spans_hang_under_the_open_solve_span():
    inst = maxcsp.parse(workloads.e3cnf_text(workloads._rng(0, "t", 0), 16, 60))[0]
    tracer = spans.Tracer(maxcsp)
    with tracer:
        maxcsp.solve(inst, maxcsp.SamplerConfig(epsilon=0.1, max_iterations=4000, parallelism=2))
    assert maxcsp.solve.__name__ == "solve" and not hasattr(maxcsp.solve, "__wrapped__")
    (solve,) = [s for s in tracer.spans if s.name == "sampler.solve"]
    batches = [s for s in tracer.spans if s.name == "instance.weight_of_batch"]
    assert len(batches) == 2 and solve.thread not in {s.thread for s in batches}
    assert all(s.parent == solve.sid for s in batches)
