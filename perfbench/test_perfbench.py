"""Checks of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os

import pytest

import run
from jobs import WHY, WORKLOADS, make_jobs
from oracles import reference
from run import ROOT, worker
from tracer import Tracer

EXACT = ("discrepancy.padic.points", "permcheck.enum_residues", "catalog.candidates",
         "catalog.hits", "padic.check_prime.calls")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (1, 2))
def test_every_workload_has_at_least_100_jobs(workload, seed):
    assert len(make_jobs(workload, seed)) >= 100


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jobs_are_a_function_of_the_seed(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)
    assert make_jobs(workload, 7) != make_jobs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_computed_counts_repeat_exactly(workload, tmp_path):
    argvs = [job["argv"] for job in make_jobs(workload, 3)]
    first, second = (worker("trace", argvs, str(tmp_path / f"spans{i}.jsonl"))["layers"]
                     for i in range(2))
    for name in EXACT:
        assert first[name] == second[name], name


def test_search_oracle_reports_the_unexplained_sextics_at_5():
    code, rows = reference({"cmd": "search", "p": 5, "degree": 6, "monic": True,
                            "zero_constant": True, "nonzero_linear": False})
    assert code == 2
    assert sum(category == "unexplained" for _, _, category in rows) == 40


def test_benchmark_json_lists_what_the_run_prints():
    benchmark = spec()
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (w, WHY[w]) for w in WORKLOADS]
    layers = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == layers
    assert [m["name"] for m in benchmark["end_to_end"]] == [
        "wall_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb"]


def test_one_workload_prints_the_metric_names_of_benchmark_json(capsys):
    code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec()["end_to_end"]]


def test_seconds_default_to_run_seconds(monkeypatch):
    seen = []

    def stop(workload, seed, seconds, trace):
        seen.append(seconds)
        raise run.BenchError("stop")

    monkeypatch.setattr(run, "run_workload", stop)
    assert run.main(["--workload", "sweep", "--trace", "0"]) == 1
    assert seen == [spec()["run_seconds"]]


def test_commit_reads_a_packed_ref(tmp_path):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled fully-peeled sorted\n"
                                     "1111111111111111111111111111111111111111 refs/heads/dev\n"
                                     "2222222222222222222222222222222222222222 refs/heads/main\n")
    assert run.commit(str(tmp_path)) == "2" * 40
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "refs" / "heads" / "main").write_text("3" * 40 + "\n")
    assert run.commit(str(tmp_path)) == "3" * 40
