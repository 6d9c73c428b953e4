"""The printed result matches BENCHMARK.json and the exit codes hold."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(workload, trace, capsys):
    """Run a small graph in-process; returns run.report's exit code and
    the printed result."""
    import run
    from benchkit import harness

    code = run.report(harness.run(workload, seed=4, seconds=0.6,
                                  trace=bool(trace), nodes=200))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_benchmark_json_names_the_workloads_run_py_accepts():
    from benchkit.harness import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(workload, trace, capsys):
    code, result = _report(workload, trace, capsys)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    printed = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_answer_exits_nonzero(monkeypatch, capsys):
    from benchkit import workloads

    monkeypatch.setattr(workloads.Iterate, "check",
                        lambda self: ["deliberately wrong"])
    code, result = _report("iterate", 0, capsys)
    assert code == 1
    assert result["correct"] is False


def test_a_wrong_engine_answer_is_caught(monkeypatch):
    from benchkit import workloads

    run_statement = workloads.Iterate._run

    def off_by_one_pagerank(self, name):
        table = run_statement(self, name)
        if name == "pr":
            table.columns[1].data[0] += 1.0
        return table

    monkeypatch.setattr(workloads.Iterate, "_run", off_by_one_pagerank)
    from benchkit import harness
    result = harness.run("iterate", seed=1, seconds=0.2, trace=False,
                         nodes=200)
    assert result["correct"] is False
    assert result["detail"]["errors"][0].startswith("pr #")


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"),
         "--workload", "iterate", "--seed", "4", "--seconds", "0.6",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert done.stdout == ""
