"""Tests of the benchmark harness itself, at tiny workload sizes.

    python3 -m pytest perfbench -q

They are not part of the package's test suite (``tests/``) and take
about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.fixture(scope="module")
def tiny_results():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, lines = run_bench(workload, trace)
            assert rc == 0, lines[-5:]
            results[workload, trace] = json.loads(lines[-1])
    return results


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(tiny_results, workload, trace):
    result = tiny_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))


def test_work_counts_repeat_exactly(tiny_results):
    for workload in WORKLOADS:
        rc, lines = run_bench(workload, 1)
        assert rc == 0
        again = json.loads(lines[-1])["metrics"]
        first = tiny_results[workload, 1]["metrics"]
        for name in COUNT_METRICS:
            assert again[name]["value"] == first[name]["value"], (workload, name)


def test_diagnose_fits_no_outcome_model_and_does_no_targeting(tiny_results):
    metrics = tiny_results["diagnose-cohort-iptw", 1]["metrics"]
    assert metrics["glm.fit_outcome_model.calls"]["value"] == 0
    assert metrics["glm.fit_fluctuation.calls"]["value"] == 0
    assert metrics["glm.fit_treatment_model.calls"]["value"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    rc, lines = run_bench("estimate-cohort-50k", 0, cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
