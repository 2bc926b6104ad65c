"""Smoke tests of the benchmark itself, at the smallest inputs:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))  # for the in-process measure() calls

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [
        (w.name, w.why) for w in workloads.build().values()
    ]
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.E2E_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.build(tiny=True)))
def test_every_workload_runs_at_a_tiny_size(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
        if trace == "0":
            assert metric["value"] > 0


def corrupt_pinned_digest(monkeypatch, table):
    workload = table["mc-pavlov"]
    monkeypatch.setattr(workload, "pinned", "0" * 64)
    return workload


def corrupt_search_classes(monkeypatch, table):
    monkeypatch.setattr(workloads, "SEARCH_CLASSES", set())
    return table["search-2state"]


def corrupt_pavcheck_counts(monkeypatch, table):
    workload = table["pavcheck-3state"]
    monkeypatch.setitem(workload.EXPECTED, (workload.states, workload.stride), (15, 1))
    return workload


@pytest.mark.parametrize("corrupt", [corrupt_pinned_digest, corrupt_search_classes,
                                     corrupt_pavcheck_counts])
def test_a_wrong_expected_answer_is_a_failure_not_a_time(monkeypatch, corrupt):
    workload = corrupt(monkeypatch, workloads.build(tiny=True))
    result = run.measure(workload, workloads.DEFAULT_SEED, 0.3, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"] == {}


def test_a_missed_call_count_fails_the_traced_run(monkeypatch):
    workload = workloads.build(tiny=True)["mc-pavlov"]
    monkeypatch.setattr(workload, "trace_counts",
                        lambda facts: {"sim.run.calls": facts["trials"] + 1})
    result = run.measure(workload, workloads.DEFAULT_SEED, 0.3, trace=True)
    assert result["correct"] is False
    assert any("sim.run.calls" in e for e in result["errors"])


def test_compare_refuses_results_of_different_backends(capsys):
    paths = []
    for backend in ("numpy", "numba"):
        result = {"workload": "mc-pavlov", "metrics": {},
                  "environment": {"backend": backend, "seed": 1}}
        path = os.path.join(run.OUT, f"compare-{backend}.json")
        run.write_json(path, {"results": [result]})
        paths.append(path)
    assert run.compare(*paths) == 2
    assert "backends" in capsys.readouterr().err


def test_without_the_sources_the_benchmark_fails():
    bare = os.path.join(run.OUT, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "mc-pavlov", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
