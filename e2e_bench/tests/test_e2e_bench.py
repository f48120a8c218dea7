"""Self-tests of the end-to-end benchmark.

Run from the repository root: ``python3 -m pytest e2e_bench/tests``.
The smoke runs start real child processes on small graphs (a few
seconds each).
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _smoke(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_names_the_benchmark_workloads_and_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)


def test_normalization_rescales_by_a_constant_nominal():
    assert isinstance(refkernel.REF_NOMINAL_S, float)
    assert refkernel.normalize(3.0, 0.5) == \
        3.0 * refkernel.REF_NOMINAL_S / 0.5
    # the nominal is fixed in the source, not measured on import
    before = refkernel.REF_NOMINAL_S
    assert importlib.reload(refkernel).REF_NOMINAL_S == before


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_missing_program_source_fails_without_a_result(tmp_path):
    bench = tmp_path / "e2e_bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    completed = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         "cc-incr-twitter", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
