"""Self-test of the benchmark: each workload at a tiny size.

    python3 -m pytest -q bench/test_selftest.py

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that a clean run is correct and reproduces its digest, that a perturbed
output is caught by the reference check and counted as failed, and that
the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_discordkit()

from workloads import WORKLOADS  # noqa: E402  (needs discordkit on the path)

TINY_POOL = {"oracle-scan": 4, "auto-families": 6, "damp-cli": 2}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(name):
    workload = copy.copy(WORKLOADS[name])
    workload.pool_size = TINY_POOL[name]
    return workload


class _PerturbFirst:
    """Delegates to a workload but corrupts every output of pool input 0."""

    def __init__(self, base):
        self.base = base
        self.pool = None

    def __getattr__(self, attr):
        return getattr(self.base, attr)

    def draw(self, rng):
        self.pool = self.base.draw(rng)
        return self.pool

    def run(self, item):
        out = self.base.run(item)
        if item is not self.pool[0]:
            return out
        if self.base.name == "damp-cli":
            text, rows = out
            rows = list(rows)
            gamma, q_damped, gap = rows[3]
            rows[3] = (gamma, q_damped + 1e-3, gap)
            return text, rows
        return dataclasses.replace(out, discord=out.discord + 1e-3)


@pytest.fixture(autouse=True)
def _private_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "DIGEST_FILE", tmp_path / "digests.json")


def _declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    out = run.run_workload(_tiny(name), seed=3, seconds=0.05, trace=trace, import_s=0.0)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out["lines"]
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert any(line.startswith("error_rate = 0.0 ratio") for line in out["lines"])


def test_trace_counts_match_the_documented_baseline():
    out = run.run_workload(_tiny("oracle-scan"), seed=3, seconds=0.05, trace=True, import_s=0.0)
    metrics = {k: m["value"] for k, m in out["result"]["metrics"].items()}
    assert metrics["sphereopt.maximize_on_sphere.calls_per_op"] == 1.0
    assert metrics["sphereopt.maximize_on_sphere.objective_calls_per_call"] == 41.0
    assert metrics["density.build_state.calls_per_op"] == 2.0
    assert metrics["density.entropic_h.calls_per_op"] == 124.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_output_is_caught_and_counted(name):
    out = run.run_workload(_PerturbFirst(_tiny(name)), seed=3, seconds=0.05,
                           trace=False, import_s=0.0)
    result = out["result"]
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    failed_inputs = [line for line in out["lines"] if line.startswith("FAILED input")]
    assert len(failed_inputs) == 1 and failed_inputs[0].startswith("FAILED input 0 ")
    rate = [line for line in out["lines"] if line.startswith("error_rate")][0]
    assert float(rate.split()[2]) == result["failed"] / result["attempted"] > 0


def test_digest_repeats_and_a_changed_digest_fails():
    first = run.run_workload(_tiny("auto-families"), 5, 0.05, False, 0.0)
    again = run.run_workload(_tiny("auto-families"), 5, 0.05, False, 0.0)
    assert first["digest"] == again["digest"] and again["result"]["correct"]
    records = json.loads(run.DIGEST_FILE.read_text())
    records = {key: "0" * 64 for key in records}
    run.DIGEST_FILE.write_text(json.dumps(records))
    stale = run.run_workload(_tiny("auto-families"), 5, 0.05, False, 0.0)
    assert not stale["result"]["correct"]
    assert "MISMATCH" in stale["lines"][-1]


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
