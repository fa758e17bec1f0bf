"""Smoke test of the benchmark: every workload's session once at a tiny size.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
It is not collected by the repository's test suite, whose pytest
``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

AMALGAM_SPANS = ("amalgam.", "groups.AmalgamGroup.")


def session(*args: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, str(HERE / "session.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs():
    """``tiny_runs(workload)``: one untraced tiny session with the known
    defects, then two traced copies of it; run once per workload."""
    cache: dict[str, tuple[dict, list[dict]]] = {}

    def runs(workload: str) -> tuple[dict, list[dict]]:
        if workload not in cache:
            base = ["--workload", workload, "--seed", "1", "--tiny"]
            cache[workload] = session(*base, "--known-defects"), [session(*base, "--trace") for _ in range(2)]
        return cache[workload]

    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_session_untraced_and_traced(workload, tiny_runs):
    plain, traced = tiny_runs(workload)
    assert [c for c in plain["commands"] if c["problem"]] == []
    assert {c["kind"] for c in plain["commands"]} == {"table", "growth", "check", "export", "dist"}
    assert [op["name"] for op in plain["known_defects"]] == [op["name"] for op in workloads.known_defects(1)]

    for result in traced:
        assert result["escapes"] == []
        assert [c for c in result["commands"] if c["problem"]] == []
    counts = [{name: st["calls"] for name, st in result["stats"].items()} for result in traced]
    assert counts[0] == counts[1]
    assert any(name.startswith(AMALGAM_SPANS) for name in counts[0]) == (workload == "amalgam")


def test_every_per_layer_span_is_reached(tiny_runs):
    reached = {name for workload in workloads.WORKLOADS for name in tiny_runs(workload)[1][0]["stats"]}
    assert sorted({span for _, span, _, _ in tracer.PER_LAYER} - reached) == []


def test_benchmark_json_lists_the_tracer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert listed == [(name, unit) for name, _, _, unit in tracer.PER_LAYER] + [("trace_overhead_ratio", "ratio")]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "amalgam", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
