"""Checks of the benchmark itself: cold samples, checked outputs, repeatable traces.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each sample test starts a fresh interpreter, so the file takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import Tracer, is_time
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def sample(workload: str, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), "--workload", workload, *flags],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_timed_call_starts_cold_and_passes_its_checks(workload):
    report = sample(workload)
    assert report["cache_sizes"] == {
        "weyl.weyl_group": 0,
        "mv_calculus.mv_calculus": 0,
        "folding.fold": 0,
        "folding.folded_weyl": 0,
    }
    assert report["fresh_datum"]
    assert report["checks"] and all(report["checks"].values()), report["checks"]


@pytest.mark.parametrize("workload", ["verify-d4-triality", "mvchar-a3"])
def test_two_traced_runs_give_identical_counts(workload):
    first, second = (sample(workload, "--trace")["layers"] for _ in range(2))
    counts = {name: value for name, value in first.items() if not is_time(name)}
    assert counts == {name: value for name, value in second.items() if not is_time(name)}
    assert counts["mv_calculus.transport.calls"] > 0


def test_tracer_patches_every_binding_and_restores_them():
    import satake_fold.characters as characters
    import satake_fold.twining_verifier as twining_verifier
    from satake_fold.mv_calculus import MVCalculus

    table, transport = characters._freudenthal_table, MVCalculus.transport
    with Tracer():
        assert characters._freudenthal_table is twining_verifier._freudenthal_table
        assert characters._freudenthal_table is not table
        assert MVCalculus.transport is not transport
    assert characters._freudenthal_table is table
    assert twining_verifier._freudenthal_table is table
    assert MVCalculus.transport is transport


def test_every_per_layer_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = set(Tracer().metrics()) | {"cli.stdout_bytes", "trace.overhead_s", "host.slowdown"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mvchar-a3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
