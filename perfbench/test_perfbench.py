"""Tests of the benchmark itself, on corpora small enough to run in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {"stream-n2": 3, "highorder": 8, "analysis": 1}


def _spec(section: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc[section]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_prints_every_end_to_end_metric(name, tmp_path):
    result = workloads.run(name, 7, 0.0, False, tmp_path, count=SMALL[name])
    assert result.correct, result.violations
    # workloads are built so that no operation fails
    assert result.failed == 0, result.failures
    expected = _spec("end_to_end")
    assert list(result.metrics) == list(expected)
    lines = run.format_lines(result, trace=False)
    for metric, meta in expected.items():
        value = result.metrics[metric]["value"]
        assert result.metrics[metric]["unit"] == meta["unit"]
        assert value > 0, metric
        assert f"{metric} = {value!r} {meta['unit']}  ({meta['better']} is better)" in lines


@pytest.mark.parametrize("name", ["stream-n2", "highorder"])
def test_traced_and_untraced_runs_give_identical_outputs(name, tmp_path):
    plain = workloads.run(name, 5, 0.0, False, tmp_path, count=SMALL[name])
    traced = workloads.run(name, 5, 0.0, True, tmp_path, count=SMALL[name])
    assert plain.correct and traced.correct, plain.violations + traced.violations
    # digests cover the stored DLAW bytes and the decoded samples, hence A
    assert plain.digests == traced.digests
    assert plain.failures == traced.failures


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = workloads.run("stream-n2", 2, 0.0, True, tmp_path, count=2)
    expected = _spec("per_layer")
    assert list(result.metrics) == list(expected)
    for metric, meta in expected.items():
        assert result.metrics[metric]["unit"] == meta["unit"]
    values = {k: m["value"] for k, m in result.metrics.items()}
    assert values["codec.compress.calls"] == 2
    assert values["cli.run.calls"] == 2 + values["codec.decompress.calls"]
    assert values["spectral.eigendecompose.self_s.decompress"] == 0.0
    assert values["trace.absent_names"] == 0
    # self times account for the traced wall time of the timed calls
    assert abs(values["trace.unattributed_share"]) < 0.01


def test_missing_layer_function_is_reported_absent(tmp_path):
    functions = tracing.LAYER_FUNCTIONS + (("codec", "no_such_function"), ("no_such_module", "f"))
    result = workloads.run("stream-n2", 2, 0.0, True, tmp_path, count=2, functions=functions)
    assert result.correct
    assert result.tracer.absent == ["codec.no_such_function", "no_such_module.f"]
    assert result.metrics["trace.absent_names"]["value"] == 2
    assert "absent: codec.no_such_function, no_such_module.f" in run.format_lines(result, trace=True)


def test_tracer_restores_every_wrapped_attribute():
    import dynlaw.codec
    import dynlaw.fitting

    before = (dynlaw.codec.eigendecompose, dynlaw.fitting.run_recursion, dynlaw.compress)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dynlaw.codec.eigendecompose is not before[0]
        assert dynlaw.fitting.run_recursion is not before[1]
        assert dynlaw.compress is dynlaw.codec.compress
    finally:
        tracer.uninstall()
    assert (dynlaw.codec.eigendecompose, dynlaw.fitting.run_recursion, dynlaw.compress) == before


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-n2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
