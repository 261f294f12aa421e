"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from enclaveserve.harness import VirtualRunner  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def temp_inside_checkout(monkeypatch):
    out = HERE / "out" / "tmp"
    out.mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr(tempfile, "tempdir", str(out))


def run_bench(workload: str, trace: int, seconds: float = 1.0) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(stdout: str, result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert f"metric {m['name']} {metric['value']!r} {m['unit']}" in stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_end_to_end_metric(workload):
    stdout, result = run_bench(workload, trace=0)
    assert_metrics(stdout, result, SPEC["end_to_end"])
    assert "env python=" in stdout and "loadavg_1m_end=" in stdout


def test_short_traced_run_prints_every_per_layer_metric():
    stdout, result = run_bench("real-small", trace=1)
    assert_metrics(stdout, result, SPEC["per_layer"])
    assert result["metrics"]["channel.request_wait_ms"]["value"] > 0


def test_tracer_restores_every_name_it_replaced():
    tracer = tracing.Tracer()
    tracer.install()
    replaced = tracer.patched_names()
    assert replaced
    try:
        for owner, attr, original in replaced:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.restore()
    for owner, attr, original in replaced:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} still wrapped"
    assert not tracer.patched_names()


def test_traced_run_leaves_no_wrapper_behind():
    config = workloads.real_config("real-small", seed=4, seconds=0.5)
    tracer = tracing.Tracer()
    tracer.install()
    replaced = tracer.patched_names()
    try:
        workloads.run_virtual(config, store=tracing.CountingStore(tracer))
    finally:
        tracer.restore()
    spans = len(tracer.spans)
    assert spans > 0
    workloads.run_virtual(config)
    assert len(tracer.spans) == spans, "an untraced run recorded spans"
    for owner, attr, original in replaced:
        assert owner.__dict__[attr] is original


def test_calibration_slices_leave_the_report_bytes_unchanged(tmp_path):
    config = workloads.lb_configs(seed=6)[-1]  # sgx_aware, with interference
    plain = workloads.report_digest(VirtualRunner(config).run(), tmp_path)
    assert workloads.run_virtual(config).digest == plain


def test_due_time_latency_is_never_below_the_runners_own():
    run = workloads.run_real(workloads.real_config("real-small", seed=5, seconds=2.0))
    assert run.succeeded > 0
    for rec in run.report.records:
        if rec.status == "ok":
            assert rec.complete_ts - run.arrivals[rec.index] >= rec.latency
    assert workloads.check_real(run) == []
