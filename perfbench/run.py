#!/usr/bin/env python3
"""enclaveserve benchmark.

    python3 perfbench/run.py --workload lb-high --seed 1 --seconds 36 --trace 0

Runs one workload (see README.md beside this file) against the program in
`src/`, checks its outputs, prints every metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run is
traced and the metrics are the per-layer ones. Files written go under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5

E2E_UNITS = {
    "sim_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "lat_p50_ms": "ms",
    "lat_p95_ms": "ms",
}


def load_program() -> None:
    package = ROOT / "src" / "enclaveserve"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: the program to measure is missing: {package}")
    sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def loadavg() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "nproc": os.cpu_count(),
    }


def measure_setup(workload: str, seed: int, seconds: float) -> list[tuple[float, float]]:
    """(seconds from spawning a fresh interpreter until its runner starts
    scheduling requests, calibrated speed of that interpreter just after),
    for SETUP_PROBES probes."""
    samples = []
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, TMPDIR=tempfile.gettempdir())
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        stamp, speed = (float(x) for x in done.stdout.split()[-2:])
        samples.append((stamp - started, speed))
    return samples


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def describe_virtual(runs) -> None:
    for run in runs:
        report = run.report
        failed = report.timed_out + report.rejected + report.in_flight_at_cutoff
        print(
            f"virtual {report.scenario} sent={report.sent} succeeded={report.completed} "
            f"failed={failed} fail_share={failed / report.sent:.4f} "
            f"p99_virtual_s={report.percentile(99):.4f} loop_wall_s={run.loop_wall_s:.3f}"
        )


def describe_real(run) -> None:
    report = run.report
    print(
        f"real {report.scenario} rate={run.config.workload.rate_per_s:g}/s "
        f"payload={run.config.workload.payload_bytes}B sent={report.sent} "
        f"succeeded={run.succeeded} failed={run.failed} "
        f"fail_share={run.failed / max(1, report.sent):.4f}"
    )


def untraced(workload: str, seed: int, seconds: float, wl) -> tuple[list[str], int, int, dict]:
    setup = measure_setup(workload, seed, seconds)
    virtual_runs = [wl.run_virtual(c) for c in wl.virtual_configs(workload, seed, seconds)]
    describe_virtual(virtual_runs)
    print(f"report_digest={wl.phase_digest(virtual_runs)}")
    real = wl.run_real(wl.real_config(workload, seed, seconds))
    describe_real(real)
    problems = wl.check_virtual(workload, virtual_runs) + wl.check_real(real)

    virtual_sent = sum(run.report.sent for run in virtual_runs)
    raw_sim_rps = virtual_sent / sum(run.loop_wall_s for run in virtual_runs)
    calibration = wl.Calibration()
    for run in virtual_runs:
        calibration.add(run.calibration)
    setup_scaled = [s * speed / wl.REFERENCE_SETUP_SPEED for s, speed in setup]
    due_ms = [x * 1000.0 for x in real.due_latencies] or [0.0]
    virtual_p50_ms = statistics.median(
        r.latency * 1000.0 for r in virtual_runs[-1].report.records if r.status == "ok"
    )
    print(
        f"real_due_p50_ms={wl.percentile(due_ms, 50):.2f} "
        f"virtual_p50_ms({virtual_runs[-1].config.algorithm})={virtual_p50_ms:.2f} "
        f"real_due_p99_ms={wl.percentile(due_ms, 99):.2f} "
        f"generator_late_p99_ms={wl.percentile(real.lateness, 99) * 1000:.2f}"
    )
    print(
        f"unscaled sim_rps={raw_sim_rps:.1f} setup_s={statistics.median(s for s, _ in setup):.4f} "
        f"machine_speed virtual={calibration.speed:.0f} "
        f"setup={[round(speed) for _, speed in setup]}"
    )
    metrics = {
        "sim_rps": raw_sim_rps * wl.REFERENCE_SPEED / calibration.speed,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mib": peak_rss_mib(),
        "lat_p50_ms": wl.percentile(due_ms, 50),
        "lat_p95_ms": wl.percentile(due_ms, 95),
    }
    return problems, virtual_sent + real.report.sent, real.failed, _with_units(metrics, E2E_UNITS)


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def traced(workload: str, seed: int, seconds: float, wl) -> tuple[list[str], int, int, dict]:
    import layers
    import tracing

    configs = wl.virtual_configs(workload, seed, seconds)
    plain = [wl.run_virtual(c) for c in configs]
    tracer = tracing.Tracer()
    peak_threads = [threading.active_count()]
    stop = threading.Event()

    def sample_threads() -> None:
        while not stop.wait(0.005):
            peak_threads[0] = max(peak_threads[0], threading.active_count())

    origin = tracing.now()
    tracer.install()
    try:
        virtual_runs = [wl.run_virtual(c, store=tracing.CountingStore(tracer)) for c in configs]
        sampler = threading.Thread(target=sample_threads, daemon=True)
        sampler.start()
        try:
            real = wl.run_real(
                wl.real_config(workload, seed, seconds), store=tracing.CountingStore(tracer)
            )
        finally:
            stop.set()
            sampler.join()
    finally:
        tracer.restore()
    describe_virtual(virtual_runs)
    describe_real(real)

    problems = wl.check_virtual(workload, virtual_runs) + wl.check_real(real)
    if [r.digest for r in virtual_runs] != [r.digest for r in plain]:
        problems.append("tracing changed the emitted report bytes")

    spans_path = OUT / f"spans-{workload}-seed{seed}.csv"
    tracer.write(spans_path, origin)
    print(f"spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    phases = tracing.request_phases(tracer.spans, real)
    values = layers.per_layer(tracer, plain, virtual_runs, real, phases, peak_threads[0])
    layers.print_breakdown(tracer, real, phases)
    attempted = sum(run.report.sent for run in virtual_runs) + real.report.sent
    return problems, attempted, real.failed, _with_units(values, layers.UNITS)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    # the program's sealed blobs and the emitted reports stay in the checkout
    tempfile.tempdir = str(OUT / "tmp")
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {wl.WORKLOADS}")
    if args.setup_probe:
        print(*wl.probe_setup(args.workload, args.seed, args.seconds))
        return 0

    env = dict(environment(), loadavg_1m_start=loadavg())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    run = traced if args.trace else untraced
    problems, attempted, failed, metrics = run(args.workload, args.seed, args.seconds, wl)
    env["loadavg_1m_end"] = loadavg()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
