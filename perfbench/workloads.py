"""Workloads of the enclaveserve benchmark and the phases each one runs.

Every workload has a virtual-clock phase, which gives `sim_rps`, and a
real-clock phase over loopback, which gives the due-time latencies. Both
phases drive the program only through its public runners; the benchmark
watches them from outside by stamping the runner's call to
`generate_arrivals`.

CPU-bound figures (`sim_rps`, `setup_s`) are scaled to the reference
machine's speed. The reference machine is a shared VM whose speed swings by
tens of percent within seconds, and swings the same way for interpreted
Python and for the native crypto the program spends most of its time in. A
fixed pure-Python calibration workload measures that speed: in short slices
interleaved with a virtual run, and right after each set-up probe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from enclaveserve.clock import EventLoop
from enclaveserve.harness import (
    STATUS_OK,
    RealRunner,
    VirtualRunner,
    build_lb_scenario,
    emit_report,
    validate,
)
from enclaveserve.harness import runner as virtual_runner_module
from enclaveserve.harness import runner_real as real_runner_module
from enclaveserve.harness.scenario import WorkloadSettings
from enclaveserve.profiles import PRESETS

MODEL = "mobilenet_v1_float"
POLICIES = ("rr", "lc", "sed", "sgx_aware")
WORKLOADS = ("lb-high", "real-small", "real-image")

# 30 rps keeps mean requests in flight (rate x ~66 ms) at or below the two
# CPUs of the reference machine, so the real phase measures the program and
# not the scheduler.
REAL_RATE = 30.0
SMALL_BYTES = 64
IMAGE_BYTES = 224 * 224 * 3
# lb-high's real phase runs at the scenario's own 120 rps, for a third of
# the run, which still gives over 1000 requests per run.
LB_REAL_SHARE = 1.0 / 3.0
# The real-* virtual phase replays the workload's own scenario this often.
REPLAYS = 5
# A real phase whose generator ran later than this at p99 measured the
# machine, not the program; the run is marked invalid.
LATENESS_LIMIT_S = 0.100
# Calibration units per second on the reference machine (2-vCPU Xeon VM),
# interleaved with a virtual run and right after a set-up probe; scaled
# figures read as if run at these speeds.
REFERENCE_SPEED = 40000.0
REFERENCE_SETUP_SPEED = 55000.0
# One calibration slice of CALIBRATION_UNITS units (about 1 ms) per
# CALIBRATION_SPACING_S of virtual time.
CALIBRATION_UNITS = 40
CALIBRATION_SPACING_S = 0.25


def _calibration_unit() -> int:
    total = 0
    for i in range(300):
        total += i * i % 7
    hashlib.sha256(b"calibration").digest()
    return total


class Calibration:
    """Machine speed, sampled in slices of a fixed workload."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def sample(self, units: int = CALIBRATION_UNITS) -> None:
        started = time.perf_counter()
        for _ in range(units):
            _calibration_unit()
        self.seconds += time.perf_counter() - started
        self.units += units

    def add(self, other: "Calibration") -> None:
        self.units += other.units
        self.seconds += other.seconds

    @property
    def speed(self) -> float:
        return self.units / self.seconds


def percentile(samples: list[float], p: float) -> float:
    """Nearest rank, as the program's own reports use."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def lb_configs(seed: int):
    """The paper's headline comparison: all four policies, high interference."""
    return [build_lb_scenario(MODEL, algorithm, "high", seed) for algorithm in POLICIES]


def real_config(workload: str, seed: int, seconds: float):
    """The scenario a workload serves on the real clock."""
    if workload == "lb-high":
        # Without the interference script: on the real clock the scripted
        # window would put the controller thread's wake-up time into the tail.
        base = build_lb_scenario(MODEL, "sgx_aware", "high", seed)
        return validate(
            dataclasses.replace(base, duration_s=seconds * LB_REAL_SHARE, interference=())
        )
    payload = {"real-small": SMALL_BYTES, "real-image": IMAGE_BYTES}[workload]
    base = build_lb_scenario(MODEL, "sed", "none", seed)
    return validate(
        dataclasses.replace(
            base,
            duration_s=seconds,
            workload=WorkloadSettings(rate_per_s=REAL_RATE, payload_bytes=payload),
        )
    )


def virtual_configs(workload: str, seed: int, seconds: float):
    if workload == "lb-high":
        return lb_configs(seed)
    return [real_config(workload, seed, seconds)] * REPLAYS


@contextmanager
def arrivals_stamp(module):
    """Record (perf_counter, arrivals) at each call the runner in `module`
    makes to `generate_arrivals`: the end of its set-up and the due times."""
    calls: list[tuple[float, list[float]]] = []
    original = module.generate_arrivals

    def stamped(spec):
        arrivals = original(spec)
        calls.append((time.perf_counter(), arrivals))
        return arrivals

    module.generate_arrivals = stamped
    try:
        yield calls
    finally:
        module.generate_arrivals = original


def report_digest(report, out_dir: Path) -> str:
    """sha256 over every file `emit_report` writes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(emit_report(report, out_dir).values()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@dataclasses.dataclass
class VirtualRun:
    config: object
    runner: VirtualRunner
    report: object
    loop_wall_s: float  # calibration slices excluded
    calibration: Calibration
    digest: str = ""
    emit_s: float = 0.0


def run_virtual(config, store=None) -> VirtualRun:
    """One virtual-clock run; the loop phase runs from the runner's
    `generate_arrivals` call until `run()` returns."""
    runner = VirtualRunner(config, store=store)
    calibration = Calibration()
    when = 0.0
    while when < config.duration_s:
        # The base class's call_at, so a traced loop does not count these
        # slices as program events. They touch no program state.
        EventLoop.call_at(runner.loop, when, calibration.sample)
        when += CALIBRATION_SPACING_S
    with arrivals_stamp(virtual_runner_module) as calls:
        report = runner.run()
    end = time.perf_counter()
    run = VirtualRun(config, runner, report, end - calls[0][0] - calibration.seconds, calibration)
    with tempfile.TemporaryDirectory(prefix="emit-") as out:
        started = time.perf_counter()
        run.digest = report_digest(report, Path(out))
        run.emit_s = time.perf_counter() - started
    return run


def check_virtual(workload: str, runs: list[VirtualRun]) -> list[str]:
    """Output checks on a virtual phase; returns the problems found."""
    problems = []
    for run in runs:
        report = run.report
        if len(report.records) + report.in_flight_at_cutoff != report.sent:
            problems.append(f"{report.scenario}: records do not add up to sent")
    if workload == "lb-high":
        p99 = {run.config.algorithm: run.report.percentile(99) for run in runs}
        slo = PRESETS[MODEL].slo_s
        if not p99["sgx_aware"] <= slo:
            problems.append(f"sgx_aware p99 {p99['sgx_aware']:.4f}s misses the {slo}s SLO")
        if not p99["sgx_aware"] < p99["sed"]:
            problems.append("sgx_aware p99 is not below sed")
        if not p99["rr"] >= max(p99.values()):
            problems.append("rr is not the worst policy")
    elif len({run.digest for run in runs}) != 1:
        problems.append("replays of one seed emitted different report bytes")
    return problems


def phase_digest(runs: list[VirtualRun]) -> str:
    digest = hashlib.sha256()
    for run in runs:
        digest.update(run.digest.encode())
    return digest.hexdigest()


@dataclasses.dataclass
class RealRun:
    config: object
    runner: RealRunner
    report: object
    arrivals: list[float]
    clock_offset: float  # time.monotonic() minus the runner's clock
    due_latencies: list[float]  # seconds, succeeded requests only
    lateness: list[float]  # seconds, send time minus due time, every record

    @property
    def succeeded(self) -> int:
        return len(self.due_latencies)

    @property
    def failed(self) -> int:
        # timed out, rejected, or still in flight at the cutoff
        return self.report.sent - self.succeeded


def run_real(config, store=None) -> RealRun:
    runner = RealRunner(config, store=store)
    clock_offset = time.monotonic() - runner.clock.now()
    with arrivals_stamp(real_runner_module) as calls:
        report = runner.run()
    arrivals = calls[0][1]
    ok = [r for r in report.records if r.status == STATUS_OK]
    return RealRun(
        config=config,
        runner=runner,
        report=report,
        arrivals=arrivals,
        clock_offset=clock_offset,
        due_latencies=[r.complete_ts - arrivals[r.index] for r in ok],
        lateness=[r.send_ts - arrivals[r.index] for r in report.records],
    )


def check_real(run: RealRun) -> list[str]:
    problems = []
    report = run.report
    if report.sent != len(run.arrivals):
        problems.append(f"sent {report.sent} of {len(run.arrivals)} due requests")
    if len({r.index for r in report.records}) != len(report.records):
        problems.append("a request was recorded twice")
    for rec in report.records:
        if rec.status == STATUS_OK and rec.complete_ts - run.arrivals[rec.index] < rec.latency:
            problems.append(f"request {rec.index}: due-time latency below the runner's own")
            break
    if not run.due_latencies:
        problems.append("no request succeeded")
    late_p99 = percentile(run.lateness, 99) if run.lateness else 0.0
    if late_p99 > LATENESS_LIMIT_S:
        problems.append(
            f"invalid: generator lateness p99 {late_p99 * 1000:.1f} ms exceeds "
            f"{LATENESS_LIMIT_S * 1000:.0f} ms"
        )
    return problems


class SetupDone(Exception):
    """Raised from the stamped `generate_arrivals` to end a set-up probe."""


def probe_setup(workload: str, seed: int, seconds: float) -> tuple[float, float]:
    """Set the workload's real-clock cluster up (lb-high: its sgx_aware
    virtual cluster). Returns time.monotonic() at the runner's first
    `generate_arrivals` call, and the calibrated machine speed just after."""
    if workload == "lb-high":
        module, runner = virtual_runner_module, VirtualRunner(lb_configs(seed)[-1])
    else:
        module, runner = real_runner_module, RealRunner(real_config(workload, seed, seconds))
    original = module.generate_arrivals
    stamp: list[float] = []

    def stop(spec):
        stamp.append(time.monotonic())
        raise SetupDone

    module.generate_arrivals = stop
    try:
        runner.run()
    except Exception:
        if not stamp:
            raise
    finally:
        module.generate_arrivals = original
        for listener in getattr(runner, "listeners", {}).values():
            listener.stop()
    calibration = Calibration()
    for _ in range(100):
        calibration.sample()
    return stamp[0], calibration.speed
