"""Differential oracle: both clocks give one answer.

Each shipped scenario runs, scaled into about 1.5 s at no more than 12
rps, once on the virtual clock and once on the real clock, with the same
seed; so does one edge case, a single replica serving one request at a
time. Whatever the schedule decides without reading the wall clock must
come out the same on both: the sends, the handshakes, the service-time
draws from the run's one jitter stream, the round-robin split and the
frames each request puts on the wire.
"""

from __future__ import annotations

import ast
import collections
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

import enclaveserve
from enclaveserve.clock import EventLoop
from enclaveserve.harness.runner import ClusterRunner, VirtualRunner
from enclaveserve.harness.runner_real import RealRunner
from enclaveserve.harness.scenario import from_dict
from enclaveserve.profiles import ModelProfile

from .conftest import SCENARIOS, scaled_to

SEED = 21
MAX_RATE = 12.0


def oracle_config(path, edit=None):
    raw = scaled_to(yaml.safe_load(path.read_text()), 1.5)
    if edit is not None:
        edit(raw)
    raw["seed"] = SEED
    workload = raw.setdefault("workload", {})
    workload["rate_per_s"] = min(workload.get("rate_per_s", MAX_RATE), MAX_RATE)
    raw["capture_traffic"] = True
    return from_dict(raw)


def run_logged(runner_class, config, monkeypatch):
    """Run `config` on one clock; returns the runner, its report and every
    base-time draw the run made."""
    draws = []
    lock = threading.Lock()
    sample = ModelProfile.sample_base_time

    def logged(self, rng):
        base = sample(self, rng)
        with lock:
            draws.append(base)
        return base

    with monkeypatch.context() as patch:
        patch.setattr(ModelProfile, "sample_base_time", logged)
        runner = runner_class(config)
        report = runner.run()
    return runner, report, draws


def channel_frames(capture):
    """The handshake and record frames of a capture, without keystore RPCs."""
    return [blob for blob in capture if blob[:2] == b"hs" or blob[:4] == b"rec1"]


def one_serial_replica(raw):
    """Every request on one replica, which serves one at a time."""
    raw["service"]["replicas"] = raw["service"]["replicas"][:1]
    raw["service"]["parallelism"] = 1


CASES = [pytest.param(path, None, id=path.stem) for path in sorted(SCENARIOS.glob("*.yaml"))]
CASES.append(
    pytest.param(
        SCENARIOS / "lb-low-mobilenet-rr.yaml", one_serial_replica, id="one-replica-parallelism-1"
    )
)


@pytest.mark.parametrize("path, edit", CASES)
def test_both_clocks_give_one_answer(path, edit, monkeypatch):
    config = oracle_config(path, edit)
    runs = {
        clock: run_logged(runner_class, config, monkeypatch)
        for clock, runner_class in (("virtual", VirtualRunner), ("real", RealRunner))
    }
    served = {}
    for clock, (runner, report, draws) in runs.items():
        assert report.sent == len(runner.arrivals) > 0, clock
        assert len(report.records) == report.sent, clock
        served[clock] = sum(record.status == "ok" for record in report.records)
        handshakes = runner.handshakes_full + runner.handshakes_resumed
        assert handshakes == served[clock] == len(draws), clock
        assert len(channel_frames(runner.traffic_capture)) == 5 * served[clock], clock
    (virtual, _, virtual_draws), (real, _, real_draws) = runs["virtual"], runs["real"]
    assert virtual.handshakes_full == 1
    # concurrent first connections may each make a full handshake
    assert real.handshakes_full >= 1
    assert served["virtual"] == served["real"]
    assert sorted(virtual_draws) == sorted(real_draws)
    if config.algorithm == "rr":
        counts = [
            collections.Counter(record.endpoint for record in report.records)
            for _, report, _ in runs.values()
        ]
        assert counts[0] == counts[1]


def test_concurrent_service_times_are_whole_draws_from_the_stream():
    # the real clock's connection threads draw at once; with each draw whole,
    # they take the stream's first draws between them, in some order
    config = oracle_config(SCENARIOS / "lb-low-mobilenet-rr.yaml")
    replica = SimpleNamespace(node=SimpleNamespace(service_latency=lambda base: base))
    threads, draws = 8, 400
    reference = ClusterRunner(config, EventLoop(), None)
    expected = sorted(reference.service_time(replica) for _ in range(threads * draws))
    runner = ClusterRunner(config, EventLoop(), None)
    drawn = [[] for _ in range(threads)]

    def draw(mine):
        mine.extend(runner.service_time(replica) for _ in range(draws))

    workers = [threading.Thread(target=draw, args=(mine,)) for mine in drawn]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert sorted(time for mine in drawn for time in mine) == expected


def test_only_the_profile_computes_a_service_time():
    # the service-time rule has one home: any other caller of its parts
    # could serve one clock by a rule the other does not follow
    parts = {"service_latency", "sample_base_time"}
    root = Path(enclaveserve.__file__).parent
    callers = {}
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in parts:
                    callers.setdefault(module, []).append(node.lineno)
    assert set(callers) <= {"profiles.py"}, callers
    assert "profiles.py" in callers  # the scan sees what it looks for
