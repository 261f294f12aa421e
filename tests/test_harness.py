from __future__ import annotations

import ast
import copy
import dataclasses
import gc
import math
import os
import random
import signal
import socket
import tempfile
import threading
import time
import typing
from functools import partial
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import enclaveserve
from enclaveserve.aecs import MemoryStore, VersionConflict
from enclaveserve.channel.certs import generate_pki
from enclaveserve.channel.handshake import server_handshake
from enclaveserve.channel.record import Session
from enclaveserve.channel.transport import MAX_FRAME
from enclaveserve.cli import main as cli_main
from enclaveserve.confine import ConfinedSecret, reset_taint, taint_events
from enclaveserve.control import SloController, paging_throughput, profile_boundary
from enclaveserve.harness import (
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    ConfigInvalid,
    EmptySamples,
    IoFailure,
    ScenarioFailed,
    build_lb_scenario,
    build_scaling_scenario,
    emit_report,
    generate_arrivals,
    load_scenario,
    percentile,
    run_scenario,
)
from enclaveserve.harness.report import (
    load_latencies,
    render_latencies,
    summarize_dir,
)
from enclaveserve.harness import runner as runner_module
from enclaveserve.harness import runner_real
from enclaveserve.harness.runner import FORK_MIN_JOBS, ClusterRunner, VirtualRunner, _Request
from enclaveserve.harness.runner_real import RealRunner
from enclaveserve.harness.scenario import (
    PROFILED_BOUNDARIES,
    AutoscaleSettings,
    InterferenceSettings,
    NodeConfig,
    ScenarioConfig,
    SloSettings,
    WorkloadSettings,
    from_dict,
)
from enclaveserve.profiles import PRESETS, ModelProfile
from enclaveserve.serving import Endpoint, crash_replica
from enclaveserve.substrate import node as node_module
from enclaveserve.substrate.node import Node
from enclaveserve.substrate.paging import inflate_latency

from .conftest import SCENARIOS, scaled_to


# -- workload ---------------------------------------------------------------------


def workload_config(rate_per_s: float, duration_s: float, seed: int):
    base = build_lb_scenario("mobilenet_v1_float", "rr", "none", seed=seed)
    return dataclasses.replace(
        base, duration_s=duration_s, workload=WorkloadSettings(rate_per_s=rate_per_s)
    )


def test_mean_gap_is_inverse_rate():
    arrivals = generate_arrivals(workload_config(50.0, 400.0, seed=3))
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert len(gaps) > 10_000
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(1 / 50.0, rel=0.05)


def test_same_seed_identical_stream():
    config = workload_config(100.0, 10.0, seed=9)
    assert generate_arrivals(config) == generate_arrivals(config)


def test_different_seed_different_stream():
    a = workload_config(100.0, 10.0, seed=1)
    b = workload_config(100.0, 10.0, seed=2)
    assert generate_arrivals(a) != generate_arrivals(b)


def test_arrivals_inside_duration():
    arrivals = generate_arrivals(workload_config(20.0, 5.0, seed=4))
    assert all(0 <= t < 5.0 for t in arrivals)


# -- percentile -------------------------------------------------------------------


def test_percentile_nearest_rank_1_to_100():
    samples = list(range(1, 101))
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile(samples, 1) == 1
    assert percentile(samples, 50) == 50


def test_percentile_single_sample():
    assert percentile([7.5], 99) == 7.5
    assert percentile([7.5], 1) == 7.5


def test_percentile_all_equal():
    assert percentile([3.0] * 17, 95) == 3.0


def test_percentile_empty():
    with pytest.raises(EmptySamples):
        percentile([], 99)


def test_percentile_range_check():
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50), st.floats(0.01, 100))
def test_percentile_is_a_sample_and_monotone(samples, p):
    value = percentile(samples, p)
    assert value in samples
    assert percentile(samples, 100) == max(samples)


# -- scenario config ----------------------------------------------------------------


def test_builder_configs_validate():
    config = build_lb_scenario("mobilenet_v1_float", "sgx_aware", "high")
    assert config.slo is not None
    assert len(config.replica_placements) == 3
    scaling = build_scaling_scenario("efficientnet_lite_quant", 1)
    assert len(scaling.replica_placements) == 1


def test_yaml_roundtrip(tmp_path):
    raw = {
        "name": "demo",
        "seed": 5,
        "duration_s": 10.0,
        "cluster": {"nodes": [{"id": "n1", "epc_mib": 64}, {"id": "n2"}]},
        "aecs": {"replicas": [{"id": "a0", "node": "n1"}]},
        "service": {
            "id": "svc",
            "model": "mobilenet_v1_float",
            "algorithm": "rr",
            "replicas": [{"id": "r0", "node": "n1"}],
        },
        "workload": {"rate_per_s": 10.0},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    config = load_scenario(path)
    assert config.name == "demo"
    assert config.seed == 5
    assert config.nodes[0].epc_mib == 64
    assert config.nodes[1].epc_mib == 93  # the default
    assert config.workload == WorkloadSettings(rate_per_s=10.0, payload_bytes=64, timeout_s=10.0)
    assert config.slo is None and config.autoscale == AutoscaleSettings(enabled=False)


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda raw: raw["service"].update(algorithm="fancy"), "algorithm"),
        (lambda raw: raw["service"].update(model="resnet152"), "model"),
        (lambda raw: raw["service"]["replicas"].append({"id": "r9", "node": "ghost"}), "node"),
        (lambda raw: raw.update(duration_s=-1), "duration"),
        (lambda raw: raw.update(duration_s=0), "zero-duration"),
        (lambda raw: raw.pop("workload"), "workload"),
        (lambda raw: raw["workload"].update(rate_per_s=0), "rate"),
        (lambda raw: raw["workload"].update(payload_bytes=0), "payload"),
        (lambda raw: raw["workload"].update(payload_bytes=MAX_FRAME - 35), "frame"),
        # `cores` is no field: a file that still sets it is rejected
        (lambda raw: raw["cluster"]["nodes"][0].update(cores=0), "cores"),
        (lambda raw: raw["cluster"]["nodes"][0].update(epc_mib=0), "epc"),
        (lambda raw: raw["aecs"]["replicas"].append({"id": "a0", "node": "n1"}), "keystore-ids"),
        (lambda raw: raw.update(capture_traffic="no"), "quoted-bool"),
    ],
)
def test_config_invalid_cases(mutate, message):
    raw = {
        "name": "demo",
        "duration_s": 10.0,
        "cluster": {"nodes": [{"id": "n1"}]},
        "aecs": {"replicas": [{"id": "a0", "node": "n1"}]},
        "service": {
            "id": "svc",
            "model": "mobilenet_v1_float",
            "algorithm": "rr",
            "replicas": [{"id": "r0", "node": "n1"}],
        },
        "workload": {"rate_per_s": 10.0},
    }
    mutate(raw)
    with pytest.raises(ConfigInvalid):
        from_dict(raw)


SLO = {"boundary_pages_per_s": 4950.0}
WINDOW = {"node": "n1", "windows": [[1.0, 2.0]], "epc_mib": 93, "rate_pages_per_s": 1000.0}

# every section set in full, so each number field appears
FULL = {
    "name": "demo",
    "seed": 3,
    "duration_s": 10.0,
    "cluster": {"t_ref_pages_per_s": 1e4, "nodes": [{"id": "n1", "epc_mib": 93}]},
    "aecs": {"replicas": [{"id": "a0", "node": "n1"}]},
    "service": {
        "id": "svc",
        "model": "mobilenet_v1_float",
        "algorithm": "sgx_aware",
        "parallelism": 2,
        "replicas": [{"id": "r0", "node": "n1"}],
    },
    "policies": {
        "slo": {**SLO, "theta": 0.7, "consecutive_cycles": 5, "sample_interval_s": 1.0},
        "autoscale": {"enabled": True, "target_utilization": 0.6, "min_replicas": 1,
                      "max_replicas": 1, "cooldown_s": 30.0},
    },
    "workload": {"rate_per_s": 10.0, "payload_bytes": 64, "timeout_s": 10.0},
    "interference": [WINDOW],
}


def _number_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _number_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _number_paths(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _with(path, value):
    raw = copy.deepcopy(FULL)
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return raw


NUMBER_PATHS = list(_number_paths(FULL))


def _at(path):
    value = FULL
    for key in path:
        value = value[key]
    return value


def _not_numbers(path):
    """Values the field's type cannot take: a fraction for an int, an int
    past the range of a float for a float, and a quoted number or a boolean
    for either. YAML typed them, so none of them is coerced."""
    wrong = 2.5 if isinstance(_at(path), int) else 10**400
    return [wrong, str(_at(path)), True]


def test_full_scenario_sets_every_number_field():
    from_dict(FULL)
    names = {key for path in NUMBER_PATHS for key in path if isinstance(key, str)}
    for cls in (ScenarioConfig, NodeConfig, WorkloadSettings, SloSettings, AutoscaleSettings,
                InterferenceSettings):
        for name, tp in typing.get_type_hints(cls).items():
            if tp in (int, float):
                assert name in names, (cls.__name__, name)


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(path, value, id=f"{'.'.join(map(str, path))}={value}")
        for path in NUMBER_PATHS
        for value in (math.inf, -math.inf, math.nan)
    ]
    + [
        pytest.param(("cluster", "t_ref_pages_per_s"), value, id=f"t_ref={value}")
        for value in (0.0, -1.0)
    ]
    + [
        pytest.param(path, value, id=f"{'.'.join(map(str, path))}={value!r:.8}")
        for path in NUMBER_PATHS
        for value in _not_numbers(path)
    ],
)
def test_non_finite_numbers_and_bad_t_ref_are_rejected_naming_the_field(path, value):
    # validation alone decides: nothing is built or run
    field_name = [key for key in path if isinstance(key, str)][-1]
    with pytest.raises(ConfigInvalid, match=field_name):
        from_dict(_with(path, value))


@pytest.mark.parametrize(
    "mutate,key",
    [
        pytest.param(lambda raw: raw.update(capture=True), "capture", id="top-level"),
        pytest.param(lambda raw: raw.update(model="x"), "model", id="misplaced-service-key"),
        pytest.param(lambda raw: raw["cluster"].update(t_ref=1.0), "cluster.t_ref", id="cluster"),
        pytest.param(
            lambda raw: raw["cluster"]["nodes"][0].update(cores=2), "cores", id="cluster.nodes"
        ),
        pytest.param(
            lambda raw: raw["service"]["replicas"][0].update(weight=1), "weight",
            id="service.replicas",
        ),
        pytest.param(
            lambda raw: raw["aecs"]["replicas"][0].update(nodes="n1"), "nodes", id="aecs.replicas"
        ),
        pytest.param(
            lambda raw: raw.update(policies={"slo": {**SLO, "thetha": 0.7}}), "thetha",
            id="policies.slo",
        ),
        pytest.param(
            lambda raw: raw.update(policies={"autoscale": {"cooldown": 5.0}}), "cooldown",
            id="policies.autoscale",
        ),
        pytest.param(lambda raw: raw["workload"].update(timeout=1.0), "timeout", id="workload"),
        pytest.param(
            lambda raw: raw.update(interference=[{**WINDOW, "rate": 1.0}]), "rate",
            id="interference",
        ),
    ],
)
def test_unknown_key_is_rejected_naming_it(mutate, key):
    raw = {
        "name": "demo",
        "duration_s": 10.0,
        "cluster": {"nodes": [{"id": "n1"}]},
        "aecs": {"replicas": [{"id": "a0", "node": "n1"}]},
        "service": {
            "id": "svc",
            "model": "mobilenet_v1_float",
            "algorithm": "rr",
            "replicas": [{"id": "r0", "node": "n1"}],
        },
        "workload": {"rate_per_s": 10.0},
    }
    # the same sections spelt right are accepted
    from_dict({**raw, "policies": {"slo": SLO, "autoscale": {}}, "interference": [WINDOW]})
    mutate(raw)
    with pytest.raises(ConfigInvalid, match=f"unknown key '{key}'"):
        from_dict(raw)


def test_largest_payload_whose_response_record_fits_a_frame_is_accepted():
    # the response record is service_time (8) + payload + header (12) + tag (16)
    raw = yaml.safe_load(SCENARIOS.joinpath("lb-low-mobilenet-rr.yaml").read_text())
    raw["workload"]["payload_bytes"] = MAX_FRAME - 36
    assert from_dict(raw).workload.payload_bytes == MAX_FRAME - 36
    raw["workload"]["payload_bytes"] = MAX_FRAME - 35
    with pytest.raises(ConfigInvalid):
        from_dict(raw)


def test_pinned_slo_boundaries_match_the_profiler():
    boundaries = {
        model: profile_boundary(PRESETS[model], PRESETS[model].slo_s)[1]
        for model in PROFILED_BOUNDARIES
    }
    for model, pinned in PROFILED_BOUNDARIES.items():
        assert pinned == pytest.approx(boundaries[model], abs=0.05), model
    shipped = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.yaml"))]
    with_slo = [config for config in shipped if config.slo is not None]
    assert len(with_slo) == 3
    for config in with_slo:
        assert config.slo.boundary_pages_per_s == pytest.approx(
            boundaries[config.model], abs=0.05
        ), config.name


def test_interference_windows_must_not_overlap():
    config = build_lb_scenario("mobilenet_v1_float", "rr", "none")
    bad = dataclasses.replace(
        config,
        interference=(
            InterferenceSettings("node-a", ((5.0, 20.0), (15.0, 30.0)), 93, 1000.0),
        ),
    )
    from enclaveserve.harness.scenario import validate

    with pytest.raises(ConfigInvalid):
        validate(bad)


def test_sgx_aware_requires_slo_policy():
    config = build_lb_scenario("mobilenet_v1_float", "sgx_aware", "none")
    from enclaveserve.harness.scenario import validate

    with pytest.raises(ConfigInvalid):
        validate(dataclasses.replace(config, slo=None))


def test_autoscale_bounds_validated():
    raw = yaml.safe_load(SCENARIOS.joinpath("autoscale-demo.yaml").read_text())
    # max_replicas == the three placements is accepted
    assert from_dict(raw).autoscale.max_replicas == len(raw["service"]["replicas"])
    for key, value in (
        ("max_replicas", 6),
        ("min_replicas", 0),
        ("min_replicas", 4),
        ("target_utilization", 0.0),
        ("target_utilization", 1.5),
        ("cooldown_s", -1.0),
    ):
        bad = yaml.safe_load(SCENARIOS.joinpath("autoscale-demo.yaml").read_text())
        bad["policies"]["autoscale"][key] = value
        bad["workload"]["rate_per_s"] = 400.0
        with pytest.raises(ConfigInvalid):
            from_dict(bad)


# -- small end-to-end runs ---------------------------------------------------------------


def small_scenario(algorithm="sed", interference="none", duration=8.0, rate=40.0, seed=1):
    config = build_lb_scenario("mobilenet_v1_float", algorithm, interference, seed=seed)
    scripts = ()
    if config.interference:
        scripts = (dataclasses.replace(config.interference[0], windows=((2.0, 4.0),)),)
    return dataclasses.replace(
        config, duration_s=duration, workload=WorkloadSettings(rate_per_s=rate),
        interference=scripts,
    )


def test_quiet_run_meets_slo_and_conserves_requests():
    report = run_scenario(small_scenario())
    assert report.sent == report.completed + report.timed_out + report.rejected + report.in_flight_at_cutoff
    assert report.in_flight_at_cutoff == 0
    assert report.rejected == 0
    assert report.slo_met


@pytest.mark.parametrize("model", sorted(PRESETS))
def test_single_replica_far_below_capacity_meets_slo(model):
    config = build_scaling_scenario(model, 1, seed=6)
    config = dataclasses.replace(
        config,
        duration_s=20.0,
        workload=WorkloadSettings(rate_per_s=0.1 * config.parallelism / config.profile.base_time_s),
    )
    report = run_scenario(config)
    assert report.slo_met
    assert report.timed_out == 0


def test_open_loop_send_times_match_generated_arrivals():
    config = small_scenario()
    report = run_scenario(config)
    assert [r.send_ts for r in report.records] == generate_arrivals(config)


def test_completion_rule_times_a_request_out_at_its_deadline():
    config = small_scenario()
    runner = VirtualRunner(config)
    endpoint = Endpoint("r0", replica=None)
    runner.vs.add_endpoint(endpoint)
    deadline = 1.0 + config.workload.timeout_s
    for index, now in enumerate([deadline - 1e-9, deadline, deadline + 3.0]):
        runner.vs.dispatch(endpoint)
        runner._complete(endpoint, index, 1.0, now)
    before, at, after = runner.recorder.records()
    assert (before.status, before.complete_ts) == (STATUS_OK, deadline - 1e-9)
    for record in (at, after):
        assert (record.status, record.complete_ts) == (STATUS_TIMEOUT, deadline)
        assert record.latency == config.workload.timeout_s
    assert endpoint.active_connections == 0


@pytest.mark.parametrize("runner_class", [VirtualRunner, RealRunner])
def test_both_clocks_record_through_the_one_completion_rule(runner_class, monkeypatch):
    completed = []
    shared = ClusterRunner._complete

    def noting(self, endpoint, index, send_ts, now):
        completed.append(index)
        shared(self, endpoint, index, send_ts, now)

    monkeypatch.setattr(ClusterRunner, "_complete", noting)
    report = runner_class(short_real_scenario()).run()
    accepted = [r.index for r in report.records if r.status != STATUS_REJECTED]
    assert accepted and sorted(completed) == sorted(accepted)


class _ConflictsOnce(MemoryStore):
    """An untrusted store whose first compare-and-swap write conflicts."""

    def __init__(self):
        super().__init__()
        self.conflicts = 0

    def put(self, name, data, expected_version):
        if not self.conflicts:
            self.conflicts += 1
            raise VersionConflict("induced")
        return super().put(name, data, expected_version)


def test_virtual_keystore_retry_does_not_sleep_on_the_wall_clock(monkeypatch):
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    store = _ConflictsOnce()
    report = run_scenario(small_scenario(duration=2.0), store=store)
    assert store.conflicts == 1  # the service PKI was written on the retry
    assert report.completed > 0
    assert sleeps == []


def test_only_the_clocks_and_the_real_runner_touch_the_wall_clock():
    wall = {"sleep", "monotonic", "time"}
    root = Path(enclaveserve.__file__).parent
    allowed = {"clock.py", "harness/runner_real.py"}
    users = {}
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in wall
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "time"
                and any(alias.name in wall for alias in node.names)
            ):
                users.setdefault(module, []).append(node.lineno)
    assert "clock.py" in users  # the scan sees what it looks for
    assert set(users) <= allowed, users


# names no src/ module uses, each kept for the reason given
UNREFERENCED_ALLOWED = {
    "build_lb_scenario": "public builder of the paper's comparison scenarios",
    "build_scaling_scenario": "public builder of the scaling scenarios",
    "crash_replica": "fault injector for drills",
    "Node.proc_snapshot": "documented stable text format",
}


def _unreferenced_definitions() -> list[str]:
    """Functions, classes and methods defined in src/ whose name no src/
    module mentions outside their own definition and the package
    `__init__` re-exports. Names match by spelling alone, so a method
    counts as used if any attribute of that name is read."""
    root = Path(enclaveserve.__file__).parent
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = []  # (module, qualified name, name, node)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                defined.append((module, node.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, f"{node.name}.{sub.name}", sub.name, sub)
                    for sub in node.body
                    if isinstance(sub, kinds[:2]) and not sub.name.startswith("__")
                ]
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        if module.endswith("__init__.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))
    return [
        qualified
        for module, qualified, name, node in defined
        if all(
            where == module and node.lineno <= line <= node.end_lineno
            for where, line in uses.get(name, [])
        )
    ]


def test_src_defines_nothing_that_only_tests_use():
    unreferenced = _unreferenced_definitions()
    assert set(UNREFERENCED_ALLOWED) <= set(unreferenced)  # the scan sees them
    assert sorted(set(unreferenced) - set(UNREFERENCED_ALLOWED)) == []


def test_paging_formula_runs_only_at_enclave_launch_and_termination(monkeypatch):
    formula = node_module.overflow_throughput
    calls = {"formula": 0, "changes": 0, "requests": 0}
    specs: dict[int, dict[str, object]] = {}  # the enclave set each node should have
    serving = []

    def counted_formula(*args):
        assert not serving, "paging recomputed while serving a request"
        calls["formula"] += 1
        return formula(*args)

    def launch(self, spec, launch=Node.launch_enclave):
        handle = launch(self, spec)
        calls["changes"] += 1
        specs.setdefault(id(self), {})[spec.enclave_id] = spec
        return handle

    def terminate(self, handle, terminate=Node.terminate_enclave):
        terminate(self, handle)
        calls["changes"] += 1
        del specs[id(self)][handle.spec.enclave_id]

    def service_latency(self, base, service_latency=Node.service_latency):
        serving.append(base)
        try:
            latency = service_latency(self, base)
        finally:
            serving.pop()
        calls["requests"] += 1
        # the cached throughput is what the formula gives for the set now
        expected = formula(self.spec.epc_usable_bytes, specs[id(self)].values())
        assert latency == inflate_latency(base, expected, self.t_ref)
        return latency

    monkeypatch.setattr(node_module, "overflow_throughput", counted_formula)
    monkeypatch.setattr(Node, "launch_enclave", launch)
    monkeypatch.setattr(Node, "terminate_enclave", terminate)
    monkeypatch.setattr(Node, "service_latency", service_latency)
    report = run_scenario(small_scenario(algorithm="sgx_aware", interference="high"))
    # the keystore, three replicas, and the interference window's two edges
    assert calls["formula"] == calls["changes"] == 6
    assert calls["requests"] == report.sent - report.rejected > calls["changes"]


def test_first_observation_after_a_telemetry_gap_spans_back_to_the_last_sample(monkeypatch):
    # node-a is cut off for the ticks at 3 s and 4 s; the interference on
    # it runs from 2 s to 4 s, so its counters move only inside the gap
    samples: dict[str, list] = {}
    observations = []

    def collect(node, collect=runner_module.collect):
        sample = collect(node)
        samples.setdefault(node.node_id, []).append(sample)
        return sample

    def step(self, obs, now=0.0, step=SloController.step):
        observations.append((now, obs))
        return step(self, obs, now)

    class GapRunner(VirtualRunner):
        def _schedule(self):
            super()._schedule()
            node = self.substrate.node("node-a")
            self.clock.call_at(2.5, partial(setattr, node, "unreachable", True))
            self.clock.call_at(4.5, partial(setattr, node, "unreachable", False))

    monkeypatch.setattr(runner_module, "collect", collect)
    monkeypatch.setattr(SloController, "step", step)
    runner = GapRunner(small_scenario(algorithm="sgx_aware", interference="high"))
    runner.run()
    by_time = {now: obs["node-a"] for now, obs in observations}
    assert by_time[3.0].throughput is None and by_time[4.0].throughput is None
    before, after = (s for s in samples["node-a"] if s.timestamp in (2.0, 5.0))
    assert after.pages_in_total > before.pages_in_total
    assert by_time[5.0].throughput == paging_throughput([before, after])
    assert by_time[5.0].throughput > 0
    assert runner.telemetry_gaps == 2
    assert runner.controller.missing_cycles == 2


def test_a_virtual_run_without_telemetry_gaps_misses_no_control_cycle():
    runner = VirtualRunner(small_scenario(algorithm="sgx_aware", interference="high"))
    runner.run()
    assert runner.telemetry_gaps == 0
    assert runner.controller is not None and runner.controller.missing_cycles == 0


def test_one_full_handshake_then_resumption_on_the_virtual_clock():
    # every replica shares the service PKI, so the first request's ticket
    # resumes at all of them
    runner = VirtualRunner(small_scenario(algorithm="sgx_aware", interference="high"))
    report = runner.run()
    assert runner.handshakes_full == 1
    assert runner.handshakes_full + runner.handshakes_resumed == report.sent - report.rejected


def test_virtual_capture_holds_byte_copies_and_replays_identically():
    config = dataclasses.replace(small_scenario(duration=3.0), capture_traffic=True)
    captures = []
    for _ in range(2):
        runner = VirtualRunner(config)
        report = runner.run()
        captures.append(runner.traffic_capture)
    assert all(type(blob) is bytes for blob in captures[0] + captures[1])
    assert captures[0] == captures[1]
    # a request record and a response record per served request, all distinct
    records = [blob for blob in captures[0] if blob.startswith(b"rec1")]
    assert len(records) == 2 * (report.sent - report.rejected)
    assert len(set(records)) == len(records)


def test_completed_virtual_requests_release_buffers_and_sessions(tmp_path):
    # a completed request becomes a crypto job that holds no payload, buffer
    # or session, and the sessions of the run's crypto die with it
    config = dataclasses.replace(
        small_scenario(duration=6.0),
        workload=WorkloadSettings(rate_per_s=200.0, payload_bytes=224 * 224 * 3),
    )
    runner = VirtualRunner(config)
    runner._build_cluster(tmp_path)
    runner._schedule()
    flight = {"now": 0}
    for server in runner._servers.values():
        def submit(req, submit=server.submit):
            flight["now"] += 1
            submit(req)

        server.submit = submit
    complete = runner.complete_request
    completed: set[int] = set()

    def complete_request(req):
        complete(req)
        completed.add(req.index)
        flight["now"] -= 1

    runner.complete_request = complete_request
    runner.loop.run(until=3.0)

    alive = [obj for obj in gc.get_objects() if isinstance(obj, _Request)]
    assert len(completed) > FORK_MIN_JOBS and 0 < len(alive) == flight["now"]
    assert not any(req.index in completed for req in alive)
    assert not any(isinstance(obj, Session) for obj in gc.get_objects())
    # one job per completed request, (index, send_ts, seed, service_time)
    assert sorted(job[0] for job in runner._jobs) == sorted(completed)
    assert {len(job) for job in runner._jobs} == {4}
    assert {type(value) for job in runner._jobs for value in job} == {int, float}

    runner.loop.run()
    runner._drain()
    assert flight["now"] == 0 and not runner._jobs and runner._worker is None
    assert not any(isinstance(obj, Session) for obj in gc.get_objects())
    assert runner.handshakes_full + runner.handshakes_resumed == runner.recorder.sent
    assert len(runner.recorder.records()) == runner.recorder.sent


def _crypto_scenario(**changes):
    # sgx_aware under paging: 1600 requests, far more than FORK_MIN_JOBS
    config = small_scenario(algorithm="sgx_aware", interference="high", rate=200.0)
    return dataclasses.replace(config, **changes)


def _job_order(runner):
    """Request indices in the order they became crypto jobs."""
    return [record.index for record in runner.recorder._records if record.endpoint]


def _worker_half(order):
    """The positions in `order` whose jobs the worker runs."""
    return range(1 + (len(order) - 1) // 2, len(order))


def _run_crypto(monkeypatch, tmp_path, config, *, fork, in_worker=None):
    """Run `config` with `os.fork` counted, or removed so that every job
    runs here; `in_worker(index)` is called for each job the worker runs.
    Returns the run's outputs, its fork count and its runner."""
    parent, payload, real_fork = os.getpid(), runner_module.request_payload, os.fork
    forks = []

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def watched_payload(config, index):
        if in_worker is not None and os.getpid() != parent:
            in_worker(index)
        return payload(config, index)

    with monkeypatch.context() as patch:
        if fork:
            patch.setattr(os, "fork", counting_fork)
        else:
            patch.delattr(os, "fork")
        patch.setattr(runner_module, "request_payload", watched_payload)
        runner = VirtualRunner(config)
        report = runner.run()
    paths = emit_report(report, Path(tempfile.mkdtemp(dir=tmp_path)))
    outputs = (
        {name: path.read_bytes() for name, path in paths.items()},
        runner.traffic_capture,
        runner.handshakes_full,
        runner.handshakes_resumed,
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # the worker was reaped
    return outputs, len(forks), runner


def test_crypto_batches_give_the_same_outputs_in_either_process(monkeypatch, tmp_path):
    config = _crypto_scenario(capture_traffic=True)
    here, _, runner = _run_crypto(monkeypatch, tmp_path, config, fork=False)
    served = runner.handshakes_full + runner.handshakes_resumed
    assert served > 4 * FORK_MIN_JOBS
    assert here[2] == 1 and here[3] == served - 1
    halves = []
    for repeat in range(2):
        log = tmp_path / f"worker-{repeat}.log"

        def note(index, log=log):
            with log.open("a") as file:
                file.write(f"{index}\n")

        outputs, forks, runner = _run_crypto(
            monkeypatch, tmp_path, config, fork=True, in_worker=note
        )
        assert outputs == here
        assert forks == 1
        order = _job_order(runner)
        position = {index: k for k, index in enumerate(order)}
        halves.append([position[int(line)] for line in log.read_text().split()])
    # the second half of the jobs after the first, each once, whatever the
    # machine's speed
    assert halves[0] == halves[1] == list(_worker_half(order))


class _Injected(Exception):
    pass


def test_the_one_fork_comes_after_the_last_event(monkeypatch):
    real_fork = os.fork
    runner = VirtualRunner(_crypto_scenario())
    at_fork = []

    def watching_fork():
        at_fork.append((len(runner.loop._heap), runner.recorder.sent, len(runner.arrivals)))
        return real_fork()

    monkeypatch.setattr(os, "fork", watching_fork)
    runner.run()
    [(queued, sent, arrivals)] = at_fork
    assert queued == 0 and sent == arrivals > FORK_MIN_JOBS

    # a run stopped at its arrivals, as the benchmark's set-up probe stops
    # it, forks nothing
    def stop(config):
        raise _Injected

    monkeypatch.setattr(runner_module, "generate_arrivals", stop)
    with pytest.raises(ScenarioFailed):
        VirtualRunner(_crypto_scenario()).run()
    assert len(at_fork) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fails_in", ["helper", "parent"])
def test_failed_crypto_job_fails_the_run_and_leaves_no_helper(monkeypatch, tmp_path, fails_in):
    config = _crypto_scenario()
    runner = VirtualRunner(config)
    runner.run()
    order = _job_order(runner)
    theirs = _worker_half(order)
    parent = os.getpid()
    marker = tmp_path / "worker-met-the-failure"
    payload = runner_module.request_payload

    def failing_payload(config, index):
        in_worker = os.getpid() != parent
        if fails_in == "helper" and index == order[theirs[len(theirs) // 2]]:
            if in_worker:
                marker.touch()
            raise _Injected(index)
        if fails_in == "parent":
            if in_worker and index == order[theirs[0]]:
                time.sleep(60)  # the worker is still busy when the run fails
            elif not in_worker and index == order[theirs[0] // 2]:
                raise _Injected(index)
        return payload(config, index)

    monkeypatch.setattr(runner_module, "request_payload", failing_payload)
    started = time.monotonic()
    with pytest.raises(_Injected):
        VirtualRunner(config).run()
    assert time.monotonic() - started < 30
    assert marker.exists() == (fails_in == "helper")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_killed_worker_leaves_its_batches_to_the_runner(monkeypatch, tmp_path):
    config = _crypto_scenario(capture_traffic=True)
    here, _, runner = _run_crypto(monkeypatch, tmp_path, config, fork=False)
    order = _job_order(runner)
    theirs = _worker_half(order)
    doomed = order[theirs[len(theirs) // 2]]  # halfway through the worker's jobs
    killed = tmp_path / "killed"

    def die(index):
        if index == doomed:
            killed.touch()
            os.kill(os.getpid(), signal.SIGKILL)

    outputs, forks, _ = _run_crypto(monkeypatch, tmp_path, config, fork=True, in_worker=die)
    assert killed.exists() and forks == 1
    assert outputs == here


def test_worker_results_larger_than_the_socket_buffer_arrive_whole(monkeypatch, tmp_path):
    # 16 KiB requests: the worker's half of the captured frames is about
    # 13 MiB, far beyond what a socket pair buffers (about 200 KiB on
    # Linux), so the worker blocks writing until the runner reads
    config = dataclasses.replace(
        small_scenario(duration=4.0, rate=200.0),
        capture_traffic=True,
        workload=WorkloadSettings(rate_per_s=200.0, payload_bytes=16 * 1024),
    )
    here, _, _ = _run_crypto(monkeypatch, tmp_path, config, fork=False)
    outputs, forks, runner = _run_crypto(monkeypatch, tmp_path, config, fork=True)
    assert forks == 1 and len(_job_order(runner)) >= 10 * FORK_MIN_JOBS
    assert outputs == here


def test_replica_with_another_certificate_fails_the_virtual_run(monkeypatch):
    # every job is served with one PKI, so each replica must hold the
    # certificate the client expects
    start = runner_module.start_replica
    impostor = generate_pki("impostor", random.Random(7))

    def start_with_another_pki(**kwargs):
        replica = start(**kwargs)
        replica.pki = impostor
        return replica

    monkeypatch.setattr(runner_module, "start_replica", start_with_another_pki)
    with pytest.raises(ScenarioFailed, match="another certificate"):
        VirtualRunner(small_scenario(duration=1.0)).run()


def test_taint_recorded_in_a_helper_reaches_the_runner(monkeypatch):
    # confinement is checked in the runner's process, so a disallowed reveal
    # inside the worker's jobs has to be recorded there too
    config = _crypto_scenario()
    parent = os.getpid()
    secret = ConfinedSecret(b"enclave-only")
    payload = runner_module.request_payload

    def revealing_payload(config, index):
        if os.getpid() != parent:
            secret.reveal(f"debug-dump-{index}")
        return payload(config, index)

    monkeypatch.setattr(runner_module, "request_payload", revealing_payload)
    runner = VirtualRunner(config)
    runner.run()
    leaked = taint_events()
    reset_taint()  # leave the autouse guard clean
    indices = [int(purpose.removeprefix("debug-dump-")) for purpose in leaked]
    # exactly the worker's half, each job once
    order = _job_order(runner)
    assert indices == [order[k] for k in _worker_half(order)]


def test_virtual_request_that_ends_after_its_timeout_is_recorded_timed_out(monkeypatch):
    timeout_s = 0.5
    monkeypatch.setattr(ModelProfile, "service_time", lambda self, node, rng: 1.2 * timeout_s)
    config = dataclasses.replace(
        small_scenario(duration=3.0), workload=WorkloadSettings(rate_per_s=8.0, timeout_s=timeout_s)
    )
    runner = VirtualRunner(config)
    report = runner.run()
    assert report.sent > 0 and report.rejected == 0
    assert report.timed_out == len(report.records) == report.sent
    for record in report.records:
        assert record.complete_ts == record.send_ts + timeout_s
        assert record.latency == timeout_s
    for endpoint in runner.vs.endpoints():
        assert endpoint.active_connections == 0


@pytest.mark.parametrize("early_s, status", [(1e-6, STATUS_OK), (0.0, STATUS_TIMEOUT)])
def test_virtual_response_exactly_at_its_deadline_is_timed_out(monkeypatch, early_s, status):
    timeout_s = 0.5
    monkeypatch.setattr(ModelProfile, "service_time", lambda self, node, rng: timeout_s - early_s)
    config = dataclasses.replace(
        small_scenario(duration=3.0),
        parallelism=64,  # every request starts service at its send time
        workload=WorkloadSettings(rate_per_s=8.0, timeout_s=timeout_s),
    )
    report = run_scenario(config)
    assert report.sent > 0 and len(report.records) == report.sent
    assert all(record.status == status for record in report.records)


def test_connection_counters_drain_to_zero():
    runner = VirtualRunner(small_scenario(interference="high"))
    runner.run()
    assert runner.vs is not None
    for endpoint in runner.vs.endpoints():
        assert endpoint.active_connections == 0


def test_rr_under_heavy_interference_times_out_and_conserves():
    config = small_scenario(algorithm="rr", interference="high", duration=12.0, rate=60.0)
    config = dataclasses.replace(
        config,
        interference=(dataclasses.replace(config.interference[0], windows=((2.0, 10.0),)),),
        workload=WorkloadSettings(rate_per_s=60.0, timeout_s=3.0),
    )
    report = run_scenario(config)
    assert report.timed_out > 0
    assert report.sent == report.completed + report.timed_out + report.rejected + report.in_flight_at_cutoff


def test_sgx_aware_quiescent_without_interference():
    report = run_scenario(small_scenario(algorithm="sgx_aware", interference="none"))
    assert report.weight_events == []
    assert report.slo_met


def test_sgx_aware_run_logs_weight_events():
    config = small_scenario(algorithm="sgx_aware", interference="high", duration=12.0)
    config = dataclasses.replace(
        config,
        interference=(dataclasses.replace(config.interference[0], windows=((1.0, 9.0),)),),
    )
    report = run_scenario(config)
    kinds = [(e.endpoint_id, e.new) for e in report.weight_events]
    assert ("r0", 0) in kinds and ("r0", 1) in kinds


def test_autoscale_scenario_reaches_target_band():
    # start from one replica of a three-slot pool and let utilization grow it
    from enclaveserve.harness.scenario import AutoscaleSettings

    config = build_scaling_scenario("mobilenet_v1_float", 3, seed=3)
    config = dataclasses.replace(
        config,
        duration_s=30.0,
        parallelism=2,
        autoscale=AutoscaleSettings(
            enabled=True, target_utilization=0.5, min_replicas=1, max_replicas=3, cooldown_s=3.0
        ),
        workload=WorkloadSettings(rate_per_s=150.0),
    )
    runner = VirtualRunner(config)
    runner.run()
    assert runner.vs is not None
    assert len(runner.vs.endpoints()) == 3  # 150 rps of 20 ms work needs 3 pairs of cores


def with_tick_log(runner_class):
    """`runner_class` noting, after every control tick, the count the
    reconciler was asked for and each endpoint with its weight."""

    class TickLogged(runner_class):
        def __init__(self, config):
            super().__init__(config)
            self.tick_log = []

        def _tick(self):
            super()._tick()
            self.tick_log.append(
                (
                    self.clock.now(),
                    self.reconciler.desired,
                    {ep.endpoint_id: (ep, ep.weight) for ep in self.vs.endpoints()},
                )
            )

    return TickLogged


def demo_scenario(**changes):
    return dataclasses.replace(load_scenario(SCENARIOS / "autoscale-demo.yaml"), **changes)


@pytest.mark.parametrize("algorithm", ["sed", "sgx_aware"])
def test_autoscale_demo_stops_what_it_drains(algorithm):
    # 40 rps needs one replica: the first scale-up is undone within the run
    config = demo_scenario(
        algorithm=algorithm,
        slo=SloSettings(boundary_pages_per_s=PROFILED_BOUNDARIES["mobilenet_v1_float"]),
        workload=WorkloadSettings(rate_per_s=40.0),
    )
    runner = with_tick_log(VirtualRunner)(config)
    report = runner.run()
    assert len(report.records) == report.sent
    cooldown = config.autoscale.cooldown_s
    log = runner.tick_log
    # the autoscaler scales from the count it decided, once per cooldown
    changes = [log[i][0] for i in range(1, len(log)) if log[i][1] != log[i - 1][1]]
    assert all(b - a >= cooldown for a, b in zip(changes, changes[1:]))
    drains = [e for e in report.weight_events if e.reason == "scale-down-drain"]
    assert drains
    assert not [e for e in report.weight_events if e.reason == "interference-clear"]
    for event in drains:
        k = next(i for i, (now, _, _) in enumerate(log) if now == event.ts)
        drained = log[k][2][event.endpoint_id][0]
        later = [eps.get(event.endpoint_id) for _, _, eps in log[k + 1 :]]
        assert any(entry is None or entry[0] is not drained for entry in later)  # stopped
        for i, entry in enumerate(later, start=k + 1):
            if entry and entry[1] == 1:
                # it serves again only on a scale-up decided after the cooldown
                assert log[i][1] > log[i - 1][1] and log[i][0] - event.ts >= cooldown
                break
    now, desired, endpoints = log[-1]
    assert len(endpoints) == desired == 1


MISTAKES = ("key", "epc", "placement", "payload", "window", "autoscale", "slo", "t_ref")


@st.composite
def raw_scenarios(draw):
    """Scenario YAML as written: 1-4 nodes, random placements, every
    algorithm, SLO and autoscale settings (sgx_aware with autoscale too),
    interference windows, payloads and timeouts, paging reference rates,
    and runs of at most 1 s.
    About one in three carries one mistake that `validate()` must catch."""
    mistake = draw(st.sampled_from((None,) * 14 + MISTAKES))
    duration = draw(st.sampled_from([0.25, 0.5, 1.0]))
    node_ids = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    nodes = [{"id": n, "epc_mib": draw(st.sampled_from([8, 93]))} for n in node_ids]
    replicas = [
        {"id": f"r{i}", "node": draw(st.sampled_from(node_ids))}
        for i in range(draw(st.integers(1, 4)))
    ]
    windows, t = [], 0.0
    for _ in range(draw(st.integers(0, 2))):
        start = t + draw(st.sampled_from([0.0, 0.1]))
        t = start + draw(st.sampled_from([0.05, 0.1, 0.15]))
        windows.append([start, t])
    max_replicas = draw(st.integers(1, len(replicas)))
    policies = {
        "autoscale": {
            "enabled": draw(st.booleans()),
            "target_utilization": draw(st.sampled_from([0.1, 0.5, 1.0])),
            "min_replicas": draw(st.integers(1, max_replicas)),
            "max_replicas": max_replicas,
            "cooldown_s": draw(st.sampled_from([0.0, 0.2, 30.0])),
        }
    }
    algorithm = draw(st.sampled_from(["rr", "lc", "sed", "sgx_aware"]))
    if algorithm == "sgx_aware" or draw(st.booleans()):
        policies["slo"] = {
            "boundary_pages_per_s": draw(st.sampled_from([100.0, 4950.0])),
            "theta": draw(st.sampled_from([0.5, 1.0])),
            "consecutive_cycles": draw(st.integers(1, 3)),
            "sample_interval_s": draw(st.sampled_from([0.05, 0.1, 0.25])),
        }
    raw = {
        "name": "generated",
        "seed": draw(st.integers(0, 9)),
        "duration_s": duration,
        "cluster": {
            "t_ref_pages_per_s": draw(st.sampled_from([1e3, 1e4, 1e5])),
            "nodes": nodes,
        },
        "aecs": {"replicas": [{"id": "aecs-0", "node": draw(st.sampled_from(node_ids))}]},
        "service": {
            "id": "svc",
            "model": draw(st.sampled_from(sorted(PRESETS))),
            "algorithm": algorithm,
            "parallelism": draw(st.integers(1, 3)),
            "replicas": replicas,
        },
        "policies": policies,
        "workload": {
            "rate_per_s": draw(st.sampled_from([5.0, 40.0, 120.0])),
            "payload_bytes": draw(st.sampled_from([1, 64, 150528])),
            "timeout_s": draw(st.sampled_from([0.01, 0.1, 10.0])),
        },
        "interference": [
            {"node": draw(st.sampled_from(node_ids)), "windows": windows, "epc_mib": 93,
             "rate_pages_per_s": 145000.0}
        ] if windows else [],
    }
    if mistake == "key":
        # a key that no field takes, such as a misspelling or the retired `cores`
        section = draw(st.sampled_from([raw, nodes[0], replicas[0], raw["workload"]]))
        section[draw(st.sampled_from(["cores", "thetha", "timeout"]))] = 1
    elif mistake == "epc":
        nodes[-1]["epc_mib"] = 0
    elif mistake == "placement":
        replicas[-1]["node"] = "elsewhere"
    elif mistake == "payload":
        raw["workload"]["payload_bytes"] = draw(st.sampled_from([0, MAX_FRAME]))
    elif mistake == "window":
        raw["interference"] = [{"node": node_ids[0], "windows": [[0.1, duration + 0.1]],
                                "epc_mib": 93, "rate_pages_per_s": 145000.0}]
    elif mistake == "autoscale":
        policies["autoscale"].update(enabled=True, max_replicas=len(replicas) + 1)
    elif mistake == "slo":
        raw["service"]["algorithm"] = "sgx_aware"
        policies.pop("slo", None)
    elif mistake == "t_ref":
        raw["cluster"]["t_ref_pages_per_s"] = draw(st.sampled_from([0.0, -1.0, math.inf, math.nan]))
    return raw


@settings(max_examples=200, derandomize=True, deadline=None)
@given(raw=raw_scenarios())
def test_every_valid_scenario_runs_to_completion_on_the_virtual_clock(raw):
    try:
        config = from_dict(raw)
    except ConfigInvalid:
        return
    runner = VirtualRunner(config)
    report = runner.run()
    # a virtual run drains: every arrival is sent once and recorded once
    assert report.sent == len(runner.arrivals) == len(report.records)


# -- report emission ---------------------------------------------------------------------


def test_emit_is_deterministic_per_report(tmp_path):
    report = run_scenario(small_scenario(seed=11))
    first = emit_report(report, tmp_path / "a")
    second = emit_report(report, tmp_path / "b")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()


def test_summary_p99_matches_recomputation_from_csv(tmp_path):
    report = run_scenario(small_scenario(seed=12))
    emit_report(report, tmp_path)
    rows = load_latencies(tmp_path)
    recomputed = percentile([lat for lat, _ in rows], 99)
    summary = (tmp_path / "summary.txt").read_text()
    assert f"p99_s={recomputed!r}" in summary


def test_weights_csv_row_count_matches_actuations(tmp_path):
    config = small_scenario(algorithm="sgx_aware", interference="high", duration=12.0)
    config = dataclasses.replace(
        config,
        interference=(dataclasses.replace(config.interference[0], windows=((1.0, 9.0),)),),
    )
    report = run_scenario(config)
    emit_report(report, tmp_path)
    lines = (tmp_path / "weights.csv").read_text().splitlines()
    assert len(lines) - 1 == len(report.weight_events)


def test_latencies_render_parses_back():
    report = run_scenario(small_scenario(seed=13))
    text = render_latencies(report)
    assert text.startswith("send_ts,complete_ts,endpoint,latency,status\n")
    assert len(text.splitlines()) == len(report.records) + 1


def test_summarize_dir(tmp_path):
    report = run_scenario(small_scenario(seed=14))
    emit_report(report, tmp_path)
    text = summarize_dir(tmp_path)
    assert f"records={len(report.records)}" in text


@pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,r0,fast,ok"], ids=["short", "not-a-number"])
def test_summarize_dir_names_the_line_it_cannot_read(tmp_path, row):
    report = run_scenario(small_scenario(duration=2.0, seed=14))
    emit_report(report, tmp_path)
    path = tmp_path / "latencies.csv"
    lines = path.read_text().splitlines()
    lines.insert(3, row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IoFailure, match=rf"latencies\.csv line 4\b"):
        summarize_dir(tmp_path)


# -- CLI ----------------------------------------------------------------------------------


def scenario_yaml(tmp_path) -> Path:
    raw = {
        "name": "cli-demo",
        "seed": 2,
        "duration_s": 5.0,
        "cluster": {"nodes": [{"id": "n1"}, {"id": "n2"}]},
        "aecs": {"replicas": [{"id": "a0", "node": "n2"}]},
        "service": {
            "id": "svc",
            "model": "mobilenet_v1_float",
            "algorithm": "sed",
            "replicas": [{"id": "r0", "node": "n1"}, {"id": "r1", "node": "n2"}],
        },
        "workload": {"rate_per_s": 30.0},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_cli_run_writes_artifacts(tmp_path, capsys):
    path = scenario_yaml(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out)]) == 0
    for name in ("latencies.csv", "weights.csv", "epc.csv", "service.csv", "summary.txt"):
        assert (out / name).exists()
    assert "p99_s=" in capsys.readouterr().out


def test_cli_seed_override_is_deterministic(tmp_path, capsys):
    path = scenario_yaml(tmp_path)
    assert cli_main(["run", str(path), "--seed", "123"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["run", str(path), "--seed", "123"]) == 0
    assert capsys.readouterr().out == first


def test_cli_report_roundtrip(tmp_path, capsys):
    path = scenario_yaml(tmp_path)
    out = tmp_path / "out"
    cli_main(["run", str(path), "--out", str(out)])
    capsys.readouterr()
    assert cli_main(["report", str(out)]) == 0
    assert "p99_s=" in capsys.readouterr().out


def test_cli_profile(tmp_path, capsys):
    assert cli_main(["profile", "mobilenet_v1_float", "--slo", "100", "--out", str(tmp_path)]) == 0
    output = capsys.readouterr().out
    assert "boundary_pages_per_s=" in output
    assert (tmp_path / "profile-mobilenet_v1_float.csv").exists()


def test_cli_profile_reports_an_unattainable_slo(capsys):
    # 1 ms is below mobilenet's idle p99, so there is no boundary to print
    assert cli_main(["profile", "mobilenet_v1_float", "--slo", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: p99 ") and "exceeds SLO 0.0010s" in err


def test_cli_run_reports_an_out_directory_it_cannot_create(tmp_path, capsys):
    path = scenario_yaml(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli_main(["run", str(path), "--out", str(blocker / "sub")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report to ") and not captured.out


def test_cli_profile_reports_an_unknown_model_on_stderr(capsys):
    assert cli_main(["profile", "foo", "--slo", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown model 'foo'") and not captured.out


def test_cli_profile_reports_an_out_directory_it_cannot_create(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["profile", "mobilenet_v1_float", "--slo", "100", "--out", str(blocker / "x")]
    assert cli_main(args) == 1
    assert capsys.readouterr().err.startswith("error: cannot write profile to ")


def test_cli_rejects_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("just a string")
    assert cli_main(["run", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


# -- real-clock smoke -----------------------------------------------------------------------


def test_real_clock_smoke():
    config = small_scenario(duration=1.5, rate=12.0, seed=21)
    config = dataclasses.replace(
        config, workload=WorkloadSettings(rate_per_s=12.0, timeout_s=5.0)
    )
    runner = RealRunner(config)
    report = runner.run()
    assert report.sent > 0
    assert report.completed > 0
    assert runner.handshakes_full >= 1 and runner.handshakes_resumed >= 1
    assert report.completed <= runner.handshakes_full + runner.handshakes_resumed
    assert runner.handshakes_full + runner.handshakes_resumed <= report.sent - report.rejected
    assert (
        report.sent
        == report.completed + report.timed_out + report.rejected + report.in_flight_at_cutoff
    )
    ok_latencies = [r.latency for r in report.records if r.status == "ok"]
    # base 20 ms plus scheduler jitter; a sleeping-clock run stays well under a second
    assert all(0.018 <= lat < 2.0 for lat in ok_latencies)


def short_real_scenario(**changes):
    config = small_scenario(duration=1.5, rate=12.0, seed=21)
    return dataclasses.replace(
        config, workload=WorkloadSettings(rate_per_s=12.0, timeout_s=5.0), **changes
    )


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
def test_every_shipped_scenario_runs_on_the_real_clock(path):
    config = from_dict(scaled_to(yaml.safe_load(path.read_text()), 1.5))
    before = set(threading.enumerate())
    report = RealRunner(config).run()
    assert report.sent > 0
    assert len(report.records) == report.sent
    assert [t for t in threading.enumerate() if t not in before] == []


def test_real_autoscale_demo_reaches_max_replicas_within_ten_seconds():
    config = demo_scenario(duration_s=10.0)
    runner = with_tick_log(RealRunner)(config)
    report = runner.run()
    assert len(report.records) == report.sent and report.timed_out == 0
    assert max(len(endpoints) for _, _, endpoints in runner.tick_log) == 3
    assert all(not listener.thread.is_alive() for listener in runner.listeners.values())


class _RetireLogged(RealRunner):
    """Notes each listener the reconciler retires, and when."""

    def __init__(self, config):
        super().__init__(config)
        self.retired = []

    def _retire_replica(self, replica):
        listener = self.listeners[replica.replica_id]
        super()._retire_replica(replica)
        self.retired.append((listener, self.clock.now()))


def refuses(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
    except ConnectionRefusedError:
        return True
    return False


def test_real_scale_down_closes_the_retired_listener(monkeypatch):
    # saturated until r1 is in service, then idle: one scale-up, then one
    # scale-down, however late the ticks run
    r1_seen = False

    def utilization(replica, window, now):
        nonlocal r1_seen
        r1_seen = r1_seen or replica.replica_id == "r1"
        return float(not r1_seen)

    monkeypatch.setattr(runner_module, "replica_cpu_utilization", utilization)
    config = short_real_scenario(
        algorithm="rr",
        slo=SloSettings(boundary_pages_per_s=4950.0, sample_interval_s=0.25),
        autoscale=AutoscaleSettings(
            enabled=True, target_utilization=0.5, min_replicas=1, max_replicas=2, cooldown_s=0.0
        ),
    )
    before = set(threading.enumerate())
    runner = _RetireLogged(config)
    report = runner.run()
    assert len(report.records) == report.sent
    [(listener, retired_at)] = runner.retired
    assert listener.replica.replica_id == "r1" and retired_at < config.duration_s
    assert not listener.thread.is_alive() and refuses(listener.port)
    assert all(r.send_ts < retired_at for r in report.records if r.endpoint == "r1")
    assert [t for t in threading.enumerate() if t not in before] == []


class _CrashingRealRunner(_RetireLogged):
    """Crashes r1 at 0.9 s; at 1.4 s, after the tick at 1.0 s, checks that
    its old listener refuses connections and a new one is up."""

    def _schedule(self):
        super()._schedule()
        self.clock.call_at(0.9, self._crash)
        self.clock.call_at(1.4, self._probe)

    def _crash(self):
        self.crashed_listener = self.listeners["r1"]
        crash_replica(self.reconciler.replicas["r1"])

    def _probe(self):
        current = self.listeners["r1"]
        self.probe = (refuses(self.crashed_listener.port), current is not self.crashed_listener,
                      current.thread.is_alive())


def test_real_crash_restart_replaces_the_listener():
    config = short_real_scenario(
        algorithm="rr",
        slo=SloSettings(boundary_pages_per_s=4950.0, sample_interval_s=0.25),
        duration_s=2.0,
    )
    before = set(threading.enumerate())
    runner = _CrashingRealRunner(config)
    report = runner.run()
    assert runner.probe == (True, True, True)
    [(listener, restarted_at)] = runner.retired
    assert listener is runner.crashed_listener and restarted_at >= 0.9
    assert len(report.records) == report.sent
    # the new listener served r1's share once the restart was done
    assert any(r.status == STATUS_OK and r.send_ts > restarted_at
               for r in report.records if r.endpoint == "r1")
    assert [t for t in threading.enumerate() if t not in before] == []


def test_real_clock_capture_holds_handshakes_and_no_secrets():
    runner = RealRunner(short_real_scenario(capture_traffic=True))
    report = runner.run()
    assert report.completed > 1
    capture = runner.traffic_capture
    # keystore RPCs from the shared build (ProvisionPki per replica), then
    # every client-side frame
    assert sum(blob.startswith(b"\x01\x03") for blob in capture) == 3
    assert any(blob.startswith(b"hs1c") for blob in capture)
    assert any(blob.startswith(b"hs1r") for blob in capture)
    assert any(blob.startswith(b"rec1") for blob in capture)
    needles = [runner.aecs_replicas[0]._storage_key.reveal("audit")]
    for endpoint in runner.vs.endpoints():
        needles.append(endpoint.replica.pki.private_key.private_bytes("audit"))
        needles.append(endpoint.replica.pki.ticket_key)
    held = runner.tickets.lookup(runner.expected_cert)
    assert held is not None
    needles.append(held.psk)
    for needle in needles:
        assert all(needle not in blob for blob in capture)


class _PartitionedRealRunner(RealRunner):
    """Marks node-c unreachable once the cluster is built, before any tick."""

    def _build_cluster(self, sealed_root):
        super()._build_cluster(sealed_root)
        self.substrate.node("node-c").unreachable = True


def test_real_clock_control_survives_unreachable_node():
    config = short_real_scenario(
        algorithm="sgx_aware",
        slo=SloSettings(boundary_pages_per_s=4950.0, sample_interval_s=0.25),
    )
    runner = _PartitionedRealRunner(config)
    report = runner.run()
    assert report.completed > 0
    assert runner.telemetry_gaps > 0
    assert runner.controller is not None and runner.controller.missing_cycles > 0
    rows_by_node = {"node-a": 0, "node-b": 0, "node-c": 0}
    for row in report.epc_rows:
        rows_by_node[row.split(",")[1]] += 1
    assert rows_by_node["node-c"] == 0
    assert rows_by_node["node-a"] >= 2 and rows_by_node["node-b"] >= 2


class _TimedRealRunner(RealRunner):
    """Notes the clock when set-up ends and the schedule is queued."""

    def _schedule(self):
        queued = super()._schedule()
        self.scheduled_at = self.clock.now()
        return queued


def test_real_clock_runs_interference_and_ticks_on_its_schedule(monkeypatch):
    timers = []

    class CountingTimer(threading.Timer):
        def __init__(self, *args, **kwargs):
            timers.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(threading, "Timer", CountingTimer)
    interval = 0.25
    config = small_scenario(interference="high", duration=1.5, rate=12.0, seed=21)
    config = dataclasses.replace(
        config,
        workload=WorkloadSettings(rate_per_s=12.0, timeout_s=5.0),
        slo=SloSettings(boundary_pages_per_s=4950.0, sample_interval_s=interval),
        interference=(dataclasses.replace(config.interference[0], windows=((0.5, 1.0),)),),
    )
    runner = _TimedRealRunner(config)
    report = runner.run()
    assert timers == []
    assert report.completed > 0
    rows = [row for row in report.epc_rows if row.split(",")[1] == "node-a"]
    assert len(rows) == int(config.duration_s / interval) + 1
    for k, row in enumerate(rows):
        due = k * interval
        ts = float(row.split(",")[0])
        # no tick runs early; one overdue at the end of set-up runs at once
        assert due <= ts < max(due, runner.scheduled_at) + 0.1
        assert ("stress-node-a" in row) == (0.5 <= due < 1.0)


def test_real_request_that_ends_after_its_timeout_is_recorded_timed_out(monkeypatch):
    timeout_s = 0.5

    def slow_server_handshake(*args, **kwargs):
        time.sleep(0.6 * timeout_s)  # the ServerHello comes 0.3 s late
        return server_handshake(*args, **kwargs)

    monkeypatch.setattr(runner_real, "server_handshake", slow_server_handshake)
    monkeypatch.setattr(ModelProfile, "service_time", lambda self, node, rng: 0.6 * timeout_s)
    config = small_scenario(duration=1.0, rate=4.0, seed=21)
    config = dataclasses.replace(
        config, workload=WorkloadSettings(rate_per_s=4.0, timeout_s=timeout_s)
    )
    runner = RealRunner(config)
    report = runner.run()
    assert report.sent > 0 and report.rejected == 0
    # each handshake finished inside the deadline; each response came after it
    assert runner.handshakes_full + runner.handshakes_resumed == report.sent
    assert report.completed == 0
    assert report.timed_out == report.sent
    assert all(r.latency == timeout_s for r in report.records)


def test_real_request_that_fails_unexpectedly_is_recorded_timed_out(monkeypatch):
    def broken_decode(response):
        raise ValueError("undecodable response")

    monkeypatch.setattr(runner_real, "decode_inference_response", broken_decode)
    timeout_s = 0.5
    config = dataclasses.replace(
        small_scenario(duration=1.0, rate=8.0, seed=21),
        workload=WorkloadSettings(rate_per_s=8.0, timeout_s=timeout_s),
    )
    report = RealRunner(config).run()
    assert report.sent > 0 and report.rejected == 0
    assert report.timed_out == len(report.records) == report.sent
    for record in report.records:
        assert record.complete_ts == record.send_ts + timeout_s
        assert record.latency == timeout_s


def test_real_run_leaves_no_thread_behind(monkeypatch):
    # one slot per replica, 100 ms of service and a 50 ms deadline: requests
    # queue at the replicas and their clients give up
    monkeypatch.setattr(ModelProfile, "service_time", lambda self, node, rng: 0.1)
    config = dataclasses.replace(
        small_scenario(duration=1.0, rate=40.0, seed=21),
        parallelism=1,
        workload=WorkloadSettings(rate_per_s=40.0, timeout_s=0.05),
    )
    before = set(threading.enumerate())
    report = RealRunner(config).run()
    assert report.timed_out > 0
    assert [t for t in threading.enumerate() if t not in before] == []


def test_real_runner_keeps_only_request_threads_still_running():
    config = dataclasses.replace(
        small_scenario(duration=1.5, rate=40.0, seed=21),
        workload=WorkloadSettings(rate_per_s=40.0, timeout_s=5.0),
    )
    runner = RealRunner(config)
    report = runner.run()
    assert report.sent > 40
    assert len(runner._workers) < report.sent // 4
    assert not any(thread.is_alive() for thread in runner._workers)


def test_real_clock_serves_the_largest_payload_validate_accepts():
    config = dataclasses.replace(
        small_scenario(duration=2.0, rate=2.0, seed=21),
        workload=WorkloadSettings(rate_per_s=2.0, payload_bytes=MAX_FRAME - 36, timeout_s=20.0),
    )
    before = set(threading.enumerate())
    report = RealRunner(config).run()
    assert report.sent > 0
    assert [record.status for record in report.records] == [STATUS_OK] * report.sent
    assert [t for t in threading.enumerate() if t not in before] == []
