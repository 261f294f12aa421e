from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass, field

import pytest

from enclaveserve.control import (
    Autoscaler,
    AutoscaleSettings,
    EpcSample,
    InsufficientSamples,
    NodeObservation,
    PlacementFailure,
    Reconciler,
    SloController,
    SloSettings,
    SloUnattainable,
    autoscale_step,
    collect,
    paging_throughput,
    profile_boundary,
)
from enclaveserve.control.errors import NodeUnreachable
from enclaveserve.control.reconcile import DRAIN_TIMEOUT_S
from enclaveserve.profiles import PRESETS, ModelProfile
from enclaveserve.serving import Endpoint, VirtualService
from enclaveserve.substrate.node import EnclaveSpec, MIB
from enclaveserve.substrate.paging import overflow_throughput

from .conftest import make_node_spec


# -- telemetry ------------------------------------------------------------------------


def test_collect_idle_node_deltas_zero(loop, substrate):
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(EnclaveSpec("e", b"\x01" * 32, 96 * MIB, 60 * MIB, 1000.0))
    first = collect(node)
    loop.run(until=1.0)
    second = collect(node)
    assert second.pages_in_total - first.pages_in_total == 0
    assert second.timestamp > first.timestamp


def test_collect_overflow_matches_model_within_quantization(loop, substrate):
    node = substrate.add_node(make_node_spec())
    specs = [
        EnclaveSpec("a", b"\x01" * 32, 96 * MIB, 80 * MIB, 1000.0),
        EnclaveSpec("b", b"\x01" * 32, 96 * MIB, 40 * MIB, 1000.0),
    ]
    for spec in specs:
        node.launch_enclave(spec)
    first = collect(node)
    loop.run(until=1.0)
    second = collect(node)
    delta = (second.pages_in_total + second.pages_out_total) - (
        first.pages_in_total + first.pages_out_total
    )
    assert delta == pytest.approx(overflow_throughput(node.spec.epc_usable_bytes, specs), abs=2)


def test_collect_unreachable_node(loop, substrate):
    node = substrate.add_node(make_node_spec())
    node.unreachable = True
    with pytest.raises(NodeUnreachable):
        collect(node)


def test_telemetry_requires_strictly_increasing_timestamps(loop, substrate):
    node = substrate.add_node(make_node_spec())
    first = collect(node)
    with pytest.raises(InsufficientSamples):
        paging_throughput([first, collect(node)])  # clock has not advanced


def sample(ts, pages_in, pages_out, node_id="n"):
    return EpcSample(node_id, ts, pages_in, pages_out, ())


def test_paging_throughput_arithmetic():
    # deltas of 300 in + 200 out over one second
    assert paging_throughput([sample(0.0, 0, 0), sample(1.0, 300, 200)]) == pytest.approx(500.0)


def test_paging_throughput_constant_counters():
    assert paging_throughput([sample(0.0, 5, 5), sample(2.0, 5, 5)]) == 0.0


def test_paging_throughput_needs_two_samples():
    with pytest.raises(InsufficientSamples):
        paging_throughput([sample(0.0, 0, 0)])


# -- SLO controller -------------------------------------------------------------------


@dataclass
class FakeEnclaveSpec:
    enclave_id: str


@dataclass
class FakeEnclave:
    spec: FakeEnclaveSpec


@dataclass
class FakeNode:
    node_id: str


@dataclass
class FakeReplica:
    node: FakeNode
    enclave: FakeEnclave


def controller_fixture(n_endpoints=1, boundary=1000.0, theta=0.70, cycles=5):
    vs = VirtualService("svc", "sed")
    for i in range(n_endpoints):
        replica = FakeReplica(FakeNode(f"node-{i}"), FakeEnclave(FakeEnclaveSpec(f"svc/r{i}")))
        vs.add_endpoint(Endpoint(endpoint_id=f"r{i}", replica=replica))
    settings = SloSettings(boundary_pages_per_s=boundary, theta=theta, consecutive_cycles=cycles)
    return SloController(settings, vs), vs


def obs(throughput, interference=True, own="svc/r0"):
    enclaves = ((own, False),)
    if interference:
        enclaves += (("stress", False),)
    return NodeObservation(throughput=throughput, enclaves=enclaves)


def test_five_consecutive_above_threshold_zeroes_weight():
    # the paper-tuned defaults: five cycles at 70% of the boundary
    controller, vs = controller_fixture()
    assert SloSettings(boundary_pages_per_s=1000.0) == SloSettings(1000.0, 0.70, 5)
    assert controller.threshold == pytest.approx(700.0)
    for cycle in range(4):
        controller.step({"node-0": obs(800.0)})
        assert vs.endpoint("r0").weight == 1
    controller.step({"node-0": obs(800.0)})
    assert vs.endpoint("r0").weight == 0


def test_streak_resets_on_single_below_sample():
    controller, vs = controller_fixture()
    for _ in range(4):
        controller.step({"node-0": obs(800.0)})
    controller.step({"node-0": obs(100.0)})  # below 0.7 x 1000
    for _ in range(4):
        controller.step({"node-0": obs(800.0)})
    assert vs.endpoint("r0").weight == 1


def test_weight_restored_when_interference_gone():
    controller, vs = controller_fixture()
    for _ in range(5):
        controller.step({"node-0": obs(800.0)})
    assert vs.endpoint("r0").weight == 0
    # paging stopped but a foreign enclave still resides: stay at 0
    controller.step({"node-0": obs(0.0, interference=True)})
    assert vs.endpoint("r0").weight == 0
    # only the replica itself (plus system enclaves) left: resume
    controller.step(
        {"node-0": NodeObservation(0.0, enclaves=(("svc/r0", False), ("aecs", True)))}
    )
    assert vs.endpoint("r0").weight == 1


def test_missing_telemetry_resets_streak_and_is_counted():
    controller, vs = controller_fixture()
    for _ in range(4):
        controller.step({"node-0": obs(800.0)})
    controller.step({"node-0": NodeObservation(throughput=None)})
    assert controller.missing_cycles == 1
    for _ in range(4):
        controller.step({"node-0": obs(800.0)})
    assert vs.endpoint("r0").weight == 1


def test_missing_cycles_counts_cycles_not_endpoints():
    controller, _ = controller_fixture(n_endpoints=3)
    controller.step({f"node-{i}": NodeObservation(throughput=None) for i in range(3)})
    assert controller.missing_cycles == 1
    controller.step({})
    assert controller.missing_cycles == 2


def test_quiescent_without_interference():
    controller, vs = controller_fixture(n_endpoints=3)
    for _ in range(50):
        actions = controller.step(
            {f"node-{i}": obs(0.0, interference=False, own=f"svc/r{i}") for i in range(3)}
        )
        assert actions == []
    assert vs.weight_log == []


# reference automaton, implemented independently for conformance checks
class ReferenceAutomaton:
    def __init__(self, theta_b: float, n: int) -> None:
        self.threshold = theta_b
        self.n = n
        self.streak = 0
        self.weight = 1

    def step(self, throughput: float | None, interference_clear: bool) -> int:
        if throughput is None:
            self.streak = 0
            return self.weight
        if throughput > self.threshold:
            self.streak += 1
        else:
            self.streak = 0
        if self.weight == 1 and self.streak >= self.n:
            self.weight = 0
        elif self.weight == 0 and interference_clear:
            self.weight = 1
        return self.weight


def test_controller_matches_reference_automaton_small():
    rng = random.Random(123)
    for _ in range(200):
        controller, vs = controller_fixture()
        reference = ReferenceAutomaton(theta_b=700.0, n=5)
        for _ in range(60):
            missing = rng.random() < 0.05
            throughput = None if missing else rng.choice([0.0, 400.0, 650.0, 710.0, 900.0, 5000.0])
            clear = rng.random() < 0.4
            enclaves = (("svc/r0", False),) if clear else (("svc/r0", False), ("stress", False))
            controller.step({"node-0": NodeObservation(throughput, enclaves)})
            expected = reference.step(throughput, clear)
            assert vs.endpoint("r0").weight == expected


# -- autoscaler ------------------------------------------------------------------------


def policy(**kwargs):
    defaults = dict(
        enabled=True, target_utilization=0.6, min_replicas=1, max_replicas=10, cooldown_s=30.0
    )
    defaults.update(kwargs)
    return AutoscaleSettings(**defaults)


def test_autoscale_ceil_formula():
    # ceil(3 x 0.9 / 0.6) = 5
    assert autoscale_step(policy(), 3, [0.9, 0.9, 0.9]) == 5


def test_autoscale_at_target_is_stable():
    assert autoscale_step(policy(), 4, [0.6, 0.6, 0.6, 0.6]) == 4


def test_autoscale_holds_with_no_in_service_replicas():
    assert autoscale_step(policy(), 3, []) == 3


def test_autoscale_clamps():
    assert autoscale_step(policy(max_replicas=4), 3, [1.0, 1.0, 1.0]) == 4
    assert autoscale_step(policy(min_replicas=2), 3, [0.01, 0.01, 0.01]) == 2


def test_autoscale_uses_in_service_count_not_total():
    # 2 in-service replicas at 90% with a third zeroed: ceil(2 x .9 / .6) = 3
    assert autoscale_step(policy(), 3, [0.9, 0.9]) == 3


def test_cooldown_suppresses_changes():
    scaler = Autoscaler(policy(cooldown_s=10.0))
    assert scaler.step(0.0, 3, [0.9, 0.9, 0.9]) == 5
    assert scaler.step(5.0, 5, [0.2] * 5) == 5  # inside cooldown
    assert scaler.step(11.0, 5, [0.2] * 5) == 2


def test_fixed_point_no_oscillation():
    scaler = Autoscaler(policy(cooldown_s=2.0))
    count = 3
    for t in range(40):
        # stationary load: utilization consistent with the current count
        util = 0.58
        count = scaler.step(float(t), count, [util] * count)
    assert count == 3


# -- reconciler ------------------------------------------------------------------------


@dataclass
class StubEnclave:
    running: bool = True

    @property
    def spec(self):
        return FakeEnclaveSpec("stub")


@dataclass
class StubReplica:
    replica_id: str
    node: FakeNode
    enclave: StubEnclave = field(default_factory=StubEnclave)
    crashed: bool = False


def make_reconciler(n_slots=5):
    vs = VirtualService("svc", "rr")
    started = []

    def starter(replica_id, node_id):
        replica = StubReplica(replica_id, FakeNode(node_id))
        started.append(replica_id)
        return replica

    def stopper(replica):
        # stub replicas have no substrate enclave to stop
        replica.enclave.running = False

    placements = [(f"r{i}", f"node-{i}") for i in range(n_slots)]
    return Reconciler(vs, placements, starter, stopper), vs, started


def test_scale_up_starts_missing_replicas():
    reconciler, vs, started = make_reconciler()
    actions = reconciler.step(0.0, 3)
    assert [a.kind for a in actions] == ["start", "start", "start"]
    actions = reconciler.step(1.0, 5)
    assert [a.kind for a in actions] == ["start", "start"]
    assert len(vs.endpoints()) == 5


def test_crash_restored_on_next_cycle():
    reconciler, vs, started = make_reconciler()
    reconciler.step(0.0, 3)
    crashed = reconciler.replicas["r1"]
    crashed.crashed = True
    actions = reconciler.step(1.0, 3)
    assert [(a.kind, a.replica_id) for a in actions] == [("restart", "r1")]
    assert not reconciler.replicas["r1"].crashed
    assert reconciler.replicas["r1"] is not crashed and not crashed.enclave.running
    assert len(vs.endpoints()) == 3


def test_scale_down_drains_then_stops():
    reconciler, vs, started = make_reconciler()
    reconciler.step(0.0, 3)
    vs.endpoint("r2").active_connections = 2
    actions = reconciler.step(1.0, 2)
    assert [(a.kind, a.replica_id) for a in actions] == [("drain", "r2")]
    assert vs.endpoint("r2").weight == 0
    # still draining: connections outstanding, timeout not reached
    assert reconciler.step(2.0, 2) == []
    vs.endpoint("r2").active_connections = 0
    victim = reconciler.replicas["r2"]
    actions = reconciler.step(3.0, 2)
    assert [(a.kind, a.replica_id) for a in actions] == [("stop", "r2")]
    assert len(vs.endpoints()) == 2
    assert not victim.enclave.running


def test_scale_down_stops_after_drain_timeout():
    reconciler, vs, started = make_reconciler()
    reconciler.step(0.0, 2)
    vs.endpoint("r1").active_connections = 9
    reconciler.step(1.0, 1)
    assert reconciler.step(1.0 + DRAIN_TIMEOUT_S - 0.5, 1) == []
    actions = reconciler.step(1.0 + DRAIN_TIMEOUT_S, 1)
    assert [a.kind for a in actions] == ["stop"]


def test_placement_failure():
    reconciler, vs, started = make_reconciler(n_slots=2)
    with pytest.raises(PlacementFailure):
        reconciler.step(0.0, 3)


# -- controller, autoscaler and reconciler together ----------------------------------


class ReferenceControlPlane:
    """Brute-force restatement of one control tick: the paging rule, the
    autoscaler's cooldown on the count it last decided, and drain-before-
    stop with crash restarts. An endpoint carries traffic exactly when it
    is neither paging-held nor draining."""

    def __init__(self, slots, threshold, cycles, target, min_replicas, max_replicas, cooldown):
        self.slots = slots
        self.threshold, self.cycles = threshold, cycles
        self.target, self.min, self.max, self.cooldown = target, min_replicas, max_replicas, cooldown
        self.live = {}  # replica id -> {"paging", "draining_since", "crashed"}
        self.streak = {}  # per replica id, kept across restarts: it measures the node
        self.count = min_replicas
        self.last_change = None
        self.seen = dict.fromkeys(
            ("paging", "release", "missing", "up", "down", "crash", "stop", "held-while-draining"), 0
        )
        self._reconcile(0.0, {})

    def weights(self):
        return {
            rid: int(not s["paging"] and s["draining_since"] is None) for rid, s in self.live.items()
        }

    def crash(self, rid):
        self.live[rid]["crashed"] = True
        self.seen["crash"] += 1

    def tick(self, now, observations, utils, conns):
        for rid, s in self.live.items():
            throughput, clear = observations[rid]
            if throughput is None:
                self.streak[rid] = 0
                self.seen["missing"] += 1
                continue
            self.streak[rid] = self.streak.get(rid, 0) + 1 if throughput > self.threshold else 0
            if not s["paging"] and self.streak[rid] >= self.cycles:
                s["paging"] = True
                self.seen["paging"] += 1
                if s["draining_since"] is not None:
                    self.seen["held-while-draining"] += 1
            elif s["paging"] and clear:
                s["paging"] = False
                self.seen["release"] += 1
        in_service = [utils[rid] for rid, w in sorted(self.weights().items()) if w == 1]
        in_cooldown = self.last_change is not None and now - self.last_change < self.cooldown
        if in_service and not in_cooldown:
            n = len(in_service)
            wanted = math.ceil(n * (sum(in_service) / n) / self.target)
            wanted = max(self.min, min(self.max, wanted))
            if wanted != self.count:
                self.seen["up" if wanted > self.count else "down"] += 1
                self.count, self.last_change = wanted, now
        self._reconcile(now, conns)

    def _reconcile(self, now, conns):
        target = self.slots[: self.count]
        fresh = {"paging": False, "draining_since": None, "crashed": False}
        for rid in target:
            if rid not in self.live or self.live[rid]["crashed"]:
                self.live[rid] = dict(fresh)
        for rid in list(self.live):
            s = self.live[rid]
            if rid in target:
                s["draining_since"] = None
            elif s["draining_since"] is None:
                s["draining_since"] = now
            elif conns[rid] == 0 or now - s["draining_since"] >= DRAIN_TIMEOUT_S:
                del self.live[rid]
                self.seen["stop"] += 1


def test_control_plane_matches_reference_over_random_traces():
    rng = random.Random(20261019)
    slots = [f"r{i}" for i in range(4)]
    totals = collections.Counter()
    for _ in range(250):
        cooldown = rng.choice([0.0, 2.0, 3.0])
        cycles = rng.choice([1, 2, 3])
        vs = VirtualService("svc", "sed")
        controller = SloController(
            SloSettings(1000.0, theta=0.7, consecutive_cycles=cycles), vs
        )
        scaler = Autoscaler(policy(target_utilization=0.5, max_replicas=4, cooldown_s=cooldown))

        def starter(replica_id, node_id):
            return StubReplica(replica_id, FakeNode(node_id))

        def stopper(replica):
            replica.enclave.running = False

        reconciler = Reconciler(vs, [(r, f"node-{r}") for r in slots], starter, stopper)
        reconciler.step(0.0, 1)
        reference = ReferenceControlPlane(slots, 700.0, cycles, 0.5, 1, 4, cooldown)
        for tick in range(1, 41):
            now = float(tick)
            if reconciler.replicas and rng.random() < 0.06:
                rid = rng.choice(sorted(reconciler.replicas))
                reconciler.replicas[rid].crashed = True
                reconciler.replicas[rid].enclave.running = False
                reference.crash(rid)
            truth, node_obs, utils, conns = {}, {}, {}, {}
            for rid in slots:
                throughput = None if rng.random() < 0.08 else rng.choice([0.0, 400.0, 900.0, 5000.0])
                clear = rng.random() < 0.3
                enclaves = (("aecs", True),) if clear else (("aecs", True), ("stress", False))
                truth[rid] = (throughput, clear)
                node_obs[f"node-{rid}"] = NodeObservation(throughput, enclaves)
                # dyadic utilizations sum exactly in any order
                utils[rid] = rng.choice([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
                conns[rid] = rng.choice([0, 0, 1, 3])
            for ep in vs.endpoints():
                ep.active_connections = conns[ep.endpoint_id]
            # one control tick, as ClusterRunner._tick wires it
            controller.step(node_obs, now)
            in_service = [utils[ep.endpoint_id] for ep in vs.endpoints() if ep.weight == 1]
            reconciler.step(now, scaler.step(now, reconciler.desired, in_service))
            reference.tick(now, truth, utils, conns)
            assert {ep.endpoint_id: ep.weight for ep in vs.endpoints()} == reference.weights()
            assert reconciler.desired == reference.count
        totals.update(reference.seen)
    # every path of the three loops was exercised
    assert min(totals.values()) > 0, totals
    print(f"control plane vs reference: 250 traces, {dict(totals)}")


# -- profiler --------------------------------------------------------------------------


def test_profiler_percentiles_nondecreasing():
    profile = PRESETS["mobilenet_v1_float"]
    result, boundary = profile_boundary(profile, profile.slo_s, seed=5)
    p99s = [p.p99 for p in result.points]
    p95s = [p.p95 for p in result.points]
    p90s = [p.p90 for p in result.points]
    assert p99s == sorted(p99s)
    assert p95s == sorted(p95s)
    assert p90s == sorted(p90s)
    assert boundary > 0


def test_profiler_zero_point_matches_idle_distribution():
    profile = PRESETS["mobilenet_v1_float"]
    result, _ = profile_boundary(profile, profile.slo_s, seed=5)
    zero_point = result.points[0]
    assert zero_point.avg_paging_throughput == 0.0
    # independent estimate: directly sample the jittered base-time draw
    rng = random.Random(4242)
    draws = sorted(profile.sample_base_time(rng) for _ in range(2000))
    idle_p99 = draws[int(0.99 * 2000) - 1]
    assert zero_point.p99 == pytest.approx(idle_p99, rel=0.10)


def test_profiler_boundary_is_last_safe_point():
    profile = PRESETS["mobilenet_v1_float"]
    result, boundary = profile_boundary(profile, profile.slo_s, seed=5)
    safe = [p.avg_paging_throughput for p in result.points if p.p99 <= profile.slo_s]
    unsafe = [p.avg_paging_throughput for p in result.points if p.p99 > profile.slo_s]
    assert boundary == max(safe)
    assert all(boundary < u for u in unsafe)


def test_profiler_boundary_monotone_in_slo_strictness():
    profile = PRESETS["mobilenet_v1_float"]
    result, _ = profile_boundary(profile, profile.slo_s, seed=5)
    slos = [0.04, 0.06, 0.08, 0.10, 0.15]
    boundaries = [result.boundary_for(slo) for slo in slos]
    assert boundaries == sorted(boundaries)


def test_profiler_unattainable_slo():
    profile = PRESETS["mobilenet_v1_float"]
    with pytest.raises(SloUnattainable):
        profile_boundary(profile, slo=0.001, seed=5)


def test_profiler_respects_custom_sweep():
    profile = ModelProfile(
        profile_id="tiny",
        base_time_s=0.010,
        jitter_sigma=0.0,
        slo_s=0.050,
        enclave_requested_bytes=96 * MIB,
        enclave_working_set_bytes=50 * MIB,
        enclave_page_rate=1000.0,
    )
    result, boundary = profile_boundary(
        profile, profile.slo_s, sweep_epc_bytes=[0, 50 * MIB, 80 * MIB],
        requests_per_point=100, seed=1,
    )
    assert len(result.points) == 3
    assert result.points[0].p99 == pytest.approx(0.010)
