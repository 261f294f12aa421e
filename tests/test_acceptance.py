"""Acceptance gate: every exit criterion, checked at its stated tolerance.

Each test prints one PASS line once its criterion holds; comparison runs
use the scaled scenarios (60 s virtual runs, interference windows at
[12, 24] s and [36, 48] s) on the virtual clock.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from enclaveserve import crypto
from enclaveserve.aecs.service import AECS_MEASUREMENT, AecsDeployment, AecsReplica
from enclaveserve.aecs.store import MemoryStore
from enclaveserve.channel.errors import RecordTampered, ReplayDetected
from enclaveserve.channel.handshake import handshake_in_process
from enclaveserve.channel.record import open_record, seal_record
from enclaveserve.clock import EventLoop, RealClock
from enclaveserve.confine import taint_events
from enclaveserve.control.profiler import DEFAULT_SWEEP_MIB, profile_boundary
from enclaveserve.control.slo import NodeObservation, SloController, SloSettings
from enclaveserve.harness.report import emit_report
from enclaveserve.harness.runner import VirtualRunner, run_scenario
from enclaveserve.harness.scenario import build_lb_scenario, build_scaling_scenario
from enclaveserve.profiles import PRESETS
from enclaveserve.serving.frontend import Endpoint, VirtualService
from enclaveserve.substrate.attest import EnclaveReport, verify_report
from enclaveserve.substrate.errors import AttestationError
from enclaveserve.substrate.node import MIB, EnclaveSpec, Substrate

from .conftest import make_node_spec

MODELS = tuple(PRESETS)
ALGORITHMS = ("rr", "lc", "sed", "sgx_aware")
SEED = 42


def run_matrix(interference: str) -> dict[str, dict[str, float]]:
    """p99 per model per algorithm; asserts the per-scenario runtime target."""
    table: dict[str, dict[str, float]] = {}
    for model in MODELS:
        table[model] = {}
        for algorithm in ALGORITHMS:
            config = build_lb_scenario(model, algorithm, interference, seed=SEED)
            started = time.monotonic()
            report = run_scenario(config)
            elapsed = time.monotonic() - started
            assert elapsed < 30.0, f"{config.name} took {elapsed:.1f}s (target < 30s)"
            table[model][algorithm] = report.percentile(99)
    return table


def test_criterion_1_lb_ordering_under_high_interference():
    table = run_matrix("high")
    for model in MODELS:
        slo = PRESETS[model].slo_s
        p99 = table[model]
        assert p99["sgx_aware"] <= slo, f"{model}: sgx-aware p99 {p99['sgx_aware']:.3f} > SLO"
        assert p99["sgx_aware"] < p99["sed"], f"{model}: sgx-aware not below sed"
        assert p99["rr"] >= max(p99.values()), f"{model}: rr is not the worst"
    print("ACCEPTANCE 1 lb-ordering-high-interference: PASS")


def test_criterion_2_lb_equivalence_under_low_interference():
    table = run_matrix("low")
    for model in MODELS:
        slo = PRESETS[model].slo_s
        p99 = table[model]
        assert all(v <= slo for v in p99.values()), f"{model}: SLO violated at low interference"
        spread = max(p99.values()) / min(p99.values())
        assert spread <= 1.30, f"{model}: p99 spread {spread:.2f} exceeds 30%"
    print("ACCEPTANCE 2 lb-equivalence-low-interference: PASS")


def test_criterion_3_linear_scalability():
    for model in MODELS:
        single = run_scenario(build_scaling_scenario(model, 1, seed=SEED))
        triple = run_scenario(build_scaling_scenario(model, 3, seed=SEED))
        ratio = triple.throughput_rps / single.throughput_rps
        assert 3.0 * 0.9 <= ratio <= 3.0 * 1.1, f"{model}: throughput ratio {ratio:.2f}"
        p99_ratio = triple.percentile(99) / single.percentile(99)
        assert 0.8 <= p99_ratio <= 1.2, f"{model}: p99 ratio {p99_ratio:.2f}"
    print("ACCEPTANCE 3 linear-scalability: PASS")


def test_criterion_4_paging_latency_monotonicity():
    assert len(DEFAULT_SWEEP_MIB) >= 5
    for model in MODELS:
        profile = PRESETS[model]
        result, boundary = profile_boundary(profile, profile.slo_s, seed=SEED)
        throughputs = [p.avg_paging_throughput for p in result.points]
        assert throughputs == sorted(throughputs)
        for series in ("p90", "p95", "p99"):
            values = [getattr(p, series) for p in result.points]
            assert values == sorted(values), f"{model}: {series} not nondecreasing"
        # independent idle estimate: direct draws from the jittered stub
        rng = random.Random(987654)
        draws = sorted(profile.sample_base_time(rng) for _ in range(2000))
        idle_p99 = draws[int(0.99 * 2000) - 1]
        zero = result.points[0]
        assert zero.avg_paging_throughput == 0.0
        assert zero.p99 == pytest.approx(idle_p99, rel=0.10)
    print("ACCEPTANCE 4 paging-latency-monotonicity: PASS")


# -- criterion 5: controller automaton ------------------------------------------------


class ReferenceAutomaton:
    """Brute-force restatement of the control rule: weight drops only after
    >= N consecutive above-threshold cycles, resumes only on a clear node."""

    def __init__(self, threshold: float, n: int) -> None:
        self.threshold = threshold
        self.n = n
        self.streak = 0
        self.weight = 1

    def step(self, throughput: float | None, interference_clear: bool) -> int:
        if throughput is None:
            self.streak = 0
            return self.weight
        self.streak = self.streak + 1 if throughput > self.threshold else 0
        if self.weight == 1 and self.streak >= self.n:
            self.weight = 0
        elif self.weight == 0 and interference_clear:
            self.weight = 1
        return self.weight


class _Attr:
    def __init__(self, **kwargs):
        self.__dict__.update(kwargs)


def _controller(boundary=1000.0):
    vs = VirtualService("svc", "sed")
    replica = _Attr(
        node=_Attr(node_id="node-0"), enclave=_Attr(spec=_Attr(enclave_id="svc/r0"))
    )
    vs.add_endpoint(Endpoint(endpoint_id="r0", replica=replica))
    settings = SloSettings(
        boundary_pages_per_s=boundary, theta=0.70, consecutive_cycles=5, sample_interval_s=1.0
    )
    return SloController(settings, vs), vs


def test_criterion_5_controller_automaton_conformance():
    rng = random.Random(20240604)
    boundary = 1000.0
    threshold = 0.70 * boundary
    traces = 10_000
    steps = 40
    never_exceeding_traces = 0
    zeroings_on_safe_traces = 0
    for _ in range(traces):
        controller, vs = _controller(boundary)
        reference = ReferenceAutomaton(threshold, 5)
        max_streak = 0
        streak = 0
        zeroed = False
        for _ in range(steps):
            missing = rng.random() < 0.06
            throughput = None if missing else rng.uniform(0, boundary * 1.6)
            clear = rng.random() < 0.5
            enclaves = (
                (("svc/r0", False), ("aecs", True))
                if clear
                else (("svc/r0", False), ("stress", False))
            )
            actions = controller.step({"node-0": NodeObservation(throughput, enclaves)})
            expected = reference.step(throughput, clear)
            assert vs.endpoint("r0").weight == expected
            if any(a.weight == 0 for a in actions):
                zeroed = True
            if throughput is not None and throughput > threshold:
                streak += 1
                max_streak = max(max_streak, streak)
            else:
                streak = 0
        if max_streak < 5:
            never_exceeding_traces += 1
            if zeroed:
                zeroings_on_safe_traces += 1
    assert never_exceeding_traces > 100  # the negative space was actually sampled
    assert zeroings_on_safe_traces == 0
    print(
        f"ACCEPTANCE 5 controller-automaton ({traces} traces, "
        f"{never_exceeding_traces} below-threshold): PASS"
    )


# -- criterion 6: bootstrap race ----------------------------------------------------------


def test_criterion_6_bootstrap_race_and_restart_drill(tmp_path):
    repetitions = 100
    for rep in range(repetitions):
        loop = EventLoop()
        substrate = Substrate(loop)
        store = MemoryStore()
        deployment = AecsDeployment(
            measurement=AECS_MEASUREMENT, registry=substrate.registry, store=store
        )
        replicas = []
        rep_dir = tmp_path / f"rep{rep}"
        rep_dir.mkdir()
        for i in range(3):
            node = substrate.add_node(make_node_spec(f"n{rep}-{i}", seed=rep * 10 + i))
            enclave = node.launch_enclave(
                EnclaveSpec(f"aecs-{i}", AECS_MEASUREMENT, 16 * MIB, 8 * MIB, system_enclave=True)
            )
            replicas.append(
                AecsReplica(
                    f"a{i}", enclave, deployment, rep_dir / f"a{i}.sealed",
                    random.Random(rep * 1000 + i), RealClock(),
                )
            )
        threads = [threading.Thread(target=r.bootstrap) for r in replicas]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert deployment.generation_events == 1, f"rep {rep}: {deployment.generation_events} generations"
        keys = {r._storage_key.reveal("audit") for r in replicas}
        assert len(keys) == 1, f"rep {rep}: keys diverged"

        if rep == 0:
            # full-cluster restart drill on the first repetition
            cert = replicas[0].create_service_pki("svc", crypto.sha256(b"model"))
            for r in replicas:
                r.shutdown()
            revived = AecsDeployment(
                measurement=AECS_MEASUREMENT, registry=substrate.registry, store=store
            )
            fresh = [
                AecsReplica(
                    f"a{i}", replicas[i].enclave, revived, rep_dir / f"a{i}.sealed",
                    random.Random(5000 + i), RealClock(),
                )
                for i in range(3)
            ]
            for r in fresh:
                r.bootstrap()
            assert revived.ra_fetch_calls == 0
            assert revived.generation_events == 0
            assert fresh[2].get_certificate("svc").encode() == cert.encode()
    print(f"ACCEPTANCE 6 bootstrap-race ({repetitions} repetitions): PASS")


# -- criterion 7: security invariants ---------------------------------------------------------


def test_criterion_7_security_invariants(tmp_path):
    # (a) forged/mutated attestation reports: 1e4 rejections
    loop = EventLoop()
    substrate = Substrate(loop)
    node = substrate.add_node(make_node_spec("victim"))
    measurement = crypto.sha256(b"model")
    enclave = node.launch_enclave(EnclaveSpec("m", measurement, 96 * MIB, 60 * MIB, 0.0))
    genuine = enclave.create_report(crypto.sha256(b"binding"))
    rng = random.Random(777)
    rejected = 0
    for _ in range(10_000):
        mode = rng.randrange(4)
        measurement_f = bytearray(genuine.measurement)
        data_f = bytearray(genuine.report_data)
        tag_f = bytearray(genuine.platform_tag)
        node_id_f = genuine.node_id
        if mode == 0:
            tag_f[rng.randrange(32)] ^= 1 << rng.randrange(8)
        elif mode == 1:
            measurement_f[rng.randrange(32)] ^= 1 << rng.randrange(8)
        elif mode == 2:
            data_f[rng.randrange(32)] ^= 1 << rng.randrange(8)
        else:
            tag_f = bytearray(rng.randbytes(32))  # forge without the platform key
        forged = EnclaveReport(bytes(measurement_f), node_id_f, bytes(data_f), bytes(tag_f))
        try:
            verify_report(forged, measurement, substrate.registry)
        except AttestationError:
            rejected += 1
    assert rejected == 10_000

    # (b) end-to-end byte scan: store plus wire traffic of a captured run
    config = build_lb_scenario("mobilenet_v1_float", "sgx_aware", "high", seed=7,
                               capture_traffic=True)
    import dataclasses

    from enclaveserve.harness.scenario import WorkloadSettings

    config = dataclasses.replace(
        config, duration_s=15.0, workload=WorkloadSettings(rate_per_s=40.0),
        interference=(dataclasses.replace(config.interference[0], windows=((3.0, 9.0),)),),
    )
    runner = VirtualRunner(config)
    runner.run()
    needles = [runner.aecs_replicas[0]._storage_key.reveal("audit")]
    assert runner.vs is not None
    for endpoint in runner.vs.endpoints():
        needles.append(endpoint.replica.pki.private_key.private_bytes("audit"))
        needles.append(endpoint.replica.pki.ticket_key)
    held = runner.tickets.lookup(runner.expected_cert)
    assert held is not None
    needles.append(held.psk)
    haystacks = list(runner.store.dump().values()) + runner.traffic_capture
    assert len(runner.traffic_capture) > 1000
    # the capture carries the handshakes, and all but the first resumed:
    # client hellos carrying the ticket, server hellos answering "hs1r"
    assert runner.handshakes_full == 1 and runner.handshakes_resumed > 0
    offers = [b for b in runner.traffic_capture if b.startswith(b"hs1c") and held.ticket in b]
    resumed = [blob for blob in runner.traffic_capture if blob.startswith(b"hs1r")]
    assert len(offers) == len(resumed) == runner.handshakes_resumed
    for needle in needles:
        assert all(needle not in blob for blob in haystacks)

    # (c) tampered records: every single-byte corruption rejected
    from enclaveserve.channel.certs import generate_pki

    pki = generate_pki("svc", random.Random(5))
    client, server = handshake_in_process(pki.certificate, pki, random.Random(6), random.Random(7))
    for _ in range(500):
        record = seal_record(client, rng.randbytes(48))
        corrupted = bytearray(record)
        corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
        with pytest.raises((RecordTampered, ReplayDetected)):
            open_record(server, bytes(corrupted))
        open_record(server, record)

    # (d) confinement: no taint anywhere in this test (the autouse fixture
    # enforces the same across the whole suite)
    assert taint_events() == []
    print("ACCEPTANCE 7 security-invariants: PASS")


# -- criterion 8: scheduler oracle -------------------------------------------------------------


def reference_pick(algorithm: str, conns: list[int], weights: list[int], cursor: int) -> int:
    if algorithm == "rr":
        n = len(weights)
        for step in range(1, n + 1):
            idx = (cursor + step) % n
            if weights[idx] == 1:
                return idx
        raise AssertionError("no eligible endpoint")
    eligible = [i for i, w in enumerate(weights) if w == 1]
    if algorithm == "lc":
        return min(eligible, key=lambda i: (conns[i], i))
    return min(eligible, key=lambda i: ((conns[i] + 1) / weights[i], i))


def test_criterion_8_scheduler_oracle_equivalence():
    rng = random.Random(31337)
    cases = 0
    while cases < 10_000:
        algorithm = rng.choice(("rr", "lc", "sed"))
        n = rng.randint(1, 6)
        weights = [rng.randint(0, 1) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        conns = [rng.choice((0, 0, 1, 1, 2, 5, rng.randint(0, 100))) for _ in range(n)]
        vs = VirtualService("svc", algorithm)
        for i in range(n):
            vs.add_endpoint(
                Endpoint(endpoint_id=f"e{i}", replica=None, weight=weights[i],
                         active_connections=conns[i])
            )
        cursor = -1
        for _ in range(rng.randint(1, 20)):
            picked = vs.pick_endpoint()
            expected = reference_pick(algorithm, conns, weights, cursor)
            assert picked.endpoint_id == f"e{expected}", (algorithm, conns, weights, cursor)
            assert weights[expected] == 1  # weight-0 exclusion
            if algorithm == "rr":
                cursor = expected
            cases += 1
            if rng.random() < 0.3:
                conns[expected] += 1
                picked.active_connections += 1
    print(f"ACCEPTANCE 8 scheduler-oracle ({cases} picks): PASS")


# -- criterion 9: determinism -------------------------------------------------------------------


def test_criterion_9_virtual_clock_determinism(tmp_path):
    scenarios = (
        build_lb_scenario("mobilenet_v1_quant", "sgx_aware", "high", seed=77),
        build_scaling_scenario("efficientnet_lite_float", 3, seed=78),
    )
    for index, config in enumerate(scenarios):
        first = emit_report(run_scenario(config), tmp_path / f"{index}-a")
        second = emit_report(run_scenario(config), tmp_path / f"{index}-b")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes(), (
                f"{config.name}: {key} differs between identical runs"
            )
    print("ACCEPTANCE 9 determinism: PASS")
