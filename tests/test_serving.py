from __future__ import annotations

import dataclasses
import random
import socket
import threading
from types import SimpleNamespace

import pytest

from enclaveserve import crypto
from enclaveserve.aecs import AecsDeployment, AecsReplica, MemoryStore
from enclaveserve.aecs.service import AECS_MEASUREMENT
from enclaveserve.channel import TransportClosed, client_handshake, open_record, seal_record
from enclaveserve.channel.transport import SocketTransport
from enclaveserve.harness.runner_real import _ReplicaListener
from enclaveserve.profiles import PRESETS
from enclaveserve.serving import (
    Endpoint,
    NoEligibleEndpoint,
    ProvisioningFailed,
    UnknownEndpoint,
    VirtualService,
    crash_replica,
    decode_inference_response,
    replica_cpu_utilization,
    start_replica,
)
from enclaveserve.substrate.node import EnclaveSpec, MIB
from enclaveserve.substrate.paging import overflow_throughput

from .conftest import make_node_spec

MODEL_MEASUREMENT = crypto.sha256(b"model-code")


def model_spec(eid: str, measurement: bytes = MODEL_MEASUREMENT) -> EnclaveSpec:
    return EnclaveSpec(
        enclave_id=eid,
        measurement=measurement,
        requested_epc_bytes=96 * MIB,
        working_set_bytes=60 * MIB,
        page_access_rate=2000.0,
    )


@pytest.fixture
def stack(substrate, tmp_path):
    """Three nodes, a bootstrapped keystore, and a registered service."""
    nodes = [substrate.add_node(make_node_spec(f"node-{i}", seed=i)) for i in range(3)]
    deployment = AecsDeployment(
        measurement=AECS_MEASUREMENT, registry=substrate.registry, store=MemoryStore()
    )
    aecs_enclave = nodes[0].launch_enclave(
        EnclaveSpec("aecs-0", AECS_MEASUREMENT, 16 * MIB, 8 * MIB, system_enclave=True)
    )
    keystore = AecsReplica(
        "a0", aecs_enclave, deployment, tmp_path / "a0.sealed", random.Random(9), nodes[0].clock
    )
    keystore.bootstrap()
    client = keystore.client()
    client.create_service_pki("svc", MODEL_MEASUREMENT)
    return substrate, nodes, client


def start(client, node, rid, parallelism=1, measurement=MODEL_MEASUREMENT):
    return start_replica(
        service_id="svc",
        replica_id=rid,
        aecs_client=client,
        node=node,
        enclave_spec=model_spec(f"svc/{rid}", measurement),
        rng=random.Random(hash(rid) & 0xFFFF),
        parallelism=parallelism,
    )


def unjittered(base):
    """A replica's service-time rule for a profile of base time `base` with
    its jitter off, so each service time is exact."""
    profile = dataclasses.replace(
        PRESETS["mobilenet_v1_float"], base_time_s=base, jitter_sigma=0.0
    )
    return lambda replica: profile.service_time(replica.node, random.Random(0))


def listener_runner(clock):
    """What a replica listener uses of its runner, serving for 1 ms."""
    return SimpleNamespace(
        clock=clock, session_rng=lambda: random.Random(5), service_time=unjittered(0.001)
    )


# -- provisioning ----------------------------------------------------------------------


def test_all_replicas_hold_byte_identical_certificates(stack):
    _, nodes, client = stack
    replicas = [start(client, nodes[i], f"r{i}") for i in range(3)]
    certs = {r.certificate.encode() for r in replicas}
    assert len(certs) == 1
    assert certs.pop() == client.get_certificate("svc").encode()


def test_wrong_measurement_replica_fails_provisioning(stack):
    _, nodes, client = stack
    with pytest.raises(ProvisioningFailed):
        start(client, nodes[0], "rx", measurement=crypto.sha256(b"tampered-build"))
    # the failed enclave was torn down again
    assert nodes[0].enclave_handle("svc/rx") is None


def test_crashed_replica_reprovisions_same_certificate(stack):
    _, nodes, client = stack
    replica = start(client, nodes[1], "r1")
    cert_before = replica.certificate.encode()
    crash_replica(replica)
    again = start(client, nodes[1], "r1")
    assert again.certificate.encode() == cert_before


def test_failover_same_expected_certificate(stack):
    # a client that pinned the service certificate can re-establish a
    # session against any replica
    _, nodes, client = stack
    a = start(client, nodes[0], "ra")
    b = start(client, nodes[1], "rb")
    expected = client.get_certificate("svc")
    from enclaveserve.channel import handshake_in_process

    for replica in (a, b):
        c_sess, s_sess = handshake_in_process(
            expected, replica.pki, random.Random(1), random.Random(2)
        )
        assert open_record(s_sess, seal_record(c_sess, b"ping")) == b"ping"


# -- inference latency ------------------------------------------------------------------


def test_idle_service_time_is_exact_base(stack):
    _, nodes, client = stack
    replica = start(client, nodes[2], "r2")
    assert unjittered(0.020)(replica) == pytest.approx(0.020)


def test_interference_inflates_to_five_x_at_reference(stack):
    _, nodes, client = stack
    replica = start(client, nodes[2], "r2")
    node = nodes[2]
    # drive paging to exactly t_ref: overflow fraction x total rate = 1e4
    # ws 60 + 93 = 153 on 93 usable: fraction 60/153; rate 2000 + x
    fraction = 60 / 153
    extra_rate = 1e4 / fraction - 2000.0
    stress = EnclaveSpec("stress", crypto.sha256(b"i"), 93 * MIB, 93 * MIB, extra_rate)
    node.launch_enclave(stress)
    specs = [replica.enclave.spec, stress]
    assert overflow_throughput(node.spec.epc_usable_bytes, specs) == pytest.approx(1e4)
    assert unjittered(0.020)(replica) == pytest.approx(0.100)


def test_connection_accounting_balances(stack):
    _, nodes, client = stack
    replica = start(client, nodes[0], "r0")
    tokens = [replica.begin_request(now) for now in (0.0, 0.1, 0.2)]
    # three open requests, each busy for the whole of a later window
    assert replica.busy_time(1.0, 2.0) == pytest.approx(3.0)
    for token in tokens:
        replica.end_request(token, 0.5)
    assert replica.busy_time(1.0, 2.0) == 0.0


# -- frontend scheduling ------------------------------------------------------------------


def make_vs(algorithm, conns, weights):
    vs = VirtualService("svc", algorithm)
    for i, (c, w) in enumerate(zip(conns, weights)):
        ep = Endpoint(endpoint_id=f"e{i}", replica=None, weight=w, active_connections=c)
        vs.add_endpoint(ep)
    return vs


def test_sed_picks_min_expected_delay():
    # (conns+1)/weight over [3, 0, 5] all weight 1 -> endpoint 1
    vs = make_vs("sed", [3, 0, 5], [1, 1, 1])
    assert vs.pick_endpoint().endpoint_id == "e1"


def test_rr_skips_weight_zero():
    vs = make_vs("rr", [0, 0, 0], [1, 0, 1])
    picks = [vs.pick_endpoint().endpoint_id for _ in range(6)]
    assert picks == ["e0", "e2", "e0", "e2", "e0", "e2"]


def test_lc_tie_breaks_on_lowest_index():
    vs = make_vs("lc", [1, 1], [1, 1])
    assert vs.pick_endpoint().endpoint_id == "e0"


def test_weight_restored_endpoint_rejoins_rotation_in_place():
    vs = make_vs("rr", [0, 0, 0], [1, 1, 1])
    assert [vs.pick_endpoint().endpoint_id for _ in range(3)] == ["e0", "e1", "e2"]
    vs.set_hold("e1", "paging", True, ts=0.0, reason="")
    assert [vs.pick_endpoint().endpoint_id for _ in range(2)] == ["e0", "e2"]
    vs.set_hold("e1", "paging", False, ts=0.0, reason="")
    # cursor sits at e2: rotation resumes with e0, then e1 at its old slot
    assert [vs.pick_endpoint().endpoint_id for _ in range(3)] == ["e0", "e1", "e2"]


def test_weight_zero_receives_nothing():
    vs = make_vs("rr", [0, 0, 0], [1, 1, 1])
    vs.set_hold("e1", "drain", True, ts=0.0, reason="")
    picks = [vs.pick_endpoint().endpoint_id for _ in range(1000)]
    assert "e1" not in picks


def test_all_weights_zero_raises():
    vs = make_vs("sed", [0, 0], [0, 0])
    with pytest.raises(NoEligibleEndpoint):
        vs.pick_endpoint()


def test_unknown_endpoint():
    vs = make_vs("rr", [0], [1])
    with pytest.raises(UnknownEndpoint):
        vs.set_hold("ghost", "drain", True, ts=0.0, reason="")


def test_weight_must_be_binary():
    # holds stack, the weight does not: it is 1 exactly when none is held
    vs = make_vs("rr", [0], [1])
    endpoint = vs.endpoint("e0")
    steps = [("paging", True, 0), ("drain", True, 0), ("paging", False, 0),
             ("paging", False, 0), ("drain", False, 1), ("drain", False, 1)]
    for hold, held, weight in steps:
        vs.set_hold("e0", hold, held, ts=0.0, reason=hold)
        assert endpoint.weight == weight
    # one log row per weight change, with the reason of the hold change behind it
    assert [(e.old, e.new, e.reason) for e in vs.weight_log] == [(1, 0, "paging"), (0, 1, "drain")]


def test_scheduler_reference_equivalence_small():
    # brute-force reference rules; the acceptance suite runs the 1e4-case
    # version of this check
    rng = random.Random(77)
    for _ in range(500):
        n = rng.randint(1, 6)
        conns = [rng.randint(0, 20) for _ in range(n)]
        weights = [rng.randint(0, 1) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        for algorithm in ("lc", "sed"):
            vs = make_vs(algorithm, conns, weights)
            expected = reference_pick(algorithm, conns, weights, cursor=-1)
            assert vs.pick_endpoint().endpoint_id == f"e{expected}"


def reference_pick(algorithm, conns, weights, cursor):
    eligible = [i for i, w in enumerate(weights) if w == 1]
    if algorithm == "rr":
        n = len(weights)
        for step in range(1, n + 1):
            idx = (cursor + step) % n
            if weights[idx] == 1:
                return idx
        raise AssertionError
    if algorithm == "lc":
        return min(eligible, key=lambda i: (conns[i], i))
    if algorithm == "sed":
        return min(eligible, key=lambda i: ((conns[i] + 1) / weights[i], i))
    raise AssertionError(algorithm)


def test_concurrent_picks_and_weight_updates_stay_consistent():
    # picks racing weight flips must always see a coherent snapshot:
    # no torn state, no weight-0 endpoint chosen after its flip settles
    vs = make_vs("sed", [0, 0, 0, 0], [1, 1, 1, 1])
    stop = threading.Event()
    errors: list[Exception] = []

    def picker():
        while not stop.is_set():
            try:
                ep = vs.pick_endpoint()
                vs.dispatch(ep)
                vs.complete(ep)
            except NoEligibleEndpoint:
                pass
            except Exception as exc:  # torn state would surface here
                errors.append(exc)
                return

    threads = [threading.Thread(target=picker) for _ in range(4)]
    for t in threads:
        t.start()
    rng = random.Random(3)
    for _ in range(300):
        vs.set_hold(f"e{rng.randrange(4)}", "paging", rng.random() < 0.5, ts=0.0, reason="")
    for i in range(4):
        vs.set_hold(f"e{i}", "drain", True, ts=0.0, reason="")
    stop.set()
    for t in threads:
        t.join()
    assert errors == []
    picks = [0] * 4
    vs.set_hold("e1", "paging", False, ts=0.0, reason="")
    vs.set_hold("e1", "drain", False, ts=0.0, reason="")
    for _ in range(100):
        picks[int(vs.pick_endpoint().endpoint_id[1])] += 1
    assert picks == [0, 100, 0, 0]


# -- utilization ----------------------------------------------------------------------------


def test_idle_replica_utilization_zero(stack):
    _, nodes, client = stack
    replica = start(client, nodes[0], "r0")
    assert replica_cpu_utilization(replica, window=2.0, now=10.0) == 0.0


def test_saturated_single_core_utilization_one(stack):
    _, nodes, client = stack
    replica = start(client, nodes[0], "r0", parallelism=1)
    token = replica.begin_request(0.0)
    replica.end_request(token, 10.0)
    assert replica_cpu_utilization(replica, window=2.0, now=10.0) == pytest.approx(1.0)


def test_fifty_short_requests_half_utilization(stack):
    # 50 requests x 20 ms over a 2 s window on one core -> 0.5
    _, nodes, client = stack
    replica = start(client, nodes[0], "r0", parallelism=1)
    t = 8.0
    for _ in range(50):
        token = replica.begin_request(t)
        replica.end_request(token, t + 0.020)
        t += 0.040
    assert replica_cpu_utilization(replica, window=2.0, now=10.0) == pytest.approx(0.5)


def test_utilization_rejects_bad_window(stack):
    _, nodes, client = stack
    replica = start(client, nodes[0], "r0")
    with pytest.raises(ValueError):
        replica_cpu_utilization(replica, window=0.0, now=1.0)


# -- inference RPC over a real socket ------------------------------------------------------


def test_serve_connection_over_loopback_socket(stack):
    _, nodes, client = stack
    replica = start(client, nodes[0], "r0")
    expected = client.get_certificate("svc")
    listener = _ReplicaListener(replica, listener_runner(nodes[0].clock))
    try:
        with socket.create_connection(("127.0.0.1", listener.port), timeout=5.0) as sock:
            transport = SocketTransport(sock)
            session = client_handshake(transport, expected, random.Random(6))
            transport.send_frame(seal_record(session, b"image-bytes"))
            response = open_record(session, transport.recv_frame(5.0))
    finally:
        listener.stop()
    payload, service_time = decode_inference_response(response)
    assert payload == b"image-bytes"
    assert service_time == pytest.approx(0.001)
    assert replica.busy_time(1.0, 2.0) == 0.0  # no request left open


def test_low_order_client_share_closes_the_connection_without_a_thread_exception(stack):
    # an all-zero X25519 share is a low-order point: the replica must reject
    # the hello and close; the thread that served it must not die on it
    # (pyproject.toml turns an unhandled thread exception into a failure)
    _, nodes, client = stack
    replica = start(client, nodes[0], "r0")
    listener = _ReplicaListener(replica, listener_runner(nodes[0].clock))
    try:
        with socket.create_connection(("127.0.0.1", listener.port), timeout=5.0) as sock:
            transport = SocketTransport(sock)
            transport.send_frame(b"hs1c" + bytes(32) + bytes(32))
            with pytest.raises(TransportClosed):
                transport.recv_frame(5.0)
    finally:
        listener.stop()
    assert not any(thread.is_alive() for thread in listener._connections)
