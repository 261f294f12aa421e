from __future__ import annotations

import random
import threading

import pytest

from enclaveserve import crypto
from enclaveserve.aecs import wire
from enclaveserve.aecs.errors import (
    AttestationMismatch,
    BindingMismatch,
    BootstrapTimeout,
    ObjectExists,
    ObjectMissing,
    ServiceExists,
    StoreConflictExhausted,
    StoreError,
    UnknownService,
    VersionConflict,
)
from enclaveserve.aecs.keymap import KeyMap, decrypt_keymap
from enclaveserve.aecs.service import (
    AECS_MEASUREMENT,
    KEYMAP_OBJECT,
    LEADER_OBJECT,
    AecsDeployment,
    AecsReplica,
    decode_pki,
)
from enclaveserve.aecs.store import DirectoryStore, MemoryStore
from enclaveserve.aecs.wire import ProvisionRequest
from enclaveserve.clock import EventLoop, RealClock
from enclaveserve.confine import ConfinedSecret
from enclaveserve.substrate.node import EnclaveSpec, MIB

from .conftest import make_node_spec

MODEL_MEASUREMENT = crypto.sha256(b"model-code")


def aecs_enclave_spec(i: int) -> EnclaveSpec:
    return EnclaveSpec(
        enclave_id=f"aecs-{i}",
        measurement=AECS_MEASUREMENT,
        requested_epc_bytes=16 * MIB,
        working_set_bytes=8 * MIB,
        system_enclave=True,
    )


@pytest.fixture
def cluster(substrate, tmp_path):
    """Three nodes with keystore enclaves launched, ready for replicas."""
    store = MemoryStore()
    deployment = AecsDeployment(
        measurement=AECS_MEASUREMENT, registry=substrate.registry, store=store
    )
    enclaves = []
    for i in range(3):
        node = substrate.add_node(make_node_spec(f"node-{i}", seed=i))
        enclaves.append(node.launch_enclave(aecs_enclave_spec(i)))
    return substrate, deployment, enclaves


def make_replica(deployment, enclave, tmp_path, i: int, seed=None, clock=None) -> AecsReplica:
    """A keystore replica on `clock`: the virtual clock unless a test races
    replicas on threads, which must wait on the wall clock for each other."""
    return AecsReplica(
        replica_id=f"a{i}",
        enclave=enclave,
        deployment=deployment,
        sealed_path=tmp_path / f"a{i}.sealed",
        rng=random.Random(seed if seed is not None else 1000 + i),
        clock=clock if clock is not None else EventLoop(),
    )


def bootstrapped(cluster, tmp_path, n=3, clock=None):
    substrate, deployment, enclaves = cluster
    replicas = []
    for i in range(n):
        replica = make_replica(deployment, enclaves[i], tmp_path, i, clock=clock)
        replica.bootstrap()
        replicas.append(replica)
    return substrate, deployment, replicas


# -- store semantics ----------------------------------------------------------------


class TestStores:
    @pytest.fixture(params=["memory", "directory"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryStore()
        return DirectoryStore(tmp_path / "store")

    def test_create_then_get(self, store):
        assert store.create_if_absent("obj", b"v1") == 1
        assert store.get("obj") == (b"v1", 1)

    def test_create_if_absent_single_winner(self, store):
        store.create_if_absent("obj", b"first")
        with pytest.raises(ObjectExists):
            store.create_if_absent("obj", b"second")
        assert store.get("obj")[0] == b"first"

    def test_cas_succeeds_only_at_current_version(self, store):
        store.create_if_absent("obj", b"v1")
        assert store.put("obj", b"v2", expected_version=1) == 2
        with pytest.raises(VersionConflict):
            store.put("obj", b"v2-again", expected_version=1)
        assert store.get("obj") == (b"v2", 2)

    def test_missing_object(self, store):
        with pytest.raises(ObjectMissing):
            store.get("ghost")
        with pytest.raises(ObjectMissing):
            store.put("ghost", b"x", expected_version=1)

    def test_concurrent_create_exactly_one_winner(self, store):
        winners = []

        def attempt(i):
            try:
                store.create_if_absent("leader", f"r{i}".encode())
                winners.append(i)
            except ObjectExists:
                pass

        threads = [threading.Thread(target=attempt, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 1


def test_directory_store_survives_reopen(tmp_path):
    store = DirectoryStore(tmp_path / "s")
    store.create_if_absent("a/b", b"data")
    store.put("a/b", b"data2", expected_version=1)
    reopened = DirectoryStore(tmp_path / "s")
    assert reopened.get("a/b") == (b"data2", 2)


def test_directory_store_object_file_shorter_than_its_header_is_a_store_error(tmp_path):
    store = DirectoryStore(tmp_path / "s")
    (tmp_path / "s" / "x.obj").write_bytes(b"sto")
    with pytest.raises(StoreError, match="corrupt object file"):
        store.get("x")
    with pytest.raises(StoreError, match="corrupt object file"):
        store.put("x", b"data", expected_version=1)
    with pytest.raises(StoreError, match="corrupt object file"):
        store.create_if_absent("x", b"data")


# -- key map ------------------------------------------------------------------------


def test_keymap_cipher_roundtrip():
    from enclaveserve.aecs.keymap import KeyMapEntry, encrypt_keymap
    from enclaveserve.channel.certs import generate_pki

    keymap = KeyMap(version=3)
    keymap.entries["svc"] = KeyMapEntry(MODEL_MEASUREMENT, generate_pki("svc", random.Random(5)))
    key = ConfinedSecret(random.Random(9).randbytes(32))
    blob = encrypt_keymap(keymap, key, random.Random(10))
    again = decrypt_keymap(blob, key)
    assert again.version == 3
    assert again.entries["svc"].pki.certificate == keymap.entries["svc"].pki.certificate

    from enclaveserve.aecs.errors import AecsError

    with pytest.raises(AecsError):
        decrypt_keymap(blob, ConfinedSecret(b"\x00" * 32))


# -- bootstrap ----------------------------------------------------------------------


def test_sequential_bootstrap_single_generation(cluster, tmp_path):
    _, deployment, replicas = bootstrapped(cluster, tmp_path)
    assert deployment.generation_events == 1
    keys = {r._storage_key.reveal("audit") for r in replicas}
    assert len(keys) == 1


def test_concurrent_bootstrap_race(cluster, tmp_path):
    substrate, deployment, enclaves = cluster
    replicas = [
        make_replica(deployment, enclaves[i], tmp_path, i, clock=RealClock()) for i in range(3)
    ]
    threads = [threading.Thread(target=r.bootstrap) for r in replicas]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert deployment.generation_events == 1
    keys = {r._storage_key.reveal("audit") for r in replicas}
    assert len(keys) == 1
    assert all(r.serving for r in replicas)


def test_restart_recovers_from_sealed_blob_without_fetch(cluster, tmp_path):
    substrate, deployment, replicas = bootstrapped(cluster, tmp_path)
    key_before = replicas[2]._storage_key.reveal("audit")
    replicas[2].shutdown()
    fetches_before = deployment.ra_fetch_calls
    fresh = make_replica(deployment, replicas[2].enclave, tmp_path, 2, seed=777)
    fresh.bootstrap()
    assert deployment.ra_fetch_calls == fetches_before
    assert fresh._storage_key.reveal("audit") == key_before


def test_power_failure_drill_recovers_service_map(cluster, tmp_path):
    substrate, deployment, replicas = bootstrapped(cluster, tmp_path)
    cert = replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    for replica in replicas:
        replica.shutdown()
    # every backend lost the key; same pinned nodes, same sealed files
    revived = AecsDeployment(
        measurement=AECS_MEASUREMENT, registry=substrate.registry, store=deployment.store
    )
    fresh = [make_replica(revived, replicas[i].enclave, tmp_path, i, seed=2000 + i) for i in range(3)]
    for replica in fresh:
        replica.bootstrap()
    assert revived.ra_fetch_calls == 0
    assert revived.generation_events == 0
    assert fresh[1].get_certificate("svc").encode() == cert.encode()


def test_corrupt_sealed_blob_falls_back_to_fetch(cluster, tmp_path):
    substrate, deployment, replicas = bootstrapped(cluster, tmp_path)
    key = replicas[0]._storage_key.reveal("audit")
    replicas[1].shutdown()
    (tmp_path / "a1.sealed").write_bytes(b"garbage")
    fetches_before = deployment.ra_fetch_calls
    fresh = make_replica(deployment, replicas[1].enclave, tmp_path, 1, seed=888)
    fresh.bootstrap()
    assert deployment.ra_fetch_calls == fetches_before + 1
    assert fresh._storage_key.reveal("audit") == key


def test_stale_generation_blob_rejected(cluster, tmp_path):
    substrate, deployment, replicas = bootstrapped(cluster, tmp_path)
    for replica in replicas:
        replica.shutdown()
    # a full re-bootstrap against a wiped store starts a new generation;
    # node 1 keeps its old sealed blob, which must not be accepted
    fresh_store = MemoryStore()
    redeploy = AecsDeployment(
        measurement=AECS_MEASUREMENT, registry=substrate.registry, store=fresh_store
    )
    leader = make_replica(redeploy, replicas[0].enclave, tmp_path, 0, seed=3000)
    leader.bootstrap()
    follower = make_replica(redeploy, replicas[1].enclave, tmp_path, 1, seed=3001)
    follower.bootstrap()
    assert redeploy.ra_fetch_calls >= 1  # stale blob forced the attested fetch
    assert follower._storage_key.reveal("audit") == leader._storage_key.reveal("audit")


def test_peer_fetch_is_one_fetch_storage_key_rpc(cluster, tmp_path, monkeypatch):
    _, deployment, enclaves = cluster
    leader = make_replica(deployment, enclaves[0], tmp_path, 0)
    leader.bootstrap()
    opcodes = []

    def handle_frame(frame, handle_frame=leader.handle_frame):
        opcodes.append(frame[1])
        return handle_frame(frame)

    monkeypatch.setattr(leader, "handle_frame", handle_frame)
    follower = make_replica(deployment, enclaves[1], tmp_path, 1)
    follower.bootstrap()
    assert opcodes == [wire.OP_FETCH_KEY]
    assert deployment.ra_fetch_calls == 1
    assert follower._storage_key == leader._storage_key


def test_bootstrap_timeout_without_any_source(substrate, tmp_path):
    store = MemoryStore()
    store.create_if_absent(LEADER_OBJECT, b"g" * 16)  # election already lost
    deployment = AecsDeployment(
        measurement=AECS_MEASUREMENT, registry=substrate.registry, store=store
    )
    node = substrate.add_node(make_node_spec("lonely"))
    replica = make_replica(deployment, node.launch_enclave(aecs_enclave_spec(0)), tmp_path, 0)
    # every poll of the virtual clock returns at once: the replica gives up
    # after its bounded number of polls without waiting on the wall clock
    with pytest.raises(BootstrapTimeout):
        replica.bootstrap()


# -- PKI lifecycle -------------------------------------------------------------------


def test_create_then_get_returns_byte_identical_certificate(cluster, tmp_path):
    _, _, replicas = bootstrapped(cluster, tmp_path)
    cert = replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    assert replicas[0].get_certificate("svc").encode() == cert.encode()
    assert replicas[2].get_certificate("svc").encode() == cert.encode()


def test_duplicate_service_rejected(cluster, tmp_path):
    _, _, replicas = bootstrapped(cluster, tmp_path)
    replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    with pytest.raises(ServiceExists):
        replicas[1].create_service_pki("svc", MODEL_MEASUREMENT)


def test_unknown_service(cluster, tmp_path):
    _, _, replicas = bootstrapped(cluster, tmp_path)
    with pytest.raises(UnknownService):
        replicas[0].get_certificate("ghost")
    with pytest.raises(UnknownService):
        replicas[0].delete_service_pki("ghost")


def test_create_delete_roundtrip(cluster, tmp_path):
    _, _, replicas = bootstrapped(cluster, tmp_path)
    replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    replicas[1].delete_service_pki("svc")
    with pytest.raises(UnknownService):
        replicas[2].get_certificate("svc")


def test_concurrent_creates_merge_and_advance_version_by_two(cluster, tmp_path):
    _, deployment, replicas = bootstrapped(cluster, tmp_path, clock=RealClock())

    def create(replica, service_id):
        replica.create_service_pki(service_id, MODEL_MEASUREMENT)

    threads = [
        threading.Thread(target=create, args=(replicas[0], "svc-a")),
        threading.Thread(target=create, args=(replicas[1], "svc-b")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    keymap, _ = replicas[2]._load_map()
    assert set(keymap.entries) == {"svc-a", "svc-b"}
    assert keymap.version == 2


def test_delete_concurrent_with_create(cluster, tmp_path):
    _, _, replicas = bootstrapped(cluster, tmp_path, clock=RealClock())
    replicas[0].create_service_pki("old", MODEL_MEASUREMENT)
    threads = [
        threading.Thread(target=replicas[0].delete_service_pki, args=("old",)),
        threading.Thread(
            target=replicas[1].create_service_pki, args=("new", MODEL_MEASUREMENT)
        ),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    keymap, _ = replicas[2]._load_map()
    assert set(keymap.entries) == {"new"}
    assert keymap.version == 3


def test_keymap_version_counts_successful_mutations(cluster, tmp_path):
    _, deployment, replicas = bootstrapped(cluster, tmp_path)
    replicas[0].create_service_pki("s1", MODEL_MEASUREMENT)
    replicas[0].create_service_pki("s2", MODEL_MEASUREMENT)
    replicas[0].delete_service_pki("s1")
    blob, _ = deployment.store.get(KEYMAP_OBJECT)
    keymap = decrypt_keymap(blob, replicas[1]._storage_key)
    assert keymap.version == 3


def test_cas_retries_exhaust(cluster, tmp_path):
    _, deployment, replicas = bootstrapped(cluster, tmp_path)

    inner = deployment.store

    class AlwaysConflict:
        def get(self, name):
            return inner.get(name)

        def put(self, name, data, expected_version):
            raise VersionConflict("induced")

        def create_if_absent(self, name, data):
            return inner.create_if_absent(name, data)

    deployment.store = AlwaysConflict()
    with pytest.raises(StoreConflictExhausted):
        replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)


# -- attested release ------------------------------------------------------------------


def model_enclave(substrate, node_id="node-0", measurement=MODEL_MEASUREMENT, eid="model-1"):
    node = substrate.node(node_id)
    return node.launch_enclave(
        EnclaveSpec(
            enclave_id=eid,
            measurement=measurement,
            requested_epc_bytes=96 * MIB,
            working_set_bytes=60 * MIB,
            page_access_rate=2000.0,
        )
    )


def provision_request(enclave, service_id="svc", rng_seed=50):
    temp = crypto.new_exchange_key(random.Random(rng_seed))
    temp_pub = crypto.exchange_public_bytes(temp.public_key())
    report = enclave.create_report(crypto.sha256(temp_pub))
    return temp, ProvisionRequest(service_id, report, temp_pub)


def test_provision_releases_identical_pki(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    cert = replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    temp, request = provision_request(model_enclave(substrate))
    ciphertext = replicas[1].provision_pki(request)
    pki = decode_pki(crypto.pk_decrypt(temp, ciphertext))
    assert pki.certificate.encode() == cert.encode()


def test_provision_rejects_wrong_measurement(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    rogue = model_enclave(substrate, measurement=crypto.sha256(b"evil"), eid="rogue")
    _, request = provision_request(rogue)
    with pytest.raises(AttestationMismatch):
        replicas[0].provision_pki(request)


def test_provision_rejects_key_substitution(cluster, tmp_path):
    # valid report, but the presented temporary key is not the bound one
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    enclave = model_enclave(substrate)
    _, request = provision_request(enclave)
    attacker_pub = crypto.exchange_public_bytes(
        crypto.new_exchange_key(random.Random(666)).public_key()
    )
    swapped = ProvisionRequest(request.service_id, request.enclave_report, attacker_pub)
    with pytest.raises(BindingMismatch):
        replicas[0].provision_pki(swapped)


def test_provision_unknown_service(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    _, request = provision_request(model_enclave(substrate), service_id="ghost")
    with pytest.raises(UnknownService):
        replicas[0].provision_pki(request)


def test_fetch_storage_key_requires_keystore_measurement(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    # a model-server enclave may not fetch the storage key
    _, request = provision_request(model_enclave(substrate), service_id="aecs")
    with pytest.raises(AttestationMismatch):
        replicas[0].fetch_storage_key(request)


def test_forged_reports_never_release_secrets(cluster, tmp_path):
    # fuzz the release paths themselves: every mutated report must be
    # turned away before any ciphertext is produced
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    replicas[0].create_service_pki("svc", MODEL_MEASUREMENT)
    enclave = model_enclave(substrate)
    _, request = provision_request(enclave)
    rng = random.Random(424242)
    from enclaveserve.substrate.attest import EnclaveReport

    for _ in range(2000):
        report = request.enclave_report
        measurement = bytearray(report.measurement)
        report_data = bytearray(report.report_data)
        tag = bytearray(report.platform_tag)
        field_index = rng.randrange(3)
        target = (measurement, report_data, tag)[field_index]
        target[rng.randrange(32)] ^= 1 << rng.randrange(8)
        forged = ProvisionRequest(
            "svc",
            EnclaveReport(bytes(measurement), report.node_id, bytes(report_data), bytes(tag)),
            request.temp_public_key,
        )
        with pytest.raises((AttestationMismatch, BindingMismatch)):
            replicas[0].provision_pki(forged)
        with pytest.raises((AttestationMismatch, BindingMismatch)):
            replicas[0].fetch_storage_key(forged)


def test_fetch_storage_key_rejects_tampered_report(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    node = substrate.node("node-1")
    enclave = node.launch_enclave(
        EnclaveSpec("aecs-x", AECS_MEASUREMENT, 16 * MIB, 8 * MIB, system_enclave=True)
    )
    temp, request = provision_request(enclave, service_id="aecs")
    from enclaveserve.substrate.attest import EnclaveReport

    bad_tag = bytearray(request.enclave_report.platform_tag)
    bad_tag[3] ^= 0x01
    forged = ProvisionRequest(
        "aecs",
        EnclaveReport(
            request.enclave_report.measurement,
            request.enclave_report.node_id,
            request.enclave_report.report_data,
            bytes(bad_tag),
        ),
        request.temp_public_key,
    )
    with pytest.raises(AttestationMismatch):
        replicas[0].fetch_storage_key(forged)


# -- never-plaintext ---------------------------------------------------------------------


def scan(haystacks: list[bytes], needle: bytes) -> bool:
    return any(needle in blob for blob in haystacks)


def test_store_and_wire_never_hold_plaintext_secrets(cluster, tmp_path):
    substrate, deployment, replicas = bootstrapped(cluster, tmp_path)
    capture: list[bytes] = []
    client = replicas[0].client(capture=capture)
    client.create_service_pki("svc", MODEL_MEASUREMENT)
    client.get_certificate("svc")
    temp, request = provision_request(model_enclave(substrate))
    ciphertext = client.provision_pki(request)
    pki = decode_pki(crypto.pk_decrypt(temp, ciphertext))

    storage_key = replicas[0]._storage_key.reveal("audit")
    private_key = pki.private_key.private_bytes("audit")
    blobs = list(deployment.store.dump().values()) + capture
    assert scan(blobs, b"cert-v1")  # certificates are public and do appear
    assert not scan(blobs, storage_key)
    assert not scan(blobs, private_key)


def test_get_certificate_response_carries_no_private_key(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    capture: list[bytes] = []
    client = replicas[0].client(capture=capture)
    client.create_service_pki("svc", MODEL_MEASUREMENT)
    cert = client.get_certificate("svc")
    temp, request = provision_request(model_enclave(substrate))
    pki = decode_pki(crypto.pk_decrypt(temp, client.provision_pki(request)))
    private_key = pki.private_key.private_bytes("audit")
    response_frames = [f for f in capture if cert.encode() in f]
    assert response_frames
    assert not scan(response_frames, private_key)


# -- wire protocol ---------------------------------------------------------------------


def test_wire_client_roundtrip_and_error_mapping(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    client = replicas[0].client()
    cert = client.create_service_pki("svc", MODEL_MEASUREMENT)
    assert client.get_certificate("svc").encode() == cert.encode()
    with pytest.raises(ServiceExists):
        client.create_service_pki("svc", MODEL_MEASUREMENT)
    with pytest.raises(UnknownService):
        client.get_certificate("ghost")
    client.delete_service_pki("svc")
    with pytest.raises(UnknownService):
        client.get_certificate("svc")


def test_wire_provision_request_roundtrip(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    enclave = model_enclave(substrate)
    _, request = provision_request(enclave)
    encoded = wire.encode_provision(request)
    decoded = wire.decode_provision_body(encoded[2:])
    assert decoded == request


def test_wire_rpc_over_framed_pipe_transport(cluster, tmp_path):
    substrate, _, replicas = bootstrapped(cluster, tmp_path)
    import socket

    from enclaveserve.channel.transport import SocketTransport

    left, right = socket.socketpair()
    client_end, server_end = SocketTransport(left), SocketTransport(right)

    def serve(requests: int) -> None:
        for _ in range(requests):
            server_end.send_frame(replicas[0].handle_frame(server_end.recv_frame(2.0)))

    server = threading.Thread(target=serve, args=(3,))
    server.start()

    def send(request: bytes) -> bytes:
        client_end.send_frame(request)
        return client_end.recv_frame(2.0)

    client = wire.AecsClient(send)
    cert = client.create_service_pki("svc", MODEL_MEASUREMENT)
    assert client.get_certificate("svc").encode() == cert.encode()
    with pytest.raises(UnknownService):
        client.get_certificate("ghost")
    server.join()
    left.close()
    right.close()


def test_client_rejects_a_malformed_certificate_response_as_a_keystore_error():
    from enclaveserve.aecs.errors import AecsError

    client = wire.AecsClient(lambda request: wire.ok_response(b"garbage"))
    with pytest.raises(AecsError, match="malformed certificate response"):
        client.create_service_pki("svc", MODEL_MEASUREMENT)
    with pytest.raises(AecsError, match="malformed certificate response"):
        client.get_certificate("svc")


def test_wire_malformed_frames_return_errors(cluster, tmp_path):
    _, _, replicas = bootstrapped(cluster, tmp_path)
    from enclaveserve.aecs.errors import AecsError

    for frame in (b"", b"\xff\x01", bytes((wire.VERSION, 99)), bytes((wire.VERSION, 1)) + b"xx"):
        response = replicas[0].handle_frame(frame)
        with pytest.raises(AecsError):
            wire.raise_for_response(response)


def test_not_serving_before_bootstrap(cluster, tmp_path):
    _, deployment, enclaves = cluster
    replica = make_replica(deployment, enclaves[0], tmp_path, 0)
    from enclaveserve.aecs.errors import NotServing

    with pytest.raises(NotServing):
        replica.create_service_pki("svc", MODEL_MEASUREMENT)
