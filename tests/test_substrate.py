from __future__ import annotations

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclaveserve.substrate import (
    DuplicateEnclave,
    EnclaveNotRunning,
    EnclaveSpec,
    MeasurementMismatch,
    NodeSpec,
    PAGE_BYTES,
    PlatformTagInvalid,
    SealedBlob,
    UnknownPlatform,
    UnsealFailure,
    inflate_latency,
    overflow_throughput,
    verify_report,
)
from enclaveserve.substrate.attest import EnclaveReport
from enclaveserve.substrate.node import DEFAULT_EPC_USABLE_BYTES, MIB

from .conftest import make_node_spec

MEAS_A = b"\xaa" * 32
MEAS_B = b"\xbb" * 32


def enclave(eid, ws_mib, rate=0.0, requested_mib=None, measurement=MEAS_A, system=False):
    requested = (requested_mib if requested_mib is not None else max(ws_mib, 1)) * MIB
    return EnclaveSpec(
        enclave_id=eid,
        measurement=measurement,
        requested_epc_bytes=requested,
        working_set_bytes=ws_mib * MIB,
        page_access_rate=rate,
        system_enclave=system,
    )


def resident_bytes(node) -> dict[str, int]:
    return {e.enclave_id: e.resident_pages * PAGE_BYTES for e in node.paging_state().enclaves}


# -- launch / residency ------------------------------------------------------------


def test_launch_fits_in_epc(substrate):
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("e1", 60))
    assert resident_bytes(node)["e1"] == 60 * MIB
    assert node.service_latency(0.020) == 0.020  # no paging


def test_default_epc_is_93_mib(substrate):
    node = substrate.add_node(make_node_spec())
    assert node.spec.epc_usable_bytes == 93 * MIB == DEFAULT_EPC_USABLE_BYTES


def test_overcommitted_launch_succeeds(substrate):
    # a LibOS-style boot may request more than the whole usable EPC
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("big", 100, requested_mib=120))
    assert sum(resident_bytes(node).values()) <= node.spec.epc_usable_bytes


def test_duplicate_enclave_rejected(substrate):
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("e1", 10))
    with pytest.raises(DuplicateEnclave):
        node.launch_enclave(enclave("e1", 20))


def test_working_set_may_not_exceed_request():
    with pytest.raises(ValueError):
        enclave("bad", 50, requested_mib=40)


# -- paging model -------------------------------------------------------------------


def test_paging_zero_when_no_overflow(substrate):
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("a", 30, rate=1000))
    node.launch_enclave(enclave("b", 40, rate=1000))
    assert node.service_latency(0.020) == 0.020


def test_paging_proportional_overflow_by_hand(substrate):
    # working sets 80+40 MiB on a 93 MiB node: overflow 27/120 of 2000 p/s = 450
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("a", 80, rate=1000, requested_mib=96))
    node.launch_enclave(enclave("b", 40, rate=1000, requested_mib=96))
    assert node.service_latency(0.020) == pytest.approx(inflate_latency(0.020, 450.0))


def test_paging_half_rate_at_double_epc():
    # single working set of 2x usable EPC: overflow fraction 1/2
    spec = enclave("a", 186, rate=777.0, requested_mib=186)
    assert overflow_throughput(93 * MIB, [spec]) == pytest.approx(777.0 / 2)


@given(
    sets=st.lists(
        st.tuples(st.integers(1, 200), st.floats(1.0, 1e5)), min_size=1, max_size=6
    )
)
def test_paging_zero_iff_fits(sets):
    specs = [enclave(f"e{i}", ws, rate=rate) for i, (ws, rate) in enumerate(sets)]
    throughput = overflow_throughput(93 * MIB, specs)
    fits = sum(s.working_set_bytes for s in specs) <= 93 * MIB
    assert (throughput == 0.0) == fits


@given(
    sets=st.lists(st.integers(0, 300), min_size=1, max_size=8),
    epc_mib=st.integers(1, 128),
)
def test_residency_never_exceeds_capacity(sets, epc_mib):
    from enclaveserve.clock import EventLoop
    from enclaveserve.substrate.node import Substrate

    node = Substrate(EventLoop()).add_node(
        make_node_spec(epc_usable_bytes=epc_mib * MIB)
    )
    for i, ws in enumerate(sets):
        node.launch_enclave(enclave(f"e{i}", ws, requested_mib=max(ws, 1)))
    assert sum(resident_bytes(node).values()) <= epc_mib * MIB


# -- latency model ------------------------------------------------------------------


def test_latency_idle_equals_base():
    assert inflate_latency(0.020, 0.0) == pytest.approx(0.020)


def test_latency_five_x_at_reference_thrash():
    # calibration anchor: paging at the full-thrash reference costs 5x
    assert inflate_latency(0.020, 1e4) == pytest.approx(0.100)
    assert inflate_latency(0.020, 2e4, t_ref=2e4) == pytest.approx(0.100)


def test_latency_linear_midpoint():
    assert inflate_latency(0.020, 5e3) == pytest.approx(0.060)


@given(
    base=st.floats(1e-6, 10.0),
    p1=st.floats(0, 1e6),
    p2=st.floats(0, 1e6),
)
def test_latency_monotone_in_paging(base, p1, p2):
    lo, hi = sorted((p1, p2))
    assert inflate_latency(base, lo) <= inflate_latency(base, hi)
    assert inflate_latency(base, 0.0) == pytest.approx(base)


def test_latency_rejects_bad_args():
    with pytest.raises(ValueError):
        inflate_latency(0.0, 1.0)
    with pytest.raises(ValueError):
        inflate_latency(0.01, -1.0)


# -- paging counters over time ----------------------------------------------------------


def test_counters_integrate_throughput(loop, substrate):
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("a", 80, rate=1000, requested_mib=96))
    node.launch_enclave(enclave("b", 40, rate=1000, requested_mib=96))
    loop.run(until=4.0)
    state = node.paging_state()
    # 450 p/s split half in, half out, for 4 s (integer truncation allowed)
    assert state.pages_in_total == 900
    assert state.pages_out_total == 900


def test_counters_monotone_across_config_changes(loop, substrate):
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("a", 80, rate=1000, requested_mib=96))
    handle = node.launch_enclave(enclave("b", 40, rate=1000, requested_mib=96))
    seen = []
    for t in (1.0, 2.0, 3.0):
        loop.run(until=t)
        if t == 2.0:
            node.terminate_enclave(handle)
        state = node.paging_state()
        seen.append((state.pages_in_total, state.pages_out_total))
    assert seen == sorted(seen)
    assert seen[1] == seen[2]  # no overflow after the second enclave left


def test_proc_snapshot_layout(loop, substrate):
    node = substrate.add_node(make_node_spec())
    node.launch_enclave(enclave("svc", 60, rate=100, system=False))
    node.launch_enclave(enclave("sys", 8, system=True))
    lines = node.proc_snapshot().splitlines()
    assert lines[0].split() == ["svc", MEAS_A.hex(), str(60 * MIB // 4096), "0"]
    assert lines[1].split() == ["sys", MEAS_A.hex(), str(8 * MIB // 4096), "1"]
    assert lines[2].split() == ["0", "0"]


# -- attestation ----------------------------------------------------------------------


def test_report_verifies_for_matching_measurement(substrate):
    node = substrate.add_node(make_node_spec())
    handle = node.launch_enclave(enclave("e", 10))
    report = handle.create_report(b"\x07" * 32)
    verify_report(report, MEAS_A, substrate.registry)


def test_report_rejected_for_other_measurement(substrate):
    node = substrate.add_node(make_node_spec())
    report = node.launch_enclave(enclave("e", 10)).create_report(b"\x07" * 32)
    with pytest.raises(MeasurementMismatch):
        verify_report(report, MEAS_B, substrate.registry)


def test_report_tag_flip_rejected(substrate):
    node = substrate.add_node(make_node_spec())
    report = node.launch_enclave(enclave("e", 10)).create_report(b"\x07" * 32)
    for position in range(len(report.platform_tag)):
        tag = bytearray(report.platform_tag)
        tag[position] ^= 0x01
        forged = EnclaveReport(report.measurement, report.node_id, report.report_data, bytes(tag))
        with pytest.raises(PlatformTagInvalid):
            verify_report(forged, MEAS_A, substrate.registry)


def test_report_field_mutation_invalidates_tag(substrate):
    node = substrate.add_node(make_node_spec())
    report = node.launch_enclave(enclave("e", 10)).create_report(b"\x07" * 32)
    mutated = EnclaveReport(report.measurement, report.node_id, b"\x08" * 32, report.platform_tag)
    with pytest.raises(PlatformTagInvalid):
        verify_report(mutated, MEAS_A, substrate.registry)


def test_unknown_platform(substrate):
    node = substrate.add_node(make_node_spec())
    report = node.launch_enclave(enclave("e", 10)).create_report(b"\x07" * 32)
    forged = EnclaveReport(report.measurement, "ghost-node", report.report_data, report.platform_tag)
    with pytest.raises(UnknownPlatform):
        verify_report(forged, MEAS_A, substrate.registry)


def test_report_requires_running_enclave(substrate):
    node = substrate.add_node(make_node_spec())
    handle = node.launch_enclave(enclave("e", 10))
    node.terminate_enclave(handle)
    with pytest.raises(EnclaveNotRunning):
        handle.create_report(b"\x00" * 32)


# -- sealing -----------------------------------------------------------------------------


def test_seal_roundtrip_same_enclave(substrate):
    node = substrate.add_node(make_node_spec())
    handle = node.launch_enclave(enclave("e", 10))
    blob = handle.seal(b"secret payload")
    assert handle.unseal(blob) == b"secret payload"


def test_unseal_fails_on_other_node(substrate):
    node_a = substrate.add_node(make_node_spec("node-a", seed=1))
    node_b = substrate.add_node(make_node_spec("node-b", seed=2))
    blob = node_a.launch_enclave(enclave("e", 10)).seal(b"x")
    other = node_b.launch_enclave(enclave("e", 10))
    with pytest.raises(UnsealFailure):
        other.unseal(blob)


def test_unseal_fails_on_other_measurement(substrate):
    node = substrate.add_node(make_node_spec())
    blob = node.launch_enclave(enclave("e1", 10, measurement=MEAS_A)).seal(b"x")
    other = node.launch_enclave(enclave("e2", 10, measurement=MEAS_B))
    with pytest.raises(UnsealFailure):
        other.unseal(blob)


def test_sealed_blob_tamper_detected_at_every_position(substrate):
    node = substrate.add_node(make_node_spec())
    handle = node.launch_enclave(enclave("e", 10))
    blob = handle.seal(b"payload")
    for field_name in ("ciphertext", "auth_tag", "nonce"):
        original = getattr(blob, field_name)
        for position in range(len(original)):
            data = bytearray(original)
            data[position] ^= 0x01
            tampered = SealedBlob(
                blob.node_id,
                blob.measurement,
                bytes(data) if field_name == "nonce" else blob.nonce,
                bytes(data) if field_name == "ciphertext" else blob.ciphertext,
                bytes(data) if field_name == "auth_tag" else blob.auth_tag,
            )
            with pytest.raises(UnsealFailure):
                handle.unseal(tampered)


def test_distinct_plaintexts_never_share_ciphertext(substrate):
    node = substrate.add_node(make_node_spec())
    handle = node.launch_enclave(enclave("e", 10))
    blobs = [handle.seal(f"secret-{i}".encode()) for i in range(64)]
    assert len({b.ciphertext + b.auth_tag for b in blobs}) == 64


def test_seal_nonce_never_reused(substrate):
    node = substrate.add_node(make_node_spec())
    handle = node.launch_enclave(enclave("e", 10))
    blobs = [handle.seal(b"same plaintext") for _ in range(64)]
    nonces = {b.nonce for b in blobs}
    ciphertexts = {b.ciphertext + b.auth_tag for b in blobs}
    assert len(nonces) == 64
    assert len(ciphertexts) == 64


def test_sealed_blob_encoding_roundtrip(substrate):
    node = substrate.add_node(make_node_spec())
    blob = node.launch_enclave(enclave("e", 10)).seal(b"abc")
    assert SealedBlob.decode(blob.encode()) == blob


# -- concurrency ---------------------------------------------------------------------


def test_concurrent_sampling_sees_consistent_snapshots(substrate):
    node = substrate.add_node(make_node_spec())
    stop = threading.Event()
    violations = []

    def sampler():
        while not stop.is_set():
            state = node.paging_state()
            resident = sum(e.resident_pages for e in state.enclaves) * PAGE_BYTES
            if resident > node.spec.epc_usable_bytes:
                violations.append(state)

    threads = [threading.Thread(target=sampler) for _ in range(3)]
    for t in threads:
        t.start()
    for i in range(50):
        handle = node.launch_enclave(enclave(f"e{i}", 40, requested_mib=96))
        if i % 2:
            node.terminate_enclave(handle)
    stop.set()
    for t in threads:
        t.join()
    assert violations == []


def test_node_spec_validation():
    with pytest.raises(ValueError):
        make_node_spec(epc_usable_bytes=0)
    with pytest.raises(ValueError):
        NodeSpec("n", b"short", b"also-short")
