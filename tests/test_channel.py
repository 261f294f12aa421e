from __future__ import annotations

import random
import socket
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclaveserve import crypto
from enclaveserve.confine import reset_taint, taint_events
from enclaveserve.channel import (
    Certificate,
    CertificateMismatch,
    ClientHandshake,
    HandshakeFailure,
    HandshakeTimeout,
    RecordTampered,
    ReplayDetected,
    SecureChannelError,
    ServerHandshake,
    SignatureInvalid,
    Ticket,
    TicketCache,
    TransportClosed,
    client_handshake,
    generate_pki,
    handshake_in_process,
    open_record,
    seal_record,
    server_handshake,
)
from enclaveserve.channel.record import RECORD_OVERHEAD
from enclaveserve.channel.transport import SocketTransport, WiretapTransport, encode_frame


def fresh_pki(seed=1, subject="svc"):
    return generate_pki(subject, random.Random(seed))


def self_signed(cert: Certificate) -> bool:
    return crypto.verify_signature(cert.public_key, cert.self_signature, cert.signed_body())


def socket_transports() -> tuple[SocketTransport, SocketTransport]:
    left, right = socket.socketpair()
    return SocketTransport(left), SocketTransport(right)


# -- certificates ------------------------------------------------------------------


def test_self_signature_verifies():
    pki = fresh_pki()
    assert self_signed(pki.certificate)


def test_distinct_seeds_distinct_keys():
    a, b = fresh_pki(1), fresh_pki(2)
    assert a.certificate.public_key != b.certificate.public_key


def test_certificate_wire_roundtrip_is_byte_identical():
    cert = fresh_pki().certificate
    again = Certificate.decode(cert.encode())
    assert again == cert
    assert again.encode() == cert.encode()
    assert self_signed(again)


def test_certificate_decode_rejects_garbage():
    cert = fresh_pki().certificate
    with pytest.raises(HandshakeFailure):
        Certificate.decode(b"not a certificate")
    with pytest.raises(HandshakeFailure):
        Certificate.decode(cert.encode() + b"trailing")


def test_empty_subject_rejected():
    with pytest.raises(ValueError):
        generate_pki("", random.Random(1))


# -- handshake ----------------------------------------------------------------------


def test_handshake_agrees_on_session_keys():
    pki = fresh_pki()
    client, server = handshake_in_process(pki.certificate, pki, random.Random(3), random.Random(4))
    assert client.send_key == server.recv_key
    assert client.recv_key == server.send_key
    assert client.transcript_hash == server.transcript_hash


@given(seed_c=st.integers(0, 2**32), seed_s=st.integers(0, 2**32))
def test_handshake_key_agreement_over_seeds(seed_c, seed_s):
    pki = fresh_pki()
    client, server = handshake_in_process(
        pki.certificate, pki, random.Random(seed_c), random.Random(seed_s)
    )
    assert client.send_key == server.recv_key
    assert client.recv_key == server.send_key


def test_certificate_mismatch_rejected():
    pki, other = fresh_pki(1), fresh_pki(2)
    with pytest.raises(CertificateMismatch):
        handshake_in_process(other.certificate, pki, random.Random(5), random.Random(6))


def test_expired_certificate_rejected():
    pki = fresh_pki()
    with pytest.raises(HandshakeFailure):
        handshake_in_process(
            pki.certificate, pki, random.Random(5), random.Random(6),
            now=pki.certificate.not_after + 1.0,
        )


def test_mitm_ephemeral_substitution_detected():
    # adversary rewrites the server's ephemeral share in flight: the
    # transcript signature no longer verifies at the client
    pki = fresh_pki()
    client = ClientHandshake(pki.certificate, random.Random(7))
    server = ServerHandshake(pki, random.Random(8))
    server_hello = bytearray(server.respond(client.hello()))
    server_hello[4 + 32] ^= 0x01  # first byte of the server ephemeral
    with pytest.raises(SignatureInvalid):
        client.finish(bytes(server_hello))


def test_mitm_client_hello_substitution_detected():
    # adversary rewrites the client's ephemeral share before the server
    # sees it: the signature covers the mutated hello, so the client
    # rejects, and the client's own finished MAC would not verify either
    pki = fresh_pki()
    client = ClientHandshake(pki.certificate, random.Random(9))
    server = ServerHandshake(pki, random.Random(10))
    hello = bytearray(client.hello())
    hello[-1] ^= 0x01
    server_hello = server.respond(bytes(hello))
    with pytest.raises(SignatureInvalid):
        client.finish(server_hello)


def test_wrong_finished_mac_rejected():
    pki = fresh_pki()
    client = ClientHandshake(pki.certificate, random.Random(11))
    server = ServerHandshake(pki, random.Random(12))
    finished = bytearray(client.finish(server.respond(client.hello())))
    finished[-1] ^= 0x01
    with pytest.raises(HandshakeFailure):
        server.complete(bytes(finished))


def test_any_single_byte_handshake_mutation_rejected():
    # tamper completeness across all three flights, random positions, for
    # full flights and for resumed ones
    rng = random.Random(2024)
    pki = fresh_pki()
    plain_len = len(ClientHandshake(pki.certificate, rng).hello())
    for tickets in (None, _primed_tickets(pki)):
        for _ in range(200):
            flight = rng.randrange(3)
            client = ClientHandshake(pki.certificate, random.Random(rng.random()), tickets=tickets)
            server = ServerHandshake(pki, random.Random(rng.random()))
            hello = client.hello()
            assert (len(hello) > plain_len) == (tickets is not None)
            with pytest.raises(SecureChannelError):
                if flight == 0:
                    hello = _flip(hello, rng)
                server_hello = server.respond(hello)
                if flight == 1:
                    server_hello = _flip(server_hello, rng)
                finished = client.finish(server_hello)
                if flight == 2:
                    finished = _flip(finished, rng)
                server.complete(finished)
                # an undetected mutation must still break key agreement
                if client.session().send_key == server.session().recv_key:
                    pytest.fail("mutation survived the handshake")
                raise SecureChannelError("keys diverged")


def _flip(message: bytes, rng: random.Random) -> bytes:
    data = bytearray(message)
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


# -- resumption ----------------------------------------------------------------------


def _primed_tickets(pki) -> TicketCache:
    """A client's ticket cache after one full handshake with `pki`."""
    tickets = TicketCache()
    client, _ = handshake_in_process(
        pki.certificate, pki, random.Random(70), random.Random(71), tickets=tickets
    )
    assert not client.resumed
    return tickets


def test_resumed_handshake_agrees_without_certificate_or_signature():
    pki = fresh_pki()
    tickets = _primed_tickets(pki)
    capture: list[bytes] = []
    client, server = handshake_in_process(
        pki.certificate, pki, random.Random(72), random.Random(73),
        tickets=tickets, capture=capture,
    )
    assert client.resumed and server.resumed
    assert client.send_key == server.recv_key
    assert client.recv_key == server.send_key
    assert client.transcript_hash == server.transcript_hash
    hello, server_hello, _finished = capture
    assert tickets.lookup(pki.certificate).ticket in hello
    # magic, random, X25519 share and the server-finished MAC: nothing else
    assert len(server_hello) == 4 + 32 + 32 + 32
    assert open_record(server, seal_record(client, b"resumed")) == b"resumed"


def test_every_replica_of_a_pki_resumes_the_others_tickets():
    # two separately held copies of one PKI, as the keystore provisions replicas
    issuer, other_replica = fresh_pki(), fresh_pki()
    assert issuer is not other_replica
    assert issuer.ticket_key == other_replica.ticket_key != fresh_pki(2).ticket_key
    tickets = _primed_tickets(issuer)
    client, server = handshake_in_process(
        other_replica.certificate, other_replica, random.Random(74), random.Random(75),
        tickets=tickets,
    )
    assert client.resumed and client.send_key == server.recv_key


def test_ticket_from_another_pki_falls_back_to_full_handshake():
    old, new = fresh_pki(1), fresh_pki(2)
    tickets = _primed_tickets(old)
    # the service's PKI was replaced while the client still holds the old ticket
    tickets.store(new.certificate, tickets.lookup(old.certificate))
    client, server = handshake_in_process(
        new.certificate, new, random.Random(76), random.Random(77), tickets=tickets
    )
    assert not client.resumed and not server.resumed
    assert client.send_key == server.recv_key
    # the fallback left a ticket the new PKI resumes
    again, _ = handshake_in_process(
        new.certificate, new, random.Random(78), random.Random(79), tickets=tickets
    )
    assert again.resumed


def test_client_with_a_ticket_pointed_at_the_wrong_server_gets_certificate_mismatch():
    pki, other = fresh_pki(1), fresh_pki(2)
    tickets = _primed_tickets(pki)
    with pytest.raises(CertificateMismatch):
        handshake_in_process(
            pki.certificate, other, random.Random(80), random.Random(81), tickets=tickets
        )


def test_tampered_ticket_or_binder_never_yields_agreed_keys():
    pki = fresh_pki()
    tickets = _primed_tickets(pki)
    rng = random.Random(82)
    hello_len = len(ClientHandshake(pki.certificate, rng, tickets=tickets).hello())
    ticket_start = hello_len - 32 - len(tickets.lookup(pki.certificate).ticket)
    for position in range(ticket_start, hello_len):  # every byte of ticket and binder
        client = ClientHandshake(pki.certificate, random.Random(position), tickets=tickets)
        server = ServerHandshake(pki, random.Random(-position))
        hello = bytearray(client.hello())
        hello[position] ^= 1 << rng.randrange(8)
        # a bad binder aborts at the server; a ticket it cannot open makes it
        # fall back, and its signature covers the tampered hello
        with pytest.raises(SecureChannelError):
            client.finish(server.respond(bytes(hello)))
    # a client holding the right ticket with the wrong PSK fails the binder
    held = tickets.lookup(pki.certificate)
    tickets.store(pki.certificate, Ticket(held.ticket, bytes(32)))
    with pytest.raises(HandshakeFailure):
        handshake_in_process(
            pki.certificate, pki, random.Random(83), random.Random(84), tickets=tickets
        )


def test_no_ticket_offered_or_honoured_past_not_after():
    pki = fresh_pki()
    tickets = _primed_tickets(pki)
    late = pki.certificate.not_after + 1.0
    assert tickets.lookup(pki.certificate, pki.certificate.not_after) is not None
    assert tickets.lookup(pki.certificate, late) is None
    plain_hello = ClientHandshake(pki.certificate, random.Random(85)).hello()
    late_client = ClientHandshake(pki.certificate, random.Random(86), now=late, tickets=tickets)
    assert len(late_client.hello()) == len(plain_hello)
    # a server past not_after answers a ticket with the full, expired, handshake
    offering = ClientHandshake(pki.certificate, random.Random(87), tickets=tickets)
    server = ServerHandshake(pki, random.Random(88), now=late)
    assert pki.certificate.encode() in server.respond(offering.hello())
    with pytest.raises(HandshakeFailure):
        handshake_in_process(
            pki.certificate, pki, random.Random(89), random.Random(90), now=late, tickets=tickets
        )


def test_shared_ticket_cache_under_concurrent_handshakes():
    # one client's cache used from many threads, as the real-clock runner does
    pki = fresh_pki()
    tickets = TicketCache()
    sessions: list[tuple] = []
    failures: list[Exception] = []

    def connect(worker: int) -> None:
        try:
            for i in range(20):
                sessions.append(handshake_in_process(
                    pki.certificate, pki, random.Random(worker * 100 + i),
                    random.Random(-worker * 100 - i), tickets=tickets,
                ))
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=connect, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and failures == []
    assert len(sessions) == 120
    assert all(client.send_key == server.recv_key for client, server in sessions)
    # only a thread's first handshake can find the cache still empty
    assert sum(client.resumed for client, _ in sessions) >= 120 - 6


# -- record layer --------------------------------------------------------------------


def _session_pair(seed=20):
    pki = fresh_pki()
    return handshake_in_process(pki.certificate, pki, random.Random(seed), random.Random(seed + 1))


def _seal_into(session, plaintext):
    # into a buffer larger than the record, as a reused wire buffer would be
    return seal_record(session, plaintext, out=bytearray(len(plaintext) + RECORD_OVERHEAD + 7))


def _open_into(session, record):
    out = bytearray(len(record) + 3)
    plaintext = open_record(session, memoryview(bytearray(record)), out=out)
    assert plaintext.obj is out
    return bytes(plaintext)


# every record test runs on the bytes path and on the out= buffer path
RECORD_PATHS = [(seal_record, open_record), (_seal_into, _open_into)]


def test_record_roundtrip():
    for seal, open_ in RECORD_PATHS:
        client, server = _session_pair()
        assert open_(server, seal(client, b"payload")) == b"payload"
        assert open_(client, seal(server, b"response")) == b"response"
    # both paths produce the same record bytes
    (a, _), (b, _) = _session_pair(), _session_pair()
    assert seal_record(a, b"same") == bytes(_seal_into(b, b"same"))


def test_record_replay_rejected():
    for seal, open_ in RECORD_PATHS:
        client, server = _session_pair()
        record = seal(client, b"m")
        open_(server, record)
        with pytest.raises(ReplayDetected):
            open_(server, record)


def test_record_reorder_rejected():
    for seal, open_ in RECORD_PATHS:
        client, server = _session_pair()
        first = bytes(seal(client, b"one"))
        second = seal(client, b"two")
        with pytest.raises(RecordTampered):
            open_(server, second)
        assert open_(server, first) == b"one"


def test_record_any_single_byte_mutation_rejected():
    for seal, open_ in RECORD_PATHS:
        rng = random.Random(7)
        client, server = _session_pair()
        for _ in range(300):
            record = seal(client, bytes(rng.randbytes(rng.randrange(1, 64))))
            with pytest.raises((RecordTampered, ReplayDetected)):
                open_(server, _flip(record, rng))
            # the untampered record still arrives in order
            assert open_(server, record) is not None


def test_record_truncation_rejected():
    for seal, open_ in RECORD_PATHS:
        client, server = _session_pair()
        record = bytes(seal(client, b"truncate me"))
        for cut in (0, 3, 4, 11, RECORD_OVERHEAD - 1, RECORD_OVERHEAD, len(record) - 1):
            with pytest.raises(RecordTampered):
                open_(server, record[:cut])
        assert open_(server, record) == b"truncate me"


def test_record_too_small_out_raises_before_the_sequence_moves():
    client, server = _session_pair()
    with pytest.raises(ValueError):
        seal_record(client, b"payload", out=bytearray(len(b"payload") + RECORD_OVERHEAD - 1))
    assert client.send_seq == 0
    record = seal_record(client, b"payload")
    with pytest.raises(ValueError):
        open_record(server, record, out=bytearray(len(b"payload") - 1))
    assert server.recv_seq == 0
    assert bytes(open_record(server, record, out=bytearray(len(b"payload")))) == b"payload"
    assert server.recv_seq == 1


def test_record_failed_open_leaves_no_plaintext_in_out():
    client, server = _session_pair()
    record = bytearray(seal_record(client, b"secret payload"))
    record[-1] ^= 1  # tag only: the ciphertext still decrypts to the plaintext
    out = bytearray(b"\xaa" * 20)
    with pytest.raises(RecordTampered):
        open_record(server, record, out=out)
    assert out == bytes(14) + b"\xaa" * 6
    assert server.recv_seq == 0


def test_sessions_are_independent():
    for seal, open_ in RECORD_PATHS:
        a_client, a_server = _session_pair(seed=30)
        b_client, b_server = _session_pair(seed=40)
        record = seal(a_client, b"cross")
        with pytest.raises(RecordTampered):
            open_(b_server, record)
        assert open_(a_server, record) == b"cross"


def test_distinct_sessions_run_concurrently():
    pairs = [_session_pair(seed=100 + i) for i in range(8)]
    failures: list[Exception] = []

    def pump(client, server, tag):
        try:
            for i in range(200):
                message = f"{tag}:{i}".encode()
                assert open_record(server, seal_record(client, message)) == message
        except Exception as exc:
            failures.append(exc)

    threads = [
        threading.Thread(target=pump, args=(client, server, i))
        for i, (client, server) in enumerate(pairs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert failures == []


# -- transports ------------------------------------------------------------------------


def test_blocking_handshake_over_pipe():
    # the handshake and then a record each way, all as frames on the pipe
    pki = fresh_pki()
    a, b = socket_transports()
    result = {}

    def serve():
        session = server_handshake(b, pki, random.Random(51))
        b.send_frame(seal_record(session, open_record(session, b.recv_frame(2.0)) + b"!"))

    thread = threading.Thread(target=serve)
    thread.start()
    client = client_handshake(a, pki.certificate, random.Random(52))
    a.send_frame(seal_record(client, b"pipe"))
    result["reply"] = open_record(client, a.recv_frame(2.0))
    thread.join()
    assert result["reply"] == b"pipe!"
    a.close()
    b.close()


def test_handshake_over_real_socketpair():
    pki = fresh_pki()
    left, right = socket.socketpair()
    result = {}

    def serve():
        result["session"] = server_handshake(SocketTransport(right), pki, random.Random(61))

    thread = threading.Thread(target=serve)
    thread.start()
    client = client_handshake(SocketTransport(left), pki.certificate, random.Random(62))
    thread.join()
    assert open_record(result["session"], seal_record(client, b"sock")) == b"sock"
    left.close()
    right.close()


def test_socket_transport_sets_tcp_nodelay():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with socket.create_connection(listener.getsockname()) as client:
            server, _ = listener.accept()
            with server:
                for sock in (client, server):
                    SocketTransport(sock)
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def test_recv_timeout_raises():
    a, b = socket_transports()
    with pytest.raises(HandshakeTimeout):
        a.recv_frame(timeout=0.01)
    a.close()
    b.close()


def test_wiretap_captures_frames():
    capture: list[bytes] = []
    a, b = socket_transports()
    tap = WiretapTransport(a, capture)
    tap.send_frame(b"hello")
    assert b.recv_frame(0.1) == b"hello"
    assert capture == [b"hello"]
    a.close()
    b.close()


def test_frame_larger_than_the_socket_buffers_arrives_whole():
    left, right = socket.socketpair()
    buffered = left.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) + right.getsockopt(
        socket.SOL_SOCKET, socket.SO_RCVBUF
    )
    payload = random.Random(7).randbytes(4 * buffered)
    a, b = SocketTransport(left), SocketTransport(right)
    sender = threading.Thread(target=a.send_frame, args=(payload,))
    sender.start()
    received = b.recv_frame(5.0)
    sender.join()
    assert type(received) is bytes
    assert received == payload
    a.close()
    b.close()


def test_peer_closing_mid_frame_raises_transport_closed():
    left, right = socket.socketpair()
    frame = encode_frame(b"x" * 1000)
    left.sendall(frame[: len(frame) // 2])
    left.close()
    with pytest.raises(TransportClosed):
        SocketTransport(right).recv_frame(2.0)
    right.close()


# -- confinement -------------------------------------------------------------------------


def test_private_key_export_outside_boundary_sets_taint():
    pki = fresh_pki()
    pki.private_key.private_bytes("debug-dump")
    assert taint_events() == ["debug-dump"]
    reset_taint()  # leave the autouse guard clean


def test_boundary_purposes_do_not_taint():
    pki = fresh_pki()
    pki.private_key.private_bytes("keymap-encrypt")
    pki.private_key.private_bytes("provision-encrypt")
    assert taint_events() == []


def test_confined_key_repr_is_redacted():
    pki = fresh_pki()
    raw = pki.private_key.private_bytes("audit")
    assert raw.hex() not in repr(pki.private_key)
    assert raw.hex() not in repr(pki)
