"""Server-authenticated handshake with PSK session resumption.

Modeled on a TLS 1.3 handshake but reduced to what the trust model needs:
the client already holds the one certificate it will accept, so there is
no negotiation and no chain building.

Full handshake, three flights:

    ClientHello:    hs1c | client_random(32) | client_ephemeral_x25519(32)
    ServerHello:    hs1s | server_random(32) | server_ephemeral_x25519(32) |
                    u32 cert_len | cert | u16 ticket_len | ticket | signature(64)
    ClientFinished: hs1f | hmac(client_finished_key, "client finished" | transcript)

The server's signature covers the hash of ClientHello plus everything in
ServerHello before the signature, proving possession of the certificate's
private key and binding both ephemeral shares and the ticket: substituting
any of them invalidates the signature.

Resumed handshake (RFC 8446 ``psk_dhe_ke``), sent when the client holds a
ticket for the expected certificate. The ClientHello is the full one plus
the ticket and a binder; the server proves itself by opening the ticket
instead of by certificate and signature:

    ClientHello:    hs1c | client_random(32) | client_ephemeral_x25519(32) |
                    u16 ticket_len | ticket | binder(32)
    ServerHello:    hs1r | server_random(32) | server_ephemeral_x25519(32) |
                    hmac(server_finished_key, "server finished" | hash(ClientHello | hs1r..share))
    ClientFinished: as in the full handshake

The binder is an HMAC under the resumption PSK over the ClientHello up to
the binder. A server that cannot open the ticket (another PKI, corrupted,
or past the certificate's ``not_after``) answers with the full ServerHello
on the same connection, whose signature covers the whole ClientHello; a
ticket that opens with a wrong binder aborts the handshake.

Key schedule: one HKDF per handshake over ``psk | X25519 shared secret``
(no PSK in a full handshake), salted with the hash of ClientHello plus the
ServerHello's magic, random and share. The fresh X25519 exchange keeps
resumed sessions forward secret; the plain-PSK mode (``psk_ke``) is not
offered. A full handshake also yields the PSK its ticket carries. Each
session's transcript hash covers both complete hellos and is bound into
the client's Finished MAC and every record.

Tickets are ``tkt1 | nonce(12) | AES-GCM(ticket_key, psk)``, sealed under
the ``ServicePki``'s ticket key, which every replica of a service derives
alike, so any replica resumes a ticket any other issued. Clients keep
tickets in a ``TicketCache``, one per expected certificate.

The message-level state machines are synchronous and transport-free; the
``client_handshake`` / ``server_handshake`` wrappers drive them over any
framed transport.
"""

from __future__ import annotations

import hmac
import random
import struct
import threading
from typing import NamedTuple

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey

from .. import crypto
from .certs import Certificate, ServicePki
from .errors import CertificateMismatch, HandshakeFailure, SignatureInvalid
from .record import Session
from .transport import FrameTransport

_CLIENT_MAGIC = b"hs1c"
_SERVER_MAGIC = b"hs1s"
_RESUMED_MAGIC = b"hs1r"
_FINISHED_MAGIC = b"hs1f"
_TICKET_MAGIC = b"tkt1"
_SIG_CONTEXT = b"enclaveserve transcript signature v1"
_FINISHED_CONTEXT = b"client finished"
_SERVER_FINISHED_CONTEXT = b"server finished"
_BINDER_CONTEXT = b"resumption binder"
_KEYS_INFO = b"enclaveserve session keys v2"

# magic + random + X25519 share: the part of either hello the keys are salted with
_SHARE_END = 4 + 32 + 32
_SHARE = slice(_SHARE_END - 32, _SHARE_END)
_MAC_LEN = 32
_TICKET_LEN = len(_TICKET_MAGIC) + crypto.NONCE_LEN + crypto.KEY_LEN + crypto.TAG_LEN


class Ticket(NamedTuple):
    ticket: bytes  # opaque to the client
    psk: bytes


class TicketCache:
    """A client's resumption tickets, one per expected certificate.

    Thread-safe. Each client (a runner) owns its own cache, so no run
    depends on the tickets of another.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tickets: dict[bytes, Ticket] = {}

    def lookup(self, cert: Certificate, now: float | None = None) -> Ticket | None:
        """The ticket to offer, or None; never one past the certificate's validity."""
        if not _within_validity(cert, now):
            return None
        with self._lock:
            return self._tickets.get(cert.encode())

    def store(self, cert: Certificate, ticket: Ticket) -> None:
        with self._lock:
            self._tickets[cert.encode()] = ticket


def _within_validity(cert: Certificate, now: float | None) -> bool:
    return now is None or cert.not_before <= now <= cert.not_after


def _derive(secret: bytes, salt: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    """client-to-server key, server-to-client key, client finished key, and
    the fourth key: the resumption PSK (full) or server finished key (resumed)."""
    okm = crypto.hkdf(secret, salt=salt, info=_KEYS_INFO, length=4 * crypto.KEY_LEN)
    k = crypto.KEY_LEN
    return okm[:k], okm[k : 2 * k], okm[2 * k : 3 * k], okm[3 * k :]


def _finished_mac(key: bytes, transcript_hash: bytes) -> bytes:
    return _FINISHED_MAGIC + crypto.hmac_sha256(key, _FINISHED_CONTEXT + transcript_hash)


class ClientHandshake:
    def __init__(
        self,
        expected_cert: Certificate,
        rng: random.Random,
        *,
        now: float | None = None,
        tickets: TicketCache | None = None,
    ) -> None:
        self._expected = expected_cert
        self._now = now
        self._tickets = tickets
        self._offer = tickets.lookup(expected_cert, now) if tickets is not None else None
        self._eph = crypto.new_exchange_key(rng)
        self._random = rng.randbytes(32)
        self._hello: bytes | None = None
        self._session: Session | None = None

    def hello(self) -> bytes:
        hello = _CLIENT_MAGIC + self._random + crypto.exchange_public_bytes(self._eph.public_key())
        if self._offer is not None:
            hello += struct.pack(">H", len(self._offer.ticket)) + self._offer.ticket
            hello += crypto.hmac_sha256(self._offer.psk, _BINDER_CONTEXT + hello)
        self._hello = hello
        return hello

    def finish(self, server_hello: bytes) -> bytes:
        """Verify the server flight; returns the Finished message to send."""
        if self._hello is None:
            raise HandshakeFailure("finish() before hello()")
        if server_hello.startswith(_RESUMED_MAGIC):
            return self._finish_resumed(server_hello)
        server_eph, cert_bytes, ticket, signature, prefix = _parse_server_hello(server_hello)
        if cert_bytes != self._expected.encode():
            raise CertificateMismatch("server certificate differs from the expected certificate")
        if not _within_validity(self._expected, self._now):
            raise HandshakeFailure("certificate outside its validity window")
        sig_input = _SIG_CONTEXT + crypto.sha256(self._hello + prefix)
        if not crypto.verify_signature(self._expected.public_key, signature, sig_input):
            raise SignatureInvalid("transcript signature does not verify")
        shared = self._exchange(server_eph)
        c2s, s2c, finished_key, psk = _derive(
            shared, crypto.sha256(self._hello + server_hello[:_SHARE_END])
        )
        if self._tickets is not None:
            self._tickets.store(self._expected, Ticket(ticket, psk))
        return self._complete(server_hello, c2s, s2c, finished_key, resumed=False)

    def _finish_resumed(self, server_hello: bytes) -> bytes:
        if self._offer is None:
            raise HandshakeFailure("server resumed a session the client did not offer")
        if len(server_hello) != _SHARE_END + _MAC_LEN:
            raise HandshakeFailure("malformed resumed server hello")
        shared = self._exchange(server_hello[_SHARE])
        salt = crypto.sha256(self._hello + server_hello[:_SHARE_END])
        c2s, s2c, finished_key, server_finished_key = _derive(self._offer.psk + shared, salt)
        expected = crypto.hmac_sha256(server_finished_key, _SERVER_FINISHED_CONTEXT + salt)
        if not hmac.compare_digest(server_hello[_SHARE_END:], expected):
            raise HandshakeFailure("server finished MAC mismatch")
        return self._complete(server_hello, c2s, s2c, finished_key, resumed=True)

    def _exchange(self, server_eph: bytes) -> bytes:
        return self._eph.exchange(X25519PublicKey.from_public_bytes(server_eph))

    def _complete(
        self, server_hello: bytes, c2s: bytes, s2c: bytes, finished_key: bytes, *, resumed: bool
    ) -> bytes:
        assert self._hello is not None
        transcript_hash = crypto.sha256(self._hello + server_hello)
        self._session = Session(
            send_key=c2s, recv_key=s2c, transcript_hash=transcript_hash, resumed=resumed
        )
        return _finished_mac(finished_key, transcript_hash)

    def session(self) -> Session:
        if self._session is None:
            raise HandshakeFailure("handshake not complete")
        return self._session


class ServerHandshake:
    def __init__(self, pki: ServicePki, rng: random.Random, *, now: float | None = None) -> None:
        self._pki = pki
        self._rng = rng
        self._now = now
        self._eph = crypto.new_exchange_key(rng)
        self._random = rng.randbytes(32)
        self._finished_key: bytes | None = None
        self._transcript_hash: bytes | None = None
        self._session: Session | None = None
        self._complete = False

    def respond(self, client_hello: bytes) -> bytes:
        client_eph, offer = _parse_client_hello(client_hello)
        shared = self._eph.exchange(X25519PublicKey.from_public_bytes(client_eph))
        psk = self._open_ticket(offer[0]) if offer is not None else None
        if psk is None:
            return self._respond_full(client_hello, shared)
        binder = crypto.hmac_sha256(psk, _BINDER_CONTEXT + client_hello[: -_MAC_LEN])
        if not hmac.compare_digest(offer[1], binder):
            raise HandshakeFailure("resumption binder mismatch")
        server_share = _RESUMED_MAGIC + self._random + self._share()
        salt = crypto.sha256(client_hello + server_share)
        c2s, s2c, self._finished_key, server_finished_key = _derive(psk + shared, salt)
        server_hello = server_share + crypto.hmac_sha256(
            server_finished_key, _SERVER_FINISHED_CONTEXT + salt
        )
        return self._keys_ready(client_hello, server_hello, c2s, s2c, resumed=True)

    def _respond_full(self, client_hello: bytes, shared: bytes) -> bytes:
        server_share = _SERVER_MAGIC + self._random + self._share()
        c2s, s2c, self._finished_key, psk = _derive(
            shared, crypto.sha256(client_hello + server_share)
        )
        cert_bytes = self._pki.certificate.encode()
        ticket = self._seal_ticket(psk)
        prefix = (
            server_share
            + struct.pack(">I", len(cert_bytes))
            + cert_bytes
            + struct.pack(">H", len(ticket))
            + ticket
        )
        signature = self._pki.private_key.sign(
            _SIG_CONTEXT + crypto.sha256(client_hello + prefix)
        )
        return self._keys_ready(client_hello, prefix + signature, c2s, s2c, resumed=False)

    def _share(self) -> bytes:
        return crypto.exchange_public_bytes(self._eph.public_key())

    def _keys_ready(
        self, client_hello: bytes, server_hello: bytes, c2s: bytes, s2c: bytes, *, resumed: bool
    ) -> bytes:
        self._transcript_hash = crypto.sha256(client_hello + server_hello)
        self._session = Session(
            send_key=s2c, recv_key=c2s, transcript_hash=self._transcript_hash, resumed=resumed
        )
        return server_hello

    def _seal_ticket(self, psk: bytes) -> bytes:
        nonce = self._rng.randbytes(crypto.NONCE_LEN)
        sealed = crypto.aead_encrypt(self._pki.ticket_key, nonce, psk, aad=_TICKET_MAGIC)
        return _TICKET_MAGIC + nonce + sealed

    def _open_ticket(self, ticket: bytes) -> bytes | None:
        """The ticket's PSK, or None when this server must not resume it."""
        if len(ticket) != _TICKET_LEN or not ticket.startswith(_TICKET_MAGIC):
            return None
        if not _within_validity(self._pki.certificate, self._now):
            return None
        nonce_end = len(_TICKET_MAGIC) + crypto.NONCE_LEN
        try:
            return crypto.aead_decrypt(
                self._pki.ticket_key,
                ticket[len(_TICKET_MAGIC) : nonce_end],
                ticket[nonce_end:],
                aad=_TICKET_MAGIC,
            )
        except crypto.DecryptionError:
            return None

    def complete(self, client_finished: bytes) -> None:
        if self._finished_key is None or self._transcript_hash is None:
            raise HandshakeFailure("complete() before respond()")
        expected = _finished_mac(self._finished_key, self._transcript_hash)
        if not hmac.compare_digest(client_finished, expected):
            raise HandshakeFailure("finished MAC mismatch: peer derived different keys")
        self._complete = True

    def session(self) -> Session:
        if not self._complete or self._session is None:
            raise HandshakeFailure("handshake not complete")
        return self._session


def _parse_client_hello(data: bytes) -> tuple[bytes, tuple[bytes, bytes] | None]:
    """Returns (client_ephemeral, (ticket, binder) or None)."""
    if len(data) < _SHARE_END or not data.startswith(_CLIENT_MAGIC):
        raise HandshakeFailure("malformed client hello")
    client_eph = data[_SHARE]
    if len(data) == _SHARE_END:
        return client_eph, None
    if len(data) < _SHARE_END + 2:
        raise HandshakeFailure("malformed client hello")
    (ticket_len,) = struct.unpack_from(">H", data, _SHARE_END)
    ticket_end = _SHARE_END + 2 + ticket_len
    if len(data) != ticket_end + _MAC_LEN:
        raise HandshakeFailure("malformed client hello: ticket and binder")
    return client_eph, (data[_SHARE_END + 2 : ticket_end], data[ticket_end:])


def _parse_server_hello(data: bytes) -> tuple[bytes, bytes, bytes, bytes, bytes]:
    """Returns (server_ephemeral, cert_bytes, ticket, signature, signed_prefix)."""
    try:
        if not data.startswith(_SERVER_MAGIC):
            raise ValueError("bad magic")
        server_eph = data[_SHARE]
        (cert_len,) = struct.unpack_from(">I", data, _SHARE_END)
        cert_start = _SHARE_END + 4
        cert_bytes = data[cert_start : cert_start + cert_len]
        (ticket_len,) = struct.unpack_from(">H", data, cert_start + cert_len)
        ticket_start = cert_start + cert_len + 2
        ticket = data[ticket_start : ticket_start + ticket_len]
        signature = data[ticket_start + ticket_len :]
        if len(cert_bytes) != cert_len or len(ticket) != ticket_len or len(signature) != 64:
            raise ValueError("truncated server hello")
        return server_eph, cert_bytes, ticket, signature, data[: ticket_start + ticket_len]
    except (ValueError, struct.error) as exc:
        raise HandshakeFailure(f"malformed server hello: {exc}") from exc


def client_handshake(
    transport: FrameTransport,
    expected_cert: Certificate,
    rng: random.Random,
    *,
    now: float | None = None,
    tickets: TicketCache | None = None,
    timeout: float | None = 10.0,
) -> Session:
    hs = ClientHandshake(expected_cert, rng, now=now, tickets=tickets)
    transport.send_frame(hs.hello())
    finished = hs.finish(transport.recv_frame(timeout))
    transport.send_frame(finished)
    return hs.session()


def server_handshake(
    transport: FrameTransport,
    pki: ServicePki,
    rng: random.Random,
    *,
    now: float | None = None,
) -> Session:
    hs = ServerHandshake(pki, rng, now=now)
    transport.send_frame(hs.respond(transport.recv_frame(10.0)))
    hs.complete(transport.recv_frame(10.0))
    return hs.session()


def handshake_in_process(
    expected_cert: Certificate,
    pki: ServicePki,
    client_rng: random.Random,
    server_rng: random.Random,
    *,
    now: float | None = None,
    tickets: TicketCache | None = None,
    capture: list[bytes] | None = None,
) -> tuple[Session, Session]:
    """Run both state machines back to back; used by single-threaded
    virtual-clock runs where the wire is a function call. `capture`, when
    given, receives the three flights as they would cross the wire."""
    client = ClientHandshake(expected_cert, client_rng, now=now, tickets=tickets)
    server = ServerHandshake(pki, server_rng, now=now)
    hello = client.hello()
    server_hello = server.respond(hello)
    finished = client.finish(server_hello)
    server.complete(finished)
    if capture is not None:
        capture += (hello, server_hello, finished)
    return client.session(), server.session()
