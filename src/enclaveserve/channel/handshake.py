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
the client's Finished MAC and every record. `_schedule` makes the exchange
and the HKDF for all four roles. A low-order peer share, whose exchange
gives the all-zero secret, aborts the handshake (RFC 7748 §6.1, RFC 8446
§7.4.2): it, like any malformed flight, raises `HandshakeFailure`.

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

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

from .. import crypto
from ..codec import Reader, prefixed
from .certs import SIGNATURE_LEN, Certificate, ServicePki
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
_U16 = struct.Struct(">H")
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


def _schedule(
    eph: X25519PrivateKey, peer_share: bytes, psk: bytes, client_hello: bytes, server_share: bytes
) -> tuple[bytes, bytes, bytes, bytes, bytes]:
    """The key schedule of every handshake role: client-to-server key,
    server-to-client key, client finished key, the fourth key (the
    resumption PSK in a full handshake, the server finished key in a resumed
    one) and the salt. `psk` is empty in a full handshake."""
    try:
        shared = eph.exchange(X25519PublicKey.from_public_bytes(peer_share))
    except ValueError as exc:  # a low-order share gives the all-zero secret
        raise HandshakeFailure(f"unacceptable X25519 share: {exc}") from exc
    salt = crypto.sha256(client_hello + server_share)
    okm = crypto.hkdf(psk + shared, salt=salt, info=_KEYS_INFO, length=4 * crypto.KEY_LEN)
    k = crypto.KEY_LEN
    return okm[:k], okm[k : 2 * k], okm[2 * k : 3 * k], okm[3 * k :], salt


def _session(
    client_hello: bytes, server_hello: bytes, send_key: bytes, recv_key: bytes, resumed: bool
) -> Session:
    return Session(send_key, recv_key, crypto.sha256(client_hello + server_hello), resumed=resumed)


def _finished_mac(key: bytes, session: Session) -> bytes:
    return _FINISHED_MAGIC + crypto.hmac_sha256(key, _FINISHED_CONTEXT + session.transcript_hash)


def _server_finished_mac(key: bytes, salt: bytes) -> bytes:
    return crypto.hmac_sha256(key, _SERVER_FINISHED_CONTEXT + salt)


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
            hello += _U16.pack(len(self._offer.ticket)) + self._offer.ticket
            hello += crypto.hmac_sha256(self._offer.psk, _BINDER_CONTEXT + hello)
        self._hello = hello
        return hello

    def finish(self, server_hello: bytes) -> bytes:
        """Verify the server flight; returns the Finished message to send."""
        if self._hello is None:
            raise HandshakeFailure("finish() before hello()")
        resumed = server_hello.startswith(_RESUMED_MAGIC)
        if resumed:
            if self._offer is None:
                raise HandshakeFailure("server resumed a session the client did not offer")
            if len(server_hello) != _SHARE_END + _MAC_LEN:
                raise HandshakeFailure("malformed resumed server hello")
            psk = self._offer.psk
        else:
            cert_bytes, ticket, signature = _parse_server_hello(server_hello)
            if cert_bytes != self._expected.encode():
                raise CertificateMismatch("server certificate differs from the expected one")
            if not _within_validity(self._expected, self._now):
                raise HandshakeFailure("certificate outside its validity window")
            sig_input = _SIG_CONTEXT + crypto.sha256(self._hello + server_hello[:-SIGNATURE_LEN])
            if not crypto.verify_signature(self._expected.public_key, signature, sig_input):
                raise SignatureInvalid("transcript signature does not verify")
            psk = b""
        server_share = server_hello[:_SHARE_END]
        c2s, s2c, finished_key, fourth, salt = _schedule(
            self._eph, server_share[_SHARE], psk, self._hello, server_share
        )
        if resumed:
            expected = _server_finished_mac(fourth, salt)
            if not hmac.compare_digest(server_hello[_SHARE_END:], expected):
                raise HandshakeFailure("server finished MAC mismatch")
        elif self._tickets is not None:
            self._tickets.store(self._expected, Ticket(ticket, fourth))
        self._session = _session(self._hello, server_hello, c2s, s2c, resumed)
        return _finished_mac(finished_key, self._session)

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
        # (session, client finished key) once respond() has answered
        self._pending: tuple[Session, bytes] | None = None
        self._session: Session | None = None

    def respond(self, client_hello: bytes) -> bytes:
        client_share, offer = _parse_client_hello(client_hello)
        psk = self._open_ticket(offer[0]) if offer is not None else b""
        resumed = bool(psk)
        if resumed:
            binder = crypto.hmac_sha256(psk, _BINDER_CONTEXT + client_hello[:-_MAC_LEN])
            if not hmac.compare_digest(offer[1], binder):
                raise HandshakeFailure("resumption binder mismatch")
        magic = _RESUMED_MAGIC if resumed else _SERVER_MAGIC
        server_share = magic + self._random + crypto.exchange_public_bytes(self._eph.public_key())
        c2s, s2c, finished_key, fourth, salt = _schedule(
            self._eph, client_share, psk, client_hello, server_share
        )
        if resumed:
            server_hello = server_share + _server_finished_mac(fourth, salt)
        else:
            ticket = self._seal_ticket(fourth)
            cert = prefixed(self._pki.certificate.encode())
            signed = server_share + cert + _U16.pack(len(ticket)) + ticket
            signature = self._pki.private_key.sign(
                _SIG_CONTEXT + crypto.sha256(client_hello + signed)
            )
            server_hello = signed + signature
        self._pending = (_session(client_hello, server_hello, s2c, c2s, resumed), finished_key)
        return server_hello

    def _seal_ticket(self, psk: bytes) -> bytes:
        nonce = self._rng.randbytes(crypto.NONCE_LEN)
        sealed = crypto.aead_encrypt(self._pki.ticket_key, nonce, psk, aad=_TICKET_MAGIC)
        return _TICKET_MAGIC + nonce + sealed

    def _open_ticket(self, ticket: bytes) -> bytes:
        """The ticket's PSK, or b"" (no PSK) when this server must not resume it."""
        resumable = _within_validity(self._pki.certificate, self._now)
        if not resumable or len(ticket) != _TICKET_LEN or not ticket.startswith(_TICKET_MAGIC):
            return b""
        nonce_end = len(_TICKET_MAGIC) + crypto.NONCE_LEN
        nonce, sealed = ticket[len(_TICKET_MAGIC) : nonce_end], ticket[nonce_end:]
        try:
            return crypto.aead_decrypt(self._pki.ticket_key, nonce, sealed, aad=_TICKET_MAGIC)
        except crypto.DecryptionError:
            return b""

    def complete(self, client_finished: bytes) -> None:
        if self._pending is None:
            raise HandshakeFailure("complete() before respond()")
        session, finished_key = self._pending
        if not hmac.compare_digest(client_finished, _finished_mac(finished_key, session)):
            raise HandshakeFailure("finished MAC mismatch: peer derived different keys")
        self._session = session

    def session(self) -> Session:
        if self._session is None:
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
    (ticket_len,) = _U16.unpack_from(data, _SHARE_END)
    ticket_end = _SHARE_END + 2 + ticket_len
    if len(data) != ticket_end + _MAC_LEN:
        raise HandshakeFailure("malformed client hello: ticket and binder")
    return client_eph, (data[_SHARE_END + 2 : ticket_end], data[ticket_end:])


def _parse_server_hello(data: bytes) -> tuple[bytes, bytes, bytes]:
    """Returns (cert_bytes, ticket, signature) of a full ServerHello."""
    r = Reader(data, HandshakeFailure, "server hello", _SERVER_MAGIC)
    r.take(_SHARE_END - len(_SERVER_MAGIC))
    cert_bytes = r.prefixed()
    (ticket_len,) = r.unpack(_U16)
    ticket = r.take(ticket_len)
    signature = r.take(SIGNATURE_LEN)
    r.end()
    return cert_bytes, ticket, signature


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
