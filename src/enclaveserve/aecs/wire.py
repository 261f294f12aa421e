"""Keystore RPC framing.

Request:   0x01 | opcode | body        Response:  0x01 | status | body

Opcodes and request bodies: 1 CreateServicePki (service_id | measurement),
2 GetCertificate and 5 DeleteServicePki (service_id), 3 ProvisionPki and
4 FetchStorageKey (service_id | report | temp_public_key); replicas also
use FetchStorageKey to take the storage key from a serving peer. Strings
are u32-length-prefixed UTF-8 and fixed-width fields are raw; a malformed
body is an AecsError (see `codec`). Status 0 is success; nonzero maps onto
the keystore error types below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..channel.certs import Certificate
from ..channel.errors import HandshakeFailure
from ..codec import Reader, prefixed
from ..substrate.attest import EnclaveReport
from . import errors

VERSION = 0x01

OP_CREATE = 1
OP_GET_CERT = 2
OP_PROVISION = 3
OP_FETCH_KEY = 4
OP_DELETE = 5

STATUS_OK = 0

_STATUS_ERRORS: dict[int, type[errors.AecsError]] = {
    1: errors.ServiceExists,
    2: errors.UnknownService,
    3: errors.AttestationMismatch,
    4: errors.BindingMismatch,
    5: errors.StoreConflictExhausted,
    6: errors.NotServing,
    7: errors.AecsError,
}
_ERROR_STATUS = {cls: code for code, cls in _STATUS_ERRORS.items()}


@dataclass(frozen=True)
class ProvisionRequest:
    """Attested request for secret release: the report's user data must be
    the hash of the temporary public key, binding the two together."""

    service_id: str
    enclave_report: EnclaveReport
    temp_public_key: bytes


def _text(s: str) -> bytes:
    return prefixed(s.encode())


def _provision_body(req: ProvisionRequest) -> bytes:
    report = req.enclave_report
    head = _text(req.service_id) + report.measurement + _text(report.node_id)
    return head + report.report_data + report.platform_tag + req.temp_public_key


def encode_request(opcode: int, body: bytes) -> bytes:
    return bytes((VERSION, opcode)) + body


def encode_create(service_id: str, measurement: bytes) -> bytes:
    return encode_request(OP_CREATE, _text(service_id) + measurement)


def encode_get_cert(service_id: str) -> bytes:
    return encode_request(OP_GET_CERT, _text(service_id))


def encode_provision(req: ProvisionRequest) -> bytes:
    return encode_request(OP_PROVISION, _provision_body(req))


def encode_fetch_key(req: ProvisionRequest) -> bytes:
    return encode_request(OP_FETCH_KEY, _provision_body(req))


def encode_delete(service_id: str) -> bytes:
    return encode_request(OP_DELETE, _text(service_id))


def decode_service_id(body: bytes) -> str:
    """The body of GetCertificate and DeleteServicePki."""
    r = Reader(body, errors.AecsError, "request body")
    service_id = r.text()
    r.end()
    return service_id


def decode_create_body(body: bytes) -> tuple[str, bytes]:
    """(service id, code measurement)."""
    r = Reader(body, errors.AecsError, "create body")
    service_id, measurement = r.text(), r.take(32)
    r.end()
    return service_id, measurement


def decode_provision_body(body: bytes) -> ProvisionRequest:
    """The body of ProvisionPki and FetchStorageKey."""
    r = Reader(body, errors.AecsError, "provision body")
    service_id = r.text()
    report = EnclaveReport(r.take(32), r.text(), r.take(32), r.take(32))
    request = ProvisionRequest(service_id, report, r.take(32))
    r.end()
    return request


def ok_response(body: bytes = b"") -> bytes:
    return bytes((VERSION, STATUS_OK)) + body


def error_response(exc: errors.AecsError) -> bytes:
    code = _ERROR_STATUS.get(type(exc), _ERROR_STATUS[errors.AecsError])
    return bytes((VERSION, code)) + str(exc).encode()


def raise_for_response(frame: bytes) -> bytes:
    """Return the success body, or raise the transported keystore error."""
    if len(frame) < 2 or frame[0] != VERSION:
        raise errors.AecsError("malformed response frame")
    status = frame[1]
    body = frame[2:]
    if status == STATUS_OK:
        return body
    exc_type = _STATUS_ERRORS.get(status, errors.AecsError)
    raise exc_type(body.decode(errors="replace"))


def _certificate(body: bytes) -> Certificate:
    """The certificate a success response carries; a malformed one is the keystore's error."""
    try:
        return Certificate.decode(body)
    except HandshakeFailure as exc:
        raise errors.AecsError(f"malformed certificate response: {exc}") from exc


class AecsClient:
    """Client stub over any frame carrier (a callable taking request bytes
    and returning response bytes)."""

    def __init__(self, send: Callable[[bytes], bytes]) -> None:
        self._send = send

    def create_service_pki(self, service_id: str, measurement: bytes) -> Certificate:
        return _certificate(raise_for_response(self._send(encode_create(service_id, measurement))))

    def get_certificate(self, service_id: str) -> Certificate:
        return _certificate(raise_for_response(self._send(encode_get_cert(service_id))))

    def provision_pki(self, req: ProvisionRequest) -> bytes:
        return raise_for_response(self._send(encode_provision(req)))

    def fetch_storage_key(self, req: ProvisionRequest) -> bytes:
        return raise_for_response(self._send(encode_fetch_key(req)))

    def delete_service_pki(self, service_id: str) -> None:
        raise_for_response(self._send(encode_delete(service_id)))
