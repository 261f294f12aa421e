from .certs import (
    Certificate,
    ConfinedSigningKey,
    DEFAULT_VALIDITY_SECONDS,
    ServicePki,
    generate_pki,
)
from .errors import (
    CertificateMismatch,
    HandshakeFailure,
    HandshakeTimeout,
    RecordTampered,
    ReplayDetected,
    SecureChannelError,
    SignatureInvalid,
    TransportClosed,
)
from .handshake import (
    ClientHandshake,
    ServerHandshake,
    Ticket,
    TicketCache,
    client_handshake,
    handshake_in_process,
    server_handshake,
)
from .record import Session, open_record, seal_record
from .transport import FrameTransport, SocketTransport, WiretapTransport

__all__ = [
    "Certificate",
    "CertificateMismatch",
    "ClientHandshake",
    "ConfinedSigningKey",
    "DEFAULT_VALIDITY_SECONDS",
    "FrameTransport",
    "HandshakeFailure",
    "HandshakeTimeout",
    "RecordTampered",
    "ReplayDetected",
    "SecureChannelError",
    "ServerHandshake",
    "ServicePki",
    "Session",
    "SignatureInvalid",
    "SocketTransport",
    "Ticket",
    "TicketCache",
    "TransportClosed",
    "WiretapTransport",
    "client_handshake",
    "generate_pki",
    "handshake_in_process",
    "open_record",
    "seal_record",
    "server_handshake",
]
