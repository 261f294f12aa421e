from __future__ import annotations


class SecureChannelError(Exception):
    """Base error for certificate, handshake, and record-layer failures."""


class HandshakeFailure(SecureChannelError):
    """Malformed, out-of-order, or otherwise unacceptable handshake message."""


class CertificateMismatch(HandshakeFailure):
    """Server presented a certificate that is not byte-equal to the expected one."""


class SignatureInvalid(HandshakeFailure):
    """Transcript signature does not verify under the presented certificate."""


class HandshakeTimeout(SecureChannelError):
    pass


class RecordTampered(SecureChannelError):
    """Record failed authentication or broke the sequence contract."""


class ReplayDetected(SecureChannelError):
    """Record carries a sequence number that was already consumed."""


class TransportClosed(SecureChannelError):
    pass
