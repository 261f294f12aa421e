"""The one reader behind the keystore, sealing and certificate formats."""

from __future__ import annotations

import ast
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enclaveserve
from enclaveserve import crypto
from enclaveserve.aecs import service, wire
from enclaveserve.aecs.errors import AecsError
from enclaveserve.aecs.keymap import KeyMap, KeyMapEntry, encode_pki
from enclaveserve.channel.certs import Certificate, generate_pki
from enclaveserve.channel.errors import HandshakeFailure
from enclaveserve.codec import Reader, prefixed
from enclaveserve.serving.errors import ProvisioningFailed
from enclaveserve.serving.replica import start_replica
from enclaveserve.substrate.attest import EnclaveReport
from enclaveserve.substrate.errors import UnsealFailure
from enclaveserve.substrate.node import MIB, EnclaveSpec
from enclaveserve.substrate.sealing import SealedBlob

from .conftest import make_node_spec

texts = st.text(min_size=1, max_size=6)
b32 = st.binary(min_size=32, max_size=32)
pkis = st.builds(
    lambda subject, seed, now: generate_pki(subject, random.Random(seed), now=now),
    texts,
    st.integers(0, 2**32),
    st.floats(-1e9, 1e9),
)


def _pki_view(pki):
    return pki.certificate, pki.private_key.private_bytes("audit")


def _keymap_view(keymap):
    entries = {sid: (e.measurement, _pki_view(e.pki)) for sid, e in keymap.entries.items()}
    return keymap.version, entries


def _keymaps(version, entries):
    return KeyMap(version, {sid: KeyMapEntry(m, pki) for sid, (m, pki) in entries.items()})


def _read_sealed_key(data):
    generation, key = service._read_storage_key(data, UnsealFailure, service._SEALED_MAGIC)
    return generation, key.reveal("audit")


# name -> (values, encode, decode, the format's error, a comparable view)
FORMATS = {
    "certificate": (
        pkis.map(lambda pki: pki.certificate),
        Certificate.encode,
        Certificate.decode,
        HandshakeFailure,
        lambda cert: cert,
    ),
    "key map": (
        st.builds(
            _keymaps,
            st.integers(0, 2**64 - 1),
            st.dictionaries(texts, st.tuples(b32, pkis), max_size=2),
        ),
        KeyMap.encode,
        KeyMap.decode,
        AecsError,
        _keymap_view,
    ),
    "sealed blob": (
        st.builds(
            SealedBlob,
            texts,
            b32,
            st.binary(min_size=crypto.NONCE_LEN, max_size=crypto.NONCE_LEN),
            st.binary(max_size=40),
            st.binary(min_size=crypto.TAG_LEN, max_size=crypto.TAG_LEN),
        ),
        SealedBlob.encode,
        SealedBlob.decode,
        UnsealFailure,
        lambda blob: blob,
    ),
    "PKI payload": (
        pkis,
        lambda pki: encode_pki(pki, "provision-encrypt"),
        service.decode_pki,
        ValueError,
        _pki_view,
    ),
    "sealed storage key": (
        st.tuples(st.binary(min_size=16, max_size=16), b32),
        lambda fields: service._SEALED_MAGIC + fields[0] + fields[1],
        _read_sealed_key,
        UnsealFailure,
        lambda fields: fields,
    ),
    "create body": (
        st.tuples(texts, b32),
        lambda fields: wire.encode_create(*fields)[2:],
        wire.decode_create_body,
        AecsError,
        lambda fields: fields,
    ),
    "service-id body": (
        texts,
        lambda service_id: wire.encode_get_cert(service_id)[2:],
        wire.decode_service_id,
        AecsError,
        lambda service_id: service_id,
    ),
    "provision body": (
        st.builds(
            wire.ProvisionRequest,
            texts,
            st.builds(EnclaveReport, b32, texts, b32, b32),
            b32,
        ),
        lambda req: wire.encode_provision(req)[2:],
        wire.decode_provision_body,
        AecsError,
        lambda req: req,
    ),
}


def _rejects(decode, data: bytes, error: type[Exception]) -> None:
    # exactly the format's own error: never struct.error, IndexError,
    # UnicodeDecodeError (itself a ValueError) or another module's error
    with pytest.raises(Exception) as caught:
        decode(data)
    assert type(caught.value) is error, (data, caught.value)


@pytest.mark.parametrize("name", FORMATS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_format_round_trips_and_rejects_any_other_length(name, data):
    values, encode, decode, error, view = FORMATS[name]
    value = data.draw(values)
    encoded = encode(value)
    decoded = decode(encoded)
    assert view(decoded) == view(value)
    assert encode(decoded) == encoded
    for end in range(len(encoded)):
        _rejects(decode, encoded[:end], error)
    _rejects(decode, encoded + bytes([data.draw(st.integers(0, 255))]), error)
    # a changed byte anywhere decodes to some value or raises the same error
    flip = data.draw(st.integers(1, 255))
    for at in range(len(encoded)):
        changed = bytearray(encoded)
        changed[at] ^= flip
        try:
            decode(bytes(changed))
        except Exception as exc:
            assert type(exc) is error, exc


def test_start_replica_given_a_truncated_pki_payload_leaves_no_enclave(substrate):
    node = substrate.add_node(make_node_spec())
    payload = encode_pki(generate_pki("svc", random.Random(1)), "provision-encrypt")
    spec = EnclaveSpec("svc/r0", crypto.sha256(b"model-code"), 96 * MIB, 60 * MIB)

    class Truncating:
        """Releases the first `end` bytes of a PKI payload."""

        def __init__(self, end: int) -> None:
            self.end = end

        def provision_pki(self, req):
            plaintext = payload[: self.end]
            return crypto.pk_encrypt(req.temp_public_key, plaintext, random.Random(2))

    for end in range(len(payload)):
        with pytest.raises(ProvisioningFailed):
            start_replica("svc", "r0", Truncating(end), node, spec, random.Random(3))
        assert node.enclave_handle("svc/r0") is None


# the modules that may parse with a running offset or a sliced unpack: the
# reader itself and the fixed headers of the per-request formats
FIXED_HEADERS = {
    "codec.py",
    "channel/transport.py",
    "channel/record.py",
    "channel/handshake.py",
    "aecs/store.py",
    "serving/replica.py",
}


def _is_slice(node: ast.expr) -> bool:
    return isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)


def test_only_the_reader_and_fixed_headers_unpack_at_an_offset():
    root = Path(enclaveserve.__file__).parent
    users = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr == "unpack_from"
                or (node.func.attr == "unpack" and any(map(_is_slice, node.args)))
            ):
                users.setdefault(path.relative_to(root).as_posix(), []).append(node.lineno)
    assert {"channel/record.py", "serving/replica.py"} <= set(users)  # the scan sees them
    assert set(users) <= FIXED_HEADERS, users


class Malformed(Exception):
    pass


def test_reader_names_each_fault():
    data = b"mg" + prefixed(b"\xff") + struct.pack(">H", 7)
    cases = [
        (b"xx" + data[2:], lambda r: None, "bad magic"),
        (data[:4], lambda r: r.text(), "truncated"),
        (data, lambda r: r.text(), "not UTF-8"),
        (data, lambda r: (r.prefixed(), r.unpack(struct.Struct(">B")), r.end()), "trailing"),
    ]
    for raw, read, why in cases:
        with pytest.raises(Malformed, match=f"^malformed thing: .*{why}"):
            read(Reader(raw, Malformed, "thing", b"mg"))
    r = Reader(data, Malformed, "thing", b"mg")
    assert (r.prefixed(), r.unpack(struct.Struct(">H"))) == (b"\xff", (7,))
    r.end()
