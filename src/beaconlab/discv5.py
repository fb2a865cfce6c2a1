"""Node-discovery handshakes: the v5.1 challenge/response protocol and a
hardened KK-style variant whose transport keys mix in an
ephemeral-ephemeral exchange.

Wire packets use an unmasked, fixed header
``protocol-id || version || flag || nonce || authdata-size`` so that a
passive observer (and the forward-secrecy probe) can parse everything.
The handshake authdata declares ``sig-size`` and ``eph-key-size``; those
fields are NOT covered by the identity signature, which is exactly the
weakness the optional transcript-hash binding closes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import HandshakeRejected, ParseError
from .kdf import hkdf_sha256
from .noise import DHKeypair, IdentityKeypair, verify_identity_sig
from .transcript import DirectLink

PROTOCOL_ID = b"discv5"
VERSION = 0x0001

FLAG_MESSAGE = 0
FLAG_WHOAREYOU = 1
FLAG_HANDSHAKE = 2

ID_SIGNATURE_PREFIX = b"discovery v5 identity proof"
HKDF_LABEL_V5 = b"discv5 v5 key agreement"
HKDF_LABEL_KK = b"discv5 kk key agreement"


# ---------------------------------------------------------------------------
# Wire structures
# ---------------------------------------------------------------------------


@dataclass
class PacketHeader:
    flag: int
    nonce: bytes  # 96-bit, fresh per AES-GCM encryption
    authdata_size: int
    protocol_id: bytes = PROTOCOL_ID
    version: int = VERSION

    def encode(self) -> bytes:
        if len(self.nonce) != 12:
            raise ValueError("nonce must be 96 bits")
        return (
            self.protocol_id
            + self.version.to_bytes(2, "big")
            + self.flag.to_bytes(1, "big")
            + self.nonce
            + self.authdata_size.to_bytes(2, "big")
        )

    HEADER_LEN = 6 + 2 + 1 + 12 + 2

    @classmethod
    def decode(cls, data: bytes):
        if len(data) < cls.HEADER_LEN:
            raise ParseError("packet shorter than the static header")
        if data[:6] != PROTOCOL_ID:
            raise ParseError("bad protocol id")
        version = int.from_bytes(data[6:8], "big")
        flag = data[8]
        if flag not in (FLAG_MESSAGE, FLAG_WHOAREYOU, FLAG_HANDSHAKE):
            raise ParseError(f"unknown flag {flag}")
        nonce = data[9:21]
        authdata_size = int.from_bytes(data[21:23], "big")
        header = cls(flag, nonce, authdata_size, version=version)
        return header, data[cls.HEADER_LEN :]


@dataclass
class Challenge:
    id_nonce: bytes  # 128-bit
    enr_seq: int = 0

    def encode(self) -> bytes:
        if len(self.id_nonce) != 16:
            raise ValueError("id-nonce must be 128 bits")
        return self.id_nonce + self.enr_seq.to_bytes(8, "big")

    @classmethod
    def decode(cls, data: bytes):
        if len(data) != 24:
            raise ParseError("whoareyou authdata must be 24 bytes")
        return cls(data[:16], int.from_bytes(data[16:], "big"))


@dataclass
class HandshakeAuthdata:
    src_id: bytes  # 32 bytes
    id_signature: bytes
    ephemeral_pubkey: bytes
    record: bytes = b""

    def encode(self) -> bytes:
        if len(self.src_id) != 32:
            raise ValueError("src-id must be 32 bytes")
        return (
            self.src_id
            + len(self.id_signature).to_bytes(1, "big")
            + len(self.ephemeral_pubkey).to_bytes(1, "big")
            + self.id_signature
            + self.ephemeral_pubkey
            + self.record
        )

    @classmethod
    def decode(cls, data: bytes):
        if len(data) < 34:
            raise ParseError("handshake authdata too short")
        src_id = data[:32]
        sig_size = data[32]
        eph_size = data[33]
        if len(data) < 34 + sig_size + eph_size:
            raise ParseError("declared sizes exceed the authdata")
        sig = data[34 : 34 + sig_size]
        eph = data[34 + sig_size : 34 + sig_size + eph_size]
        record = data[34 + sig_size + eph_size :]
        return cls(src_id, sig, eph, record)


# ---------------------------------------------------------------------------
# Identities and key schedule
# ---------------------------------------------------------------------------


@dataclass
class NodeIdentity:
    """Long-term identity: an X25519 static key for DH plus an Ed25519
    signing key; the node id commits to both."""

    static: DHKeypair
    signing: IdentityKeypair

    @classmethod
    def from_seed(cls, seed: bytes):
        return cls(
            DHKeypair.from_seed(hashlib.sha256(seed + b"static").digest()),
            IdentityKeypair.from_seed(hashlib.sha256(seed + b"signing").digest()),
        )

    @property
    def node_id(self) -> bytes:
        return hashlib.sha256(self.signing.public_bytes + self.static.public_bytes).digest()


@dataclass
class SessionKeys:
    initiator_key: bytes  # 16 bytes
    recipient_key: bytes  # 16 bytes
    label: bytes


def derive_session_keys(dh_outputs, challenge_data: bytes, src_id: bytes, dest_id: bytes,
                        label: bytes, transcript_hash: bytes = b"") -> SessionKeys:
    """HKDF-SHA256 over the concatenated DH outputs, salted with the
    challenge and bound to the two node ids (and optionally a transcript
    hash)."""
    if not dh_outputs:
        raise ValueError("need at least one DH output")
    ikm = b"".join(dh_outputs)
    info = label + src_id + dest_id + transcript_hash
    okm = hkdf_sha256(challenge_data, ikm, info, 32)
    return SessionKeys(okm[:16], okm[16:32], label)


def transcript_hash(messages) -> bytes:
    """SHA-256 over the exact concatenation of all wire messages, headers
    included, so the unsigned size fields become authenticated."""
    return hashlib.sha256(b"".join(messages)).digest()


def id_signature_input(challenge_data: bytes, ephemeral_pubkey: bytes, dest_id: bytes) -> bytes:
    return ID_SIGNATURE_PREFIX + challenge_data + ephemeral_pubkey + dest_id


# ---------------------------------------------------------------------------
# AES-GCM message packets
# ---------------------------------------------------------------------------


def _encrypt_message(key: bytes, nonce: bytes, header_and_auth: bytes, payload: bytes) -> bytes:
    return AESGCM(key).encrypt(nonce, payload, header_and_auth)


def _decrypt_message(key: bytes, nonce: bytes, header_and_auth: bytes, ciphertext: bytes) -> bytes:
    try:
        return AESGCM(key).decrypt(nonce, ciphertext, header_and_auth)
    except InvalidTag:
        raise HandshakeRejected("aead", "message did not decrypt") from None


def build_message_packet(key: bytes, nonce: bytes, src_id: bytes, payload: bytes) -> bytes:
    header = PacketHeader(FLAG_MESSAGE, nonce, 32).encode() + src_id
    return header + _encrypt_message(key, nonce, header, payload)


def open_message_packet(key: bytes, packet: bytes) -> bytes:
    header, rest = PacketHeader.decode(packet)
    if header.flag != FLAG_MESSAGE:
        raise ParseError("not an ordinary message packet")
    authdata, ciphertext = rest[: header.authdata_size], rest[header.authdata_size :]
    ad = packet[: PacketHeader.HEADER_LEN] + authdata
    return _decrypt_message(key, header.nonce, ad, ciphertext)


# ---------------------------------------------------------------------------
# Handshake runners
# ---------------------------------------------------------------------------


@dataclass
class Discv5Config:
    identity: NodeIdentity
    rng_seed: bytes
    transport_payloads: tuple = ()  # opaque post-handshake messages to send

    def _rand(self, label: bytes, n: int) -> bytes:
        out = b""
        ctr = 0
        while len(out) < n:
            out += hashlib.sha256(self.rng_seed + label + ctr.to_bytes(4, "big")).digest()
            ctr += 1
        return out[:n]


@dataclass
class Discv5Result:
    initiator_keys: SessionKeys
    responder_keys: SessionKeys
    transcript: object
    meta: dict = field(default_factory=dict)


def inflate_eph_key_size(packet: bytes, pad: int) -> bytes:
    """In-flight rewrite of a handshake packet: bump the declared
    eph-key-size and append that many zero bytes of padding.

    The signature does not cover the size fields and (as on the real wire)
    the authdata travels outside the AEAD, so without transcript binding
    the receiver accepts the padded packet.
    """
    header, rest = PacketHeader.decode(packet)
    if header.flag != FLAG_HANDSHAKE:
        raise ValueError("can only inflate handshake packets")
    auth = bytearray(rest[: header.authdata_size])
    ciphertext = rest[header.authdata_size :]
    sig_size = auth[32]
    auth[33] += pad
    insert_at = 34 + sig_size + auth[33] - pad
    auth[insert_at:insert_at] = b"\x00" * pad
    header.authdata_size += pad
    return header.encode() + bytes(auth) + ciphertext


def run_handshake(
    initiator: Discv5Config,
    responder: Discv5Config,
    *,
    variant: str = "v5",
    transcript_binding: bool = False,
    link=None,
    tamper_packet=None,
) -> Discv5Result:
    """Run the discv5 handshake plus a short transport phase.

    ``variant`` selects the v5.1 single-DH schedule or the hardened KK
    schedule; ``transcript_binding`` mixes each party's own view of the
    first three wire messages into the transport-key derivation.
    ``tamper_packet`` is an in-flight hook applied to the handshake packet
    after the initiator sends it and before the responder sees it.
    """
    if variant not in ("v5", "kk"):
        raise ValueError("variant must be 'v5' or 'kk'")
    link = link if link is not None else DirectLink()
    a, b = initiator, responder
    a_id, b_id = a.identity.node_id, b.identity.node_id
    a_view, b_view = [], []  # each party's own record of the wire bytes

    def send(direction, data, label, flags, tamper=None):
        sent = data
        if tamper is not None:
            data = tamper(data)
        delivered = link.transfer(direction, data, label, flags)
        if direction == "i->r":
            a_view.append(sent)
            b_view.append(delivered)
        else:
            a_view.append(delivered)
            b_view.append(sent)
        return delivered

    # 1. FINDNODE trigger: A identifies itself and asks; B has no session.
    trigger = (
        PacketHeader(FLAG_MESSAGE, a._rand(b"trigger-nonce", 12), 32).encode()
        + a_id
        + b"FINDNODE"
    )
    send("i->r", trigger, "findnode-trigger", ("handshake",))

    # 2. WHOAREYOU challenge.
    challenge = Challenge(b._rand(b"id-nonce", 16), 0)
    whoareyou = (
        PacketHeader(FLAG_WHOAREYOU, b._rand(b"way-nonce", 12), 24).encode()
        + challenge.encode()
    )
    send("r->i", whoareyou, "whoareyou", ("handshake",))
    # The challenge data is the whoareyou wire bytes, as seen by each side.
    cd_a, cd_b = a_view[1], b_view[1]

    # 3. A: ephemeral keygen, DH, key derivation, identity signature.
    a_eph = DHKeypair.from_seed(a._rand(b"ephemeral", 32))
    dh_a = [a_eph.dh(b.identity.static.public_bytes)]
    if variant == "kk":
        dh_a.append(a.identity.static.dh(b.identity.static.public_bytes))
    label = HKDF_LABEL_V5 if variant == "v5" else HKDF_LABEL_KK
    keys_a = derive_session_keys(dh_a, cd_a, a_id, b_id, label)

    sig = a.identity.signing.sign(id_signature_input(cd_a, a_eph.public_bytes, b_id))
    authdata = HandshakeAuthdata(a_id, sig, a_eph.public_bytes).encode()
    hs_nonce = a._rand(b"handshake-nonce", 12)
    hs_header = PacketHeader(FLAG_HANDSHAKE, hs_nonce, len(authdata)).encode()
    # The AEAD binds the fixed header fields up to the nonce; the size
    # fields and the authdata itself are neither signed nor authenticated.
    hs_packet = (
        hs_header
        + authdata
        + _encrypt_message(keys_a.initiator_key, hs_nonce, hs_header[:21], b"FINDNODE")
    )
    hs_packet = send(
        "i->r", hs_packet, "handshake-message", ("handshake", "handshake-payload"),
        tamper=tamper_packet,
    )

    # 4. B: parse, verify signature, derive keys, decrypt, reply.
    header, rest = PacketHeader.decode(hs_packet)
    parsed = HandshakeAuthdata.decode(rest[: header.authdata_size])
    ciphertext = rest[header.authdata_size :]
    eph_pub = parsed.ephemeral_pubkey[:32]  # lenient: declared size may pad
    id_sig = parsed.id_signature[:64]
    if not verify_identity_sig(
        a.identity.signing.public_bytes,
        id_signature_input(cd_b, eph_pub, b_id),
        id_sig,
    ):
        raise HandshakeRejected("signature", "identity signature invalid")
    dh_b = [b.identity.static.dh(eph_pub)]
    if variant == "kk":
        dh_b.append(b.identity.static.dh(a.identity.static.public_bytes))
    keys_b = derive_session_keys(dh_b, cd_b, a_id, b_id, label)
    _decrypt_message(keys_b.initiator_key, header.nonce, hs_packet[:21], ciphertext)

    # KK: B contributes its own ephemeral; transport keys gain eph-eph.
    b_eph = None
    if variant == "kk":
        b_eph = DHKeypair.from_seed(b._rand(b"ephemeral", 32))
        dh_b2 = [b_eph.dh(eph_pub), b.identity.static.dh(eph_pub)]
        keys_b = derive_session_keys(dh_b2, cd_b, a_id, b_id, label)

    # Transcript binding: rebind transport keys to B's view of the first
    # three wire messages, which authenticates the size fields after all.
    if transcript_binding:
        th_b = transcript_hash(b_view[:3])
        keys_b = derive_session_keys(
            dh_b2 if variant == "kk" else dh_b,
            cd_b, a_id, b_id, label, transcript_hash=th_b,
        )

    # The nodes response. In the KK variant B's fresh ephemeral rides in
    # the clear-text authdata (after the sender id) so A can derive the
    # eph-eph transport keys before decrypting.
    nodes_nonce = b._rand(b"nodes-nonce", 12)
    nodes_authdata = b_id + (b_eph.public_bytes if b_eph else b"")
    nodes_header = PacketHeader(FLAG_MESSAGE, nodes_nonce, len(nodes_authdata)).encode()
    nodes_packet = (
        nodes_header
        + nodes_authdata
        + _encrypt_message(
            keys_b.recipient_key, nodes_nonce, nodes_header + nodes_authdata, b"NODES"
        )
    )
    nodes_packet = send("r->i", nodes_packet, "nodes-response", ("handshake", "transport"))

    # 5. A: (KK: mix in B's ephemeral), confirm by decrypting.
    n_header, n_rest = PacketHeader.decode(nodes_packet)
    th_a = transcript_hash(a_view[:3]) if transcript_binding else b""
    if variant == "kk":
        b_eph_pub = n_rest[32:64]
        dh_a2 = [a_eph.dh(b_eph_pub), a_eph.dh(b.identity.static.public_bytes)]
        keys_a = derive_session_keys(dh_a2, cd_a, a_id, b_id, label, transcript_hash=th_a)
    elif transcript_binding:
        keys_a = derive_session_keys(dh_a, cd_a, a_id, b_id, label, transcript_hash=th_a)
    try:
        ad_len = PacketHeader.HEADER_LEN + n_header.authdata_size
        _decrypt_message(
            keys_a.recipient_key, n_header.nonce, nodes_packet[:ad_len], nodes_packet[ad_len:]
        )
    except HandshakeRejected:
        if transcript_binding:
            raise HandshakeRejected("transcript", "transcript hashes diverged") from None
        raise

    # Post-handshake transport phase.
    for i, payload in enumerate(a.transport_payloads):
        pkt = build_message_packet(
            keys_a.initiator_key, a._rand(b"tp-nonce-%d" % i, 12), a_id, payload
        )
        pkt = send("i->r", pkt, f"transport-i{i}", ("transport",))
        open_message_packet(keys_b.initiator_key, pkt)
    for i, payload in enumerate(b.transport_payloads):
        pkt = build_message_packet(
            keys_b.recipient_key, b._rand(b"tp-nonce-%d" % i, 12), b_id, payload
        )
        pkt = send("r->i", pkt, f"transport-r{i}", ("transport",))
        open_message_packet(keys_a.recipient_key, pkt)

    link.transcript.protocol = f"discv5-{variant}"
    link.transcript.meta.update(
        {
            "variant": variant,
            "transcript_binding": transcript_binding,
            "initiator_node_id": a_id.hex(),
            "responder_node_id": b_id.hex(),
            "initiator_static_pub": a.identity.static.public_bytes.hex(),
            "responder_static_pub": b.identity.static.public_bytes.hex(),
            "initiator_signing_pub": a.identity.signing.public_bytes.hex(),
            "responder_signing_pub": b.identity.signing.public_bytes.hex(),
        }
    )
    return Discv5Result(keys_a, keys_b, link.transcript, {"challenge_data": cd_b.hex()})
