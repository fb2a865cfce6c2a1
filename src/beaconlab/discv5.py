"""Node-discovery handshakes: the v5.1 challenge/response protocol and a
hardened KK-style variant whose transport keys mix in an
ephemeral-ephemeral exchange.

Wire packets use an unmasked, fixed header
``protocol-id || version || flag || nonce || authdata-size`` so that a
passive observer (and the forward-secrecy probe) can parse everything.
The handshake authdata declares ``sig-size`` and ``eph-key-size``; those
fields are NOT covered by the identity signature, which is exactly the
weakness the optional transcript-hash binding closes.

Each side is a party object: ``_Initiator`` and ``_Responder`` write their
own packets, and every packet has one reader on their shared base
``_Party``. A party knows the public keys by role and reaches private keys
only through its DH callable, so the probe and the replay run these same
readers as a passive ``_Party`` holding only the keys they are given; the
handshake replay feeds a recorded packet to a fresh ``_Responder``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import HandshakeRejected, ParseError
from .kdf import hkdf_sha256
from .noise import DHKeypair, IdentityKeypair, keypair_dh, verify_identity_sig
from .transcript import DirectLink

PROTOCOL_ID = b"discv5"
VERSION = 0x0001

FLAG_MESSAGE = 0
FLAG_WHOAREYOU = 1
FLAG_HANDSHAKE = 2

ID_SIGNATURE_PREFIX = b"discovery v5 identity proof"
HKDF_LABEL_V5 = b"discv5 v5 key agreement"
HKDF_LABEL_KK = b"discv5 kk key agreement"

# Each variant's HKDF label and the DH inputs of its two key derivations, as
# (initiator key, responder key) pairs: the handshake key seals the
# handshake message, the session keys everything after it.
SCHEDULES = {
    "v5": (HKDF_LABEL_V5, {
        "handshake": [("ephemeral", "static")],
        "session": [("ephemeral", "static")],
    }),
    "kk": (HKDF_LABEL_KK, {
        "handshake": [("ephemeral", "static"), ("static", "static")],
        "session": [("ephemeral", "ephemeral"), ("ephemeral", "static")],
    }),
}


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

    def key(self, direction: str) -> bytes:
        """The key that seals packets travelling in ``direction``."""
        return self.initiator_key if direction == "i->r" else self.recipient_key


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


def _decrypt_message(key: bytes, nonce: bytes, header_and_auth: bytes, ciphertext: bytes) -> bytes:
    try:
        return AESGCM(key).decrypt(nonce, ciphertext, header_and_auth)
    except InvalidTag:
        raise HandshakeRejected("aead", "message did not decrypt") from None


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

    @cached_property
    def ephemeral_seed(self) -> bytes:
        """The X25519 private key of this node's handshake ephemeral."""
        return self._rand(b"ephemeral", 32)


@dataclass
class Discv5Result:
    initiator_keys: SessionKeys
    responder_keys: SessionKeys
    transcript: object


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


def identity_meta(role: str, identity: NodeIdentity) -> dict:
    """The public half of ``identity``, as transcript meta records ``role``."""
    return {
        f"{role}_node_id": identity.node_id.hex(),
        f"{role}_static_pub": identity.static.public_bytes.hex(),
        f"{role}_signing_pub": identity.signing.public_bytes.hex(),
    }


# The AEAD of the handshake message binds the fixed header up to the nonce;
# the size fields and the authdata are neither signed nor authenticated.
_HANDSHAKE_AD_LEN = PacketHeader.HEADER_LEN - 2


class _Party:
    """What both sides share: the packet readers and the key schedule.

    A party is built from the session ``meta`` (the variant, the binding
    and both identities' public halves) and a DH callable (see
    :func:`beaconlab.noise.keypair_dh`); derived keys are None when ``dh``
    cannot compute one of their inputs. ``view`` is the wire bytes as this
    party sent or received them. A bare ``_Party`` is a passive observer:
    it can read every packet, and verifies no signature.
    """

    def __init__(self, meta: dict, dh):
        self.variant = meta["variant"]
        self.binding = meta["transcript_binding"]
        roles = ("initiator", "responder")
        self.ids = tuple(bytes.fromhex(meta[r + "_node_id"]) for r in roles)
        self.pub = {r + "_static": bytes.fromhex(meta[r + "_static_pub"]) for r in roles}
        self.dh = dh
        self.shared = {}  # (initiator role, responder role) -> DH output
        self.derived = {}  # (DH outputs, transcript hash) -> keys
        self.view = []
        self.challenge_data = None  # the WHOAREYOU wire bytes
        self.keys = None  # session keys, from the nodes response on

    def _agree(self, x: str, y: str):
        pair = ("initiator_" + x, "responder_" + y)
        if pair not in self.shared:
            self.shared[pair] = self.dh(pair[0], self.pub[pair[0]], pair[1], self.pub[pair[1]])
        return self.shared[pair]

    def _derive(self, phase: str) -> SessionKeys | None:
        label, schedule = SCHEDULES[self.variant]
        outputs = [self._agree(x, y) for x, y in schedule[phase]]
        if None in outputs:
            return None
        # Transcript binding mixes this party's view of the first three
        # packets into the session keys, authenticating the size fields.
        th = transcript_hash(self.view[:3]) if self.binding and phase == "session" else b""
        if (tuple(outputs), th) not in self.derived:  # v5 unbound: the same keys twice
            self.derived[tuple(outputs), th] = derive_session_keys(
                outputs, self.challenge_data, *self.ids, label, th
            )
        return self.derived[tuple(outputs), th]

    def _sent(self, packet: bytes) -> bytes:
        self.view.append(packet)
        return packet

    def _write_message(self, direction, nonce, authdata, payload) -> bytes:
        header = PacketHeader(FLAG_MESSAGE, nonce, len(authdata)).encode() + authdata
        sealed = AESGCM(self.keys.key(direction)).encrypt(nonce, payload, header)
        return self._sent(header + sealed)

    def _read(self, packet: bytes, flag: int, decode=bytes):
        """Parse ``packet`` as a ``flag`` packet and record it; return
        (header, decoded authdata, ciphertext)."""
        try:
            header, rest = PacketHeader.decode(packet)
            if header.flag != flag:
                raise ParseError(f"flag {header.flag} where {flag} was expected")
            authdata = decode(rest[: header.authdata_size])
        except ParseError as exc:
            raise HandshakeRejected("parse", str(exc)) from None
        self.view.append(packet)
        return header, authdata, rest[header.authdata_size :]

    @staticmethod
    def _open(keys, direction, nonce, ad, ciphertext):
        if keys is None:
            return None  # a key this party cannot derive: the packet stays sealed
        return _decrypt_message(keys.key(direction), nonce, ad, ciphertext)

    def _check_identity(self, ephemeral_pubkey: bytes, id_signature: bytes):
        """The responder verifies the initiator's identity; an observer does not."""

    def write_transport(self, i: int, payload: bytes) -> bytes:
        """Seal a transport payload (either party, after the handshake)."""
        nonce = self.cfg._rand(b"tp-nonce-%d" % i, 12)
        return self._write_message(self.SENDS, nonce, self.own_id, payload)

    # -- readers, in wire order ---------------------------------------------

    def read_trigger(self, packet: bytes):
        # B answers any packet with a challenge; the trigger is not parsed.
        self.view.append(packet)

    def read_whoareyou(self, packet: bytes):
        self._read(packet, FLAG_WHOAREYOU, Challenge.decode)
        self.challenge_data = packet

    def read_handshake(self, packet: bytes) -> bytes | None:
        header, auth, ciphertext = self._read(packet, FLAG_HANDSHAKE, HandshakeAuthdata.decode)
        eph = auth.ephemeral_pubkey[:32]  # lenient: the declared size may pad
        self._check_identity(eph, auth.id_signature[:64])
        self.pub["initiator_ephemeral"] = eph
        ad = packet[:_HANDSHAKE_AD_LEN]
        return self._open(self._derive("handshake"), "i->r", header.nonce, ad, ciphertext)

    def read_nodes(self, packet: bytes) -> bytes | None:
        header, authdata, ciphertext = self._read(packet, FLAG_MESSAGE)
        if self.variant == "kk":
            # B's fresh ephemeral rides in the clear after its node id.
            self.pub["responder_ephemeral"] = authdata[32:64]
        self.keys = self._derive("session")
        ad = packet[: PacketHeader.HEADER_LEN + len(authdata)]
        try:
            return self._open(self.keys, "r->i", header.nonce, ad, ciphertext)
        except HandshakeRejected:
            if self.binding:
                raise HandshakeRejected("transcript", "transcript hashes diverged") from None
            raise

    def read_transport(self, packet: bytes, direction: str) -> bytes | None:
        header, authdata, ciphertext = self._read(packet, FLAG_MESSAGE)
        ad = packet[: PacketHeader.HEADER_LEN + len(authdata)]
        return self._open(self.keys, direction, header.nonce, ad, ciphertext)


class _Initiator(_Party):
    SENDS = "i->r"

    def __init__(self, cfg: Discv5Config, meta: dict):
        eph = DHKeypair.from_seed(cfg.ephemeral_seed)
        own = {"initiator_static": cfg.identity.static, "initiator_ephemeral": eph}
        super().__init__(meta, keypair_dh(own))
        self.pub.update((role, key.public_bytes) for role, key in own.items())
        self.cfg, self.own_id = cfg, self.ids[0]

    def write_trigger(self) -> bytes:
        # A identifies itself and asks; B has no session yet.
        header = PacketHeader(FLAG_MESSAGE, self.cfg._rand(b"trigger-nonce", 12), 32).encode()
        return self._sent(header + self.ids[0] + b"FINDNODE")

    def write_handshake(self) -> bytes:
        eph = self.pub["initiator_ephemeral"]
        signed = id_signature_input(self.challenge_data, eph, self.ids[1])
        sig = self.cfg.identity.signing.sign(signed)
        authdata = HandshakeAuthdata(self.ids[0], sig, eph).encode()
        nonce = self.cfg._rand(b"handshake-nonce", 12)
        header = PacketHeader(FLAG_HANDSHAKE, nonce, len(authdata)).encode()
        key = self._derive("handshake").initiator_key
        sealed = AESGCM(key).encrypt(nonce, b"FINDNODE", header[:_HANDSHAKE_AD_LEN])
        return self._sent(header + authdata + sealed)


class _Responder(_Party):
    SENDS = "r->i"

    def __init__(self, cfg: Discv5Config, meta: dict):
        own = {"responder_static": cfg.identity.static}
        if meta["variant"] == "kk":  # only the KK schedule uses B's ephemeral
            own["responder_ephemeral"] = DHKeypair.from_seed(cfg.ephemeral_seed)
        super().__init__(meta, keypair_dh(own))
        self.pub.update((role, key.public_bytes) for role, key in own.items())
        self.cfg, self.own_id = cfg, self.ids[1]
        self.initiator_signing_pub = bytes.fromhex(meta["initiator_signing_pub"])

    def _check_identity(self, ephemeral_pubkey, id_signature):
        message = id_signature_input(self.challenge_data, ephemeral_pubkey, self.ids[1])
        if not verify_identity_sig(self.initiator_signing_pub, message, id_signature):
            raise HandshakeRejected("signature", "identity signature invalid")

    def write_whoareyou(self) -> bytes:
        challenge = Challenge(self.cfg._rand(b"id-nonce", 16), 0)
        header = PacketHeader(FLAG_WHOAREYOU, self.cfg._rand(b"way-nonce", 12), 24).encode()
        self.challenge_data = self._sent(header + challenge.encode())
        return self.challenge_data

    def write_nodes(self) -> bytes:
        # KK: B's fresh ephemeral rides in the clear after its node id, so
        # that A can derive the eph-eph session keys before decrypting.
        self.keys = self._derive("session")
        authdata = self.ids[1] + self.pub.get("responder_ephemeral", b"")
        return self._write_message("r->i", self.cfg._rand(b"nodes-nonce", 12), authdata, b"NODES")


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
    after the initiator sends it and before the responder sees it. The
    transcript meta is written before the first packet, so a failed run
    still leaves a transcript the probe can read.
    """
    if variant not in SCHEDULES:
        raise ValueError("variant must be 'v5' or 'kk'")
    link = link if link is not None else DirectLink()
    meta = {"variant": variant, "transcript_binding": transcript_binding}
    meta.update(identity_meta("initiator", initiator.identity))
    meta.update(identity_meta("responder", responder.identity))
    link.transcript.protocol = f"discv5-{variant}"
    link.transcript.meta.update(meta)
    a, b = _Initiator(initiator, meta), _Responder(responder, meta)
    send = link.transfer

    b.read_trigger(send("i->r", a.write_trigger(), "findnode-trigger", ("handshake",)))
    a.read_whoareyou(send("r->i", b.write_whoareyou(), "whoareyou", ("handshake",)))
    packet = a.write_handshake()
    if tamper_packet is not None:
        packet = tamper_packet(packet)
    b.read_handshake(send("i->r", packet, "handshake-message", ("handshake", "handshake-payload")))
    a.read_nodes(send("r->i", b.write_nodes(), "nodes-response", ("handshake", "transport")))
    for i, payload in enumerate(initiator.transport_payloads):
        packet = a.write_transport(i, payload)
        b.read_transport(send("i->r", packet, f"transport-i{i}", ("transport",)), "i->r")
    for i, payload in enumerate(responder.transport_payloads):
        packet = b.write_transport(i, payload)
        a.read_transport(send("r->i", packet, f"transport-r{i}", ("transport",)), "r->i")
    return Discv5Result(a.keys, b.keys, link.transcript)
