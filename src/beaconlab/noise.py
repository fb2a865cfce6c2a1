"""Noise XX over Curve25519/ChaChaPoly/SHA256 with the libp2p-style
identity layer.

Two identity bindings are implemented: the legacy one signs only the
sender's static public key, so a leaked (static key, signature) triple
impersonates the identity owner forever; the hardened one mixes the
peer's ephemeral key into the signed message as an unpredictable
challenge, which kills the replay. ``simnet.replay_inject`` stages both
outcomes from a recorded session.

Cipher states enforce the 64-bit counter-nonce discipline: the maximum
value poisons the state and every later call errors. A deliberately
wrapping variant reproduces the overflow bug class for the regression
detector.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from .errors import (
    ConfigError,
    DecryptFailed,
    HandshakeAborted,
    NonceExhausted,
    ProtocolViolation,
)
from .kdf import HASH_LEN, hkdf_sha256
from .transcript import DirectLink

PROTOCOL_NAME = b"Noise_XX_25519_ChaChaPoly_SHA256"
MAX_NONCE = 2**64 - 1
STATIC_KEY_PREFIX = b"noise-libp2p-static-key:"
DHLEN = 32
TAGLEN = 16


class BindingMode(Enum):
    LEGACY = "legacy"
    HARDENED = "hardened"


# ---------------------------------------------------------------------------
# Key material
# ---------------------------------------------------------------------------


@dataclass
class DHKeypair:
    private: X25519PrivateKey
    public_bytes: bytes

    @classmethod
    def from_seed(cls, seed: bytes):
        if len(seed) != 32:
            raise ValueError("X25519 seed must be 32 bytes")
        priv = X25519PrivateKey.from_private_bytes(seed)
        return cls(priv, priv.public_key().public_bytes_raw())

    def dh(self, peer_public: bytes) -> bytes:
        return x25519(self.private, peer_public)

    def private_bytes(self) -> bytes:
        return self.private.private_bytes_raw()


def x25519(private: X25519PrivateKey, peer_public: bytes) -> bytes:
    """X25519 agreement. A peer key of the wrong length, or of low order
    (the all-zero output), is a protocol violation."""
    try:
        return private.exchange(X25519PublicKey.from_public_bytes(peer_public))
    except ValueError:
        raise ProtocolViolation("peer key is not a usable X25519 public key") from None


def keypair_dh(keys: dict):
    """The DH callable of a party holding ``keys`` (role -> DHKeypair):
    ``dh(role_x, pub_x, role_y, pub_y)`` agrees through whichever of the
    two named keys the party holds, and returns None if it holds neither."""

    def dh(role_x, pub_x, role_y, pub_y):
        if role_x in keys:
            return keys[role_x].dh(pub_y)
        if role_y in keys:
            return keys[role_y].dh(pub_x)
        return None

    return dh


@dataclass
class IdentityKeypair:
    private: Ed25519PrivateKey
    public_bytes: bytes

    @classmethod
    def from_seed(cls, seed: bytes):
        if len(seed) != 32:
            raise ValueError("Ed25519 seed must be 32 bytes")
        priv = Ed25519PrivateKey.from_private_bytes(seed)
        return cls(priv, priv.public_key().public_bytes_raw())

    def sign(self, message: bytes) -> bytes:
        return self.private.sign(message)


def verify_identity_sig(identity_public: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(identity_public).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# Cipher state with 64-bit nonce discipline
# ---------------------------------------------------------------------------


class CipherState:
    """(key, counter nonce) pair; each (k, n) encrypts at most one message.

    ``nonce_cap`` defaults to the reserved maximum 2**64 - 1; reaching it
    poisons the state. A smaller cap miniaturizes exhaustion for tests.
    """

    def __init__(self, key=None, nonce_cap=MAX_NONCE):
        self.k = key
        self.n = 0
        self.nonce_cap = nonce_cap
        self.poisoned = False

    def _nonce_bytes(self):
        return b"\x00" * 4 + self.n.to_bytes(8, "little")

    def _advance(self):
        self.n += 1
        if self.n >= self.nonce_cap:
            self.poisoned = True

    def encrypt_with_ad(self, ad: bytes, plaintext: bytes) -> bytes:
        if self.k is None:
            return plaintext
        if self.poisoned:
            raise NonceExhausted("cipher state exhausted its nonce space")
        ct = ChaCha20Poly1305(self.k).encrypt(self._nonce_bytes(), plaintext, ad)
        self._advance()
        return ct

    def decrypt_with_ad(self, ad: bytes, ciphertext: bytes) -> bytes:
        if self.k is None:
            return ciphertext
        if self.poisoned:
            raise NonceExhausted("cipher state exhausted its nonce space")
        try:
            pt = ChaCha20Poly1305(self.k).decrypt(self._nonce_bytes(), ciphertext, ad)
        except InvalidTag:
            raise DecryptFailed("AEAD tag mismatch") from None
        self._advance()
        return pt


class WrappingCipherState(CipherState):
    """Deliberately buggy cipher state with a truncated counter.

    Reproduces the overflow bug class: once the counter wraps, a fresh
    message reuses an earlier (key, nonce) pair. Exists only as the
    regression target for :class:`NonceReuseDetector`.
    """

    def __init__(self, key, counter_bits: int):
        super().__init__(key, nonce_cap=MAX_NONCE)
        self.counter_bits = counter_bits

    def _nonce_bytes(self):
        wrapped = self.n % (1 << self.counter_bits)
        return b"\x00" * 4 + wrapped.to_bytes(8, "little")

    def _advance(self):
        self.n += 1  # no cap, no poison: that is the bug


class NonceReuseDetector:
    """Observes (key, nonce) pairs on the wire and fires on any reuse."""

    def __init__(self):
        self._seen = set()
        self.reuse_events = []

    def observe(self, key: bytes, nonce: bytes):
        pair = (key, nonce)
        if pair in self._seen:
            self.reuse_events.append(pair)
        self._seen.add(pair)

    @property
    def fired(self):
        return bool(self.reuse_events)


# ---------------------------------------------------------------------------
# Symmetric state
# ---------------------------------------------------------------------------


def noise_hkdf(chaining_key: bytes, ikm: bytes, num_outputs: int):
    """Noise's HKDF: HKDF-SHA256 salted with the chaining key, with empty
    info, cut into ``num_outputs`` 32-byte outputs."""
    okm = hkdf_sha256(chaining_key, ikm, b"", HASH_LEN * num_outputs)
    return tuple(okm[i : i + HASH_LEN] for i in range(0, len(okm), HASH_LEN))


class SymmetricState:
    def __init__(self, nonce_cap=MAX_NONCE):
        self.nonce_cap = nonce_cap
        name = PROTOCOL_NAME
        self.h = name if len(name) == 32 else hashlib.sha256(name).digest()
        self.ck = self.h
        self.cipher = CipherState(nonce_cap=nonce_cap)

    def mix_hash(self, data: bytes):
        self.h = hashlib.sha256(self.h + data).digest()

    def mix_key(self, ikm: bytes):
        self.ck, temp_k = noise_hkdf(self.ck, ikm, 2)
        self.cipher = CipherState(temp_k, nonce_cap=self.nonce_cap)

    def encrypt_and_hash(self, plaintext: bytes) -> bytes:
        ct = self.cipher.encrypt_with_ad(self.h, plaintext)
        self.mix_hash(ct)
        return ct

    def decrypt_and_hash(self, ciphertext: bytes) -> bytes:
        pt = self.cipher.decrypt_with_ad(self.h, ciphertext)
        self.mix_hash(ciphertext)
        return pt

    def split(self):
        k1, k2 = noise_hkdf(self.ck, b"", 2)
        return (
            CipherState(k1, nonce_cap=self.nonce_cap),
            CipherState(k2, nonce_cap=self.nonce_cap),
        )


# ---------------------------------------------------------------------------
# Identity payload and static-key bindings
# ---------------------------------------------------------------------------


@dataclass
class HandshakePayload:
    identity_pubkey: bytes
    identity_sig: bytes
    extensions: bytes = b""

    def encode(self) -> bytes:
        out = b""
        for chunk in (self.identity_pubkey, self.identity_sig, self.extensions):
            out += len(chunk).to_bytes(2, "big") + chunk
        return out

    @classmethod
    def decode(cls, data: bytes):
        fields = []
        offset = 0
        for _ in range(3):
            if offset + 2 > len(data):
                raise ProtocolViolation("truncated handshake payload")
            n = int.from_bytes(data[offset : offset + 2], "big")
            offset += 2
            if offset + n > len(data):
                raise ProtocolViolation("truncated handshake payload")
            fields.append(data[offset : offset + n])
            offset += n
        # Trailing bytes beyond the three fields are padding and ignored.
        return cls(*fields)


def static_key_binding_message(s_pub: bytes, mode: BindingMode, re: bytes | None = None) -> bytes:
    if mode is BindingMode.HARDENED:
        if re is None:
            raise ConfigError("hardened binding needs the peer ephemeral as challenge")
        return STATIC_KEY_PREFIX + re + s_pub
    return STATIC_KEY_PREFIX + s_pub


def sign_static_key(
    identity: IdentityKeypair, s_pub: bytes, mode: BindingMode, re: bytes | None = None
) -> bytes:
    return identity.sign(static_key_binding_message(s_pub, mode, re))


def verify_static_key(
    identity_public: bytes,
    s_pub: bytes,
    signature: bytes,
    mode: BindingMode,
    re: bytes | None = None,
) -> bool:
    return verify_identity_sig(
        identity_public, static_key_binding_message(s_pub, mode, re), signature
    )


# ---------------------------------------------------------------------------
# The XX handshake
# ---------------------------------------------------------------------------


@dataclass
class PeerConfig:
    static: DHKeypair
    identity: IdentityKeypair | None = None
    ephemeral_seed: bytes = b"\x00" * 32
    payload_padding: int = 0  # zero padding appended to this peer's payload
    preset_payload: HandshakePayload | None = None  # attacker-supplied payload

    @classmethod
    def from_seeds(cls, static_seed, identity_seed=None, ephemeral_seed=None, **kw):
        """Build a config from seeds of any length (hashed down to 32 bytes)."""
        h = lambda s: hashlib.sha256(s).digest()
        return cls(
            static=DHKeypair.from_seed(h(static_seed + b"/static")),
            identity=IdentityKeypair.from_seed(h(identity_seed)) if identity_seed else None,
            ephemeral_seed=h(ephemeral_seed) if ephemeral_seed else h(static_seed + b"/eph"),
            **kw,
        )


@dataclass
class NoiseSession:
    send: CipherState
    recv: CipherState
    remote_identity: bytes | None
    remote_static: bytes
    handshake_hash: bytes


@dataclass
class HandshakeResult:
    initiator: NoiseSession
    responder: NoiseSession
    transcript: object
    message_sizes: list = field(default_factory=list)


class _XXParty:
    """One side of the XX handshake, or (``cfg`` None) a passive observer
    that reads all three messages. Public keys are kept by role; private
    keys are reached only through ``dh`` (see :func:`keypair_dh`), by
    default the config's own. An observer passes the keys it holds and
    ``mode`` None, which follows the symmetric state without checking
    identities."""

    def __init__(self, cfg, initiator: bool, mode: BindingMode | None, nonce_cap, dh=None):
        self.cfg = cfg
        self.mode = mode
        self.ss = SymmetricState(nonce_cap)
        self.ss.mix_hash(b"")  # empty prologue
        self.role = "initiator" if initiator else "responder"
        self.peer = "responder" if initiator else "initiator"
        self.pub, self.dh, self.remote_identity = {}, dh, None
        if cfg is not None:
            e = DHKeypair.from_seed(cfg.ephemeral_seed)
            own = {self.role + "_static": cfg.static, self.role + "_ephemeral": e}
            self.pub = {role: key.public_bytes for role, key in own.items()}
            self.dh = dh or keypair_dh(own)

    def _mix_dh(self, x: str, y: str):
        """MixKey(DH(initiator's ``x`` key, responder's ``y`` key))."""
        rx, ry = "initiator_" + x, "responder_" + y
        secret = self.dh(rx, self.pub[rx], ry, self.pub[ry])
        if secret is None:
            raise HandshakeAborted("crypto", f"no private key for {rx} or {ry}")
        self.ss.mix_key(secret)

    # -- payload handling --------------------------------------------------

    def _own_payload(self) -> bytes:
        if self.mode is None:
            body = b""
        elif self.cfg.preset_payload is not None:
            body = self.cfg.preset_payload.encode()
        else:
            if self.cfg.identity is None:
                raise ConfigError("identity keypair required in identity mode")
            s, re = self.pub[self.role + "_static"], self.pub[self.peer + "_ephemeral"]
            sig = sign_static_key(self.cfg.identity, s, self.mode, re)
            body = HandshakePayload(self.cfg.identity.public_bytes, sig).encode()
        return body + b"\x00" * self.cfg.payload_padding

    def _check_payload(self, plaintext: bytes) -> bytes:
        if self.mode is None:
            return plaintext
        payload = HandshakePayload.decode(plaintext)
        ok = verify_static_key(
            payload.identity_pubkey,
            self.pub[self.peer + "_static"],
            payload.identity_sig,
            self.mode,
            self.pub[self.role + "_ephemeral"],  # verifier's own ephemeral is the challenge
        )
        if not ok:
            raise HandshakeAborted("identity", "static key signature did not verify")
        self.remote_identity = payload.identity_pubkey
        return plaintext

    # -- message 1: -> e ---------------------------------------------------

    def write_message_1(self) -> bytes:
        e = self.pub["initiator_ephemeral"]
        self.ss.mix_hash(e)
        # The initiator must not send a payload in message 1.
        return e + self.ss.encrypt_and_hash(b"")

    def read_message_1(self, data: bytes):
        if len(data) < DHLEN:
            raise ProtocolViolation("message 1 shorter than an ephemeral key")
        if len(data) > DHLEN:
            raise ProtocolViolation("initiator sent early payload in message 1")
        self.pub["initiator_ephemeral"] = data[:DHLEN]
        self.ss.mix_hash(data[:DHLEN])
        self.ss.decrypt_and_hash(data[DHLEN:])

    # -- message 2: <- e, ee, s, es ---------------------------------------

    def write_message_2(self) -> bytes:
        out = self.pub["responder_ephemeral"]
        self.ss.mix_hash(out)
        self._mix_dh("ephemeral", "ephemeral")  # ee
        out += self.ss.encrypt_and_hash(self.pub["responder_static"])  # s
        self._mix_dh("ephemeral", "static")  # es
        out += self.ss.encrypt_and_hash(self._own_payload())
        return out

    def read_message_2(self, data: bytes) -> bytes:
        """Read message 2 and return the responder's payload."""
        if len(data) < DHLEN + DHLEN + TAGLEN + TAGLEN:
            raise ProtocolViolation("message 2 too short")
        self.pub["responder_ephemeral"] = data[:DHLEN]
        self.ss.mix_hash(data[:DHLEN])
        self._mix_dh("ephemeral", "ephemeral")  # ee
        enc_s = data[DHLEN : DHLEN + DHLEN + TAGLEN]
        try:
            self.pub["responder_static"] = self.ss.decrypt_and_hash(enc_s)
            self._mix_dh("ephemeral", "static")  # es
            plaintext = self.ss.decrypt_and_hash(data[DHLEN + DHLEN + TAGLEN :])
        except DecryptFailed as exc:
            raise HandshakeAborted("crypto", str(exc)) from None
        return self._check_payload(plaintext)

    # -- message 3: -> s, se ----------------------------------------------

    def write_message_3(self) -> bytes:
        out = self.ss.encrypt_and_hash(self.pub["initiator_static"])  # s
        self._mix_dh("static", "ephemeral")  # se
        out += self.ss.encrypt_and_hash(self._own_payload())
        return out

    def read_message_3(self, data: bytes) -> bytes:
        """Read message 3 and return the initiator's payload."""
        if len(data) < DHLEN + TAGLEN + TAGLEN:
            raise ProtocolViolation("message 3 too short")
        enc_s = data[: DHLEN + TAGLEN]
        try:
            self.pub["initiator_static"] = self.ss.decrypt_and_hash(enc_s)
            self._mix_dh("static", "ephemeral")  # se
            plaintext = self.ss.decrypt_and_hash(data[DHLEN + TAGLEN :])
        except DecryptFailed as exc:
            raise HandshakeAborted("crypto", str(exc)) from None
        return self._check_payload(plaintext)

    def session(self) -> NoiseSession:
        c1, c2 = self.ss.split()
        send, recv = (c1, c2) if self.role == "initiator" else (c2, c1)
        return NoiseSession(
            send, recv, self.remote_identity, self.pub[self.peer + "_static"], self.ss.h
        )


def run_xx_handshake(
    initiator_cfg: PeerConfig,
    responder_cfg: PeerConfig,
    mode: BindingMode | None,
    link=None,
    nonce_cap=MAX_NONCE,
) -> HandshakeResult:
    """Run the three-message XX handshake between two in-process peers.

    ``mode`` None runs bare XX (no identity payloads); otherwise each
    side's payload carries its identity key and static-key signature under
    the given binding. Raises HandshakeAborted / ProtocolViolation on any
    failure; message delivery (and tampering) goes through ``link``.
    """
    link = link if link is not None else DirectLink()
    ini = _XXParty(initiator_cfg, True, mode, nonce_cap)
    res = _XXParty(responder_cfg, False, mode, nonce_cap)

    m1 = ini.write_message_1()
    res.read_message_1(link.transfer("i->r", m1, "xx-msg1", ("handshake",)))
    m2 = res.write_message_2()
    # The responder's payload rides in message 2, before the initiator is
    # authenticated: anyone who opens a connection receives it.
    ini.read_message_2(link.transfer("r->i", m2, "xx-msg2", ("handshake", "early-data")))
    m3 = ini.write_message_3()
    res.read_message_3(link.transfer("i->r", m3, "xx-msg3", ("handshake",)))

    result = HandshakeResult(
        ini.session(), res.session(), link.transcript, [len(m1), len(m2), len(m3)]
    )
    if result.initiator.handshake_hash != result.responder.handshake_hash:
        raise HandshakeAborted("crypto", "handshake hashes diverged")
    return result
