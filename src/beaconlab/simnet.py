"""Deterministic in-memory adversarial network.

Runs a protocol session (Noise XX or either discv5 variant) between two
in-process endpoints, records every wire byte, and offers the attacker's
toolkit over the recording: a passive decryption probe driven by a set of
compromised private keys, exact amplification accounting, and packet
replay. Identical (seed, script) pairs produce byte-identical
transcripts.

The toolkit holds no key schedule and no live session of its own: the
probe and the replay read the recorded bytes through one loop over the
protocols' own packet readers (``noise._XXParty``, ``discv5._Party``),
keyed by the compromised keys or, for a replay, by every session key.
Replayed into its session, each Noise packet is rejected and each discv5
message packet is ``Accepted``: discv5 keeps no replay window.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from . import discv5 as _d5
from . import noise as _noise
from .errors import (
    DecryptFailed,
    HandshakeAborted,
    HandshakeRejected,
    IncompleteTranscript,
    ProtocolViolation,
    parsing,
)
from .transcript import AdversarialLink, DirectLink, DroppedPacket, Transcript

DEFAULT_TRANSPORT_ROUNDS = 2
ROLES = ("initiator_static", "responder_static", "initiator_ephemeral", "responder_ephemeral")
# How a packet reader (or its DH) says that the bytes on the wire do not read.
WIRE_FAILURES = (HandshakeAborted, HandshakeRejected, ProtocolViolation, DecryptFailed)


@dataclass
class SessionOutcome:
    status: str  # "completed" | "timeout" | "rejected"
    detail: str = ""


@dataclass
class SimSession:
    protocol: str
    outcome: SessionOutcome
    transcript: Transcript
    secrets: dict = field(default_factory=dict)  # role -> X25519 private bytes


@dataclass
class CompromiseSet:
    """The private keys the adversary holds; probes may use nothing else."""

    keys: dict = field(default_factory=dict)  # role -> private bytes

    @classmethod
    def empty(cls):
        return cls({})

    @classmethod
    def of(cls, session: SimSession, *roles):
        unknown = [r for r in roles if r not in session.secrets]
        if unknown:
            raise KeyError(f"session holds no secret for {unknown}")
        return cls({r: session.secrets[r] for r in roles})

    @classmethod
    def full(cls, session: SimSession):
        return cls(dict(session.secrets))

    def dh(self, role_x: str, pub_x: bytes, role_y: str, pub_y: bytes):
        """X25519 agreement between the two named keys, if the set holds
        either private half; None otherwise."""
        if role_x in self.keys:
            priv, peer = self.keys[role_x], pub_y
        elif role_y in self.keys:
            priv, peer = self.keys[role_y], pub_x
        else:
            return None
        return _noise.x25519(X25519PrivateKey.from_private_bytes(priv), peer)


def _seed_bytes(rng: random.Random, label: str) -> bytes:
    return hashlib.sha256(rng.randbytes(32) + label.encode()).digest()


# ---------------------------------------------------------------------------
# Session runner
# ---------------------------------------------------------------------------


def run_session(
    protocol: str,
    seed,
    *,
    script=None,
    mode: str = "legacy",
    transcript_binding: bool = False,
    responder_padding: int = 0,
    transport_rounds: int = DEFAULT_TRANSPORT_ROUNDS,
) -> SimSession:
    """Run one two-party session and record it.

    ``protocol`` is noise-xx, discv5-v5, or discv5-kk. ``script`` is the
    declarative adversary script applied per packet index; a dropped
    packet makes both endpoints report a timeout. ``mode`` selects the
    Noise identity binding (legacy, hardened, or bare).
    """
    if protocol not in ("noise-xx", "discv5-v5", "discv5-kk"):
        raise ValueError(f"unknown protocol {protocol!r}")
    rng = random.Random(seed)
    link = AdversarialLink(script) if script else DirectLink()
    if protocol == "noise-xx":
        keys, run = _noise_session(rng, link, mode, responder_padding, transport_rounds)
    else:
        variant = protocol.split("-", 1)[1]
        keys, run = _discv5_session(rng, link, variant, transcript_binding, transport_rounds)
    try:
        run()
        outcome = SessionOutcome("completed")
    except DroppedPacket as exc:
        outcome = SessionOutcome("timeout", f"packet dropped: {exc}")
    except WIRE_FAILURES as exc:
        # Each packet is read as soon as it is delivered, so the last one
        # recorded is the one that failed.
        outcome = SessionOutcome("rejected", f"{link.transcript.entries[-1].label}: {exc}")
    if isinstance(link, AdversarialLink):
        link.finish()
    # Private keys by role; an ephemeral's X25519 seed is its private key.
    secrets = dict(zip(ROLES, keys))
    return SimSession(protocol, outcome, link.transcript, secrets)


def _noise_session(rng, link, mode, responder_padding, transport_rounds):
    binding = {
        "legacy": _noise.BindingMode.LEGACY,
        "hardened": _noise.BindingMode.HARDENED,
        "bare": None,
    }[mode]
    # Bare XX sends no identity payload, so its peers get no identity key.
    identities = (b"initiator-identity", b"responder-identity") if binding else (None, None)
    ini = _noise.PeerConfig.from_seeds(_seed_bytes(rng, "noise-initiator"), identities[0])
    res = _noise.PeerConfig.from_seeds(
        _seed_bytes(rng, "noise-responder"), identities[1], payload_padding=responder_padding
    )
    link.transcript.protocol = "noise-xx"
    link.transcript.meta.update(
        {
            "mode": mode,
            "initiator_static_pub": ini.static.public_bytes.hex(),
            "responder_static_pub": res.static.public_bytes.hex(),
        }
    )

    def run():
        result = _noise.run_xx_handshake(ini, res, binding, link=link)
        for i in range(transport_rounds):
            ct = result.initiator.send.encrypt_with_ad(b"", b"ping-%d" % i)
            ct = link.transfer("i->r", ct, f"transport-i{i}", ("transport",))
            result.responder.recv.decrypt_with_ad(b"", ct)
            ct = result.responder.send.encrypt_with_ad(b"", b"pong-%d" % i)
            ct = link.transfer("r->i", ct, f"transport-r{i}", ("transport",))
            result.initiator.recv.decrypt_with_ad(b"", ct)

    keys = (
        ini.static.private_bytes(), res.static.private_bytes(),
        ini.ephemeral_seed, res.ephemeral_seed,
    )
    return keys, run


def _discv5_session(rng, link, variant, transcript_binding, transport_rounds):
    a = _d5.Discv5Config(
        _d5.NodeIdentity.from_seed(_seed_bytes(rng, "discv5-initiator")),
        _seed_bytes(rng, "discv5-initiator-rng"),
        tuple(b"ping-%d" % i for i in range(transport_rounds)),
    )
    b = _d5.Discv5Config(
        _d5.NodeIdentity.from_seed(_seed_bytes(rng, "discv5-responder")),
        _seed_bytes(rng, "discv5-responder-rng"),
        tuple(b"pong-%d" % i for i in range(transport_rounds)),
    )

    def run():
        _d5.run_handshake(a, b, variant=variant, transcript_binding=transcript_binding, link=link)

    keys = (
        a.identity.static.private_bytes(), b.identity.static.private_bytes(),
        a.ephemeral_seed, b.ephemeral_seed,
    )
    return keys, run


# ---------------------------------------------------------------------------
# Passive decryption probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeEntry:
    index: int
    label: str
    direction: str
    encrypted: bool
    decrypted: bool
    plaintext: bytes | None = None


@dataclass
class ProbeReport:
    entries: list

    def decrypt_fraction(self, entries=None) -> float:
        entries = entries if entries is not None else [e for e in self.entries if e.encrypted]
        if not entries:
            return 0.0
        return sum(1 for e in entries if e.decrypted) / len(entries)

    def to_json(self):
        return [
            {
                "index": e.index,
                "label": e.label,
                "direction": e.direction,
                "encrypted": e.encrypted,
                "decrypted": e.decrypted,
            }
            for e in self.entries
        ]


# Packets that travel in the clear; every other packet is encrypted.
_CLEARTEXT = ("xx-msg1", "findnode-trigger", "whoareyou")


def passive_decrypt_probe(transcript: Transcript, compromise: CompromiseSet) -> ProbeReport:
    """Replay the recorded wire bytes through the protocol's own packet
    readers, holding only the compromised private keys; report which
    messages decrypt. Reading stops at the first packet that is missing,
    empty or unreadable, and at a Noise agreement the keys cannot compute
    (each Noise key chains into the next); every later message reads as
    not decrypted. A discv5 key the set cannot derive seals only the
    packets under it."""
    _, plaintexts, _ = _read_transcript(transcript, compromise.dh)
    entries = transcript.entries
    plaintexts += [None] * (len(entries) - len(plaintexts))
    return ProbeReport(
        [
            ProbeEntry(e.index, e.label, e.direction, e.label not in _CLEARTEXT, p is not None, p)
            for e, p in zip(entries, plaintexts)
        ]
    )


def _read_transcript(transcript: Transcript, dh, stop=None):
    """Read the recorded packets before index ``stop`` in wire order with
    the protocol's packet readers keyed by ``dh``. Return ``read``, which
    reads one more packet in the state reached; the plaintexts (None where
    a packet stays sealed); and the packet that failed to read, with its
    error, or None."""
    if transcript.protocol == "noise-xx":
        observer = _noise._XXParty(None, True, None, _noise.MAX_NONCE, dh)
        handshake = [
            ("xx-msg1", observer.read_message_1),
            ("xx-msg2", observer.read_message_2),
            ("xx-msg3", observer.read_message_3),
        ]
        ciphers = {}

        def read_transport(data, direction):
            if not ciphers:  # the handshake has been read: split once
                session = observer.session()
                ciphers.update({"i->r": session.send, "r->i": session.recv})
            return ciphers[direction].decrypt_with_ad(b"", data)

    elif transcript.protocol.startswith("discv5-"):
        with parsing("transcript meta"):
            observer = _d5._Party(transcript.meta, dh)
        handshake = [
            ("findnode-trigger", observer.read_trigger),
            ("whoareyou", observer.read_whoareyou),
            ("handshake-message", observer.read_handshake),
            ("nodes-response", observer.read_nodes),
        ]
        read_transport = observer.read_transport
    else:
        raise ValueError(f"no packet readers for protocol {transcript.protocol!r}")

    def read(entry):
        if entry.index < len(handshake):
            (label, reader), args = handshake[entry.index], (entry.data,)
        else:
            label, reader, args = "transport", read_transport, (entry.data, entry.direction)
        if not entry.label.startswith(label):
            raise ProtocolViolation(f"packet {entry.index} is not a {label} packet")
        return reader(*args)

    plaintexts = []
    for entry in transcript.entries[:stop]:
        try:
            plaintexts.append(read(entry))
        except WIRE_FAILURES as exc:
            return read, plaintexts, (entry, exc)
    return read, plaintexts, None


# ---------------------------------------------------------------------------
# Amplification measurement
# ---------------------------------------------------------------------------


def measure_amplification(transcript: Transcript) -> dict:
    """Exact byte accounting: responder pre-authentication reflex bytes
    divided by the initiator's first message."""
    entries = transcript.entries
    first_i = next((e for e in entries if e.direction == "i->r"), None)
    first_r = next((e for e in entries if e.direction == "r->i"), None)
    if first_i is None or first_r is None:
        raise IncompleteTranscript("need at least one message in each direction")
    initiator_bytes = len(first_i.data)
    responder_bytes = len(first_r.data)
    return {
        "initiator_bytes": initiator_bytes,
        "responder_bytes": responder_bytes,
        "factor": responder_bytes / initiator_bytes,
    }


# ---------------------------------------------------------------------------
# Replay injection
# ---------------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    accepted: bool
    reason: str

    def __str__(self):
        return "Accepted" if self.accepted else f"Rejected({self.reason})"


def replay_inject(session: SimSession, packet_index: int) -> ReplayOutcome:
    """Replay a recorded packet and report what its receiver makes of it.

    Readers holding every session key read the recorded packets in wire
    order, then the replayed packet once more; the verdict is what that
    read gives. A recorded packet that does not read is a rejection that
    names it. Two packets are read up to and replayed to a fresh victim:
    the identity payload of a Noise ``xx-msg2``/``xx-msg3`` (legacy or
    hardened), which the sender's former peer presents under the sender's
    stolen static key; and a discv5 ``handshake-message``, whose signature
    covers the old challenge, not the fresh responder's.
    """
    entries = session.transcript.entries
    if not 0 <= packet_index < len(entries):
        raise IndexError(f"transcript has no packet {packet_index}")
    entry = entries[packet_index]
    mode = session.transcript.meta.get("mode")
    identity = entry.label in ("xx-msg2", "xx-msg3") and mode in ("legacy", "hardened")
    fresh_victim = identity or entry.label == "handshake-message"
    stop = packet_index + 1 if fresh_victim else None
    keys = CompromiseSet.full(session)
    read, plaintexts, failure = _read_transcript(session.transcript, keys.dh, stop)
    if failure is not None:
        return ReplayOutcome(False, f"{failure[0].label}: {failure[1]}")
    if identity:
        victim = "initiator" if entry.direction == "i->r" else "responder"
        attacker = _noise.PeerConfig(
            static=_noise.DHKeypair.from_seed(session.secrets[f"{victim}_static"]),
            preset_payload=_noise.HandshakePayload.decode(plaintexts[-1]),
        )
        target = _noise.PeerConfig.from_seeds(b"replay-target-static", b"replay-target-identity")
        try:
            _noise.run_xx_handshake(attacker, target, _noise.BindingMode(mode))
        except HandshakeAborted as exc:
            return ReplayOutcome(False, f"HandshakeAborted({exc.reason})")
    elif fresh_victim:
        fresh = _d5.Discv5Config(_d5.NodeIdentity.from_seed(b"replay-target"), b"replay-target")
        meta = dict(session.transcript.meta, **_d5.identity_meta("responder", fresh.identity))
        target = _d5._Responder(fresh, meta)
        target.write_whoareyou()
        try:
            target.read_handshake(entry.data)
        except HandshakeRejected as exc:
            return ReplayOutcome(
                False, "stale challenge signature" if exc.reason == "signature" else str(exc)
            )
    else:
        try:
            read(entry)
        except WIRE_FAILURES as exc:
            return ReplayOutcome(False, f"{type(exc).__name__}({exc})")
    return ReplayOutcome(True, "")
