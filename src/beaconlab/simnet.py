"""Deterministic in-memory adversarial network.

Runs a protocol session (Noise XX or either discv5 variant) between two
in-process endpoints, records every wire byte, and offers the attacker's
toolkit over the recording: a passive decryption probe driven by a set of
compromised private keys, exact amplification accounting, and packet
replay. Identical (seed, script) pairs produce byte-identical
transcripts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)

from . import discv5 as _d5
from . import noise as _noise
from .errors import HandshakeAborted, HandshakeRejected, IncompleteTranscript
from .transcript import AdversarialLink, DirectLink, DroppedPacket, Transcript

DEFAULT_TRANSPORT_ROUNDS = 2


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
    extras: dict = field(default_factory=dict)  # live objects, not serialized


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
        return X25519PrivateKey.from_private_bytes(priv).exchange(
            X25519PublicKey.from_public_bytes(peer)
        )


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
        session = _run_noise(rng, link, mode, responder_padding, transport_rounds)
    else:
        session = _run_discv5(
            rng, link, protocol.split("-", 1)[1], transcript_binding, transport_rounds
        )
    if isinstance(link, AdversarialLink):
        link.finish()
    return session


def _run_noise(rng, link, mode, responder_padding, transport_rounds):
    binding = {
        "legacy": _noise.BindingMode.LEGACY,
        "hardened": _noise.BindingMode.HARDENED,
        "bare": None,
    }[mode]
    ini = _noise.PeerConfig.from_seeds(
        _seed_bytes(rng, "noise-initiator"), b"initiator-identity"
    )
    res = _noise.PeerConfig.from_seeds(
        _seed_bytes(rng, "noise-responder"),
        b"responder-identity",
        payload_padding=responder_padding,
    )
    if binding is None:
        ini.identity = res.identity = None
    secrets = {
        "initiator_static": ini.static.private_bytes(),
        "responder_static": res.static.private_bytes(),
        "initiator_ephemeral": _noise.DHKeypair.from_seed(ini.ephemeral_seed).private_bytes(),
        "responder_ephemeral": _noise.DHKeypair.from_seed(res.ephemeral_seed).private_bytes(),
    }
    transcript = link.transcript
    transcript.protocol = "noise-xx"
    transcript.meta.update(
        {
            "mode": mode,
            "initiator_static_pub": ini.static.public_bytes.hex(),
            "responder_static_pub": res.static.public_bytes.hex(),
        }
    )
    extras = {"initiator_cfg": ini, "responder_cfg": res, "binding": binding}
    try:
        result = _noise.run_xx_handshake(ini, res, binding, link=link)
        for i in range(transport_rounds):
            ping = b"ping-%d" % i
            ct = result.initiator.send.encrypt_with_ad(b"", ping)
            ct = link.transfer("i->r", ct, f"transport-i{i}", ("transport",))
            result.responder.recv.decrypt_with_ad(b"", ct)
            pong = b"pong-%d" % i
            ct = result.responder.send.encrypt_with_ad(b"", pong)
            ct = link.transfer("r->i", ct, f"transport-r{i}", ("transport",))
            result.initiator.recv.decrypt_with_ad(b"", ct)
        extras["result"] = result
        outcome = SessionOutcome("completed")
    except DroppedPacket as exc:
        outcome = SessionOutcome("timeout", f"packet dropped: {exc}")
    except (HandshakeAborted, _noise.ProtocolViolation) as exc:
        outcome = SessionOutcome("rejected", str(exc))
    return SimSession("noise-xx", outcome, transcript, secrets, extras)


def _run_discv5(rng, link, variant, transcript_binding, transport_rounds):
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
    secrets = {
        "initiator_static": a.identity.static.private_bytes(),
        "responder_static": b.identity.static.private_bytes(),
        "initiator_ephemeral": _noise.DHKeypair.from_seed(
            a._rand(b"ephemeral", 32)
        ).private_bytes(),
        "responder_ephemeral": _noise.DHKeypair.from_seed(
            b._rand(b"ephemeral", 32)
        ).private_bytes(),
    }
    extras = {"initiator_cfg": a, "responder_cfg": b}
    try:
        result = _d5.run_handshake(
            a, b, variant=variant, transcript_binding=transcript_binding, link=link
        )
        extras["result"] = result
        outcome = SessionOutcome("completed")
    except DroppedPacket as exc:
        outcome = SessionOutcome("timeout", f"packet dropped: {exc}")
    except HandshakeRejected as exc:
        outcome = SessionOutcome("rejected", exc.reason)
    transcript = link.transcript
    if not transcript.protocol:
        transcript.protocol = f"discv5-{variant}"
    return SimSession(transcript.protocol, outcome, transcript, secrets, extras)


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


def passive_decrypt_probe(transcript: Transcript, compromise: CompromiseSet) -> ProbeReport:
    """Replay the key schedule using only compromised private keys plus
    the recorded wire bytes; report which messages decrypt."""
    if transcript.protocol == "noise-xx":
        return _probe_noise(transcript, compromise)
    if transcript.protocol.startswith("discv5-"):
        return _probe_discv5(transcript, compromise)
    raise ValueError(f"no probe for protocol {transcript.protocol!r}")


def _probe_noise(transcript, compromise):
    meta = transcript.meta
    s_i_pub = bytes.fromhex(meta["initiator_static_pub"])
    s_r_pub = bytes.fromhex(meta["responder_static_pub"])
    by_label = {e.label: e for e in transcript.entries}
    report = []

    def mark(entry, encrypted, plaintext=None):
        report.append(
            ProbeEntry(
                entry.index, entry.label, entry.direction, encrypted,
                plaintext is not None, plaintext,
            )
        )

    m1 = by_label.get("xx-msg1")
    m2 = by_label.get("xx-msg2")
    m3 = by_label.get("xx-msg3")
    transports = [e for e in transcript.entries if "transport" in e.flags]
    if m1 is None or m2 is None:
        for e in transcript.entries:
            mark(e, True)
        return ProbeReport(report)

    e_i_pub = m1.data[:32]
    e_r_pub = m2.data[:32]
    ee = compromise.dh("initiator_ephemeral", e_i_pub, "responder_ephemeral", e_r_pub)
    es = compromise.dh("initiator_ephemeral", e_i_pub, "responder_static", s_r_pub)
    se = compromise.dh("initiator_static", s_i_pub, "responder_ephemeral", e_r_pub)

    ss = _noise.SymmetricState()
    ss.mix_hash(b"")  # prologue
    mark(m1, False)  # message 1 is a bare public key
    ss.mix_hash(e_i_pub)
    ss.mix_hash(b"")  # empty unencrypted payload ciphertext

    broken = False
    ss.mix_hash(e_r_pub)
    if ee is None:
        broken = True
    else:
        ss.mix_key(ee)
    enc_s = m2.data[32:80]
    enc_payload2 = m2.data[80:]
    if broken:
        mark(m2, True)
    else:
        ss.decrypt_and_hash(enc_s)
        if es is None:
            broken = True
            mark(m2, True)
        else:
            ss.mix_key(es)
            mark(m2, True, ss.decrypt_and_hash(enc_payload2))
    if m3 is not None:
        if broken:
            mark(m3, True)
        else:
            ss.decrypt_and_hash(m3.data[:48])
            if se is None:
                broken = True
                mark(m3, True)
            else:
                ss.mix_key(se)
                mark(m3, True, ss.decrypt_and_hash(m3.data[48:]))
    if broken:
        for e in transports:
            mark(e, True)
        return ProbeReport(report)
    c_i2r, c_r2i = ss.split()
    for e in transports:
        cipher = c_i2r if e.direction == "i->r" else c_r2i
        try:
            mark(e, True, cipher.decrypt_with_ad(b"", e.data))
        except Exception:
            mark(e, True)
    return ProbeReport(report)


def _probe_discv5(transcript, compromise):
    meta = transcript.meta
    variant = meta["variant"]
    binding = meta.get("transcript_binding", False)
    a_id = bytes.fromhex(meta["initiator_node_id"])
    b_id = bytes.fromhex(meta["responder_node_id"])
    a_static_pub = bytes.fromhex(meta["initiator_static_pub"])
    b_static_pub = bytes.fromhex(meta["responder_static_pub"])
    by_label = {e.label: e for e in transcript.entries}
    report = []

    def mark(entry, encrypted, plaintext=None):
        report.append(
            ProbeEntry(
                entry.index, entry.label, entry.direction, encrypted,
                plaintext is not None, plaintext,
            )
        )

    trigger = by_label.get("findnode-trigger")
    way = by_label.get("whoareyou")
    hs = by_label.get("handshake-message")
    nodes = by_label.get("nodes-response")
    if trigger is not None:
        mark(trigger, False)  # sent in the clear before any session exists
    if way is not None:
        mark(way, False)
    if hs is None or way is None:
        for e in transcript.entries:
            if e.label.startswith("transport"):
                mark(e, True)
        return ProbeReport(report)

    challenge_data = way.data
    header, rest = _d5.PacketHeader.decode(hs.data)
    parsed = _d5.HandshakeAuthdata.decode(rest[: header.authdata_size])
    a_eph_pub = parsed.ephemeral_pubkey[:32]
    label = _d5.HKDF_LABEL_V5 if variant == "v5" else _d5.HKDF_LABEL_KK

    def derive(dh_list, th=b""):
        if any(dh is None for dh in dh_list):
            return None
        return _d5.derive_session_keys(
            dh_list, challenge_data, a_id, b_id, label, transcript_hash=th
        )

    dh_es = compromise.dh("initiator_ephemeral", a_eph_pub, "responder_static", b_static_pub)
    dh_ss = compromise.dh("initiator_static", a_static_pub, "responder_static", b_static_pub)
    phase1 = derive([dh_es] if variant == "v5" else [dh_es, dh_ss])

    # Handshake payload: encrypted under the phase-1 initiator key.
    if phase1 is None:
        mark(hs, True)
    else:
        try:
            pt = _d5._decrypt_message(
                phase1.initiator_key, header.nonce, hs.data[:21],
                hs.data[23 + header.authdata_size :],
            )
            mark(hs, True, pt)
        except HandshakeRejected:
            mark(hs, True)

    th = _d5.transcript_hash([trigger.data, way.data, hs.data]) if binding else b""
    if variant == "v5":
        final = derive([dh_es], th)
    else:
        b_eph_pub = nodes.data[_d5.PacketHeader.HEADER_LEN + 32 :][:32] if nodes else b""
        dh_ee = (
            compromise.dh("initiator_ephemeral", a_eph_pub, "responder_ephemeral", b_eph_pub)
            if b_eph_pub
            else None
        )
        final = derive([dh_ee, dh_es], th)

    def try_open(entry, key):
        if key is None:
            mark(entry, True)
            return
        try:
            h, _ = _d5.PacketHeader.decode(entry.data)
            ad_len = _d5.PacketHeader.HEADER_LEN + h.authdata_size
            pt = _d5._decrypt_message(key, h.nonce, entry.data[:ad_len], entry.data[ad_len:])
            mark(entry, True, pt)
        except (HandshakeRejected, Exception):
            mark(entry, True)

    if nodes is not None:
        try_open(nodes, final.recipient_key if final else None)
    for e in transcript.entries:
        if not e.label.startswith("transport"):
            continue
        key = None
        if final is not None:
            key = final.initiator_key if e.direction == "i->r" else final.recipient_key
        try_open(e, key)
    return ProbeReport(report)


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
    """Replay a recorded packet against a live or fresh target session."""
    try:
        entry = session.transcript.entries[packet_index]
    except IndexError:
        raise IndexError(f"transcript has no packet {packet_index}") from None

    if session.protocol == "noise-xx":
        if entry.label.startswith("transport"):
            # Same-session replay: the receiving counter already moved past
            # this nonce, so the AEAD opens against the wrong nonce.
            result = session.extras["result"]
            cipher = (
                result.responder.recv if entry.direction == "i->r" else result.initiator.recv
            )
            try:
                cipher.decrypt_with_ad(b"", entry.data)
                return ReplayOutcome(True, "")
            except Exception:
                return ReplayOutcome(False, "nonce already consumed")
        if entry.label in ("xx-msg2", "xx-msg3") and session.extras.get("binding"):
            # Cross-session replay of the identity payload, staged via the
            # stolen-triple attack against a fresh responder.
            mode = session.extras["binding"]
            victim = session.extras["initiator_cfg" if entry.direction == "i->r" else "responder_cfg"]
            stolen = _noise.steal_legacy_triple(victim)
            fresh_responder = _noise.PeerConfig.from_seeds(
                b"replay-target-static", b"replay-target-identity"
            )
            out = _noise.replay_static_sig_attack(
                stolen, victim.identity.public_bytes, fresh_responder, mode
            )
            return ReplayOutcome(out.impersonated, out.detail if not out.impersonated else "")
        return ReplayOutcome(False, "handshake messages are session-bound")

    if session.protocol.startswith("discv5-"):
        if entry.label == "handshake-message":
            # A fresh responder issues a fresh WHOAREYOU; the recorded
            # signature covers the old challenge, so it cannot verify.
            fresh = run_session(session.protocol, b"replay-target", transport_rounds=0)
            new_challenge = fresh.transcript.entries[1].data
            header, rest = _d5.PacketHeader.decode(entry.data)
            parsed = _d5.HandshakeAuthdata.decode(rest[: header.authdata_size])
            signing_pub = bytes.fromhex(session.transcript.meta["initiator_signing_pub"])
            dest_id = bytes.fromhex(fresh.transcript.meta["responder_node_id"])
            ok = _noise.verify_identity_sig(
                signing_pub,
                _d5.id_signature_input(
                    new_challenge, parsed.ephemeral_pubkey[:32], dest_id
                ),
                parsed.id_signature[:64],
            )
            return ReplayOutcome(ok, "" if ok else "stale challenge signature")
        return ReplayOutcome(False, "packet type not replayable")

    raise ValueError(f"no replay handler for {session.protocol!r}")
