"""Adversarial network simulator: determinism, scripted attacks, the
passive decryption probe, amplification accounting, and replay."""

import hashlib
import itertools
import json

import pytest

from beaconlab import discv5, noise
from beaconlab.errors import IncompleteTranscript, MalformedDocument, ScriptError
from beaconlab.simnet import (
    ROLES,
    CompromiseSet,
    ProbeReport,
    measure_amplification,
    passive_decrypt_probe,
    replay_inject,
    run_session,
)
from beaconlab.transcript import Transcript

PROTOCOLS = ("noise-xx", "discv5-v5", "discv5-kk")


def _wire(session):
    return [e.data for e in session.transcript.entries]


# ---------------------------------------------------------------------------
# Sessions and determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_same_seed_same_bytes(protocol):
    assert _wire(run_session(protocol, 1234)) == _wire(run_session(protocol, 1234))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_different_seed_different_bytes(protocol):
    assert _wire(run_session(protocol, 1)) != _wire(run_session(protocol, 2))


def test_empty_script_matches_honest_run():
    honest = run_session("noise-xx", 9)
    scripted = run_session("noise-xx", 9, script=[])
    assert _wire(honest) == _wire(scripted)


def test_drop_script_times_out():
    session = run_session("noise-xx", 9, script=[{"packet": 1, "action": "drop"}])
    assert session.outcome.status == "timeout"
    session = run_session("discv5-v5", 9, script=[{"packet": 2, "action": "drop"}])
    assert session.outcome.status == "timeout"


def test_modified_packet_rejected_and_marked():
    session = run_session("noise-xx", 9, script=[{"packet": 2, "action": "xor", "offset": 5}])
    assert session.outcome.status == "rejected"
    assert session.transcript.entries[2].modified


def test_out_of_range_script_raises():
    with pytest.raises(ScriptError):
        run_session("noise-xx", 9, script=[{"packet": 99, "action": "drop"}])


def test_transcript_json_roundtrip():
    session = run_session("discv5-kk", 5)
    doc = session.transcript.to_json()
    back = Transcript.from_json(doc)
    assert [e.data for e in back.entries] == _wire(session)
    assert back.meta["variant"] == "kk"


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"entries": [{"label": "xx-msg1", "data": ""}]},
        {"entries": [{"direction": "i->r", "label": "xx-msg1", "data": "zz"}]},  # non-hex
    ],
)
def test_transcript_from_json_rejects_a_malformed_document(doc):
    with pytest.raises(MalformedDocument):
        Transcript.from_json(doc)


def test_bare_session_builds_no_identity_keys(monkeypatch):
    """Bare XX builds the two static and the two ephemeral keypairs only;
    an identity binding adds the two identity keypairs."""
    calls = []
    for cls in (noise.DHKeypair, noise.IdentityKeypair):
        real = cls.from_seed
        monkeypatch.setattr(
            cls, "from_seed", classmethod(lambda c, seed, real=real: calls.append(c) or real(seed))
        )
    counts = {}
    for mode in ("bare", "legacy"):
        calls.clear()
        assert run_session("noise-xx", 9, mode=mode).outcome.status == "completed"
        counts[mode] = len(calls)
    assert counts == {"bare": 4, "legacy": 6}


# ---------------------------------------------------------------------------
# Passive decryption probe
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_probe_soundness_empty_set_decrypts_nothing(protocol):
    session = run_session(protocol, 17)
    report = passive_decrypt_probe(session.transcript, CompromiseSet.empty())
    assert all(not e.decrypted for e in report.entries if e.encrypted)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_probe_completeness_full_set_decrypts_everything(protocol):
    session = run_session(protocol, 17)
    report = passive_decrypt_probe(session.transcript, CompromiseSet.full(session))
    encrypted = [e for e in report.entries if e.encrypted]
    assert encrypted and all(e.decrypted for e in encrypted)


def _transport_fraction(report: ProbeReport, direction=None):
    msgs = [
        e
        for e in report.entries
        if e.label.startswith("transport")
        and (direction is None or e.direction == direction)
    ]
    assert msgs
    return sum(e.decrypted for e in msgs) / len(msgs)


def test_responder_static_compromise_breaks_v5_transport():
    session = run_session("discv5-v5", 23)
    report = passive_decrypt_probe(
        session.transcript, CompromiseSet.of(session, "responder_static")
    )
    assert _transport_fraction(report, "i->r") == 1.0
    assert _transport_fraction(report) == 1.0


def test_responder_static_compromise_blocked_by_kk():
    session = run_session("discv5-kk", 23)
    report = passive_decrypt_probe(
        session.transcript, CompromiseSet.of(session, "responder_static")
    )
    assert _transport_fraction(report) == 0.0


def test_kk_falls_with_an_ephemeral_added():
    session = run_session("discv5-kk", 23)
    report = passive_decrypt_probe(
        session.transcript,
        CompromiseSet.of(session, "responder_static", "initiator_ephemeral"),
    )
    assert _transport_fraction(report) == 1.0


def test_noise_transport_needs_three_dh_outputs():
    session = run_session("noise-xx", 23)
    partial = passive_decrypt_probe(
        session.transcript,
        CompromiseSet.of(session, "initiator_ephemeral"),  # gives ee and es only
    )
    assert _transport_fraction(partial) == 0.0
    enough = passive_decrypt_probe(
        session.transcript,
        CompromiseSet.of(session, "initiator_ephemeral", "initiator_static"),
    )
    assert _transport_fraction(enough) == 1.0


def test_probe_of_unknown_keys_errors():
    session = run_session("noise-xx", 23)
    with pytest.raises(KeyError):
        CompromiseSet.of(session, "no-such-role")


# ---------------------------------------------------------------------------
# Amplification
# ---------------------------------------------------------------------------


def test_configured_noise_reproduction_is_exactly_six():
    session = run_session(
        "noise-xx", 31, mode="bare", responder_padding=96, transport_rounds=0
    )
    m = measure_amplification(session.transcript)
    assert m == {"initiator_bytes": 32, "responder_bytes": 192, "factor": 6.0}


def test_raw_libp2p_figures_stable_and_at_least_six():
    runs = [
        measure_amplification(
            run_session("noise-xx", 31, mode="legacy", transport_rounds=0).transcript
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0]["factor"] >= 6.0
    assert runs[0] == {"initiator_bytes": 32, "responder_bytes": 198, "factor": 6.1875}


def test_discv5_challenge_is_smaller_than_the_request():
    m = measure_amplification(run_session("discv5-v5", 31, transport_rounds=0).transcript)
    assert m["factor"] < 1.0


def test_incomplete_transcript_rejected():
    with pytest.raises(IncompleteTranscript):
        measure_amplification(Transcript(protocol="noise-xx"))


# ---------------------------------------------------------------------------
# Replay injection
# ---------------------------------------------------------------------------


def _index_of(session, label):
    return next(e.index for e in session.transcript.entries if e.label == label)


def test_replay_same_session_transport_rejected():
    """The receiving cipher has moved past the packet's nonce, so the
    replayed packet opens against the wrong nonce."""
    session = run_session("noise-xx", 41)
    out = replay_inject(session, _index_of(session, "transport-i0"))
    assert str(out) == "Rejected(DecryptFailed(AEAD tag mismatch))"


def test_replay_legacy_identity_payload_accepted():
    session = run_session("noise-xx", 41, mode="legacy")
    out = replay_inject(session, _index_of(session, "xx-msg3"))
    assert out.accepted


def test_replay_hardened_identity_payload_rejected():
    session = run_session("noise-xx", 41, mode="hardened")
    out = replay_inject(session, _index_of(session, "xx-msg3"))
    assert not out.accepted
    assert str(out) == "Rejected(HandshakeAborted(identity))"


def test_replay_legacy_responder_payload_accepted():
    """The responder's proof in xx-msg2 replays as well as the initiator's,
    from the transcript and the session's secrets alone."""
    session = run_session("noise-xx", 41, mode="legacy")
    assert replay_inject(session, _index_of(session, "xx-msg2")).accepted


@pytest.mark.parametrize(
    "tamper,label,reason",
    [
        ("zero-ephemeral", "xx-msg2", "xx-msg2: peer key is not a usable X25519 public key"),
        ("flip", "xx-msg3", "xx-msg3: crypto: AEAD tag mismatch"),
        ("drop", "xx-msg3", "xx-msg3: message 3 too short"),
    ],
    ids=["zero-ephemeral", "flip", "drop"],
)
def test_replay_verdict_follows_the_wire(tamper, label, reason):
    """An identity packet that did not read on the wire carries no proof to
    replay, even under the legacy binding."""
    script = {
        "zero-ephemeral": _replace(run_session("noise-xx", 41), "xx-msg2", 0, b"\x00" * 32),
        "flip": [{"packet": 2, "action": "xor", "offset": 60}],
        "drop": [{"packet": 2, "action": "drop"}],
    }[tamper]
    session = run_session("noise-xx", 41, mode="legacy", script=script)
    assert session.outcome.status != "completed"
    out = replay_inject(session, _index_of(session, label))
    assert not out.accepted and out.reason == reason


def test_replay_discv5_handshake_rejected_under_fresh_challenge():
    session = run_session("discv5-v5", 41)
    out = replay_inject(session, _index_of(session, "handshake-message"))
    assert not out.accepted and "challenge" in out.reason


def test_replay_out_of_range_index():
    session = run_session("noise-xx", 41, transport_rounds=0)
    for index in (999, -1):
        with pytest.raises(IndexError, match=f"transcript has no packet {index}"):
            replay_inject(session, index)


# ---------------------------------------------------------------------------
# One handshake engine: pinned output, every transcript probed, no raise
# ---------------------------------------------------------------------------

CONFIGS = [
    ("noise-xx", {"mode": "legacy"}),
    ("noise-xx", {"mode": "hardened"}),
    ("noise-xx", {"mode": "bare"}),
    ("discv5-v5", {"transcript_binding": False}),
    ("discv5-v5", {"transcript_binding": True}),
    ("discv5-kk", {"transcript_binding": False}),
    ("discv5-kk", {"transcript_binding": True}),
]


def test_wire_bytes_and_probe_reports_are_pinned():
    """SHA-256 over the transcripts of 7 configurations x 8 seeds, and over
    the probe report of each under all 16 subsets of the four keys. The
    digests were taken before the handshakes became party objects."""
    wire, probe = hashlib.sha256(), hashlib.sha256()
    for protocol, options in CONFIGS:
        for seed in range(8):
            session = run_session(protocol, seed, **options)
            assert session.outcome.status == "completed"
            wire.update(json.dumps(session.transcript.to_json(), sort_keys=True).encode())
            for n in range(len(ROLES) + 1):
                for roles in itertools.combinations(ROLES, n):
                    report = passive_decrypt_probe(
                        session.transcript, CompromiseSet.of(session, *roles)
                    )
                    probe.update(json.dumps(report.to_json(), sort_keys=True).encode())
    assert wire.hexdigest() == "9f31047ea234fde82fc74cc28749077e2af19bfa767b654c5c55406b4cbd8ff1"
    assert probe.hexdigest() == "4817f2b4ce4c0b40a8260504db724eefa938fa521725adb13fa104af28860cc4"


_DECRYPT_FAILED = "Rejected(DecryptFailed(AEAD tag mismatch))"


def _noise_replays(identity_packets):
    return {"xx-msg1": _DECRYPT_FAILED, "xx-msg2": identity_packets,
            "xx-msg3": identity_packets, "transport": _DECRYPT_FAILED}


REPLAY_VERDICTS = {
    "legacy": _noise_replays("Accepted"),
    "hardened": _noise_replays("Rejected(HandshakeAborted(identity))"),
    "bare": _noise_replays("Rejected(HandshakeAborted(crypto: AEAD tag mismatch))"),
    "discv5": {
        "findnode-trigger": "Accepted",
        "whoareyou": "Accepted",
        "handshake-message": "Rejected(stale challenge signature)",
        "nodes-response": "Accepted",
        "transport": "Accepted",  # discv5 keeps no replay window
    },
}


@pytest.mark.parametrize("protocol,options", CONFIGS)
def test_replay_verdict_of_every_packet_is_pinned(protocol, options):
    """Every packet of one session per configuration, replayed. Each Noise
    packet replayed into its session is rejected; a legacy identity proof,
    replayed to a fresh responder, is accepted. Every discv5 packet but the
    handshake message, which goes to a fresh responder, is accepted."""
    session = run_session(protocol, 31, **options)
    verdicts = REPLAY_VERDICTS[options.get("mode", "discv5")]
    for entry in session.transcript.entries:
        kind = "transport" if entry.label.startswith("transport") else entry.label
        assert str(replay_inject(session, entry.index)) == verdicts[kind], entry.label


def _marks(report):
    return [(e.label, e.encrypted, e.decrypted) for e in report.entries]


def _failed_runs():
    """Every (protocol, dropped packet) pair, and one tampered packet per
    protocol: the packet index and the script."""
    for protocol in PROTOCOLS:
        for index in range(len(run_session(protocol, 61).transcript.entries)):
            yield protocol, index, [{"packet": index, "action": "drop"}]
    yield "noise-xx", 2, [{"packet": 2, "action": "xor", "offset": 40}]
    yield "discv5-v5", 2, [{"packet": 2, "action": "xor", "offset": 60}]
    yield "discv5-kk", 2, [{"packet": 2, "action": "xor", "offset": 60}]


@pytest.mark.parametrize("protocol,index,script", list(_failed_runs()))
@pytest.mark.parametrize("held", ["empty", "full"])
def test_probe_reads_every_recorded_transcript(protocol, index, script, held):
    """A timed-out or rejected session still gets a report: the entries
    before the failed packet read as in the completed run."""
    honest, failed = run_session(protocol, 61), run_session(protocol, 61, script=script)
    assert failed.outcome.status != "completed"

    def probe(session):
        keys = CompromiseSet.full(session) if held == "full" else CompromiseSet.empty()
        return passive_decrypt_probe(session.transcript, keys)

    report = probe(failed)
    assert [e.index for e in report.entries] == [e.index for e in failed.transcript.entries]
    assert _marks(report)[:index] == _marks(probe(honest))[:index]
    if script[0]["action"] == "drop":
        assert not report.entries[index].decrypted


def test_probe_never_checks_an_identity_signature(monkeypatch):
    def refuse(*args):
        raise AssertionError("the probe verified a signature")

    sessions = [run_session(protocol, 62) for protocol in PROTOCOLS]
    monkeypatch.setattr(noise, "verify_identity_sig", refuse)
    monkeypatch.setattr(discv5, "verify_identity_sig", refuse)
    for session in sessions:
        report = passive_decrypt_probe(session.transcript, CompromiseSet.full(session))
        assert all(e.decrypted for e in report.entries if e.encrypted)


def _replace(session, label, offset, data):
    entry = next(e for e in session.transcript.entries if e.label == label)
    forged = entry.data[:offset] + data + entry.data[offset + len(data) :]
    return [{"packet": entry.index, "action": "replace", "data": forged.hex()}]


@pytest.mark.parametrize(
    "protocol,label,offset",
    [
        ("noise-xx", "xx-msg1", 0),  # the initiator ephemeral
        ("noise-xx", "xx-msg2", 0),  # the responder ephemeral
        ("discv5-kk", "nodes-response", discv5.PacketHeader.HEADER_LEN + 32),
    ],
)
def test_an_all_zero_key_is_a_rejection_naming_its_packet(protocol, label, offset):
    script = _replace(run_session(protocol, 63), label, offset, b"\x00" * 32)
    session = run_session(protocol, 63, script=script)
    assert session.outcome.status == "rejected"
    assert session.outcome.detail.startswith(label + ": ")


def test_discv5_agrees_each_key_pair_once(monkeypatch):
    """A v5 session runs 2 X25519 agreements; a KK session 6 (es, ss and ee
    on each side), with no key pair agreed twice."""
    calls = []
    dh = noise.DHKeypair.dh
    monkeypatch.setattr(noise.DHKeypair, "dh", lambda self, peer: calls.append(1) or dh(self, peer))
    for protocol, expected in (("discv5-v5", 2), ("discv5-kk", 6)):
        calls.clear()
        assert run_session(protocol, 64).outcome.status == "completed"
        assert len(calls) == expected


def _flip_map(protocol, options, packets):
    """Run the session once per single-bit flip (mask 0x01) of every byte of
    the chosen packets; return the (label, offset) flips that complete."""
    honest = run_session(protocol, 5, **options)
    completed = set()
    for entry in honest.transcript.entries:
        if not packets(entry):
            continue
        for offset in range(len(entry.data)):
            script = [{"packet": entry.index, "action": "xor", "offset": offset, "mask": 0x01}]
            session = run_session(protocol, 5, script=script, **options)
            assert session.outcome.status in ("completed", "rejected")
            if session.outcome.status == "completed":
                completed.add((entry.label, offset))
    return completed


@pytest.mark.parametrize("protocol,options", CONFIGS)
def test_wire_malleability_map(protocol, options):
    """No flip of a Noise packet, and none of a transcript-bound discv5
    packet, survives. Without binding, discv5 completes under every flip of
    the unauthenticated FINDNODE trigger and of the handshake's wire
    src_id (offsets 23-54), which the responder ignores."""
    expected = set()
    if protocol.startswith("discv5-") and not options["transcript_binding"]:
        expected = {("findnode-trigger", o) for o in range(63)}
        expected |= {("handshake-message", o) for o in range(23, 55)}
    assert _flip_map(protocol, options, lambda e: "handshake" in e.flags) == expected


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_transport_flip_is_a_rejection(protocol):
    assert _flip_map(protocol, {}, lambda e: e.label.startswith("transport")) == set()
