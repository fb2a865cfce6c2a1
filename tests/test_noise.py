"""Noise XX handshake, nonce discipline and identity bindings. The
static-key-signature replay runs from recorded sessions in test_simnet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab import noise
from beaconlab.errors import (
    ConfigError,
    DecryptFailed,
    HandshakeAborted,
    NonceExhausted,
    ProtocolViolation,
)


def _peers(padding=0):
    a = noise.PeerConfig.from_seeds(b"initiator", b"initiator-id")
    b = noise.PeerConfig.from_seeds(b"responder", b"responder-id", payload_padding=padding)
    return a, b


# ---------------------------------------------------------------------------
# Cipher state and nonce discipline
# ---------------------------------------------------------------------------


def test_nonce_layout_is_le64_with_zero_prefix():
    cs = noise.CipherState(b"\x01" * 32)
    cs.n = 0x0102030405060708
    assert cs._nonce_bytes() == b"\x00" * 4 + (0x0102030405060708).to_bytes(8, "little")


def test_cipher_roundtrip_and_tag_failure():
    cs_a = noise.CipherState(b"\x02" * 32)
    cs_b = noise.CipherState(b"\x02" * 32)
    ct = cs_a.encrypt_with_ad(b"ad", b"secret")
    assert cs_b.decrypt_with_ad(b"ad", ct) == b"secret"
    ct2 = cs_a.encrypt_with_ad(b"ad", b"secret")
    with pytest.raises(DecryptFailed):
        cs_b.decrypt_with_ad(b"wrong-ad", ct2)


def test_nonce_exhaustion_at_exact_cap():
    cap = 255
    cs = noise.CipherState(b"\x03" * 32, nonce_cap=cap)
    for _ in range(cap):
        cs.encrypt_with_ad(b"", b"x")
    with pytest.raises(NonceExhausted):
        cs.encrypt_with_ad(b"", b"x")
    with pytest.raises(NonceExhausted):  # poisoned for good
        cs.encrypt_with_ad(b"", b"x")


def test_default_cap_reserves_max_value():
    cs = noise.CipherState(b"\x04" * 32)
    cs.n = noise.MAX_NONCE - 1
    cs.encrypt_with_ad(b"", b"last one")
    with pytest.raises(NonceExhausted):
        cs.encrypt_with_ad(b"", b"over")


def test_wrapping_cipher_reuses_nonces_and_detector_fires():
    det = noise.NonceReuseDetector()
    buggy = noise.WrappingCipherState(b"\x05" * 32, counter_bits=8)
    for i in range(257):
        det.observe(buggy.k, buggy._nonce_bytes())
        buggy.encrypt_with_ad(b"", b"m")
    assert det.fired
    assert det.reuse_events[0][1] == b"\x00" * 12  # nonce 0 came around again


def test_detector_never_fires_on_real_cipher():
    det = noise.NonceReuseDetector()
    cs = noise.CipherState(b"\x06" * 32, nonce_cap=300)
    for _ in range(299):
        det.observe(cs.k, cs._nonce_bytes())
        cs.encrypt_with_ad(b"", b"m")
    assert not det.fired


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


def test_bare_xx_message_sizes_and_key_agreement():
    a, b = _peers()
    result = noise.run_xx_handshake(a, b, None)
    assert result.message_sizes == [32, 96, 64]
    ct = result.initiator.send.encrypt_with_ad(b"", b"ping")
    assert result.responder.recv.decrypt_with_ad(b"", ct) == b"ping"
    ct = result.responder.send.encrypt_with_ad(b"", b"pong")
    assert result.initiator.recv.decrypt_with_ad(b"", ct) == b"pong"


def test_handshake_hashes_agree():
    a, b = _peers()
    result = noise.run_xx_handshake(a, b, noise.BindingMode.LEGACY)
    assert result.initiator.handshake_hash == result.responder.handshake_hash


def test_identity_exchange_in_both_directions():
    a, b = _peers()
    for mode in (noise.BindingMode.LEGACY, noise.BindingMode.HARDENED):
        result = noise.run_xx_handshake(a, b, mode)
        assert result.initiator.remote_identity == b.identity.public_bytes
        assert result.responder.remote_identity == a.identity.public_bytes


def test_initiator_must_not_send_early_payload():
    a, b = _peers()
    party = noise._XXParty(b, False, None, noise.MAX_NONCE)
    with pytest.raises(ProtocolViolation):
        party.read_message_1(b"\x00" * 40)


def test_responder_payload_is_early_data():
    a, b = _peers()
    result = noise.run_xx_handshake(a, b, noise.BindingMode.LEGACY)
    msg2 = result.transcript.entries[1]
    assert "early-data" in msg2.flags
    assert result.message_sizes[1] == 198  # 96 framing + 102 identity payload


def test_payload_padding_reaches_reference_size():
    a, b = _peers(padding=96)
    result = noise.run_xx_handshake(a, b, None)
    assert result.message_sizes == [32, 192, 64]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_any_flipped_bit_aborts_the_handshake(data):
    """Transcript binding: flipping any bit of any message kills it."""
    a, b = _peers()
    honest = noise.run_xx_handshake(a, b, noise.BindingMode.LEGACY)
    sizes = honest.message_sizes
    msg = data.draw(st.integers(min_value=0, max_value=2))
    bit = data.draw(st.integers(min_value=0, max_value=sizes[msg] * 8 - 1))
    script = [{"packet": msg, "action": "xor", "offset": bit // 8, "mask": 1 << (bit % 8)}]
    from beaconlab.transcript import AdversarialLink

    with pytest.raises((HandshakeAborted, ProtocolViolation)):
        result = noise.run_xx_handshake(
            a, b, noise.BindingMode.LEGACY, link=AdversarialLink(script)
        )
        # A flip in message 1's key bytes surfaces at the hash comparison.
        assert result.initiator.handshake_hash == result.responder.handshake_hash


def test_hardened_binding_requires_challenge():
    with pytest.raises(ConfigError):
        noise.static_key_binding_message(b"\x00" * 32, noise.BindingMode.HARDENED)


def test_payload_codec_roundtrip_and_padding_tolerance():
    p = noise.HandshakePayload(b"\x01" * 32, b"\x02" * 64, b"ext")
    decoded = noise.HandshakePayload.decode(p.encode() + b"\x00" * 10)
    assert decoded == p
    with pytest.raises(ProtocolViolation):
        noise.HandshakePayload.decode(p.encode()[:-70])


# ---------------------------------------------------------------------------
# Static-key binding messages
# ---------------------------------------------------------------------------


def test_hardened_challenge_differs_per_session():
    """The signed message embeds the verifier's ephemeral, so two sessions
    never sign the same bytes."""
    a, _ = _peers()
    m1 = noise.static_key_binding_message(
        a.static.public_bytes, noise.BindingMode.HARDENED, re=b"\x01" * 32
    )
    m2 = noise.static_key_binding_message(
        a.static.public_bytes, noise.BindingMode.HARDENED, re=b"\x02" * 32
    )
    assert m1 != m2
    legacy = noise.static_key_binding_message(a.static.public_bytes, noise.BindingMode.LEGACY)
    assert legacy == noise.STATIC_KEY_PREFIX + a.static.public_bytes
