"""HKDF-SHA256 against the reference implementation in ``cryptography``,
and the Noise and discv5 key schedules built on it."""

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab import discv5, noise
from beaconlab.kdf import hkdf_sha256


def _reference(salt, ikm, info, length):
    return HKDF(algorithm=hashes.SHA256(), length=length, salt=salt, info=info).derive(ikm)


@settings(max_examples=200, deadline=None)
@given(
    salt=st.binary(max_size=80),
    ikm=st.binary(max_size=80),
    info=st.binary(max_size=80),
    length=st.integers(min_value=1, max_value=255 * 32),
)
def test_hkdf_matches_reference(salt, ikm, info, length):
    assert hkdf_sha256(salt, ikm, info, length) == _reference(salt, ikm, info, length)


def test_hkdf_rfc5869_case_1():
    okm = hkdf_sha256(bytes(range(13)), b"\x0b" * 22, bytes(range(0xF0, 0xFA)), 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    )


def test_hkdf_rejects_overlong_output():
    with pytest.raises(ValueError):
        hkdf_sha256(b"salt", b"ikm", b"", 255 * 32 + 1)


@settings(max_examples=50, deadline=None)
@given(ck=st.binary(min_size=32, max_size=32), ikm=st.binary(max_size=64),
       n=st.sampled_from([2, 3]))
def test_noise_hkdf_is_hkdf_with_empty_info(ck, ikm, n):
    okm = _reference(ck, ikm, b"", 32 * n)
    assert noise.noise_hkdf(ck, ikm, n) == tuple(okm[i : i + 32] for i in range(0, 32 * n, 32))


@settings(max_examples=50, deadline=None)
@given(dh=st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=2),
       challenge=st.binary(max_size=64), th=st.binary(max_size=32))
def test_discv5_session_keys_are_hkdf(dh, challenge, th):
    src, dest, label = b"\x01" * 32, b"\x02" * 32, b"discovery v5 key agreement"
    keys = discv5.derive_session_keys(dh, challenge, src, dest, label, transcript_hash=th)
    okm = _reference(challenge, b"".join(dh), label + src + dest + th, 32)
    assert (keys.initiator_key, keys.recipient_key) == (okm[:16], okm[16:])
