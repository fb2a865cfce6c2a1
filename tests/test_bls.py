"""Signature scheme: keygen, core verification, aggregation, possession
proofs, and the rogue-key forgery."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beaconlab import batch, bls
from beaconlab.errors import (
    ArityMismatch,
    EmptyAggregation,
    IdentityPoint,
    IkmTooShort,
    NotInSubgroup,
)
from beaconlab.suites import ToySuite

MESSAGES = [b"a", b"b", b"c", b"hello", b"x1", b"x2", b"msg7", b"zz", b"q", b"w"]


def _keypair(suite, tag=b"k"):
    sk = bls.keygen(tag.ljust(32, b"\x00"), suite=suite)
    return sk, bls.sk_to_pk(sk)


# ---------------------------------------------------------------------------
# Keygen and validation
# ---------------------------------------------------------------------------


def test_keygen_rejects_short_ikm(toy):
    with pytest.raises(IkmTooShort):
        bls.keygen(b"\x01" * 31, suite=toy)


def test_keygen_in_range_and_deterministic(toy, production):
    for suite in (toy, production):
        sk = bls.keygen(b"\x42" * 32, suite=suite)
        assert 1 <= sk.scalar < suite.order
        assert sk.scalar == bls.keygen(b"\x42" * 32, suite=suite).scalar
    # Distinct key material gives distinct keys (not meaningful mod 7).
    assert (
        bls.keygen(b"\x42" * 32, suite=production).scalar
        != bls.keygen(b"\x43" * 32, suite=production).scalar
    )


def test_keygen_key_info_separates(toy):
    a = bls.keygen(b"\x01" * 32, b"info-a", suite=toy)
    b = bls.keygen(b"\x01" * 32, b"info-b", suite=toy)
    assert a.scalar != b.scalar


def test_secret_key_range_enforced(toy):
    with pytest.raises(ValueError):
        bls.SecretKey(0, toy)
    with pytest.raises(ValueError):
        bls.SecretKey(toy.order, toy)


def test_key_validate_rejects_identity(toy):
    with pytest.raises(IdentityPoint):
        bls.key_validate(b"0", suite=toy)


def test_key_validate_rejects_out_of_subgroup(toy):
    with pytest.raises(NotInSubgroup):
        bls.key_validate(b"7", suite=toy)  # order-5 torsion element of Z_35


# ---------------------------------------------------------------------------
# Core sign/verify
# ---------------------------------------------------------------------------


def test_exhaustive_toy_verification_matches_pairing_definition(toy):
    """Every toy secret key against the message corpus, checked against
    the raw pairing equation."""
    for scalar in range(1, toy.order):
        sk = bls.SecretKey(scalar, toy)
        pk = bls.sk_to_pk(sk)
        for msg in MESSAGES:
            sig = bls.sign(sk, msg)
            definitional = toy.pair(toy.generator_g1, sig.point) == toy.pair(
                pk.point, toy.hash_to_group2(msg)
            )
            assert bool(bls.core_verify(pk, msg, sig)) == definitional
            assert definitional  # honest signatures must verify


def test_verify_rejects_wrong_message_unless_hash_collides(toy257):
    sk, pk = _keypair(toy257)
    sig = bls.sign(sk, b"paid 10")
    result = bls.core_verify(pk, b"paid 99", sig)
    assert not result and result.reason == "pairing-mismatch"


def test_verify_rejects_out_of_subgroup_signature(toy):
    sk, pk = _keypair(toy)
    result = bls.core_verify(pk, b"m", bls.BlsSignature(toy.unchecked_g2(7)))
    assert not result and result.reason == "signature-subgroup"


def test_verify_production_roundtrip(production):
    sk, pk = _keypair(production, b"prod")
    sig = bls.sign(sk, b"beacon block root")
    assert bls.core_verify(pk, b"beacon block root", sig)
    assert not bls.core_verify(pk, b"other", sig)


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.integers(min_value=1, max_value=6))
def test_sign_verify_property(message, scalar):
    suite = ToySuite()
    sk = bls.SecretKey(scalar, suite)
    pk = bls.sk_to_pk(sk)
    assert bls.core_verify(pk, message, bls.sign(sk, message))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def test_aggregate_verify_matches_individual(toy):
    pairs = [(bls.SecretKey(s, toy), b"m%d" % s) for s in (1, 2, 3)]
    sigs = [bls.sign(sk, m) for sk, m in pairs]
    agg = bls.aggregate(sigs)
    pks = [bls.sk_to_pk(sk) for sk, _ in pairs]
    msgs = [m for _, m in pairs]
    assert bls.aggregate_verify(pks, msgs, agg)
    assert not bls.aggregate_verify(pks, list(reversed(msgs)), agg)


def test_aggregate_empty_rejected(toy):
    with pytest.raises(EmptyAggregation):
        bls.aggregate([])


def test_aggregate_verify_arity_mismatch(toy):
    sk, pk = _keypair(toy)
    sig = bls.sign(sk, b"m")
    with pytest.raises(ArityMismatch):
        bls.aggregate_verify([pk], [b"m", b"n"], sig)


def test_aggregate_verify_rejects_duplicate_messages(toy):
    sks = [bls.SecretKey(s, toy) for s in (1, 2)]
    sigs = [bls.sign(sk, b"same") for sk in sks]
    result = bls.aggregate_verify(
        [bls.sk_to_pk(sk) for sk in sks], [b"same", b"same"], bls.aggregate(sigs)
    )
    assert not result and result.reason == "duplicate-messages"


# ---------------------------------------------------------------------------
# Possession proofs and the rogue-key forgery
# ---------------------------------------------------------------------------


def test_pop_roundtrip_and_dst_separation(toy):
    sk, pk = _keypair(toy)
    pop = bls.pop_prove(sk)
    assert bls.pop_verify(pk, pop)
    # A signature over the key bytes under the message dst is not a PoP.
    fake = bls.ProofOfPossession(bls.sign(sk, pk.to_bytes()).point)
    if toy.hash_to_group2(pk.to_bytes()) != toy.hash_to_group2(
        pk.to_bytes(), toy.pop_dst
    ):
        assert not bls.pop_verify(pk, fake)


def _rogue_demo(suite, message=b"shared attestation"):
    sk, victim = _keypair(suite, b"victim")
    rho = 3
    rogue_pk, forged = bls.rogue_key_forge(victim, message, rho)
    unsafe = bls.unsafe_fast_aggregate_verify([victim, rogue_pk], message, forged)
    pops = [bls.pop_prove(sk), bls.ProofOfPossession(forged.point)]
    gated = bls.fast_aggregate_verify([victim, rogue_pk], pops, message, forged)
    return unsafe, gated


def test_rogue_key_toy(toy257):
    unsafe, gated = _rogue_demo(toy257)
    assert unsafe
    assert not gated and gated.reason == "pop-failure"


def test_rogue_key_production(production):
    unsafe, gated = _rogue_demo(production)
    assert unsafe
    assert not gated and gated.reason == "pop-failure"


def test_fast_aggregate_verify_honest_with_pops(toy):
    sks = [bls.SecretKey(s, toy) for s in (2, 3)]
    pks = [bls.sk_to_pk(sk) for sk in sks]
    pops = [bls.pop_prove(sk) for sk in sks]
    agg = bls.aggregate([bls.sign(sk, b"same") for sk in sks])
    assert bls.fast_aggregate_verify(pks, pops, b"same", agg)


def test_fast_aggregate_rejects_identity_aggregate_key(toy, toy257):
    """Keys sk*G and (r - sk)*G sum to the identity, so the identity
    signature would verify on any message; KeyValidate of the aggregate
    key rejects it, even with both possession proofs valid."""
    for suite in (toy, toy257):
        sks = [bls.SecretKey(3, suite), bls.SecretKey(suite.order - 3, suite)]
        pks = [bls.sk_to_pk(sk) for sk in sks]
        pops = [bls.pop_prove(sk) for sk in sks]
        assert all(bls.pop_verify(pk, pop) for pk, pop in zip(pks, pops))
        identity = bls.BlsSignature(suite.identity_g2())
        for message in (b"pay alice", b"pay mallory"):
            result = bls.fast_aggregate_verify(pks, pops, message, identity)
            assert str(result) == "INVALID(key-identity)"


def test_fast_aggregate_checks_no_key_when_keys_are_validated(toy257, monkeypatch):
    """Two proofs of possession and the signature are checked in G2; the
    sum of two validated keys needs no G1 check. Unvalidated keys are still
    KeyValidated, each and in sum."""
    sks = [bls.SecretKey(s, toy257) for s in (2, 3)]
    pks = [bls.sk_to_pk(sk) for sk in sks]
    pops = [bls.pop_prove(sk) for sk in sks]
    agg = bls.aggregate([bls.sign(sk, b"same") for sk in sks])
    groups = []
    check = toy257.subgroup_check
    monkeypatch.setattr(
        toy257, "subgroup_check", lambda elem: groups.append(elem.group) or check(elem)
    )
    assert bls.fast_aggregate_verify(pks, pops, b"same", agg)
    assert sorted(groups) == ["g2"] * 3
    groups.clear()
    unvalidated = [bls.PublicKey(pk.point) for pk in pks]
    assert bls.fast_aggregate_verify(unvalidated, pops, b"same", agg)
    assert sorted(groups) == ["g1"] * 3 + ["g2"] * 3


# ---------------------------------------------------------------------------
# Rejection reasons: every check of every verification path, by name
# ---------------------------------------------------------------------------


def _table_setup(suite):
    sk = bls.SecretKey(2, suite)
    pk = bls.sk_to_pk(sk)
    msg = next(m for m in MESSAGES if not suite.hash_to_group2(m).is_identity())
    torsion = suite.unchecked_g2(7)  # order-5 element of Z_35
    return sk, pk, msg, torsion


def _core(suite, pk=None, sig=None):
    sk, pk0, msg, _ = _table_setup(suite)
    return str(bls.core_verify(pk or pk0, msg, bls.sign(sk, msg) if sig is None else sig))


def _aggregate(suite, fn, pks, **kwargs):
    # Both reasons fire before the pairing, so one honest signature serves.
    sk, pk, _, _ = _table_setup(suite)
    messages = [b"m1", b"m2"] if fn is bls.aggregate_verify else b"m1"
    return str(fn(pks(pk), messages, bls.sign(sk, b"m1"), **kwargs))


def _distinct(suite, fn):
    # Two distinct keys pass the duplicate-key gate, and the pairing after it.
    sks = [bls.SecretKey(2, suite), bls.SecretKey(3, suite)]
    messages = [b"m1", b"m2"] if fn is bls.aggregate_verify else [b"m1", b"m1"]
    sig = bls.aggregate([bls.sign(sk, m) for sk, m in zip(sks, messages)])
    signed = messages if fn is bls.aggregate_verify else b"m1"
    return str(fn([bls.sk_to_pk(sk) for sk in sks], signed, sig, require_distinct_keys=True))


def _pop(suite, pk=None, pop=None):
    sk, pk0, _, torsion = _table_setup(suite)
    if pop is None:
        pop = bls.pop_prove(sk)
    elif pop == "shifted":
        pop = bls.ProofOfPossession(bls.pop_prove(sk).point + torsion)
    return bls.pop_verify(pk or pk0, pop)


def _shifted_batch(suite, verify):
    sk, pk, msg, torsion = _table_setup(suite)
    items = [batch.BatchItem(bls.BlsSignature(bls.sign(sk, msg).point + torsion), [(pk, msg)])]
    if verify is batch.naive_verify:
        return verify(items)
    return verify(items, batch.BatchCoefficients.generate(b"\x07" * 32, 1, order=suite.order))


_BAD_KEY = {
    "identity": lambda s: bls.PublicKey(s.unchecked_g1(0)),
    "torsion": lambda s: bls.PublicKey(s.unchecked_g1(7)),
    # KeyValidate decodes anything that is not a PublicKey as key bytes.
    "undecodable": lambda s: SimpleNamespace(suite=s, validated=False),
}

REASON_TABLE = [
    ("core-signature-encoding", lambda s: _core(s, sig=b"not a point"),
     "INVALID(signature-encoding)"),
    ("core-signature-subgroup", lambda s: _core(s, sig=bls.BlsSignature(s.unchecked_g2(7))),
     "INVALID(signature-subgroup)"),
    ("core-key-encoding", lambda s: _core(s, pk=_BAD_KEY["undecodable"](s)),
     "INVALID(key-encoding)"),
    ("core-key-identity", lambda s: _core(s, pk=_BAD_KEY["identity"](s)),
     "INVALID(key-identity)"),
    ("core-key-subgroup", lambda s: _core(s, pk=_BAD_KEY["torsion"](s)),
     "INVALID(key-subgroup)"),
    ("core-pairing-mismatch", lambda s: _core(s, sig=bls.sign(bls.SecretKey(3, s), b"a")),
     "INVALID(pairing-mismatch)"),
    ("aggregate-key-invalid", lambda s: _aggregate(
        s, bls.aggregate_verify, lambda pk: [pk, _BAD_KEY["torsion"](s)]),
     "INVALID(key-invalid)"),
    ("aggregate-duplicate-keys", lambda s: _aggregate(
        s, bls.aggregate_verify, lambda pk: [pk, pk],
        require_distinct_keys=True),
     "INVALID(duplicate-keys)"),
    ("unsafe-fast-duplicate-keys", lambda s: _aggregate(
        s, bls.unsafe_fast_aggregate_verify, lambda pk: [pk, pk],
        require_distinct_keys=True),
     "INVALID(duplicate-keys)"),
    ("aggregate-distinct-keys", lambda s: _distinct(s, bls.aggregate_verify), "VALID"),
    ("unsafe-fast-distinct-keys", lambda s: _distinct(s, bls.unsafe_fast_aggregate_verify),
     "VALID"),
    ("pop-undecodable", lambda s: _pop(s, pop=b"not a point"), False),
    ("pop-torsion-shifted", lambda s: _pop(s, pop="shifted"), False),
    ("pop-identity-key", lambda s: _pop(s, pk=_BAD_KEY["identity"](s)), False),
    ("naive-torsion-shifted", lambda s: _shifted_batch(s, batch.naive_verify), False),
    ("batch-torsion-shifted", lambda s: _shifted_batch(s, batch.batch_verify), False),
]


@pytest.mark.parametrize(
    "case, expected", [(c[1], c[2]) for c in REASON_TABLE], ids=[c[0] for c in REASON_TABLE]
)
def test_rejection_reasons(toy, case, expected):
    assert case(toy) == expected


# ---------------------------------------------------------------------------
# Fixture vectors
# ---------------------------------------------------------------------------


def test_vector_roundtrip(toy):
    sk, _ = _keypair(toy)
    vec = bls.make_test_vector(sk, b"vector message")
    assert bls.check_test_vector(vec, suite=toy)
    vec["message"] = b"tampered".hex()
    assert not bls.check_test_vector(vec, suite=toy)


def test_vector_expectation_compares_the_reason(toy):
    """An INVALID expectation holds only for the reason it names."""
    sk, _ = _keypair(toy)
    vec = bls.make_test_vector(sk, b"vector message")
    shifted = bls.sign(sk, b"vector message").point + toy.unchecked_g2(7)
    vec["signature"] = shifted.to_bytes().hex()
    vec["expect"] = "INVALID(pairing-mismatch)"
    assert not bls.check_test_vector(vec, suite=toy)
    vec["expect"] = "INVALID(signature-subgroup)"
    assert bls.check_test_vector(vec, suite=toy)
