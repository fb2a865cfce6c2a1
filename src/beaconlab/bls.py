"""BLS signature scheme layer: keys, core sign/verify, aggregation,
proofs of possession, and the rogue-key attack constructor.

Verification entry points return a :class:`VerifyResult` carrying a
distinguishing reason for every rejection, so tests can assert exactly
which security check fired. Structural misuse (mismatched list lengths,
empty aggregations, undersized key material) raises instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    EmptyAggregation,
    IdentityPoint,
    IkmTooShort,
    InvalidEncoding,
    InvalidPoint,
    NotInSubgroup,
)
from .kdf import hkdf_sha256
from .suites import Group2Element, PairingSuite

KEYGEN_SALT = b"BLS-SIG-KEYGEN-SALT-"


@dataclass(frozen=True)
class SecretKey:
    scalar: int
    suite: PairingSuite

    def __post_init__(self):
        if not 1 <= self.scalar < self.suite.order:
            raise ValueError("secret key must satisfy 1 <= SK < r")

    def __repr__(self):
        return f"SecretKey(<{self.suite.name}>)"


@dataclass
class PublicKey:
    point: object  # Group1Element
    validated: bool = False

    @property
    def suite(self):
        return self.point.suite

    def to_bytes(self):
        return self.point.to_bytes()


@dataclass
class BlsSignature:
    point: object  # Group2Element

    @property
    def suite(self):
        return self.point.suite

    def to_bytes(self):
        return self.point.to_bytes()


@dataclass
class ProofOfPossession:
    point: object  # Group2Element

    def to_bytes(self):
        return self.point.to_bytes()


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    reason: str | None = None

    def __bool__(self):
        return self.valid

    def __str__(self):
        return "VALID" if self.valid else f"INVALID({self.reason})"


VALID = VerifyResult(True)


def _invalid(reason):
    return VerifyResult(False, reason)


# ---------------------------------------------------------------------------
# Key generation and management
# ---------------------------------------------------------------------------


def keygen(ikm: bytes, key_info: bytes = b"", *, suite: PairingSuite) -> SecretKey:
    """Derive a secret key from input key material via the IETF
    BLS-signature HKDF loop (salt rehashed until SK is nonzero)."""
    if len(ikm) < 32:
        raise IkmTooShort(f"ikm must be at least 32 bytes, got {len(ikm)}")
    r = suite.order
    length = -(-3 * ((r - 1).bit_length()) // 16)  # ceil(3 * ceil(log2(r)) / 16)
    salt = KEYGEN_SALT
    sk = 0
    while sk == 0:
        salt = hashlib.sha256(salt).digest()
        okm = hkdf_sha256(salt, ikm + b"\x00", key_info + length.to_bytes(2, "big"), length)
        sk = int.from_bytes(okm, "big") % r
    return SecretKey(sk, suite)


def sk_to_pk(sk: SecretKey) -> PublicKey:
    return PublicKey(sk.scalar * sk.suite.generator_g1, validated=True)


def key_validate(pk_bytes, *, suite: PairingSuite) -> PublicKey:
    """Decode and validate a public key: encoding, identity, subgroup."""
    if isinstance(pk_bytes, PublicKey):
        point = pk_bytes.point
    else:
        try:
            point = suite.g1_from_bytes(pk_bytes)
        except InvalidPoint as exc:
            raise InvalidEncoding(str(exc)) from None
    if point.is_identity():
        raise IdentityPoint("public key is the identity element")
    if not suite.subgroup_check(point):
        raise NotInSubgroup("public key is outside the order-r subgroup")
    return PublicKey(point, validated=True)


# ---------------------------------------------------------------------------
# Signing and verification
# ---------------------------------------------------------------------------


def sign(sk: SecretKey, message: bytes) -> BlsSignature:
    h = sk.suite.hash_to_group2(message)
    return BlsSignature(sk.scalar * h)


def _signature_point(sig, suite):
    """Decode a signature or proof of possession and check that it lies in
    the order-r subgroup of G2: the point, or the reason it is rejected."""
    if isinstance(sig, (BlsSignature, ProofOfPossession)):
        sig = sig.point
    if not isinstance(sig, Group2Element):
        try:
            sig = suite.g2_from_bytes(sig)
        except InvalidPoint:
            return "signature-encoding"
    if not suite.subgroup_check(sig):
        return "signature-subgroup"
    return sig


def _key_point(pk, suite):
    """KeyValidate a public key unless it already was: the point, or the
    reason it is rejected."""
    if pk.validated:
        return pk.point
    try:
        return key_validate(pk, suite=suite).point
    except InvalidEncoding:
        return "key-encoding"
    except IdentityPoint:
        return "key-identity"
    except NotInSubgroup:
        return "key-subgroup"


def _pairing_verify(suite, lhs, sig_point):
    """The BLS equation: prod e(PK_i, H(m_i)) over ``lhs`` == e(G1, S)."""
    if suite.pairing_check(lhs, [(suite.generator_g1, sig_point)]):
        return VALID
    return _invalid("pairing-mismatch")


def _verify_one(pk, message, sig, dst):
    """The body of core_verify and pop_verify, which differ only in the
    message and the DST."""
    suite = pk.suite
    sig_point = _signature_point(sig, suite)
    if isinstance(sig_point, str):
        return _invalid(sig_point)
    key_point = _key_point(pk, suite)
    if isinstance(key_point, str):
        return _invalid(key_point)
    return _pairing_verify(suite, [(key_point, suite.hash_to_group2(message, dst))], sig_point)


def core_verify(pk: PublicKey, message: bytes, sig) -> VerifyResult:
    """Signature verification with every check of the core algorithm,
    each failure reported distinctly."""
    return _verify_one(pk, message, sig, pk.suite.dst)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def aggregate(signatures) -> BlsSignature:
    signatures = list(signatures)
    if not signatures:
        raise EmptyAggregation("refusing to aggregate an empty signature list")
    acc = signatures[0].point
    for s in signatures[1:]:
        acc = acc + s.point
    return BlsSignature(acc)


def aggregate_public_keys(pks) -> PublicKey:
    """The sum of the keys. A sum of validated keys lies in the subgroup,
    so it is validated unless it is the identity; any other sum is left for
    KeyValidate."""
    pks = list(pks)
    if not pks:
        raise EmptyAggregation("refusing to aggregate an empty public-key list")
    acc = pks[0].point
    for pk in pks[1:]:
        acc = acc + pk.point
    validated = all(pk.validated for pk in pks) and not acc.is_identity()
    return PublicKey(acc, validated=validated)


def aggregate_verify(pks, messages, sig, *, require_distinct_keys=False) -> VerifyResult:
    pks, messages = list(pks), list(messages)
    if len(pks) != len(messages):
        raise ArityMismatch(f"{len(pks)} keys vs {len(messages)} messages")
    if not pks:
        raise ArityMismatch("empty verification set")
    if len(set(messages)) != len(messages):
        return _invalid("duplicate-messages")
    if require_distinct_keys and len({pk.to_bytes() for pk in pks}) != len(pks):
        return _invalid("duplicate-keys")
    suite = pks[0].suite
    sig_point = _signature_point(sig, suite)
    if isinstance(sig_point, str):
        return _invalid(sig_point)
    key_points = [_key_point(pk, suite) for pk in pks]
    if any(isinstance(point, str) for point in key_points):
        return _invalid("key-invalid")
    lhs = [(point, suite.hash_to_group2(m)) for point, m in zip(key_points, messages)]
    return _pairing_verify(suite, lhs, sig_point)


def unsafe_fast_aggregate_verify(pks, message, sig, *, require_distinct_keys=False) -> VerifyResult:
    """Same-message aggregate check WITHOUT proof-of-possession enforcement.

    Vulnerable to rogue-key forgeries by construction; exists only so the
    attack demonstrations have a target. Never use for real validation.
    As in the IETF draft, this is core verification under the aggregate
    key, whose KeyValidate rejects an identity aggregate such as
    {PK, -PK}.
    """
    pks = list(pks)
    if not pks:
        raise ArityMismatch("empty verification set")
    if require_distinct_keys and len({pk.to_bytes() for pk in pks}) != len(pks):
        return _invalid("duplicate-keys")
    return core_verify(aggregate_public_keys(pks), message, sig)


def fast_aggregate_verify(pks, pops, message, sig, *, require_distinct_keys=False) -> VerifyResult:
    """Same-message aggregate check gated on one valid proof of possession
    per public key."""
    pks, pops = list(pks), list(pops)
    if len(pks) != len(pops):
        raise ArityMismatch(f"{len(pks)} keys vs {len(pops)} proofs of possession")
    for pk, pop in zip(pks, pops):
        if not pop_verify(pk, pop):
            return _invalid("pop-failure")
    return unsafe_fast_aggregate_verify(
        pks, message, sig, require_distinct_keys=require_distinct_keys
    )


# ---------------------------------------------------------------------------
# Proofs of possession
# ---------------------------------------------------------------------------


def pop_prove(sk: SecretKey) -> ProofOfPossession:
    suite = sk.suite
    pk = sk_to_pk(sk)
    h = suite.hash_to_group2(pk.to_bytes(), suite.pop_dst)
    return ProofOfPossession(sk.scalar * h)


def pop_verify(pk: PublicKey, pop: ProofOfPossession) -> bool:
    """Core verification of ``pop`` over the key's own bytes, under the
    proof-of-possession DST."""
    return bool(_verify_one(pk, pk.to_bytes(), pop, pk.suite.pop_dst))


# ---------------------------------------------------------------------------
# Rogue-key attack
# ---------------------------------------------------------------------------


def rogue_key_forge(target_pk: PublicKey, message: bytes, rho: int):
    """Forge an aggregate over ``message`` for (target, rogue) signers.

    The rogue key is rho*P - target, so the key sum collapses to rho*P and
    rho*H2C(message) verifies as the two-signer aggregate, even though the
    attacker never learns the rogue secret key.
    """
    suite = target_pk.suite
    if not target_pk.validated:
        target_pk = key_validate(target_pk, suite=suite)
    if not 1 <= rho < suite.order:
        raise ValueError("rho must satisfy 1 <= rho < r")
    rogue_point = rho * suite.generator_g1 - target_pk.point
    rogue_pk = key_validate(PublicKey(rogue_point), suite=suite)
    forged = BlsSignature(rho * suite.hash_to_group2(message))
    return rogue_pk, forged


# ---------------------------------------------------------------------------
# Test-vector fixtures: {sk, pk, message, signature, expect}
# ---------------------------------------------------------------------------


def make_test_vector(sk: SecretKey, message: bytes) -> dict:
    pk = sk_to_pk(sk)
    sig = sign(sk, message)
    return {
        "sk": hex(sk.scalar),
        "pk": pk.to_bytes().hex(),
        "message": message.hex(),
        "signature": sig.to_bytes().hex(),
        "expect": "VALID",
    }


def check_test_vector(vector: dict, *, suite: PairingSuite) -> bool:
    pk = key_validate(bytes.fromhex(vector["pk"]), suite=suite)
    result = core_verify(pk, bytes.fromhex(vector["message"]), bytes.fromhex(vector["signature"]))
    return str(result) == vector["expect"]
