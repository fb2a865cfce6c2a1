"""Randomized batch verification of aggregate signatures, the naive
per-item oracle it is checked against, and the two attack constructors
that justify the random coefficients and the subgroup checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .bls import BlsSignature
from .errors import ArityMismatch, EmptyBatch, InvalidCoefficient, parsing
from .suites import Group2Element, PairingSuite

DEFAULT_COEFF_BITS = 128


@dataclass
class BatchItem:
    """One aggregate signature with its (public key, message) pairs."""

    signature: BlsSignature
    pairs: list  # [(PublicKey, bytes), ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("batch item needs at least one (pk, message) pair")
        for pk, _ in self.pairs:
            if not pk.validated:
                raise ValueError("batch items require validated public keys")

    @property
    def suite(self):
        return self.signature.suite


@dataclass
class BatchCoefficients:
    """Random scalars r_i, reproducible from a 32-byte seed."""

    values: list
    bit_width: int
    rng_seed: bytes

    @classmethod
    def generate(
        cls, seed: bytes, count: int, *, order: int, bit_width: int = DEFAULT_COEFF_BITS
    ):
        if len(seed) != 32:
            raise ValueError("seed must be 32 bytes")
        if bit_width < 1:
            raise ValueError("bit width must be positive")
        bound = min(1 << bit_width, order)
        values = []
        for i in range(count):
            ctr = 0
            while True:
                digest = hashlib.sha256(
                    seed + i.to_bytes(4, "big") + ctr.to_bytes(4, "big")
                ).digest()
                v = int.from_bytes(digest, "big") % bound
                if 1 <= v:
                    values.append(v)
                    break
                ctr += 1
        return cls(values, bit_width, seed)

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def naive_verify(items) -> bool:
    """Check every item's pairing equation individually.

    This is the oracle everything else is measured against; it costs
    n + sum(m_i) pairings on an honest batch.
    """
    items = list(items)
    if not items:
        raise EmptyBatch("nothing to verify")
    for item in items:
        suite = item.suite
        sig_point = item.signature.point
        if not suite.subgroup_check(sig_point):
            return False
        rhs = [(pk.point, suite.hash_to_group2(message)) for pk, message in item.pairs]
        if not suite.pairing_check([(suite.generator_g1, sig_point)], rhs):
            return False
    return True


def batch_verify(items, coeffs: BatchCoefficients, *, enforce_subgroup: bool = True) -> bool:
    """Check all items at once via random linear combination.

    Computes S* = sum(r_i * S_i) and compares e(G, S*) against the double
    product over coefficient-scaled hashed messages; costs 1 + sum(m_i)
    pairings, n - 1 fewer than the naive check. Keys are not
    subgroup-checked again: a :class:`BatchItem` holds validated keys only.
    """
    items = list(items)
    if not items:
        raise EmptyBatch("nothing to verify")
    if len(coeffs) != len(items):
        raise ArityMismatch(f"{len(items)} items vs {len(coeffs)} coefficients")
    suite = items[0].suite
    for v in coeffs.values:
        if not 1 <= v < suite.order:
            raise InvalidCoefficient(f"coefficient {v} outside [1, r)")
    if enforce_subgroup:
        for item in items:
            if not suite.subgroup_check(item.signature.point):
                return False
    s_star = None
    for item, r_i in zip(items, coeffs.values):
        term = r_i * item.signature.point
        s_star = term if s_star is None else s_star + term
    rhs = [
        (pk.point, r_i * suite.hash_to_group2(message))
        for item, r_i in zip(items, coeffs.values)
        for pk, message in item.pairs
    ]
    return suite.pairing_check([(suite.generator_g1, s_star)], rhs)


# ---------------------------------------------------------------------------
# Attack constructors
# ---------------------------------------------------------------------------


def forge_additive_deviation(items, deviation: Group2Element):
    """Shift two valid signatures by +D and -D.

    The per-item equations break but the signature sum is unchanged, so an
    unrandomized (all-coefficients-equal) batch check still passes.
    """
    items = list(items)
    if len(items) != 2:
        raise ValueError("the additive-deviation forgery needs exactly two items")
    if deviation.is_identity():
        raise ValueError("deviation must not be the identity")
    a, b = items
    return [
        BatchItem(BlsSignature(a.signature.point + deviation), list(a.pairs)),
        BatchItem(BlsSignature(b.signature.point - deviation), list(b.pairs)),
    ]


def forge_subgroup_deviation(items, torsion_order: int):
    """Shift two valid signatures by small-order torsion points.

    With subgroup validation disabled the randomized batch check still
    passes whenever r_1*D_1 = -r_2*D_2, which happens with probability
    ~1/p over the coefficients, regardless of their bit width.
    """
    items = list(items)
    if len(items) != 2:
        raise ValueError("the subgroup-deviation forgery needs exactly two items")
    suite = items[0].suite
    torsion = suite.small_order_g2(torsion_order)  # raises TorsionUnavailable
    a, b = items
    return [
        BatchItem(BlsSignature(a.signature.point + torsion), list(a.pairs)),
        BatchItem(BlsSignature(b.signature.point + torsion), list(b.pairs)),
    ]


# ---------------------------------------------------------------------------
# JSON wire format: {items, seed, coeff_bits, enforce_subgroup}
# ---------------------------------------------------------------------------


def batch_to_json(items, coeffs: BatchCoefficients, *, enforce_subgroup: bool) -> dict:
    return {
        "items": [
            {
                "signature": item.signature.to_bytes().hex(),
                "pairs": [
                    {"pk": pk.to_bytes().hex(), "message": message.hex()}
                    for pk, message in item.pairs
                ],
            }
            for item in items
        ],
        "seed": coeffs.rng_seed.hex(),
        "coeff_bits": coeffs.bit_width,
        "enforce_subgroup": enforce_subgroup,
    }


def batch_from_json(doc: dict, *, suite: PairingSuite):
    from .bls import key_validate

    with parsing("batch document"):
        entries = [
            (
                bytes.fromhex(entry["signature"]),
                [(bytes.fromhex(p["pk"]), bytes.fromhex(p["message"])) for p in entry["pairs"]],
            )
            for entry in doc["items"]
        ]
        seed = bytes.fromhex(doc["seed"])
        bit_width = doc.get("coeff_bits", DEFAULT_COEFF_BITS)
        enforce_subgroup = bool(doc.get("enforce_subgroup", True))
    items = [
        BatchItem(
            BlsSignature(suite.g2_from_bytes(sig)),
            [(key_validate(pk, suite=suite), message) for pk, message in pairs],
        )
        for sig, pairs in entries
    ]
    coeffs = BatchCoefficients.generate(seed, len(items), order=suite.order, bit_width=bit_width)
    return items, coeffs, enforce_subgroup
