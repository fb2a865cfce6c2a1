"""Randomized batch verification and the deviation attacks against it."""

import pytest

from beaconlab import batch, bls
from beaconlab.errors import ArityMismatch, EmptyBatch, InvalidCoefficient, MalformedDocument

SEED = b"\x07" * 32


def _items(suite, n=2, messages_per_item=1):
    items = []
    for i in range(n):
        sigs, pairs = [], []
        for j in range(messages_per_item):
            sk = bls.keygen(b"signer-%d-%d" % (i, j) + b"\x00" * 22, suite=suite)
            msg = b"message %d-%d" % (i, j)
            if suite.hash_to_group2(msg).is_identity():
                msg += b"!"
            sigs.append(bls.sign(sk, msg))
            pairs.append((bls.sk_to_pk(sk), msg))
        items.append(batch.BatchItem(bls.aggregate(sigs), pairs))
    return items


def test_honest_batch_accepts(big_toy):
    items = _items(big_toy, 3)
    coeffs = batch.BatchCoefficients.generate(SEED, 3, order=big_toy.order)
    assert batch.naive_verify(items)
    assert batch.batch_verify(items, coeffs)


def test_pairing_savings_exactly_n_minus_one(big_toy):
    for n, m in ((2, 1), (3, 2), (5, 1)):
        items = _items(big_toy, n, m)
        coeffs = batch.BatchCoefficients.generate(SEED, n, order=big_toy.order)
        big_toy.reset_pairing_count()
        assert batch.naive_verify(items)
        naive_cost = big_toy.pairing_count
        big_toy.reset_pairing_count()
        assert batch.batch_verify(items, coeffs)
        batched_cost = big_toy.pairing_count
        assert naive_cost == n + n * m
        assert batched_cost == 1 + n * m
        assert naive_cost - batched_cost == n - 1


def test_empty_batch_rejected(big_toy):
    coeffs = batch.BatchCoefficients.generate(SEED, 0, order=big_toy.order)
    with pytest.raises(EmptyBatch):
        batch.batch_verify([], coeffs)
    with pytest.raises(EmptyBatch):
        batch.naive_verify([])


def test_coefficient_generation_bounds(big_toy):
    coeffs = batch.BatchCoefficients.generate(SEED, 50, order=big_toy.order)
    assert all(1 <= v < 1 << 128 for v in coeffs.values)
    again = batch.BatchCoefficients.generate(SEED, 50, order=big_toy.order)
    assert coeffs.values == again.values
    unit = batch.BatchCoefficients.generate(SEED, 4, order=big_toy.order, bit_width=1)
    assert unit.values == [1, 1, 1, 1]


def test_arity_and_range_checks(big_toy):
    items = _items(big_toy, 2)
    short = batch.BatchCoefficients.generate(SEED, 1, order=big_toy.order)
    with pytest.raises(ArityMismatch):
        batch.batch_verify(items, short)
    bad = batch.BatchCoefficients([0, 1], 128, SEED)
    with pytest.raises(InvalidCoefficient):
        batch.batch_verify(items, bad)


# ---------------------------------------------------------------------------
# Additive deviation
# ---------------------------------------------------------------------------


def test_additive_deviation_fools_unit_coefficients(big_toy):
    items = _items(big_toy, 2)
    forged = batch.forge_additive_deviation(items, big_toy.generator_g2)
    assert not batch.naive_verify(forged)
    # The signature sum is unchanged, so all-ones coefficients pass.
    unit = batch.BatchCoefficients.generate(SEED, 2, order=big_toy.order, bit_width=1)
    assert batch.batch_verify(forged, unit)


def test_additive_deviation_rejected_by_random_coefficients(big_toy):
    items = _items(big_toy, 2)
    forged = batch.forge_additive_deviation(items, big_toy.generator_g2)
    rejections = 0
    trials = 1000
    for t in range(trials):
        seed = bytes([t % 256, t // 256]) + b"\x00" * 30
        coeffs = batch.BatchCoefficients.generate(seed, 2, order=big_toy.order)
        if not batch.batch_verify(forged, coeffs):
            rejections += 1
    assert rejections == trials


def test_additive_deviation_rejects_identity_deviation(big_toy):
    items = _items(big_toy, 2)
    with pytest.raises(ValueError):
        batch.forge_additive_deviation(items, big_toy.identity_g2())


# ---------------------------------------------------------------------------
# Small-subgroup deviation
# ---------------------------------------------------------------------------


def test_subgroup_deviation_pass_rate_near_one_over_p(toy257):
    items = _items(toy257, 2)
    forged = batch.forge_subgroup_deviation(items, 5)
    passes = 0
    trials = 2000
    for t in range(trials):
        seed = t.to_bytes(4, "big") + b"\x00" * 28
        coeffs = batch.BatchCoefficients.generate(seed, 2, order=toy257.order)
        assert not batch.batch_verify(forged, coeffs)  # checks enabled: never
        if batch.batch_verify(forged, coeffs, enforce_subgroup=False):
            passes += 1
    # 1/5 within a generous band for 2000 trials.
    assert 0.16 < passes / trials < 0.24


def test_subgroup_deviation_independent_of_coefficient_width(toy257):
    """The cancellation chance stays ~1/p even with huge coefficients."""
    items = _items(toy257, 2)
    forged = batch.forge_subgroup_deviation(items, 5)
    passes = 0
    for t in range(500):
        seed = t.to_bytes(4, "big") + b"\x11" * 28
        coeffs = batch.BatchCoefficients.generate(
            seed, 2, order=toy257.order, bit_width=64
        )
        if batch.batch_verify(forged, coeffs, enforce_subgroup=False):
            passes += 1
    assert 0.12 < passes / 500 < 0.28


def test_subgroup_deviation_caught_by_naive_verify(toy257):
    items = _items(toy257, 2)
    forged = batch.forge_subgroup_deviation(items, 5)
    assert not batch.naive_verify(forged)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_batch_json_roundtrip(toy257):
    items = _items(toy257, 2)
    coeffs = batch.BatchCoefficients.generate(SEED, 2, order=toy257.order)
    doc = batch.batch_to_json(items, coeffs, enforce_subgroup=True)
    items2, coeffs2, enforce = batch.batch_from_json(doc, suite=toy257)
    assert enforce
    assert coeffs2.values == coeffs.values
    assert [i.signature.to_bytes() for i in items2] == [
        i.signature.to_bytes() for i in items
    ]
    assert batch.batch_verify(items2, coeffs2)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"items": 5},
        {"items": [{"signature": 7, "pairs": []}]},
        {"items": [], "seed": None},
    ],
)
def test_batch_json_missing_or_mistyped_field(toy257, doc):
    with pytest.raises(MalformedDocument):
        batch.batch_from_json(doc, suite=toy257)
