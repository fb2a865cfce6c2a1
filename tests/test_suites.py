"""Pairing-suite adapters: the composite-order oracle group and the
production curve behind the same interface."""

import itertools

import pytest

from beaconlab.errors import TorsionUnavailable
from beaconlab.suites import ToySuite


def test_toy_pairing_worked_example(toy):
    # 15 and 10 lie in the order-7 subgroup of Z_35; the pairing is plain
    # multiplication there.
    assert toy.pair(toy.unchecked_g1(15), toy.unchecked_g2(10)).value == 10


def test_toy_bilinearity_on_subgroup(toy):
    g1, g2 = toy.generator_g1, toy.generator_g2
    base = toy.pair(g1, g2)
    for a, b in itertools.product(range(1, 7), repeat=2):
        assert toy.pair(g1 * a, g2 * b) == base ** (a * b)


def test_toy_subgroup_membership(toy):
    assert toy.subgroup_check(toy.unchecked_g2(15))
    assert not toy.subgroup_check(toy.unchecked_g2(7))
    assert toy.subgroup_check(toy.unchecked_g2(0))
    for raw in range(toy.modulus):
        for elem in (toy.unchecked_g1(raw), toy.unchecked_g2(raw)):
            assert toy.subgroup_check(elem) == (elem * toy.order).is_identity()


def test_toy_small_order_element(toy):
    t = toy.small_order_g2(5)
    assert toy.element_order(t) == 5
    with pytest.raises(TorsionUnavailable):
        toy.small_order_g2(3)
    with pytest.raises(TorsionUnavailable):
        toy.small_order_g2(7)  # the signature subgroup itself is off-limits


def test_toy_pairing_leaks_torsion(toy):
    """A torsion component must not silently vanish from the pairing
    check; only cancellation in the group hides it."""
    g1, g2 = toy.generator_g1, toy.generator_g2
    t = toy.small_order_g2(5)
    honest = toy.pair(g1, g2 * 3)
    assert toy.pair(g1, g2 * 3 + t) != honest
    assert toy.pair(g1, g2 * 3 + t * 5) == honest  # 5*t is the identity


def test_toy_serialization_roundtrip(toy):
    for k in range(7):
        e = toy.generator_g2 * k
        assert toy.g2_from_bytes(toy.g2_to_bytes(e)) == e


def test_pairing_counter(toy):
    toy.reset_pairing_count()
    toy.pair(toy.generator_g1, toy.generator_g2)
    toy.pair(toy.generator_g1, toy.generator_g2)
    assert toy.pairing_count == 2
    toy.reset_pairing_count()
    assert toy.pairing_count == 0


def test_toy_requires_coprime_cofactor():
    with pytest.raises(ValueError):
        ToySuite(subgroup_order=10, cofactor=5)


def test_big_toy_suite_behaves(big_toy):
    g = big_toy.generator_g2
    assert big_toy.subgroup_check(g * 12345)
    assert big_toy.order > 2**128


def test_production_generators_and_identities(production):
    g1, g2 = production.generator_g1, production.generator_g2
    assert production.subgroup_check(g1)
    assert production.subgroup_check(g2)
    assert (g1 - g1).is_identity()
    assert production.identity_gt() == production.pair(g1, g2) ** 0


def test_production_torsion_catalogue(production):
    assert production.G2_TORSION_PRIMES == (13, 23, 2713, 11953)
    t = production.small_order_g2(13)
    assert not t.is_identity()
    assert (t * 13).is_identity()
    assert not production.subgroup_check(t)
    with pytest.raises(TorsionUnavailable):
        production.small_order_g2(7)


def test_production_serialization_roundtrip(production):
    e2 = production.generator_g2 * 9
    assert production.g2_from_bytes(production.g2_to_bytes(e2)) == e2
    e1 = production.generator_g1 * 9
    assert production.g1_from_bytes(production.g1_to_bytes(e1)) == e1


def test_production_ciphersuite_names_the_svdw_map(production):
    for dst in (production.dst, production.pop_dst):
        assert b"_XMD:SHA-256_SVDW_RO_POP_" in dst and b"SSWU" not in dst


def test_subgroup_checked_flag_follows_the_group_law(toy):
    """A result is marked checked only when every operand was; one torsion
    operand makes the sum, the difference or either order unchecked."""
    g = toy.generator_g2 * 3
    t = toy.small_order_g2(5)
    assert g.subgroup_checked and not t.subgroup_checked
    for elem, checked in [
        (g + g, True),
        (g + t, False),
        (t + g, False),
        (g - g, True),
        (g - t, False),
        (t - g, False),
        (-g, True),
        (-t, False),
        (g * 4, True),
        (4 * g, True),
        (t * 4, False),
    ]:
        assert elem.subgroup_checked is checked, elem
