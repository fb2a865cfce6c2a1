"""The field tower of the BLS12-381 backend: each closed-form inverse and the
Fq2 square test against its definition, and regression vectors for the
outputs built on them."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beaconlab import bls12381 as b
from beaconlab.suites import BLS_SIG_DST

Q = b.FIELD_MODULUS


def fermat_inverse(x, field_size):
    """The definition: x^(|F| - 2) = 1/x in a field with |F| elements."""
    return x ** (field_size - 2)


def euler_is_square_fq(a):
    """The definition: a is a square in Fq iff a = 0 or a^((q - 1)/2) = 1."""
    return a.n == 0 or pow(a.n, (Q - 1) // 2, Q) == 1


def euler_is_square_fq2(a):
    """The definition: a is a square in Fq2 iff a = 0 or a^((q^2 - 1)/2) = 1."""
    return a == b.FQ2.zero() or a ** ((Q * Q - 1) // 2) == b.FQ2.one()


def _shaped(degree, shapes):
    """Nonzero coefficient lists, zero outside one of the index sets in
    ``shapes``."""
    coeffs = st.lists(st.integers(0, Q - 1), min_size=degree, max_size=degree)
    return (
        st.tuples(coeffs, st.sampled_from(shapes))
        .map(lambda cs: [c if i in cs[1] else 0 for i, c in enumerate(cs[0])])
        .filter(any)
    )


FQ2_SHAPES = [(0, 1), (0,), (1,)]  # random, pure real, pure imaginary
FQ12_SHAPES = [
    tuple(range(12)),  # random
    (0,),  # pure real
    (0, 6),  # Fq2 embedded: a + b u = (a - b) + b w^6
    tuple(range(0, 12, 2)),  # even powers of w only
    tuple(range(1, 12, 2)),  # odd powers of w only
] + [(i,) for i in range(12)]  # a single coefficient

fq = st.integers(1, Q - 1).map(b.FQ)
fq2 = _shaped(2, FQ2_SHAPES).map(b.FQ2)
fq12 = _shaped(12, FQ12_SHAPES).map(b.FQ12)


@pytest.mark.parametrize("elements", [fq, fq2, fq12], ids=["fq", "fq2", "fq12"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_is_an_involution_with_product_one(elements, data):
    x = data.draw(elements)
    assert x * x.inv() == 1
    assert x.inv().inv() == x


@settings(max_examples=60, deadline=None)
@given(fq)
def test_fq_inverse_is_the_fermat_power(x):
    assert x.inv() == fermat_inverse(x, Q)


@settings(max_examples=60, deadline=None)
@given(fq2)
def test_fq2_inverse_is_the_fermat_power(x):
    assert x.inv() == fermat_inverse(x, Q**2)


def _fixed_fq12(seed, shape):
    rnd = random.Random(seed)
    return b.FQ12([rnd.randrange(1, Q) if i in shape else 0 for i in range(12)])


@pytest.mark.parametrize(
    "x",
    [
        _fixed_fq12(1, FQ12_SHAPES[0]),
        _fixed_fq12(2, FQ12_SHAPES[4]),
        _fixed_fq12(3, FQ12_SHAPES[2]),
    ],
    ids=["random", "odd-only", "fq2-embedded"],
)
def test_fq12_inverse_is_the_fermat_power(x):
    assert x.inv() == fermat_inverse(x, Q**12)


@settings(max_examples=40, deadline=None)
@given(fq2)
@example(b.FQ2.zero())
@example(b.FQ2([1, 1]))  # norm 2, a non-square since q = 3 mod 8
@example(b.FQ2([1, 1]) * b.FQ2([1, 1]))
def test_fq2_square_test_is_euler_criterion(a):
    assert b.is_square_fq2(a) == euler_is_square_fq2(a)


def _fq_square_test_inputs():
    # q = 3 mod 4, so -1 is a non-square and -x^2 is one for every x != 0.
    rnd = random.Random(31)
    squares = [rnd.randrange(1, Q) ** 2 % Q for _ in range(300)]
    return [0, 1, Q - 1] + squares + [Q - s for s in squares]


def test_fq_square_test_is_euler_criterion():
    inputs = _fq_square_test_inputs()
    expected = [euler_is_square_fq(b.FQ(n)) for n in inputs]
    assert expected[:3] == [True, True, False]
    assert expected[3:] == [True] * 300 + [False] * 300
    assert [b.is_square_fq(b.FQ(n)) for n in inputs] == expected


@pytest.mark.parametrize(
    "zero", [b.FQ(0), b.FQ2.zero(), b.FQ12.zero()], ids=["fq", "fq2", "fq12"]
)
def test_zero_has_no_inverse(zero):
    with pytest.raises(ZeroDivisionError):
        zero.inv()
    with pytest.raises(ZeroDivisionError):
        1 / zero


def test_negative_powers_are_refused():
    # Square-and-multiply would never end on a negative exponent.
    for x in (b.FQ2([1, 1]), b.FQ12.one()):
        with pytest.raises(ValueError):
            x**-1


# Self-vectors, not interoperability KATs: computed with the definitional
# Fermat and polynomial-Euclid inverses (commit 184fe58). Every inverse is
# unique, so the closed forms must reproduce them bit for bit.
HASH_TO_G2_VECTORS = {
    b"": (
        "b7abeba3de6263a510bf662f80c7c902388c65fc3c4fdfbf254db360b09ac65a"
        "1927a711fcff6dab3a68cde21464f46e17e8dadb5cb86158b953bd2483a6bdf2"
        "c09dd4b718fd82b3cfaa3c4dd542a8c908e8d46268568ab4075d29c7ac532ecc"
    ),
    b"abc": (
        "814b27186434bd8dec0cb7f465733aef9aba790adcc15c5cadca1c1e595b4b0a"
        "6bdd77465efc4581a2d74f4bd25912e60c5c2eac38fed2efdf1c09222bea2595"
        "144f439ba7eca686a0cf95462139a86aa082af60d02a0338a53206dbb9731b3c"
    ),
    b"beaconlab field regression": (
        "af09123b772939b0884eb6c375fe7e9378362f5c3e85977b4f39bc6dc9a78f75"
        "31a13753536562a2160f8e23b06665910415931085431734027e8688bcb01624"
        "7e80519e224dfc3dacf79e6cc6ef7a5d82c1ca3b3820a0f742a7233045432f77"
    ),
}
PAIRING_DIGEST = "120b8353e2f4e0881e6bd7577d8582b6e0b4d00ecbf40202f3466b302be513f6"


@pytest.mark.parametrize("message", sorted(HASH_TO_G2_VECTORS))
def test_hash_to_g2_regression_vectors(message):
    point = b.hash_to_g2(message, BLS_SIG_DST)
    assert b.compress_g2(point).hex() == HASH_TO_G2_VECTORS[message]


def test_pairing_regression_digest():
    e = b.pairing(b.multiply(b.G2, 0x1234), b.multiply(b.G1, 0x5678))
    coeffs = b"".join(c.to_bytes(48, "big") for c in e.coeffs)
    assert hashlib.sha256(coeffs).hexdigest() == PAIRING_DIGEST
