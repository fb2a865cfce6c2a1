"""Bilinear pairing suites.

Two instantiations of one abstract interface:

* ``ToySuite`` -- additive groups Z_n with n = r*c composite, pair(a, b) =
  a*b mod n. Small enough for exhaustive oracles, and the composite order
  provides genuine small-order torsion for subgroup-check attack demos.
* ``Bls12381Suite`` -- adapter over the vendored BLS12-381 arithmetic in
  :mod:`beaconlab.bls12381` (compressed 48/96-byte encodings, the
  SvdW hash-to-G2 ciphersuite tags).

Group elements carry a ``subgroup_checked`` flag recording whether
membership in the order-r subgroup was ever verified; attack constructions
rely on being able to build elements with the flag off.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod

from . import bls12381 as _bk
from .errors import InvalidPoint, TorsionUnavailable

# The map to the curve is Shallue-van de Woestijne, so the suite IDs say
# SVDW; no known-answer vector backs interoperability with other libraries.
BLS_SIG_DST = b"BLS_SIG_BLS12381G2_XMD:SHA-256_SVDW_RO_POP_"
BLS_POP_DST = b"BLS_POP_BLS12381G2_XMD:SHA-256_SVDW_RO_POP_"
TOY_SIG_DST = b"TOY-BLS-SIG"
TOY_POP_DST = b"TOY-BLS-POP_"


class _Element:
    """Opaque group element bound to its suite."""

    __slots__ = ("suite", "value", "subgroup_checked")
    group = None

    def __init__(self, suite, value, subgroup_checked=False):
        self.suite = suite
        self.value = value
        self.subgroup_checked = subgroup_checked

    def _require_peer(self, other):
        if type(other) is not type(self) or other.suite is not self.suite:
            raise TypeError("group elements belong to different groups or suites")

    def __add__(self, other):
        self._require_peer(other)
        return type(self)(
            self.suite,
            self.suite._op_add(self.group, self.value, other.value),
            self.subgroup_checked and other.subgroup_checked,
        )

    def __neg__(self):
        return type(self)(
            self.suite,
            self.suite._op_neg(self.group, self.value),
            self.subgroup_checked,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return type(self)(
            self.suite,
            self.suite._op_mul(self.group, self.value, k),
            self.subgroup_checked,
        )

    __rmul__ = __mul__

    def is_identity(self):
        return self.suite._op_is_identity(self.group, self.value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.suite is other.suite and self.suite._op_eq(
            self.group, self.value, other.value
        )

    def __hash__(self):
        return hash((id(self.suite), self.group, repr(self.value)))

    def __repr__(self):
        return f"{type(self).__name__}({self.value!r}, checked={self.subgroup_checked})"


class Group1Element(_Element):
    group = "g1"

    def to_bytes(self):
        return self.suite.g1_to_bytes(self)


class Group2Element(_Element):
    group = "g2"

    def to_bytes(self):
        return self.suite.g2_to_bytes(self)


class GtElement:
    """Element of the pairing target group (written multiplicatively)."""

    __slots__ = ("suite", "value")

    def __init__(self, suite, value):
        self.suite = suite
        self.value = value

    def __mul__(self, other):
        if type(other) is not GtElement or other.suite is not self.suite:
            raise TypeError("GT elements belong to different suites")
        return GtElement(self.suite, self.suite._gt_combine(self.value, other.value))

    def __pow__(self, k):
        return GtElement(self.suite, self.suite._gt_power(self.value, k))

    def __eq__(self, other):
        if type(other) is not GtElement:
            return NotImplemented
        return self.suite is other.suite and self.value == other.value

    def __hash__(self):
        return hash((id(self.suite), "gt", repr(self.value)))

    def __repr__(self):
        return f"GtElement({self.value!r})"


class PairingSuite(ABC):
    """Abstract bilinear-group backend."""

    name: str
    order: int  # prime subgroup order r
    dst: bytes
    pop_dst: bytes

    def __init__(self):
        self.pairing_count = 0

    def reset_pairing_count(self):
        self.pairing_count = 0

    # -- generators / identities ------------------------------------------

    @property
    @abstractmethod
    def generator_g1(self) -> Group1Element: ...

    @property
    @abstractmethod
    def generator_g2(self) -> Group2Element: ...

    def identity_g1(self):
        return self.generator_g1 * 0

    def identity_g2(self):
        return self.generator_g2 * 0

    def identity_gt(self):
        return GtElement(self, self._gt_identity_value())

    # -- core operations --------------------------------------------------

    def pair(self, p: Group1Element, q: Group2Element) -> GtElement:
        if p.group != "g1" or q.group != "g2":
            raise TypeError("pair expects (G1, G2)")
        self.pairing_count += 1
        return GtElement(self, self._pair_values(p.value, q.value))

    def pairing_check(self, lhs, rhs) -> bool:
        """Whether the product of e(P, Q) over the (P, Q) pairs of ``lhs``
        equals the product over ``rhs``; one counted pairing per pair.

        The two sides stay apart: off the r-subgroup the toy pairing is not
        bilinear, so moving a term across as e(-P, Q) would change the
        outcome of the torsion attacks.
        """
        return self._pair_product(lhs) == self._pair_product(rhs)

    def _pair_product(self, pairs):
        # Start from the first value, not the identity: on BLS12-381 each
        # multiplication is a full Fq12 product.
        acc = None
        for p, q in pairs:
            value = self.pair(p, q)
            acc = value if acc is None else acc * value
        return self.identity_gt() if acc is None else acc

    @abstractmethod
    def hash_to_group2(self, message: bytes, dst: bytes | None = None) -> Group2Element: ...

    def subgroup_check(self, elem) -> bool:
        ok = self._op_in_subgroup(elem.group, elem.value)
        if ok:
            elem.subgroup_checked = True
        return ok

    @abstractmethod
    def unchecked_g1(self, raw) -> Group1Element: ...

    @abstractmethod
    def unchecked_g2(self, raw) -> Group2Element: ...

    @abstractmethod
    def small_order_g2(self, p: int) -> Group2Element:
        """A G2-side curve element of prime order p outside the r-subgroup."""

    # -- serialization -----------------------------------------------------

    @abstractmethod
    def g1_to_bytes(self, elem) -> bytes: ...

    @abstractmethod
    def g2_to_bytes(self, elem) -> bytes: ...

    @abstractmethod
    def g1_from_bytes(self, data: bytes) -> Group1Element: ...

    @abstractmethod
    def g2_from_bytes(self, data: bytes) -> Group2Element: ...

    # -- backend hooks -----------------------------------------------------

    @abstractmethod
    def _op_in_subgroup(self, group, value) -> bool:
        """Whether ``value`` lies in the order-r subgroup of ``group``."""


class ToySuite(PairingSuite):
    """Composite-order oracle suite: Z_n with n = r*c, generator c."""

    def __init__(self, subgroup_order: int = 7, cofactor: int = 5):
        super().__init__()
        if cofactor < 1 or subgroup_order < 2:
            raise ValueError("need r >= 2 and c >= 1")
        from math import gcd

        if gcd(subgroup_order, cofactor) != 1:
            raise ValueError("cofactor must be coprime to the subgroup order")
        self.order = subgroup_order
        self.cofactor = cofactor
        self.modulus = subgroup_order * cofactor
        self.name = f"toy-r{subgroup_order}-c{cofactor}"
        self.dst = TOY_SIG_DST
        self.pop_dst = TOY_POP_DST

    @property
    def generator_g1(self):
        return Group1Element(self, self.cofactor % self.modulus, True)

    @property
    def generator_g2(self):
        return Group2Element(self, self.cofactor % self.modulus, True)

    def _op_add(self, group, a, b):
        return (a + b) % self.modulus

    def _op_neg(self, group, a):
        return (-a) % self.modulus

    def _op_mul(self, group, a, k):
        return (a * k) % self.modulus

    def _op_eq(self, group, a, b):
        return a == b

    def _op_is_identity(self, group, a):
        return a % self.modulus == 0

    def _op_in_subgroup(self, group, a):
        return (a * self.order) % self.modulus == 0

    def _pair_values(self, p, q):
        # On subgroup elements this is plain multiplication mod n. Any
        # torsion component leaks a junk contribution instead of vanishing,
        # mirroring how a real pairing evaluated outside the prime-order
        # subgroups stops being bilinear: the check only passes when the
        # torsion cancels in the group itself.
        r, c = self.order, self.cofactor
        r_part = (p * q) % r
        c_part = ((p % r + 1) * (q % c) + (q % r + 1) * (p % c)) % c
        inv = pow(r % c, -1, c) if c > 1 else 0
        return (r_part + r * (((c_part - r_part) * inv) % c)) % self.modulus

    def _gt_identity_value(self):
        return 0

    def _gt_combine(self, a, b):
        return (a + b) % self.modulus

    def _gt_power(self, a, k):
        return (a * k) % self.modulus

    def hash_to_group2(self, message, dst=None):
        dst = self.dst if dst is None else dst
        if not dst:
            raise ValueError("dst must be nonempty")
        digest = hashlib.sha256(len(dst).to_bytes(1, "big") + dst + message).digest()
        k = int.from_bytes(digest, "big") % self.order
        return Group2Element(self, (k * self.cofactor) % self.modulus, True)

    def unchecked_g1(self, raw):
        return Group1Element(self, self._coerce_int(raw), False)

    def unchecked_g2(self, raw):
        return Group2Element(self, self._coerce_int(raw), False)

    def _coerce_int(self, raw):
        if isinstance(raw, bytes):
            try:
                raw = int(raw.decode("ascii"))
            except (UnicodeDecodeError, ValueError):
                raise InvalidPoint("toy elements serialize as decimal integers") from None
        if not isinstance(raw, int):
            raise InvalidPoint(f"cannot build toy element from {type(raw)!r}")
        return raw % self.modulus

    def small_order_g2(self, p):
        if p < 2 or self.cofactor % p != 0:
            raise TorsionUnavailable(
                f"no order-{p} torsion in Z_{self.modulus} outside the r-subgroup"
            )
        elem = Group2Element(self, self.modulus // p, False)
        assert not elem.is_identity() and (elem * p).is_identity()
        return elem

    def g1_to_bytes(self, elem):
        return str(elem.value).encode("ascii")

    g2_to_bytes = g1_to_bytes

    def g1_from_bytes(self, data):
        return self.unchecked_g1(data)

    def g2_from_bytes(self, data):
        return self.unchecked_g2(data)

    def element_order(self, elem):
        """Brute-force order of an element of Z_n (test oracle)."""
        k = 1
        acc = elem.value % self.modulus
        while acc != 0:
            acc = (acc + elem.value) % self.modulus
            k += 1
        return k


class Bls12381Suite(PairingSuite):
    """Production suite backed by the vendored BLS12-381 arithmetic."""

    # Small prime factors of the G2 cofactor, usable as torsion orders.
    G2_TORSION_PRIMES = (13, 23, 2713, 11953)

    def __init__(self):
        super().__init__()
        self.order = _bk.CURVE_ORDER
        self.name = "bls12-381"
        self.dst = BLS_SIG_DST
        self.pop_dst = BLS_POP_DST
        self._torsion_cache = {}

    @property
    def generator_g1(self):
        return Group1Element(self, _bk.G1, True)

    @property
    def generator_g2(self):
        return Group2Element(self, _bk.G2, True)

    def _op_add(self, group, a, b):
        return _bk.add(a, b)

    def _op_neg(self, group, a):
        return _bk.neg(a)

    def _op_mul(self, group, a, k):
        return _bk.multiply(a, k)

    def _op_eq(self, group, a, b):
        return a == b

    def _op_is_identity(self, group, a):
        return a is None

    def _op_in_subgroup(self, group, a):
        if group == "g1":
            return _bk.subgroup_check_g1(a)
        return _bk.subgroup_check_g2(a)

    def _pair_values(self, p, q):
        return _bk.pairing(q, p)

    def _gt_identity_value(self):
        return _bk.GT_ONE

    def _gt_combine(self, a, b):
        return a * b

    def _gt_power(self, a, k):
        return a**k

    def hash_to_group2(self, message, dst=None):
        dst = self.dst if dst is None else dst
        if not dst:
            raise ValueError("dst must be nonempty")
        return Group2Element(self, _bk.hash_to_g2(message, dst), True)

    def unchecked_g1(self, raw):
        pt = self._decode_point(raw, _bk.decompress_g1, _bk.B1)
        return Group1Element(self, pt, False)

    def unchecked_g2(self, raw):
        pt = self._decode_point(raw, _bk.decompress_g2, _bk.B2)
        return Group2Element(self, pt, False)

    def _decode_point(self, raw, decompress, b):
        if isinstance(raw, bytes):
            try:
                return decompress(raw)
            except ValueError as exc:
                raise InvalidPoint(str(exc)) from None
        if raw is None or (isinstance(raw, tuple) and len(raw) == 2):
            if not _bk.is_on_curve(raw, b):
                raise InvalidPoint("point not on curve")
            return raw
        raise InvalidPoint(f"cannot build curve point from {type(raw)!r}")

    def small_order_g2(self, p):
        if p not in self.G2_TORSION_PRIMES:
            raise TorsionUnavailable(
                f"{p} is not a known small prime factor of the G2 cofactor"
            )
        if p not in self._torsion_cache:
            self._torsion_cache[p] = self._build_torsion(p)
        return self._torsion_cache[p]

    def _build_torsion(self, p):
        # Map counters onto the full twist group E'(Fq2), order r * h2 with
        # 13^2 and 23^2 dividing h2; the group exponent is r * h2 / (13*23).
        # Projecting by exponent/p leaves an order-p point.
        exponent = self.order * _bk.H2 // 13 // 23
        scalar = exponent // p
        for ctr in range(64):
            u = _bk.hash_to_field_fq2(b"torsion-point-%d" % ctr, b"BEACONLAB-TORSION", 1)[0]
            pt = _bk.multiply(_bk.map_to_curve_g2(u), scalar)
            if pt is None:
                continue
            assert _bk.multiply(pt, p) is None
            elem = Group2Element(self, pt, False)
            assert not self.subgroup_check(elem)
            elem.subgroup_checked = False
            return elem
        raise TorsionUnavailable(f"could not construct an order-{p} point")

    def g1_to_bytes(self, elem):
        return _bk.compress_g1(elem.value)

    def g2_to_bytes(self, elem):
        return _bk.compress_g2(elem.value)

    def g1_from_bytes(self, data):
        return self.unchecked_g1(data)

    def g2_from_bytes(self, data):
        return self.unchecked_g2(data)
