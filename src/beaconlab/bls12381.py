"""Minimal BLS12-381 arithmetic backend.

Curve arithmetic over the base field tower Fq -> Fq2 -> Fq12, the ate
pairing (a Miller loop on the twist E'(Fq2) with sparse line values, and a
final exponentiation split into an easy part and an exact x-power chain for
the hard part), hash-to-curve for G2 (expand_message_xmd +
Shallue-van de Woestijne map + cofactor clearing), and ZCash-convention
compressed point encodings.

The easy part of the final exponentiation leaves its value in the
cyclotomic subgroup of Fq12, where the hard part's powers square by
Granger-Scott cyclotomic squaring at about a third of the cost of a dense
Fq12 product. ``FQP.__pow__``'s dense square-and-multiply stays the
definition that the tests check the final exponentiation against.

Points are affine tuples (x, y), with None for the point at infinity O.
Scalar multiplication runs in Jacobian coordinates inside ``multiply`` and
pays one field inversion per call, where an affine add or double pays one
each; the affine double-and-add stays in the tests as its oracle.

The endomorphisms sigma of E and psi of the twist E' make the subgroup
checks and cofactor clearing cheap: the G1 and G2 checks compare sigma(P)
with [-x^2]P and psi(P) with [x]P, and cofactor clearing multiplies by
RFC 9380's h_eff through psi, so each costs one or two multiplications by
the 64-bit x. Multiplication by r or by h_eff stays in the tests as the
definition these are checked against.

Every field inverts in closed form: Fq by ``pow(n, -1, q)``, Fq2 by the
conjugate over the norm a^2 + b^2, and Fq12 through its norm to Fq2 under
the automorphisms w -> zeta w (zeta^6 = 1). An Fq element is a square iff
its Jacobi symbol, computed by the binary reciprocity loop, is not -1; an
Fq2 element is a square iff its norm is a square in Fq. The Fermat inverse
x^(|F| - 2) and the Euler powers x^((q - 1)/2) and x^((q^2 - 1)/2) stay in
the tests as the definitions.

Everything is derived from the single curve family parameter ``PARAM_X``
where that is possible. The field modulus and the subgroup order are
cross-checked against their standard literals at import time; the
standard generators are checked by the test suite.

This module is deliberately not constant-time; it exists to back a
protocol laboratory, not to hold production keys.
"""

from __future__ import annotations

import hashlib

# Curve family parameter for BLS12-381 (negative by construction).
PARAM_X = -0xD201000000010000

# Subgroup order r = x^4 - x^2 + 1.
CURVE_ORDER = PARAM_X**4 - PARAM_X**2 + 1

# Base field modulus q = ((x - 1)^2 * r) / 3 + x.
FIELD_MODULUS = ((PARAM_X - 1) ** 2 * CURVE_ORDER) // 3 + PARAM_X

assert FIELD_MODULUS == int(
    "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f624"
    "1eabfffeb153ffffb9feffffffffaaab",
    16,
)
assert CURVE_ORDER == int(
    "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001", 16
)

# Cofactors: h1 = (x-1)^2 / 3; h2 from the standard BLS12 family polynomial.
H1 = (PARAM_X - 1) ** 2 // 3
H2 = (
    PARAM_X**8
    - 4 * PARAM_X**7
    + 5 * PARAM_X**6
    - 4 * PARAM_X**4
    + 6 * PARAM_X**3
    - 4 * PARAM_X**2
    - 4 * PARAM_X
    + 13
) // 9

_Q = FIELD_MODULUS


# ---------------------------------------------------------------------------
# Field tower
# ---------------------------------------------------------------------------


class FQ:
    """Element of the prime field Fq."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n % _Q

    def __add__(self, other):
        return FQ(self.n + _asint(other))

    __radd__ = __add__

    def __sub__(self, other):
        return FQ(self.n - _asint(other))

    def __rsub__(self, other):
        return FQ(_asint(other) - self.n)

    def __mul__(self, other):
        return FQ(self.n * _asint(other))

    __rmul__ = __mul__

    def __neg__(self):
        return FQ(-self.n)

    def __truediv__(self, other):
        return self * FQ(_asint(other)).inv()

    def __rtruediv__(self, other):
        return FQ(_asint(other)) * self.inv()

    def __pow__(self, e):
        return FQ(pow(self.n, e, _Q))

    def inv(self):
        if self.n == 0:
            raise ZeroDivisionError("inversion of zero in Fq")
        return FQ(pow(self.n, -1, _Q))

    def __eq__(self, other):
        if isinstance(other, FQ):
            return self.n == other.n
        if isinstance(other, int):
            return self.n == other % _Q
        return NotImplemented

    def __hash__(self):
        return hash(("FQ", self.n))

    def __repr__(self):
        return f"FQ({hex(self.n)})"

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def zero(cls):
        return cls(0)


def _asint(v):
    if isinstance(v, FQ):
        return v.n
    if isinstance(v, int):
        return v
    raise TypeError(f"cannot coerce {type(v)!r} into Fq")


class FQP:
    """Element of an extension field Fq[w] / modulus(w)."""

    degree = 0
    modulus_coeffs = ()

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if len(coeffs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients")
        self.coeffs = tuple(c % _Q for c in coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        return type(self)([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return type(self)([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, FQ)):
            k = _asint(other)
            return type(self)([c * k for c in self.coeffs])
        other = self._coerce(other)
        deg = self.degree
        b = [0] * (deg * 2 - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, c in enumerate(other.coeffs):
                    b[i + j] += a * c
        mods = self.modulus_coeffs
        while len(b) > deg:
            exp = len(b) - deg - 1
            top = b.pop()
            if top:
                for i, m in enumerate(mods):
                    if m:
                        b[exp + i] -= top * m
        return type(self)(b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, FQ)):
            return self * FQ(_asint(other)).inv().n
        return self * self._coerce(other).inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative exponent; invert first")
        result = self.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, FQ)):
            return type(self)([_asint(other)] + [0] * (self.degree - 1))
        raise TypeError(f"cannot coerce {type(other)!r}")

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, FQ)):
            return self == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __repr__(self):
        return f"{type(self).__name__}({[hex(c) for c in self.coeffs]})"

    @classmethod
    def one(cls):
        return cls([1] + [0] * (cls.degree - 1))

    @classmethod
    def zero(cls):
        return cls([0] * cls.degree)


class FQ2(FQP):
    """Fq2 = Fq[u] / (u^2 + 1).

    Sums, differences and products of two Fq2 elements reduce their two
    coefficients directly; other operands take the generic FQP path.
    """

    degree = 2
    modulus_coeffs = (1, 0)

    def __add__(self, other):
        if type(other) is not FQ2:
            return FQP.__add__(self, other)
        (a0, a1), (b0, b1) = self.coeffs, other.coeffs
        return _fq2((a0 + b0) % _Q, (a1 + b1) % _Q)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FQ2:
            return FQP.__sub__(self, other)
        (a0, a1), (b0, b1) = self.coeffs, other.coeffs
        return _fq2((a0 - b0) % _Q, (a1 - b1) % _Q)

    def __mul__(self, other):
        if type(other) is not FQ2:
            return FQP.__mul__(self, other)
        # Karatsuba with u^2 = -1: three integer products.
        (a0, a1), (b0, b1) = self.coeffs, other.coeffs
        t0, t1 = a0 * b0, a1 * b1
        return _fq2((t0 - t1) % _Q, ((a0 + a1) * (b0 + b1) - t0 - t1) % _Q)

    __rmul__ = __mul__

    def inv(self):
        # 1/(a + bu) = (a - bu) / (a^2 + b^2).
        a, b = self.coeffs
        k = FQ(a * a + b * b).inv().n
        return FQ2([a * k, -b * k])


def _fq2(c0, c1):
    """An FQ2 from two coefficients already reduced mod q."""
    out = FQ2.__new__(FQ2)
    out.coeffs = (c0, c1)
    return out


class FQ12(FQP):
    """Fq12 = Fq[w] / (w^12 - 2 w^6 + 2); note (w^6 - 1)^2 = -1."""

    degree = 12
    modulus_coeffs = (2, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0)

    def __pow__(self, e):
        # The pairing's final exponentiation takes the chain below; every
        # other power is plain square-and-multiply. perfbench times the
        # final exponentiation by wrapping this method.
        if e != _FINAL_EXP:
            return FQP.__pow__(self, e)
        if not any(self.coeffs):
            return self  # 0^e = 0; the easy part would divide by zero
        return _final_exponentiation(self)

    def conjugate(self):
        """f(-w), which is f^(q^6): it negates the odd coefficients."""
        return FQ12([-c if i % 2 else c for i, c in enumerate(self.coeffs)])

    def frobenius(self):
        """f^q. The coefficients lie in Fq, so only the basis moves:
        (w^i)^q = (w^q)^i, with w^q = gamma w."""
        out = [0] * 12
        for c, row in zip(self.coeffs, _FROBENIUS):
            for j, t in row:
                out[j] += c * t
        return FQ12(out)

    def inv(self):
        # The maps w -> zeta w (zeta^6 = 1) fix the modulus: they are the
        # automorphisms of Fq12 over Fq2 = Fq[w^6]. With f_bar = f(-w),
        # g = f f_bar is even in w, and h = g(zeta w) g(zeta^2 w) scales g's
        # w^(2k) coefficient by BETA^k and BETA^(2k) (zeta^2 = BETA). The
        # norm N = g h = n0 + n6 w^6 lies in Fq2, and 1/f = f_bar h / N.
        f_bar = self.conjugate()
        g = self * f_bar
        h = FQ12([c * s for c, s in zip(g.coeffs, _ZETA_SCALES[0])]) * FQ12(
            [c * s for c, s in zip(g.coeffs, _ZETA_SCALES[1])]
        )
        n = (g * h).coeffs
        # u = w^6 - 1, so n0 + n6 w^6 = (n0 + n6) + n6 u, and back again.
        a, b = FQ2([n[0] + n[6], n[6]]).inv().coeffs
        return f_bar * h * FQ12([a - b, 0, 0, 0, 0, 0, b, 0, 0, 0, 0, 0])


# ---------------------------------------------------------------------------
# Curves: E(Fq): y^2 = x^3 + 4  and  E'(Fq2): y^2 = x^3 + 4(u + 1)
# ---------------------------------------------------------------------------

B1 = FQ(4)
B2 = FQ2([4, 4])

# Standard generators (checked below against the curve equation and order).
G1 = (
    FQ(int(
        "17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac58"
        "6c55e83ff97a1aeffb3af00adb22c6bb", 16)),
    FQ(int(
        "08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3ed"
        "d03cc744a2888ae40caa232946c5e7e1", 16)),
)
G2 = (
    FQ2([
        int("024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d177"
            "0bac0326a805bbefd48056c8c121bdb8", 16),
        int("13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049"
            "334cf11213945d57e5ac7d055d042b7e", 16),
    ]),
    FQ2([
        int("0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c"
            "923ac9cc3baca289e193548608b82801", 16),
        int("0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab"
            "3f370d275cec1da1aaa9075ff05f79be", 16),
    ]),
)


def is_on_curve(pt, b):
    if pt is None:
        return True
    x, y = pt
    return y * y - x * x * x == b


def add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and y1 == y2:
        return double(p1)
    if x1 == x2:
        return None
    m = (y2 - y1) / (x2 - x1)
    x3 = m * m - x1 - x2
    return (x3, m * (x1 - x3) - y1)


def double(pt):
    if pt is None:
        return None
    x, y = pt
    if y == 0 * y:
        return None
    m = (x * x * 3) / (y * 2)
    x3 = m * m - x - x
    return (x3, m * (x - x3) - y)


def neg(pt):
    if pt is None:
        return None
    x, y = pt
    return (x, -y)


def multiply(pt, n):
    """[n]P for an affine P, by a left-to-right ladder in Jacobian
    coordinates with one inversion at the end.

    (X, Y, Z) stands for the affine point (X / Z^2, Y / Z^3), and R = None
    is O. Every step doubles R, and every set bit adds the affine P to it.
    From O, the ladder restarts at P on the next set bit.
    """
    if n < 0:
        pt, n = neg(pt), -n
    if pt is None or n == 0:
        return None
    x, y = pt
    r = start = (x, y, type(x).one())
    for i in range(n.bit_length() - 2, -1, -1):
        if r is not None:
            r = _jacobian_double(r)
        if n >> i & 1:
            r = start if r is None else _jacobian_add_affine(r, x, y)
    if r is None:
        return None
    x3, y3, z3 = r
    zi = z3.inv()
    zi2 = zi * zi
    return (x3 * zi2, y3 * zi2 * zi)


def _jacobian_double(r):
    """2R by "dbl-2009-l" for a = 0 (hyperelliptic.org/EFD,
    g1p/auto-shortw-jacobian-0). Y = 0 would give Z = 0, that is O; but
    E(Fq) and E'(Fq2) have odd order, so no point of either has Y = 0."""
    x1, y1, z1 = r
    a = x1 * x1
    b = y1 * y1
    c = b * b
    d = x1 + b
    d = d * d - a - c
    d = d + d
    e = a + a + a
    x3 = e * e - d - d
    c = c + c
    c = c + c
    c = c + c
    z3 = y1 * z1
    return (x3, e * (d - x3) - c, z3 + z3)


def _jacobian_add_affine(r, x2, y2):
    """R + (x2, y2) by the mixed addition "madd-2007-bl" (same source).
    H = 0 means that R is +-P: double it, or go to O."""
    x1, y1, z1 = r
    z1z1 = z1 * z1
    h = x2 * z1z1 - x1
    s = y2 * z1 * z1z1 - y1
    if h == 0:
        return _jacobian_double(r) if s == 0 else None
    hh = h * h
    i = hh + hh
    i = i + i
    j = h * i
    s = s + s
    v = x1 * i
    x3 = s * s - j - v - v
    y1j = y1 * j
    z3 = z1 + h
    return (x3, s * (v - x3) - y1j - y1j, z3 * z3 - z1z1 - hh)


# ---------------------------------------------------------------------------
# Endomorphisms and subgroup checks
# ---------------------------------------------------------------------------

# sigma(x, y) = (BETA * x, y) is an endomorphism of E. BETA is the cube root
# of unity in Fq for which sigma acts on G1 as multiplication by -x^2; the
# other root, BETA^2, gives x^2 - 1.
BETA = FQ(-PARAM_X**5 + 3 * PARAM_X**4 - 3 * PARAM_X**3 + PARAM_X - 2)

# The factors BETA^k and BETA^(2k) by which FQ12.inv scales the w^(2k)
# coefficient (index i = 2k or 2k + 1) of an even element.
_ZETA_SCALES = [[pow(BETA.n, e * (i // 2), _Q) for i in range(12)] for e in (1, 2)]

# gamma = (1+u)^((q-1)/6) = (w^6)^((q-1)/6), so w^q = gamma w: the
# Frobenius of Fq12 scales w^i by gamma^i, and psi by powers of 1/gamma.
_GAMMA = FQ2([1, 1]) ** ((_Q - 1) // 6)

# psi = untwist, Frobenius, twist on E'(Fq2): conjugate both coordinates,
# then scale them by c1 = 1/gamma^2 and c2 = 1/gamma^3, both powers of
# d = 1/gamma.
_PSI_D = _GAMMA.inv()
_PSI_C1 = _PSI_D * _PSI_D
_PSI_C2 = _PSI_C1 * _PSI_D


def _conj(a):
    return FQ2([a.coeffs[0], -a.coeffs[1]])


def psi(pt):
    """The psi endomorphism of E'(Fq2); on G2 it is multiplication by q,
    which is x mod r."""
    if pt is None:
        return None
    x, y = pt
    return (_conj(x) * _PSI_C1, _conj(y) * _PSI_C2)


def subgroup_check_g1(pt):
    """P is in G1 iff it is on E and sigma(P) == [-x^2]P (Scott, eprint
    2021/1130)."""
    if not is_on_curve(pt, B1):
        return False
    sigma = None if pt is None else (pt[0] * BETA, pt[1])
    return sigma == multiply(multiply(pt, PARAM_X), -PARAM_X)


def subgroup_check_g2(pt):
    """P is in G2 iff it is on E' and psi(P) == [x]P (Scott, eprint
    2021/1130)."""
    return is_on_curve(pt, B2) and psi(pt) == multiply(pt, PARAM_X)


# ---------------------------------------------------------------------------
# Pairing: a Miller loop on the twist and a split final exponentiation
# ---------------------------------------------------------------------------

ATE_LOOP_COUNT = -PARAM_X
# Loop from the bit below the MSB; initializing R = Q consumes the MSB.
_LOG_ATE = ATE_LOOP_COUNT.bit_length() - 2
_FINAL_EXP = (FIELD_MODULUS**12 - 1) // CURVE_ORDER


def _frobenius_table():
    # Row i holds the nonzero coefficients (index, value) of (w^q)^i, where
    # w^q = gamma w = (g0 - g1) w + g1 w^7 for gamma = g0 + g1 u.
    g0, g1 = _GAMMA.coeffs
    w_q = FQ12([0, g0 - g1, 0, 0, 0, 0, 0, g1, 0, 0, 0, 0])
    powers = [FQ12.one()]
    for _ in range(11):
        powers.append(powers[-1] * w_q)
    return [[(j, c) for j, c in enumerate(t.coeffs) if c] for t in powers]


_FROBENIUS = _frobenius_table()


def _miller_step(f, t, s, p):
    """Multiply f by the line through T and S (the tangent when T = S) at
    P, and return it with T + S.

    With T, S on E'(Fq2) and the untwist (x, y) -> (x / w^2, y / w^3), the
    line at P = (xp, yp), times w^3, is (y_T - lam x_T) + lam xp w^2 - yp w^3:
    five nonzero coefficients, at w^0 and w^6, w^2 and w^8, and w^3, so the
    product skips the other seven. The factor w^3 lies in Fq4. A line
    through O and a vertical line lie in Fq6. The final exponentiation sends
    all of these to one, so they are dropped.
    """
    if t is None:
        return f, s
    (x1, y1), (x2, y2) = t, s
    if x1 != x2:
        lam = (y2 - y1) / (x2 - x1)
    elif y1 == y2:
        lam = (x1 * x1 * 3) / (y1 * 2)  # y1 != 0: E'(Fq2) has odd order
    else:
        return f, None
    xp, yp = p
    c0, c1 = (y1 - lam * x1).coeffs
    d0, d1 = (lam * xp).coeffs
    # a + b u sits at w^k as (a - b) w^k + b w^(k+6), since u = w^6 - 1.
    line = FQ12([c0 - c1, 0, d0 - d1, -yp.n, 0, 0, c1, 0, d1, 0, 0, 0])
    x3 = lam * lam - x1 - x2
    return line * f, (x3, lam * (x1 - x3) - y1)


def miller_loop(q, p):
    """The ate Miller function f_{|x|,Q}(P) for Q on E'(Fq2) and P on
    E(Fq), both not O, up to factors in proper subfields of Fq12.

    R stays on the twist in affine coordinates. When R reaches O (Q of
    small order), the steps through O contribute nothing and R restarts
    from Q at the next set bit.
    """
    f = FQ12.one()
    r = q
    for i in range(_LOG_ATE, -1, -1):
        f, r = _miller_step(f * f, r, r, p)
        if ATE_LOOP_COUNT >> i & 1:
            f, r = _miller_step(f, r, q, p)
    return f


def _cyclotomic_square(f):
    """f * f for f in the cyclotomic subgroup (order q^4 - q^2 + 1) of
    Fq12, which the easy part of the final exponentiation lands in; any
    other f gives a wrong value.

    Over Fq2, f = sum of a_k w^k with w^6 = 1 + u and a_k = (c_k + c_{k+6}) +
    c_{k+6} u. Over Fq4 = Fq2[s]/(s^2 - (1 + u)), s = w^3, f = A + B w + C w^2
    with A = a_0 + a_3 s, B = a_1 + a_4 s and C = a_2 + a_5 s, and there
    f^2 = (3A^2 - 2 conj(A)) + (3 s C^2 + 2 conj(B)) w + (3B^2 - 2 conj(C)) w^2,
    where conj(a + b s) = a - b s (Granger-Scott, eprint 2009/565). That is
    three Fq4 squares of three Fq2 squares each, against a dense product's
    144 Fq products.
    """
    c = f.coeffs
    a = [(c[k] + c[k + 6], c[k + 6]) for k in range(6)]
    (t0, t1), (t2, t3), (t4, t5) = (_fq4_square(a[k], a[k + 3]) for k in range(3))
    # s C^2 = (1 + u) t5 + t4 s, and (1 + u)(m + n u) = (m - n) + (m + n) u.
    t = [t0, (t5[0] - t5[1], t5[0] + t5[1]), t2, t1, t4, t3]
    out = [0] * 12
    for k in range(6):
        two = 2 if k % 2 else -2  # -2 conj(A), +2 conj(B) and -2 conj(C)
        re, im = 3 * t[k][0] + two * a[k][0], 3 * t[k][1] + two * a[k][1]
        out[k], out[k + 6] = re - im, im  # re + im u = (re - im) w^k + im w^(k+6)
    return FQ12(out)


def _fq4_square(x, y):
    """(x + y s)^2 = (x^2 + (1 + u) y^2) + 2xy s for x, y in Fq2, given as
    (re, im) integer pairs; returns both parts as such pairs, unreduced."""
    (x0, x1), (y0, y1) = x, y
    xx0, xx1 = (x0 + x1) * (x0 - x1), 2 * x0 * x1
    yy0, yy1 = (y0 + y1) * (y0 - y1), 2 * y0 * y1
    z0, z1 = x0 + y0, x1 + y1
    # 2xy = (x + y)^2 - x^2 - y^2.
    xy0, xy1 = (z0 + z1) * (z0 - z1) - xx0 - yy0, 2 * z0 * z1 - xx1 - yy1
    return (xx0 + yy0 - yy1, xx1 + yy0 + yy1), (xy0, xy1)


def _cyclotomic_pow(f, e):
    """f^e for f in the cyclotomic subgroup and e > 0, left to right."""
    out = f
    for i in range(e.bit_length() - 2, -1, -1):
        out = _cyclotomic_square(out)
        if e >> i & 1:
            out = out * f
    return out


def _pow_x(f):
    # f^x for f in the cyclotomic subgroup, where x < 0 and 1/f = f^(q^6).
    return _cyclotomic_pow(f, ATE_LOOP_COUNT).conjugate()


def _final_exponentiation(f):
    """f^((q^12 - 1)/r), exactly, for f != 0.

    (q^12 - 1)/r = (q^6 - 1)(q^2 + 1) d with d = (q^4 - q^2 + 1)/r. The easy
    part takes one inverse and a q^2-Frobenius, and leaves m in the
    cyclotomic subgroup, where powers of q are Frobenius maps and inverses
    are conjugates. The hard part uses d = H1 (x + q)(x^2 + q^2 - 1) + 1
    with H1 = (x - 1)^2 / 3 (Hayashida-Hayasaka-Teruya, eprint 2020/875).
    """
    m = f.conjugate() * f.inv()
    m = m.frobenius().frobenius() * m
    # m^H1 as a power by (|x| + 1)/3 and one by |x| + 1, since H1 =
    # (|x| + 1)^2 / 3: 28 + 7 set bits, where H1 alone has 48.
    a = _cyclotomic_pow(m, (ATE_LOOP_COUNT + 1) // 3)
    a = _cyclotomic_pow(a, ATE_LOOP_COUNT) * a
    a = _pow_x(a) * a.frobenius()
    a = _pow_x(_pow_x(a)) * a.frobenius().frobenius() * a.conjugate()
    return a * m


def pairing(q, p):
    """e(p, q) with p in G1 (over Fq) and q in G2 (over Fq2); value in GT."""
    if p is not None and not is_on_curve(p, B1):
        raise ValueError("G1 point not on curve")
    if q is not None and not is_on_curve(q, B2):
        raise ValueError("G2 point not on curve")
    if q is None or p is None:
        return FQ12.one()
    return miller_loop(q, p) ** _FINAL_EXP


GT_ONE = FQ12.one()


# ---------------------------------------------------------------------------
# Square roots and quadratic residues
# ---------------------------------------------------------------------------


def sqrt_fq(a: FQ):
    # q = 3 mod 4
    cand = a ** ((_Q + 1) // 4)
    if cand * cand != a:
        raise ValueError("not a square in Fq")
    return cand


def is_square_fq(a: FQ):
    """a is a square in Fq iff a = 0 or its Legendre symbol (a/q) is 1,
    computed as a Jacobi symbol by the binary reciprocity loop."""
    n, m, sign = a.n, _Q, 1
    while n:
        # (2/m) = -1 iff m = 3 or 5 mod 8.
        zeros = (n & -n).bit_length() - 1
        n >>= zeros
        if zeros & 1 and m & 7 in (3, 5):
            sign = -sign
        # Reciprocity for odd n, m: (n/m) = -(m/n) iff both are 3 mod 4.
        if n & m & 3 == 3:
            sign = -sign
        n, m = m % n, n
    return sign == 1  # a = 0 skips the loop, and 0 is a square


def is_square_fq2(a: FQ2):
    # a is a square in Fq2 iff its norm a0^2 + a1^2 is a square in Fq.
    a0, a1 = a.coeffs
    return is_square_fq(FQ(a0 * a0 + a1 * a1))


_INV2 = FQ((_Q + 1) // 2)


def sqrt_fq2(a: FQ2):
    """Square root in Fq2 = Fq[u]/(u^2+1) via the norm trick (q = 3 mod 4)."""
    a0, a1 = FQ(a.coeffs[0]), FQ(a.coeffs[1])
    if a1 == FQ.zero():
        if is_square_fq(a0):
            return FQ2([sqrt_fq(a0).n, 0])
        return FQ2([0, sqrt_fq(-a0).n])
    alpha = sqrt_fq(a0 * a0 + a1 * a1)
    delta = (a0 + alpha) * _INV2
    if not is_square_fq(delta):
        delta = (a0 - alpha) * _INV2
    x0 = sqrt_fq(delta)
    x1 = a1 / (x0 * 2)
    cand = FQ2([x0.n, x1.n])
    if cand * cand != a:
        raise ValueError("not a square in Fq2")
    return cand


def sgn0_fq2(a: FQ2):
    a0, a1 = a.coeffs
    sign0 = a0 % 2
    if a0 != 0:
        return sign0
    return a1 % 2


# ---------------------------------------------------------------------------
# Hash to G2: expand_message_xmd + SvdW map + cofactor clearing
# ---------------------------------------------------------------------------


def expand_message_xmd(msg: bytes, dst: bytes, length: int) -> bytes:
    if len(dst) > 255:
        dst = b"H2C-OVERSIZE-DST-" + hashlib.sha256(dst).digest()
    h = hashlib.sha256
    b_in_bytes = 32
    r_in_bytes = 64
    ell = -(-length // b_in_bytes)
    if ell > 255 or length > 65535:
        raise ValueError("requested expansion too long")
    dst_prime = dst + len(dst).to_bytes(1, "big")
    z_pad = b"\x00" * r_in_bytes
    l_i_b_str = length.to_bytes(2, "big")
    b0 = h(z_pad + msg + l_i_b_str + b"\x00" + dst_prime).digest()
    bvals = [h(b0 + b"\x01" + dst_prime).digest()]
    for i in range(2, ell + 1):
        prev = bvals[-1]
        bvals.append(
            h(bytes(x ^ y for x, y in zip(b0, prev)) + i.to_bytes(1, "big") + dst_prime).digest()
        )
    return b"".join(bvals)[:length]


_H2F_L = 64  # ceil((ceil(log2(q)) + 128) / 8)


def hash_to_field_fq2(msg: bytes, dst: bytes, count: int):
    uniform = expand_message_xmd(msg, dst, count * 2 * _H2F_L)
    out = []
    for i in range(count):
        coeffs = []
        for j in range(2):
            off = _H2F_L * (j + 2 * i)
            coeffs.append(int.from_bytes(uniform[off : off + _H2F_L], "big") % _Q)
        out.append(FQ2(coeffs))
    return out


def _g2_rhs(x: FQ2):
    return x * x * x + B2


def _find_z_svdw():
    # Smallest-in-enumeration-order Z meeting the RFC criteria for SvdW.
    for b in range(8):
        for a in range(8):
            for sa in (1, -1):
                for sb in (1, -1):
                    if a == 0 and b == 0:
                        continue
                    z = FQ2([sa * a, sb * b])
                    gz = _g2_rhs(z)
                    if gz == FQ2.zero():
                        continue
                    h_val = -(z * z * 3) / (gz * 4)
                    if h_val == FQ2.zero() or not is_square_fq2(h_val):
                        continue
                    if is_square_fq2(gz) or is_square_fq2(_g2_rhs(-z / 2)):
                        return z
    raise RuntimeError("no SvdW Z found")


_SVDW_Z = _find_z_svdw()
_SVDW_C1 = _g2_rhs(_SVDW_Z)
_SVDW_C2 = -_SVDW_Z / 2
_c3 = sqrt_fq2(-_SVDW_C1 * (_SVDW_Z * _SVDW_Z * 3))
if sgn0_fq2(_c3) == 1:
    _c3 = -_c3
_SVDW_C3 = _c3
_SVDW_C4 = (-_SVDW_C1 * 4) / (_SVDW_Z * _SVDW_Z * 3)


def _inv0(a: FQ2):
    if a == FQ2.zero():
        return FQ2.zero()
    return a.inv()


def map_to_curve_g2(u: FQ2):
    """Shallue-van de Woestijne map onto E'(Fq2) (full group, not G2)."""
    tv1 = u * u * _SVDW_C1
    tv2 = FQ2.one() + tv1
    tv1 = FQ2.one() - tv1
    tv3 = _inv0(tv1 * tv2)
    tv4 = u * tv1 * tv3 * _SVDW_C3
    x1 = _SVDW_C2 - tv4
    gx1 = _g2_rhs(x1)
    e1 = is_square_fq2(gx1)
    x2 = _SVDW_C2 + tv4
    gx2 = _g2_rhs(x2)
    e2 = is_square_fq2(gx2) and not e1
    x3 = (tv2 * tv2 * tv3) ** 2 * _SVDW_C4 + _SVDW_Z
    if e1:
        x = x1
    elif e2:
        x = x2
    else:
        x = x3
    y = sqrt_fq2(_g2_rhs(x))
    if sgn0_fq2(u) != sgn0_fq2(y):
        y = -y
    return (x, y)


def clear_cofactor_g2(pt):
    """[h_eff]P with h_eff = 3(x^2 - 1) h2, the clearing of RFC 9380
    section 8.8.2, as [x^2 - x - 1]P + [x - 1]psi(P) + psi^2(2P)
    (Budroni-Pintore, eprint 2017/419)."""
    t1 = multiply(pt, PARAM_X)
    t2 = psi(pt)
    t3 = add(psi(psi(double(pt))), neg(t2))
    t2 = multiply(add(t1, t2), PARAM_X)
    return add(add(t3, t2), neg(add(t1, pt)))


def hash_to_g2(msg: bytes, dst: bytes):
    u0, u1 = hash_to_field_fq2(msg, dst, 2)
    q0 = map_to_curve_g2(u0)
    q1 = map_to_curve_g2(u1)
    return clear_cofactor_g2(add(q0, q1))


# ---------------------------------------------------------------------------
# Compressed serialization (ZCash convention)
# ---------------------------------------------------------------------------

_C_FLAG = 0x80
_B_FLAG = 0x40
_A_FLAG = 0x20
_HALF_Q = (_Q - 1) // 2


def compress_g1(pt) -> bytes:
    if pt is None:
        return bytes([_C_FLAG | _B_FLAG]) + b"\x00" * 47
    x, y = pt
    flags = _C_FLAG | (_A_FLAG if y.n > _HALF_Q else 0)
    raw = x.n.to_bytes(48, "big")
    return bytes([raw[0] | flags]) + raw[1:]


def decompress_g1(data: bytes):
    if len(data) != 48:
        raise ValueError("G1 compressed encoding must be 48 bytes")
    flags = data[0]
    if not flags & _C_FLAG:
        raise ValueError("compression flag not set")
    if flags & _B_FLAG:
        if flags & _A_FLAG or any(data[1:]) or data[0] & 0x1F:
            raise ValueError("malformed infinity encoding")
        return None
    x_int = int.from_bytes(bytes([data[0] & 0x1F]) + data[1:], "big")
    if x_int >= _Q:
        raise ValueError("x coordinate out of range")
    x = FQ(x_int)
    try:
        y = sqrt_fq(_g1_rhs(x))
    except ValueError:
        raise ValueError("point not on curve") from None
    if (y.n > _HALF_Q) != bool(flags & _A_FLAG):
        y = -y
    return (x, y)


def _g1_rhs(x: FQ):
    return x * x * x + B1


def _g2_y_is_largest(y: FQ2) -> bool:
    y0, y1 = y.coeffs
    if y1 != 0:
        return y1 > _HALF_Q
    return y0 > _HALF_Q


def compress_g2(pt) -> bytes:
    if pt is None:
        return bytes([_C_FLAG | _B_FLAG]) + b"\x00" * 95
    x, y = pt
    flags = _C_FLAG | (_A_FLAG if _g2_y_is_largest(y) else 0)
    raw = x.coeffs[1].to_bytes(48, "big") + x.coeffs[0].to_bytes(48, "big")
    return bytes([raw[0] | flags]) + raw[1:]


def decompress_g2(data: bytes):
    if len(data) != 96:
        raise ValueError("G2 compressed encoding must be 96 bytes")
    flags = data[0]
    if not flags & _C_FLAG:
        raise ValueError("compression flag not set")
    if flags & _B_FLAG:
        if flags & _A_FLAG or any(data[1:]) or data[0] & 0x1F:
            raise ValueError("malformed infinity encoding")
        return None
    x1 = int.from_bytes(bytes([data[0] & 0x1F]) + data[1:48], "big")
    x0 = int.from_bytes(data[48:], "big")
    if x0 >= _Q or x1 >= _Q:
        raise ValueError("x coordinate out of range")
    x = FQ2([x0, x1])
    try:
        y = sqrt_fq2(_g2_rhs(x))
    except ValueError:
        raise ValueError("point not on curve") from None
    if _g2_y_is_largest(y) != bool(flags & _A_FLAG):
        y = -y
    return (x, y)
