"""Backend curve and pairing arithmetic."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beaconlab import bls
from beaconlab import bls12381 as b
from beaconlab.suites import BLS_SIG_DST, Bls12381Suite


def test_derived_parameters_match_standard_constants():
    x = b.PARAM_X
    assert b.CURVE_ORDER == x**4 - x**2 + 1
    assert b.FIELD_MODULUS == ((x - 1) ** 2 * b.CURVE_ORDER) // 3 + x
    assert b.CURVE_ORDER.bit_length() == 255
    assert b.FIELD_MODULUS.bit_length() == 381


def test_generators_on_curve_and_prime_order():
    assert b.is_on_curve(b.G1, b.B1)
    assert b.is_on_curve(b.G2, b.B2)
    assert b.multiply(b.G1, b.CURVE_ORDER) is None
    assert b.multiply(b.G2, b.CURVE_ORDER) is None
    assert b.subgroup_check_g1(b.G1)
    assert b.subgroup_check_g2(b.G2)


def test_group_law_consistency():
    p2 = b.add(b.G1, b.G1)
    assert p2 == b.double(b.G1)
    assert p2 == b.multiply(b.G1, 2)
    assert b.add(p2, b.neg(b.G1)) == b.G1
    assert b.add(b.G1, None) == b.G1


def test_pairing_bilinearity():
    e = b.pairing(b.G2, b.G1)
    e_2_3 = b.pairing(b.multiply(b.G2, 3), b.multiply(b.G1, 2))
    assert e_2_3 == e**6
    assert e != b.GT_ONE  # nondegenerate


def test_pairing_inverse_in_second_argument():
    e = b.pairing(b.G2, b.G1)
    e_neg = b.pairing(b.neg(b.G2), b.G1)
    assert e * e_neg == b.GT_ONE


def test_expand_message_xmd_lengths_and_determinism():
    out = b.expand_message_xmd(b"msg", b"DST", 96)
    assert len(out) == 96
    assert out == b.expand_message_xmd(b"msg", b"DST", 96)
    assert out != b.expand_message_xmd(b"msg", b"DST2", 96)
    assert out[:32] != b.expand_message_xmd(b"msg2", b"DST", 96)[:32]


def test_expand_message_xmd_rejects_oversize():
    with pytest.raises(ValueError):
        b.expand_message_xmd(b"m", b"D", 256 * 32)


def test_hash_to_g2_lands_in_subgroup():
    p = b.hash_to_g2(b"sample message", b"TEST-DST")
    assert b.is_on_curve(p, b.B2)
    assert b.subgroup_check_g2(p)


def test_hash_to_g2_separates_dst_and_message():
    p1 = b.hash_to_g2(b"m", b"DST-A")
    p2 = b.hash_to_g2(b"m", b"DST-B")
    p3 = b.hash_to_g2(b"n", b"DST-A")
    assert p1 != p2 and p1 != p3
    assert p1 == b.hash_to_g2(b"m", b"DST-A")


def test_g1_compression_roundtrip():
    for k in (1, 2, 3, 7, 12345):
        p = b.multiply(b.G1, k)
        data = b.compress_g1(p)
        assert len(data) == 48
        assert data[0] & 0x80
        assert b.decompress_g1(data) == p
    inf = b.compress_g1(None)
    assert inf[0] == 0xC0 and b.decompress_g1(inf) is None


def test_g2_compression_roundtrip():
    for k in (1, 2, 5, 999):
        p = b.multiply(b.G2, k)
        data = b.compress_g2(p)
        assert len(data) == 96
        assert b.decompress_g2(data) == p
    inf = b.compress_g2(None)
    assert b.decompress_g2(inf) is None


def test_decompress_rejects_non_curve_x():
    bad = bytearray(b.compress_g1(b.G1))
    # Walk x values until one is off-curve; flag bits stay intact.
    for delta in range(1, 20):
        bad[-1] = (bad[-1] + 1) % 256
        try:
            b.decompress_g1(bytes(bad))
        except ValueError:
            return
    pytest.fail("no off-curve x found near the generator")


# ---------------------------------------------------------------------------
# Scalar multiplication: the Jacobian ladder against the affine
# double-and-add, which pays one inversion per add or double.
# ---------------------------------------------------------------------------


def affine_multiply(pt, n):
    """The definition of [n]P, and the oracle for multiply."""
    if n < 0:
        return affine_multiply(b.neg(pt), -n)
    result, addend = None, pt
    while n:
        if n & 1:
            result = b.add(result, addend)
        addend = b.double(addend)
        n >>= 1
    return result


def _ladder_point(suite, name):
    if name.startswith("torsion-"):
        return suite.small_order_g2(int(name[len("torsion-"):])).value
    if name == "map-output":  # on the twist, off the subgroup
        return b.map_to_curve_g2(b.hash_to_field_fq2(b"ladder", b"TEST-DST", 1)[0])
    return {"G1": b.G1, "G2": b.G2, "O": None}[name]


_R = b.CURVE_ORDER
_SCALARS = st.one_of(
    st.integers(-40, 40),
    st.integers(-(2**300), 2**300),
    st.sampled_from([_R - 1, _R, _R + 1, 2 * _R + 13, -_R - 5, b.PARAM_X]),
)


# On the order-13 point, 13 = 0b1101 ends at [12]T + T = O (H = 0 with R = -T),
# 15 = 0b1111 reaches [14]T + T = 2T (H = 0 with R = T), and 27 restarts at T
# after O.
@pytest.mark.parametrize("name", ["G1", "G2", "O", "torsion-13", "torsion-23", "map-output"])
@settings(max_examples=25, deadline=None)
@given(n=_SCALARS)
@example(n=0)
@example(n=13)
@example(n=15)
@example(n=23)
@example(n=27)
@example(n=-_R)
def test_multiply_matches_the_affine_double_and_add(production, name, n):
    pt = _ladder_point(production, name)
    result = b.multiply(pt, n)
    assert result == affine_multiply(pt, n)
    assert result is None or b.is_on_curve(result, b.B1 if name == "G1" else b.B2)


# ---------------------------------------------------------------------------
# The psi and sigma endomorphisms, the fast subgroup checks and cofactor
# clearing, each against its definition by r- or h_eff-multiplication.
# ---------------------------------------------------------------------------

# The prime factors of h1.
G1_TORSION_PRIMES = (3, 11, 10177, 859267, 52437899)


def _in_g1_oracle(pt):
    return b.is_on_curve(pt, b.B1) and b.multiply(pt, b.CURVE_ORDER) is None


def _in_g2_oracle(pt):
    return b.is_on_curve(pt, b.B2) and b.multiply(pt, b.CURVE_ORDER) is None


def _raw_g1_point(start=1):
    """The point of E(Fq) with the smallest x >= start: not in G1 unless by
    a 1-in-h1 chance."""
    x = b.FQ(start)
    while not b.is_square_fq(x * x * x + b.B1):
        x = x + 1
    return (x, b.sqrt_fq(x * x * x + b.B1))


def _g1_torsion(p):
    """A point of order p on E(Fq), which has order r * h1: project a curve
    point by that order with every factor p removed, then multiply by p
    until one more step would reach the identity."""
    n = b.CURVE_ORDER * b.H1
    while n % p == 0:
        n //= p
    start = 1
    while True:
        pt = _raw_g1_point(start)
        t = b.multiply(pt, n)
        if t is not None:
            while b.multiply(t, p) is not None:
                t = b.multiply(t, p)
            return t
        start = pt[0].n + 1


@pytest.fixture(scope="module")
def raw_map_points():
    u0, u1 = b.hash_to_field_fq2(b"raw map outputs", b"TEST-DST", 2)
    return b.map_to_curve_g2(u0), b.map_to_curve_g2(u1)


def test_psi_is_an_endomorphism_of_the_twist(raw_map_points):
    p, q = raw_map_points
    assert b.psi(None) is None
    for pt in (p, q, b.add(p, q), b.G2):
        assert b.is_on_curve(b.psi(pt), b.B2)
    assert b.psi(b.add(p, q)) == b.add(b.psi(p), b.psi(q))
    assert b.psi(b.double(p)) == b.double(b.psi(p))
    assert b.psi(b.neg(q)) == b.neg(b.psi(q))


def test_psi_on_g2_is_multiplication_by_q():
    assert b.psi(b.G2) == b.multiply(b.G2, b.FIELD_MODULUS % b.CURVE_ORDER)


def test_sigma_on_g1_is_multiplication_by_minus_x_squared():
    lam = -(b.PARAM_X**2)
    assert b.BETA != 1 and b.BETA**3 == 1
    assert (lam * lam + lam + 1) % b.CURVE_ORDER == 0
    assert (b.G1[0] * b.BETA, b.G1[1]) == b.multiply(b.G1, lam % b.CURVE_ORDER)


# The generators are covered by test_generators_on_curve_and_prime_order.
def test_fast_g2_check_matches_oracle_off_the_torsion(raw_map_points):
    for pt in (None, b.hash_to_g2(b"hashed point", b"TEST-DST"), *raw_map_points):
        assert b.subgroup_check_g2(pt) == _in_g2_oracle(pt)
    assert not b.subgroup_check_g2(raw_map_points[0])


def test_fast_g1_check_matches_oracle_off_the_torsion():
    raw = _raw_g1_point()
    for pt in (None, b.multiply(b.G1, 0xC0FFEE), raw):
        assert b.subgroup_check_g1(pt) == _in_g1_oracle(pt)
    assert not b.subgroup_check_g1(raw)


@pytest.mark.parametrize("p", Bls12381Suite.G2_TORSION_PRIMES)
def test_fast_g2_check_rejects_torsion(production, p):
    t = production.small_order_g2(p).value
    assert b.multiply(t, p) is None
    shifted = b.add(b.G2, t)
    for pt in (t, shifted):
        assert b.subgroup_check_g2(pt) is _in_g2_oracle(pt) is False
    assert b.clear_cofactor_g2(t) is None


@pytest.mark.parametrize("p", G1_TORSION_PRIMES)
def test_fast_g1_check_rejects_torsion(p):
    t = _g1_torsion(p)
    assert t is not None and b.multiply(t, p) is None
    shifted = b.add(b.G1, t)
    for pt in (t, shifted):
        assert b.subgroup_check_g1(pt) is _in_g1_oracle(pt) is False


def test_clear_cofactor_g2_is_multiplication_by_h_eff(raw_map_points):
    p = raw_map_points[0]
    h_eff = 3 * (b.PARAM_X**2 - 1) * b.H2
    cleared = b.clear_cofactor_g2(p)
    assert cleared is not None
    assert cleared == b.multiply(p, h_eff)
    assert _in_g2_oracle(cleared)


def test_pairing_goes_through_the_traced_fq12_hooks(monkeypatch):
    """perfbench's traced run counts Fq12 products by patching FQ12.__mul__
    and times the final exponentiation by patching FQ12.__pow__ for the
    exponent (q^12 - 1)/r, so a pairing must make exactly one such call and
    multiply through FQ12.__mul__ both inside and outside it."""
    power, mul = b.FQ12.__pow__, b.FQ12.__mul__
    final_exp = (b.FIELD_MODULUS**12 - 1) // b.CURVE_ORDER
    finals, products, inside = [0], [0, 0], [0]

    def counting_pow(x, e):
        final = e == final_exp
        finals[0] += final
        inside[0] += final
        try:
            return power(x, e)
        finally:
            inside[0] -= final

    def counting_mul(x, y):
        products[inside[0] > 0] += 1
        return mul(x, y)

    monkeypatch.setattr(b.FQ12, "__pow__", counting_pow)
    monkeypatch.setattr(b.FQ12, "__mul__", counting_mul)
    b.pairing(b.G2, b.G1)
    assert finals[0] == 1
    # The Miller loop squares f at every step, outside the final power.
    assert products[False] >= 2 * b.ATE_LOOP_COUNT.bit_length() - 2
    assert products[True] >= 1


def test_verification_calls_the_traced_pairing(production, monkeypatch):
    """perfbench's traced run spans bls12381.pairing: a production
    core_verify pairs twice and a two-signer aggregate_verify three times."""
    pairing, calls = b.pairing, [0]

    def counting_pairing(q, p):
        calls[0] += 1
        return pairing(q, p)

    sks = [bls.keygen(b"pairing-span-%d" % i + b"\x00" * 18, suite=production) for i in (0, 1)]
    pks = [bls.sk_to_pk(sk) for sk in sks]
    msgs = [b"first", b"second"]
    sigs = [bls.sign(sk, m) for sk, m in zip(sks, msgs)]
    monkeypatch.setattr(b, "pairing", counting_pairing)
    assert bls.core_verify(pks[0], msgs[0], sigs[0])
    assert calls[0] == 2
    calls[0] = 0
    assert bls.aggregate_verify(pks, msgs, bls.aggregate(sigs))
    assert calls[0] == 3


# ---------------------------------------------------------------------------
# The definitional pairing, oracle for the fast one: the Miller loop on
# E(Fq12) through the untwisted G2 point, and the final exponentiation as
# one square-and-multiply power.
# ---------------------------------------------------------------------------

_W = b.FQ12([0, 1] + [0] * 10)
_W2 = _W * _W
_W3 = _W2 * _W


def twist(pt):
    """Map a point of E'(Fq2) into E(Fq12)."""
    if pt is None:
        return None
    x, y = pt
    # Embed a + b*u as (a - b) + b * w^6, since u = w^6 - 1.
    xc = [x.coeffs[0] - x.coeffs[1], x.coeffs[1]]
    yc = [y.coeffs[0] - y.coeffs[1], y.coeffs[1]]
    nx = b.FQ12([xc[0]] + [0] * 5 + [xc[1]] + [0] * 5)
    ny = b.FQ12([yc[0]] + [0] * 5 + [yc[1]] + [0] * 5)
    # M-twist with w^6 = 1 + u: untwist by dividing out w^2 and w^3.
    return (nx / _W2, ny / _W3)


def cast_g1_to_fq12(pt):
    if pt is None:
        return None
    x, y = pt
    return (b.FQ12([x.n] + [0] * 11), b.FQ12([y.n] + [0] * 11))


def _linefunc(p1, p2, t):
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        m = (y2 - y1) / (x2 - x1)
        return m * (xt - x1) - (yt - y1)
    if y1 == y2:
        m = (x1 * x1 * 3) / (y1 * 2)
        return m * (xt - x1) - (yt - y1)
    return xt - x1


def oracle_miller_loop(q, p):
    """f_{|x|,Q}(P) on E(Fq12), lines and verticals included; it cannot
    step through O, so Q must not reach it along the loop."""
    if q is None or p is None:
        return b.FQ12.one()
    q_tw, p_cast = twist(q), cast_g1_to_fq12(p)
    r = q_tw
    f = b.FQ12.one()
    for i in range(b._LOG_ATE, -1, -1):
        f = f * f * _linefunc(r, r, p_cast)
        r = b.double(r)
        if b.ATE_LOOP_COUNT & (2**i):
            f = f * _linefunc(r, q_tw, p_cast)
            r = b.add(r, q_tw)
    return f


def _random_fq12(seed):
    rnd = random.Random(seed)
    return b.FQ12([rnd.randrange(b.FIELD_MODULUS) for _ in range(12)])


def test_frobenius_and_conjugate_are_powers_of_q():
    f = _random_fq12(1)
    q = b.FIELD_MODULUS
    assert f.frobenius() == b.FQP.__pow__(f, q)
    assert f.conjugate() == b.FQP.__pow__(f, q**6)


def test_final_exponentiation_is_the_full_power():
    for seed in (2, 3):  # arbitrary, so not in the cyclotomic subgroup
        f = _random_fq12(seed)
        assert f**b._FINAL_EXP == b.FQP.__pow__(f, b._FINAL_EXP)
    zero = b.FQ12.zero()
    assert zero**b._FINAL_EXP == zero
    assert b.FQ12.one() ** b._FINAL_EXP == b.FQ12.one()


def _easy_part(f):
    """f^((q^6 - 1)(q^2 + 1)), the first step of the final exponentiation."""
    m = f.conjugate() * f.inv()
    return m.frobenius().frobenius() * m


def _is_cyclotomic(m):
    """m^(q^4 - q^2 + 1) == 1, checked as m^(q^4) m == m^(q^2)."""
    m2 = m.frobenius().frobenius()
    return m2.frobenius().frobenius() * m == m2


@pytest.mark.parametrize(
    "m",
    [
        pytest.param(lambda: _easy_part(_random_fq12(4)), id="easy-part-4"),
        pytest.param(lambda: _easy_part(_random_fq12(5)), id="easy-part-5"),
        pytest.param(b.FQ12.one, id="one"),
        pytest.param(lambda: b.pairing(b.G2, b.G1), id="pairing-value"),
    ],
)
def test_cyclotomic_square_is_the_square_in_the_cyclotomic_subgroup(m):
    m = m()
    assert _is_cyclotomic(m)
    assert b._cyclotomic_square(m) == m * m


def test_cyclotomic_square_is_wrong_off_the_cyclotomic_subgroup():
    # Why the hard part may square this way only after the easy part.
    f = _random_fq12(6)
    assert not _is_cyclotomic(f)
    assert b._cyclotomic_square(f) != f * f


def test_exact_field_operation_counts(monkeypatch):
    """Dense Fq12 products in one final exponentiation: 7 in the easy part
    (5 of them in FQ12.inv); in the hard part 27 for the set bits of
    (|x| + 1)/3 after the first, 5 for each of the four powers by |x|, 1
    more for the power by |x| + 1 and 4 combining the powers. The squares
    of the hard part are cyclotomic and bypass FQ12.__mul__. Fq
    inversions in one hash_to_g2: 1 in each SvdW map's inv0 and 1 in its
    square root, 1 adding the two map outputs, 2 in the ladders and 6 in the
    affine steps of cofactor clearing."""
    calls = {"mul": 0, "inv": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(b.FQ12, "__mul__", counted("mul", b.FQ12.__mul__))
    monkeypatch.setattr(b.FQ, "inv", counted("inv", b.FQ.inv))
    f = b.miller_loop(b.G2, b.G1)
    calls["mul"] = 0
    f**b._FINAL_EXP
    assert calls["mul"] == 59
    calls["inv"] = 0
    b.hash_to_g2(b"abc", BLS_SIG_DST)
    assert calls["inv"] == 13


def _pairing_inputs():
    """(id, inputs) pairs; inputs maps the production suite to (Q, P)."""
    rnd = random.Random(13)
    cases = []
    for i in range(3):
        k, m = rnd.randrange(1, b.CURVE_ORDER), rnd.randrange(1, b.CURVE_ORDER)
        cases.append(
            (f"random-{i}", lambda s, k=k, m=m: (b.multiply(b.G2, k), b.multiply(b.G1, m)))
        )
    cases.append(("g2-identity", lambda s: (None, b.G1)))
    cases.append(("g1-identity", lambda s: (b.G2, None)))
    for p in Bls12381Suite.G2_TORSION_PRIMES:
        cases.append(
            (f"g2-plus-{p}", lambda s, p=p: (b.add(b.G2, s.small_order_g2(p).value), b.G1))
        )
    # Alone, the order-13 point reaches O, which the oracle cannot step through.
    for p in Bls12381Suite.G2_TORSION_PRIMES[1:]:
        cases.append((f"torsion-{p}", lambda s, p=p: (s.small_order_g2(p).value, b.G1)))
    return [pytest.param(inputs, id=name) for name, inputs in cases]


@pytest.mark.parametrize("inputs", _pairing_inputs())
def test_pairing_matches_the_e_fq12_oracle(production, inputs):
    q, p = inputs(production)
    assert b.pairing(q, p) == oracle_miller_loop(q, p) ** b._FINAL_EXP


def test_pairing_steps_through_o_on_the_order_13_point(production):
    # R = [k]Q for each leading-bit prefix k of |x|; one of them is 0 mod 13.
    prefixes = [b.ATE_LOOP_COUNT >> i for i in range(b._LOG_ATE + 1)]
    assert any(k % 13 == 0 for k in prefixes)
    e = b.pairing(production.small_order_g2(13).value, b.G1)
    assert isinstance(e, b.FQ12) and e != b.FQ12.zero()
    assert e**b.CURVE_ORDER == b.GT_ONE
