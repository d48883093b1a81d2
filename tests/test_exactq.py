"""Exact arithmetic kernel: canonical forms, field laws, substitutions."""

import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qeuler.exactq import (
    QPoly,
    QRatFn,
    XPoly,
    _cyclotomic_scale,
    _divisors,
    _int_poly_gcd,
    _ireverse,
    _ishift_add,
    _ishift_div,
    _itrim,
    _iunpack,
    cyclotomic,
    one_plus_q_power_factors,
    q_integer,
    qpoly_gcd,
    signed_terms,
)

ONE = QRatFn.one()
Q = QRatFn.q()


def ratfn(num, den=(1,)):
    return QRatFn(QPoly(num), QPoly(den))


# ---------------------------------------------------------------------------
# QPoly
# ---------------------------------------------------------------------------

def test_qpoly_trims_trailing_zeros():
    p = QPoly((1, 2, 0, 0))
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert QPoly((0, 0)).is_zero
    assert QPoly(()).degree == -1


def test_qpoly_divmod_roundtrip():
    a = QPoly((1, 0, -2, 0, 1))
    b = QPoly((1, 1))
    quot, rem = divmod(a, b)
    assert quot * b + rem == a
    assert rem.degree < b.degree


def test_qpoly_gcd_known_factor():
    f = QPoly((1, 1)) * QPoly((1, 0, 1))
    g = QPoly((1, 1)) * QPoly((2, 3))
    assert qpoly_gcd(f, g) == QPoly((1, 1))
    assert qpoly_gcd(f, QPoly.zero()) == f.monic()


def _euclid_gcd(a, b):
    # reference: plain monic Euclid over Fractions
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def test_qpoly_gcd_matches_euclid_reference():
    import random

    rng = random.Random(5)
    for _ in range(150):
        def rand():
            return QPoly(
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
            )
        h = rand()
        a, b = rand() * h, rand() * h  # guarantee a nontrivial common factor sometimes
        if a.is_zero or b.is_zero:
            continue
        assert qpoly_gcd(a, b) == _euclid_gcd(a, b)


def test_q_integer_values():
    assert q_integer(0).is_zero  # empty sum
    assert q_integer(2) == QPoly((1, 1))
    assert q_integer(5).eval(1) == 5
    with pytest.raises(ValueError):
        q_integer(-1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: cyclotomic(0), ValueError, "cyclotomic index must be >= 1"),
    (lambda: one_plus_q_power_factors(0), ValueError, "exponent must be >= 1"),
    (lambda: QPoly((1, 1)) ** -1, ValueError, "negative power of a QPoly"),
    (lambda: divmod(QPoly((1,)), QPoly()), ZeroDivisionError, "polynomial division by zero"),
    (lambda: QPoly((1, 0, 1)).divexact(QPoly((1, 1))), ArithmeticError, "inexact"),
], ids=["cyclotomic", "one_plus_q_power", "negative_power", "divmod_by_zero", "divexact"])
def test_kernel_rejects_invalid_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_cyclotomic_basics():
    assert cyclotomic(1) == QPoly((-1, 1))
    assert cyclotomic(2) == QPoly((1, 1))
    assert cyclotomic(4) == QPoly((1, 0, 1))
    assert cyclotomic(6) == QPoly((1, -1, 1))
    # 1 + q^m is the product of its cyclotomic factors
    for m in (1, 2, 3, 4, 6, 7, 12):
        prod = QPoly.one()
        for d in one_plus_q_power_factors(m):
            prod = prod * cyclotomic(d)
        assert prod == QPoly((1,) + (0,) * (m - 1) + (1,))


def test_cyclotomic_product_over_divisors():
    # the defining identity q^n - 1 = prod_{d | n} Phi_d, checked for every n the tables reach
    for n in range(1, 200):
        prod = QPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == QPoly((-1,) + (0,) * (n - 1) + (1,)), n


ints = st.lists(st.integers(-50, 50), max_size=12)
wide_ints = st.lists(st.integers(-(2**200), 2**200), max_size=12)


def _shift_add_loop(cs, m):
    """Reference: cs * (1 - q^m), one coefficient at a time."""
    out = cs + [0] * m
    for i, a in enumerate(cs):
        out[i + m] -= a
    return out


def _shift_div_loop(cs, m):
    """Reference: cs / (1 - q^m), one coefficient at a time; None when it is not exact."""
    out = list(cs)
    for i in range(m, len(out)):
        out[i] += out[i - m]
    top = max(len(out) - m, 0)
    return None if any(out[top:]) else out[:top]


def _times_one_plus(cs, m):
    """cs * (1 + q^m), the factor the oracles build the moments and weighted sides from."""
    out = cs + [0] * m
    out[m:] = map(add, out[m:], cs)
    return out


def _over_one_plus(cs, m):
    """cs / (1 + q^m) = cs (1 - q^m) / (1 - q^(2m)); raises ArithmeticError if it is not exact."""
    return _ishift_div(_ishift_add(cs, m), 2 * m)


@settings(max_examples=200, deadline=None)
@given(st.one_of(ints, wide_ints), st.integers(1, 16), ints)
@example([], 3, [1])
@example([2**200 - 1, -(2**199)], 5, [0, 0, 0, 0, 7])
def test_ishift_div_inverts_ishift_add(a, m, low):
    # the slice kernels against the coefficient loops, m >= len(a) included
    b = _ishift_add(a, m)
    assert b == _shift_add_loop(a, m)
    assert _ishift_div(b, m) == _shift_div_loop(b, m) == a
    assert _over_one_plus(_times_one_plus(a, m), m) == a  # the oracles' 1 + q^m
    # adding a nonzero remainder of degree < m leaves a non-multiple of 1 - q^m
    low = low[:m]
    if any(low):
        for i, r in enumerate(low):
            b[i] += r
        assert _shift_div_loop(b, m) is None
        with pytest.raises(ArithmeticError):
            _ishift_div(b, m)


def _ipack(cs, b):
    """The packing oracle: cs at q = 2^b, by divide-and-conquer shifts and adds."""

    def pack(lo, hi):
        if hi - lo == 1:
            return cs[lo]
        mid = (lo + hi) // 2
        return pack(lo, mid) + (pack(mid, hi) << (b * (mid - lo)))

    return pack(0, len(cs)) if cs else 0


coefficients_200 = st.lists(st.integers(-(2**200) + 1, 2**200 - 1), max_size=12)


@settings(max_examples=200, deadline=None)
@given(coefficients_200, st.integers(0, 3))
@example([2**200 - 1, -(2**200) + 1, 0, 5, 0], 0)
@example([], 0)
def test_iunpack_inverts_ipack(cs, extra):
    # 200-bit coefficients at b = 208, the least multiple of 8 with 2^(b-1) > 2^200, and above
    b = 208 + 8 * extra
    assert _iunpack(_ipack(cs, b), b) == _itrim(list(cs))


@settings(max_examples=200, deadline=None)
@given(coefficients_200, st.integers(0, 3), st.integers(0, 3), st.integers(1, 2**200 - 1),
       st.booleans())
@example([2**200 - 1, -(2**200) + 1, 0, 5, 0], 0, 0, 1, False)
@example([2**200 - 1, -(2**200) + 1, 0, 5, 0], 0, 0, 1, True)
@example([-(2**200) + 1] * 3, 0, 1, 2**200 - 1, True)
@example([], 0, 0, 1, True)
def test_ireverse_reverses_the_digits(cs, extra, spare, top, negative):
    # cs's digits at b >= 208 reversed into d >= len(cs) places, zeros first
    b, d = 208 + 8 * extra, len(cs) + spare
    value = _ipack(cs, b)
    assert _ireverse(value, b, d) == _ipack((cs + [0] * (d - len(cs)))[::-1], b)
    assert _ireverse(_ireverse(value, b, d), b, d) == value
    # a nonzero coefficient above the d places, of either sign, does not fit
    longer = cs + [0] * spare + [-top if negative else top]
    with pytest.raises(ArithmeticError, match=f"more than {d} coefficients"):
        _ireverse(_ipack(longer, b), b, d)


def test_iunpack_needs_every_coefficient_below_half_the_radix():
    # 2^(b-1) at q^0 is the digit -2^(b-1) plus a carry into q^1: the same int
    assert _iunpack(_ipack([1 << 15], 16), 16) == [-(1 << 15), 1]


def test_divisors_match_the_scan():
    for n in range(1, 500):
        assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    assert one_plus_q_power_factors(100000001) == (2, 34, 11764706, 200000002)


def cyclotomic_product(exps):
    """prod Phi_d^exps[d], multiplied out densely."""
    prod = QPoly.one()
    for d, k in exps.items():
        for _ in range(k):
            prod = prod * cyclotomic(d)
    return prod


cyclotomic_exps = st.dictionaries(st.integers(1, 24), st.integers(0, 3), max_size=4)


@settings(max_examples=100, deadline=None)
@given(ints, cyclotomic_exps, cyclotomic_exps)
@example([3, -1, 2], {1: 2, 2: 1}, {1: 1, 6: 1})
@example([5], {}, {1: 3})
def test_cyclotomic_scale_matches_products_of_cyclotomic(cs, a, b):
    # cs * prod Phi^a, rescaled by exponents b - a of either sign, is cs * prod Phi^b
    num = [int(c) for c in (QPoly(cs) * cyclotomic_product(a)).coeffs]
    diff = {d: b.get(d, 0) - a.get(d, 0) for d in a.keys() | b.keys()}
    assert QPoly(_cyclotomic_scale(num, diff)) == QPoly(cs) * cyclotomic_product(b)
    assert QPoly(_cyclotomic_scale(num, {d: -k for d, k in a.items()})) == QPoly(cs)


@settings(max_examples=100, deadline=None)
@given(ints, st.integers(1, 24), st.integers(1, 3), ints)
@example([2, 1], 1, 1, [4])
def test_cyclotomic_scale_rejects_a_non_multiple(cs, d, k, low):
    # num = cs * Phi_d^k + low with 0 != low of degree < deg Phi_d, so Phi_d does not divide num
    low = low[: cyclotomic(d).degree]
    assume(any(low))
    num = [int(c) for c in (QPoly(cs) * cyclotomic_product({d: k}) + QPoly(low)).coeffs]
    with pytest.raises(ArithmeticError):
        _cyclotomic_scale(num, {d: -k})


# ---------------------------------------------------------------------------
# QRatFn: canonical forms and the stated examples
# ---------------------------------------------------------------------------

def test_add_collapses_to_one():
    # q/(1+q) + 1/(1+q) = 1
    assert ratfn((0, 1), (1, 1)) + ratfn((1,), (1, 1)) == ONE


def test_mul_identity():
    f = ratfn((2, -3, 1), (5, 0, 7))
    assert f * ONE == f


def test_sub_self_is_zero():
    f = ratfn((0, -1), (1, 1))
    assert f - f == QRatFn.zero()
    assert (f - f).num.is_zero and (f - f).den == QPoly.one()


def test_canonical_invariants_after_construction():
    # 2q / (2 + 2q) must come out reduced with a monic denominator
    f = QRatFn(QPoly((0, 2)), QPoly((2, 2)))
    assert f.den.leading == 1
    assert f == ratfn((0, 1), (1, 1))
    assert qpoly_gcd(f.num, f.den).degree == 0


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        QRatFn(QPoly((1,)), QPoly.zero())


def test_division_by_zero_ratfn():
    with pytest.raises(ZeroDivisionError):
        ONE / QRatFn.zero()


def test_eval_classical_point():
    # -q/(1+q) at q=1 is -1/2 (hand-substituted; the classical first value)
    e1 = ratfn((0, -1), (1, 1))
    assert e1.eval(1) == Fraction(-1, 2)
    assert ONE.eval(Fraction(7, 3)) == 1
    assert ratfn((1, -1), (1, 1)).eval(1) == 0


def test_eval_pole_raises_and_names_point():
    f = ratfn((1,), (1, 1))  # pole at q = -1
    with pytest.raises(ZeroDivisionError, match="-1"):
        f.eval(-1)


def test_subst_q_inverse_hand_value():
    # (-1/q)/(1 + 1/q) = -1/(1+q), simplified by hand
    e1 = ratfn((0, -1), (1, 1))
    assert e1.subst_q_inverse() == ratfn((-1,), (1, 1))


def test_subst_q_inverse_constant_and_involution():
    c = QRatFn.const(Fraction(5, 3))
    assert c.subst_q_inverse() == c
    f = ratfn((1, 2, 3), (4, 0, 0, 5))
    assert f.subst_q_inverse().subst_q_inverse() == f


def test_debug_string_form():
    assert str(ratfn((0, -1), (1, 1))) == "(-q)/(1 + q)"
    assert str(ratfn((0, -1, 1), (1, 2, 1))) == "(-q + q^2)/(1 + 2*q + q^2)"
    assert str(QRatFn.zero()) == "(0)/(1)"
    assert signed_terms((Fraction(1, 2), Fraction(0), Fraction(-3)), "q") == "1/2 - 3*q^2"


def test_pow_including_negative():
    f = ratfn((0, 1), (1, 1))
    assert f**0 == ONE
    assert f**2 == f * f
    assert f**-1 == ONE / f


def test_hash_consistency():
    a = ratfn((0, 2), (2, 2))
    b = ratfn((0, 1), (1, 1))
    assert a == b and hash(a) == hash(b)
    # values equal across types hash equal, so they meet in dicts and sets
    for x, y in (
        (QRatFn.one(), 1),
        (QRatFn.const(Fraction(1, 2)), Fraction(1, 2)),
        (QPoly.zero(), 0),
        (QPoly.const(2), 2),
        (QRatFn.q(), QPoly.q()),
    ):
        assert x == y and hash(x) == hash(y), (x, y)
        assert x in {y} and y in {x}, (x, y)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)
polys = st.lists(small_fracs, min_size=0, max_size=4).map(QPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
ratfns = st.builds(QRatFn, polys, nonzero_polys)
nonzero_ratfns = ratfns.filter(lambda f: not f.is_zero)


@settings(max_examples=60, deadline=None)
@given(ratfns, ratfns, ratfns)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(nonzero_ratfns)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == ONE


@settings(max_examples=60, deadline=None)
@given(ratfns, ratfns, st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_eval_is_a_homomorphism(a, b, c):
    try:
        av, bv = a.eval(c), b.eval(c)
    except ZeroDivisionError:
        return  # pole of an operand; nothing to check
    assert (a + b).eval(c) == av + bv
    assert (a - b).eval(c) == av - bv
    assert (a * b).eval(c) == av * bv
    if bv != 0 and not b.is_zero:
        assert (a / b).eval(c) == av / bv


@settings(max_examples=60, deadline=None)
@given(ratfns, ratfns)
def test_subst_q_inverse_is_automorphism(a, b):
    sa, sb = a.subst_q_inverse(), b.subst_q_inverse()
    assert (a + b).subst_q_inverse() == sa + sb
    assert (a * b).subst_q_inverse() == sa * sb
    if not b.is_zero:
        assert (a / b).subst_q_inverse() == sa / sb


@settings(max_examples=60, deadline=None)
@given(ratfns, ratfns)
def test_canonical_uniqueness(a, b):
    same_element = a.num * b.den == b.num * a.den
    same_repr = a.num == b.num and a.den == b.den
    assert same_element == same_repr


@settings(max_examples=40, deadline=None)
@given(nonzero_ratfns, st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
def test_subst_q_inverse_pointwise(f, c):
    try:
        expected = f.eval(1 / c)
        got = f.subst_q_inverse().eval(c)
    except ZeroDivisionError:
        return
    assert got == expected


# ---------------------------------------------------------------------------
# XPoly
# ---------------------------------------------------------------------------

def test_xpoly_arithmetic_and_eval():
    p = XPoly((1, 2, 1))  # (1+x)^2
    assert p == XPoly((1, 1)) * XPoly((1, 1))
    assert p.eval(Fraction(3)).as_fraction() == 16
    assert p.eval(Q) == (Q + ONE) ** 2


def test_xpoly_compose_shift():
    p = XPoly((0, 0, 1))  # x^2
    shifted = p.shift_x(1)  # (x+1)^2
    assert shifted == XPoly((1, 2, 1))
    one_minus_x = XPoly((1, -1))
    assert p.compose(one_minus_x) == XPoly((1, -2, 1))


def test_xpoly_fraction_coeffs():
    p = XPoly.from_fractions((Fraction(1, 2), 3))
    assert p.fraction_coeffs() == (Fraction(1, 2), Fraction(3))
    mixed = XPoly((ONE, Q))
    with pytest.raises(ValueError):
        mixed.fraction_coeffs()


def test_xpoly_trims_and_compares():
    assert XPoly((1, 0, 0)) == XPoly((1,))
    assert XPoly(()).is_zero
    assert XPoly((0,)).degree == -1


# ---------------------------------------------------------------------------
# the integer kernel under QPoly against a Fraction-list reference
# ---------------------------------------------------------------------------
#
# QPoly keeps a rational content times a primitive integer polynomial; the
# reference below is the plain schoolbook arithmetic on lists of Fractions
# (ascending, no trailing zeros) that the kernel must reproduce exactly.

def ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    """Long division over the rationals; b nonzero and trimmed."""
    rem, db = ref_trim(a), len(b) - 1
    quot = [Fraction(0)] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db:
        c = rem[-1] / b[-1]
        k = len(rem) - 1 - db
        quot[k] = c
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        rem = ref_trim(rem)
    return ref_trim(quot), rem


def ref_gcd(a, b):
    """Monic Euclid over the rationals."""
    a, b = ref_trim(a), ref_trim(b)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


fracs = st.fractions(min_value=-30, max_value=30, max_denominator=12)
contents = fracs.filter(bool)
coeff_lists = st.lists(fracs, max_size=8)
# a rational content times an integer polynomial whose leading coefficient
# is monic, negative or neither
divisors = st.builds(
    lambda c, low, lead: [c * k for k in low + [lead]],
    contents,
    st.lists(st.integers(-9, 9), max_size=5),
    st.sampled_from([1, -1, 2, -3, 6]),
)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists)
def test_kernel_mul_matches_reference(a, b):
    assert (QPoly(a) * QPoly(b)).coeffs == tuple(ref_mul(ref_trim(a), ref_trim(b)))


@settings(max_examples=150, deadline=None)
@given(coeff_lists, divisors)
def test_kernel_divmod_matches_reference(a, b):
    quot, rem = divmod(QPoly(a), QPoly(b))
    ref_quot, ref_rem = ref_divmod(a, b)
    assert quot.coeffs == tuple(ref_quot) and rem.coeffs == tuple(ref_rem)
    assert (QPoly(a) * QPoly(b)).divexact(QPoly(b)) == QPoly(a)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists, divisors)
def test_kernel_gcd_matches_reference(a, b, h):
    # h makes a nontrivial common factor likely
    a, b = ref_mul(ref_trim(a), h), ref_mul(ref_trim(b), h)
    assert qpoly_gcd(QPoly(a), QPoly(b)).coeffs == tuple(ref_gcd(a, b))


big_ints = st.integers(-(2**120), 2**120)
big_coeff_lists = st.lists(big_ints, min_size=1, max_size=6).filter(lambda cs: cs[-1])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), cyclotomic_exps, big_coeff_lists, big_coeff_lists)
def test_kernel_gcd_of_cyclotomic_multiples_matches_reference(k, exps, u, v):
    # the Frobenius shape: a common factor (1 + q)^k * prod Phi_d^exps[d]
    # under cofactors with coefficients up to 2^120
    g = cyclotomic(2) ** k * cyclotomic_product(exps)
    a, b = QPoly(u) * g, QPoly(v) * g
    assert qpoly_gcd(a, b).coeffs == tuple(ref_gcd(a.coeffs, b.coeffs))
    if a.degree > 0 and b.degree > 0:
        assert math.gcd(*_int_poly_gcd(a.prim, b.prim)) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), contents.map(lambda c: -abs(c)), coeff_lists)
def test_kernel_reversed_matches_reference(zeros, constant, rest):
    # low-order zeros trim away on reversal; a negative constant term
    # becomes a negative leading coefficient
    for cs in ([0] * zeros + [constant] + rest, [0] * zeros + rest):
        assert QPoly(cs).reversed().coeffs == tuple(ref_trim(reversed(ref_trim(cs))))


@settings(max_examples=100, deadline=None)
@given(coeff_lists, fracs)
def test_kernel_eval_matches_reference(a, x):
    assert QPoly(a).eval(x) == ref_eval(ref_trim(a), x)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, contents, contents)
def test_kernel_equal_values_from_different_contents(a, s, t):
    p = QPoly(a)
    built = [
        QPoly([c * s for c in a]).scale(1 / s),
        p.scale(s) + p.scale(t) - p.scale(s + t - 1),
        (p * QPoly.const(s)).divexact(QPoly.const(s)),
        (p * QPoly((s, t))).divexact(QPoly((s * 2, t * 2))).scale(2),
    ]
    for other in built:
        assert other == p and hash(other) == hash(p)
        assert (other.content, other.prim) == (p.content, p.prim)
