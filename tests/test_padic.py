"""Capped-precision p-adic arithmetic and the finite-level fermionic integral."""

import pickle
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qeuler.exactq import XPoly
from qeuler.padic import (
    PAdicNum,
    QChoice,
    check_shift_identity_finite,
    convergence_report,
    fermionic_integral_partial,
    is_odd_prime,
    PRIME_LIMIT,
)

QC3 = QChoice(3, Fraction(4))  # q = 1 + 3
QC5 = QChoice(5, Fraction(6))  # q = 1 + 5


# ---------------------------------------------------------------------------
# PAdicNum construction and arithmetic
# ---------------------------------------------------------------------------

def test_from_rational_half_mod_81():
    x = PAdicNum.from_rational(Fraction(1, 2), 3, 4)
    assert x.valuation == 0
    assert x.residue() == 41  # 2*41 = 82 = 1 mod 81


def test_from_rational_zero_flagged():
    z = PAdicNum.from_rational(0, 3, 6)
    assert z.is_zero_at_prec and z.valuation is None
    assert z.valuation_floor == 6


def test_from_rational_valuations():
    assert PAdicNum.from_rational(9, 3, 5).valuation == 2
    assert PAdicNum.from_rational(Fraction(1, 3), 3, 5).valuation == -1
    # value beyond precision collapses to the zero flag
    assert PAdicNum.from_rational(3**7, 3, 5).is_zero_at_prec


def test_add_zero_keeps_value_and_precision():
    x = PAdicNum.from_rational(7, 3, 6)
    z = PAdicNum.zero_at(3, 6)
    s = x + z
    assert s == x and s.prec == 6


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(-4, 12),
    st.integers(-6, 14),
    st.integers(-(10**6), 10**6),
    st.integers(0, 15),
)
@example(5, 4, 0, 1, 4)  # a flagged zero, whose negation must keep prec 4
def test_constructor_normal_form(p, prec, val, u, k):
    def reference(w, v):
        # strip every factor p first, then reduce the unit mod p^(prec - v)
        while w and w % p == 0:
            w, v = w // p, v + 1
        return (v, w % p ** (prec - v)) if w and v < prec else (prec, 0)

    x = PAdicNum(p, prec, val, u * p**k)
    assert (x.val, x.unit) == reference(u * p**k, val)
    neg = -x
    assert (neg.prec, neg.val, neg.unit) == (prec, *reference(-u * p**k, val))
    # residues that are negative, at least p^prec, or multiples of p^prec
    for w in (u * p**k, u * p**k + p ** max(prec, 0), u * p ** max(prec, 0)):
        r = PAdicNum.from_residue(w, p, prec)
        assert (r.prec, r.val, r.unit) == (prec, *reference(w, 0))


def test_mul_valuations_add():
    p = PAdicNum.from_rational(3, 3, 5)
    prod = p * p
    assert prod.valuation == 2 and prod.unit == 1


def test_div_negates_valuation():
    one = PAdicNum.from_rational(1, 3, 5)
    v1 = PAdicNum.from_rational(-3, 3, 5)  # 1 - q for q = 4
    assert (one / v1).valuation == -1


def test_prime_mismatch_rejected():
    with pytest.raises(ValueError, match="prime mismatch"):
        PAdicNum.from_rational(1, 3, 5) + PAdicNum.from_rational(1, 5, 5)


def test_division_by_flagged_zero():
    with pytest.raises(ZeroDivisionError):
        PAdicNum.from_rational(1, 3, 5) / PAdicNum.zero_at(3, 5)


def test_even_or_composite_prime_rejected():
    assert not is_odd_prime(2) and not is_odd_prime(9) and is_odd_prime(97)
    with pytest.raises(ValueError, match="odd prime"):
        PAdicNum.from_rational(1, 4, 5)
    with pytest.raises(ValueError):
        QChoice(9, Fraction(10))


def test_primality_matches_trial_division_below_1e5():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for f in range(2, int(limit**0.5) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, limit, f)))
    test = is_odd_prime.__wrapped__  # bypass the cache: 10^5 entries would stay alive
    assert [p for p in range(limit) if test(p)] == [p for p in range(3, limit) if sieve[p]]


def test_primality_rejects_strong_pseudoprimes():
    # 3215031751 = 151*751*28351 is a strong pseudoprime to bases 2, 3, 5, 7; the next is
    # the least one to the first 12 prime bases (2..37), which base 41 exposes
    assert not is_odd_prime(3215031751)
    assert not is_odd_prime(318665857834031151167461)
    assert is_odd_prime(2**61 - 1) and is_odd_prime(10**18 + 3)


def test_primality_out_of_range_raises():
    with pytest.raises(ValueError, match="out of range"):
        is_odd_prime(PRIME_LIMIT)
    with pytest.raises(ValueError, match="out of range"):
        QChoice(2**127 - 1, Fraction(1))


def test_qchoice_requires_q_near_one():
    with pytest.raises(ValueError, match="1 - q"):
        QChoice(3, Fraction(2))  # |1-2|_3 = 1
    QChoice(3, Fraction(1))  # q = 1 is admissible (|0|_p < 1)


def test_qchoice_every_construction_route_validates():
    # a QChoice is a tuple, yet _make, _replace and unpickling all pass the constructor's check
    qc = QChoice(3, 4)
    assert type(qc.q) is Fraction and repr(qc) == "QChoice(p=3, q=Fraction(4, 1))"
    assert qc == QChoice(3, Fraction(4)) and hash(qc) == hash(QChoice(3, Fraction(4)))
    for copy in (pickle.loads(pickle.dumps(qc)), QChoice._make((3, 4)), qc._replace(q=4)):
        assert type(copy) is QChoice and type(copy.q) is Fraction and copy == qc
    assert qc._replace(q=Fraction(-2)) == QChoice(3, -2)
    for build, message in [
        (lambda: qc._replace(q=5), "need |1 - q|_p < 1; q = 5 fails at p = 3"),
        (lambda: QChoice._make((3, 2)), "need |1 - q|_p < 1; q = 2 fails at p = 3"),
        (lambda: QChoice._make((4, 5)), "p must be an odd prime, got 4"),
        (lambda: qc._replace(p=2), "p must be an odd prime, got 2"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    with pytest.raises(AttributeError):
        qc.q = Fraction(7)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def _coprime_to(p):
    return rationals.filter(lambda r: r.denominator % p != 0)


@settings(max_examples=60, deadline=None)
@given(_coprime_to(3), _coprime_to(3))
def test_from_rational_is_ring_homomorphism(a, b):
    K = 10
    fa = PAdicNum.from_rational(a, 3, K)
    fb = PAdicNum.from_rational(b, 3, K)
    assert fa + fb == PAdicNum.from_rational(a + b, 3, K)
    assert fa + fb == a + b  # an exact rational is coerced at the same precision
    assert fa - fb == PAdicNum.from_rational(a - b, 3, K)
    assert fa * fb == PAdicNum.from_rational(a * b, 3, K)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_ring_laws_mod_pK(a, b, c):
    K = 9
    xs = [PAdicNum.from_rational(v, 5, K) for v in (a, b, c)]
    x, y, z = xs
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


def test_op_precision_honesty_seeded():
    # every claimed digit must match the exact rational result, div included
    import random

    rng = random.Random(99)
    for _ in range(800):
        p = rng.choice([3, 5, 7])
        a = Fraction(rng.randint(-200, 200), rng.randint(1, 60))
        b = Fraction(rng.randint(-200, 200), rng.randint(1, 60))
        xa = PAdicNum.from_rational(a, p, rng.randint(2, 10))
        xb = PAdicNum.from_rational(b, p, rng.randint(2, 10))
        for got, exact in (
            (xa + xb, a + b),
            (xa - xb, a - b),
            (xa * xb, a * b),
        ):
            assert got == PAdicNum.from_rational(exact, p, got.prec)
        if b != 0 and not xb.is_zero_at_prec:
            got = xa / xb
            assert got == PAdicNum.from_rational(a / b, p, got.prec)


@settings(max_examples=60, deadline=None)
@given(rationals.filter(bool), rationals.filter(bool))
def test_valuation_rules(a, b):
    K = 12
    x = PAdicNum.from_rational(a, 3, K)
    y = PAdicNum.from_rational(b, 3, K)
    prod = x * y
    if not prod.is_zero_at_prec:
        assert prod.valuation == x.valuation + y.valuation
    s = x + y
    assert s.valuation_floor >= min(x.valuation_floor, y.valuation_floor)  # ultrametric


# ---------------------------------------------------------------------------
# fermionic partial integral
# ---------------------------------------------------------------------------

def test_integral_of_constant_is_exact():
    for qc in (QC3, QC5):
        for N in (1, 2, 3):
            got = fermionic_integral_partial(XPoly.one(), qc, N)
            diff = got - PAdicNum.from_rational(1, qc.p, got.prec)
            assert diff.is_zero_at_prec


def test_integral_scales_constants():
    got = fermionic_integral_partial(XPoly.from_fractions((Fraction(3, 2),)), QC3, 2)
    want = PAdicNum.from_rational(Fraction(3, 2), 3, got.prec)
    assert (got - want).is_zero_at_prec


def test_integral_moment1_approaches_exact_value():
    # exact first moment is -q/(1+q) = -4/5 at q = 4
    target = PAdicNum.from_rational(Fraction(-4, 5), 3, 12)
    vals = []
    for N in (2, 4, 6):
        got = fermionic_integral_partial(XPoly((0, 1)), QC3, N)
        vals.append((got - target).valuation_floor)
    assert vals == sorted(vals) and vals[-1] >= vals[0] + 2


def test_integral_rejects_p_in_denominator():
    bad = XPoly.from_fractions((Fraction(1, 3),))
    with pytest.raises(ValueError, match="divisible by p"):
        fermionic_integral_partial(bad, QC3, 1)


def test_convergence_report_monotone_growth():
    # (p=3, n=3) is excluded: its observed valuations dip at N=2 (see the
    # dedicated test below); every other desk-scale cell is monotone.
    for qc, levels in ((QC3, range(1, 7)), (QC5, range(1, 5))):
        for n in range(0, 7):
            if (qc.p, n) == (3, 3):
                continue
            rep = convergence_report(n, qc, 12, levels)
            assert rep.ok, (qc.p, n, rep.rows)
            if n == 0:
                assert all(r.exact for r in rep.rows)


def _exact_moment(n: int, q: Fraction) -> Fraction:
    """E_n(q) from the shift identity q * sum_{k<=n} C(n,k) E_k + E_n = (1+q)[n=0]."""
    es: list[Fraction] = []
    for m in range(n + 1):
        rhs = (1 + q if m == 0 else 0) - q * sum(comb(m, k) * es[k] for k in range(m))
        es.append(rhs / (1 + q))
    return es[n]


def _fraction_valuation(r: Fraction, p: int) -> "int | None":
    """v_p of an exact rational; None for zero."""
    if r == 0:
        return None
    v = 0
    num, den = r.numerator, r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _exact_partial(f, q: Fraction, p: int, N: int) -> Fraction:
    """Level-N partial integral of the function f, summed term by term in Fractions."""
    count = p**N
    return (1 + q) / (1 + q**count) * sum(f(x) * (-q) ** x for x in range(count))


def _exact_defect_valuation(n: int, q: Fraction, p: int, N: int) -> "int | None":
    """Independent oracle: v_p of the level-N defect, in plain Fractions.

    The partial sum is expanded term by term and the target comes from the
    shift identity, so neither side goes through qeuler.  None means the
    defect is exactly zero.
    """
    partial = _exact_partial(lambda x: Fraction(x) ** n, q, p, N)
    return _fraction_valuation(partial - _exact_moment(n, q), p)


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# p-integral at p = 3, 5, 7: denominators are products of 2 and 11
ORACLE_POLYS = (
    (),
    (Fraction(3, 2),),
    (0, 1),
    (Fraction(-5, 4), 0, 7),
    (2, Fraction(1, 11), Fraction(-3, 8), 1),
    (Fraction(7, 2), -6, 0, Fraction(9, 22), Fraction(-1, 4)),
)


def test_integral_matches_fraction_oracle_at_every_precision():
    # (val, unit, prec) of the level-N integral equal the exact term-by-term
    # Fraction sum embedded at the same precision, p^N <= 343.
    for p, N_max in ((3, 5), (5, 3), (7, 3)):
        for c in (1, -1, 2):
            qc = QChoice(p, Fraction(1 + c * p))
            for N in range(1, N_max + 1):
                for coeffs in ORACLE_POLYS:
                    f = XPoly.from_fractions(coeffs)
                    exact = _exact_partial(lambda x: _horner(coeffs, x), qc.q, p, N)
                    for prec in (1, 2, 5, 12):
                        got = fermionic_integral_partial(f, qc, N, prec)
                        want = PAdicNum.from_rational(exact, p, prec)
                        cell = (p, c, N, coeffs, prec)
                        assert (got.val, got.unit, got.prec) == (want.val, want.unit, want.prec), cell


def test_integral_defect_valuation_equals_level():
    # The first moment's defect against -q/(1+q) = -4/5 has valuation exactly
    # N, pinned against the Fraction oracle for N <= 8.  Levels 16 and 25
    # (4.3e7 and 8.5e11 terms) are reachable only through the closed form.
    target = PAdicNum.from_rational(Fraction(-4, 5), 3, 40)

    def defect_valuation(N):
        return (fermionic_integral_partial(XPoly((0, 1)), QC3, N, 40) - target).valuation

    small = range(1, 9)
    assert [defect_valuation(N) for N in small] == list(small)
    assert [_exact_defect_valuation(1, Fraction(4), 3, N) for N in small] == list(small)
    assert [defect_valuation(N) for N in (11, 16, 25)] == [11, 16, 25]


def test_convergence_p3_n3_observed_dip():
    # The third moment at p=3, q=4 really is non-monotone at N=1 -> 2: the
    # coarsest partial sum cancels accidentally above trend.  Pinned against
    # the Fraction oracle so any change in the integral pipeline is caught.
    rep = convergence_report(3, QC3, 12, range(1, 7))
    got = [r.valuation for r in rep.rows]
    assert got == [5, 4, 5, 6, 7, 8]
    assert got == [_exact_defect_valuation(3, Fraction(4), 3, N) for N in range(1, 7)]
    assert not rep.monotone and rep.gain >= 2


def test_convergence_report_matches_oracle_on_criterion5_grid():
    # Every acceptance-criterion-5 cell, (p=3, n=3) included: the reported
    # defect valuations equal the Fraction oracle's and obey the proven rate
    # v_p(I_N - E_n) >= N.  n = 0 is exact at every level on both sides.
    for qc, levels in ((QC3, range(1, 7)), (QC5, range(1, 5))):
        for n in range(7):
            rep = convergence_report(n, qc, 12, levels)
            for row in rep.rows:
                want = _exact_defect_valuation(n, qc.q, qc.p, row.N)
                cell = (qc.p, n, row.N)
                if want is None:
                    assert row.exact, cell
                else:
                    assert not row.exact and row.valuation == want, (cell, row, want)
                assert row.valuation >= row.N, (cell, row)


@pytest.mark.parametrize("call, message", [
    (lambda: convergence_report(-1, QChoice(3, 4)), "moment index must be >= 0"),
    (lambda: PAdicNum.from_rational(Fraction(1, 3), 3, 5).residue(), "negative valuation"),
], ids=["negative_moment", "residue_of_negative_valuation"])
def test_out_of_range_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_convergence_rows_sorted_by_level():
    rep = convergence_report(2, QC3, 12, (3, 1, 2))
    assert [r.N for r in rep.rows] == [1, 2, 3]
    assert repr(rep) == (
        "ConvergenceReport(n=2, p=3, q=Fraction(4, 1), prec=12, rows=("
        + ", ".join(f"ConvergenceRow(N={N}, valuation={N}, exact=False)" for N in (1, 2, 3))
        + "))"
    )
    with pytest.raises(AttributeError):
        rep.rows = ()
    with pytest.raises(AttributeError):
        rep.rows[0].valuation = 0


def test_convergence_report_rejects_empty_level_list():
    for levels in ([], (), range(1, 1)):
        with pytest.raises(ValueError, match="at least one level"):
            convergence_report(1, QChoice(3, 4), 12, levels)


# ---------------------------------------------------------------------------
# shift identity at finite level
# ---------------------------------------------------------------------------

def test_shift_identity_constants_exact():
    res = check_shift_identity_finite(XPoly.one(), 1, QC3, 12, 3)
    assert res.exact
    assert repr(res) == "ShiftDefect(n=1, N=3, valuation=12, exact=True)"
    with pytest.raises(AttributeError):
        res.exact = False


def test_shift_identity_defect_grows_odd_n():
    for n, f in ((1, XPoly((0, 1))), (3, XPoly((0, 0, 1)))):
        vals = [check_shift_identity_finite(f, n, QC3, 12, N).valuation for N in (1, 3, 5)]
        assert vals == sorted(vals) and vals[-1] > vals[0]


def test_shift_identity_even_n_reported_only():
    # even n probed numerically; just record that a defect valuation comes back
    res = check_shift_identity_finite(XPoly((0, 1)), 2, QC3, 12, 3)
    assert isinstance(res.valuation, int)


def test_shift_identity_rejects_bad_args():
    with pytest.raises(ValueError):
        check_shift_identity_finite(XPoly.one(), 0, QC3, 12, 3)
    with pytest.raises(ValueError):
        check_shift_identity_finite(XPoly.one(), 1, QC3, 12, 0)
    for prec in (0, -5):
        with pytest.raises(ValueError, match="need precision >= 1"):
            check_shift_identity_finite(XPoly.one(), 1, QC3, prec, 3)


def test_shift_identity_matches_fraction_oracle():
    # q^n I_N(f(x+n)) + (-1)^(n-1) I_N(f) - [2]_q sum_{l<n} (-1)^(n-1-l) f(l) q^l,
    # in plain Fractions: its valuation capped at prec is the reported one, and
    # a defect of valuation >= prec (or exactly zero) is reported exact.
    p = 3
    for c in (1, -1, 2):
        qc = QChoice(p, Fraction(1 + c * p))
        q = qc.q
        for coeffs in ORACLE_POLYS:
            f = XPoly.from_fractions(coeffs)
            for n in (1, 2, 3, 4):
                rhs = (1 + q) * sum(
                    (-1) ** (n - 1 - l) * _horner(coeffs, l) * q**l for l in range(n)
                )
                for N in (1, 2, 3):
                    shifted = _exact_partial(lambda x: _horner(coeffs, x + n), q, p, N)
                    plain = _exact_partial(lambda x: _horner(coeffs, x), q, p, N)
                    v = _fraction_valuation(q**n * shifted + (-1) ** (n - 1) * plain - rhs, p)
                    for prec in (1, 3, 12):
                        res = check_shift_identity_finite(f, n, qc, prec, N)
                        exact = v is None or v >= prec
                        cell = (c, coeffs, n, N, prec)
                        assert res.exact == exact, cell
                        assert res.valuation == (prec if exact else v), cell
