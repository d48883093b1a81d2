"""Sequences, polynomials, and the symbolic identity suite."""

import inspect
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import euler
from qeuler.euler import (
    MINUS_Q_INV,
    classical_euler_numbers,
    frobenius_numbers,
    frobenius_polynomial,
    q_euler_numbers,
    q_euler_numbers_weighted,
    q_euler_polynomial,
    verify_identity,
    weighted_closed_form,
    weighted_recurrence,
)
from qeuler.exactq import QPoly, QRatFn, XPoly, _cyclotomic_remainder, cyclotomic
from test_exactq import cyclotomic_exps, cyclotomic_product, ref_divmod  # dense references

ONE = QRatFn.one()


def ratfn(num, den=(1,)):
    return QRatFn(QPoly(num), QPoly(den))


# hand-solved from the recurrence (1+q) E_n = -q sum_{k<n} C(n,k) E_k
E1 = ratfn((0, -1), (1, 1))  # -q/(1+q)
E2 = ratfn((0, -1, 1), (1, 2, 1))  # q(q-1)/(1+q)^2
E3 = ratfn((0, -1, 4, -1), (1, 3, 3, 1))  # -q(1-4q+q^2)/(1+q)^3


def test_weight0_frozen_values():
    seq = q_euler_numbers(3)
    assert seq[0] == ONE
    assert seq[1] == E1
    assert seq[2] == E2
    assert seq[3] == E3


def test_weight0_denominator_is_the_full_power_of_1_plus_q():
    # E_n = N_n / (1+q)^n is already in lowest terms: at q = -1 only the
    # k = n-1 term of the recurrence survives, so N_n(-1) = n N_{n-1}(-1) = n!
    # and Phi_2 = 1 + q never divides N_n.  _numerators_over relies on this.
    seq = q_euler_numbers(60)
    for n, e in enumerate(seq):
        assert e.den == QPoly([comb(n, i) for i in range(n + 1)])
        assert e.num.eval(-1) == factorial(n)


def test_weight0_recurrence_invariant():
    seq = q_euler_numbers(12)
    from math import comb

    two_q = ratfn((1, 1))
    q = QRatFn.q()
    for n in range(1, 13):
        acc = QRatFn.zero()
        for k in range(n):
            acc = acc + seq[k] * comb(n, k)
        assert two_q * seq[n] + q * acc == QRatFn.zero()


def test_classical_specialization():
    seq = q_euler_numbers(8)
    oracle = classical_euler_numbers(8)
    assert oracle[1] == Fraction(-1, 2)
    for n in range(9):
        assert seq[n].eval(1) == oracle[n]


def _series_coeffs(f, order):
    """Taylor coefficients of a QRatFn around q = 0 (denominator unit there)."""
    num = list(f.num.coeffs) + [Fraction(0)] * order
    den = list(f.den.coeffs) + [Fraction(0)] * order
    assert den[0] != 0
    out = []
    for i in range(order):
        c = (num[i] - sum(den[j] * out[i - j] for j in range(1, i + 1))) / den[0]
        out.append(c)
    return out


def test_weight0_power_series_oracle():
    # Independent route: as a formal power series in q the n-th number is
    # (1+q) * sum_{m>=0} (-1)^m m^n q^m, one term per power of q.  With
    # numerator and denominator degrees <= n+1, agreement to order 2n+3
    # pins E_n exactly (Pade uniqueness), for every n the tables print.
    seq = q_euler_numbers(40)
    for n in range(41):
        order = 2 * n + 3
        assert seq[n].num.degree <= n + 1 and seq[n].den.degree <= n + 1
        alt = [Fraction((-1) ** m * m**n) for m in range(order)]
        expected = [alt[0]] + [alt[m] + alt[m - 1] for m in range(1, order)]
        assert _series_coeffs(seq[n], order) == expected, n


def _stirling2(n, k, _cache={}):
    if (n, k) not in _cache:
        if k == 0 or k > n:
            _cache[(n, k)] = 1 if n == k else 0
        else:
            _cache[(n, k)] = k * _stirling2(n - 1, k, _cache) + _stirling2(n - 1, k - 1, _cache)
    return _cache[(n, k)]


def test_frobenius_stirling_oracle():
    # Independent route: expanding 1/(exp(t)-u) in powers of exp(t)-1 gives
    # H_n(u) = sum_k (-1)^k k! S2(n,k) / (1-u)^k.
    from math import factorial

    for u in (QRatFn.const(3), MINUS_Q_INV, QRatFn.const(Fraction(-1, 2))):
        h = frobenius_numbers(u, 10)
        one_minus_u = ONE - u
        for n in range(11):
            total = QRatFn.zero()
            for k in range(n + 1):
                s2 = _stirling2(n, k)
                if s2:
                    total = total + (one_minus_u ** -k) * ((-1) ** k * factorial(k) * s2)
            assert h[n] == total, (n, str(u))


def test_frobenius_first_values():
    u = QRatFn.const(3)
    h = frobenius_numbers(u, 2)
    assert h[0] == ONE
    assert h[1] == ONE / (u - ONE)  # 1/(u-1) = 1/2 here
    assert h[1] == QRatFn.const(Fraction(1, 2))


def test_frobenius_at_minus_q_inverse_matches_weight0():
    h = frobenius_numbers(MINUS_Q_INV, 10)
    e = q_euler_numbers(10)
    assert h[1] == E1
    for n in range(11):
        assert h[n] == e[n]


def test_frobenius_umbral_invariant():
    # sum_{k<=n} C(n,k) H_k = u * H_n for n >= 1
    from math import comb

    for u in (QRatFn.const(3), MINUS_Q_INV):
        h = frobenius_numbers(u, 9)
        for n in range(1, 10):
            acc = QRatFn.zero()
            for k in range(n + 1):
                acc = acc + h[k] * comb(n, k)
            assert acc == u * h[n]


def test_frobenius_polynomial_first_request_does_not_recurse_per_n():
    # u = 5 is used by no other test, so n = 80 is a first request from an empty cache
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        poly = frobenius_polynomial(QRatFn.const(5), 80)
    finally:
        sys.setrecursionlimit(limit)
    assert poly.degree == 80 and poly.coeffs[0] == frobenius_numbers(QRatFn.const(5), 80)[80]


def test_frobenius_singular_parameter():
    with pytest.raises(ValueError, match="u = 1"):
        frobenius_numbers(ONE, 3)
    with pytest.raises(ValueError, match="u = 1"):
        frobenius_polynomial(ONE, 3)


def test_polynomial_structure():
    p1 = q_euler_polynomial(1)
    assert p1 == XPoly((E1, ONE))  # x - q/(1+q)
    for n in (0, 2, 5, 9):
        p = q_euler_polynomial(n)
        assert p.degree == n
        assert p.coeffs[-1] == ONE  # monic
        assert p.eval(QRatFn.zero()) == q_euler_numbers(n)[n]  # constant term


def test_frobenius_polynomial_matches_weight0_polynomial():
    for n in range(0, 12):
        assert frobenius_polynomial(MINUS_Q_INV, n) == q_euler_polynomial(n)
    assert frobenius_polynomial(QRatFn.const(3), 4).eval(QRatFn.zero()) == frobenius_numbers(
        QRatFn.const(3), 4
    )[4]


# ---------------------------------------------------------------------------
# weighted, two routes
# ---------------------------------------------------------------------------

def test_weighted_base_and_first_value():
    vals = q_euler_numbers_weighted(1, 1)
    assert vals[0] == ONE
    assert vals[1] == ratfn((0, -1), (1, 0, 1))  # -q/(1+q^2), solved by hand


def test_weighted_closed_form_n0_any_alpha():
    for alpha in (1, 2, 3, 5):
        assert weighted_closed_form(alpha, 0) == ONE


def test_weighted_routes_agree():
    for alpha in (1, 2, 3):
        rec = weighted_recurrence(alpha, 10)
        for n in range(11):
            assert rec[n] == weighted_closed_form(alpha, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=40), st.integers(1, 30), st.booleans())
def test_cyclotomic_remainder_matches_long_division(num, d, multiple):
    phi = cyclotomic(d)
    if multiple:  # make Phi_d divide num
        num = [int(c) for c in (QPoly(num) * phi).coeffs]
    expected = ref_divmod(num, phi.coeffs)[1]
    assert _cyclotomic_remainder(num, d) == expected
    assert not expected or not multiple


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=10), cyclotomic_exps, cyclotomic_exps)
def test_reduce_over_cyclotomics_matches_generic_ratfn(base, common, factors):
    # num = base * prod Phi_d^common[d] over den = prod Phi_d^factors[d], both built densely
    num, den = QPoly(base) * cyclotomic_product(common), cyclotomic_product(factors)
    ints = [int(c) for c in num.coeffs]
    assert euler._reduce_over_cyclotomics(ints, Counter(factors)) == QRatFn(num, den)


def test_weighted_routes_disagreeing_raise(monkeypatch):
    honest = euler._alternating_numerator

    def perturbed(alpha, n):
        t = honest(alpha, n)
        if n == 3:
            t[len(t) // 2] += 1
        return t

    monkeypatch.setattr(euler, "_alternating_numerator", perturbed)
    q_euler_numbers_weighted(2, 2)  # accepted: the perturbed n = 3 is not reached
    with pytest.raises(ArithmeticError, match="alpha=2, n=3"):
        q_euler_numbers_weighted(2, 4)


def test_weighted_alpha0_recurrence_is_weight0():
    rec = weighted_recurrence(0, 10)
    seq = q_euler_numbers(10)
    for n in range(11):
        assert rec[n] == seq[n]


def test_weighted_rejects_bad_alpha():
    for bad in (0, -1, Fraction(1, 2), 1.5, True):
        with pytest.raises((ValueError, TypeError)):
            q_euler_numbers_weighted(bad, 3)
    with pytest.raises(ValueError):
        weighted_closed_form(0, 3)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "ident,n_max",
    [
        ("thm1", 15),
        ("thm2", 15),
        ("thm4", 15),
        ("thm5", 15),
        ("thm6", 15),
        ("thm7", 15),
        ("classical", 15),
        ("weighted", 8),
        ("k0-remark", 8),
    ],
)
def test_identity_reports_in_order(ident, n_max):
    report = verify_identity(ident, n_max)
    assert report.ok, report.failures()


def test_cor3_small_range():
    report = verify_identity("cor3", 7)
    assert report.ok
    assert {p[0] for p in (i.params for i in report.instances)} == {1, 3, 5, 7}
    assert {p[1] for p in (i.params for i in report.instances)} == set(range(16))


def test_cor3_on_the_frobenius_route():
    # q^n H_m(-1/q, n) + H_m(-1/q) = [2]_q sum_{l<n} (-1)^l l^m q^l: the generic
    # route still meets the corollary that the suite decides on integer numerators
    q = QRatFn.q()
    h = frobenius_numbers(MINUS_Q_INV, 15)
    for m in range(16):
        h_poly = frobenius_polynomial(MINUS_Q_INV, m)
        for n in range(1, 16, 2):
            right = (ONE + q) * QRatFn(QPoly([(-1) ** l * l**m for l in range(n)]))
            assert q**n * h_poly.eval(QRatFn.const(n)) + h[m] == right, (n, m)


def test_thm4_n0_gives_two_q():
    report = verify_identity("thm4", 0)
    assert report.ok and report.instances[0].verdict == "pass"


def test_thm5_hypothesis_probe_at_zero():
    report = verify_identity("thm5", 3)
    probe = report.instances[0]
    assert probe.params == (0,)
    assert probe.expected == "fail" and probe.verdict == "fail"
    # both sides computable: q^2 vs 1 + q + q^2
    assert probe.left == ratfn((0, 0, 1))
    assert probe.right == ratfn((1, 1, 1))


def test_k0_remark_witness_at_n1():
    report = verify_identity("k0-remark", 1)
    inst = report.instances[0]
    assert inst.verdict == "fail" and inst.ok
    assert inst.left == ratfn((1, 2), (1, 1))  # (1+2q)/(1+q)
    assert inst.right == ratfn((0, 0, -1), (1, 1))  # -q^2/(1+q)


def test_verify_identity_rejects_unknown():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("thm99", 3)


def test_sequences_safe_under_concurrent_fill():
    results = []

    def worker():
        results.append(q_euler_numbers(25)[25])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == q_euler_numbers(25)[25]
