"""Bernstein basis, operator, moments, and the alternating-moment identity."""

from collections import Counter
from fractions import Fraction

import pytest

from qeuler.bernstein import (
    bernstein_moment_lhs,
    bernstein_moment_rhs,
    bernstein_operator,
    bernstein_poly,
    moment_via_basis_expansion,
    padic_moment_crosscheck,
    verify_theorem8,
)
from qeuler.euler import _moment, _reduce_over_cyclotomics, q_euler_numbers
from qeuler.exactq import QPoly, QRatFn, XPoly


def ratfn(num, den=(1,)):
    return QRatFn(QPoly(num), QPoly(den))


def test_basis_expansions():
    assert bernstein_poly(0, 1) == XPoly.from_fractions((1, -1))  # 1 - x
    assert bernstein_poly(1, 2) == XPoly.from_fractions((0, 2, -2))  # 2x - 2x^2
    b = bernstein_poly(2, 5)
    assert b.degree == 5
    # value at 1 is 0 unless k = n
    assert b.eval(QRatFn.one()).is_zero
    assert bernstein_poly(4, 4).eval(QRatFn.one()) == QRatFn.one()


def test_basis_rejects_k_above_n():
    with pytest.raises(ValueError):
        bernstein_poly(3, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: bernstein_moment_lhs(3, 2), "need 0 <= k <= n"),
    (lambda: verify_theorem8(0), "n_max must be >= 1"),
], ids=["moment_lhs", "theorem8"])
def test_out_of_range_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_partition_of_unity():
    for n in range(13):
        total = XPoly.zero()
        for k in range(n + 1):
            total = total + bernstein_poly(k, n)
        assert total == XPoly.one()


def test_reflection_symmetry():
    one_minus_x = XPoly((QRatFn.one(), -QRatFn.one()))
    for n in range(13):
        for k in range(n + 1):
            reflected = bernstein_poly(k, n).compose(one_minus_x)
            assert reflected == bernstein_poly(n - k, n)


def test_operator_constant_and_linear():
    assert bernstein_operator([Fraction(7)] * 4, 3, Fraction(2, 5)) == 7
    samples = [Fraction(k, 3) for k in range(4)]  # f(t) = t
    assert bernstein_operator(samples, 3, Fraction(1, 2)) == Fraction(1, 2)


def test_operator_square_hand_value():
    samples = [Fraction(k, 2) ** 2 for k in range(3)]  # f(t) = t^2, n = 2
    assert bernstein_operator(samples, 2, Fraction(1, 2)) == Fraction(3, 8)


def test_operator_length_mismatch():
    with pytest.raises(ValueError):
        bernstein_operator([Fraction(1)] * 3, 3, Fraction(1, 2))


def test_moment_lhs_hand_values():
    # k = n: the alternating sum collapses to the single l = 0 term
    e = q_euler_numbers(6)
    for n in range(7):
        assert bernstein_moment_lhs(n, n) == e[n]
    assert bernstein_moment_lhs(0, 1) == ratfn((1, 2), (1, 1))  # E_0 - E_1
    assert bernstein_moment_lhs(1, 2) == ratfn((0, 0, -4), (1, 2, 1))  # 2(E_1 - E_2)


def test_moment_rhs_variants():
    # full form at k=0 is the reflected-moment value 1 + q + q^2 E_{n,1/q}
    e = q_euler_numbers(5)
    q = QRatFn.q()
    for n in range(1, 6):
        expected = QRatFn.one() + q + q * q * e[n].subst_q_inverse()
        assert bernstein_moment_rhs(0, n, "full") == expected
    assert bernstein_moment_rhs(1, 2, "reduced") == ratfn((0, 0, -4), (1, 2, 1))
    for n in range(2, 11):
        for k in range(1, n):
            assert bernstein_moment_rhs(k, n, "full") == bernstein_moment_rhs(k, n, "reduced")


def test_moment_rhs_argument_checks():
    with pytest.raises(ValueError):
        bernstein_moment_rhs(2, 2)
    with pytest.raises(ValueError):
        bernstein_moment_rhs(0, 3, "something")


def test_moment_pipelines_agree():
    for n in range(0, 10):
        for k in range(n + 1):
            lhs = bernstein_moment_lhs(k, n)
            assert moment_via_basis_expansion(k, n) == lhs
            coeffs = [int(c) for c in bernstein_poly(k, n).fraction_coeffs()]
            numerator = _moment(n, [(c, 0, j) for j, c in enumerate(coeffs)])
            assert _reduce_over_cyclotomics(numerator, Counter({2: n})) == lhs


def test_theorem8_report():
    report = verify_theorem8(12)
    assert report.ok
    # pass rows for every 1 <= k < n, an expected-fail and a full-form row per n
    plain = [i for i in report.instances if len(i.params) == 2]
    assert len(plain) == sum(n - 1 for n in range(1, 13))
    remark = [i for i in report.instances if len(i.params) == 3 and i.params[2] == "k0-remark"]
    assert len(remark) == 12
    assert all(i.expected == "fail" and i.verdict == "fail" for i in remark)
    n1 = next(i for i in remark if i.params[0] == 1)
    assert n1.left == ratfn((1, 2), (1, 1))
    assert n1.right == ratfn((0, 0, -1), (1, 1))
    full = [i for i in report.instances if len(i.params) == 3 and i.params[2] == "full"]
    assert all(i.verdict == "pass" for i in full)


def test_theorem8_specific_cell():
    # (n=2, k=1): both sides are -2q^2/(1+q)^2 after dividing by C(2,1)
    lhs = bernstein_moment_lhs(1, 2) * Fraction(1, 2)
    rhs = bernstein_moment_rhs(1, 2, "reduced") * Fraction(1, 2)
    assert lhs == rhs == ratfn((0, 0, -2), (1, 2, 1))


def test_padic_moment_crosscheck_converges():
    cells = padic_moment_crosscheck(3, 3, 4, 12, (1, 2, 3, 4))
    assert cells
    for n, k, rows in cells:
        vals = [r.valuation for r in rows]
        assert vals[-1] >= vals[0] + 1, (n, k, vals)
        assert vals[-1] >= 3


def test_padic_moment_crosscheck_rejects_empty_level_list():
    for n_max in (0, 1):
        with pytest.raises(ValueError, match="at least one level"):
            padic_moment_crosscheck(n_max, N_list=())
