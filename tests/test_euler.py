"""Sequences, polynomials, and the symbolic identity suite."""

import inspect
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler import euler, exactq
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
from qeuler.exactq import QPoly, QRatFn, XPoly, _cyclotomic_quotient, cyclotomic
from test_exactq import _ipack, _times_one_plus, cyclotomic_exps, cyclotomic_product
from test_verdicts import fresh_caches  # noqa: F401 (a fixture: every euler cache emptied)
from test_verdicts import _assert_matches_canonical, _classical_by_fractions, _sides
from test_verdicts import _list_moment, _list_weighted_sides, _moment_rows, _moment_values
from test_verdicts import _shift_sides, _thm5_sides, _thm6_sides, _weighted_moment_by_division

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
    # and Phi_2 = 1 + q never divides N_n.  So (1+q)^n, the denominator that
    # the moment tables put each weight-0 side over, is E_n's own.  The entry
    # takes that by proof (N_n = -q A_n(-q), A_n Eulerian), so N_n(-1) = n! is
    # checked on the list loop too
    seq = q_euler_numbers(60)
    for n, e in enumerate(seq):
        assert e.den == QPoly([comb(n, i) for i in range(n + 1)])
        assert e.num.eval(-1) == factorial(n)
        assert sum(c * (-1) ** i for i, c in enumerate(_oracle_numerator(0, n))) == factorial(n)


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


def test_classical_numbers_match_the_fraction_loop():
    # the int recurrence e_n = 2^n E_n against the Fraction loop it replaced
    numbers = classical_euler_numbers(60)
    assert type(numbers) is list and all(type(x) is Fraction for x in numbers)
    assert numbers == _classical_by_fractions(60)
    assert euler._classical_numerators(60) == [x * 2**n for n, x in enumerate(numbers)]


@lru_cache(maxsize=None)
def _frobenius_list(l):
    """F_l = sum_k k! S(l,k) q^k (-1-q)^(l-k) as an ascending int list, from ``_stirling2``."""
    powers = [[1]]  # (-1-q)^i
    for _ in range(l):
        powers.append([-c for c in _times_one_plus(powers[-1], 1)])
    terms = ((factorial(k) * _stirling2(l, k), k, powers[l - k]) for k in range(l + 1))
    return tuple(exactq._icombination([], terms))


def _frobenius_over(n, l):
    """(-1)^l F_l (1+q)^(n-l): H_l(-1/q)'s numerator over (1+q)^n, a list."""
    side = [(-1) ** l * c for c in _frobenius_list(l)]
    for _ in range(n - l):
        side = _times_one_plus(side, 1)
    return side


def test_weight0_packed_sides_unpack_to_the_canonical_routes():
    # thm1, thm2 and classical judge ints read from the weight-0 chain and the
    # Frobenius closed form at q = 2^b.  For n <= 30 each unpacks to the
    # canonical value of the route these suites once compared, the Frobenius
    # values to the list route, and every verdict is that route's comparison
    e, h = weighted_recurrence(0, 30), frobenius_numbers(MINUS_Q_INV, 30)
    for n in range(31):
        b, over = euler._width(n, (1 << n) + 3), {2: n}
        chain = euler._packed_chain(0, b, n)[n]
        assert euler._unpacked_over(chain, b, over) == e[n]
        assert euler._unpacked_over(euler._frobenius_value(n, b), b, over) == h[n]
        assert Fraction(sum(exactq._iunpack(chain, b)), 1 << n) == e[n].eval(1)
        frobenius = euler._frobenius_values(n, b)
        assert [exactq._iunpack(v, b) for v in frobenius] == [
            exactq._itrim(_frobenius_over(n, l)) for l in range(n + 1)]
        for values, poly in ((euler._packed_moments(n, False, b), q_euler_polynomial(n)),
                             (frobenius, frobenius_polynomial(MINUS_Q_INV, n))):
            assert XPoly(euler._scaled(euler._unpacked_over(values[n - j], b, over), comb(n, j))
                         for j in range(n + 1)) == poly, n
    for identity in ("thm1", "thm2", "classical"):
        _assert_matches_canonical(verify_identity(identity, 30), _sides(identity, 30))


def test_weight0_power_series_oracle():
    # Independent route: in Z[[q]] the n-th number is [2]_q * sum_{m>=0} (-q)^m m^n,
    # the q-Euler zeta function at -n.  With E_n = N_n/(1+q)^n and deg N_n <= n+1,
    # dividing N_n by 1+q n times and matching coefficients 0..2n+1 pins E_n,
    # for every n the tables print, on the recurrence and on the Frobenius route.
    for seq in (q_euler_numbers(40), frobenius_numbers(MINUS_Q_INV, 40)):
        for n, e in enumerate(seq):
            assert e.den == QPoly([comb(n, i) for i in range(n + 1)]) and e.num.degree <= n + 1
            assert e.num.content.denominator == 1
            series = [e.num.content.numerator * c for c in e.num.prim] + [0] * (n + 1)
            for _ in range(n):
                for i in range(1, 2 * n + 2):
                    series[i] -= series[i - 1]
            alt = [(-1) ** m * m**n for m in range(2 * n + 2)]
            assert series == [alt[0]] + [alt[m] + alt[m - 1] for m in range(1, 2 * n + 2)], n


def _stirling2(n, k, _cache={}):
    if (n, k) not in _cache:
        if k == 0 or k > n:
            _cache[(n, k)] = 1 if n == k else 0
        else:
            _cache[(n, k)] = k * _stirling2(n - 1, k, _cache) + _stirling2(n - 1, k - 1, _cache)
    return _cache[(n, k)]


# Frobenius parameters, each with an int, Fraction or QPoly spelling (or None)
# that must give the same values.  Beyond the plain cases: u = -1, where
# H_n = 0 at each even n >= 2; u = 0; a u whose numerator and denominator
# contents differ, which the closed form rescales by one common integer.
_FROBENIUS_PARAMS = (
    (QRatFn.const(3), 3),
    (MINUS_Q_INV, None),
    (QRatFn.const(Fraction(-1, 2)), Fraction(-1, 2)),
    (QRatFn.q(), QPoly.q()),
    (ratfn((1, 2)), QPoly((1, 2))),
    (QRatFn.const(-1), -1),
    (QRatFn.zero(), 0),
    (ratfn((1, 1), (0, 2)), None),
    (ratfn((Fraction(1, 3), 5), (7, 0, 1)), None),
)


def test_frobenius_stirling_oracle():
    # Independent route: expanding 1/(exp(t)-u) in powers of exp(t)-1 gives
    # H_n(u) = sum_k (-1)^k k! S2(n,k) / (1-u)^k, summed in generic QRatFn arithmetic.
    for u, plain in _FROBENIUS_PARAMS:
        h = frobenius_numbers(u, 10)
        one_minus_u = ONE - u
        for n in range(11):
            total = QRatFn.zero()
            for k in range(n + 1):
                s2 = _stirling2(n, k)
                if s2:
                    total = total + (one_minus_u ** -k) * ((-1) ** k * factorial(k) * s2)
            assert h[n] == total, (n, str(u))
        if plain is not None:
            assert frobenius_numbers(plain, 10) == h, str(u)
    h = frobenius_numbers(-1, 10)
    assert [(f.num, f.den) for f in h[2::2]] == [(QPoly.zero(), QPoly.one())] * 5


def _frobenius_lists(u, n):
    """(N, c^n) as int lists by homogeneous Horner, F(n,k) by its alternating sum."""
    r = u.num.content / u.den.content
    a, b = [r.numerator * x for x in u.num.prim], [r.denominator * x for x in u.den.prim]
    c = exactq._icombination(a, [(-1, 0, b)])
    acc, c_pow = [factorial(n)], [1]
    for k in range(n - 1, -1, -1):
        c_pow = exactq._imul(c_pow, c)
        f = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
        acc = exactq._icombination(exactq._imul(acc, b), [(f, 0, c_pow)])
    return acc, c_pow


def _frobenius_by_lists(u, n):
    """H_n(u) = N/c^n from ``_frobenius_lists``.

    The list route the packed ``euler._frobenius_number`` replaced, kept as its oracle.
    """
    acc, c_pow = _frobenius_lists(u, n)
    if not acc:
        return QRatFn.zero()
    return QRatFn._raw(exactq._qpoly(acc, Fraction(1, c_pow[-1])), exactq._qpoly(c_pow).monic())


@pytest.mark.parametrize("u", [
    MINUS_Q_INV, QRatFn.const(2), QRatFn.const(Fraction(1, 2)), ratfn((0, 0, 1)), ratfn((0, -1)),
    ratfn((1, 1), (0, 0, 1)), ratfn((2, 4), (0, 0, 3)), ratfn((Fraction(-3, 4), 0, 6), (5, 10, 1)),
], ids=["-1/q", "2", "1/2", "q^2", "-q", "(1+q)/q^2", "content 2/3", "content -3/4"])
def test_packed_frobenius_matches_the_list_route(u, fresh_caches, monkeypatch):
    # the packed Horner at q = 2^w, w = _width(n, m^n), against the list loop;
    # every coefficient of N and of c^n is below 2^(w-2), and at u = -1/q,
    # m = 1, so w is _width(n)
    widths, width = [], euler._width
    monkeypatch.setattr(euler, "_width", lambda n, w=1: widths.append(width(n, w)) or widths[-1])
    h = frobenius_numbers(u, 25)
    assert len(widths) == 26
    for n in range(26):
        assert h[n] == _frobenius_by_lists(u, n), n
        num, den = _frobenius_lists(u, n)
        assert max(map(abs, num + den)) < 1 << widths[n] - 2, n
        assert u != MINUS_Q_INV or widths[n] == width(n), n
    # the memoized Fubini row against k! S(n,k)
    assert all(euler._fubini_row(n) == tuple(factorial(k) * _stirling2(n, k) for k in range(n + 1))
               for n in range(26))


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
    # sum_{k<=n} C(n,k) H_k = u * H_n for n >= 1: the recurrence
    # H_n = (sum_{k<n} C(n,k) H_k)/(u-1), checked against the closed form
    for u, plain in _FROBENIUS_PARAMS:
        h = frobenius_numbers(u, 20)
        for n in range(1, 21):
            acc = QRatFn.zero()
            for k in range(n + 1):
                acc = acc + h[k] * comb(n, k)
            assert acc == u * h[n]
        if plain is not None:
            assert frobenius_numbers(plain, 20) == h, str(u)


def test_frobenius_polynomial_first_request_does_not_recurse_per_n():
    # u = 5 is used by no other test, so n = 80 is a first request from an empty cache
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        poly = frobenius_polynomial(QRatFn.const(5), 80)
    finally:
        sys.setrecursionlimit(limit)
    assert poly.degree == 80 and poly.coeffs[0] == frobenius_numbers(QRatFn.const(5), 80)[80]


@pytest.mark.parametrize("bad", [[1], {1: 2}, {1}])
def test_frobenius_unhashable_parameter_raises_the_documented_type_error(bad):
    for entry in (frobenius_numbers, frobenius_polynomial):
        with pytest.raises(TypeError, match="the Frobenius parameter must be an int"):
            entry(bad, 2)


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


def test_closed_form_factors_read_the_divisors_of_alpha():
    # Phi_d | q^alpha - 1 exactly for the divisors d of alpha, found up to
    # sqrt(alpha): at alpha = 10^12 a scan of every d <= alpha does not finish
    for alpha in range(1, 40):
        for n in (0, 1, 3):
            scan = Counter({d: n for d in range(1, alpha + 1) if alpha % d == 0})
            assert euler._closed_form_factors(alpha, n) == _d_n_factors(alpha, n) + scan
    assert weighted_closed_form(10**12, 0) == ONE


def test_weighted_routes_agree():
    for alpha in (1, 2, 3):
        rec = weighted_recurrence(alpha, 10)
        for n in range(11):
            assert rec[n] == weighted_closed_form(alpha, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=40), st.integers(1, 30), st.booleans())
def test_cyclotomic_quotient_matches_long_division(num, d, multiple):
    phi = cyclotomic(d)
    if multiple:  # make Phi_d divide num
        num = [int(c) for c in (QPoly(num) * phi).coeffs]
    quotient, remainder = divmod(QPoly(num), phi)
    got = _cyclotomic_quotient(num, d)
    assert (got is None) == bool(remainder)
    assert got is None or QPoly(got) == quotient
    assert not remainder or not multiple


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 7, 12, 30])
def test_cyclotomic_quotient_settles_a_false_zero_exactly(d, monkeypatch):
    # the constant Phi_d(2^32) vanishes mod Phi_d(2^32), so no evaluation at q = 2^32
    # could tell it from a multiple, yet Phi_d does not divide it: one exact
    # division decides, and says no
    value = int(cyclotomic(d).eval(2**32))
    calls, scale = [], exactq._cyclotomic_scale
    monkeypatch.setattr(
        exactq, "_cyclotomic_scale", lambda cs, exps: calls.append(d) or scale(cs, exps))
    assert _cyclotomic_quotient([value], d) is None
    assert calls == [d]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=10), cyclotomic_exps, cyclotomic_exps)
def test_reduce_over_cyclotomics_matches_generic_ratfn(base, common, factors):
    # num = base * prod Phi_d^common[d] over den = prod Phi_d^factors[d], both built densely
    num, den = QPoly(base) * cyclotomic_product(common), cyclotomic_product(factors)
    ints = [int(c) for c in num.coeffs]
    assert euler._reduce_over_cyclotomics(ints, Counter(factors)) == QRatFn(num, den)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_moment_functionals_match_the_qratfn_route(data):
    # the term-list route _moment_values: sum c q^s I(y^l) over (1+q)^n at
    # q = 2^b, with I(y^l) = E_l, or E_{l,1/q} reflected, against the QRatFn
    # sum and the list oracle
    n = data.draw(st.integers(0, 10))
    term = st.tuples(st.integers(-9, 9), st.integers(0, 5), st.integers(0, n))
    terms = data.draw(st.lists(term, max_size=6))
    reflected = data.draw(st.booleans())
    e = q_euler_numbers(n)
    if reflected:
        e = [v.subst_q_inverse() for v in e]
    expected = sum((e[l] * QRatFn.q() ** s * c for c, s, l in terms), QRatFn.zero())
    b, (value,) = _moment_values(n, [(terms, reflected)])
    assert exactq._iunpack(value, b) == _list_moment(n, terms, reflected)
    assert euler._unpacked_over(value, b, Counter({2: n})) == expected
    # _weighted_moment: sum c_j I(X^j) over prod_{k<=n} (1+q^(alpha*k+1)) at
    # q = 2^64, with I(X^j) = [2]_q / (1+q^(alpha*j+1))
    alpha, n = data.draw(st.sampled_from((1, 2, 3))), data.draw(st.integers(0, 6))
    coeffs = data.draw(st.lists(st.integers(-9, 9), max_size=n + 1))
    expected = sum(
        (ratfn((1, 1), (1,) + (0,) * (alpha * j) + (1,)) * c for j, c in enumerate(coeffs)),
        QRatFn.zero(),
    )
    value = euler._weighted_moment(alpha, n, coeffs, 64)
    assert euler._unpacked_over(value, 64, _d_n_factors(alpha, n)) == expected


def _d_n_factors(alpha, n):
    # the Phi_d exponents of D_n = prod_{1<=k<=n} (1+q^(alpha*k+1))
    return Counter(
        d for k in range(1, n + 1) for d in exactq.one_plus_q_power_factors(alpha * k + 1))


def test_weighted_entry_matches_the_plain_search():
    # the entry over the known denominator den_n against trial division of N_n
    # by every Phi_d of D_n; den_n and D_n / den_n split D_n's factors, and den_n's
    # degree is that of Phi_2^(n*[alpha even]) * prod_{d in S_n, d != 2} Phi_d
    for alpha in range(7):
        for n in range(25):
            factors = _d_n_factors(alpha, n)
            exps, rest, den = euler._canonical_denominator(alpha, n)
            assert exps + rest == factors, (alpha, n)
            assert exactq._cyclotomic_scale([1], exps) == list(den.prim), (alpha, n)
            numerator = list(euler._weighted_numerator(alpha, n))
            entry = euler._weighted_entry(alpha, n)
            assert entry == euler._reduce_over_cyclotomics(numerator, factors)
            degree = n * (alpha % 2 == 0) + sum(cyclotomic(d).degree for d in factors if d != 2)
            assert entry.den.degree == degree, (alpha, n)


def test_residue_sums_decide_what_the_folds_decide():
    # Phi_d of den_n stays in the canonical denominator iff the residue sum R
    # is nonzero (d != 2), and always at d = 2 (even alpha): each verdict
    # against the exact division of the reduced numerator by Phi_d
    cells = [(alpha, n) for alpha in range(1, 7) for n in range(25)]
    cells += [(alpha, n) for alpha in (9, 10, 15) for n in range(15)]
    multi_term = 0
    for alpha, n in cells:
        exps, rest, _ = euler._canonical_denominator(alpha, n)
        num = exactq._cyclotomic_scale(euler._weighted_numerator(alpha, n),
                                       {d: -k for d, k in rest.items()})
        for d in exps:
            stays = _cyclotomic_quotient(num, d) is None
            if d == 2:
                assert alpha % 2 == 0 and stays, (alpha, n)
                continue
            assert (euler._residue_sum(alpha, n, d) != 0) == stays, (alpha, n, d)
            multi_term += sum((alpha * l + 1) % d == d // 2 for l in range(n + 1)) > 1
    assert multi_term > 100


def test_residue_sums_have_one_sign_at_odd_alpha():
    # _weighted_entry's proof that R != 0 at odd alpha: the l <= n with
    # alpha*l + 1 = d/2 (mod d) share one parity, so every term of R has the
    # sign (-1)^l.  At even alpha, gcd(alpha, d) = 2 and the l of a
    # progression alternate in parity, so its terms alternate in sign
    cells = odd_multi = even_multi = 0
    for alpha in range(1, 16):
        s_n = set()  # S_n without Phi_2: the d with Phi_d | 1 + q^(alpha*k+1), k <= n
        for n in range(46):
            s_n.update(d for d in exactq.one_plus_q_power_factors(alpha * n + 1) if n and d != 2)
            for d in s_n:
                cells += 1
                ls = [l for l in range(n + 1) if (alpha * l + 1) % d == d // 2]
                if alpha % 2:
                    assert len({l % 2 for l in ls}) == 1, (alpha, n, d)
                    assert euler._residue_sum(alpha, n, d) * (-1) ** ls[0] > 0, (alpha, n, d)
                    odd_multi += len(ls) > 1
                elif len(ls) > 1:
                    assert all((k - l) % 2 for k, l in zip(ls, ls[1:])), (alpha, n, d)
                    even_multi += 1
    assert (cells, odd_multi, even_multi) == (23803, 1969, 1888)


@pytest.mark.parametrize("alpha, n", [(1, 3), (2, 4), (3, 5)])
def test_weighted_entry_reduces_a_numerator_that_shares_a_phi_d(alpha, n, monkeypatch):
    # were N_n, divided by D_n / den_n, still divisible by a Phi_d of den_n, den_n
    # would not be canonical: the entry must then fall back to trial division.
    # The entry reads that from the residue sum R of the closed form, which a
    # doctored N_n is not, so R is made to report zero as well.  At alpha = 0
    # the one Phi_d is Phi_2, which stays by proof (N_n(-1) = n!), so no
    # fallback is left to reach there
    exps, _, den = euler._canonical_denominator(alpha, n)
    d = max(exps)
    honest = euler._weighted_numerator
    numerator = tuple(exactq._cyclotomic_scale(honest(alpha, n), {d: 1}))

    def scaled(a, m):
        return numerator if (a, m) == (alpha, n) else honest(a, m)

    monkeypatch.setattr(euler, "_weighted_numerator", scaled)
    residue = euler._residue_sum
    monkeypatch.setattr(euler, "_residue_sum", lambda a, m, e: 0 if e == d else residue(a, m, e))
    euler._weighted_entry.cache_clear()
    try:
        entry = euler._weighted_entry(alpha, n)
    finally:
        euler._weighted_entry.cache_clear()
    assert entry == euler._reduce_over_cyclotomics(list(numerator), _d_n_factors(alpha, n))
    assert entry.den.degree == den.degree - cyclotomic(d).degree


def test_weighted_memos_fill_without_deep_recursion(fresh_caches):
    # each memo reads its predecessors in ascending n, so a cold request nests
    # a bounded number of calls, however large n is
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        euler._weighted_numerator(0, 150)
        euler._width(400)
        euler._canonical_denominator(0, 400)
        euler._weighted_entry(2, 60)
    finally:
        sys.setrecursionlimit(limit)


def test_weighted_moment_matches_product_and_divide():
    # at q = 2^64, where every coefficient here unpacks, against the list oracle
    rng = Random(18)
    for alpha in range(4):
        for n in range(13):
            for length in range(n + 2):  # every coefficient list up to n+1 long
                coeffs = [rng.randint(-50, 50) for _ in range(length)]
                expected = _weighted_moment_by_division(alpha, n, coeffs)
                value = euler._weighted_moment(alpha, n, coeffs, 64)
                assert exactq._iunpack(value, 64) == expected, (alpha, n, coeffs)


def test_numerator_above_its_degree_raises(monkeypatch, fresh_caches):
    # q -> 1/q reverses M_l's n + 1 digits in place only while deg N_l <= l; an
    # N_3 one digit too long, whatever the sign of its top one, must raise,
    # also under python -O, rather than give a misaligned reflected side
    honest = euler._packed_step
    for top in (1, -1):
        monkeypatch.setattr(
            euler, "_packed_step",
            lambda alpha, n, packed, b, top=top: honest(alpha, n, packed, b)
            + (top << b * 4 if (alpha, n) == (0, 3) else 0))
        euler._packed_chain.cache_clear()  # and the moments read from it
        euler._packed_moments.cache_clear()
        with pytest.raises(ArithmeticError, match="more than 4 coefficients"):
            verify_identity("thm7", 3)


def test_weighted_routes_disagreeing_raise(monkeypatch, fresh_caches):
    # the memos are empty, so the perturbed closed form is what the check reads
    honest = euler._alternating_numerator

    def perturbed(alpha, n, b):
        # one q-coefficient up by 1 at q = 2^b, where the route check reads it
        t = honest(alpha, n, b)
        if n == 3:
            t += 1 << (b * (len(exactq._iunpack(t, b)) // 2))
        return t

    monkeypatch.setattr(euler, "_alternating_numerator", perturbed)
    q_euler_numbers_weighted(2, 2)  # accepted: the perturbed n = 3 is not reached
    for _ in range(2):  # the verdict is kept, so a second request raises too
        with pytest.raises(ArithmeticError, match="alpha=2, n=3"):
            q_euler_numbers_weighted(2, 4)


def test_weighted_route_check_runs_once_per_entry(monkeypatch, fresh_caches):
    # the verdict is kept per (alpha, n), not the ints: a caller that asks twice checks once
    calls = []
    honest = euler._weighted_values
    monkeypatch.setattr(euler, "_weighted_values",
                        lambda alpha, n: calls.append((alpha, n)) or honest(alpha, n))
    first = q_euler_numbers_weighted(2, 10)
    assert q_euler_numbers_weighted(2, 10) == first
    assert q_euler_numbers_weighted(2, 12)[:11] == first
    assert calls == [(2, n) for n in range(13)]


@lru_cache(maxsize=None)
def _oracle_numerator(alpha, n):
    # the recurrence's Horner loop on coefficient lists, the route it had before
    # it ran on packed ints: S = sum_{k<n} C(n,k) q^(alpha*k) N_k prod_{k<j<n} f_j,
    # f_j = 1 + q^(alpha*j+1), and N_n = -q S
    s = []
    for k in range(n):
        term = (comb(n, k), alpha * k, _oracle_numerator(alpha, k))
        s = exactq._icombination(_times_one_plus(s, alpha * k + 1), [term])
    return tuple([0] + [-c for c in s]) if n else (1,)


def test_packed_recurrence_matches_the_list_loop(fresh_caches):
    for alpha in range(7):
        for n in range(31):
            assert tuple(euler._weighted_numerator(alpha, n)) == _oracle_numerator(alpha, n), n
    # the memo's b is _width(n), and the chain at that b holds every N_k, k <= n
    b = euler._width(30)
    chain = euler._packed_chain(3, b, 30)
    assert [exactq._iunpack(v, b) for v in chain] == [list(_oracle_numerator(3, k))
                                                      for k in range(31)]
    assert exactq._iunpack(chain[30], b) == euler._weighted_numerator(3, 30)


def _bound(n):
    """B_n, the bound ``euler._width`` takes from the Fubini form: sum_k F(n,k) 2^(n-k)."""
    return euler._fubini_form(n, 1, 2)[0]


# The width rules before ``euler._width``, kept as oracles: B_n by its
# recurrence, the weighted route's width and the moment sides' width.

@lru_cache(maxsize=None)
def _bound_by_recurrence(n):
    """B_0 = 1, B_n = sum_{k<n} C(n,k) 2^(n-1-k) B_k, from ||N_n||_1 <= B_n."""
    for k in range(n):  # ascending, so a cold request nests one call deep
        _bound_by_recurrence(k)
    return sum(comb(n, k) * _bound_by_recurrence(k) << (n - 1 - k) for k in range(n)) if n else 1


def _weighted_width_by_recurrence(n):
    """max(bitlen(B_n) + n, 2n) + 2, rounded up to a multiple of 8."""
    return -(-(max(_bound_by_recurrence(n).bit_length() + n, 2 * n) + 2) // 8) * 8


def _moment_width_by_recurrence(n, w):
    """bitlen(w) + the weighted width, rounded up to a multiple of 64."""
    return -(-(w.bit_length() + _weighted_width_by_recurrence(n)) // 64) * 64


def _family_weights(n):
    """Every term weight w a moment family asks ``euler._width(n, w)`` for, cor3 shifts s <= 59."""
    weights = {(1 << n) + 3, 3**n + 3}  # every Bernstein row and thm6; thm5
    for s in range(1, 60, 2):  # cor3 at odd s, and thm4 at s = 1
        weights.add((s + 1) ** n + 1 + 2 * sum(l**n for l in range(s)))
    return weights


def test_numerator_bound_covers_every_numerator():
    # B_n >= ||N_n||_1 >= max|N_n| for every weight; at n = 60 it is 324 bits
    for n in range(61):
        for alpha in (0, 1, 2) if n > 40 else (0, 1, 2, 3):
            l1_norm = sum(map(abs, _oracle_numerator(alpha, n)))
            assert _bound(n) >= l1_norm, (alpha, n)
    assert _bound(60).bit_length() == 324
    # the Fubini form solves the recurrence: 2/(3 - e^(2t)) is the EGF of both
    assert [_bound(n) for n in range(200)] == [_bound_by_recurrence(n) for n in range(200)]


def test_width_is_the_old_weighted_width_rounded_to_64():
    for n in range(301):
        assert euler._width(n) == -(-_weighted_width_by_recurrence(n) // 64) * 64, n


def test_width_is_at_most_the_old_moment_width(monkeypatch, fresh_caches):
    # every family's width is at most the old rule's, and at least the chain's
    for n in range(61):
        for w in _family_weights(n):
            assert euler._width(n) <= euler._width(n, w) <= _moment_width_by_recurrence(n, w), n
    # and those are the term weights the families ask for
    asked = set()
    honest = euler._width
    monkeypatch.setattr(euler, "_width", lambda n, w=1: asked.add((n, w)) or honest(n, w))
    for identity in ("cor3", "thm4", "thm5", "thm6", "thm7", "thm8"):
        assert verify_identity(identity, 13).instances
    moments = {(n, w) for n, w in asked if w != 1}
    assert moments and all(w in _family_weights(n) for n, w in moments)


def test_packed_step_refuses_a_width_below_the_proof():
    least = euler._width(8)
    packed = euler._packed_chain(1, least, 7)
    value = euler._packed_chain(1, least, 8)[8]
    assert euler._packed_step(1, 8, packed, least) == value
    assert euler._packed_chain(1, least + 64, 8)[8] == _ipack(
        exactq._iunpack(value, least), least + 64)
    # below the bound, or not a whole number of bytes
    for narrow in (least - 64, least - 8, least + 4):
        with pytest.raises(ValueError, match="proven width"):
            euler._packed_step(1, 8, packed, narrow)


def test_weighted_values_match_the_list_sides():
    # the route check at q = 2^b against the coefficient lists it stands for
    for alpha in (1, 2, 3):
        for n in range(31):
            left, right = _list_weighted_sides(alpha, n)
            b, *values = euler._weighted_values(alpha, n)
            assert b == euler._width(n)
            assert values == [_ipack(left, b), _ipack(right, b)], (alpha, n)
            assert (values[0] == values[1]) == (left == right), (alpha, n)


def _moment_sides(n):
    """(b, sides): every moment side at n, as term lists, with the width it is packed at."""
    b = euler._bernstein_table(n)[0]
    yield b, [side for row in _moment_rows(n) for side in row]
    yield b, [side for sides in _thm6_sides(n, False) for side in sides]
    yield euler._shift_values(2, n, 1)[0], _thm5_sides(n)
    for s in range(1, 26, 2) if n <= euler._COR3_M_MAX else (1,):  # cor3, and thm4 at s = 1
        yield euler._shift_values(s, n)[0], _shift_sides(s, n)


def test_weighted_width_bounds_both_sides():
    # every coefficient of (q^alpha-1)^n N_n and of the closed form's side, of
    # every moment side, and of every Frobenius side F_l (1+q)^(n-l), is below
    # 2^(b-2) at the b it is packed at; the Frobenius sides already at _width(n)
    for n in range(41):
        b = euler._width(n)
        for alpha in (1, 2, 3):
            left, right = _list_weighted_sides(alpha, n)
            assert max(map(abs, left + right)).bit_length() <= b - 2, (alpha, n)
        for l in range(n + 1):
            assert max(map(abs, _frobenius_over(n, l))).bit_length() <= b - 2, (n, l)
    for n in range(26):
        for b, sides in _moment_sides(n):
            for side in sides:
                assert max(map(abs, _list_moment(n, *side)), default=0).bit_length() <= b - 2, n


def _with_numerator(monkeypatch, alpha, n, numerator):
    # N_n replaced at (alpha, n) where the recurrence makes it, at the memo's b;
    # every other value is the recurrence's own
    honest = euler._packed_step
    monkeypatch.setattr(
        euler, "_packed_step",
        lambda a, m, packed, b: _ipack(numerator, b) if (a, m) == (alpha, n)
        else honest(a, m, packed, b))


@pytest.mark.parametrize("alpha, n", [(1, 1), (1, 9), (2, 6), (3, 12)])
@pytest.mark.parametrize("where", ("top", "largest", "constant"))
@pytest.mark.parametrize("delta", (1, -1))
def test_weighted_values_detect_a_unit_change(alpha, n, where, delta, monkeypatch, fresh_caches):
    numerator = list(euler._weighted_numerator(alpha, n))
    k = {"top": len(numerator) - 1, "constant": 0,
         "largest": max(range(len(numerator)), key=lambda i: abs(numerator[i]))}[where]
    numerator[k] += delta
    euler._packed_chain.cache_clear()
    _with_numerator(monkeypatch, alpha, n, numerator)
    assert euler._weighted_numerator(alpha, n) == exactq._itrim(list(numerator))
    _, left, right = euler._weighted_values(alpha, n)
    assert left != right  # the ints
    left, right = _list_weighted_sides(alpha, n)
    assert left != right  # and the lists


@pytest.mark.parametrize("alpha, n", [(1, 4), (2, 10), (3, 20)])
def test_weighted_values_detect_a_carry(alpha, n, monkeypatch, fresh_caches):
    # +2^c at q^k and -1 at q^(k+1) vanish at the width c = max(bitlen(max|N_n|)
    # + n, 2n) + 2 read from the numerator.  The memo's b comes from the proven
    # bound B_n instead (``euler._width``), a multiple of 64 above c, so the
    # carry is seen
    numerator = list(euler._weighted_numerator(alpha, n))
    c = max(max(map(abs, numerator)).bit_length() + n, 2 * n) + 2
    b, k = euler._width(n), len(numerator) // 2
    assert c < b
    numerator[k] += 1 << c
    numerator[k + 1] -= 1
    assert _ipack(numerator, c) == _ipack(euler._weighted_numerator(alpha, n), c)
    euler._packed_chain.cache_clear()
    _with_numerator(monkeypatch, alpha, n, numerator)
    _, left, right = euler._weighted_values(alpha, n)
    assert left != right


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
    for seq in (
        classical_euler_numbers,
        q_euler_numbers,
        lambda n: weighted_recurrence(1, n),
        lambda n: frobenius_numbers(MINUS_Q_INV, n),
    ):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            seq(-1)
    for poly in (lambda n: frobenius_polynomial(MINUS_Q_INV, n), q_euler_polynomial):
        with pytest.raises(ValueError, match="n must be >= 0"):
            poly(-1)


@pytest.mark.parametrize("call, message", [
    (lambda: weighted_closed_form(1, -1), "n must be >= 0"),
    (lambda: q_euler_numbers_weighted(1, -1), "n_max must be >= 0"),
    (lambda: verify_identity("thm1", -1), "n_max must be >= 0"),
], ids=["weighted_closed_form", "q_euler_numbers_weighted", "verify_identity"])
def test_negative_index_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    assert repr(probe) == (
        "IdentityInstance(params=(0,), verdict='fail', expected='fail', "
        "note='n=0 excluded by the n >= 1 hypothesis; inequality confirmed', "
        "left=QRatFn(QPoly(['0', '0', '1']), QPoly(['1'])), "
        "right=QRatFn(QPoly(['1', '1', '1']), QPoly(['1'])))"
    )
    passed = (
        "IdentityInstance(params=(1,), verdict='pass', expected='pass', note='', "
        "left=None, right=None)"
    )
    assert repr(verify_identity("thm5", 1)) == (
        f"IdentityReport(identity_id='thm5', instances=({probe!r}, {passed}))"
    )
    with pytest.raises(AttributeError):
        probe.verdict = "pass"
    with pytest.raises(AttributeError):
        report.instances = ()


def test_k0_remark_witness_at_n1():
    report = verify_identity("k0-remark", 1)
    inst = report.instances[0]
    assert inst.verdict == "fail" and inst.ok
    assert inst.left == ratfn((1, 2), (1, 1))  # (1+2q)/(1+q)
    assert inst.right == ratfn((0, 0, -1), (1, 1))  # -q^2/(1+q)


def test_verify_identity_rejects_unknown():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("thm99", 3)


def test_sequences_safe_under_concurrent_fill(fresh_caches):
    # empty memos, so the threads fill weight 0 and weight 3 together
    results = []

    def worker():
        results.append((q_euler_numbers(25)[25], weighted_recurrence(3, 12)[12]))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert results[0] == (q_euler_numbers(25)[25], weighted_recurrence(3, 12)[12])
