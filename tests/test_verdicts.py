"""Integer-numerator verdicts against the canonical route, and under mutations.

Every identity decides each verdict by comparing two ints: integer
numerators over a shared known denominator at q = 2^b, or for classical
2^n E_n at q = 1.  Here every such verdict is checked against the canonical
comparison of the identity's two sides, built from the public API in
``QRatFn``/``XPoly`` arithmetic (for thm1, thm2 and classical, the routes
their verdicts were once decided on: ``weighted_recurrence(0, n)``,
``frobenius_numbers``, their polynomials and ``QRatFn.eval(1)`` against the
classical Fraction loop); and each check is shown to turn FAIL, with
witnesses whose sides really differ, when one of its inputs is broken on
purpose.  The moment tables are checked against the term-list route kept
here, each side a list of (c, s, l) terms.
"""

import inspect
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from qeuler import bernstein, euler, exactq
from qeuler.euler import (
    FAIL,
    MINUS_Q_INV,
    PASS,
    SUITES,
    frobenius_numbers,
    frobenius_polynomial,
    q_euler_numbers,
    q_euler_polynomial,
    verify_identity,
    weighted_closed_form,
    weighted_recurrence,
)
from qeuler.exactq import QPoly, QRatFn, XPoly
from test_exactq import _ipack, _over_one_plus, _times_one_plus  # packing, 1 + q^m

ONE, Q = QRatFn.one(), QRatFn.q()
N_MAX = 10


def _alt(e, n):
    total = QRatFn.zero()
    for l in range(n + 1):
        total = total + e[l] * ((-1) ** l * comb(n, l))
    return total


def _classical_by_fractions(n_max):
    """The classical Euler numbers by the Fraction loop: E_0 = 1, 2 E_n = -sum_{k<n} C(n,k) E_k."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(Fraction(-sum(comb(n, k) * out[k] for k in range(n)), 2))
    return out


def _sides(identity, n_max):
    """(left, right) of every instance, in report order, by the canonical route."""
    e = q_euler_numbers(n_max)
    if identity == "thm1":
        return list(zip(e, frobenius_numbers(MINUS_Q_INV, n_max)))
    if identity == "thm2":
        return [(q_euler_polynomial(n), frobenius_polynomial(MINUS_Q_INV, n))
                for n in range(n_max + 1)]
    if identity == "classical":
        return [(x.eval(1), c) for x, c in zip(e, _classical_by_fractions(n_max))]
    refl = [e[n].subst_q_inverse() for n in range(n_max + 1)]
    if identity == "cor3":  # every m = 0..15 at each odd n
        e = q_euler_numbers(15)
        return [(Q**n * q_euler_polynomial(m).eval(QRatFn.const(n)),
                 (ONE + Q) * QRatFn(QPoly([(-1) ** l * l**m for l in range(n)])) - e[m])
                for n in range(1, n_max + 1, 2) for m in range(16)]
    if identity == "thm4":
        return [(Q * q_euler_polynomial(n).eval(ONE),
                 (ONE + Q if n == 0 else QRatFn.zero()) - e[n]) for n in range(n_max + 1)]
    if identity == "thm5":
        return [(Q * Q * q_euler_polynomial(n).eval(QRatFn.const(2)), Q + Q * Q + e[n])
                for n in range(n_max + 1)]
    if identity == "thm6":
        out = []
        for n in range(n_max + 1):
            poly = q_euler_polynomial(n)
            left = poly.map_coeffs(QRatFn.subst_q_inverse).compose(XPoly((ONE, -ONE)))
            out.append((left, poly if n % 2 == 0 else -poly))
        return out
    if identity == "thm7":
        return [(_alt(e, n), ONE + Q + Q * Q * refl[n]) for n in range(1, n_max + 1)]
    if identity == "k0-remark":
        return [(_alt(e, n), Q * Q * refl[n]) for n in range(1, n_max + 1)]
    if identity == "weighted":
        return [(weighted_recurrence(a, n)[n], weighted_closed_form(a, n))
                for a in (1, 2, 3) for n in range(n_max + 1)]
    assert identity == "thm8"
    out = []
    for n in range(1, n_max + 1):
        out.append((_alt(e, n), Q * Q * refl[n]))
        out.append((_alt(e, n), ONE + Q + Q * Q * refl[n]))
        for k in range(1, n):
            left = QRatFn.zero()
            for l in range(n - k + 1):
                left = left + e[k + l] * (comb(n - k, l) * (-1) ** l)
            right = QRatFn.zero()
            for l in range(k + 1):
                right = right + Q * Q * refl[n - l] * (comb(k, l) * (-1) ** (k + l))
            out.append((left, right))
    return out


CONVERTED = tuple(run.identity for run in SUITES["all"])  # every identity is judged on ints


@pytest.fixture
def fresh_caches():
    """Empty every euler cache before and after, so a monkeypatched input reaches every route."""
    cached = [f for f in vars(euler).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


def _clear_caches():
    """Empty every euler cache now, as ``fresh_caches`` does around a test."""
    for f in vars(euler).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def _perturb_numerator(monkeypatch, n_bad=5, change=lambda b: 1 << b * 2):
    """Add change(b) to the weight-0 N_{n_bad}(2^b), where the recurrence makes it; 1 at q^2."""
    honest = euler._packed_step

    def perturbed(alpha, n, packed, b):
        # the recurrence reads N_k from its memo of packed values, so N_{n_bad}
        # feeds N_n, n > n_bad, every moment read from them and every list
        # unpacked from them
        value = honest(alpha, n, packed, b)
        return value + change(b) if (alpha, n) == (0, n_bad) else value

    monkeypatch.setattr(euler, "_packed_step", perturbed)


def _assert_matches_canonical(report, sides):
    assert len(report.instances) == len(sides)
    for inst, (left, right) in zip(report.instances, sides):
        assert inst.verdict == (PASS if left == right else FAIL), inst.params
        if inst.verdict == FAIL:
            assert (inst.left, inst.right) == (left, right), inst.params
            assert inst.left != inst.right


@pytest.mark.parametrize("identity", CONVERTED)
def test_integer_verdict_matches_canonical_comparison(identity, fresh_caches):
    _assert_matches_canonical(verify_identity(identity, N_MAX), _sides(identity, N_MAX))


@pytest.mark.parametrize("identity", ("thm1", "thm2", "cor3", "thm4", "thm5", "thm6", "thm7",
                                      "classical", "k0-remark", "thm8"))
def test_perturbed_numerator_fails_with_real_witnesses(identity, fresh_caches, monkeypatch):
    _perturb_numerator(monkeypatch)
    report = verify_identity(identity, N_MAX)
    _assert_matches_canonical(report, _sides(identity, N_MAX))
    if identity != "k0-remark":  # its instances fail by design either way
        assert not report.ok
        index = 1 if identity == "cor3" else 0  # cor3's params are (n, m)
        assert all(i.params[index] >= 5 for i in report.failures())


def test_perturbed_numerator_reaches_the_lists(fresh_caches, monkeypatch):
    _perturb_numerator(monkeypatch)
    honest = [0, -1, 26, -66, 26, -1]  # N_5 = -q(1 - 26q + 66q^2 - 26q^3 + q^4)
    numerator = euler._weighted_numerator(0, 5)
    assert numerator == [c + (i == 2) for i, c in enumerate(honest)]
    # the judge's moments at its own b: M_5 = N_5 over (1+q)^5, and its six
    # digits reversed, which puts N_5's zero constant term on top
    b = euler._bernstein_table(5)[0]
    assert exactq._iunpack(euler._packed_moments(5, False, b)[5], b) == numerator
    assert exactq._iunpack(euler._packed_moments(5, True, b)[5], b) == numerator[::-1][:5]


def test_reflected_moments_reverse_the_direct_memo(fresh_caches, monkeypatch):
    # E_{l,1/q}'s numerators are M_l's n+1 digits reversed, read from the
    # direct memo: no second walk of the weight-0 chain and its 1+q passes
    n, b = 12, 128
    direct = euler._packed_moments(n, False, b)

    def walked(alpha, b, n):
        raise AssertionError("the chain was walked again")

    monkeypatch.setattr(euler, "_packed_chain", walked)
    digits = [exactq._iunpack(m, b) for m in direct]
    assert euler._packed_moments(n, True, b) == tuple(
        _ipack((d + [0] * (n + 1 - len(d)))[::-1], b) for d in digits)


def test_passing_weighted_instances_build_no_factors(fresh_caches, monkeypatch):
    # only a failing instance's witnesses read the shared denominator's Phi_d exponents
    built = []
    honest = euler._closed_form_factors
    monkeypatch.setattr(euler, "_closed_form_factors",
                        lambda alpha, n: built.append((alpha, n)) or honest(alpha, n))
    assert verify_identity("weighted", 20).ok
    assert built == []


@lru_cache(maxsize=None)
def _moments_over(numerators):
    """The numerators over (1+q)^n of E_l and of E_{l,1/q}, l = 0..n, from N_0..N_n: lists.

    E_l = N_l / (1+q)^l, and q -> 1/q turns it into q^(l - deg N_l) rev(N_l)
    / (1+q)^l.  Over (1+q)^n, E_l's numerator is D = N_l (1+q)^(n-l), and
    E_{l,1/q}'s is q^(l - deg N_l) rev(D), since (1+q)^(n-l) is palindromic.
    """
    n = len(numerators) - 1
    direct, reflected = [], []
    for l, num in enumerate(numerators):
        shift = l + 1 - len(num)
        assert shift >= 0, f"deg N_{l} > {l}"
        d = list(num)
        for _ in range(n - l):
            d = _times_one_plus(d, 1)
        direct.append(tuple(d))
        reflected.append(tuple(exactq._itrim([0] * shift + d[::-1])))
    return tuple(direct), tuple(reflected)


def _list_moment(n, terms, reflected=False):
    """sum c*q^s*I(y^l) over the (c, s, l) terms as its numerator over (1+q)^n, a list.

    I(y^l) = E_l, or E_{l,1/q} when ``reflected``: the list route that the
    moment judge's values at q = 2^b are checked against, from the unpacked
    weight-0 numerators N_0..N_n.
    """
    numerators = tuple(tuple(euler._weighted_numerator(0, l)) for l in range(n + 1))
    moments = _moments_over(numerators)[reflected]
    return exactq._icombination([], ((c, s, moments[l]) for c, s, l in terms))


def _weighted_moment_by_division(alpha, n, coeffs):
    # reference: sum_j c_j prod_{0<=k<=n} f_k / f_j, f_k = 1+q^(alpha*k+1), with
    # the full product built once and divided by each f_j
    full = [1]
    for k in range(n + 1):
        full = _times_one_plus(full, alpha * k + 1)
    terms = ((c, 0, _over_one_plus(full, alpha * j + 1)) for j, c in enumerate(coeffs))
    return exactq._icombination([], terms)


def _list_weighted_sides(alpha, n):
    """(q^alpha-1)^n N_n and I((X-1)^n) as lists, the closed form by product and divide."""
    scaled = list(euler._weighted_numerator(alpha, n))
    for _ in range(n):
        scaled = exactq._ishift_add(scaled, alpha)  # times 1 - q^alpha
    closed = _weighted_moment_by_division(alpha, n, [comb(n, j) * (-1) ** (n - j)
                                                     for j in range(n + 1)])
    return exactq._itrim([-c for c in scaled] if n % 2 else scaled), closed


# The term-list route: a side is its (c, s, l) terms, each c*q^s*I(y^l), and
# whether I is the reflected functional I'(y^l) = E_{l,1/q}.  Every moment
# side is built here term by term, the oracle the judge's tables are checked
# against.

def _bernstein_left(n, k):
    """I(y^k (1-y)^(n-k)) = sum_l C(n-k,l) (-1)^l I(y^(k+l)), over (1+q)^n."""
    return [(comb(n - k, l) * (-1) ** l, 0, k + l) for l in range(n - k + 1)], False


def _bernstein_right(n, k, full):
    """sum_l C(k,l) (-1)^(k+l) ([1+q] + q^2 I'(y^(n-l))), over (1+q)^n; [1+q] if full."""
    terms = []
    for l in range(k + 1):
        c = comb(k, l) * (-1) ** (k + l)
        terms += [(c, 2, n - l), (c, 0, 0), (c, 1, 0)] if full else [(c, 2, n - l)]
    return terms, True


def _shift_sides(s, m, first=0):
    """q^s I((y+s)^m) and [2]_q sum_{first<=l<s} (-1)^(s-1-l) l^m q^l I(1) - (-1)^(s-1) I(y^m).

    Both over (1+q)^m: the shift family, cor3 at odd s and thm4 at s = 1.
    """
    left = [(comb(m, l) * s ** (m - l), s, l) for l in range(m + 1)], False
    right = [((-1) ** (s - 1 - l) * l**m, t, 0) for l in range(first, s) for t in (l, l + 1)]
    return left, (right + [(-(-1) ** (s - 1), 0, m)], False)


def _thm5_sides(n):
    """q^2 I((y+2)^n) and (q + q^2) I(1) + I(y^n), over (1+q)^n."""
    return ([(comb(n, l) * 2 ** (n - l), 2, l) for l in range(n + 1)], False), \
        ([(1, 1, 0), (1, 2, 0), (1, 0, n)], False)


def _thm6_sides(n, scaled=True):
    """Per x^j, C(n,j) (-1)^j I'((1+y)^(n-j)) and (-1)^n C(n,j) I(y^(n-j)), over (1+q)^n.

    Without ``scaled``, each side of x^j over C(n,j), as the judge compares them.
    """
    scale = [comb(n, j) if scaled else 1 for j in range(n + 1)]
    left = [([(scale[j] * (-1) ** j * comb(n - j, l), 0, l) for l in range(n - j + 1)], True)
            for j in range(n + 1)]
    right = [([((-1) ** n * scale[j], 0, n - j)], False) for j in range(n + 1)]
    return left, right


def _weight(sides):
    """W, the sum of |c| over all the sides' terms, from which ``euler._width`` takes b."""
    return sum(abs(c) for terms, _ in sides for c, _, _ in terms)


def _moment_values(n, sides):
    """(b, values): each side's numerator over (1+q)^n at q = 2^b, sum c * (P_l << b*s).

    P_l = M_l(2^b) (``euler._packed_moments``), at the sides' own ``euler._width``.
    """
    b = euler._width(n, _weight(sides))
    return b, [sum(c * euler._packed_moments(n, reflected, b)[l] << b * s for c, s, l in terms)
               for terms, reflected in sides]


def _moment_rows(n):
    """Every Bernstein row (n, k) thm8 checks, with and without the 1 + q constant at k = 0."""
    rows = [(_bernstein_left(n, 0), _bernstein_right(n, 0, True))]
    return rows + [(_bernstein_left(n, k), _bernstein_right(n, k, False)) for k in range(n)]


def _row_keys(n):
    """The (k, full) of each of ``_moment_rows(n)``, as ``euler._bernstein_row`` takes them."""
    return [(0, True)] + [(k, False) for k in range(n)]


def _list_route(monkeypatch):
    """Make every moment and weighted side on coefficient lists, by the oracles above.

    Each list is packed at the b the judge takes for the sides, where equal
    values are equal lists and every list unpacks again (the width proofs).
    The memos are emptied, so no verdict of the packed route is read back.
    """
    weighted_values = euler._weighted_values

    def packed(n, b, side):
        return _ipack(_list_moment(n, *side), b)

    def bernstein_table(n):
        b = euler._width(n, (1 << n) + 3)
        return (b, tuple(packed(n, b, _bernstein_left(n, k)) for k in range(n + 1)),
                tuple(packed(n, b, _bernstein_right(n, k, False)) for k in range(n + 1)),
                packed(n, b, _bernstein_right(n, 0, True)))

    def reflection_values(n):
        b = euler._width(n, (1 << n) + 3)
        return (b, *([packed(n, b, side) for side in sides] for sides in _thm6_sides(n, False)))

    def sides_values(n, sides):
        b = euler._width(n, _weight(sides))
        return (b, *(packed(n, b, side) for side in sides))

    def weighted(alpha, n):
        b = weighted_values(alpha, n)[0]
        return (b, *(_ipack(side, b) for side in _list_weighted_sides(alpha, n)))

    monkeypatch.setattr(euler, "_bernstein_table", bernstein_table)
    monkeypatch.setattr(euler, "_reflection_values", reflection_values)
    monkeypatch.setattr(euler, "_shift_values",
                        lambda s, m, first=0: sides_values(m, _shift_sides(s, m, first)))
    monkeypatch.setattr(euler, "_weighted_values", weighted)
    _clear_caches()


@pytest.mark.parametrize("identity", [run.identity for run in SUITES["all"]])
def test_verdicts_equal_the_list_route(identity, monkeypatch, fresh_caches):
    packed = [verify_identity(identity, n) for n in (1, 12, 30)]
    _list_route(monkeypatch)
    assert packed == [verify_identity(identity, n) for n in (1, 12, 30)]


@pytest.mark.parametrize("n", range(26))
def test_moment_tables_equal_the_term_lists(n):
    # every side the tables make, unpacked, against the same side summed term
    # by term on coefficient lists
    def unpacked(b, value):
        return exactq._iunpack(value, b)

    b, lefts, rights, full = euler._bernstein_table(n)
    for k in range(n + 1):
        assert unpacked(b, lefts[k]) == _list_moment(n, *_bernstein_left(n, k)), k
        assert unpacked(b, rights[k]) == _list_moment(n, *_bernstein_right(n, k, False)), k
        right = full if k == 0 else rights[k]  # the 1 + q summands cancel for k >= 1
        assert unpacked(b, right) == _list_moment(n, *_bernstein_right(n, k, True)), k
    # each row's own term-list width is at most the table's
    assert all(_moment_values(n, row)[0] <= b for row in _moment_rows(n))
    b6, lefts, rights = euler._reflection_values(n)
    assert b6 == b
    for j, (left, right) in enumerate(zip(*_thm6_sides(n))):
        assert [comb(n, j) * c for c in unpacked(b, lefts[j])] == _list_moment(n, *left), j
        assert [comb(n, j) * c for c in unpacked(b, rights[j])] == _list_moment(n, *right), j
    b, left, right = euler._shift_values(2, n, 1)
    assert b == _moment_values(n, _thm5_sides(n))[0]
    assert [unpacked(b, v) for v in (left, right)] == [_list_moment(n, *s) for s in _thm5_sides(n)]
    # the shift family at every s = n >= 1, even s too, where (-1)^(s-1) = -1;
    # no suite runs an even s but thm5's, so its verdict is asserted here
    for m in range(euler._COR3_M_MAX + 1) if n else ():
        b, left, right = euler._shift_values(n, m)
        sides = _shift_sides(n, m)
        assert b == _moment_values(m, sides)[0] and left == right, m
        assert [unpacked(b, v) for v in (left, right)] == [_list_moment(m, *s) for s in sides], m


def test_full_rows_above_k0_are_the_reduced_rows():
    # the 1 + q summands of a row cancel for k >= 1, so only row (n, 0) reads
    # the table's full right side
    for n in range(1, 13):
        for k in range(1, n):
            assert euler._bernstein_row(n, k, True) == euler._bernstein_row(n, k, False), (n, k)


@pytest.mark.parametrize("reflected", (False, True))
@pytest.mark.parametrize("n", (5, 8))
def test_a_unit_change_in_one_moment_fails_exactly_its_readers(
        n, reflected, monkeypatch, fresh_caches):
    # +1 in M_j (or M'_j) of one n, where the tables read it: a Bernstein row
    # fails exactly when one of its sides reads that moment (the k=0 remark
    # fails by design), and thm6 changes exactly the x^i coefficients that read it.
    # The honest memo is filled first, so M'_l stays honest when M_j changes
    honest = euler._packed_moments
    _, honest_lefts, honest_rights = euler._reflection_values(n)
    for j in range(n + 1):
        def perturbed(m, refl, b, j=j):
            values = honest(m, refl, b)
            if (m, refl) != (n, reflected):
                return values
            return values[:j] + (values[j] + 1,) + values[j + 1:]

        euler._bernstein_table.cache_clear()
        euler._bernstein_row.cache_clear()
        monkeypatch.setattr(euler, "_packed_moments", perturbed)
        failed = {key for key in _row_keys(n) if euler._bernstein_row(n, *key).verdict == FAIL}
        if reflected:  # right(n, k) reads M'_(n-l), l <= k; the full k = 0 row also M'_0
            readers = {(k, False) for k in range(n - j, n)}
            readers |= {(0, True)} if j in (0, n) else set()
        else:  # left(n, k) reads M_(k+l), l <= n - k
            readers = {(k, full) for k, full in _row_keys(n) if k <= j}
        assert failed == readers | {(0, False)}, j
        assert all(euler._bernstein_row(n, *key).left != euler._bernstein_row(n, *key).right
                   for key in failed)
        # x^i reads M'_l for l <= n - i on the left, M_(n-i) on the right
        _, lefts, rights = euler._reflection_values(n)
        changed = {i for i in range(n + 1)
                   if (lefts[i], rights[i]) != (honest_lefts[i], honest_rights[i])}
        assert changed == (set(range(n - j + 1)) if reflected else {n - j}), j


@pytest.mark.parametrize("delta", (1, -1))
@pytest.mark.parametrize("where", ("constant", "middle", "top"))
def test_moment_judge_detects_a_unit_change(delta, where, monkeypatch, fresh_caches):
    # N_5 off by one in one coefficient where the recurrence makes it: every
    # row of n = 8 fails on the packed route exactly when it does on the lists
    n, k = 8, {"constant": 0, "middle": 3, "top": 5}[where]
    _perturb_numerator(monkeypatch, change=lambda b: delta << b * k)
    for key, (left, right) in zip(_row_keys(n), _moment_rows(n)):
        verdict = euler._bernstein_row(n, *key).verdict
        assert verdict == (PASS if _list_moment(n, *left) == _list_moment(n, *right) else FAIL)
    # each left side of n = 8 reads E_8, which N_5 feeds; no row of n = 4
    # reads N_5, and there only the k=0 remark fails, by design
    verdicts = [euler._bernstein_row(m, *key).verdict for m in (4, 8) for key in _row_keys(m)]
    assert verdicts == [PASS, FAIL] + [PASS] * 3 + [FAIL] * 9


def test_moment_judge_detects_a_carry(monkeypatch, fresh_caches):
    # +2^c at q^k and -1 at q^(k+1) of N_5 vanish at the width c read from the
    # honest moments, bitlen(W) + beta + 1 with beta the bit length of their
    # largest coefficient.  The table's b comes from the proven bound B_8
    # instead, a multiple of 64 above c, so the carry is seen
    n, k = 8, 3
    left, right = _moment_rows(n)[3]  # row (8, 2), whose left side reads M_5
    w = _weight((left, right))
    numerators = tuple(tuple(euler._weighted_numerator(0, l)) for l in range(n + 1))
    beta = max(abs(c) for m in _moments_over(numerators)[0] for c in m).bit_length()
    c = w.bit_length() + beta + 1
    assert c < euler._bernstein_table(n)[0]
    carried = list(numerators[5])
    carried[k] += 1 << c
    carried[k + 1] -= 1
    assert _ipack(carried, c) == _ipack(numerators[5], c)
    _clear_caches()  # the chain, the moments read from it and the tables
    _perturb_numerator(monkeypatch, change=lambda b: (1 << c + b * k) - (1 << b * (k + 1)))
    assert euler._weighted_numerator(0, 5) == carried
    inst = euler._bernstein_row(n, 2, False)
    assert inst.verdict == FAIL and inst.left != inst.right


@pytest.mark.parametrize("n_bad", (2, 3))  # both signs of (-1)^n in the closed form
def test_weighted_off_by_one_fails_with_real_witnesses(n_bad, fresh_caches, monkeypatch):
    honest = euler._alternating_numerator

    def perturbed(alpha, n, b):
        # one q-coefficient up by 1 at q = 2^b: the route check, the witnesses
        # and the closed form all unpack the same perturbed polynomial
        t = honest(alpha, n, b)
        if n == n_bad:
            t += 1 << (b * (len(exactq._iunpack(t, b)) // 2))
        return t

    monkeypatch.setattr(euler, "_alternating_numerator", perturbed)
    report = verify_identity("weighted", 4)
    assert [i.params for i in report.failures()] == [(1, n_bad), (2, n_bad), (3, n_bad)]
    for inst in report.failures():
        alpha, n = inst.params
        sides = (weighted_recurrence(alpha, n)[n], weighted_closed_form(alpha, n))
        assert (inst.left, inst.right) == sides
        assert inst.left != inst.right


def _mutated(monkeypatch, name, old, new):
    """euler's ``name`` recompiled with its one ``old`` replaced by ``new``, and patched in."""
    source = inspect.getsource(getattr(euler, name))
    assert sum(inspect.getsource(m).count(old) for m in (euler, bernstein)) == 1
    namespace = dict(vars(euler))
    exec(compile(source.replace(old, new), euler.__file__, "exec"), namespace)
    _clear_caches()
    monkeypatch.setattr(euler, name, namespace[name])


def test_theorem8_sign_mutation_fails_with_real_witnesses(monkeypatch, fresh_caches):
    # (-1)^(k+l) -> (-1)^l drops the (-1)^k the table puts on nabla^k M'_n: it
    # negates the reduced right side of every odd-k row, on the integer route
    # and on the canonical one its witnesses come from
    assert bernstein.verify_theorem8(12).ok
    _mutated(monkeypatch, "_bernstein_table", "(-t if k % 2 else t) << 2 * b", "t << 2 * b")
    report = bernstein.verify_theorem8(12)
    failed = report.failures()
    assert len(failed) == 36
    assert {i.params for i in failed} == {(n, k) for n in range(2, 13) for k in range(1, n, 2)}
    assert all(i.left != i.right for i in failed)


def test_wrong_fubini_term_fails_thm1_and_thm2_with_real_witnesses(monkeypatch, fresh_caches):
    # F(5,2) + 1 where the Fubini rows are made: row 5 and every row built
    # from it change, on the packed Frobenius side and on the canonical
    # route alike, and the recurrence does not read them
    honest = euler._fubini_row
    monkeypatch.setattr(euler, "_fubini_row", lambda n: tuple(
        f + (n == 5 and k == 2) for k, f in enumerate(honest(n))))
    for identity in ("thm1", "thm2"):
        report = verify_identity(identity, N_MAX)
        _assert_matches_canonical(report, _sides(identity, N_MAX))
        assert [i.params for i in report.failures()] == [(n,) for n in range(5, N_MAX + 1)]
    assert verify_identity("classical", N_MAX).ok


def test_frobenius_sign_mutation_fails_with_real_witnesses(monkeypatch, fresh_caches):
    # (-1)^l dropped from H_l(-1/q) = (-1)^l F_l / (1+q)^l negates every odd l
    e = q_euler_numbers(N_MAX)
    _mutated(monkeypatch, "_frobenius_value", "return -value if l % 2 else value", "return value")
    report = verify_identity("thm1", N_MAX)
    assert [i.params for i in report.failures()] == [(n,) for n in range(1, N_MAX + 1, 2)]
    assert all((i.left, i.right) == (e[n], -e[n]) for i in report.failures() for n in i.params)
    report = verify_identity("thm2", N_MAX)
    assert [i.params for i in report.failures()] == [(n,) for n in range(1, N_MAX + 1)]
    for inst in report.failures():
        (n,) = inst.params
        poly = q_euler_polynomial(n)
        flipped = XPoly(-c if (n - j) % 2 else c for j, c in enumerate(poly.coeffs))
        assert (inst.left, inst.right) == (poly, flipped) and poly != flipped


def test_thm5_is_the_shift_family_without_its_l0_term(monkeypatch, fresh_caches):
    # the family at s = 2 holds at m = 0, where thm5 leaves out its l = 0
    # term -[2]_q 0^0; for m >= 1 that term is 0 and both builds agree
    b, left, right = euler._shift_values(2, 0)
    assert left == right
    assert euler._shift_values(2, 0, 1) == (b, left, right + 1 + (1 << b))
    assert all(euler._shift_values(2, m) == euler._shift_values(2, m, 1) for m in range(1, 31))
    # (-1)^(s-1) -> +1 before E_m negates E_m at every even s: thm5 fails at
    # each n >= 1 with the sides q^2 E_n(2) and q + q^2 - E_n, and the odd
    # shifts of cor3 and thm4 do not see it
    e = q_euler_numbers(N_MAX)
    _mutated(monkeypatch, "_shift_values", "(-1) ** (s - 1) * moments[m]", "moments[m]")
    report = verify_identity("thm5", N_MAX)
    assert [i.params for i in report.failures()] == [(n,) for n in range(1, N_MAX + 1)]
    for inst in report.failures():
        (n,) = inst.params
        assert (inst.left, inst.right) == (Q * Q * q_euler_polynomial(n).eval(QRatFn.const(2)),
                                           Q + Q * Q - e[n])
        assert inst.left != inst.right
    assert verify_identity("cor3", N_MAX).ok and verify_identity("thm4", N_MAX).ok


def test_uncentred_residue_fails_classical_with_real_witnesses(monkeypatch, fresh_caches):
    # N_n(2^b) mod 2^b - 1 left in [0, 2^b - 1): every negative N_n(1) fails
    _mutated(monkeypatch, "_check_classical", "if 2 * value > modulus:", "if False:")
    report = euler._check_classical(N_MAX)
    oracle = _classical_by_fractions(N_MAX)
    negative = [(n,) for n in range(N_MAX + 1) if oracle[n] < 0]
    assert [i.params for i in report if not i.ok] == negative
    assert len([i for i in report if not i.ok]) == 3  # E_1, E_5, E_9
    for inst in (i for i in report if not i.ok):
        (n,) = inst.params
        modulus = (1 << euler._width(n, (1 << n) + 3)) - 1
        assert (inst.left, inst.right) == (oracle[n] + Fraction(modulus, 1 << n), oracle[n])


def test_every_fail_in_the_full_suite_carries_real_witnesses():
    failed = []
    for run in SUITES["all"]:
        for inst in verify_identity(run.identity, max(12, run.n_floor)).instances:
            if inst.verdict == FAIL:
                assert inst.left is not None and inst.left != inst.right, (run.identity, inst.params)
                failed.append((run.identity, inst.params))
    assert sorted(failed) == sorted(
        [("k0-remark", (n,)) for n in range(1, 13)]
        + [("thm8", (n, 0, "k0-remark")) for n in range(1, 13)]
        + [("thm5", (0,))]
    )



def test_passing_instances_build_no_ratfn(fresh_caches, monkeypatch):
    # Count the constructor and ``_raw``, the two ways a QRatFn is built.  A
    # patched ``__new__`` would leave the type's constructor slot broken for
    # every later QRatFn(num, den), even after the patch is undone.
    built = []
    honest_init, honest_raw = QRatFn.__init__, QRatFn._raw.__func__

    def counting_init(self, *args):
        built.append("init")
        honest_init(self, *args)

    def counting_raw(cls, num, den):
        built.append("raw")
        return honest_raw(cls, num, den)

    with monkeypatch.context() as patched:
        patched.setattr(QRatFn, "__init__", counting_init)
        patched.setattr(QRatFn, "_raw", classmethod(counting_raw))
        for identity in ("thm1", "thm2", "cor3", "thm4", "thm6", "thm7", "classical", "weighted"):
            assert verify_identity(identity, N_MAX).ok
        assert built == []
        assert bernstein.verify_theorem8(3).ok
        assert len(built) > 0  # the k=0 remark rows fail by design and carry witnesses
    assert "__new__" not in vars(QRatFn)
    assert QRatFn(Q.num, Q.den) == Q
