"""Integer-numerator verdicts against the canonical route, and under mutations.

cor3, thm4-thm8 and weighted decide each verdict by comparing integer numerators
over a shared known denominator.  Here every such verdict is checked
against the canonical comparison of the identity's two sides, built from
the public API in ``QRatFn``/``XPoly`` arithmetic; and each check is shown
to turn FAIL, with witnesses whose sides really differ, when one of its
inputs is broken on purpose.
"""

import inspect
from functools import lru_cache
from math import comb

import pytest

from qeuler import bernstein, euler, exactq
from qeuler.euler import (
    FAIL,
    PASS,
    SUITES,
    q_euler_numbers,
    q_euler_polynomial,
    verify_identity,
    weighted_closed_form,
    weighted_recurrence,
)
from qeuler.exactq import QPoly, QRatFn, XPoly
from test_exactq import _ipack  # the packing oracle

ONE, Q = QRatFn.one(), QRatFn.q()
N_MAX = 10


def _alt(e, n):
    total = QRatFn.zero()
    for l in range(n + 1):
        total = total + e[l] * ((-1) ** l * comb(n, l))
    return total


def _sides(identity, n_max):
    """(left, right) of every instance, in report order, by the canonical route."""
    e = q_euler_numbers(n_max)
    refl = [e[n].subst_q_inverse() for n in range(n_max + 1)]
    if identity == "cor3":  # every m = 0..15 at each odd n
        e = q_euler_numbers(15)
        return [(Q**n * q_euler_polynomial(m).eval(QRatFn.const(n)) + e[m],
                 (ONE + Q) * QRatFn(QPoly([(-1) ** l * l**m for l in range(n)])))
                for n in range(1, n_max + 1, 2) for m in range(16)]
    if identity == "thm4":
        return [(Q * q_euler_polynomial(n).eval(ONE) + e[n], ONE + Q if n == 0 else QRatFn.zero())
                for n in range(n_max + 1)]
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


CONVERTED = ("cor3", "thm4", "thm5", "thm6", "thm7", "k0-remark", "weighted", "thm8")


@pytest.fixture
def fresh_caches():
    """Empty every euler cache before and after, so a monkeypatched input reaches every route."""
    cached = [f for f in vars(euler).values() if hasattr(f, "cache_clear")]
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
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


@pytest.mark.parametrize("identity", ("cor3", "thm4", "thm5", "thm6", "thm7", "k0-remark", "thm8"))
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
    b = euler._moment_values(5, list(_moment_rows(5)[0]))[0]
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
            d = exactq._ishift_add(d, 1)
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
        full = exactq._ishift_add(full, alpha * k + 1)
    terms = ((c, 0, exactq._ishift_div(full, alpha * j + 1)) for j, c in enumerate(coeffs))
    return exactq._icombination([], terms)


def _list_weighted_sides(alpha, n):
    """(q^alpha-1)^n N_n and I((X-1)^n) as lists, the closed form by product and divide."""
    scaled = list(euler._weighted_numerator(alpha, n))
    for _ in range(n):
        scaled = exactq._ishift_add(scaled, alpha, -1)  # times 1 - q^alpha
    closed = _weighted_moment_by_division(alpha, n, [comb(n, j) * (-1) ** (n - j)
                                                     for j in range(n + 1)])
    return exactq._itrim([-c for c in scaled] if n % 2 else scaled), closed


def _list_route(monkeypatch):
    """Make every moment and weighted side on coefficient lists, by the oracles above.

    Each list is packed at the b the judge takes for the sides, where equal
    values are equal lists and every list unpacks again (the width proofs).
    """
    moment_values, weighted_values = euler._moment_values, euler._weighted_values

    def moments(n, sides):
        b = moment_values(n, sides)[0]
        return b, [_ipack(_list_moment(n, *side), b) for side in sides]

    def weighted(alpha, n):
        b = weighted_values(alpha, n)[0]
        return (b, *(_ipack(side, b) for side in _list_weighted_sides(alpha, n)))

    monkeypatch.setattr(euler, "_moment_values", moments)
    monkeypatch.setattr(euler, "_weighted_values", weighted)


@pytest.mark.parametrize("identity", [run.identity for run in SUITES["all"]])
def test_verdicts_equal_the_list_route(identity, monkeypatch):
    packed = [verify_identity(identity, n) for n in (1, 12, 30)]
    _list_route(monkeypatch)
    assert packed == [verify_identity(identity, n) for n in (1, 12, 30)]


def _moment_rows(n):
    """Every Bernstein row (n, k) thm8 checks, with and without the 1 + q constant at k = 0."""
    rows = [(euler._bernstein_left(n, 0), euler._bernstein_right(n, 0, True))]
    return rows + [(euler._bernstein_left(n, k), euler._bernstein_right(n, k, False))
                   for k in range(n)]


@pytest.mark.parametrize("delta", (1, -1))
@pytest.mark.parametrize("where", ("constant", "middle", "top"))
def test_moment_judge_detects_a_unit_change(delta, where, monkeypatch, fresh_caches):
    # N_5 off by one in one coefficient where the recurrence makes it: every
    # row of n = 8 fails on the packed route exactly when it does on the lists
    n, k = 8, {"constant": 0, "middle": 3, "top": 5}[where]
    _perturb_numerator(monkeypatch, change=lambda b: delta << b * k)
    for left, right in _moment_rows(n):
        verdict = euler._moment_instance((), n, left, right).verdict
        assert verdict == (PASS if _list_moment(n, *left) == _list_moment(n, *right) else FAIL)
    # each left side of n = 8 reads E_8, which N_5 feeds; no row of n = 4
    # reads N_5, and there only the k=0 remark fails, by design
    verdicts = [euler._moment_instance((), m, *row).verdict
                for m in (4, 8) for row in _moment_rows(m)]
    assert verdicts == [PASS, FAIL] + [PASS] * 3 + [FAIL] * 9


def test_moment_judge_detects_a_carry(monkeypatch, fresh_caches):
    # +2^c at q^k and -1 at q^(k+1) of N_5 vanish at the width c read from the
    # honest moments, bitlen(W) + beta + 1 with beta the bit length of their
    # largest coefficient.  The judge's b comes from the proven bound B_8
    # instead, a multiple of 64 above c, so the carry is seen
    n, k = 8, 3
    left, right = _moment_rows(n)[3]  # row (8, 2), whose left side reads M_5
    w = sum(abs(c) for terms, _ in (left, right) for c, _, _ in terms)
    numerators = tuple(tuple(euler._weighted_numerator(0, l)) for l in range(n + 1))
    beta = max(abs(c) for m in _moments_over(numerators)[0] for c in m).bit_length()
    c = w.bit_length() + beta + 1
    assert c < euler._moment_values(n, [left, right])[0]
    carried = list(numerators[5])
    carried[k] += 1 << c
    carried[k + 1] -= 1
    assert _ipack(carried, c) == _ipack(numerators[5], c)
    euler._packed_chain.cache_clear()  # and the moments read from it
    euler._packed_moments.cache_clear()
    _perturb_numerator(monkeypatch, change=lambda b: (1 << c + b * k) - (1 << b * (k + 1)))
    assert euler._weighted_numerator(0, 5) == carried
    inst = euler._moment_instance((), n, left, right)
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


def test_theorem8_sign_mutation_fails_with_real_witnesses(monkeypatch):
    # (-1)^(k+l) -> (-1)^l negates the reduced right side of every odd-k row,
    # on the integer route and on the canonical one its witnesses come from
    sign = "(-1) ** (k + l)"
    assert sum(inspect.getsource(m).count(sign) for m in (euler, bernstein)) == 1
    namespace = dict(vars(euler))
    source = inspect.getsource(euler._bernstein_right).replace(sign, "(-1) ** l")
    exec(compile(source, euler.__file__, "exec"), namespace)
    assert bernstein.verify_theorem8(12).ok
    monkeypatch.setattr(euler, "_bernstein_right", namespace["_bernstein_right"])
    report = bernstein.verify_theorem8(12)
    failed = report.failures()
    assert len(failed) == 36
    assert {i.params for i in failed} == {(n, k) for n in range(2, 13) for k in range(1, n, 2)}
    assert all(i.left != i.right for i in failed)


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
        for identity in ("cor3", "thm4", "thm6", "thm7", "weighted"):
            assert verify_identity(identity, N_MAX).ok
        assert built == []
        assert bernstein.verify_theorem8(3).ok
        assert len(built) > 0  # the k=0 remark rows fail by design and carry witnesses
    assert "__new__" not in vars(QRatFn)
    assert QRatFn(Q.num, Q.den) == Q
