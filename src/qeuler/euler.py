"""q-Euler numbers/polynomials with weight 0, Frobenius-Euler numbers, and
the symbolic identity suite.

Everything is exact: sequence entries are canonical ``QRatFn`` values, so
two of them are equal exactly when their representations are identical.

One integer recurrence, run over the known denominators, serves every
weight alpha >= 0; weight 0 is its alpha = 0 case.  Two independent routes
check it and are never merged with it:

* Frobenius-Euler numbers come from their Stirling closed form, an integer
  numerator over (a-b)^n for u = a/b, canonical by proof; their agreement
  with weight 0 at u = -1/q is a verified identity, not a definition.
* for alpha >= 1, the alternating closed form, ``_weighted_moment`` at
  (X-1)^n; ``q_euler_numbers_weighted`` and the weighted check compare the two.

Each of cor3, thm4-thm8 and the k=0 remark says that the fermionic integral
of some f equals some g.  ``_moment`` maps the terms of a side through
I(y^l) = E_l, or I'(y^l) = E_{l,1/q}, to an integer numerator over (1+q)^n;
``_weighted_moment`` maps them through I(X^j) = [2]_q/(1+q^(alpha*j+1)),
X = q^(alpha*x).  The verdict is the equality of the two numerators: field
equality, since the denominator is nonzero.  A failing instance keeps both,
reduced to canonical form, as its witness.  thm1, thm2 and classical compare
canonical values: the recurrence against the Frobenius closed form or the
classical Euler numbers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .exactq import (
    QPoly,
    QRatFn,
    XPoly,
    _coerce,
    _cyclotomic_quotient,
    _cyclotomic_scale,
    _icombination,
    _imul,
    _ishift_add,
    _itrim,
    _qpoly,
    one_plus_q_power_factors,
)

ZERO = QRatFn.zero()
ONE = QRatFn.one()
Q = QRatFn.q()
MINUS_Q_INV = QRatFn(QPoly((-1,)), QPoly((0, 1)))  # -1/q, the Frobenius parameter


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

def _warm(cache_fn, n_max: int, *args) -> None:
    # fill the prefix iteratively so no request recurses more than one level
    for i in range(n_max + 1):
        cache_fn(*args, i)


def q_euler_numbers(n_max: int) -> tuple[QRatFn, ...]:
    """Weight-0 q-Euler numbers via (1+q)*E_n = -q * sum_{k<n} C(n,k) E_k, E_0 = 1.

    Entry n is also the n-th moment of the fermionic measure; the padic
    module checks that numerically.
    """
    return weighted_recurrence(0, n_max)


@lru_cache(maxsize=None)
def _frobenius_number(u: QRatFn, n: int) -> QRatFn:
    """H_n(u) = sum_{k<=n} k! S(n,k) w^k, w = 1/(u-1): the Fubini polynomial at w.

    With exp(t) - u = (1-u) + (exp(t)-1), (1-u)/(exp(t)-u) = sum_k w^k (exp(t)-1)^k,
    and (exp(t)-1)^k = k! sum_n S(n,k) t^n/n! (Concrete Mathematics, 7.4),
    where F(n,k) = k! S(n,k) = sum_{j<=k} (-1)^(k-j) C(k,j) j^n with 0^0 = 1.
    With u = a/b, a and b coprime in Z[q] (one integer scales u's num and den),
    w = b/c for c = a - b, and H_n(u) = N/c^n with N = sum_k F(n,k) b^k c^(n-k).
    That is canonical: mod c, N = F(n,n) b^n = n! b^n, and gcd(b, c) = gcd(b, a) = 1.
    """
    if (u := _coerce(u)) is NotImplemented:
        raise TypeError("the Frobenius parameter must be an int, Fraction, QPoly or QRatFn")
    r = u.num.content / u.den.content
    a, b = [r.numerator * x for x in u.num.prim], [r.denominator * x for x in u.den.prim]
    c = _icombination(a, [(-1, 0, b)])
    if not c:
        raise ValueError("singular Frobenius parameter u = 1")
    acc, c_pow = [factorial(n)], [1]  # homogeneous Horner from F(n,n) = n!
    for k in range(n - 1, -1, -1):
        c_pow = _imul(c_pow, c)
        f = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1))
        acc = _icombination(_imul(acc, b), [(f, 0, c_pow)])
    return QRatFn._raw(_qpoly(acc, Fraction(1, c_pow[-1])), _qpoly(c_pow).monic()) if acc else ZERO


def frobenius_numbers(u: QRatFn, n_max: int) -> tuple[QRatFn, ...]:
    """Frobenius-Euler numbers: (1-u)/(exp(t)-u) = sum_n H_n(u) t^n/n!, singular at u = 1.

    Each entry is computed on its own by ``_frobenius_number(u, n)``, a
    polynomial in 1/(u-1) whose coefficients are the integers k! S(n,k).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return tuple(_frobenius_number(u, n) for n in range(n_max + 1))


# ---------------------------------------------------------------------------
# weighted sequences: the integer recurrence, and the closed form for a >= 1
# ---------------------------------------------------------------------------
#
# For integer weight a >= 0 the denominators are structurally known:
# products of (1 + q^(a*k+1)) factors plus, for the closed form, a power of
# 1 - q^a.  All of those split into cyclotomic polynomials, so a denominator
# is kept as its Counter of Phi_d exponents.  The canonical form is reached
# by trial-dividing the numerator by each Phi_d in it, or, for the
# recurrence, by one division down to ``_canonical_denominator`` -- no large
# generic gcd is ever needed.  The numerators have integer coefficients
# throughout, so this entire path runs on the exactq kernel's int lists and
# becomes a QPoly only at the very end.

def _one_plus_q_powers(ms) -> Counter:
    """The index d of each Phi_d in prod (1 + q^m) over ms, counted with multiplicity."""
    factors = Counter()
    for m in ms:
        factors.update(one_plus_q_power_factors(m))
    return factors


def _reduce_over_cyclotomics(num: list[int], factors: Counter, den: QPoly | None = None) -> QRatFn:
    """num / prod Phi_d^factors[d] in canonical form.

    Each Phi_d is divided out of num while it still divides it.  The monic
    denominator is ``den``, the head start prod Phi_d^factors[d], when none
    was found; otherwise it is built from the exponents left.
    """
    _itrim(num)
    if not num:
        return ZERO
    left = Counter(factors)
    for d in factors:
        while left[d] and (quotient := _cyclotomic_quotient(num, d)) is not None:
            num = quotient
            left[d] -= 1
    if den is None or left != factors:
        den = _qpoly(_cyclotomic_scale([1], left))
    return QRatFn._raw(_qpoly(num), den)


def _check_weight(alpha: int, minimum: int) -> None:
    if not isinstance(alpha, int) or isinstance(alpha, bool) or alpha < minimum:
        raise ValueError(f"weight must be an integer >= {minimum}, got {alpha!r}")


@lru_cache(maxsize=None)
def _weighted_numerators(alpha: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """Unreduced numerators N_n with N_n / prod_{1<=k<=n} (1+q^(alpha*k+1)) = E^(alpha)_n."""
    if n_max == 0:
        return ((1,),)
    nums = _weighted_numerators(alpha, n_max - 1)
    n = n_max
    # Horner over the sparse factors f_j = 1 + q^(alpha*j+1):
    # S = sum_{k<n} C(n,k) q^(alpha*k) N_k * prod_{j=k+1..n-1} f_j,
    # built ascending so the k-th term picks up exactly the factors j > k.
    s: list[int] = []
    for k in range(n):
        s = _icombination(_ishift_add(s, alpha * k + 1), [(comb(n, k), alpha * k, nums[k])])
    return nums + (tuple([0] + [-c for c in s]),)  # N_n = -q * S


@lru_cache(maxsize=None)
def _canonical_denominator(alpha: int, n: int) -> tuple[Counter, QPoly]:
    """den_n = Phi_2^(n*[alpha even]) prod_{d in S_n, d != 2} Phi_d, as exponents and a QPoly.

    S_n holds the d with Phi_d | 1 + q^(alpha*k+1), 1 <= k <= n.  E^(alpha)_n's
    canonical denominator divides den_n: the recurrence puts E_n over D_n =
    prod_{1<=k<=n} (1+q^(alpha*k+1)), the closed form over (q^alpha-1)^n
    lcm_{0<=l<=n} (1+q^(alpha*l+1)) / [2]_q.  A d != 2 in S_n does not divide
    alpha (d | alpha and d | 2(alpha*k+1) force d | 2), so the second bound
    holds Phi_d at most once.  For odd alpha its lcm holds Phi_2 once and [2]_q
    cancels it; for even alpha D_n caps Phi_2's exponent at n.  Equality is
    unproven, so ``_weighted_entry`` still tests what is left for coprimality.
    """
    if n == 0:
        return Counter(), QPoly.one()
    exps, den = _canonical_denominator(alpha, n - 1)
    new = {d: 1 for d in one_plus_q_power_factors(alpha * n + 1)
           if (d not in exps if d != 2 else alpha % 2 == 0)}
    return exps + Counter(new), _qpoly(_cyclotomic_scale(den.prim, new))


@lru_cache(maxsize=None)
def _weighted_entry(alpha: int, n: int) -> QRatFn:
    """E^(alpha)_n: N_n divided exactly by D_n / den_n, then reduced; callers warm N_n first."""
    exps, den = _canonical_denominator(alpha, n)
    quotient = _one_plus_q_powers(alpha * k + 1 for k in range(1, n + 1)) - exps
    num = _cyclotomic_scale(_weighted_numerators(alpha, n)[n], {d: -k for d, k in quotient.items()})
    return _reduce_over_cyclotomics(num, exps, den)


def weighted_recurrence(alpha: int, n_max: int) -> tuple[QRatFn, ...]:
    """Weight-alpha numbers from E_n*(1+q^(alpha*n+1)) = -q*sum_{k<n} C(n,k) q^(alpha*k) E_k."""
    _check_weight(alpha, 0)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    _warm(_weighted_numerators, n_max, alpha)
    return tuple(_weighted_entry(alpha, n) for n in range(n_max + 1))


def _weighted_moment(alpha: int, n: int, coeffs: Sequence[int]) -> list[int]:
    """I(sum_j c_j X^j), X = q^(alpha*x), j <= n, as its numerator over D_n.

    D_n = prod_{1<=k<=n} (1+q^(alpha*k+1)), and a geometric sum gives
    I(X^j) = [2]_q/(1+q^(alpha*j+1)) = prod_{k<=n, k != j} f_k / D_n, f_k = 1+q^(alpha*k+1).
    By Horner, A_j = A_{j-1} f_j + c_j P_{j-1} with P_j = prod_{k<=j} f_k, and A_n is it.
    """
    acc, prod = [], [1]
    for j in range(n + 1):
        c = coeffs[j] if j < len(coeffs) else 0
        acc = _icombination(_ishift_add(acc, alpha * j + 1), [(c, 0, prod)])
        if j + 1 < len(coeffs):  # P_j is read only by a later c_j
            prod = _ishift_add(prod, alpha * j + 1)
    return acc


def _alternating_numerator(alpha: int, n: int) -> list[int]:
    """(-1)^n T_n = I((X-1)^n) over D_n, the closed form's numerator (``weighted_closed_form``)."""
    return _weighted_moment(alpha, n, [comb(n, j) * (-1) ** (n - j) for j in range(n + 1)])


def weighted_closed_form(alpha: int, n: int) -> QRatFn:
    """Weight-alpha number from the alternating closed-form sum,

        [2]_q / ((1-q)^n [alpha]_q^n) * sum_{l=0..n} C(n,l)(-1)^l / (1+q^(alpha*l+1)),

    which is T_n / ((1-q^alpha)^n D_n) = (-1)^n T_n / ((q^alpha-1)^n D_n), with
    (-1)^n T_n from ``_alternating_numerator`` and D_n = prod_{1<=k<=n}
    (1+q^(alpha*k+1)): [2]_q is the j = 0 factor.
    """
    _check_weight(alpha, 1)
    if n < 0:
        raise ValueError("n must be >= 0")
    factors = _closed_form_factors(alpha, n)
    return _reduce_over_cyclotomics(_alternating_numerator(alpha, n), factors)


def _closed_form_factors(alpha: int, n: int) -> Counter:
    """The Phi_d exponents of (q^alpha - 1)^n D_n, the denominator both weighted routes share."""
    factors = _one_plus_q_powers(alpha * k + 1 for k in range(1, n + 1))
    factors.update({d: n for d in range(1, alpha + 1) if alpha % d == 0})  # q^alpha - 1
    return factors


def _weighted_sides(alpha: int, n: int) -> tuple[list[int], list[int]]:
    """(q^alpha-1)^n N_n and I((X-1)^n): E^(alpha)_n by each route, over _closed_form_factors."""
    _warm(_weighted_numerators, n, alpha)
    scaled = list(_weighted_numerators(alpha, n)[n])
    for _ in range(n):
        scaled = _ishift_add(scaled, alpha, -1)  # times 1 - q^alpha
    return _itrim([-c for c in scaled] if n % 2 else scaled), _alternating_numerator(alpha, n)


def q_euler_numbers_weighted(alpha: int, n_max: int) -> tuple[QRatFn, ...]:
    """Weight-alpha numbers computed by both independent routes.

    The recurrence gives E_n = N_n / D_n with D_n = prod_{1<=k<=n} (1+q^(alpha*k+1))
    (``_weighted_numerators``), and the closed form gives
    E_n = T_n / ((1-q^alpha)^n D_n) (``weighted_closed_form``).  Over the
    shared nonzero denominator (q^alpha-1)^n D_n the two values are equal in
    the field exactly when the integer polynomials (q^alpha-1)^n N_n and
    (-1)^n T_n are equal (``_weighted_sides``).  That identity is checked
    for every n; a mismatch would mean a kernel bug and raises.  The values
    returned are the recurrence's, in canonical form.
    """
    _check_weight(alpha, 1)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rec = weighted_recurrence(alpha, n_max)
    for n in range(n_max + 1):
        left, right = _weighted_sides(alpha, n)
        if left != right:
            raise ArithmeticError(
                f"weighted routes disagree at alpha={alpha}, n={n}: "
                f"T_n != (1-q^{alpha})^n N_n"
            )
    return rec


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def q_euler_polynomial(n: int) -> XPoly:
    """E_n(x) = sum_l C(n,l) E_l x^(n-l); monic of degree n, constant term E_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    e = weighted_recurrence(0, n)
    return XPoly([e[n - j] * comb(n, j) for j in range(n + 1)])


def frobenius_polynomial(u: QRatFn, n: int) -> XPoly:
    """H_n(u, x) = sum_l C(n,l) H_l(u) x^(n-l)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return XPoly([_frobenius_number(u, n - j) * comb(n, j) for j in range(n + 1)])


def classical_euler_numbers(n_max: int) -> list[Fraction]:
    """Classical Euler numbers E_n at q = 1: E_0 = 1, 2*E_n = -sum_{k<n} C(n,k) E_k."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(comb(n, k) * out[k] for k in range(n))
        out.append(Fraction(-s, 2))
    return out


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"


class IdentityInstance(NamedTuple):
    """One checked parameter instance of an identity.

    The verdict is an exact comparison: for cor3, thm4-thm8, the k=0 remark
    and weighted, of the integer numerators of I(f) and g over a known
    denominator (see ``_moment``), of canonical values for the rest.
    ``left``/``right`` hold the two sides compared, reduced to canonical
    form (QRatFn or XPoly) only when the verdict is ``fail``, as a witness.
    An instance is in order when its verdict matches its expectation (some
    identities are *supposed* to fail, e.g. the k=0 erratum and the thm5
    hypothesis probe).
    """

    params: tuple
    verdict: str
    expected: str = PASS
    note: str = ""
    left: Optional[object] = None
    right: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.verdict == self.expected


class IdentityReport(NamedTuple):
    identity_id: str
    instances: tuple[IdentityInstance, ...]

    @property
    def ok(self) -> bool:
        return all(inst.ok for inst in self.instances)

    @property
    def counts(self) -> tuple[int, int]:
        """(in-order, total)."""
        good = sum(1 for inst in self.instances if inst.ok)
        return good, len(self.instances)

    def failures(self) -> list[IdentityInstance]:
        return [inst for inst in self.instances if not inst.ok]


def _judged(
    params: tuple,
    left: object,
    right: object,
    over: Optional[Counter] = None,
    expected: str = PASS,
    note: str = "",
) -> IdentityInstance:
    """One instance, judged by the exact comparison ``left == right``.

    With ``over``, a Counter of Phi_d exponents, each side is an integer
    numerator over it from ``_moment`` or ``_weighted_moment``, or a list of
    them, one per power of x; a failing instance keeps both sides, reduced
    to a canonical QRatFn or XPoly, as its witness.  Else they are canonical.
    """
    if left == right:
        return IdentityInstance(params, PASS, expected, note)
    if over is not None:
        left, right = (
            XPoly(_reduce_over_cyclotomics(list(c), over) for c in side)
            if side and isinstance(side[0], list)
            else _reduce_over_cyclotomics(list(side), over)
            for side in (left, right)
        )
    return IdentityInstance(params, FAIL, expected, note, left, right)


def _check_thm1(n_max: int) -> list[IdentityInstance]:
    pairs = zip(weighted_recurrence(0, n_max), frobenius_numbers(MINUS_Q_INV, n_max))
    return [_judged((n,), e, h) for n, (e, h) in enumerate(pairs)]


def _check_thm2(n_max: int) -> list[IdentityInstance]:
    return [
        _judged((n,), q_euler_polynomial(n), frobenius_polynomial(MINUS_Q_INV, n))
        for n in range(n_max + 1)
    ]


@lru_cache(maxsize=None)
def _numerators_over(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The numerators over (1+q)^n of E_l and of E_{l,1/q}, for l = 0..n.

    E_l = N_l / (1+q)^l with N_l = ``_weighted_numerators(0, l)[l]``, and
    q -> 1/q turns it into q^(l - deg N_l) rev(N_l) / (1+q)^l.  Over (1+q)^n,
    E_l's numerator is D = N_l (1+q)^(n-l), and E_{l,1/q}'s is
    q^(l - deg N_l) rev(D), since (1+q)^(n-l) is palindromic.
    """
    _warm(_weighted_numerators, n, 0)
    direct, reflected = [], []
    for l, num in enumerate(_weighted_numerators(0, n)):
        num = _itrim(list(num))
        shift = l + 1 - len(num)
        if shift < 0:
            raise ArithmeticError(f"deg N_{l} > {l}: E_{l} is not over (1+q)^{l}")
        lifted = _imul(num, [comb(n - l, i) for i in range(n - l + 1)])
        direct.append(tuple(lifted))
        reflected.append(tuple(_itrim([0] * shift + lifted[::-1])))
    return tuple(direct), tuple(reflected)


def _moment(n: int, terms: Iterable[tuple[int, int, int]], reflected: bool = False) -> list[int]:
    """sum c*q^s*I(y^l) over the (c, s, l) terms, l <= n, as its numerator over (1+q)^n.

    I is the fermionic functional I(y^l) = E_l, or I'(y^l) = E_{l,1/q} when
    ``reflected``; a constant is c*I(1), since E_0 = 1.
    """
    moments = _numerators_over(n)[reflected]
    return _icombination([], ((c, s, moments[l]) for c, s, l in terms))


# cor3 is checked for every m = 0.._COR3_M_MAX at each odd n <= n_max.
_COR3_M_MAX = 15


def _shift_instance(params: tuple, n: int, m: int) -> IdentityInstance:
    """q^n E_m(n) + E_m = [2]_q sum_{l<n} (-1)^l l^m q^l for odd n: cor3, and thm4 at n = 1."""
    left = _moment(m, [(comb(m, l) * n ** (m - l), n, l) for l in range(m + 1)] + [(1, 0, m)])
    right = _moment(m, [((-1) ** l * l**m, s, 0) for l in range(n) for s in (l, l + 1)])
    return _judged(params, left, right, Counter({2: m}))


def _check_cor3(n_max: int) -> list[IdentityInstance]:
    return [
        _shift_instance((n, m), n, m)
        for n in range(1, n_max + 1, 2)
        for m in range(_COR3_M_MAX + 1)
    ]


def _check_thm4(n_max: int) -> list[IdentityInstance]:
    """q E_n(1) + E_n = [2]_q at n = 0 and 0 for n >= 1."""
    return [_shift_instance((n,), 1, n) for n in range(n_max + 1)]


def _check_thm5(n_max: int) -> list[IdentityInstance]:
    """q^2 I((y+2)^n) = (q + q^2) I(1) + I(y^n), that is q^2 E_n(2) = q + q^2 + E_n, for n >= 1."""
    out = []
    for n in range(n_max + 1):
        left = _moment(n, [(comb(n, l) * 2 ** (n - l), 2, l) for l in range(n + 1)])
        right = _moment(n, [(1, 1, 0), (1, 2, 0), (1, 0, n)])
        # n = 0 sits outside the hypothesis (n >= 1): both sides are computable
        # and must differ, which the suite asserts as an expected failure.
        probe = {} if n else {
            "expected": FAIL,
            "note": "n=0 excluded by the n >= 1 hypothesis; inequality confirmed",
        }
        out.append(_judged((n,), left, right, Counter({2: n}), **probe))
    return out


def _check_thm6(n_max: int) -> list[IdentityInstance]:
    """E_{n,1/q}(1-x) = (-1)^n E_n(x), compared coefficient by coefficient in x."""
    out = []
    for n in range(n_max + 1):
        # x^j: C(n,j) (-1)^j I'((1+y)^(n-j)) on the left, (-1)^n C(n,j) I(y^(n-j)) on the right
        left = [
            _moment(n, [(comb(n, j) * (-1) ** j * comb(n - j, l), 0, l) for l in range(n - j + 1)],
                    reflected=True)
            for j in range(n + 1)
        ]
        right = [_moment(n, [((-1) ** n * comb(n, j), 0, n - j)]) for j in range(n + 1)]
        out.append(_judged((n,), left, right, Counter({2: n})))
    return out


def _thm7_instance(params: tuple, n: int) -> IdentityInstance:
    """I((1-y)^n) = (1+q) I'(1) + q^2 I'(y^n): thm7, and thm8's full k=0 row."""
    left = _moment(n, [((-1) ** l * comb(n, l), 0, l) for l in range(n + 1)])
    right = _moment(n, [(1, 0, 0), (1, 1, 0), (1, 2, n)], reflected=True)
    return _judged(params, left, right, Counter({2: n}))


def _k0_remark_instance(params: tuple, n: int, note: str) -> IdentityInstance:
    """The k=0 shortcut I((1-y)^n) = q^2 I'(y^n), thm7 without (1+q) I'(1): expected to fail."""
    left = _moment(n, [((-1) ** l * comb(n, l), 0, l) for l in range(n + 1)])
    right = _moment(n, [(1, 2, n)], reflected=True)
    return _judged(params, left, right, Counter({2: n}), FAIL, note)


def _check_thm7(n_max: int) -> list[IdentityInstance]:
    return [_thm7_instance((n,), n) for n in range(1, n_max + 1)]


def _check_k0_remark(n_max: int) -> list[IdentityInstance]:
    """The k=0 shortcut drops the 1+q constant that thm7 keeps.

    So it contradicts thm7 and every instance is expected to fail;
    witnesses carry both canonical sides.
    """
    return [_k0_remark_instance((n,), n, "contradicts thm7") for n in range(1, n_max + 1)]


def _check_classical(n_max: int) -> list[IdentityInstance]:
    values = [e.eval(1) for e in weighted_recurrence(0, n_max)]
    pairs = zip(values, classical_euler_numbers(n_max))
    return [_judged((n,), v, w) for n, (v, w) in enumerate(pairs)]


def _check_weighted(n_max: int) -> list[IdentityInstance]:
    out = []
    for alpha in (1, 2, 3):
        for n in range(n_max + 1):
            left, right = _weighted_sides(alpha, n)
            out.append(_judged((alpha, n), left, right, _closed_form_factors(alpha, n)))
    return out


def _check_thm8(n_max: int) -> tuple[IdentityInstance, ...]:
    from . import bernstein  # imported here because bernstein imports this module

    return bernstein.verify_theorem8(n_max).instances if n_max >= 1 else ()


class SuiteRun(NamedTuple):
    """One identity a suite runs, at max(n_max, n_floor); left out when n_max < n_from."""

    identity: str
    check: Callable[[int], Sequence[IdentityInstance]]
    n_floor: int = 0
    n_from: int = 0


# Every suite the CLI's ``verify --suite`` offers, in the order it lists them.
SUITES: dict[str, tuple[SuiteRun, ...]] = {
    "all": (
        SuiteRun("thm1", _check_thm1),
        SuiteRun("thm2", _check_thm2),
        SuiteRun("cor3", _check_cor3),
        SuiteRun("thm4", _check_thm4),
        SuiteRun("thm5", _check_thm5),
        SuiteRun("thm6", _check_thm6),
        SuiteRun("thm7", _check_thm7),
        SuiteRun("classical", _check_classical),
        SuiteRun("weighted", _check_weighted),
        SuiteRun("k0-remark", _check_k0_remark),
        SuiteRun("thm8", _check_thm8, n_from=1),
    ),
    "thm1": (SuiteRun("thm1", _check_thm1),),
    "thm2": (SuiteRun("thm2", _check_thm2),),
    "thm3": (SuiteRun("cor3", _check_cor3),),  # the third numbered result is a corollary
    "thm4": (SuiteRun("thm4", _check_thm4),),
    "thm5": (SuiteRun("thm5", _check_thm5),),
    "thm6": (SuiteRun("thm6", _check_thm6),),
    "thm7": (SuiteRun("thm7", _check_thm7),),
    "thm8": (SuiteRun("thm8", _check_thm8),),
    "cor3": (SuiteRun("cor3", _check_cor3),),
    "classical": (SuiteRun("classical", _check_classical),),
    # the k=0 remark fails by design; thm7 is the full form it gets wrong
    "erratum": (
        SuiteRun("k0-remark", _check_k0_remark, n_floor=1),
        SuiteRun("thm7", _check_thm7, n_floor=1),
    ),
    "weighted": (SuiteRun("weighted", _check_weighted),),
}

_CHECK_BY_ID = {run.identity: run.check for runs in SUITES.values() for run in runs}


def verify_identity(identity_id: str, n_max: int) -> IdentityReport:
    """Check one identity over an explicit finite range.

    Both sides of every instance are built independently from the
    operations above and compared exactly (see ``IdentityInstance``);
    failures are data (witness attached), not errors.  ``cor3`` runs
    every m = 0..15 at each odd n <= n_max.
    "thm8" runs the Bernstein-moment suite of the bernstein module.
    """
    key = identity_id.lower()
    if key not in _CHECK_BY_ID:
        raise ValueError(f"unknown identity {identity_id!r}; known: {sorted(_CHECK_BY_ID)}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return IdentityReport(key, tuple(_CHECK_BY_ID[key](n_max)))
