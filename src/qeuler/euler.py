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
  (X-1)^n; ``q_euler_numbers_weighted`` and the weighted check compare the two
  numerators by their values at q = 2^b, an exact test for a b read from the
  recurrence's numerator (``_weighted_width``), and build them as coefficient
  lists only for a failing instance's witness.

Each of cor3, thm4-thm8 and the k=0 remark says that the fermionic integral
of some f equals some g; thm7, the k=0 remark and thm8 are one family of
Bernstein rows (``_bernstein_instance``).  ``_moment`` maps the terms of a side
through I(y^l) = E_l, or I'(y^l) = E_{l,1/q}, to an integer numerator over (1+q)^n;
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
    _ipack,
    _ishift_add,
    _itrim,
    _qpoly,
    one_plus_q_power_factors,
)

ZERO = QRatFn.zero()
MINUS_Q_INV = QRatFn(QPoly((-1,)), QPoly((0, 1)))  # -1/q, the Frobenius parameter


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------

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
    u is coerced before it reaches that cache, so an unhashable u gets this TypeError.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if (u := _coerce(u)) is NotImplemented:
        raise TypeError("the Frobenius parameter must be an int, Fraction, QPoly or QRatFn")
    return tuple(_frobenius_number(u, n) for n in range(n_max + 1))


# ---------------------------------------------------------------------------
# weighted sequences: the integer recurrence, and the closed form for a >= 1
# ---------------------------------------------------------------------------
#
# For integer weight a >= 0 every denominator is a product of (1 + q^(a*k+1))
# factors plus, for the closed form, a power of 1 - q^a.  All of those split
# into cyclotomic polynomials, so a denominator is kept as its Counter of Phi_d
# exponents.  The recurrence's numerator N_n lives over D_n = prod_{k<=n}
# (1 + q^(a*k+1)); ``_canonical_denominator`` splits D_n once into den_n and
# D_n / den_n, and ``_weighted_entry`` divides N_n exactly by the second and,
# for a >= 1, decides each Phi_d of den_n by a residue sum of the closed form.
# The closed form reaches canonical form by trial-dividing its numerator by
# each Phi_d.  No large generic gcd is ever needed.  The numerators have integer
# coefficients throughout, so this path runs on the exactq kernel's int lists
# and becomes a QPoly only at the very end; the two routes are compared as
# ints, their numerators' values at q = 2^b.  Each memo reads its predecessors
# in ascending n, so a cold request at any n nests at most two calls deep.

def _reduce_over_cyclotomics(num: list[int], factors: Counter) -> QRatFn:
    """num / prod Phi_d^factors[d] in canonical form.

    Each Phi_d is divided out of num while it still divides it; the monic
    denominator is built from the exponents left.
    """
    _itrim(num)
    if not num:
        return ZERO
    left = Counter(factors)
    for d in factors:
        while left[d] and (quotient := _cyclotomic_quotient(num, d)) is not None:
            num = quotient
            left[d] -= 1
    return QRatFn._raw(_qpoly(num), _qpoly(_cyclotomic_scale([1], left)))


def _check_weight(alpha: int, minimum: int) -> None:
    if not isinstance(alpha, int) or isinstance(alpha, bool) or alpha < minimum:
        raise ValueError(f"weight must be an integer >= {minimum}, got {alpha!r}")


@lru_cache(maxsize=None)
def _weighted_numerator(alpha: int, n: int) -> tuple[int, ...]:
    """The unreduced numerator N_n with N_n / prod_{1<=k<=n} (1+q^(alpha*k+1)) = E^(alpha)_n."""
    if n == 0:
        return (1,)
    # Horner over the sparse factors f_j = 1 + q^(alpha*j+1):
    # S = sum_{k<n} C(n,k) q^(alpha*k) N_k * prod_{j=k+1..n-1} f_j,
    # built ascending so the k-th term picks up exactly the factors j > k.
    s: list[int] = []
    for k in range(n):
        term = (comb(n, k), alpha * k, _weighted_numerator(alpha, k))  # N_k, k ascending
        s = _icombination(_ishift_add(s, alpha * k + 1), [term])
    return tuple([0] + [-c for c in s])  # N_n = -q * S


@lru_cache(maxsize=None)
def _canonical_denominator(alpha: int, n: int) -> tuple[Counter, Counter, QPoly]:
    """(exps, rest, den): the Phi_d exponents of den_n and of D_n / den_n, and den_n.

    den_n = Phi_2^(n*[alpha even]) prod_{d in S_n, d != 2} Phi_d, where S_n holds
    the d with Phi_d | 1 + q^(alpha*k+1), 1 <= k <= n.  E^(alpha)_n's canonical
    denominator divides den_n: the recurrence puts E_n over D_n =
    prod_{1<=k<=n} (1+q^(alpha*k+1)), the closed form over (q^alpha-1)^n
    lcm_{0<=l<=n} (1+q^(alpha*l+1)) / [2]_q.  A d != 2 in S_n does not divide
    alpha (d | alpha and d | 2(alpha*k+1) force d | 2), so the second bound
    holds Phi_d at most once.  For odd alpha its lcm holds Phi_2 once and [2]_q
    cancels it; for even alpha D_n caps Phi_2's exponent at n.  Which Phi_d
    the canonical denominator keeps is decided in ``_weighted_entry``.
    """
    if n == 0:
        return Counter(), Counter(), QPoly.one()
    for k in range(n):  # ascending, like the numerators; the last is den_{n-1}
        exps, rest, den = _canonical_denominator(alpha, k)
    factor = Counter(one_plus_q_power_factors(alpha * n + 1))  # the Phi_d of 1 + q^(alpha*n+1)
    new = Counter(d for d in factor if (d not in exps if d != 2 else alpha % 2 == 0))
    return exps + new, rest + factor - new, _qpoly(_cyclotomic_scale(den.prim, new))


def _residue_sum(alpha: int, n: int, d: int) -> Fraction:
    """R = sum C(n,l) (-1)^l / (alpha*l+1) over the l <= n with alpha*l+1 = d/2 mod d.

    For d != 2 in S_n, alpha >= 1, E^(alpha)_n's residue at a primitive d-th
    root of unity is a nonzero multiple of R (``_weighted_entry``).
    """
    return sum(Fraction((-1) ** l * comb(n, l), alpha * l + 1)
               for l in range(n + 1) if (alpha * l + 1) % d == d // 2)


@lru_cache(maxsize=None)
def _weighted_entry(alpha: int, n: int) -> QRatFn:
    """E^(alpha)_n: N_n divided exactly by D_n / den_n, then put over den_n.

    den_n (``_canonical_denominator``) is canonical when no Phi_d of it divides
    what is left.  For alpha >= 1 that is decided without reading N_n, from
    the closed form (``weighted_closed_form``)

        E_n = [2]_q (1-q^alpha)^(-n) sum_{l<=n} C(n,l) (-1)^l / (1+q^(alpha*l+1)).

    * d != 2 in S_n, zeta a primitive d-th root of unity: [2]_zeta != 0, and
      1 - zeta^alpha != 0 since d does not divide alpha.  Each 1 + q^m is
      squarefree and vanishes at zeta iff m = d/2 mod d, with derivative
      m zeta^(m-1) = -m/zeta there.  So E_n has at most a simple pole at zeta,
      with residue -zeta [2]_zeta (1-zeta^alpha)^(-n) R, R = ``_residue_sum``,
      and Phi_d stays in the canonical denominator iff R != 0.
    * d = 2 at even alpha needs no test: for odd m, [2]_q / (1+q^m) is
      1 / (1 - q + ... + q^(m-1)), which is 1/m at q = -1, and 1 - q^alpha has
      a simple zero there.  So E_n has a pole of order n at -1 whose leading
      coefficient is a nonzero multiple of sum_l C(n,l) (-1)^l / (alpha*l+1)
      = int_0^1 (1-x^alpha)^n dx > 0, and Phi_2^n stays.

    The proof rests on E_n being the closed form, the paper's theorem, which
    ``q_euler_numbers_weighted`` checks at q = 2^b for every n it returns.
    That R is never zero is unproven: a zero R sends the entry to trial
    division by den_n's Phi_d.  The closed form needs alpha >= 1, so alpha = 0
    tests its one Phi_2 by a fold of the numerator (``_cyclotomic_quotient``).
    """
    exps, rest, den = _canonical_denominator(alpha, n)
    num = _cyclotomic_scale(_weighted_numerator(alpha, n), {d: -k for d, k in rest.items()})
    if all(d == 2 or _residue_sum(alpha, n, d) if alpha else _cyclotomic_quotient(num, d) is None
           for d in exps):
        return QRatFn._raw(_qpoly(num), den)
    return _reduce_over_cyclotomics(num, exps)


def weighted_recurrence(alpha: int, n_max: int) -> tuple[QRatFn, ...]:
    """Weight-alpha numbers from E_n*(1+q^(alpha*n+1)) = -q*sum_{k<n} C(n,k) q^(alpha*k) E_k."""
    _check_weight(alpha, 0)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return tuple(_weighted_entry(alpha, n) for n in range(n_max + 1))


def _weighted_moment(alpha: int, n: int, coeffs: Sequence[int], b: int = 0) -> list[int] | int:
    """I(sum_j c_j X^j), X = q^(alpha*x), j <= n, as its numerator over D_n.

    D_n = prod_{1<=k<=n} (1+q^(alpha*k+1)), and a geometric sum gives
    I(X^j) = [2]_q/(1+q^(alpha*j+1)) = prod_{k<=n, k != j} f_k / D_n, f_k = 1+q^(alpha*k+1).
    By Horner, A_j = A_{j-1} f_j + c_j P_{j-1} with P_j = prod_{k<=j} f_k, and A_n is it.
    With b > 0 the same loop returns A_n at q = 2^b, an int: each f_k is one shift and one add.
    """
    times = (lambda x, m: x + (x << b * m)) if b else _ishift_add  # x * f_k, f_k at 2^b or not
    plus = (lambda x, c, p: x + c * p) if b else (lambda x, c, p: _icombination(x, [(c, 0, p)]))
    acc, prod = (0, 1) if b else ([], [1])
    for j in range(n + 1):
        c = coeffs[j] if j < len(coeffs) else 0
        acc = plus(times(acc, alpha * j + 1), c, prod)
        if j + 1 < len(coeffs):  # P_j is read only by a later c_j
            prod = times(prod, alpha * j + 1)
    return acc


def _alternating_numerator(alpha: int, n: int, b: int = 0) -> list[int] | int:
    """(-1)^n T_n = I((X-1)^n) over D_n, the closed form's numerator (``weighted_closed_form``).

    With b > 0, its value at q = 2^b (see ``_weighted_moment``).
    """
    return _weighted_moment(alpha, n, [comb(n, j) * (-1) ** (n - j) for j in range(n + 1)], b)


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
    factors = Counter(d for k in range(1, n + 1) for d in one_plus_q_power_factors(alpha * k + 1))
    factors.update({d: n for d in range(1, alpha + 1) if alpha % d == 0})  # q^alpha - 1
    return factors


def _weighted_sides(alpha: int, n: int) -> tuple[list[int], list[int]]:
    """(q^alpha-1)^n N_n and I((X-1)^n): E^(alpha)_n by each route, over _closed_form_factors."""
    scaled = list(_weighted_numerator(alpha, n))
    for _ in range(n):
        scaled = _ishift_add(scaled, alpha, -1)  # times 1 - q^alpha
    return _itrim([-c for c in scaled] if n % 2 else scaled), _alternating_numerator(alpha, n)


def _weighted_width(numerator: Sequence[int], n: int) -> int:
    """b such that the two sides of ``_weighted_sides`` are equal iff their values at 2^b are.

    Take M = max(bitlen(max|N_n|) + n, 2n) and b = M + 2, with N_n = ``numerator``.
    Multiplying by 1 - q^alpha at most doubles a coefficient, so every
    coefficient of (q^alpha-1)^n N_n is at most 2^n max|N_n| < 2^M.  The other
    side is sum_j C(n,j) (-1)^(n-j) prod_{k<=n, k != j} f_k (``_weighted_moment``),
    n factors of 1-norm 2 in each product, so its coefficients are at most
    sum_j C(n,j) 2^n = 4^n <= 2^M.  Every coefficient of the difference is
    then below 2^(M+1) = 2^(b-1).  A nonzero integer polynomial P with all
    |c_i| < 2^b cannot vanish at 2^b: with c_k its lowest nonzero coefficient,
    P(2^b) / 2^(bk) = c_k mod 2^b, and 0 < |c_k| < 2^b.
    """
    return max(max(map(abs, numerator)).bit_length() + n, 2 * n) + 2


def _weighted_values(alpha: int, n: int) -> tuple[int, int]:
    """The two sides of ``_weighted_sides`` at q = 2^b, b = ``_weighted_width``: equal iff they are.

    N_n is packed by shifts (``_ipack``) and scaled by n passes of x - x*2^(b*alpha);
    the closed form runs ``_weighted_moment``'s loop on ints.  Nothing divides or unpacks.
    """
    numerator = _weighted_numerator(alpha, n)
    b = _weighted_width(numerator, n)
    left = _ipack(numerator, b)
    for _ in range(n):
        left -= left << (b * alpha)  # times 1 - q^alpha
    return -left if n % 2 else left, _alternating_numerator(alpha, n, b)


def q_euler_numbers_weighted(alpha: int, n_max: int) -> tuple[QRatFn, ...]:
    """Weight-alpha numbers computed by both independent routes.

    The recurrence gives E_n = N_n / D_n with D_n = prod_{1<=k<=n} (1+q^(alpha*k+1))
    (``_weighted_numerator``), and the closed form gives
    E_n = T_n / ((1-q^alpha)^n D_n) (``weighted_closed_form``).  Over the
    shared nonzero denominator (q^alpha-1)^n D_n the two values are equal in
    the field exactly when the integer polynomials (q^alpha-1)^n N_n and
    (-1)^n T_n are equal, and those are equal exactly when their values at
    q = 2^b are (``_weighted_values``; the proof is in ``_weighted_width``).
    That identity is checked for every n; a mismatch would mean a kernel bug
    and raises.  The values returned are the recurrence's, in canonical form.
    """
    _check_weight(alpha, 1)
    rec = weighted_recurrence(alpha, n_max)
    for n in range(n_max + 1):
        left, right = _weighted_values(alpha, n)
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
    # C(n,j) times a canonical value is canonical, so no gcd is taken
    e = weighted_recurrence(0, n)
    return XPoly([QRatFn._raw(f.num.scale(comb(n, j)), f.den) for j, f in enumerate(e[::-1])])


def frobenius_polynomial(u: QRatFn, n: int) -> XPoly:
    """H_n(u, x) = sum_l C(n,l) H_l(u) x^(n-l)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    h = frobenius_numbers(u, n)[::-1]
    return XPoly([QRatFn._raw(f.num.scale(comb(n, j)), f.den) for j, f in enumerate(h)])


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

    E_l = N_l / (1+q)^l with N_l = ``_weighted_numerator(0, l)``, and
    q -> 1/q turns it into q^(l - deg N_l) rev(N_l) / (1+q)^l.  Over (1+q)^n,
    E_l's numerator is D = N_l (1+q)^(n-l), and E_{l,1/q}'s is
    q^(l - deg N_l) rev(D), since (1+q)^(n-l) is palindromic.
    """
    direct, reflected = [], []
    for l in range(n + 1):
        num = _itrim(list(_weighted_numerator(0, l)))
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


def _bernstein_left(n: int, k: int, scale: int = 1) -> list[int]:
    """scale * I(y^k (1-y)^(n-k)) = scale * sum_l C(n-k,l) (-1)^l I(y^(k+l)), over (1+q)^n."""
    return _moment(n, [(scale * comb(n - k, l) * (-1) ** l, 0, k + l) for l in range(n - k + 1)])


def _bernstein_right(n: int, k: int, full: bool, scale: int = 1) -> list[int]:
    """scale * sum_l C(k,l) (-1)^(k+l) ([1+q] + q^2 I'(y^(n-l))), over (1+q)^n; [1+q] if full."""
    terms = []
    for l in range(k + 1):
        c = scale * comb(k, l) * (-1) ** (k + l)
        terms += [(c, 2, n - l), (c, 0, 0), (c, 1, 0)] if full else [(c, 2, n - l)]
    return _moment(n, terms, reflected=True)


def _bernstein_instance(
    params: tuple, n: int, k: int, full: bool = False, expected: str = PASS, note: str = ""
) -> IdentityInstance:
    """Bernstein row (n, k): ``_bernstein_left`` = ``_bernstein_right``, both over (1+q)^n.

    The right side's 1 + q telescopes away for k >= 1, but not at k = 0:
    thm7 is row (n, 0), the k=0 remark is that row without it, thm8 every row.
    """
    left, right = _bernstein_left(n, k), _bernstein_right(n, k, full)
    return _judged(params, left, right, Counter({2: n}), expected, note)


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


def _check_thm7(n_max: int) -> list[IdentityInstance]:
    """I((1-y)^n) = (1+q) I'(1) + q^2 I'(y^n): Bernstein row (n, 0) in full."""
    return [_bernstein_instance((n,), n, 0, full=True) for n in range(1, n_max + 1)]


def _check_k0_remark(n_max: int) -> list[IdentityInstance]:
    """The k=0 shortcut drops the 1+q constant that thm7 keeps.

    So it contradicts thm7 and every instance is expected to fail;
    witnesses carry both canonical sides.
    """
    return [_bernstein_instance((n,), n, 0, expected=FAIL, note="contradicts thm7")
            for n in range(1, n_max + 1)]


def _check_classical(n_max: int) -> list[IdentityInstance]:
    values = [e.eval(1) for e in weighted_recurrence(0, n_max)]
    pairs = zip(values, classical_euler_numbers(n_max))
    return [_judged((n,), v, w) for n, (v, w) in enumerate(pairs)]


def _check_weighted(n_max: int) -> list[IdentityInstance]:
    out = []
    for alpha in (1, 2, 3):
        for n in range(n_max + 1):
            left, right = _weighted_values(alpha, n)
            if left != right:  # only a failing instance builds its lists, for the witness
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
