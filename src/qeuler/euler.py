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
  numerators by their values at q = 2^b.

The recurrence itself runs on ints at q = 2^b (``_packed_step``); a table
unpacks each numerator once, by bytes (``_iunpack``).  Every value packed at
q = 2^b takes its b from one rule, ``_width(n, w)``, whose docstring proves
that b for n and a term weight w.

Each of cor3, thm4-thm8 and the k=0 remark says that the fermionic integral
of some f equals some g, and both sides are linear in the moments
I(y^l) = E_l and I'(y^l) = E_{l,1/q}: integer numerators M_l and M'_l over
(1+q)^n, read from the weight-0 recurrence at q = 2^b and reversed by digits
for M'_l (``_packed_moments``).  So each family builds its sides from the
moments of one n at once: thm7, the k=0 remark and thm8 are one family of
Bernstein rows, all the rows of one n read from two forward-difference
tables and each judged once per process (``_bernstein_table``,
``_bernstein_row``); thm6 reads one Pascal table of the M'_l
(``_reflection_values``); cor3, thm4 and thm5 are views on one shift family,
q^s E_m(s) by Horner in s against one small polynomial times M_0 and M_m
(``_shift_values``).  The weighted closed form maps its terms through
I(X^j) = [2]_q/(1+q^(alpha*j+1)), X = q^(alpha*x) (``_weighted_moment``).
The verdict is the equality of the two numerators (field equality: the
denominator is nonzero), decided by their values at q = 2^b, one int per side,
at b = ``_width(n, w)``, where that is exact equality and every side unpacks.
So a failing instance unpacks both values (``_unpacked_over``) and keeps
them, in canonical form, as its witness.
thm1 and thm2 judge the same chain against the Frobenius closed form at
u = -1/q, evaluated at q = 2^b (``_frobenius_value``, ``_frobenius_values``),
and classical reads N_n(1) from it as a residue mod 2^b - 1 against the
classical recurrence run on ints.  So a passing ``verify`` builds no
canonical value; the canonical routes (``weighted_recurrence``,
``frobenius_numbers`` and their polynomials) serve the tables and the tests.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .exactq import (
    QPoly,
    QRatFn,
    XPoly,
    _coerce,
    _cyclotomic_quotient,
    _cyclotomic_scale,
    _icombination,
    _ireverse,
    _itrim,
    _iunpack,
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
def _fubini_row(n: int) -> tuple[int, ...]:
    """F(n,0), ..., F(n,n), F(n,k) = k! S(n,k): F(0,0) = 1, F(n,k) = k (F(n-1,k) + F(n-1,k-1)).

    That is Stirling's S(n,k) = k S(n-1,k) + S(n-1,k-1), times k!.
    """
    if n == 0:
        return (1,)
    for m in range(n):  # ascending, so a cold request nests one call deep
        prev = _fubini_row(m)
    prev = (0,) + prev + (0,)
    return tuple(k * (prev[k] + prev[k + 1]) for k in range(n + 1))


def _fubini_form(n: int, x: int, y: int) -> tuple[int, int]:
    """(sum_k F(n,k) x^k y^(n-k), y^n), by homogeneous Horner from F(n,n) = n!."""
    fubini = _fubini_row(n)
    acc, y_pow = fubini[n], 1
    for k in range(n - 1, -1, -1):
        y_pow *= y
        acc = acc * x + fubini[k] * y_pow
    return acc, y_pow


@lru_cache(maxsize=None)
def _frobenius_number(u: QRatFn, n: int) -> QRatFn:
    """H_n(u) = sum_{k<=n} k! S(n,k) w^k, w = 1/(u-1): the Fubini polynomial at w.

    With exp(t) - u = (1-u) + (exp(t)-1), (1-u)/(exp(t)-u) = sum_k w^k (exp(t)-1)^k,
    and (exp(t)-1)^k = k! sum_n S(n,k) t^n/n! (Concrete Mathematics, 7.4),
    where F(n,k) = k! S(n,k) (``_fubini_row``).
    With u = a/b, a and b coprime in Z[q] (one integer scales u's num and den),
    w = b/c for c = a - b, and H_n(u) = N/c^n with N = sum_k F(n,k) b^k c^(n-k).
    That is canonical: mod c, N = F(n,n) b^n = n! b^n, and gcd(b, c) = gcd(b, a) = 1.

    N and c^n are made as ints at q = 2^w (``_fubini_form``) and unpacked
    (``_iunpack``), at the width w = ``_width(n, m^n)``, m = max(||b||_1,
    ceil(||c||_1 / 2)), whose docstring bounds their coefficients.
    """
    r = u.num.content / u.den.content
    a, b = [r.numerator * x for x in u.num.prim], [r.denominator * x for x in u.den.prim]
    c = _icombination(a, [(-1, 0, b)])
    if not c:
        raise ValueError("singular Frobenius parameter u = 1")
    w = _width(n, max(sum(map(abs, b)), -(-sum(map(abs, c)) // 2)) ** n)
    num, den = _fubini_form(n, *(sum(x << w * i for i, x in enumerate(p)) for p in (b, c)))
    if not num:
        return ZERO
    den = _iunpack(den, w)
    return QRatFn._raw(_qpoly(_iunpack(num, w), Fraction(1, den[-1])), _qpoly(den).monic())


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
# D_n / den_n, and ``_weighted_entry`` divides N_n exactly by the second and
# decides each Phi_d of den_n by proof or by a residue sum of the closed form.
# The closed form reaches canonical form by trial-dividing its numerator by
# each Phi_d.  No large generic gcd is ever needed.  The numerators have integer
# coefficients throughout: N_n is made and kept as its value at q = 2^b, an
# int, and unpacked to the exactq kernel's int lists for the division; it
# becomes a QPoly only at the very end.  The two routes are compared as ints,
# their numerators' values at q = 2^b.  Each memo reads its predecessors in
# ascending n, so a cold request at any n nests at most two calls deep.

def _reduce_over_cyclotomics(num: list[int], factors: Mapping[int, int]) -> QRatFn:
    """num / prod Phi_d^factors[d] in canonical form.

    Each Phi_d is divided out of num while it still divides it; the monic
    denominator is built from the exponents left (``_cyclotomic_denominator``).
    """
    _itrim(num)
    if not num:
        return ZERO
    left = dict(factors)
    for d in factors:
        while left[d] and (quotient := _cyclotomic_quotient(num, d)) is not None:
            num = quotient
            left[d] -= 1
    return QRatFn._raw(_qpoly(num), _cyclotomic_denominator(tuple(sorted(
        (d, k) for d, k in left.items() if k))))


@lru_cache(maxsize=None)
def _cyclotomic_denominator(exps: tuple[tuple[int, int], ...]) -> QPoly:
    """prod Phi_d^k over the sorted (d, k) pairs, monic: built once per exponent set."""
    return _qpoly(_cyclotomic_scale([1], dict(exps)))


def _check_weight(alpha: int, minimum: int) -> None:
    if not isinstance(alpha, int) or isinstance(alpha, bool) or alpha < minimum:
        raise ValueError(f"weight must be an integer >= {minimum}, got {alpha!r}")


def _width(n: int, w: int = 1) -> int:
    """The least multiple b of 64 with 2^(b-2) > w max(2^n B_n, 4^n), B_n = sum_k F(n,k) 2^(n-k).

    Every value packed at q = 2^b takes its b from here, for the n of the
    numerators it reads and its term weight w.  These facts prove it.

    * (q^alpha-1)^n N_n and every moment M_l or its reversal have coefficients
      at most 2^n B_n.  N_n = -q sum_{k<n} C(n,k) q^(alpha*k) N_k prod_{k<j<n}
      f_j (``_packed_step``), f_j = 1 + q^(alpha*j+1) has 1-norm 2, and
      ||AB||_1 <= ||A||_1 ||B||_1, so ||N_n||_1 <= B_n for B_0 = 1, 2 B_n =
      sum_{k<n} C(n,k) 2^(n-k) B_k.  Its EGF is 2/(3 - e^(2t)) = 1/(1 -
      (e^(2t)-1)/2), so B_n = sum_k F(n,k) 2^(n-k), F(n,k) = k! S(n,k)
      (``_fubini_form(n, 1, 2)``), nondecreasing.  1 - q^alpha at most doubles
      a coefficient, and M_l = N_l (1+q)^(n-l) has 1-norm <= 2^(n-l) B_l.
    * The closed form's products prod_{k<=n, k != j} f_k (``_weighted_moment``)
      have n factors of 1-norm 2, so their sum with weights C(n,j) is <= 4^n.
    * The Frobenius numerator F_l = sum_k F(l,k) q^k (-1-q)^(l-k)
      (``_frobenius_value``) has ||F_l||_1 <= sum_k F(l,k) 2^(l-k) = B_l: the
      same Fubini form, at ||q||_1 = 1 and ||-1-q||_1 = 2.  So F_l (1+q)^(n-l)
      has coefficients at most 2^(n-l) B_l <= 2^n B_n, as M_l does.
    * At any u = a/b, c = a - b, N = sum_k F(n,k) b^k c^(n-k) and c^n
      (``_frobenius_number``) have coefficients at most m^n B_n and (2m)^n,
      m = max(||b||_1, ceil(||c||_1 / 2)), as ||b^k c^(n-k)||_1 <= m^k (2m)^(n-k):
      both at most m^n max(2^n B_n, 4^n), so they take w = m^n.  At u = -1/q, m = 1.
    * |N_n(1)| <= ||N_n||_1 <= B_n < 2^(b-2), so N_n(2^b) mod 2^b - 1, taken
      in (-(2^b-1)/2, (2^b-1)/2], is N_n(1) (``_check_classical``).
    * So a side of term weight <= w, sum |c| <= w over its terms c q^s P,
      stays below 2^(b-2): it unpacks (``_iunpack``), each M_l reverses
      (``_ireverse``), and a difference of two sides is below 2^(b-1).  A
      nonzero integer P with every |c_i| < 2^b cannot vanish at 2^b: with c_k
      its lowest nonzero coefficient, P(2^b) / 2^(bk) = c_k != 0 mod 2^b.

    max(2^n B_n, 4^n) is ``max(_fubini_form(n, 2, 4))`` (``_width_bound``).  A
    multiple of 64 lets one b serve many n, and the families at one n share
    their moments.
    """
    return -(-((w * _width_bound(n)).bit_length() + 2) // 64) * 64


@lru_cache(maxsize=None)
def _width_bound(n: int) -> int:
    """max(2^n B_n, 4^n), the factor of ``_width`` that depends on n alone."""
    return max(_fubini_form(n, 2, 4))


def _packed_step(alpha: int, n: int, packed: Sequence[int], b: int) -> int:
    """N_n(2^b) from packed = N_0(2^b), ..., N_{n-1}(2^b); N_0 = 1.

    Horner over the sparse factors f_j = 1 + q^(alpha*j+1):
    S = sum_{k<n} C(n,k) q^(alpha*k) N_k prod_{j=k+1..n-1} f_j, built
    ascending so the k-th term picks up exactly the factors j > k, and
    N_n = -q S.  At q = 2^b each f_j is one shift and one add.  A b below
    ``_width(n)``, or not a whole number of bytes, is refused.
    """
    if b < _width(n) or b % 8:
        raise ValueError(f"width {b} is below the proven width {_width(n)} of N_{n}")
    s = 0
    for k in range(n):
        s += s << b * (alpha * k + 1)
        s += comb(n, k) * packed[k] << b * alpha * k
    return -(s << b) if n else 1


@lru_cache(maxsize=None)
def _packed_chain(alpha: int, b: int, n: int) -> tuple[int, ...]:
    """N_0(2^b), ..., N_n(2^b), each made by ``_packed_step`` from the ones before it."""
    chain: tuple[int, ...] = ()
    for m in range(n):  # ascending, so a cold request nests one call deep
        chain = _packed_chain(alpha, b, m)
    return chain + (_packed_step(alpha, n, chain, b),)


def _weighted_numerator(alpha: int, n: int) -> list[int]:
    """The unreduced numerator N_n with N_n / prod_{1<=k<=n} (1+q^(alpha*k+1)) = E^(alpha)_n.

    Unpacked from ``_packed_chain`` at b = ``_width(n)``.
    """
    b = _width(n)
    return _iunpack(_packed_chain(alpha, b, n)[n], b)


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
    what is left.  That is decided without reading N_n.  For alpha >= 1 it is
    read from the closed form (``weighted_closed_form``)

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
    division by den_n's Phi_d.

    At alpha = 0, den_n = D_n = Phi_2^n and rest is empty.  The recurrence's
    generating function is (1+q)/(q e^t + 1) = (1-u)/(e^t - u) at u = -1/q, so
    E_n = H_n(-1/q), and (u-1)/(u - e^((u-1)t)) = sum_n A_n(u) t^n/n!
    (Concrete Mathematics, 7.56) gives H_n(u) = A_n(u)/(u-1)^n, with A_n the
    Eulerian polynomial, palindromic of degree n-1 for n >= 1.  So for
    n >= 1, N_n = -q A_n(-q), N_n(-1) = A_n(1) = n! != 0, and Phi_2^n stays.
    """
    exps, rest, den = _canonical_denominator(alpha, n)
    num = _cyclotomic_scale(_weighted_numerator(alpha, n), {d: -k for d, k in rest.items()})
    if all(d == 2 or _residue_sum(alpha, n, d) for d in exps):
        return QRatFn._raw(_qpoly(num), den)
    return _reduce_over_cyclotomics(num, exps)


def weighted_recurrence(alpha: int, n_max: int) -> tuple[QRatFn, ...]:
    """Weight-alpha numbers from E_n*(1+q^(alpha*n+1)) = -q*sum_{k<n} C(n,k) q^(alpha*k) E_k."""
    _check_weight(alpha, 0)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return tuple(_weighted_entry(alpha, n) for n in range(n_max + 1))


def _weighted_moment(alpha: int, n: int, coeffs: Sequence[int], b: int) -> int:
    """I(sum_j c_j X^j), X = q^(alpha*x), j <= n, as its numerator over D_n, at q = 2^b.

    D_n = prod_{1<=k<=n} (1+q^(alpha*k+1)), and a geometric sum gives
    I(X^j) = [2]_q/(1+q^(alpha*j+1)) = prod_{k<=n, k != j} f_k / D_n, f_k = 1+q^(alpha*k+1).
    By Horner, A_j = A_{j-1} f_j + c_j P_{j-1} with P_j = prod_{k<=j} f_k, and A_n is it.
    At q = 2^b each f_k is one shift and one add.
    """
    acc, prod = 0, 1
    for j in range(n + 1):
        c = coeffs[j] if j < len(coeffs) else 0
        acc += (acc << b * (alpha * j + 1)) + c * prod
        if j + 1 < len(coeffs):  # P_j is read only by a later c_j
            prod += prod << b * (alpha * j + 1)
    return acc


def _alternating_numerator(alpha: int, n: int, b: int) -> int:
    """(-1)^n T_n = I((X-1)^n) over D_n, the numerator of ``weighted_closed_form``, at q = 2^b."""
    return _weighted_moment(alpha, n, [comb(n, j) * (-1) ** (n - j) for j in range(n + 1)], b)


def _unpacked_over(value: int, b: int, factors: Mapping[int, int]) -> QRatFn:
    """P / prod Phi_d^factors[d] in canonical form, from value = P(2^b).

    Every |coefficient| of P must be below 2^(b-1), b a multiple of 8 (``_iunpack``).
    """
    return _reduce_over_cyclotomics(_iunpack(value, b), factors)


def _scaled(f: QRatFn, c: int) -> QRatFn:
    """c * f for an int c != 0, canonical as f is: scaling the numerator changes no gcd."""
    return QRatFn._raw(f.num.scale(c), f.den)


def weighted_closed_form(alpha: int, n: int) -> QRatFn:
    """Weight-alpha number from the alternating closed-form sum,

        [2]_q / ((1-q)^n [alpha]_q^n) * sum_{l=0..n} C(n,l)(-1)^l / (1+q^(alpha*l+1)),

    which is T_n / ((1-q^alpha)^n D_n) = (-1)^n T_n / ((q^alpha-1)^n D_n), with
    (-1)^n T_n from ``_alternating_numerator`` and D_n = prod_{1<=k<=n}
    (1+q^(alpha*k+1)): [2]_q is the j = 0 factor.  (-1)^n T_n is unpacked from
    its value at q = 2^b, b = ``_width(n)``.
    """
    _check_weight(alpha, 1)
    if n < 0:
        raise ValueError("n must be >= 0")
    b = _width(n)
    return _unpacked_over(_alternating_numerator(alpha, n, b), b, _closed_form_factors(alpha, n))


def _closed_form_factors(alpha: int, n: int) -> Counter:
    """The Phi_d exponents of (q^alpha - 1)^n D_n, the denominator both weighted routes share."""
    factors = Counter(d for k in range(1, n + 1) for d in one_plus_q_power_factors(alpha * k + 1))
    factors.update({d: n for d in range(1, alpha + 1) if alpha % d == 0})  # q^alpha - 1
    return factors


def _weighted_values(alpha: int, n: int) -> tuple[int, int, int]:
    """(b, left, right): (q^alpha-1)^n N_n and I((X-1)^n) at q = 2^b.

    Both are E^(alpha)_n over ``_closed_form_factors``, by each route, and at
    b = ``_width(n)`` they are equal exactly when the polynomials are, and each
    unpacks.  N_n(2^b) comes from the memo of the recurrence (``_packed_chain``)
    and is scaled by n passes of x - x*2^(b*alpha); the closed form runs
    ``_weighted_moment`` at the same b.
    """
    b = _width(n)
    left = _packed_chain(alpha, b, n)[n]
    for _ in range(n):
        left -= left << (b * alpha)  # times 1 - q^alpha
    return b, -left if n % 2 else left, _alternating_numerator(alpha, n, b)


@lru_cache(maxsize=None)
def _weighted_routes_agree(alpha: int, n: int) -> bool:
    """Whether both routes give E^(alpha)_n (``_weighted_values``), decided once per process."""
    _, left, right = _weighted_values(alpha, n)
    return left == right


def q_euler_numbers_weighted(alpha: int, n_max: int) -> tuple[QRatFn, ...]:
    """Weight-alpha numbers computed by both independent routes.

    The recurrence gives E_n = N_n / D_n with D_n = prod_{1<=k<=n} (1+q^(alpha*k+1))
    (``_weighted_numerator``), and the closed form gives
    E_n = T_n / ((1-q^alpha)^n D_n) (``weighted_closed_form``).  Over the
    shared nonzero denominator (q^alpha-1)^n D_n the two values are equal in
    the field exactly when the integer polynomials (q^alpha-1)^n N_n and
    (-1)^n T_n are equal, and those are equal exactly when their values at
    q = 2^b are (``_weighted_values``; the proof is in ``_width``).
    That identity is checked once per (alpha, n) in a process
    (``_weighted_routes_agree``); a mismatch would mean a kernel bug and
    raises.  The values returned are the recurrence's, in canonical form.
    """
    _check_weight(alpha, 1)
    rec = weighted_recurrence(alpha, n_max)
    for n in range(n_max + 1):
        if not _weighted_routes_agree(alpha, n):
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
    return XPoly([_scaled(f, comb(n, j)) for j, f in enumerate(e[::-1])])


def frobenius_polynomial(u: QRatFn, n: int) -> XPoly:
    """H_n(u, x) = sum_l C(n,l) H_l(u) x^(n-l)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    h = frobenius_numbers(u, n)[::-1]
    return XPoly([_scaled(f, comb(n, j)) for j, f in enumerate(h)])


def classical_euler_numbers(n_max: int) -> list[Fraction]:
    """Classical Euler numbers E_n at q = 1: E_0 = 1, 2*E_n = -sum_{k<n} C(n,k) E_k.

    Each is e_n / 2^n, with the ints e_n of ``_classical_numerators``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return [Fraction(e, 1 << n) for n, e in enumerate(_classical_numerators(n_max))]


def _classical_numerators(n_max: int) -> list[int]:
    """e_n = 2^n E_n, n <= n_max: e_0 = 1, e_n = -sum_{k<n} C(n,k) e_k 2^(n-1-k)."""
    out = [1]
    for n in range(1, n_max + 1):
        out.append(-sum(comb(n, k) * e << (n - 1 - k) for k, e in enumerate(out)))
    return out


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"


class IdentityInstance(NamedTuple):
    """One checked parameter instance of an identity.

    The verdict is an exact comparison of two ints: for every identity but
    classical, the integer numerators of both sides over a known denominator,
    by their values at q = 2^b (see ``_width``); for classical, 2^n E_n at
    q = 1 by both routes.
    ``left``/``right`` hold the two sides compared, reduced to canonical
    form (QRatFn, XPoly, or a Fraction for classical) only when the verdict
    is ``fail``, as a witness.
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
    over: Optional[Mapping[int, int]] = None,
    b: int = 0,
    expected: str = PASS,
    note: str = "",
    scales: Sequence[int] = (),
) -> IdentityInstance:
    """One instance, judged by the exact comparison ``left == right``.

    With ``over``, a mapping of Phi_d exponents, each side is the value at
    q = 2^b of an integer numerator over it (the moment tables, the
    Frobenius values or ``_weighted_values``), or a list of them, one per
    power of x, the x^j coefficient over ``scales[j]``; a failing instance
    unpacks both sides and keeps them, reduced to a canonical QRatFn or
    XPoly, as its witness (``_unpacked_over``).  Else they are ints or
    canonical values, kept as they are.
    """
    if left == right:
        return IdentityInstance(params, PASS, expected, note)
    if over is not None:
        left, right = (
            XPoly(_scaled(_unpacked_over(v, b, over), c) for v, c in zip(side, scales))
            if isinstance(side, list)
            else _unpacked_over(side, b, over)
            for side in (left, right)
        )
    return IdentityInstance(params, FAIL, expected, note, left, right)


@lru_cache(maxsize=None)
def _packed_moments(n: int, reflected: bool, b: int) -> tuple[int, ...]:
    """M_0..M_n at q = 2^b: E_l's numerators over (1+q)^n, or E_{l,1/q}'s if reflected.

    M_l = N_l (1+q)^(n-l), N_l from ``_packed_chain(0, b, n)``.  E_{l,1/q}'s
    numerator is q^n M_l(1/q), M_l's n+1 digits reversed (``_ireverse``) from
    the direct memo, which raises if deg N_l > l; b comes from ``_width``.
    """
    if reflected:
        return tuple(_ireverse(value, b, n + 1) for value in _packed_moments(n, False, b))
    return _over_one_plus_power(_packed_chain(0, b, n), n, b)


def _over_one_plus_power(values: Iterable[int], n: int, b: int) -> tuple[int, ...]:
    """Each values[l], a numerator over (1+q)^l at q = 2^b, put over (1+q)^n."""
    out = []
    for l, value in enumerate(values):
        for _ in range(n - l):
            value += value << b  # times 1 + q
        out.append(value)
    return tuple(out)


@lru_cache(maxsize=None)
def _frobenius_value(l: int, b: int) -> int:
    """(-1)^l F_l at q = 2^b, F_l = sum_k F(l,k) q^k (-1-q)^(l-k): H_l(-1/q) over (1+q)^l.

    It is ``_frobenius_number``'s numerator at u = -1/q = a/b with a = -1 and
    b = q (that docstring's b, not the width here), so c = a - b = -(1+q) and
    H_l(-1/q) = F_l / c^l.  ``_width`` bounds F_l.
    """
    value = _fubini_form(l, 1 << b, -1 - (1 << b))[0]
    return -value if l % 2 else value


def _frobenius_values(n: int, b: int) -> tuple[int, ...]:
    """R_0..R_n at q = 2^b: H_l(-1/q)'s numerators over (1+q)^n, shaped like ``_packed_moments``."""
    return _over_one_plus_power((_frobenius_value(l, b) for l in range(n + 1)), n, b)


def _check_thm1(n_max: int) -> list[IdentityInstance]:
    """E_n = H_n(-1/q): N_n against (-1)^n F_n, both E_n's numerator over (1+q)^n.

    b is the moment tables' width, so thm2 and thm6-thm8 read this chain.
    """
    out = []
    for n in range(n_max + 1):
        b = _width(n, (1 << n) + 3)
        out.append(_judged((n,), _packed_chain(0, b, n)[n], _frobenius_value(n, b), {2: n}, b))
    return out


def _check_thm2(n_max: int) -> list[IdentityInstance]:
    """E_n(x) = H_n(-1/q, x), compared coefficient by coefficient in x.

    The x^j coefficients are C(n,j) E_{n-j} and C(n,j) H_{n-j}(-1/q): over
    C(n,j) (1+q)^n, M_{n-j} and R_{n-j} (``_frobenius_values``).  Each has
    term weight 1, so the moment tables' width serves, and thm6-thm8 read
    the moments built here.
    """
    out = []
    for n in range(n_max + 1):
        b = _width(n, (1 << n) + 3)
        lefts = list(reversed(_packed_moments(n, False, b)))
        rights = list(reversed(_frobenius_values(n, b)))
        scales = [comb(n, j) for j in range(n + 1)]
        out.append(_judged((n,), lefts, rights, {2: n}, b, scales=scales))
    return out


def _pascal_rows(values: Sequence[int], op: Callable[[int, int], int]) -> Iterator[list[int]]:
    """The rows r_0 = values, r_(i+1)[j] = op(r_i[j+1], r_i[j]), down to the last nonempty one.

    With op = add, r_i[0] = sum_l C(i,l) values[l]; with op = sub, they are
    forward differences, and r_m[-1] = Delta^m values[n-m], n = len(values) - 1.
    n(n+1)/2 additions in all, one row held at a time.
    """
    row = list(values)
    while row:
        yield row
        row = list(map(op, row[1:], row))


@lru_cache(maxsize=None)
def _bernstein_table(n: int) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """(b, lefts, rights, full): both sides of every Bernstein row (n, k), over (1+q)^n at q = 2^b.

    With M_l = I(y^l) and M'_l = I'(y^l) (``_packed_moments``), row (n, k) says

        lefts[k]  = sum_l C(n-k,l) (-1)^l M_{k+l}        = (-1)^(n-k) Delta^(n-k) M_k
        rights[k] = sum_l C(k,l) (-1)^(k+l) q^2 M'_{n-l} = (-1)^k q^2 nabla^k M'_n,

    and nabla^k M'_n = Delta^k M'_{n-k}: each side is the last entry of a row
    of one forward-difference table, of the M_l or of the M'_l
    (``_pascal_rows``).  ``full`` is the right side of the full k = 0 row,
    rights[0] + (1+q) M'_0: the 1+q summands of a row add up to
    (1+q) M'_0 sum_l C(k,l) (-1)^(k+l), which is 0 for k >= 1.  A row's term
    weight is W = 2^(n-k) + 2^k <= 2^n + 1, and 2^n + 3 for the full k = 0
    row, so b = ``_width(n, 2^n + 3)`` serves every row of n.
    """
    b = _width(n, (1 << n) + 3)
    tails = [row[-1] for row in _pascal_rows(_packed_moments(n, False, b), sub)]
    lefts = tuple(-t if m % 2 else t for m, t in reversed(list(enumerate(tails))))
    reflected = _packed_moments(n, True, b)
    rights = tuple((-t if k % 2 else t) << 2 * b
                   for k, t in enumerate(row[-1] for row in _pascal_rows(reflected, sub)))
    return b, lefts, rights, rights[0] + reflected[0] + (reflected[0] << b)


@lru_cache(maxsize=None)
def _bernstein_row(n: int, k: int, full: bool) -> IdentityInstance:
    """Bernstein row (n, k), judged once per process from ``_bernstein_table(n)``, with no params.

    The right side's 1 + q telescopes away for k >= 1, but not at k = 0:
    thm7 is row (n, 0) in full, the k=0 remark is that row without it, and
    thm8 every row; they share this verdict and its witness.
    """
    b, lefts, rights, full_right = _bernstein_table(n)
    return _judged((), lefts[k], full_right if full and not k else rights[k], {2: n}, b)


def _bernstein_instance(
    params: tuple, n: int, k: int, full: bool = False, expected: str = PASS, note: str = ""
) -> IdentityInstance:
    """``_bernstein_row(n, k, full)`` with the params, expectation and note of one identity."""
    row = _bernstein_row(n, k, full)
    return IdentityInstance(params, row.verdict, expected, note, row.left, row.right)


def _shifted_moment(m: int, s: int, b: int) -> int:
    """q^s E_m(s) = sum_l C(m,l) s^(m-l) q^s I(y^l) over (1+q)^m at q = 2^b, by Horner in s."""
    acc = 0
    for l, value in enumerate(_packed_moments(m, False, b)):
        acc = acc * s + comb(m, l) * value
    return acc << b * s


# cor3 is checked for every m = 0.._COR3_M_MAX at each odd n <= n_max.
_COR3_M_MAX = 15


def _shift_values(s: int, m: int, first: int = 0) -> tuple[int, int, int]:
    """(b, left, right): the shift family at s and f = y^m, both sides over (1+q)^m at q = 2^b.

    s steps of q I(f(y+1)) + I(f) = [2]_q f(0) give, for every s >= 1,
    q^s I(f(y+s)) + (-1)^(s-1) I(f) = [2]_q sum_{l<s} (-1)^(s-1-l) f(l) q^l.
    left is q^s E_m(s) (``_shifted_moment``); right is [2]_q sum_{first<=l<s}
    (-1)^(s-1-l) l^m q^l I(1) - (-1)^(s-1) E_m, one small polynomial times
    M_0 = (1+q)^m, and M_m.  first = 1 leaves out the l = 0 term, 0^m.  The
    term weights are (s+1)^m and 1 + 2 sum_{first<=l<s} l^m (``_width``).
    """
    alt = [(-1) ** (s - 1 - l) * l**m for l in range(first, s)]
    b = _width(m, (s + 1) ** m + 1 + 2 * sum(map(abs, alt)))
    moments = _packed_moments(m, False, b)
    unit = sum(c << b * l for l, c in enumerate(alt, first))
    right = (unit + (unit << b)) * moments[0] - (-1) ** (s - 1) * moments[m]  # unit times 1 + q
    return b, _shifted_moment(m, s, b), right


def _check_cor3(n_max: int) -> list[IdentityInstance]:
    """q^n E_m(n) + E_m = [2]_q sum_{l<n} (-1)^l l^m q^l: the shift family at odd s = n."""
    out = []
    for n in range(1, n_max + 1, 2):
        for m in range(_COR3_M_MAX + 1):
            b, left, right = _shift_values(n, m)
            out.append(_judged((n, m), left, right, {2: m}, b))
    return out


def _check_thm4(n_max: int) -> list[IdentityInstance]:
    """q E_n(1) + E_n = [2]_q at n = 0 and 0 for n >= 1: the shift family at s = 1."""
    out = []
    for n in range(n_max + 1):
        b, left, right = _shift_values(1, n)
        out.append(_judged((n,), left, right, {2: n}, b))
    return out


def _check_thm5(n_max: int) -> list[IdentityInstance]:
    """q^2 I((y+2)^n) = (q + q^2) I(1) + I(y^n), that is q^2 E_n(2) = q + q^2 + E_n, for n >= 1.

    It is the shift family at s = 2 without its l = 0 term, -[2]_q 0^n, which
    is 0 for n >= 1.  At n = 0, outside the hypothesis, 0^0 = 1: both sides are
    computable and differ by exactly that term, an expected failure.
    """
    out = []
    for n in range(n_max + 1):
        b, left, right = _shift_values(2, n, 1)
        probe = {} if n else {
            "expected": FAIL,
            "note": "n=0 excluded by the n >= 1 hypothesis; inequality confirmed",
        }
        out.append(_judged((n,), left, right, {2: n}, b, **probe))
    return out


def _reflection_values(n: int) -> tuple[int, list[int], list[int]]:
    """(b, lefts, rights): the x^j coefficients of E_{n,1/q}(1-x) and (-1)^n E_n(x), over C(n,j).

    E_n(x) = sum_j C(n,j) E_{n-j} x^j and E_{n,1/q}(1-x) = sum_j C(n,j) (-1)^j
    I'((1+y)^(n-j)) x^j, so lefts[j] = (-1)^j P_{n-j}, P_i = sum_l C(i,l)
    M'_l the first entries of one Pascal table of the reflected moments
    (``_pascal_rows``), and rights[j] = (-1)^n M_{n-j}.  C(n,j) != 0, so the
    x^j coefficients agree exactly when lefts[j] = rights[j].  Their term
    weight is 2^(n-j) + 1 <= 2^n + 3, so the Bernstein rows' width serves
    (``_bernstein_table``), and both read the same packed moments.
    """
    b = _width(n, (1 << n) + 3)
    sums = [row[0] for row in _pascal_rows(_packed_moments(n, True, b), add)]
    lefts = [-p if j % 2 else p for j, p in enumerate(reversed(sums))]
    rights = [-v if n % 2 else v for v in reversed(_packed_moments(n, False, b))]
    return b, lefts, rights


def _check_thm6(n_max: int) -> list[IdentityInstance]:
    """E_{n,1/q}(1-x) = (-1)^n E_n(x), compared coefficient by coefficient in x."""
    out = []
    for n in range(n_max + 1):
        b, lefts, rights = _reflection_values(n)
        scales = [comb(n, j) for j in range(n + 1)]
        out.append(_judged((n,), lefts, rights, {2: n}, b, scales=scales))
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
    """E_n at q = 1: N_n(1) against 2^n E_n of the classical recurrence (``_classical_numerators``).

    N_n(1) is N_n(2^b) mod 2^b - 1, centred, exact by ``_width``.
    """
    out = []
    for n, e in enumerate(_classical_numerators(n_max)):
        b = _width(n, (1 << n) + 3)
        modulus = (1 << b) - 1
        value = _packed_chain(0, b, n)[n] % modulus
        if 2 * value > modulus:
            value -= modulus
        if value != e:  # a failing instance keeps both values of E_n(1) as its witness
            value, e = Fraction(value, 1 << n), Fraction(e, 1 << n)
        out.append(_judged((n,), value, e))
    return out


def _check_weighted(n_max: int) -> list[IdentityInstance]:
    out = []
    for alpha in (1, 2, 3):
        for n in range(n_max + 1):
            b, left, right = _weighted_values(alpha, n)
            # only a failing instance's witnesses read the Phi_d exponents
            over = None if left == right else _closed_form_factors(alpha, n)
            out.append(_judged((alpha, n), left, right, over, b))
    return out


def _check_thm8(n_max: int) -> list[IdentityInstance]:
    """Every Bernstein row (n, k), 1 <= n <= n_max; row (n, 0) as the k=0 shortcut and in full.

    The shortcut drops the 1+q, so it is expected to fail.  Each row is judged
    once per process (``_bernstein_row``), so the rows thm7 and the k=0 remark
    judged are read back here, witnesses included.
    """
    out = []
    note = "claimed k=0 shortcut drops the 1+q term"
    for n in range(1, n_max + 1):
        out.append(_bernstein_instance((n, 0, "k0-remark"), n, 0, expected=FAIL, note=note))
        out.append(_bernstein_instance((n, 0, "full"), n, 0, full=True))
        out.extend(_bernstein_instance((n, k), n, k) for k in range(1, n))
    return out


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
    every m = 0..15 at each odd n <= n_max, "thm8" every Bernstein row.
    """
    key = identity_id.lower()
    if key not in _CHECK_BY_ID:
        raise ValueError(f"unknown identity {identity_id!r}; known: {sorted(_CHECK_BY_ID)}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return IdentityReport(key, tuple(_CHECK_BY_ID[key](n_max)))
