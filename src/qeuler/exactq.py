"""Exact arithmetic kernel.

Three layers, all immutable and safe to share between threads:

* ``BigRat`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``QPoly`` -- dense univariate polynomials in the indeterminate q over
  ``BigRat``, stored ascending by power with no trailing zeros.
* ``QRatFn`` -- the field of rational functions in q, kept in a unique
  canonical form: numerator and denominator coprime, denominator monic.
  Equal field elements therefore have identical representations, and
  equality/hashing are structural.

``XPoly`` (polynomials in a second indeterminate x with ``QRatFn``
coefficients) lives here too since it is plain arithmetic plumbing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence, Union

BigRat = Fraction

RatLike = Union[Fraction, int]


# ---------------------------------------------------------------------------
# integer polynomial gcd (subresultant PRS)
# ---------------------------------------------------------------------------

def _int_primitive(cs: list[int]) -> list[int]:
    """Divide out the integer content and make the leading coefficient > 0."""
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            break
    if g == 0:
        return cs
    if cs[-1] < 0:
        g = -g
    return [c // g for c in cs]


def _prem(A: list[int], B: list[int]) -> list[int]:
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B, integer exact."""
    dB = len(B) - 1
    lead = B[-1]
    R = list(A)
    e = len(A) - len(B) + 1
    while R and len(R) - 1 >= dB:
        s = R[-1]
        R = [lead * c for c in R]
        shift = len(R) - len(B)
        for i, bc in enumerate(B):
            R[shift + i] -= s * bc
        while R and R[-1] == 0:
            R.pop()
        e -= 1
    if e > 0 and R:
        le = lead ** e
        R = [le * c for c in R]
    return R


def _int_poly_gcd(F: list[int], G: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials (ascending coeffs).

    Subresultant PRS; keeps intermediate coefficient growth polynomial,
    unlike monic Euclid over the rationals.
    """
    if len(F) < len(G):
        F, G = G, F
    A = _int_primitive(F)
    B = _int_primitive(G)
    g = h = 1
    while True:
        delta = (len(A) - 1) - (len(B) - 1)
        R = _prem(A, B)
        if not R:
            return _int_primitive(B)
        if len(R) == 1:
            return [1]
        A, B = B, [c // (g * h**delta) for c in R]
        g = A[-1]
        if delta > 0:
            h = g**delta // h ** (delta - 1)


# ---------------------------------------------------------------------------
# polynomials in q
# ---------------------------------------------------------------------------

class QPoly:
    """Dense polynomial in q with exact rational coefficients.

    Coefficients ascend by power; a trailing zero is never stored, so the
    zero polynomial is the empty tuple and equality is structural.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return _QP_ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _QP_ONE

    @classmethod
    def q(cls) -> "QPoly":
        return _QP_Q

    @classmethod
    def const(cls, c: RatLike) -> "QPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: RatLike = 1) -> "QPoly":
        """c * q**k."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (c,))

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QPoly", self.coeffs))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return QPoly(cs)

    def __neg__(self) -> "QPoly":
        p = QPoly.__new__(QPoly)
        p.coeffs = tuple(-c for c in self.coeffs)
        return p

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _QP_ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPoly(out)

    def scale(self, c: RatLike) -> "QPoly":
        c = Fraction(c)
        if not c:
            return _QP_ZERO
        p = QPoly.__new__(QPoly)
        p.coeffs = tuple(a * c for a in self.coeffs)
        return p

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if self.is_zero:
            return self
        p = QPoly.__new__(QPoly)
        p.coeffs = (Fraction(0),) * k + self.coeffs
        return p

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a QPoly")
        result = _QP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db:
            c = rem[-1] / lead
            k = len(rem) - 1 - db
            quot[k] = c
            for i, bc in enumerate(other.coeffs):
                rem[k + i] -= c * bc
            while rem and not rem[-1]:
                rem.pop()
        return QPoly(quot), QPoly(rem)

    def __floordiv__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def divexact(self, other: "QPoly") -> "QPoly":
        """Division known to be exact; raises if a remainder appears."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "QPoly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self.scale(1 / self.coeffs[-1])

    def reversed(self) -> "QPoly":
        """Coefficient reversal over the current degree (q -> 1/q core step)."""
        return QPoly(tuple(reversed(self.coeffs)))

    # -- evaluation and display ----------------------------------------

    def eval(self, c: RatLike) -> Fraction:
        c = Fraction(c)
        acc = Fraction(0)
        for a in reversed(self.coeffs):
            acc = acc * c + a
        return acc

    def __call__(self, c: RatLike) -> Fraction:
        return self.eval(c)

    def __str__(self) -> str:
        return poly_str(self.coeffs, "q")

    def __repr__(self) -> str:
        return f"QPoly({[str(c) for c in self.coeffs]})"


_QP_ZERO = QPoly(())
_QP_ONE = QPoly((1,))
_QP_Q = QPoly((0, 1))


def poly_str(coeffs: Sequence[Fraction], var: str) -> str:
    """Ascending-power display: ``1 + 2*q - q^3``.  Fixed for snapshots."""
    if not coeffs:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = var if k == 1 else f"{var}^{k}"
        else:
            body = f"{mag}*{var}" if k == 1 else f"{mag}*{var}^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd in Q[q]."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    H = _int_poly_gcd(_clear_denominators(a), _clear_denominators(b))
    return QPoly(H).monic()


def _clear_denominators(p: QPoly) -> list[int]:
    mult = reduce(math.lcm, (c.denominator for c in p.coeffs), 1)
    return [int(c * mult) for c in p.coeffs]


def q_integer(x: int) -> QPoly:
    """The q-number [x]_q = 1 + q + ... + q^(x-1); [0]_q is zero."""
    if x < 0:
        raise ValueError("q_integer requires x >= 0")
    return QPoly((1,) * x)


def _ishift_add(cs: list[int], m: int, c: int = 1) -> list[int]:
    """cs * (1 + c*q^m) on ascending int coefficients."""
    out = cs + [0] * m
    for i, a in enumerate(cs):
        out[i + m] += c * a
    return out


def _ishift_div(cs: list[int], m: int, c: int = 1) -> list[int]:
    """cs / (1 + c*q^m), the inverse of ``_ishift_add``; raises if it is not exact."""
    out = list(cs)
    for i in range(m, len(out)):
        out[i] -= c * out[i - m]
    top = max(len(out) - m, 0)
    if any(out[top:]):
        raise ArithmeticError(f"1 + {c}*q^{m} does not divide the polynomial")
    return out[:top]


@lru_cache(maxsize=None)
def _icyclotomic(n: int) -> tuple[int, ...]:
    """Ascending int coefficients of Phi_n, monic.

    For n >= 2, Phi_n = prod_{d | n} (1 - q^d)^mu(n/d); the sparse
    multiplications come first, so every division that follows is exact.
    """
    if n == 1:
        return (-1, 1)
    primes, rest, p = [], n, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    mul, div = [], []
    for mask in range(1 << len(primes)):
        e = 1  # a squarefree divisor of n, with mu(e) = (-1)^popcount(mask)
        for i, p in enumerate(primes):
            if mask >> i & 1:
                e *= p
        (div if bin(mask).count("1") % 2 else mul).append(n // e)
    cs = [1]
    for d in mul:
        cs = _ishift_add(cs, d, -1)
    for d in div:
        cs = _ishift_div(cs, d, -1)
    return tuple(cs)


def cyclotomic(n: int) -> QPoly:
    """n-th cyclotomic polynomial (integer coefficients, monic)."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return QPoly(_icyclotomic(n))


def one_plus_q_power_factors(m: int) -> list[int]:
    """Cyclotomic indices d with Phi_d | (1 + q^m): divisors of 2m not dividing m."""
    if m < 1:
        raise ValueError("exponent must be >= 1")
    return [d for d in range(1, 2 * m + 1) if (2 * m) % d == 0 and m % d != 0]


# ---------------------------------------------------------------------------
# rational functions in q
# ---------------------------------------------------------------------------

class QRatFn:
    """Reduced rational function in q.

    Invariants: gcd(num, den) = 1, den monic and nonzero, zero stored as
    0/1.  The representation is unique, so ``==`` and ``hash`` are
    structural and a passing equality check certifies field equality.
    """

    __slots__ = ("num", "den")

    num: QPoly
    den: QPoly

    def __init__(self, num, den=None):
        num = _as_qpoly(num)
        den = _QP_ONE if den is None else _as_qpoly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = _QP_ZERO, _QP_ONE
            return
        g = qpoly_gcd(num, den)
        if g.degree > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        lead = den.leading
        if lead != 1:
            inv = 1 / lead
            num = num.scale(inv)
            den = den.scale(inv)
        self.num, self.den = num, den

    @classmethod
    def _raw(cls, num: QPoly, den: QPoly) -> "QRatFn":
        """Wrap an already-reduced pair (den monic, gcd 1).  Internal."""
        f = cls.__new__(cls)
        f.num, f.den = num, den
        return f

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QRatFn":
        return _QR_ZERO

    @classmethod
    def one(cls) -> "QRatFn":
        return _QR_ONE

    @classmethod
    def q(cls) -> "QRatFn":
        return _QR_Q

    @classmethod
    def const(cls, c: RatLike) -> "QRatFn":
        return cls._raw(QPoly.const(c), _QP_ONE) if c else _QR_ZERO

    @classmethod
    def from_poly(cls, p: QPoly) -> "QRatFn":
        return cls._raw(p, _QP_ONE)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        """The value of a constant rational function."""
        if not self.is_constant:
            raise ValueError(f"not a constant rational function: {self}")
        if self.num.is_zero:
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("QRatFn", self.num.coeffs, self.den.coeffs))

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other) -> "QRatFn":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d = qpoly_gcd(self.den, other.den)
        if d.degree <= 0:
            num = self.num * other.den + other.num * self.den
            if num.is_zero:
                return _QR_ZERO
            return QRatFn._raw(num, self.den * other.den)
        t = self.num * other.den.divexact(d) + other.num * self.den.divexact(d)
        if t.is_zero:
            return _QR_ZERO
        g2 = qpoly_gcd(t, d)
        if g2.degree > 0:
            t = t.divexact(g2)
            den = self.den.divexact(d) * other.den.divexact(g2)
        else:
            den = self.den.divexact(d) * other.den
        return QRatFn._raw(t, den)

    __radd__ = __add__

    def __neg__(self) -> "QRatFn":
        return QRatFn._raw(-self.num, self.den)

    def __sub__(self, other) -> "QRatFn":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QRatFn":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QRatFn":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _QR_ZERO
        g1 = qpoly_gcd(self.num, other.den)
        g2 = qpoly_gcd(other.num, self.den)
        n1 = self.num.divexact(g1) if g1.degree > 0 else self.num
        n2 = other.num.divexact(g2) if g2.degree > 0 else other.num
        d1 = self.den.divexact(g2) if g2.degree > 0 else self.den
        d2 = other.den.divexact(g1) if g1.degree > 0 else other.den
        return QRatFn._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "QRatFn":
        if self.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        lead = self.num.leading
        return QRatFn._raw(self.den.scale(1 / lead), self.num.scale(1 / lead))

    def __truediv__(self, other) -> "QRatFn":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "QRatFn":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "QRatFn":
        if n < 0:
            return self.inverse() ** (-n)
        result = _QR_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation and substitution -------------------------------------

    def eval(self, c: RatLike) -> Fraction:
        """Exact value at q = c; raises at a pole, naming it."""
        c = Fraction(c)
        dv = self.den.eval(c)
        if not dv:
            raise ZeroDivisionError(f"evaluation at a pole: q = {c}")
        return self.num.eval(c) / dv

    def __call__(self, c: RatLike) -> Fraction:
        return self.eval(c)

    def subst_q_inverse(self) -> "QRatFn":
        """The substitution q -> 1/q, cleared back into the field.

        An involution and a field automorphism: f(1/c) is recovered at
        every nonzero non-pole c.
        """
        if self.is_zero:
            return self
        m, d = self.num.degree, self.den.degree
        num = self.num.reversed()
        den = self.den.reversed()
        if d >= m:
            num = num.shift(d - m)
        else:
            den = den.shift(m - d)
        return QRatFn(num, den)

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"QRatFn({self.num!r}, {self.den!r})"


def _as_qpoly(v) -> QPoly:
    if isinstance(v, QPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return QPoly.const(v)
    if isinstance(v, (tuple, list)):
        return QPoly(v)
    raise TypeError(f"cannot interpret {type(v).__name__} as a QPoly")


def _coerce(v) -> "QRatFn":
    if isinstance(v, QRatFn):
        return v
    if isinstance(v, (int, Fraction)):
        return QRatFn.const(v)
    if isinstance(v, QPoly):
        return QRatFn.from_poly(v)
    return NotImplemented


_QR_ZERO = QRatFn.__new__(QRatFn)
_QR_ZERO.num, _QR_ZERO.den = _QP_ZERO, _QP_ONE
_QR_ONE = QRatFn.__new__(QRatFn)
_QR_ONE.num, _QR_ONE.den = _QP_ONE, _QP_ONE
_QR_Q = QRatFn.__new__(QRatFn)
_QR_Q.num, _QR_Q.den = _QP_Q, _QP_ONE


# ---------------------------------------------------------------------------
# polynomials in x over the rational-function field
# ---------------------------------------------------------------------------

class XPoly:
    """Polynomial in x with QRatFn coefficients, ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    coeffs: tuple[QRatFn, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, QRatFn) else QRatFn.const(Fraction(c)) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "XPoly":
        return cls(())

    @classmethod
    def one(cls) -> "XPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "XPoly":
        return cls((0, 1))

    @classmethod
    def from_fractions(cls, coeffs: Iterable[RatLike]) -> "XPoly":
        return cls(QRatFn.const(Fraction(c)) for c in coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("XPoly", self.coeffs))

    def __add__(self, other: "XPoly") -> "XPoly":
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return XPoly(cs)

    def __neg__(self) -> "XPoly":
        return XPoly(-c for c in self.coeffs)

    def __sub__(self, other: "XPoly") -> "XPoly":
        if not isinstance(other, XPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "XPoly") -> "XPoly":
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XPoly(())
        out = [_QR_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return XPoly(out)

    def scale(self, c: "QRatFn | RatLike") -> "XPoly":
        c = _coerce(c)
        return XPoly(a * c for a in self.coeffs)

    def __pow__(self, n: int) -> "XPoly":
        if n < 0:
            raise ValueError("negative power of an XPoly")
        result = XPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, v) -> "QRatFn":
        """Value at x = v (a QRatFn, Fraction, or int)."""
        v = _coerce(v)
        acc = _QR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __call__(self, v) -> "QRatFn":
        return self.eval(v)

    def compose(self, other: "XPoly") -> "XPoly":
        """Substitute x -> other(x)."""
        acc = XPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * other + XPoly((c,))
        return acc

    def shift_x(self, a: RatLike) -> "XPoly":
        """Substitute x -> x + a."""
        return self.compose(XPoly((QRatFn.const(Fraction(a)), _QR_ONE)))

    def map_coeffs(self, fn) -> "XPoly":
        return XPoly(fn(c) for c in self.coeffs)

    def fraction_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients of a polynomial constant in q, as plain rationals."""
        return tuple(c.as_fraction() for c in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"XPoly({[str(c) for c in self.coeffs]})"
