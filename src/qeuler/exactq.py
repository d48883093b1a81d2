"""Exact arithmetic kernel.

Three layers, all immutable and safe to share between threads:

* ``BigRat`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``QPoly`` -- dense univariate polynomials in the indeterminate q over
  ``BigRat``, each a rational content times a primitive integer polynomial
  (Knuth, TAOCP vol. 2, 4.6.1), so every per-coefficient loop runs on ints.
  One integer pseudo-division, ``_pdivmod``, serves division and the gcd
  (primitive Euclid); one accumulator, ``_icombination``, every sum of
  shifted multiples of lists, dense products (``_imul``) included.  Work on
  many wide coefficients runs instead on a polynomial's value at q = 2^b, one
  int (Kronecker substitution): ``_iunpack`` reads the digits back through
  bytes, ``_ireverse`` reverses their order, and no packed int is ever
  divided.  Multiplying or dividing by a product of cyclotomic polynomials is
  sparse (``_cyclotomic_scale``), and so is a Phi_d divisibility test, after
  one evaluation at q = 2^32 (``_cyclotomic_quotient``).
* ``QRatFn`` -- the field of rational functions in q, kept in a unique
  canonical form: numerator and denominator coprime, denominator monic.
  Equal field elements therefore have identical representations, and
  equality/hashing are structural.

``XPoly`` (polynomials in a second indeterminate x with ``QRatFn``
coefficients) lives here too since it is plain arithmetic plumbing.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import Iterable, Mapping, Sequence, Union

BigRat = Fraction

RatLike = Union[Fraction, int]


# ---------------------------------------------------------------------------
# integer polynomials: ascending int lists
# ---------------------------------------------------------------------------

def _itrim(cs: list[int]) -> list[int]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _imul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two nonzero integer polynomials, one shifted copy of the longer per term."""
    if len(a) > len(b):
        a, b = b, a
    return _icombination([0] * (len(a) + len(b) - 1), ((x, i, b) for i, x in enumerate(a) if x))


def _pdivmod(A: Sequence[int], B: Sequence[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division: (Q, R, e) with lc(B)^e * A = Q*B + R and deg R < deg B.

    A step scales by lc(B) only when the leading coefficient left is not a
    multiple of it.  So a division by a monic B, or an exact division by a
    primitive B (Gauss's lemma), is plain long division with e = 0.
    """
    lead, d = B[-1], len(B) - 1
    R = list(A)
    Q = [0] * max(len(R) - d, 0)
    e = 0
    for k in range(len(Q) - 1, -1, -1):
        c = R.pop()
        if not c:
            continue
        if lead != 1:
            if c % lead:
                R = [lead * r for r in R]
                Q = [lead * x for x in Q]
                e += 1
            else:
                c //= lead
        Q[k] = c
        for i in range(d):
            R[k + i] -= c * B[i]
    return Q, _itrim(R), e


def _int_poly_gcd(A: Sequence[int], B: Sequence[int]) -> Sequence[int]:
    """The gcd, primitive and up to sign, of two primitive nonzero integer polynomials.

    Primitive Euclid (Knuth 4.6.1, Algorithm E): each pseudo-remainder is
    cut to its primitive part.  When the inputs share a high power of a
    factor such as 1 + q, the remainders carry large contents; dropping them
    beats the subresultant PRS (Algorithm C), which keeps them.  On random
    coprime input the two carry about the same size and the PRS is faster.
    """
    if len(A) < len(B):
        A, B = B, A
    while True:
        R = _pdivmod(A, B)[1]
        if not R:
            return B
        if len(R) == 1:
            return [1]
        g = math.gcd(*R)
        A, B = B, [c // g for c in R]


def _icombination(out: list[int], terms: Iterable[tuple[int, int, Sequence[int]]]) -> list[int]:
    """out += sum c*q^s*cs over the (c, s, cs) terms; trimmed, so equal sums compare equal."""
    for c, s, cs in terms:
        if len(out) < s + len(cs):
            out.extend([0] * (s + len(cs) - len(out)))
        for i, a in enumerate(cs, s):
            out[i] += c * a
    return _itrim(out)


def _ishift_add(cs: list[int], m: int) -> list[int]:
    """cs * (1 - q^m) on ascending int coefficients: one ``map`` over slices."""
    out = cs + [0] * m
    out[m:] = map(sub, out[m:], cs)
    return out


def _iunpack(value: int, b: int) -> list[int]:
    """The coefficients of P from value = P(2^b), every |coefficient| < 2^(b-1), b a multiple of 8.

    With value = sum c_i 2^(b*i), adding 2^(b-1) to every digit puts each
    c_i + 2^(b-1) in [1, 2^b), its own b//8 bytes.  There are at most
    bitlen(value) // b + 1 digits: a top digit c_L at q^L keeps
    |value| > 2^(b*L-1).  One ``to_bytes``, and one ``from_bytes`` per
    coefficient; nothing divides.
    """
    w, length, half = b // 8, abs(value).bit_length() // b + 1, 1 << (b - 1)
    data = (value + _repunit(w, length)).to_bytes(w * length, "little")
    return _itrim([int.from_bytes(data[i:i + w], "little") - half for i in range(0, len(data), w)])


def _repunit(w: int, length: int) -> int:
    """sum_{i<length} 2^(b-1) 2^(b*i), b = 8w: the digit 2^(b-1) in each of length places."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * length, "little")


def _ireverse(value: int, b: int, digits: int) -> int:
    """q^(d-1) P(1/q) at q = 2^b from value = P(2^b), d = digits: P's d digits reversed.

    As for ``_iunpack``, every |coefficient| < 2^(b-1) and 8 | b, so with the
    repunit added each digit is its own b//8 bytes of one fixed-length
    ``to_bytes``.  A P with more than d coefficients does not fit, whatever
    the sign of its top one, and raises ArithmeticError.  Nothing divides.
    """
    w = b // 8
    repunit = _repunit(w, digits)
    try:
        data = (value + repunit).to_bytes(w * digits, "little")
    except OverflowError:
        raise ArithmeticError(f"the polynomial has more than {digits} coefficients") from None
    return int.from_bytes(b"".join([data[i:i + w] for i in range(w * (digits - 1), -1, -w)]),
                          "little") - repunit


def _ishift_div(cs: list[int], m: int) -> list[int]:
    """cs / (1 - q^m), the inverse of ``_ishift_add``; raises if it is not exact.

    Each residue class mod m of the quotient is the running sum of the same
    class of cs (``accumulate``); the top m sums are the remainder.
    """
    out = list(cs)
    for r in range(min(m, len(out))):
        out[r::m] = accumulate(cs[r::m])
    top = max(len(out) - m, 0)
    if any(out[top:]):
        raise ArithmeticError(f"1 - q^{m} does not divide the polynomial")
    return out[:top]


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


@lru_cache(maxsize=None)
def _binomial_exponents(d: int) -> tuple[tuple[int, int], ...]:
    """The pairs (e, m_e) with Phi_d = prod (q^e - 1)^m_e over the divisors e of d.

    Moebius inversion of q^n - 1 = prod_{d | n} Phi_d, so m_e = mu(d/e).
    """
    exps = Counter({d: 1})
    for e in _divisors(d)[:-1]:
        for f, m in _binomial_exponents(e):
            exps[f] -= m
    return tuple((e, m) for e, m in exps.items() if m)


def _cyclotomic_scale(cs: Sequence[int], exps: Mapping[int, int]) -> list[int]:
    """cs * prod Phi_d^exps[d]; a negative exponent divides, raising ArithmeticError if inexact.

    Each Phi_d is a product of powers of q^e - 1, so every step is a sparse
    multiplication or division by 1 - q^e.  The multiplications come first,
    so when the quotient is a polynomial every division is exact.
    """
    total = Counter()
    for d, k in exps.items():
        for e, m in _binomial_exponents(d):
            total[e] += k * m
    out = list(cs)
    for e, m in sorted(total.items(), key=lambda em: -em[1]):
        for _ in range(abs(m)):
            out = _ishift_add(out, e) if m > 0 else _ishift_div(out, e)
    # q^e - 1 = -(1 - q^e)
    return [-c for c in out] if sum(total.values()) % 2 else out


@lru_cache(maxsize=None)
def _icyclotomic(n: int) -> tuple[int, ...]:
    """Ascending int coefficients of Phi_n, monic."""
    return tuple(_cyclotomic_scale([1], {n: 1}))


@lru_cache(maxsize=None)
def _cyclotomic_at_radix(d: int) -> int:
    return sum(c << (32 * i) for i, c in enumerate(_icyclotomic(d)))  # Phi_d(2^32)


def _cyclotomic_quotient(num: Sequence[int], d: int) -> list[int] | None:
    """num / Phi_d when Phi_d divides num, else None.

    Phi_d is monic and divides q^d - 1, so if Phi_d | num, Phi_d(R) divides the
    fold num mod q^d - 1 at R = 2^32: a nonzero residue proves Phi_d does not
    divide num, and a zero one is settled by the exact sparse division.
    """
    if sum(sum(num[i::d]) << (32 * i) for i in range(d)) % _cyclotomic_at_radix(d):
        return None
    try:
        return _cyclotomic_scale(num, {d: -1})
    except ArithmeticError:
        return None


# ---------------------------------------------------------------------------
# polynomials in q
# ---------------------------------------------------------------------------

class QPoly:
    """Dense polynomial in q with exact rational coefficients.

    Stored as ``content * prim``: ``prim`` is a primitive integer
    polynomial (ascending ints, gcd 1, leading coefficient > 0) and
    ``content`` a nonzero Fraction.  Zero is content 0 with an empty
    ``prim``.  The pair is unique, so equality is structural.
    """

    __slots__ = ("content", "prim")

    content: Fraction
    prim: tuple[int, ...]

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        fs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fs))
        p = _qpoly([f.numerator * (den // f.denominator) for f in fs], Fraction(1, den))
        self.content, self.prim = p.content, p.prim

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
        c = Fraction(c)
        return _wrap(c, (1,)) if c else _QP_ZERO

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients ascending by power, built on each access."""
        n, d = self.content.numerator, self.content.denominator
        return tuple(Fraction(n * c, d) for c in self.prim)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.prim) - 1

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def leading(self) -> Fraction:
        return self.content * self.prim[-1] if self.prim else self.content

    def __bool__(self) -> bool:
        return bool(self.prim)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.prim == other.prim and self.content == other.content
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.degree < 1:  # equal to its Fraction value, so hashed as it
            return hash(self.content)
        return hash(("QPoly", self.content, self.prim))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        if not other.prim:
            return self
        if not self.prim:
            return other
        # a*P + b*S = (x*P + y*S) / L with integers x, y
        a, b = self.content, other.content
        L = math.lcm(a.denominator, b.denominator)
        x, y = a.numerator * (L // a.denominator), b.numerator * (L // b.denominator)
        return _qpoly(_icombination([], [(x, 0, self.prim), (y, 0, other.prim)]), Fraction(1, L))

    def __neg__(self) -> "QPoly":
        return _wrap(-self.content, self.prim)

    def __sub__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.prim or not other.prim:
            return _QP_ZERO
        # Gauss's lemma: a product of primitive polynomials is primitive
        return _wrap(self.content * other.content, tuple(_imul(self.prim, other.prim)))

    def scale(self, c: RatLike) -> "QPoly":
        c = Fraction(c)
        if not c or not self.prim:
            return _QP_ZERO
        return _wrap(self.content * c, self.prim)

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if self.is_zero:
            return self
        return _wrap(self.content, (0,) * k + self.prim)

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a QPoly")
        return _power(self, n, _QP_ONE)

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        Q, R, e = _pdivmod(self.prim, other.prim)
        c = self.content / other.prim[-1] ** e
        return _qpoly(Q, c / other.content), _qpoly(R, c)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def divexact(self, other: "QPoly") -> "QPoly":
        """Division known to be exact; raises if a remainder appears."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "QPoly":
        return _wrap(Fraction(1, self.prim[-1]), self.prim) if self.prim else self

    def reversed(self) -> "QPoly":
        """Coefficient reversal over the current degree (q -> 1/q core step)."""
        return _qpoly(self.prim[::-1], self.content)

    # -- evaluation and display ----------------------------------------

    def eval(self, c: RatLike) -> Fraction:
        c = Fraction(c)
        acc, dk = 0, 1  # homogeneous Horner: acc / (dk / den) = prim(c)
        for a in reversed(self.prim):
            acc, dk = acc * c.numerator + a * dk, dk * c.denominator
        return self.content * Fraction(acc, dk // c.denominator) if self.prim else Fraction(0)

    def __call__(self, c: RatLike) -> Fraction:
        return self.eval(c)

    def __str__(self) -> str:
        return poly_str(_display_coeffs(self), "q")

    def __repr__(self) -> str:
        return f"QPoly({[str(c) for c in self.coeffs]})"


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, with ``one`` the unit of base's ring."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _display_coeffs(p: QPoly) -> Sequence[RatLike]:
    """``p.coeffs``, as ints when the content is integral: they print and compare the same."""
    c = p.content
    if c.denominator != 1:
        return p.coeffs
    k = c.numerator  # a Fraction property: read once per polynomial
    return [k * a for a in p.prim]


def _wrap(content: Fraction, prim: tuple[int, ...]) -> QPoly:
    """A QPoly from a nonzero content and a primitive ``prim`` (or 0 and ())."""
    p = QPoly.__new__(QPoly)
    p.content, p.prim = content, prim
    return p


def _qpoly(cs: Sequence[int], content: Fraction = Fraction(1)) -> QPoly:
    """The QPoly content * cs, for any int list cs: divides out cs's integer content."""
    cs = _itrim(list(cs))
    if not cs:
        return _QP_ZERO
    g = math.gcd(*cs) if cs[-1] > 0 else -math.gcd(*cs)
    return _wrap(content * g, tuple(cs) if g == 1 else tuple(c // g for c in cs))


_QP_ZERO = _wrap(Fraction(0), ())
_QP_ONE = _wrap(Fraction(1), (1,))
_QP_Q = _wrap(Fraction(1), (0, 1))


@lru_cache(maxsize=None)
def _power_suffixes(var: str, latex: bool, size: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(bare, after) for k < size: var^k alone, and after a magnitude; both "" at k = 0.

    Text writes q, q^3 and 2*q^3; LaTeX q, q^{3} and 2 q^{3}.
    """
    bare = ("",) + tuple(
        var if k == 1 else f"{var}^{{{k}}}" if latex else f"{var}^{k}" for k in range(1, size))
    return bare, ("",) + tuple((" " if latex else "*") + power for power in bare[1:])


def signed_terms(coeffs: Sequence[RatLike], var: str, latex: bool = False) -> str:
    """The nonzero terms c_k var^k joined by their signs, ascending; "0" for no coeffs.

    Text writes ``1 + 2*q - 3/2*q^3``, LaTeX ``1 + 2 q - \\frac{3}{2} q^{3}``; a
    magnitude 1 is left out before a power.  Ints and Fractions take the one
    comprehension, over power suffixes cached for the next power of two of
    the length, so a table of many lengths caches few.
    """
    if not coeffs:
        return "0"
    bare, after = _power_suffixes(var, latex, 1 << (len(coeffs) - 1).bit_length())
    parts = [
        ("- " if c < 0 else "+ ") + (
            bare[k] if k and (c == 1 or c == -1)
            else (str(c)[c < 0:] if not latex or c.denominator == 1  # str(c) without its "-"
                  else f"\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}") + after[k])
        for k, c in enumerate(coeffs) if c
    ]
    if parts:  # the first term carries its sign unspaced, and no "+"
        parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
    return " ".join(parts)


def poly_str(coeffs: Sequence[RatLike], var: str) -> str:
    """Ascending-power display: ``1 + 2*q - q^3``.  Fixed for snapshots."""
    return signed_terms(coeffs, var)


def qpoly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd in Q[q], computed from the primitive parts alone."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return _QP_ONE
    return _qpoly(_int_poly_gcd(a.prim, b.prim)).monic()


def q_integer(x: int) -> QPoly:
    """The q-number [x]_q = 1 + q + ... + q^(x-1); [0]_q is zero."""
    if x < 0:
        raise ValueError("q_integer requires x >= 0")
    return _qpoly([1] * x)


def cyclotomic(n: int) -> QPoly:
    """n-th cyclotomic polynomial (integer coefficients, monic)."""
    if n < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return _wrap(Fraction(1), _icyclotomic(n))


@lru_cache(maxsize=None)
def one_plus_q_power_factors(m: int) -> tuple[int, ...]:
    """Cyclotomic indices d with Phi_d | (1 + q^m): divisors of 2m not dividing m."""
    if m < 1:
        raise ValueError("exponent must be >= 1")
    return tuple(d for d in _divisors(2 * m) if m % d)


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
            num, den = num.divexact(g), den.divexact(g)
        self.num, self.den = num.scale(1 / den.leading), den.monic()  # contents only

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
        return self.num.leading / self.den.leading

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self.den == _QP_ONE:  # equal to its numerator QPoly, so hashed as it
            return hash(self.num)
        return hash(("QRatFn", self.num, self.den))

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
        return QRatFn._raw(self.den.scale(1 / self.num.leading), self.num.monic())

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
        return _power(self, n, _QR_ONE)

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


_QR_ZERO = QRatFn._raw(_QP_ZERO, _QP_ONE)
_QR_ONE = QRatFn._raw(_QP_ONE, _QP_ONE)
_QR_Q = QRatFn._raw(_QP_Q, _QP_ONE)


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
