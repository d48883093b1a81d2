"""Finite-precision p-adic arithmetic and the truncated fermionic q-integral.

``PAdicNum`` tracks an absolute precision K (the value is known mod p^K)
as a valuation plus a unit residue.  A value whose unit residue vanished
entirely is flagged as indistinguishable from zero at that precision --
never silently treated as exact zero.

The level-N partial integral is the finite alternating sum

    [2]_q / (1 + q^(p^N)) * sum_{x=0}^{p^N - 1} f(x) (-q)^x

evaluated mod p^K.  That residue is exact, with no guard digits: each step
is a ring operation or the inverse of a unit (1 + q and 1 + q^(p^N) are 2
mod p, as an admissible q has |1 - q|_p < 1), so it commutes with reduction
mod p^K.  The sum is never expanded term by term: ``alt_weighted_power_sum``
gives it in closed form, dividing once by 1 + q.  A level costs
O(deg^2 + log p^N) operations, so levels in the hundreds are cheap.  Its
defect against the exact moment shrinks p-adically as N grows, which
``convergence_report`` measures.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, NamedTuple

from . import euler
from .exactq import BigRat, XPoly

DEFAULT_PRECISION = 12


def _vp(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = p^v * u, p not dividing u; n must be nonzero."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; a p >= PRIME_LIMIT is out of range (ValueError)."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"p = {p} is out of range: primality is decided only below {PRIME_LIMIT}")
    if p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PAdicNum:
    """Element of Q_p known to absolute precision ``prec``.

    Nonzero: ``val`` (any integer, possibly negative) plus ``unit``, a
    unit residue mod p^(prec - val).  ``unit == 0`` marks a value
    indistinguishable from zero at this precision (valuation >= prec).
    Immutable.
    """

    __slots__ = ("prime", "prec", "val", "unit")

    prime: int
    prec: int
    val: int
    unit: int

    def __init__(self, prime: int, prec: int, val: int, unit: int):
        # Every arithmetic result is built here, which reduces the unit mod
        # p^(prec - val) and strips its factors of p.  prec may drop to 0 or
        # below through division chains with negative valuations; entry
        # points that take a requested K validate K >= 1.
        if not is_odd_prime(prime):
            raise ValueError(f"p must be an odd prime, got {prime}")
        if unit:
            rel = prec - val
            unit = unit % prime**rel if rel > 0 else 0
            if unit:
                # 0 < unit < p^rel, so fewer than rel digits strip off and
                # the unit left is already reduced mod p^(rel - extra)
                extra, unit = _vp(unit, prime)
                val += extra
        if not unit:
            val = prec
        self.prime, self.prec, self.val, self.unit = prime, prec, val, unit

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero_at(cls, prime: int, prec: int) -> "PAdicNum":
        return cls(prime, prec, prec, 0)

    @classmethod
    def from_rational(cls, r: "BigRat | int", prime: int, prec: int) -> "PAdicNum":
        """Canonical p-adic expansion of an exact rational, mod p^prec."""
        r = Fraction(r)
        if r == 0:
            return cls.zero_at(prime, prec)
        vn, nu = _vp(r.numerator, prime)
        vd, du = _vp(r.denominator, prime)
        val = vn - vd
        rel = prec - val
        if rel <= 0:
            return cls.zero_at(prime, prec)
        mod = prime**rel
        unit = nu * pow(du, -1, mod) % mod
        return cls(prime, prec, val, unit)

    @classmethod
    def from_residue(cls, value: int, prime: int, prec: int) -> "PAdicNum":
        """Wrap an integer known mod p^prec."""
        return cls(prime, prec, 0, value)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero_at_prec(self) -> bool:
        """True when every tracked digit vanished (value is O(p^prec))."""
        return self.unit == 0

    @property
    def valuation(self) -> "int | None":
        """Exact valuation, or None when only the bound >= prec is known."""
        return None if self.unit == 0 else self.val

    @property
    def valuation_floor(self) -> int:
        """Best known lower bound for the valuation."""
        return self.prec if self.unit == 0 else self.val

    def residue(self) -> int:
        """The value mod p^prec for nonnegative-valuation elements."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer residue")
        return self.unit * self.prime**self.val % self.prime**self.prec

    # -- arithmetic ----------------------------------------------------------

    def _require_same_prime(self, other: "PAdicNum") -> None:
        if self.prime != other.prime:
            raise ValueError(f"prime mismatch: {self.prime} vs {other.prime}")

    def __add__(self, other: "PAdicNum") -> "PAdicNum":
        if not isinstance(other, PAdicNum):
            return NotImplemented
        self._require_same_prime(other)
        p = self.prime
        prec = min(self.prec, other.prec)
        vmin = min(self.val, other.val)
        s = self.unit * p ** (self.val - vmin) + other.unit * p ** (other.val - vmin)
        return PAdicNum(p, prec, vmin, s)

    def __neg__(self) -> "PAdicNum":
        return PAdicNum(self.prime, self.prec, self.val, -self.unit)

    def __sub__(self, other: "PAdicNum") -> "PAdicNum":
        if not isinstance(other, PAdicNum):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "PAdicNum") -> "PAdicNum":
        if not isinstance(other, PAdicNum):
            return NotImplemented
        self._require_same_prime(other)
        p = self.prime
        rel = min(self.prec - self.val, other.prec - other.val)
        val = self.val + other.val
        return PAdicNum(p, val + rel, val, self.unit * other.unit)

    def __truediv__(self, other: "PAdicNum") -> "PAdicNum":
        if not isinstance(other, PAdicNum):
            return NotImplemented
        self._require_same_prime(other)
        if other.unit == 0:
            raise ZeroDivisionError(
                "division by a value indistinguishable from zero at its precision"
            )
        p = self.prime
        rel = min(self.prec - self.val, other.prec - other.val)
        val = self.val - other.val
        return PAdicNum(p, val + rel, val, self.unit * pow(other.unit, -1, p**rel))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PAdicNum.from_rational(other, self.prime, self.prec)
        if not isinstance(other, PAdicNum):
            return NotImplemented
        if self.prime != other.prime:
            return False
        return (self - other).unit == 0

    __hash__ = None  # equality is precision-relative

    def __repr__(self) -> str:
        if self.unit == 0:
            return f"O({self.prime}^{self.prec})"
        return f"{self.prime}^{self.val}*{self.unit} + O({self.prime}^{self.prec})"


class QChoice(NamedTuple("QChoice", [("p", int), ("q", Fraction)])):
    """An admissible base q for the fermionic measure: |1 - q|_p < 1.

    q is kept as an exact rational so it can be embedded at any precision
    on demand.  ``_make``, and so ``_replace``, build through the same check.
    """

    __slots__ = ()

    def __new__(cls, p: int, q: Fraction) -> QChoice:
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        q = Fraction(q)
        diff = 1 - q
        if diff != 0:
            if diff.denominator % p == 0 or diff.numerator % p != 0:
                raise ValueError(f"need |1 - q|_p < 1; q = {q} fails at p = {p}")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable: Iterable) -> QChoice:
        return cls(*iterable)


def _embed_residue(r: Fraction, p: int, modulus: int) -> int:
    r = Fraction(r)
    if r.denominator % p == 0:
        raise ValueError(
            f"denominator of {r} is divisible by p = {p}; no residue embedding exists"
        )
    return r.numerator * pow(r.denominator, -1, modulus) % modulus


def alt_weighted_power_sum(coeffs, q: int, modulus: int, count: int) -> int:
    """sum_{x=0}^{count-1} P(x) * (-q)^x mod modulus, P given by ascending coeffs.

    Closed form by the perturbation method (Graham, Knuth, Patashnik,
    *Concrete Mathematics* 2.3).  With z = -q, M = count and
    S_j = sum_{x<M} x^j z^x, shifting the sum by one term gives

        (1 - z) S_j = [j = 0] - M^j z^M + z * sum_{i<j} C(j, i) S_i,

    so the cost is O(deg^2 + log M) modular operations, whatever M is.
    1 + q must be a unit mod modulus; otherwise ValueError, never a
    wrong residue.  The result is in [0, modulus).
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    coeffs = [c % modulus for c in coeffs]
    if not coeffs:
        return 0
    try:
        inv = pow(1 + q, -1, modulus)
    except ValueError:
        raise ValueError(f"1 + q = {1 + q} is not a unit mod {modulus}") from None
    z = -q % modulus
    z_m = pow(z, count, modulus)
    sums: list[int] = []
    total = 0
    for j, c in enumerate(coeffs):
        lower = sum(comb(j, i) * s for i, s in enumerate(sums))
        s_j = ((j == 0) - pow(count, j, modulus) * z_m + z * lower) * inv % modulus
        sums.append(s_j)
        total += c * s_j
    return total % modulus


def fermionic_integral_partial(
    f: XPoly,
    qc: QChoice,
    N: int,
    prec: int = DEFAULT_PRECISION,
) -> PAdicNum:
    """Finite-level fermionic q-integral of a polynomial with p-integral coefficients.

    Computed mod p^prec, which is exact (see the module docstring).  Exact
    at every level for constants; for f = 1 the alternating sum telescopes
    against the prefactor and the result is exactly 1.  Total loss of
    significance comes back flagged (is_zero_at_prec), not silent.
    """
    if N < 1:
        raise ValueError("level N must be >= 1")
    if prec < 1:
        raise ValueError("need precision >= 1")
    modulus = qc.p**prec
    count = qc.p**N
    coeffs = [_embed_residue(c, qc.p, modulus) for c in f.fraction_coeffs()]
    qres = _embed_residue(qc.q, qc.p, modulus)
    s = alt_weighted_power_sum(coeffs, qres, modulus, count)
    denom = 1 + pow(qres, count, modulus)  # a unit: = 2 mod p
    prefactor = (1 + qres) * pow(denom, -1, modulus)
    return PAdicNum.from_residue(prefactor * s, qc.p, prec)


class ConvergenceRow(NamedTuple):
    N: int
    valuation: int  # best known lower bound for v_p(defect)
    exact: bool  # defect indistinguishable from zero at precision prec


def _levels(N_list: Iterable[int]) -> list[int]:
    """The levels in increasing order; an empty list is rejected before any integral."""
    levels = sorted(N_list)
    if not levels:
        raise ValueError("need at least one level N")
    return levels


def _defect_rows(
    f: XPoly, qc: QChoice, exact: Fraction, levels: list[int], prec: int
) -> tuple[ConvergenceRow, ...]:
    """v_p(I_N(f) - exact) for each level N of ``levels``."""
    target = PAdicNum.from_rational(exact, qc.p, prec)
    out = []
    for N in levels:
        defect = fermionic_integral_partial(f, qc, N, prec) - target
        out.append(ConvergenceRow(N, defect.valuation_floor, defect.is_zero_at_prec))
    return tuple(out)


class ConvergenceReport(NamedTuple):
    """Defect valuations v_p(I_N - exact moment) across levels."""

    n: int
    p: int
    q: Fraction
    prec: int
    rows: tuple[ConvergenceRow, ...]

    @property
    def monotone(self) -> bool:
        vals = [r.valuation for r in self.rows]
        return all(a <= b for a, b in zip(vals, vals[1:]))

    @property
    def gain(self) -> int:
        return self.rows[-1].valuation - self.rows[0].valuation

    @property
    def ok(self) -> bool:
        """Nondecreasing defect valuations gaining >= 2, or exact throughout."""
        if not self.rows:
            return False
        if all(r.exact for r in self.rows):
            return True
        return self.monotone and self.gain >= 2


def convergence_report(
    n: int,
    qc: QChoice,
    prec: int = DEFAULT_PRECISION,
    N_list: "tuple[int, ...] | list[int]" = (1, 2, 3, 4, 5, 6),
) -> ConvergenceReport:
    """Compare level-N partial integrals of x^n against the exact moment.

    The exact target is the weight-0 q-Euler number evaluated at this q
    and embedded; rows report the defect's valuation floor per level, in
    increasing N.  ``N_list`` must name at least one level.
    """
    if n < 0:
        raise ValueError("moment index must be >= 0")
    levels = _levels(N_list)
    exact = euler.q_euler_numbers(n)[n].eval(qc.q)
    rows = _defect_rows(XPoly((0,) * n + (1,)), qc, exact, levels, prec)
    return ConvergenceReport(n, qc.p, qc.q, prec, rows)


class ShiftDefect(NamedTuple):
    """Finite-level defect of the n-step shift identity

        q^n I(f_n) + (-1)^(n-1) I(f) = [2]_q sum_{l<n} (-1)^(n-1-l) f(l) q^l

    with f_n(x) = f(x + n).  The identity is exact in the limit; at level
    N only the defect's valuation is meaningful.
    """

    n: int
    N: int
    valuation: int
    exact: bool


def check_shift_identity_finite(
    f: XPoly,
    n: int,
    qc: QChoice,
    prec: int = DEFAULT_PRECISION,
    N: int = 4,
) -> ShiftDefect:
    """The defect at level N of the identity times (-1)^(n-1), by linearity one integral."""
    if n < 1:
        raise ValueError("shift count n must be >= 1")
    g = f - XPoly(((-qc.q) ** n,)) * f.shift_x(n)
    rhs = (1 + qc.q) * sum(f.eval(l).as_fraction() * (-qc.q) ** l for l in range(n))
    (row,) = _defect_rows(g, qc, rhs, [N], prec)
    return ShiftDefect(n, N, row.valuation, row.exact)
