"""Bernstein basis polynomials, their fermionic moments, and the
alternating-moment identity suite (including the inconsistent k=0 remark).

The moment of B_{k,n} under the fermionic functional I(y^l) = E_l has two
expansions, the second through its reflection I'(y^l) = E_{l,1/q}:

    lhs:  C(n,k) * sum_{l=0..n-k} C(n-k,l) (-1)^l     E_{k+l, q}
    rhs:  C(n,k) * sum_{l=0..k}   C(k,l) (-1)^(k+l) * (1 + q + q^2 E_{n-l, 1/q})

Over C(n,k) they are the two sides of ``euler``'s Bernstein row (n, k),
whose k = 0 row is thm7; every row of one n is read from the forward-difference
tables of ``euler._bernstein_table``.  The rhs's 1+q telescopes away only for
k >= 1, so the "reduced" variant that drops it is wrong at k = 0: the erratum
this suite detects.
``moment_via_basis_expansion`` is the one generic ``QRatFn`` route, the
independent check on them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from .euler import (
    ZERO,
    IdentityReport,
    _bernstein_table,
    _scaled,
    _unpacked_over,
    verify_identity,
    weighted_recurrence,
)
from .exactq import BigRat, QRatFn, XPoly


def bernstein_poly(k: int, n: int) -> XPoly:
    """B_{k,n}(x) = C(n,k) x^k (1-x)^(n-k), expanded; requires 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    c = comb(n, k)
    coeffs = [Fraction(0)] * (n + 1)
    for i in range(n - k + 1):
        coeffs[k + i] = Fraction(c * comb(n - k, i) * (-1) ** i)
    return XPoly.from_fractions(coeffs)


def bernstein_operator(samples: "list[BigRat]", n: int, x: BigRat) -> Fraction:
    """Exact value of the order-n operator: sum_k samples[k] C(n,k) x^k (1-x)^(n-k).

    samples[k] must be the function value at k/n.
    """
    if len(samples) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} samples, got {len(samples)}")
    x = Fraction(x)
    total = Fraction(0)
    for k, s in enumerate(samples):
        total += Fraction(s) * comb(n, k) * x**k * (1 - x) ** (n - k)
    return total


def _canonical_moment(n: int, k: int, b: int, value: int) -> QRatFn:
    """C(n,k) times one side of Bernstein row (n, k) over (1+q)^n, from its value at q = 2^b."""
    return _scaled(_unpacked_over(value, b, Counter({2: n})), comb(n, k))


def bernstein_moment_lhs(k: int, n: int) -> QRatFn:
    """Moment of B_{k,n} via the alternating sum over raw moments E_{k+l}."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    b, lefts, _, _ = _bernstein_table(n)
    return _canonical_moment(n, k, b, lefts[k])


def bernstein_moment_rhs(k: int, n: int, variant: str = "reduced") -> QRatFn:
    """Moment of B_{k,n} via the reflected expansion; requires k < n.

    variant="full" keeps the 1 + q + q^2 E_{n-l, 1/q} summand (valid for
    every k < n); variant="reduced" drops the 1+q constant, which is only
    justified for k >= 1, where the two agree.
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if variant not in ("full", "reduced"):
        raise ValueError(f"variant must be 'full' or 'reduced', got {variant!r}")
    b, _, rights, full = _bernstein_table(n)
    return _canonical_moment(n, k, b, full if variant == "full" and k == 0 else rights[k])


def moment_via_basis_expansion(k: int, n: int) -> QRatFn:
    """Independent moment pipeline: expand B_{k,n} and sum coefficient * E_j as ``QRatFn``s."""
    e = weighted_recurrence(0, n)
    total = ZERO
    for j, c in enumerate(bernstein_poly(k, n).fraction_coeffs()):
        if c:
            total = total + e[j] * c
    return total


def verify_theorem8(n_max: int) -> IdentityReport:
    """Check the alternating-moment identity, every Bernstein row with n <= n_max.

    The rows are judged by ``euler``'s thm8 check: the k = 0 row twice,
    against the claimed k=0 shortcut (expected to fail -- the dropped 1+q)
    and in full (expected to pass); both outcomes are part of the contract.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return verify_identity("thm8", n_max)


def padic_moment_crosscheck(
    n_max: int = 4,
    p: int = 3,
    q: "Fraction | int" = Fraction(4),
    prec: "int | None" = None,
    N_list: tuple[int, ...] = (1, 2, 3, 4, 5),
) -> list[tuple[int, int, tuple[padic.ConvergenceRow, ...]]]:
    """Numeric cross-check: partial integrals of B_{k,n} vs the exact moment.

    Each level costs O(n^2 + log p^N) modular operations per cell (the
    partial sum is in closed form); returns, per (n, k), the defect's
    valuation floor across the requested levels (at least one).  ``prec``
    defaults to ``padic.DEFAULT_PRECISION``; ``padic`` is imported here, so
    the identity suite does not load it.
    """
    from . import padic

    if prec is None:
        prec = padic.DEFAULT_PRECISION
    levels = padic._levels(N_list)
    qc = padic.QChoice(p, Fraction(q))
    return [
        (n, k, padic._defect_rows(
            bernstein_poly(k, n), qc, bernstein_moment_lhs(k, n).eval(qc.q), levels, prec))
        for n in range(1, n_max + 1)
        for k in range(n + 1)
    ]
