"""Bernstein basis polynomials, their fermionic moments, and the
alternating-moment identity suite (including the inconsistent k=0 remark).

The moment of B_{k,n} under the fermionic functional I(y^l) = E_l has two
expansions, the second through its reflection I'(y^l) = E_{l,1/q}:

    lhs:  C(n,k) * sum_{l=0..n-k} C(n-k,l) (-1)^l     E_{k+l, q}
    rhs:  C(n,k) * sum_{l=0..k}   C(k,l) (-1)^(k+l) * (1 + q + q^2 E_{n-l, 1/q})

The rhs's constant 1+q telescopes away only for k >= 1; the "reduced"
variant that drops it is therefore valid for 1 <= k < n but wrong at
k = 0, which is exactly the erratum this suite detects.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from . import padic
from .euler import (
    ONE,
    Q,
    ZERO,
    IdentityInstance,
    IdentityReport,
    _judged,
    _k0_remark_instance,
    _moment,
    _thm7_instance,
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


def bernstein_moment_lhs(k: int, n: int) -> QRatFn:
    """Moment of B_{k,n} via the alternating sum over raw moments E_{k+l}."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    e = weighted_recurrence(0, n)
    total = ZERO
    for l in range(n - k + 1):
        total = total + e[k + l] * (comb(n - k, l) * (-1) ** l)
    return total * comb(n, k)


def bernstein_moment_rhs(k: int, n: int, variant: str = "reduced") -> QRatFn:
    """Moment of B_{k,n} via the reflected expansion; requires k < n.

    variant="full" keeps the 1 + q + q^2 E_{n-l, 1/q} summand (valid for
    every k < n); variant="reduced" drops the 1+q constant, which is only
    justified for k >= 1.
    """
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if variant not in ("full", "reduced"):
        raise ValueError(f"variant must be 'full' or 'reduced', got {variant!r}")
    e = weighted_recurrence(0, n)
    q_sq = Q * Q
    total = ZERO
    for l in range(k + 1):
        term = q_sq * e[n - l].subst_q_inverse()
        if variant == "full":
            term = term + ONE + Q
        total = total + term * (comb(k, l) * (-1) ** (k + l))
    return total * comb(n, k)


def moment_via_basis_expansion(k: int, n: int) -> QRatFn:
    """Independent moment pipeline: expand B_{k,n} and sum coefficient * E_j."""
    e = weighted_recurrence(0, n)
    total = ZERO
    for j, c in enumerate(bernstein_poly(k, n).fraction_coeffs()):
        if c:
            total = total + e[j] * c
    return total


def verify_theorem8(n_max: int) -> IdentityReport:
    """Check the alternating-moment identity over 1 <= k < n <= n_max.

    Row (n, k) is I(y^k (1-y)^(n-k)) = q^2 I'(sum_l C(k,l) (-1)^(k+l) y^(n-l)):
    ``bernstein_moment_lhs`` and the reduced ``bernstein_moment_rhs``, each
    divided by C(n,k), as ``_moment`` numerators over (1+q)^n.  A failing
    instance keeps both, reduced to canonical form, as its witness.  The
    k = 0 row is checked twice: against the claimed k=0 shortcut (expected
    to fail -- the dropped 1+q) and against the full form (expected to
    pass); both outcomes are part of the contract.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    instances: list[IdentityInstance] = []
    for n in range(1, n_max + 1):
        instances.append(
            _k0_remark_instance((n, 0, "k0-remark"), n, "claimed k=0 shortcut drops the 1+q term")
        )
        instances.append(_thm7_instance((n, 0, "full"), n))
        for k in range(1, n):
            left = _moment(n, [(comb(n - k, l) * (-1) ** l, 0, k + l) for l in range(n - k + 1)])
            terms = [(comb(k, l) * (-1) ** (k + l), 2, n - l) for l in range(k + 1)]
            right = _moment(n, terms, reflected=True)
            instances.append(_judged((n, k), left, right, Counter({2: n})))
    return IdentityReport("thm8", tuple(instances))


def padic_moment_crosscheck(
    n_max: int = 4,
    p: int = 3,
    q: "Fraction | int" = Fraction(4),
    prec: int = padic.DEFAULT_PRECISION,
    N_list: tuple[int, ...] = (1, 2, 3, 4, 5),
) -> list[tuple[int, int, tuple[padic.ConvergenceRow, ...]]]:
    """Numeric cross-check: partial integrals of B_{k,n} vs the exact moment.

    Each level costs O(n^2 + log p^N) modular operations per cell (the
    partial sum is in closed form); returns, per (n, k), the defect's
    valuation floor across the requested levels (at least one).
    """
    levels = padic._levels(N_list)
    qc = padic.QChoice(p, Fraction(q))
    return [
        (n, k, padic._defect_rows(
            bernstein_poly(k, n), qc, bernstein_moment_lhs(k, n).eval(qc.q), levels, prec))
        for n in range(1, n_max + 1)
        for k in range(n + 1)
    ]
