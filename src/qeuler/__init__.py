"""Exact q-Euler / Frobenius-Euler arithmetic with identity verification.

Layers: ``exactq`` (rationals, polynomials in q, canonical rational
functions), ``euler`` (sequences, polynomials, symbolic identity suite),
``padic`` (capped-precision Q_p and the finite-level fermionic
q-integral), ``bernstein`` (basis polynomials and their moments), and
``cli`` (tables, verification runs, convergence experiments).
"""

from .bernstein import (
    bernstein_moment_lhs,
    bernstein_moment_rhs,
    bernstein_operator,
    bernstein_poly,
    moment_via_basis_expansion,
    padic_moment_crosscheck,
    verify_theorem8,
)
from .euler import (
    IdentityInstance,
    IdentityReport,
    classical_euler_numbers,
    frobenius_numbers,
    frobenius_polynomial,
    q_euler_numbers,
    q_euler_numbers_weighted,
    q_euler_polynomial,
    verify_identity,
    weighted_closed_form,
    weighted_recurrence,
)
from .exactq import BigRat, QPoly, QRatFn, XPoly, q_integer, qpoly_gcd
from .padic import (
    ConvergenceReport,
    ConvergenceRow,
    PAdicNum,
    QChoice,
    ShiftDefect,
    check_shift_identity_finite,
    convergence_report,
    fermionic_integral_partial,
)

__version__ = "0.1.0"

__all__ = [
    "BigRat",
    "ConvergenceReport",
    "ConvergenceRow",
    "IdentityInstance",
    "IdentityReport",
    "PAdicNum",
    "QChoice",
    "QPoly",
    "QRatFn",
    "ShiftDefect",
    "XPoly",
    "__version__",
    "bernstein_moment_lhs",
    "bernstein_moment_rhs",
    "bernstein_operator",
    "bernstein_poly",
    "check_shift_identity_finite",
    "classical_euler_numbers",
    "convergence_report",
    "fermionic_integral_partial",
    "frobenius_numbers",
    "frobenius_polynomial",
    "moment_via_basis_expansion",
    "padic_moment_crosscheck",
    "q_euler_numbers",
    "q_euler_numbers_weighted",
    "q_euler_polynomial",
    "q_integer",
    "qpoly_gcd",
    "verify_identity",
    "verify_theorem8",
    "weighted_closed_form",
    "weighted_recurrence",
]
