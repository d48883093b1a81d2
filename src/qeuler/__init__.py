"""Exact q-Euler / Frobenius-Euler arithmetic with identity verification.

Layers: ``exactq`` (rationals, polynomials in q, canonical rational
functions), ``euler`` (sequences, polynomials, symbolic identity suite),
``padic`` (capped-precision Q_p and the finite-level fermionic
q-integral), ``bernstein`` (basis polynomials and their moments), and
``cli`` (tables, verification runs, convergence experiments).
"""

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

# The names of the two layers a table run does not use, loaded on first use
# (``__getattr__``), so ``python -m qeuler.cli table`` imports neither.
_LAZY = {
    "bernstein": (
        "bernstein_moment_lhs",
        "bernstein_moment_rhs",
        "bernstein_operator",
        "bernstein_poly",
        "moment_via_basis_expansion",
        "padic_moment_crosscheck",
        "verify_theorem8",
    ),
    "padic": (
        "ConvergenceReport",
        "ConvergenceRow",
        "PAdicNum",
        "QChoice",
        "ShiftDefect",
        "check_shift_identity_finite",
        "convergence_report",
        "fermionic_integral_partial",
    ),
}


def __getattr__(name: str):
    """A name of ``bernstein`` or ``padic``, importing its module on first use (PEP 562)."""
    from importlib import import_module

    for module, names in _LAZY.items():
        if name in names:
            value = getattr(import_module(f"{__name__}.{module}"), name)
            globals()[name] = value  # later lookups skip this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
