"""The closed-form alternating power sum against the direct per-x sum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuler.padic import alt_weighted_power_sum

PRIMES = (3, 5, 7, 11, 13)


def _direct_sum(coeffs, q, modulus, count):
    """Oracle: sum_{x<count} P(x) (-q)^x in exact integers, reduced at the end."""
    total = 0
    for x in range(count):
        total += sum(c * x**j for j, c in enumerate(coeffs)) * (-q) ** x
    return total % modulus


@st.composite
def cases(draw, unit=True):
    p = draw(st.sampled_from(PRIMES))
    modulus = p ** draw(st.integers(1, 19))
    t = draw(st.integers(0, 10**6))
    q = 1 + p * t if unit else p * t - 1  # q = 1 mod p, or 1 + q = 0 mod p
    coeffs = draw(st.lists(st.integers(-10**9, 10**9), max_size=9))
    return coeffs, q, modulus, draw(st.integers(0, 400))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_closed_form_against_direct_sum(case):
    assert alt_weighted_power_sum(*case) == _direct_sum(*case)


@settings(max_examples=60, deadline=None)
@given(cases(unit=False).filter(lambda case: case[0]))
def test_nonunit_one_plus_q_raises(case):
    with pytest.raises(ValueError, match="not a unit"):
        alt_weighted_power_sum(*case)


def test_closed_form_handles_any_modulus():
    for modulus in ((1 << 70) + 9, 10**40 + 1, 1):
        for count in (0, 1, 20, 333):
            want = _direct_sum([1, 1, -3], 4, modulus, count)
            assert alt_weighted_power_sum([1, 1, -3], 4, modulus, count) == want


@pytest.mark.parametrize("modulus, count, message", [
    (0, 1, "modulus must be positive"),
    (9, -1, "count must be >= 0"),
])
def test_bad_modulus_or_count_rejected(modulus, count, message):
    with pytest.raises(ValueError, match=message):
        alt_weighted_power_sum([1], 4, modulus, count)


def test_empty_polynomial_sums_to_zero():
    assert alt_weighted_power_sum([], 5, 3**10, 100) == 0
    assert alt_weighted_power_sum([7, 1], 4, 3**10, 0) == 0
    assert alt_weighted_power_sum([0, 0, 0], 1, 3**10, 50) == 0
