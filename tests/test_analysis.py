import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairgather.analysis import budget_check, elias_period_bound, log_star, phi
from fairgather.codec import rho


def test_phi_base_cases():
    assert phi(0) == 1.0
    assert phi(1) == 1.0
    assert phi(2) == 2.0


def test_phi_tower_value():
    # 16 * phi(4) = 16 * 4 * phi(2) = 16 * 4 * 2
    assert phi(16) == pytest.approx(128.0)


def test_phi_rejects_negative():
    with pytest.raises(ValueError):
        phi(-1.0)


@pytest.mark.parametrize("fn, name", [(phi, "phi"), (log_star, r"log\*")])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_values_are_rejected(fn, name, x):
    # log2(inf) is inf, so the log loop would never end; nan > 1 is False,
    # so nan would pass as phi 1.0 and log* 0.
    with pytest.raises(ValueError, match=rf"{name} is defined for finite values, got {x}"):
        fn(x)


def test_phi_real_valued_recursion():
    # phi(3) = 3 * log2(3) since log2(log2(3)) drops below 1
    assert phi(3) == pytest.approx(3 * math.log2(3))


def test_log_star_values():
    assert log_star(1) == 0
    assert log_star(2) == 1
    assert log_star(16) == 3
    with pytest.raises(ValueError):
        log_star(0)


def test_log_star_tower_thresholds():
    # jumps just above 2, 4, 16, 65536
    assert log_star(4) == 2
    assert log_star(5) == 3
    assert log_star(17) == 4
    assert log_star(65536) == 4
    assert log_star(65537) == 5


def test_elias_period_bound_examples():
    for c, expected in [(1, 2.0), (2, 8.0), (4, 64.0)]:
        b = elias_period_bound(c)
        assert b == pytest.approx(expected)
        assert 2 ** rho(c) <= b * (1 + 1e-9)
    with pytest.raises(ValueError):
        elias_period_bound(0)


def test_budget_check_examples():
    assert budget_check([2, 8, 8])
    assert not budget_check([2, 2, 2])
    assert budget_check([])
    with pytest.raises(ValueError):
        budget_check([0])


def test_budget_check_is_exact():
    # both sums exceed 1 by less than a float epsilon could resolve
    assert not budget_check([2, 2, 2**40])
    assert not budget_check([1, 10**10])
    assert budget_check([2, 4, 8, 8])


def test_period_bound_dominates_code_length_small_range():
    for c in range(1, 2049):
        b = elias_period_bound(c)
        assert 2 ** rho(c) <= b * (1 + 1e-9)


def test_kraft_implies_budget_for_code_periods():
    periods = [2 ** rho(c) for c in range(1, 600)]
    for upto in range(1, len(periods) + 1):
        assert budget_check(periods[:upto])


@given(st.floats(min_value=1.0, max_value=1e9, allow_nan=False))
def test_phi_at_least_identity_above_one(x):
    assert phi(x) >= x * (1 - 1e-12) or x <= 1


@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_phi_monotone(a, b):
    lo, hi = sorted((a, b))
    assert phi(lo) <= phi(hi) * (1 + 1e-12)
