"""Period bounds and budget checks for color-based schedules.

phi(c) = c * log c * log log c * ... is the lower-bound function for the
period of a node colored c; 2**(1 + log*(c)) * phi(c) is the matching
upper bound achieved by the omega-code schedule. Both are evaluated over
the reals with base-2 logs, since the recursion immediately leaves the
integers (phi(3) = 3 * phi(1.585...)).
"""

from __future__ import annotations

import math
from collections import Counter


def phi(x: float) -> float:
    """Product of iterated base-2 logs: 1 for x <= 1, else x * phi(log2 x)."""
    if not math.isfinite(x):
        raise ValueError(f"phi is defined for finite values, got {x}")
    if x < 0:
        raise ValueError(f"phi is defined for non-negative values, got {x}")
    result = 1.0
    while x > 1:
        result *= x
        x = math.log2(x)
    return result


def log_star(x: float) -> int:
    """Number of base-2 log applications needed to bring x down to <= 1."""
    if not math.isfinite(x):
        raise ValueError(f"log* is defined for finite values, got {x}")
    if x <= 0:
        raise ValueError(f"log* is defined for positive values, got {x}")
    count = 0
    while x > 1:
        x = math.log2(x)
        count += 1
    return count


def elias_period_bound(c: int) -> float:
    """Upper bound 2**(1 + log*(c)) * phi(c) on the omega-schedule period of color c."""
    if c < 1:
        raise ValueError(f"colors are positive integers, got {c}")
    return 2.0 ** (1 + log_star(c)) * phi(c)


def budget_check(periods: list[int]) -> bool:
    """True iff the periods fit one schedule: sum of 1/period <= 1, exactly."""
    from fractions import Fraction  # here, so that importing the CLI does not load it

    counts = Counter(periods)  # few distinct periods: one Fraction each keeps it fast
    for p in counts:
        if p < 1:
            raise ValueError(f"periods are positive integers, got {p}")
    return sum(Fraction(c, p) for p, c in counts.items()) <= 1
