"""Reference implementations that tests compare the library against."""

from __future__ import annotations

from typing import Sequence


def border_table(seq: Sequence) -> list[int]:
    """border[i] = length of the longest proper border of seq[:i + 1] (KMP)."""
    border = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        while k and seq[i] != seq[k]:
            k = border[k - 1]
        if seq[i] == seq[k]:
            k += 1
        border[i] = k
    return border


def smallest_window_period(flags: Sequence[bool]) -> int:
    """Smallest p with flags[i] == flags[i+p] across the window, if p is
    small enough to be seen twice (p <= len/2); otherwise 0."""
    n = len(flags)
    if n == 0:
        return 0
    # smallest period = n - longest border
    period = n - border_table(flags)[-1]
    return period if period <= n // 2 else 0
