"""Reference implementations that tests compare the library against."""

from __future__ import annotations

from typing import AbstractSet, Sequence

from fairgather.graph import data_lines


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


def parse_schedule_csv(text: str, nodes: AbstractSet[int]) -> dict[int, set[int]]:
    """Holiday -> happy set, converting every id with int().

    Unlike cli._parse_schedule_csv, it takes a row without a comma as an
    empty happy set.
    """
    rows = list(data_lines(text))
    if not rows or rows[0][1] != "holiday,happy":
        raise ValueError("schedule CSV must start with header 'holiday,happy'")
    happy_sets: dict[int, set[int]] = {}
    for lineno, ln in rows[1:]:
        t_str, _, ids = ln.partition(",")
        try:
            t = int(t_str)
            happy = set(map(int, filter(None, ids.split(";"))))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed schedule row {ln!r}") from None
        if t < 1:
            raise ValueError(f"line {lineno}: holidays are numbered from 1")
        if t in happy_sets:
            raise ValueError(f"line {lineno}: duplicate holiday {t} in schedule CSV")
        unknown = sorted(happy - nodes)
        if unknown:
            raise ValueError(f"line {lineno}: holiday {t} lists unknown nodes {unknown[:3]}")
        happy_sets[t] = happy
    return happy_sets
