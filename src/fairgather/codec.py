"""Elias omega code: prefix-free encoding of positive integers.

Codewords are 0/1 strings written most-significant-first. The recursive
construction prepends the binary form of each length-minus-one value and
terminates with a single "0" bit, so the codeword of 1 is "0" and the
codeword of 9 is "1110010".

Note on codeword length: rho(n) is defined here as the literal length of
the constructed codeword. The ceil-of-log closed form sometimes quoted for
omega codes overcounts at exact powers of two (the binary form of 4 has 3
bits while ceil(log2 4) = 2), so the construction is treated as ground
truth and the closed form as an upper-bound approximation.
"""

from __future__ import annotations


def omega_encode(n: int) -> str:
    """Elias omega codeword of n (n >= 1) as a 0/1 string."""
    if n < 1:
        raise ValueError(f"omega code is defined for positive integers, got {n}")
    groups: list[str] = []
    while n > 1:
        b = format(n, "b")
        groups.append(b)
        n = len(b) - 1
    groups.reverse()
    groups.append("0")
    return "".join(groups)


def omega_decode(bits: str) -> tuple[int, int]:
    """Decode the codeword at the start of bits.

    Returns (value, bits consumed). Trailing bits beyond the first
    codeword are ignored; running out of input mid-codeword raises
    ValueError ("truncated").
    """
    n = 1
    pos = 0
    while True:
        if pos >= len(bits):
            raise ValueError("truncated omega codeword")
        lead = bits[pos]
        if lead == "0":
            return n, pos + 1
        if lead != "1":
            raise ValueError(f"invalid bit {lead!r} at position {pos}")
        end = pos + n + 1
        if end > len(bits):
            raise ValueError("truncated omega codeword")
        group = bits[pos:end]
        if not set(group) <= {"0", "1"}:
            raise ValueError(f"invalid bits {group!r} at position {pos}")
        n = int(group, 2)
        pos = end


def rho(n: int) -> int:
    """Codeword length of n; the happiness period of color n is 2**rho(n)."""
    return len(omega_encode(n))


def code_residue(code: str) -> int:
    """Value of a codeword read with its first written bit as least significant."""
    return int(code[::-1], 2)

