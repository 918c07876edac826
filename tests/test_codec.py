import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairgather.codec import code_residue, omega_decode, omega_encode, rho


def lsb_match(t: int, code: str) -> bool:
    """True iff the len(code) least-significant bits of t spell code reversed."""
    return format(t, "b")[::-1].ljust(len(code), "0")[:len(code)] == code


# codeword table for 1..15, as listed in the omega-code literature
OMEGA_TABLE = [
    "0",
    "100",
    "110",
    "101000",
    "101010",
    "101100",
    "101110",
    "1110000",
    "1110010",
    "1110100",
    "1110110",
    "1111000",
    "1111010",
    "1111100",
    "1111110",
]


def test_codeword_table_1_to_15():
    assert [omega_encode(n) for n in range(1, 16)] == OMEGA_TABLE


def test_encode_rejects_zero():
    with pytest.raises(ValueError):
        omega_encode(0)
    with pytest.raises(ValueError):
        rho(0)


def test_decode_examples():
    assert omega_decode("0") == (1, 1)
    assert omega_decode("1110010" + "11") == (9, 7)
    with pytest.raises(ValueError, match="truncated"):
        omega_decode("")
    with pytest.raises(ValueError, match="truncated"):
        omega_decode("11")
    with pytest.raises(ValueError):
        omega_decode("2")


def test_rho_examples():
    assert rho(1) == 1
    assert rho(9) == 7
    # unrolled by hand: re(4) = re(2) + "100" = "10100", so omega(4) = "101000"
    assert rho(4) == 6


def test_lsb_match_examples():
    assert lsb_match(2, omega_encode(1))
    assert lsb_match(9, omega_encode(2))  # "100" reversed = 1, 9 = 1 mod 8
    assert not lsb_match(9, omega_encode(3))  # "110" needs t = 3 mod 8


def test_code_residue_reads_first_bit_as_lsb():
    assert code_residue("100") == 1
    assert code_residue("110") == 3
    assert code_residue("0") == 0


@given(st.integers(min_value=1, max_value=10**12))
def test_roundtrip(n):
    code = omega_encode(n)
    assert code.endswith("0")
    assert omega_decode(code) == (n, len(code))
    assert omega_decode(code + "10101") == (n, len(code))


def test_roundtrip_exhaustive_small():
    for n in range(1, 2001):
        assert omega_decode(omega_encode(n)) == (n, rho(n))


def test_prefix_freeness_small():
    codes = [omega_encode(n) for n in range(1, 301)]
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            if i != j:
                assert not b.startswith(a)


def test_kraft_partial_sums():
    total = 0.0
    for c in range(1, 4097):
        total += 2.0 ** -rho(c)
        assert total <= 1.0


@given(st.integers(min_value=1, max_value=1 << 40), st.integers(min_value=1, max_value=200))
def test_single_match_property(t, max_color):
    matches = [c for c in range(1, max_color + 1) if lsb_match(t, omega_encode(c))]
    assert len(matches) <= 1


@given(st.integers(min_value=1, max_value=10**6))
def test_match_is_periodic_with_period_two_to_rho(n):
    code = omega_encode(n)
    period = 1 << len(code)
    t = code_residue(code) or period  # holidays start at 1
    assert lsb_match(t, code)
    assert lsb_match(t + period, code)
    assert not lsb_match(t + 1, code) or period == 1
