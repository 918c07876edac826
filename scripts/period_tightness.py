#!/usr/bin/env python3
"""How tight is the period bound 2**(1+log*c) * phi(c) against the actual
omega-code period 2**rho(c)? Prints the ratio per color and flags the
colors where the bound is met exactly (the tower values 1, 2, 4, 16, ...).
"""

import argparse

from fairgather.analysis import elias_period_bound
from fairgather.codec import omega_encode, rho


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-color", type=int, default=64)
    args = parser.parse_args()

    print(f"{'color':>6} {'codeword':>16} {'rho':>4} {'period':>10} {'bound':>14} {'ratio':>8}")
    for c in range(1, args.max_color + 1):
        period = 2 ** rho(c)
        bound = elias_period_bound(c)
        ratio = period / bound
        tight = "  <- tight" if abs(period - bound) < 1e-6 * bound else ""
        print(f"{c:>6} {omega_encode(c):>16} {rho(c):>4} {period:>10} "
              f"{bound:>14.1f} {ratio:>8.4f}{tight}")


if __name__ == "__main__":
    main()
