#!/usr/bin/env python3
"""Sweep valuation profiles on the fixed 2-bidder polytope and map where the
generic clinching auction stops being Pareto-optimal.

The environment is {2x0 + x1 <= 6, x0 + 2x1 <= 6} with budgets (1, 1).  For a
grid of (v0, v1) the script runs the auction, searches for a dominated
improving direction, and prints one row per profile.  Profiles whose value
ratio lies strictly between the facet normals (1/2 < v1/v0 < 2) make (2, 2)
the unique welfare maximizer; the ascending clocks instead retire one bidder
first, so these rows typically carry a witness.

Usage: python scripts/sweep_impossibility.py [--eps 1/20] [--grid 6]
"""

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from polyclinch import (  # noqa: E402
    AuctionConfig,
    Bidder,
    check_dominated_direction,
    run_generic_2player,
)
from polyclinch.verify import (  # noqa: E402
    IMPOSSIBILITY_BUDGETS as BUDGETS,
    IMPOSSIBILITY_RHS as RHS,
    IMPOSSIBILITY_ROWS as ROWS,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--eps", default="1/20")
    parser.add_argument("--grid", type=int, default=6)
    args = parser.parse_args()
    cfg = AuctionConfig(epsilon=Fraction(args.eps))

    values = [Fraction(k, 10) for k in range(1, args.grid + 1)]
    failures = 0
    print(f"{'v0':>6} {'v1':>6} {'x0':>10} {'x1':>10} {'pay0':>8} {'pay1':>8}  verdict")
    for v0 in values:
        for v1 in values:
            bidders = [Bidder(v0, BUDGETS[0]), Bidder(v1, BUDGETS[1])]
            out = run_generic_2player(ROWS, RHS, bidders, cfg)
            direction = check_dominated_direction(ROWS, RHS, bidders, out)
            verdict = "pareto-ok" if direction is None else f"dominated {direction}"
            if direction is not None:
                failures += 1
            print(f"{str(v0):>6} {str(v1):>6} "
                  f"{float(out.allocation[0]):>10.4f} {float(out.allocation[1]):>10.4f} "
                  f"{float(out.payments[0]):>8.4f} {float(out.payments[1]):>8.4f}  {verdict}")
    print(f"\n{failures} of {len(values) ** 2} profiles admit a dominated direction")
    return 0


if __name__ == "__main__":
    sys.exit(main())
