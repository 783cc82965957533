#!/usr/bin/env python3
"""Print the positivity horizon gamma(N) of the tridiagonal metric family.

The successive differences shrink monotonically, consistent with
convergence toward a positive limit; no limit value is asserted.  Each
gamma(N) costs milliseconds (O(N) Sturm counts), up to N = 4096 by default.

Usage: python scripts/horizon_convergence.py [N_max]
"""

import sys

from qtlattice import horizon_gamma


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 4096
    sizes = [2**k for k in range(1, 13) if 2**k <= n_max]
    print(f"{'N':>4}  {'gamma':>20}  {'|diff|':>12}")
    previous = None
    for N in sizes:
        gamma = horizon_gamma(N).gamma
        diff_text = "-" if previous is None else f"{abs(gamma - previous):.6e}"
        print(f"{N:>4}  {gamma:.17f}  {diff_text:>12}")
        previous = gamma


if __name__ == "__main__":
    main()
