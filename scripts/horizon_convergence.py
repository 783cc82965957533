#!/usr/bin/env python3
"""Print the positivity horizon gamma(N) of the tridiagonal metric family.

gamma(N) = 1/(2 x_max), x_max the largest root of P_N, so gamma decreases
to 1/2.  With arccos x_max ~ j_{0,1}/(N + 1/2) (Bessel asymptotics of the
extreme Legendre zeros, Szego, Orthogonal Polynomials, ch. 8), the scaled
excess N(N+1)(gamma - 1/2) tends to j_{0,1}^2/4, printed with its distance
from that limit.  Each gamma(N) costs milliseconds, up to N = 4096 by default.

Usage: python scripts/horizon_convergence.py [N_max]
"""

import sys

from qtlattice import horizon_gamma

J01 = 2.4048255576957728  # first positive zero of the Bessel function J_0
LIMIT = J01**2 / 4


def main():
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 4096
    sizes = [2**k for k in range(1, 13) if 2**k <= n_max]
    print(f"gamma -> 1/2 and N(N+1)(gamma - 1/2) -> j01^2/4 = {LIMIT:.10f}")
    print(f"{'N':>4}  {'gamma':>20}  {'|diff|':>12}  {'N(N+1)(gamma-1/2)':>18}  {'|scaled-limit|':>14}")
    previous = None
    for N in sizes:
        gamma = horizon_gamma(N).gamma
        diff_text = "-" if previous is None else f"{abs(gamma - previous):.6e}"
        scaled = N * (N + 1) * (gamma - 0.5)
        print(f"{N:>4}  {gamma:.17f}  {diff_text:>12}  {scaled:>18.10f}  {abs(scaled - LIMIT):>14.6e}")
        previous = gamma


if __name__ == "__main__":
    main()
