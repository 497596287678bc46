#!/usr/bin/env python3
"""Survey of non-equivariant expansions on five letters.

Computes every coefficient of every cell class (the equivariant
expansions with every torus variable sent to 1), checks strict
log-concavity across all of them, and prints the deepest coefficient of
the open cell together with timings.  Takes under half a minute.
"""

import sys
import time

sys.path.insert(0, "src")

from mcclass.combi import Permutation
from mcclass.expand import is_strictly_log_concave, nonequivariant_coefficients
from mcclass.ring import format_ypoly


def main():
    n = 5
    t0 = time.time()
    coeffs = nonequivariant_coefficients(n)
    t1 = time.time()
    total = sum(len(v) for v in coeffs.values())
    print(f"{len(coeffs)} expansions, {total} nonzero coefficients "
          f"({t1 - t0:.1f}s)")

    bad = []
    degrees = {}
    for p, row in coeffs.items():
        for w, seq in row.items():
            degrees[len(seq) - 1] = degrees.get(len(seq) - 1, 0) + 1
            if not is_strictly_log_concave(seq):
                bad.append((p, w, seq))
    print("degree histogram:", dict(sorted(degrees.items())))
    print(f"strict log-concavity violations: {len(bad)}")
    for p, w, seq in bad[:10]:
        print(f"  VIOLATION at ({p}, {w}): {seq}")

    deepest = coeffs[Permutation.identity(n)][Permutation.longest(n)]
    print("deepest coefficient of the open cell:")
    print(" ", format_ypoly(deepest))


if __name__ == "__main__":
    main()
