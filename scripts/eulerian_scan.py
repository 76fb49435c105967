"""Scan Eulerian-triangle minors for a negative one, sizes 1..n.

Prints a per-size tally; a hit prints the witness and exits 2, a size
over the minor budget exits 1.
"""

import argparse
import sys
import time

from gstirling.core import format_rational
from gstirling.stirling import eulerian_matrix
from gstirling.tnn import iter_minors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-n", type=int, default=7, help="largest triangle size")
    ap.add_argument("--max-minor-order", type=int, default=None)
    args = ap.parse_args()

    for n in range(1, args.n + 1):
        matrix = eulerian_matrix(n)
        started = time.perf_counter()
        checked = 0
        try:
            for rows, cols, value in iter_minors(matrix, max_order=args.max_minor_order):
                checked += 1
                if value < 0:
                    print(
                        f"n={n}: NEGATIVE minor rows {list(rows)} cols {list(cols)} "
                        f"value {format_rational(value)}"
                    )
                    return 2
        except ValueError as exc:  # the minor budget
            print(f"n={n}: error: {exc}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        print(f"n={n}: {checked} minors, none negative ({elapsed:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
