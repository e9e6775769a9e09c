#!/usr/bin/env python3
"""Tabulate center dimensions for the two nilpotent-letter families.

The exterior-type family is often quoted with center dimension 2^(n-1),
spanned by the even products of the odd letters.  The exact computation
below shows the extra central element x*y_1...y_n at even n, so the true
dimensions are 1, 3, 4, 9, ... rather than 1, 2, 4, 8, ...
"""

import argparse

from hopfgen.hopf import center, e_algebra, e_basis, taft


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-e", type=int, default=4)
    ap.add_argument("--max-taft", type=int, default=4)
    args = ap.parse_args()

    print("exterior-type family")
    print(f"  {'n':>3} {'computed':>9} {'2^(n-1)':>8}  extra central elements")
    for n in range(1, args.max_e + 1):
        h = e_algebra(n)
        cen = center(h)
        basis = e_basis(n)
        even = {
            i for i, (a, s) in enumerate(basis) if a == 0 and len(s) % 2 == 0
        }
        extra = sorted(
            {i for z in cen for i in z if i not in even}
        )
        names = ", ".join(h.labels[i] for i in extra) or "-"
        print(f"  {n:>3} {len(cen):>9} {2 ** (n - 1):>8}  {names}")

    print("\ncyclic family")
    for n in range(2, args.max_taft + 1):
        h = taft(n)
        cen = center(h)
        print(f"  taft({n}): dimension {len(cen)}")


if __name__ == "__main__":
    main()
