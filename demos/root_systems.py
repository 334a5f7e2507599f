"""Tour of the exact root-system layer.

Builds every family, checks the classical cardinalities, and shows exact
angle and reflection arithmetic in the quartic field Q(sqrt2, sqrt3).
"""

from fractions import Fraction

from flagcurv.rootsys import (
    QNum,
    angle,
    build_root_system,
    lattice_block,
    root,
    root_sum_status,
    weyl_reflect,
)


def show(v):
    """A root as its block of exact coordinates, e.g. (1*r3, 0)."""
    return lattice_block(v, v.spec.weights)


def main():
    print("Root systems of the compact simple Lie algebras")
    print("=" * 60)
    for family, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5),
                         ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]:
        rs = build_root_system(family, rank)
        label = family if family[-1].isdigit() else f"{family}{rank}"
        print(f"  {label:4s}  {len(rs):4d} roots in R^{rs.ambient_dim}")

    print("\nExact angle arithmetic in G2:")
    long_root = root("G2", 2, QNum(0, 0, 1), 0)    # (sqrt3, 0)
    short_root = root("G2", 2, QNum(0, 0, Fraction(1, 2)), Fraction(1, 2))
    print(f"  long root      {show(long_root)}")
    print(f"  short root     {show(short_root)}")
    print(f"  angle          {angle(long_root, short_root)}")

    print("\nWeyl reflections permute the roots (sample in B3):")
    b3 = build_root_system("B", 3)
    alpha = root("B", 3, 1, 0, 0)
    for v in [root("B", 3, 1, 1, 0), root("B", 3, 0, 1, 0), root("B", 3, 1, -1, 0)]:
        print(f"  s_e1({show(v)}) = {show(weyl_reflect(b3, alpha, v))}")

    print("\nRoot-sum membership drives the bracket relations:")
    c3 = build_root_system("C", 3)
    print("  C3, e1+e2 vs e1-e2:",
          root_sum_status(c3, root("C", 3, 1, 1, 0), root("C", 3, 1, -1, 0)))
    print("  B3, e1+e2 vs e1-e2:",
          root_sum_status(build_root_system("B", 3), root("B", 3, 1, 1, 0), root("B", 3, 1, -1, 0)))


if __name__ == "__main__":
    main()
