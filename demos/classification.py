"""Mechanical re-derivation of the three survivor lists.

Every candidate pair type is either excluded by an exact root-theoretic
witness (a commuting-pair certificate, an angle obstruction, a propagation
contradiction) or lands on one of the known positively curved spaces.
"""

from flagcurv.obstruct import enumerate_case3, verify_theorem


def main():
    print("Case-by-case verdicts for one family (so(2n+1), n = 4):")
    for sc, verdict in enumerate_case3("B", 4):
        tag = verdict.name if verdict.outcome == "survivor" else \
            (verdict.witness.kind if verdict.witness else verdict.detail)
        row = sc.describe()
        print(f"  {sc.label:16s} alpha={row['alpha']:18} beta={row['beta']:14} "
              f"-> {verdict.outcome:9s} {tag}")

    for part, title in [(1, "same-factor projection pairs"),
                        (2, "cross-factor projection pairs"),
                        (3, "aligned isotropy root planes")]:
        rep = verify_theorem(part)
        print(f"\nSurvivor list {part} ({title}), ranks up to {rep['max_rank']}: "
              f"{'MATCH' if rep['match'] else 'MISMATCH'}")
        for name in rep["survivors"]:
            print(f"  {name}")
        if rep["unresolved"]:
            print("  -- undecided (transitive compact simple groups):")
            for name in rep["unresolved"]:
                print(f"     {name}")


if __name__ == "__main__":
    main()
