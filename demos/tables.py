"""Regenerate the two headline bound tables and close one open interval.

Walks the covering-bound machinery over the q = 2 grid, prints the best
lower/upper bounds on K_R(2^m, n, rho) with their bound tags, then the
dimension bounds for linear covering codes, and finally settles three
open cells by exhaustive search.

Run:  python3 demos/tables.py
"""
from rankmetric import bounds as bd
from rankmetric import oracle as oc

print("Best bounds on K_R(2^m, n, rho)  (tag key: a sphere-covering,")
print("b refined, c excess / A trivial, B transpose, C mixed,")
print("D probabilistic, E greedy-logarithm)\n")

table = bd.covering_table(2, range(2, 8), range(2, 8), range(1, 7))
for m in range(2, 8):
    for n in range(2, m + 1):
        cells = []
        for rho in range(1, n):
            cells.append(f"rho={rho}: {bd.format_report(table[(m, n, rho)])}")
        print(f"m={m} n={n}   " + "   ".join(cells))
print()

print("Two cells of the published table disagree with their own formulas")
print("(dropped digit / ceiling off-by-one); the exact values are:")
for m, n, rho in ((7, 6, 2), (7, 7, 1)):
    rep = table[(m, n, rho)]
    print(f"  (m,n,rho)=({m},{n},{rho}): best lower = {rep.best_lower} "
          f"(tag {rep.best_lower_tag})")
print()

print("Dimension bounds for (n, k) linear codes with covering radius rho:")
dims = bd.dimension_table(2, range(4, 9), range(4, 9), range(2, 7))
for m in range(4, 9):
    for n in range(4, m + 1):
        row = []
        for rho in range(2, min(6, n) + 1):
            lo, hi = dims[(m, n, rho)]
            row.append(f"rho={rho}: {lo}" + ("" if lo == hi else f"-{hi}"))
        print(f"m={m} n={n}   " + "   ".join(row))
print()

print("Exhaustive search settles three open cells of the q = 2 table:")
for m, n, rho in ((2, 2, 1), (4, 2, 1), (3, 3, 2)):
    lo, hi = table[(m, n, rho)].interval()
    for K in range(lo, hi + 1):
        dec = oc.exhaustive_min_covering(2, m, n, rho, K)
        if dec.exists:
            break
    print(f"  K_R(2^{m}, {n}, {rho}) in [{lo}, {hi}] is {K}: no covering "
          f"with {K - 1} balls; witness re-verified by scan: "
          f"{oc.is_covering(2, m, n, dec.witness, rho)}")
