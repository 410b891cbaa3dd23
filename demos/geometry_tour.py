"""Rank-metric geometry: balls, their intersections, and subspace supports.

Shows how rank balls behave differently from Hamming balls: volumes, the
closed-form two-ball intersections, a three-ball intersection that pins a
single vector, and the elementary-linear-subspace lattice that plays the
role coordinate supports play in the Hamming metric.

Run:  python3 demos/geometry_tour.py
"""
from rankmetric import rankgeom as rg
from rankmetric.ffield import make_field

q, m, n = 2, 2, 3
F = make_field(q, m)
print(f"ambient: GF({q}^{m})^{n}, {F.order ** n} vectors")
for r in range(min(m, n) + 1):
    nr, vr = rg.ball_counts(q, m, n, r)
    lo, hi = rg.ball_volume_bounds(q, m, n, r)
    print(f"  radius {r}: sphere {nr}, ball {vr}   "
          f"({lo} <= {vr} < {float(hi):.1f})")

print("\ntwo balls of radius 1 at distance 2 intersect in")
closed = rg.intersection_volume_closed(q, m, n, 1, 1, 2)
brute = rg.intersection_volume_at_distance(F, n, 1, 1, 2)
print(f"  {closed} vectors (closed form) == {brute} (enumeration)")

print("\nthree radius-1 balls over GF(4)^3 can pin a single vector:")
centers = [(0, 0, 0), (1, 2, 0), (2, 0, 1)]
hit = rg.intersection_vectors(F, [(c, 1) for c in centers])
print(f"  centers {centers} -> intersection {sorted(hit)}")
centers = [(0, 0, 0), (1, 2, 0), (2, 3, 0)]
hit = rg.intersection_vectors(F, [(c, 1) for c in centers])
print(f"  centers {centers} -> intersection {sorted(hit)}")

print("\nelementary linear subspaces of GF(q^m)^3 (bases over GF(2)):")
for v in range(4):
    count = sum(map(len, rg.subspaces(q, 3, v)))  # chunks of RREF bases
    print(f"  dimension {v}: {count} = [3 {v}]_2 "
          f"= {rg.gaussian(3, v, 2)}")

els = rg.support_els(F, (1, 2, 0))
print(f"\nsupport of (1, alpha, 0): dim {els.dim}, basis rows {els.basis}")
inside = rg.make_els(2, 3, [(1, 0, 0)])
comps = rg.complements(inside, els)
print(f"complements of a line inside it: {len(comps)} "
      f"= q^(a(v-a)) = {2 ** (1 * (els.dim - 1))}")
