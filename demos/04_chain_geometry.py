"""Monotone polylines: length bounds and the anti-diagonal decomposition.

Any chain in the unit n-cube has 1-dimensional measure at most n.  The
staircase that fills one coordinate at a time attains exactly n, and
clipping at integer coordinate sums splits any polyline into n pieces
whose projected intervals each fit inside [0, 1].
"""

import random
from fractions import Fraction

from chainlab import (
    antidiagonal_decompose,
    coordinate_sum,
    extremal_chain,
    h1_length,
    polyline,
)

print("=== the extremal staircase ===")
for n in (1, 2, 3, 5):
    chain = extremal_chain(n)
    print(f"  n={n}: length {h1_length(chain)} through {len(chain.vertices)} vertices")
print(f"  vertices for n=3: {[tuple(map(int, v)) for v in extremal_chain(3).vertices]}")

print()
print("=== anti-diagonal decomposition of the square's diagonal ===")
diag = polyline([(0, 0), (1, 1)])
for piece in antidiagonal_decompose(diag):
    print(
        f"  piece {piece.index}: interval {piece.s_interval},"
        f" length {float(h1_length(piece.piece)):.6f} <= 1"
    )

print()
print("=== random monotone polylines never exceed length n ===")
rng = random.Random(7)
for n in (2, 3, 5):
    worst = 0.0
    for _ in range(2000):
        count = rng.randint(2, 40)
        columns = [sorted(Fraction(rng.randint(0, 16), 16) for _ in range(count)) for _ in range(n)]
        p = polyline([tuple(col[i] for col in columns) for i in range(count)])
        worst = max(worst, float(h1_length(p)))
    print(f"  n={n}: longest of 2000 samples = {worst:.4f} (bound {n})")

print()
print("=== the coordinate sum contracts distances along a chain ===")
a, b = (Fraction(1, 4), Fraction(0)), (Fraction(3, 4), Fraction(1, 2))
gap = coordinate_sum(b) - coordinate_sum(a)
dist = ((1 / 2) ** 2 + (1 / 2) ** 2) ** 0.5
print(f"  a=(1/4, 0), b=(3/4, 1/2): |b-a| = {dist:.4f} <= coordinate-sum gap {gap}")
