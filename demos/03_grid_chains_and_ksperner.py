"""Chains in the grid poset: the weight DP, symmetric chain
decompositions, and the desk-scale maximum-family computation."""

from fractions import Fraction

from chainlab import (
    WeightedGrid,
    ksperner_bound_via_scd,
    ksperner_max_bruteforce,
    max_weight_chain,
    symmetric_chain_decomposition,
)

print("=== maximum-weight chain in a 2x2 grid ===")
grid = WeightedGrid(2, 2, {(0, 0): 1, (0, 1): 5, (1, 0): 2, (1, 1): 3})
result = max_weight_chain(grid)
print("  weights " + ", ".join(f"{p}: {w}" for p, w in sorted(grid.weights.items())))
print(f"  best total {result.total} via {list(result.witness)}")

print()
print("=== symmetric chain decompositions ===")
for n, m in [(2, 2), (2, 3), (3, 2)]:
    scd = symmetric_chain_decomposition(n, m)
    lengths = sorted((len(c) for c in scd.chains), reverse=True)
    print(f"  {{0..{m-1}}}^{n}: {len(scd.chains)} chains, lengths {lengths}")
scd = symmetric_chain_decomposition(2, 3)
for chain in scd.chains:
    print(f"    {list(chain)}")

print()
print("=== largest family with no chain of k+1 points ===")
print("  grid {0,1}^4, brute force over all 2^16 families:")
for k in (1, 2, 3):
    brute = ksperner_max_bruteforce(4, 2, k)
    bound = ksperner_bound_via_scd(4, 2, k)
    print(f"    k={k}: brute-force max {brute}, SCD-certified bound {bound}")
print("  3x3 grid:")
for k in (1, 2, 3):
    brute = ksperner_max_bruteforce(2, 3, k)
    bound = ksperner_bound_via_scd(2, 3, k)
    print(f"    k={k}: brute-force max {brute}, SCD-certified bound {bound}")
