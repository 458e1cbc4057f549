"""Whitney numbers of the grid poset and how their top-k sums track the
slab volume as the grid is refined."""

from fractions import Fraction

from chainlab import convergence_table, sum_k_largest, whitney_numbers, whitney_sum
from chainlab.whitney import k_for_kappa

print("=== small coefficient tables ===")
for n, m in [(1, 3), (2, 2), (2, 3), (3, 3)]:
    print(f"  {{0..{m-1}}}^{n}: {list(whitney_numbers(n, m).coeffs)}")

print()
print("=== top-k sums from the central block ===")
table = whitney_numbers(2, 3)
for k in range(1, 6):
    print(f"  k={k}: {sum_k_largest(table, k)}")

print()
print("=== the kappa-indexed sum: ceil(kappa*m + n) largest entries ===")
for m in (10, 100):
    value = whitney_sum(2, m, Fraction(1))
    k = k_for_kappa(2, m, Fraction(1))
    print(f"  n=2, m={m}, kappa=1: k={k}, value={value}, ratio={value / m**2:.4f}")

print()
print("=== ratio vs volume: the gap shrinks like 1/m ===")
print(f"  {'m':>6} {'V':>12} {'ratio':>10} {'volume':>10} {'gap':>10}")
for row in convergence_table(2, Fraction(1), [10, 30, 100, 300, 1000]):
    print(
        f"  {row.m:>6} {row.value:>12} {float(row.ratio):>10.6f}"
        f" {float(row.volume):>10.6f} {float(row.gap):>10.6f}"
    )
