"""End-to-end verification of the slab optimality machinery on box unions.

The pipeline: rasterise the slab, compute coarse covers and densities,
check the covering inequality, compute the exact supremum of chain mass,
which decides feasibility, and compare against the Whitney-sum cap.
Everything is an exact rational.  Two oracles of `chainlab.verifier`,
kept for testing, bracket the supremum: a staircase search from below
and the coarse-cube bound from above.
"""

from fractions import Fraction

from chainlab import (
    CellSet,
    ChainOfPoints,
    build_chain_through_cubes,
    chain_mass_sup,
    discretize_slab,
    end_to_end_verify,
    measure,
)
from chainlab.verifier import adversarial_chain_search, max_cell_chain_mass_upper

print("=== rasterised slab, n=2, kappa=1, fine resolution 100 ===")
inner = discretize_slab(2, 100, Fraction(1), "inner")
outer = discretize_slab(2, 100, Fraction(1), "outer")
print(f"  inner measure {measure(inner)} = {float(measure(inner)):.4f}")
print(f"  outer measure {measure(outer)} = {float(measure(outer)):.4f}")
print(f"  true volume 3/4 sits between them")

print()
print("=== chain mass of the inner raster ===")
sup = chain_mass_sup(inner)
print(f"  exact supremum, the verdict:       {sup} = {float(sup):.4f}")
print("  and the two oracles that bracket it:")
adv = adversarial_chain_search(inner)
upper = max_cell_chain_mass_upper(inner, 20)
print(f"  best edge staircase (lower bound): {adv.lower} = {float(adv.lower):.4f}")
print(f"  coarse-cube bound (upper bound):   {upper} = {float(upper):.4f}")

print()
print("=== the diagonal cells at M=10: the edge staircase falls short ===")
diag = CellSet(2, 10, frozenset((i, i) for i in range(10)))
print(f"  best edge staircase {adversarial_chain_search(diag).lower}, exact supremum {chain_mass_sup(diag)}")

print()
print("=== full proof-chain report ===")
report = end_to_end_verify(inner, Fraction(1), 20, epsilon=Fraction(1, 100))
print(f"  measure           {float(report.measure_a):.4f}")
print(f"  slab volume       {float(report.slab_volume):.4f}")
print(f"  covering claim    passed={report.claim.passed} (slack {float(report.claim.slack):.4f})")
print(f"  dense cover size  {report.dense_count} <= Whitney cap {report.whitney_cap}: {report.whitney_ok}")
print(f"  feasibility       {report.feasibility}")

print()
print("=== the full cube is infeasible for kappa=1 ===")
full = CellSet(2, 40, frozenset((x, y) for x in range(40) for y in range(40)))
report = end_to_end_verify(full, Fraction(1), 8, epsilon=Fraction(1, 100))
print(f"  chain-mass supremum {report.chain_mass_sup} > 1 -> {report.feasibility}")

print()
print("=== certified chain through a diagonal run of dense cubes ===")
w, m = 10, 10
cells = {
    (x, y)
    for c in range(m)
    for x in range(w * c, w * c + w)
    for y in range(w * c, w * c + w)
}
a = CellSet(2, m * w, frozenset(cells))
q = ChainOfPoints(tuple((i, i) for i in range(m)))
cert = build_chain_through_cubes(q, a, m, Fraction(1, 50))
print(f"  mass {cert.mass} = {float(cert.mass):.4f}")
print(f"  guarantee {cert.guarantee} = {float(cert.guarantee):.4f}")
print(f"  witness staircase has {len(cert.polyline.vertices)} vertices")
