"""Exact slab volumes and their Monte Carlo shadow.

The diagonal slab keeps the points whose coordinate sum stays within
kappa/2 of the centre value n/2.  Its volume has a closed form that we
evaluate in exact rationals, then sanity-check with seeded sampling.
kappa is an int, a Fraction or a "P/Q" string, never a float, so the
slab's bounds and its membership test are exact.
"""

from fractions import Fraction

from chainlab import SlabSpec, slab_membership, slab_volume_exact, slab_volume_montecarlo

print("=== exact volumes ===")
for n, kappa in [(1, Fraction(1, 2)), (2, 1), (3, "1"), (3, Fraction(3))]:
    volume = slab_volume_exact(SlabSpec(n, kappa))
    print(f"  n={n} kappa={kappa}:  volume = {volume}  ({float(volume):.6f})")

print()
print("=== dimension 1: the volume is just kappa ===")
for i in (1, 3, 7, 10):
    spec = SlabSpec(1, f"{i}/10")  # kept as the Fraction in lowest terms
    print(f"  kappa={spec.kappa}: {slab_volume_exact(spec)}")

print()
print("=== Monte Carlo cross-check (1e6 samples, seed 0) ===")
for n, kappa in [(2, Fraction(1)), (4, Fraction(2))]:
    spec = SlabSpec(n, kappa)
    exact = slab_volume_exact(spec)
    mc = slab_volume_montecarlo(spec, 10**6, seed=0)
    print(
        f"  n={n} kappa={kappa}: exact {float(exact):.6f},"
        f" estimate {mc.estimate:.6f} +- {mc.half_width_99:.6f}"
    )

print()
print("=== membership is symmetric under x -> 1-x ===")
spec = SlabSpec(2, Fraction(1))
for x in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))]:
    mirrored = tuple(1 - c for c in x)
    label = "(" + ", ".join(str(c) for c in x) + ")"
    mirror_label = "(" + ", ".join(str(c) for c in mirrored) + ")"
    print(
        f"  {label}: {slab_membership(x, spec)},"
        f"  mirrored {mirror_label}: {slab_membership(mirrored, spec)}"
    )
