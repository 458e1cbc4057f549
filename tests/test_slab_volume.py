"""Slab volume: exact formula vs independent oracles."""

import math
import random
from fractions import Fraction

import pytest

from chainlab import (
    DomainError,
    SlabSpec,
    discretize_slab,
    slab_membership,
    slab_volume_exact,
    slab_volume_montecarlo,
)


def sum_distribution_cdf(n: int, t: Fraction) -> Fraction:
    """P(U_1 + ... + U_n <= t) for iid uniforms, by inclusion-exclusion.

    Independent oracle: evaluates the CDF at both slab boundaries rather
    than using the symmetry-folded volume formula.
    """
    if t <= 0:
        return Fraction(0)
    if t >= n:
        return Fraction(1)
    total = Fraction(0)
    for j in range(math.floor(t) + 1):
        total += (-1) ** j * math.comb(n, j) * (t - j) ** n
    return total / math.factorial(n)


def oracle_volume(n: int, kappa: Fraction) -> Fraction:
    lo = (n - kappa) / 2
    hi = (n + kappa) / 2
    return sum_distribution_cdf(n, hi) - sum_distribution_cdf(n, lo)


class TestExactVolume:
    def test_dimension_one_is_kappa(self):
        for i in range(1, 11):
            kappa = Fraction(i, 10)
            assert slab_volume_exact(SlabSpec(1, kappa)) == kappa

    def test_frozen_derived_values(self):
        # unit square minus two corner triangles of area 1/8
        assert slab_volume_exact(SlabSpec(2, Fraction(1))) == Fraction(3, 4)
        # formula: 1 - (2/6)(1 - 3*0)
        assert slab_volume_exact(SlabSpec(3, Fraction(1))) == Fraction(2, 3)
        assert slab_volume_exact(SlabSpec(3, Fraction(3))) == 1
        assert slab_volume_exact(SlabSpec(1, Fraction(1, 2))) == Fraction(1, 2)

    def test_full_cube_for_kappa_equal_n(self):
        for n in range(1, 9):
            assert slab_volume_exact(SlabSpec(n, Fraction(n))) == 1

    def test_against_cdf_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            kappa = Fraction(rng.randint(1, 24 * n), 24)
            if kappa > n:
                kappa = Fraction(n)
            assert slab_volume_exact(SlabSpec(n, kappa)) == oracle_volume(n, kappa)

    def test_monotone_in_kappa(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 5)
            a = Fraction(rng.randint(1, 40), 41)
            b = a + Fraction(rng.randint(1, 40), 41)
            k1, k2 = min(a * n, Fraction(n)), min(b * n, Fraction(n))
            if k1 == k2:
                continue
            v1 = slab_volume_exact(SlabSpec(n, k1))
            v2 = slab_volume_exact(SlabSpec(n, k2))
            assert v1 < v2 if k2 < n or k1 < n else v1 <= v2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            SlabSpec(2, Fraction(0))
        with pytest.raises(DomainError):
            SlabSpec(2, Fraction(5, 2))
        with pytest.raises(DomainError):
            SlabSpec(0, Fraction(1, 2))

    @pytest.mark.parametrize(
        "n, kappa, message",
        [
            pytest.param(True, 1, "n must be an integer, got True", id="n-bool"),
            pytest.param(2.0, 1, "n must be an integer, got 2.0", id="n-float"),
            (2, True, 'kappa must be an int, Fraction or "P/Q" string, got True'),
            (2, False, 'kappa must be an int, Fraction or "P/Q" string, got False'),
            (2, 0.5, 'kappa must be an int, Fraction or "P/Q" string, got 0.5'),
            (2, None, 'kappa must be an int, Fraction or "P/Q" string, got None'),
            (2, "1/0", 'kappa must be an int, Fraction or "P/Q" string, got \'1/0\''),
            (2, "5/2", "kappa must lie in (0, n] = (0, 2], got 5/2"),
        ],
    )
    def test_bool_and_non_number_arguments_rejected(self, n, kappa, message):
        with pytest.raises(DomainError) as info:
            SlabSpec(n, kappa)
        assert str(info.value) == message

    def test_irrational_kappa_rejected_on_exact_path(self):
        # A float kappa is refused before any spec or raster exists.
        with pytest.raises(DomainError, match="kappa must be an int, Fraction"):
            SlabSpec(2, 0.5)
        for mode in ("inner", "outer"):
            with pytest.raises(DomainError, match="kappa must be an int, Fraction"):
                discretize_slab(2, 10, 0.5, mode)

    def test_kappa_forms_give_one_spec(self):
        spec = SlabSpec(2, Fraction(1, 2))
        assert SlabSpec(2, "1/2") == spec
        assert type(SlabSpec(2, "1/2").kappa) is Fraction
        assert SlabSpec(2, 1) == SlabSpec(2, "1") == SlabSpec(2, Fraction(1))
        assert type(SlabSpec(2, 1).kappa) is Fraction
        assert (spec.lower_sum, spec.upper_sum) == (Fraction(3, 4), Fraction(5, 4))
        assert discretize_slab(2, 10, "1/2", "inner") == discretize_slab(
            2, 10, Fraction(1, 2), "inner"
        )


class TestMembership:
    def test_center_always_inside(self):
        for n in (1, 2, 5):
            spec = SlabSpec(n, Fraction(1, 3))
            assert slab_membership([Fraction(1, 2)] * n, spec)

    def test_origin_outside_for_small_kappa(self):
        spec = SlabSpec(3, Fraction(1))
        assert not slab_membership([Fraction(0)] * 3, spec)

    def test_boundary_point_included(self):
        spec = SlabSpec(2, Fraction(1))
        assert slab_membership([Fraction(1), Fraction(0)], spec)

    def test_symmetry_under_reflection(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 4)
            spec = SlabSpec(n, Fraction(rng.randint(1, 2 * n), 2))
            x = [Fraction(rng.randint(0, 12), 12) for _ in range(n)]
            mirrored = [1 - c for c in x]
            assert slab_membership(x, spec) == slab_membership(mirrored, spec)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            slab_membership([Fraction(1, 2)], SlabSpec(2, Fraction(1)))

    def test_float_kappa_membership(self):
        # A float kappa never reaches a membership test; float points do.
        with pytest.raises(DomainError):
            slab_membership([0.5, 0.5], SlabSpec(2, 0.25))
        assert slab_membership([0.5, 0.5], SlabSpec(2, "1/4"))

    def test_float_points_decide_exactly(self):
        # Each float is the exact dyadic rational it stores, so a float
        # point and its Fraction twin get one answer, on the boundary
        # hyperplanes and one ulp off them as well.
        rng = random.Random(41)
        on_boundary = 0
        for _ in range(2000):
            n = rng.randint(1, 5)
            spec = SlabSpec(n, Fraction(rng.randint(1, 4 * n), 4))
            x = [rng.random() for _ in range(n)]
            if rng.random() < 0.5:
                # Move the last coordinate onto a boundary: dyadic
                # coordinates keep every sum exact in floats.
                x = [math.ldexp(math.floor(math.ldexp(c, 10)), -10) for c in x]
                target = rng.choice((spec.lower_sum, spec.upper_sum))
                last = target - sum(map(Fraction, x[:-1]))
                if not 0 <= last <= 1:
                    continue
                x[-1] = float(last)
                assert Fraction(x[-1]) == last
                assert slab_membership(x, spec)
                on_boundary += 1
                x[-1] = math.nextafter(x[-1], rng.choice((-1.0, 2.0)))
                if not 0 <= x[-1] <= 1:
                    continue
            exact = [Fraction(c) for c in x]
            assert slab_membership(x, spec) == slab_membership(exact, spec)
            s = sum(exact)
            assert slab_membership(x, spec) == (spec.lower_sum <= s <= spec.upper_sum)
        assert on_boundary > 200


class TestMonteCarlo:
    def test_whole_cube_estimates_one(self):
        mc = slab_volume_montecarlo(SlabSpec(2, Fraction(2)), 10**4, seed=1)
        assert mc.estimate == 1.0
        assert mc.half_width_99 == 0.0

    def test_agrees_with_exact(self):
        for n, kappa in ((2, Fraction(1)), (1, Fraction(1, 2))):
            exact = float(slab_volume_exact(SlabSpec(n, kappa)))
            mc = slab_volume_montecarlo(SlabSpec(n, kappa), 10**6, seed=0)
            assert abs(mc.estimate - exact) < 0.005

    def test_deterministic_for_fixed_seed(self):
        a = slab_volume_montecarlo(SlabSpec(3, Fraction(1)), 10**5, seed=99)
        b = slab_volume_montecarlo(SlabSpec(3, Fraction(1)), 10**5, seed=99)
        assert a == b

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            slab_volume_montecarlo(SlabSpec(2, Fraction(1)), 999, seed=0)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "0", None])
    def test_seed_must_be_non_negative_int(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            slab_volume_montecarlo(SlabSpec(2, Fraction(1)), 1000, seed=seed)

    def test_coverage_over_seed_list(self):
        # the 99% interval should cover the exact value in >= 95 of 100 runs
        spec = SlabSpec(2, Fraction(1))
        exact = float(slab_volume_exact(spec))
        covered = 0
        for seed in range(100):
            mc = slab_volume_montecarlo(spec, 10**5, seed=seed)
            if abs(mc.estimate - exact) < mc.half_width_99:
                covered += 1
        assert covered >= 95
