"""Discretization harness: rasterisation, covers, claim, chain oracles."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from chainlab import (
    CellSet,
    ChainOfPoints,
    Config,
    DomainError,
    EpsilonParams,
    ResourceLimitError,
    adversarial_chain_search,
    build_chain_through_cubes,
    chain_mass_sup,
    claim_check,
    cover_sets,
    discretize_slab,
    end_to_end_verify,
    max_cell_chain_mass_upper,
    measure,
    MonotonePolyline,
    polyline,
    slab_volume_exact,
    SlabSpec,
    staircase_mass,
)
from chainlab.verifier import check_chain_mass_cap
from cellset_oracle import chain_formula_max, row_merge_chain_mass_sup
from conftest import random_cellset, random_covered_cellset, random_dense_cube_chain


def linear_scan_epsilon(n: int, kappa: Fraction, cap: int) -> Fraction | None:
    """Oracle: the first 1/t, t = 2n+3..cap, meeting the smallness condition."""
    for t in range(2 * n + 3, cap + 1):
        eps = Fraction(1, t)
        if kappa < n * (1 - (2 * n + 2) * eps) * (1 - eps) ** n:
            return eps
    return None


def full_cube(n: int, M: int) -> CellSet:
    return CellSet(n, M, frozenset(itertools.product(range(M), repeat=n)))


class TestMeasure:
    def test_extremes(self):
        assert measure(full_cube(2, 4)) == 1
        assert measure(CellSet(2, 4, frozenset())) == 0

    def test_half(self):
        a = CellSet(2, 2, frozenset([(0, 0), (1, 1)]))
        assert measure(a) == Fraction(1, 2)

    def test_cell_validation(self):
        with pytest.raises(DomainError):
            CellSet(2, 4, frozenset([(0, 4)]))
        with pytest.raises(DomainError):
            CellSet(2, 4, frozenset([(0,)]))
        with pytest.raises(DomainError):
            CellSet(2, 4, frozenset([(True, 0)]))
        with pytest.raises(DomainError):
            CellSet(2, 4, frozenset([1, 2]))
        with pytest.raises(DomainError):
            CellSet(True, 4, frozenset())
        assert CellSet(2, 4, [[0, 1], [0, 1]]).points() == [(0, 1)]


class TestDiscretizeSlab:
    def test_golden_interval(self):
        outer = discretize_slab(1, 10, Fraction(1, 5), "outer")
        assert set(outer.points()) == {(4,), (5,)}
        assert measure(outer) == Fraction(1, 5)
        inner = discretize_slab(1, 10, Fraction(1, 5), "inner")
        assert inner.points() == outer.points()

    def test_whole_cube_when_kappa_is_n(self):
        for mode in ("inner", "outer"):
            cells = discretize_slab(2, 2, Fraction(2), mode)
            assert len(cells.cells) == 4

    def test_inner_subset_outer(self):
        for M in (6, 11, 20):
            inner = discretize_slab(2, M, Fraction(3, 4), "inner")
            outer = discretize_slab(2, M, Fraction(3, 4), "outer")
            assert set(inner.points()) <= set(outer.points())

    def test_bracketing(self):
        volume = slab_volume_exact(SlabSpec(2, Fraction(1))).exact
        for M in (10, 50):
            inner = measure(discretize_slab(2, M, Fraction(1), "inner"))
            outer = measure(discretize_slab(2, M, Fraction(1), "outer"))
            assert inner <= volume <= outer

    def test_bracket_width(self):
        cases = (
            [(1, M) for M in (10, 100, 200)]
            + [(2, M) for M in (10, 50, 100, 200)]
            + [(3, M) for M in (10, 30, 50)]
        )
        for n, M in cases:
            kappa = Fraction(n, 2)
            inner = measure(discretize_slab(n, M, kappa, "inner"))
            outer = measure(discretize_slab(n, M, kappa, "outer"))
            assert 0 <= outer - inner <= Fraction(2 * n, M) * 2**n

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            discretize_slab(2, 10, Fraction(1), "both")


class TestEpsilonParams:
    def test_derived_quantities(self):
        params = EpsilonParams(n=2, m=20, epsilon=Fraction(1, 100), kappa=Fraction(1))
        shrink = (1 - Fraction(6, 100)) * (1 - Fraction(1, 100)) ** 2
        assert params.kappa_prime == 1 / shrink
        assert params.delta == (4 - Fraction(1, 100) ** 4) * Fraction(1, 100)
        assert params.density_threshold == 1 - Fraction(1, 4) * Fraction(1, 100) ** 4
        assert params.kappa_prime < 2

    def test_epsilon_bounds(self):
        with pytest.raises(DomainError):
            EpsilonParams(n=2, m=10, epsilon=Fraction(1, 6), kappa=Fraction(1, 2))
        with pytest.raises(DomainError):
            EpsilonParams(n=2, m=10, epsilon=Fraction(0), kappa=Fraction(1, 2))

    def test_smallness_condition(self):
        # kappa = 1 needs epsilon below ~1/15 in dimension 2
        with pytest.raises(DomainError):
            EpsilonParams(n=2, m=10, epsilon=Fraction(1, 14), kappa=Fraction(1))
        EpsilonParams(n=2, m=10, epsilon=Fraction(1, 15), kappa=Fraction(1))

    def test_auto_picks_largest_unit_fraction(self):
        params = EpsilonParams.auto(2, 10, Fraction(1))
        assert params.epsilon == Fraction(1, 15)

    def test_auto_rejects_kappa_equal_n(self):
        with pytest.raises(DomainError):
            EpsilonParams.auto(2, 10, Fraction(2), Config(epsilon_denominator_cap=1000))

    def test_auto_against_linear_scan(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            kappa = Fraction(rng.randint(1, 1000 * n), 1000)
            cap = rng.choice([2 * n + 2, 2 * n + 3, 50, 400, 3000])
            expected = linear_scan_epsilon(n, kappa, cap)
            if expected is None:
                with pytest.raises(DomainError):
                    EpsilonParams.auto(n, 10, kappa, Config(epsilon_denominator_cap=cap))
            else:
                params = EpsilonParams.auto(n, 10, kappa, Config(epsilon_denominator_cap=cap))
                assert params.epsilon == expected

    def test_auto_fails_fast_near_n(self):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            EpsilonParams.auto(2, 10, 2 - Fraction(1, 10**6))
        assert time.perf_counter() - start < 0.5


class TestCoverSets:
    def test_full_cube(self):
        params = EpsilonParams(n=2, m=2, epsilon=Fraction(1, 8), kappa=Fraction(1, 10))
        cover = cover_sets(full_cube(2, 4), 2, params)
        everything = set(itertools.product(range(2), repeat=2))
        assert set(cover.touched) == everything
        assert set(cover.dense) == everything

    def test_empty(self):
        params = EpsilonParams(n=2, m=2, epsilon=Fraction(1, 8), kappa=Fraction(1, 10))
        cover = cover_sets(CellSet(2, 4, frozenset()), 2, params)
        assert not cover.touched and not cover.dense

    def test_one_dimensional_example(self):
        # cells {0,1,2} of four: densities 1 and 1/2; threshold 1 - eps^2/2
        a = CellSet(1, 4, frozenset({(0,), (1,), (2,)}))
        params = EpsilonParams(n=1, m=2, epsilon=Fraction(1, 5), kappa=Fraction(1, 10))
        cover = cover_sets(a, 2, params)
        assert cover.density[(0,)] == 1
        assert cover.density[(1,)] == Fraction(1, 2)
        assert set(cover.touched) == {(0,), (1,)}
        assert set(cover.dense) == {(0,)}

    def test_divisibility(self):
        params = EpsilonParams(n=1, m=3, epsilon=Fraction(1, 5), kappa=Fraction(1, 10))
        with pytest.raises(DomainError):
            cover_sets(CellSet(1, 4, frozenset()), 3, params)


class TestClaimCheck:
    def test_full_cube_passes_with_delta_slack(self):
        params = EpsilonParams(n=2, m=2, epsilon=Fraction(1, 8), kappa=Fraction(1, 10))
        report = claim_check(full_cube(2, 4), 2, params)
        assert report.passed
        assert report.slack == params.delta
        assert report.covering_defect == 0
        assert report.covering_defect_ok

    def test_empty_passes(self):
        params = EpsilonParams(n=2, m=2, epsilon=Fraction(1, 8), kappa=Fraction(1, 10))
        assert claim_check(CellSet(2, 4, frozenset()), 2, params).passed

    def test_frozen_twenty_percent_instance(self):
        rng = random.Random(2024)
        a = random_cellset(rng, 2, 40, density=0.2)
        params = EpsilonParams(n=2, m=8, epsilon=Fraction(1, 10), kappa=Fraction(1, 2))
        report = claim_check(a, 8, params)
        assert report.passed

    def test_holds_for_covered_random_sets(self):
        # 200 sets across dimensions, all satisfying the covering hypothesis
        rng = random.Random(6021)
        cases = (
            [(1, 1000, 10, Fraction(1, 5), 7)] * 80
            + [(2, 140, 7, Fraction(1, 7), 1)] * 70
            + [(3, 24, 4, Fraction(1, 9), 0)] * 50
        )
        for n, M, m, eps, max_removals in cases:
            a = random_covered_cellset(rng, n, M, m, rng.randint(0, max_removals))
            params = EpsilonParams(n=n, m=m, epsilon=eps, kappa=Fraction(1, 10))
            report = claim_check(a, m, params)
            assert report.covering_defect_ok
            assert report.passed


class TestChainMassBounds:
    def test_upper_full_cube(self):
        bound = max_cell_chain_mass_upper(full_cube(2, 10), 5)
        assert bound == Fraction(2, 5) * 9
        assert bound >= 2

    def test_upper_single_coarse_cell(self):
        cells = {(x, y) for x in range(2) for y in range(2)}
        a = CellSet(2, 10, frozenset(cells))
        assert max_cell_chain_mass_upper(a, 5) == Fraction(2, 5)

    def test_upper_empty(self):
        assert max_cell_chain_mass_upper(CellSet(2, 10, frozenset()), 5) == 0

    def test_adversarial_full_cube(self):
        for n, M in ((1, 8), (2, 10), (3, 6)):
            result = adversarial_chain_search(full_cube(n, M))
            assert result.lower == n
            assert staircase_mass(full_cube(n, M), result.witness) == n

    def test_adversarial_empty(self):
        result = adversarial_chain_search(CellSet(2, 8, frozenset()))
        assert result.lower == 0

    def test_adversarial_inner_slab(self):
        inner = discretize_slab(2, 100, Fraction(1), "inner")
        result = adversarial_chain_search(inner)
        assert Fraction(96, 100) <= result.lower <= 1
        assert staircase_mass(inner, result.witness) == result.lower
        # the coarse-cube upper bound never dips below the true supremum
        assert max_cell_chain_mass_upper(inner, 20) >= 1

    def test_adversarial_corner_cap(self):
        with pytest.raises(ResourceLimitError):
            adversarial_chain_search(full_cube(2, 50), Config(max_fine_states=100))

    def test_sandwich_on_random_sets(self):
        # the two oracles bracket the exact supremum, at every coarse m
        rng = random.Random(4391)
        for n, M in [(2, 24)] * 30 + [(3, 12)] * 10 + [(1, 36)] * 10:
            a = random_cellset(rng, n, M, density=rng.uniform(0.05, 0.9))
            lower = adversarial_chain_search(a).lower
            sup = chain_mass_sup(a)
            assert lower <= sup
            for m in range(2, M + 1):
                if M % m == 0:
                    assert sup <= max_cell_chain_mass_upper(a, m)

    def test_witness_mass_matches_oracle(self):
        rng = random.Random(97)
        for _ in range(20):
            a = random_cellset(rng, 2, 16, density=rng.uniform(0.1, 0.9))
            result = adversarial_chain_search(a)
            assert staircase_mass(a, result.witness) == result.lower

    def test_against_exhaustive_path_enumeration(self):
        # oracle: walk every corner-to-corner monotone lattice path
        rng = random.Random(2718)
        for n in [2] * 25 + [3] * 10:
            M = rng.choice([2, 3]) if n == 2 else 2
            cells = frozenset(
                c for c in itertools.product(range(M), repeat=n) if rng.random() < 0.6
            )
            a = CellSet(n, M, cells)
            best = 0
            for perm in set(itertools.permutations(list(range(n)) * M)):
                corner = [0] * n
                score = 0
                for axis in perm:
                    cell = tuple(
                        corner[j] if j == axis else min(corner[j], M - 1)
                        for j in range(n)
                    )
                    if cell in a:
                        score += 1
                    corner[axis] += 1
                best = max(best, score)
            assert adversarial_chain_search(a).lower == Fraction(best, M)


def random_staircase(rng: random.Random, n: int, D: int) -> MonotonePolyline:
    """A random axis-parallel monotone staircase from the origin on the 1/D lattice."""
    corner = [0] * n
    vertices = [tuple(corner)]
    while rng.random() < 0.95:
        axes = [j for j in range(n) if corner[j] < D]
        if not axes:
            break
        axis = rng.choice(axes)
        corner[axis] += rng.randint(1, D - corner[axis])
        vertices.append(tuple(corner))
    return MonotonePolyline(n, numerators=vertices, denominator=D)


class TestChainMassSup:
    def test_against_chain_formula(self):
        # oracle: max over chains of cells of the distinct values per axis
        rng = random.Random(8123)
        largest_M = {1: 12, 2: 8, 3: 5, 4: 3}
        for _ in range(320):
            n = rng.randint(1, 4)
            M = rng.randint(2, largest_M[n])
            a = random_cellset(rng, n, M, density=rng.uniform(0, 1))
            assert chain_mass_sup(a) == Fraction(chain_formula_max(a.points(), n), M)

    def test_staircases_never_exceed_it(self):
        # staircase_mass reads cells half-open; so does the supremum
        rng = random.Random(3307)
        for _ in range(60):
            n = rng.randint(1, 3)
            M = rng.randint(2, 6)
            a = random_cellset(rng, n, M, density=rng.uniform(0.2, 1))
            sup = chain_mass_sup(a)
            for K in (1, 2, 4, 8):
                for _ in range(5):
                    assert staircase_mass(a, random_staircase(rng, n, K * M)) <= sup

    def test_hand_values(self):
        assert chain_mass_sup(CellSet(2, 10, [(i, i) for i in range(10)])) == 2
        for n, M in ((1, 8), (2, 10), (3, 6), (4, 3)):
            assert chain_mass_sup(full_cube(n, M)) == n
            assert chain_mass_sup(CellSet(n, M, [])) == 0
        assert chain_mass_sup(CellSet(1, 4, [(0,), (2,)])) == Fraction(1, 2)

    def test_layered_dp_against_row_merge_and_chain_formula(self):
        # oracles: the row-merge DP over all 2^n - 1 moves per corner, and
        # the maximum over chains of cells of the distinct values per axis
        rng = random.Random(6151)
        for n, M in ((1, 20), (2, 10), (3, 6), (4, 4), (5, 3), (6, 2)):
            cube = list(itertools.product(range(M), repeat=n))
            shapes = [
                [],
                cube,
                [(i,) * n for i in range(M)],
                [c for c in cube if sum(c) % 2 == 0],
            ]
            shapes += [[c for c in cube if rng.random() < p] for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
            for cells in shapes:
                a = CellSet(n, M, cells)
                sup = chain_mass_sup(a)
                assert sup == row_merge_chain_mass_sup(a)
                assert sup == Fraction(chain_formula_max(a.points(), n), M)

    def test_cap_is_checked_before_any_work(self):
        # (M+1)^n * max(1, n(n-1)/2) row-element updates
        rows = [(1, 9), (2, 6), (3, 4), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2)]
        for n, M in rows + [(10, 2), (11, 2)]:
            work = (M + 1) ** n * max(1, n * (n - 1) // 2)
            a = full_cube(n, M)
            if (n, M) in rows:
                assert chain_mass_sup(a, Config(max_fine_states=work)) == n
            else:
                check_chain_mass_cap(n, M, Config(max_fine_states=work))
            with pytest.raises(ResourceLimitError):
                chain_mass_sup(a, Config(max_fine_states=work - 1))
        # 10^18 corners, or 3^40 corners: refused at once
        start = time.perf_counter()
        for n, M in ((3, 10**6), (40, 2)):
            with pytest.raises(ResourceLimitError):
                chain_mass_sup(CellSet(n, M, []))
        assert time.perf_counter() - start < 0.1

    def test_full_cube_at_the_default_cap(self):
        # n = 10, M = 2: 3^10 * 45 row-element updates, inside the default
        # 10^7; about 0.5 s on a 2-vCPU machine
        start = time.perf_counter()
        assert chain_mass_sup(full_cube(10, 2)) == 10
        assert time.perf_counter() - start < 10


class TestStaircaseMass:
    def test_one_dimensional_hand_value(self):
        a = CellSet(1, 4, frozenset({(0,), (2,)}))
        assert staircase_mass(a, polyline([(0,), (1,)])) == Fraction(1, 2)

    def test_rejects_skew_segments(self):
        with pytest.raises(DomainError):
            staircase_mass(full_cube(2, 4), polyline([(0, 0), (1, 1)]))

    def test_against_midpoint_sampling_oracle(self):
        # oracle: split each segment at every fine boundary and decide
        # membership by the midpoint's containing cell
        def cell_of(x, M):
            return tuple(min(int(c * M), M - 1) for c in x)

        def oracle(a, p):
            total = Fraction(0)
            for start, end in zip(p.vertices, p.vertices[1:]):
                axis = next(
                    (j for j in range(a.n) if end[j] != start[j]), None
                )
                if axis is None:
                    continue
                cuts = sorted(
                    {start[axis], end[axis]}
                    | {
                        Fraction(k, a.M)
                        for k in range(a.M + 1)
                        if start[axis] <= Fraction(k, a.M) <= end[axis]
                    }
                )
                for lo, hi in zip(cuts, cuts[1:]):
                    mid = list(start)
                    mid[axis] = (lo + hi) / 2
                    if cell_of(mid, a.M) in a:
                        total += hi - lo
            return total

        rng = random.Random(53)
        for _ in range(40):
            M = rng.choice([3, 4, 5])
            a = random_cellset(rng, 2, M, density=rng.uniform(0.2, 0.9))
            # axis-parallel monotone staircase with thirds/fifths coordinates
            denom = rng.choice([3, 5, 7])
            x = [Fraction(0), Fraction(0)]
            vertices = [tuple(x)]
            for _ in range(rng.randint(1, 6)):
                axis = rng.randint(0, 1)
                room = int((1 - x[axis]) * denom)
                if room == 0:
                    continue
                x[axis] += Fraction(rng.randint(1, room), denom)
                vertices.append(tuple(x))
            p = polyline(vertices, n=2)
            assert staircase_mass(a, p) == oracle(a, p)


class TestBuildChain:
    def test_single_cube_returns_empty(self):
        a = full_cube(2, 10)
        cert = build_chain_through_cubes(
            ChainOfPoints(((1, 1),)), a, 5, Fraction(1, 20)
        )
        assert cert.mass == 0
        assert cert.guarantee == 0
        assert cert.polyline.vertices == ()

    def test_two_full_intervals_one_dimensional(self):
        a = full_cube(1, 10)
        eps = Fraction(1, 10)
        cert = build_chain_through_cubes(ChainOfPoints(((0,), (1,))), a, 5, eps)
        assert cert.guarantee == (1 - 4 * eps) * (1 - eps) * Fraction(1, 5)
        assert cert.mass >= cert.guarantee

    def test_diagonal_chain_guarantee(self):
        w = 5
        cells = {
            (a, b)
            for c in range(10)
            for a in range(w * c, w * c + w)
            for b in range(w * c, w * c + w)
        }
        a = CellSet(2, 50, frozenset(cells))
        q = ChainOfPoints(tuple((i, i) for i in range(10)))
        eps = Fraction(1, 50)
        cert = build_chain_through_cubes(q, a, 10, eps)
        assert cert.guarantee == (1 - 6 * eps) * (1 - eps) ** 2 * Fraction(9, 10)
        assert cert.mass >= cert.guarantee
        assert staircase_mass(a, cert.polyline) == cert.mass

    def test_density_precondition(self):
        cells = {(x,) for x in range(5)}  # first interval only half-covered
        cells |= {(x,) for x in range(10, 20)}
        a = CellSet(1, 20, frozenset(cells))
        with pytest.raises(DomainError):
            build_chain_through_cubes(
                ChainOfPoints(((0,), (1,))), a, 2, Fraction(1, 10)
            )

    @pytest.mark.parametrize("m", ["2", 0, 2.0, True])
    def test_bad_coarse_resolution(self, m):
        a = full_cube(1, 10)
        with pytest.raises(DomainError, match="coarse resolution must be a positive integer"):
            build_chain_through_cubes(ChainOfPoints(((0,), (1,))), a, m, Fraction(1, 10))

    def test_epsilon_precondition(self):
        a = full_cube(1, 10)
        with pytest.raises(DomainError):
            build_chain_through_cubes(
                ChainOfPoints(((0,), (1,))), a, 5, Fraction(1, 4)
            )

    def test_randomised_certificates(self, rng):
        for _ in range(10):
            n = rng.choice([1, 2])
            if n == 1:
                a, q, eps = random_dense_cube_chain(rng, 1, rng.randint(2, 12), 100, 1)
            else:
                a, q, eps = random_dense_cube_chain(rng, 2, rng.randint(2, 3), 100, 1)
            m = a.M // 100
            cert = build_chain_through_cubes(q, a, m, eps)
            assert cert.mass >= cert.guarantee
            assert staircase_mass(a, cert.polyline) == cert.mass


class TestEndToEnd:
    def test_inner_slab_instance(self):
        inner = discretize_slab(2, 100, Fraction(1), "inner")
        report = end_to_end_verify(inner, Fraction(1), 20, epsilon=Fraction(1, 100))
        assert report.claim.passed
        assert report.whitney_ok
        assert report.dense_count <= report.whitney_cap
        assert abs(report.measure_a - Fraction(3, 4)) <= Fraction(4, 100)
        assert report.chain_mass_sup == 1
        assert report.feasibility == "feasible"
        assert report.measure_a <= Fraction(report.dense_count, 400) + report.params.delta

    def test_full_cube_flagged_infeasible(self):
        report = end_to_end_verify(full_cube(2, 100), Fraction(1), 20, epsilon=Fraction(1, 100))
        assert report.chain_mass_sup == 2
        assert report.feasibility == "infeasible"
        assert report.constraint_violated

    def test_empty_feasible(self):
        report = end_to_end_verify(CellSet(2, 20, frozenset()), Fraction(1), 10)
        assert report.feasibility == "feasible"
        assert report.measure_within_volume

    def test_three_dimensional_smoke(self):
        inner = discretize_slab(3, 12, Fraction(1), "inner")
        report = end_to_end_verify(inner, Fraction(1), 4)
        assert report.params.epsilon == Fraction(1, 14)
        assert report.chain_mass_sup == 1
        assert report.feasibility == "feasible"
        assert report.measure_a <= report.slab_volume
        assert report.claim.measure_a == measure(inner)

    def test_whitney_bound_on_certified_feasible_sets(self, rng):
        # sets certified feasible never break the Whitney inequality
        hits = 0
        for _ in range(30):
            band_lo = rng.randint(0, 20)
            cells = set()
            for x, y in itertools.product(range(40), repeat=2):
                if band_lo <= (x // 2) + (y // 2) <= band_lo + 9 and rng.random() < 0.7:
                    cells.add((x, y))
            a = CellSet(2, 40, frozenset(cells))
            report = end_to_end_verify(a, Fraction(1), 20)
            if report.feasibility == "feasible":
                hits += 1
                assert report.whitney_ok
        assert hits >= 25


def test_feasible_sets_respect_the_slab_volume():
    # the paper's theorem at finite resolution: a union of cells whose
    # chains all carry mass at most kappa measures at most v_n(kappa)
    rng = random.Random(7741)
    feasible = 0
    for _ in range(600):
        n = rng.choice([2, 3])
        M = rng.randint(2, 12 if n == 2 else 6)
        kappa = Fraction(rng.randint(1, n * M - 1), M)
        # a diagonal band of about the extremal width, thinned at random
        width = max(1, math.floor(kappa * M) - n + 1 + rng.randint(-1, 2))
        lo = (n * (M - 1) - width + 1) // 2 + rng.randint(-2, 2)
        density = rng.uniform(0.5, 1)
        cells = [
            c
            for c in itertools.product(range(M), repeat=n)
            if lo <= sum(c) < lo + width and rng.random() < density
        ]
        a = CellSet(n, M, cells)
        if chain_mass_sup(a) <= kappa:
            feasible += 1
            assert measure(a) <= slab_volume_exact(SlabSpec(n, kappa)).exact
    assert feasible >= 100
