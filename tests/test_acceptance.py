"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion
lines and timings.  Every tolerance is pinned here, not configured.
"""

import itertools
import random
import time
from fractions import Fraction

from chainlab import (
    CellSet,
    EpsilonParams,
    SlabSpec,
    antidiagonal_decompose,
    build_chain_through_cubes,
    discretize_slab,
    end_to_end_verify,
    extremal_chain,
    h1_length,
    ksperner_bound_via_scd,
    ksperner_max_bruteforce,
    measure,
    slab_volume_exact,
    slab_volume_montecarlo,
    staircase_mass,
    sum_k_largest,
    symmetric_chain_decomposition,
    whitney_numbers,
    whitney_sum,
)
from chainlab.verifier import max_cell_chain_mass_upper
from conftest import random_dense_cube_chain, random_monotone_polyline

LENGTH_SLACK = 2.0**-30


def report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.1f}s < {budget:.0f}s)")


def test_criterion_1_slab_volume_exactness():
    started = time.monotonic()
    cases = [(1, Fraction(i, 10)) for i in range(1, 11)]
    cases += [(2, Fraction(1)), (3, Fraction(1))]
    cases += [(n, Fraction(n)) for n in range(1, 9)]
    expected = {
        (2, Fraction(1)): Fraction(3, 4),
        (3, Fraction(1)): Fraction(2, 3),
    }
    for n, kappa in cases:
        spec = SlabSpec(n, kappa)
        volume = slab_volume_exact(spec)
        if n == 1:
            assert volume == kappa
        if kappa == n:
            assert volume == 1
        if (n, kappa) in expected:
            assert volume == expected[(n, kappa)]
        mc = slab_volume_montecarlo(spec, 10**6, seed=0)
        if mc.half_width_99 == 0.0:
            assert mc.estimate == float(volume)
        else:
            assert abs(mc.estimate - float(volume)) <= mc.half_width_99
    report(1, "slab volume exactness", started, 5.0)


def test_criterion_2_convergence():
    started = time.monotonic()
    for n, kappa in ((1, Fraction(1, 2)), (2, Fraction(1)), (3, Fraction(1))):
        volume = slab_volume_exact(SlabSpec(n, kappa))
        gaps = []
        for m in (10, 100, 1000):
            value = whitney_sum(n, m, kappa)
            gaps.append(abs(Fraction(value, m**n) - volume))
        assert gaps[0] > gaps[1] > gaps[2], f"gaps not decreasing for n={n}"
        assert gaps[2] <= Fraction(n * (n + 1), 1000)
    report(2, "whitney-sum convergence", started, 30.0)


def test_criterion_3_erdos_desk_scale():
    started = time.monotonic()
    pairs = [(1, m) for m in range(2, 17)]
    pairs += [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
    assert all(m**n <= 16 for n, m in pairs)
    for n, m in pairs:
        table = whitney_numbers(n, m)
        for k in range(1, n * (m - 1) + 2):
            brute = ksperner_max_bruteforce(n, m, k)
            certified = ksperner_bound_via_scd(n, m, k)
            top = sum_k_largest(table, k)
            assert brute == certified == top, (n, m, k, brute, certified, top)
    report(3, "k-Sperner brute force = SCD bound = Whitney sum", started, 60.0)


def test_criterion_4_scd_validity():
    started = time.monotonic()
    for n in range(1, 5):
        for m in range(2, 6):
            scd = symmetric_chain_decomposition(n, m)
            top_rank = n * (m - 1)
            seen = set()
            for chain in scd.chains:
                ranks = [sum(p) for p in chain]
                assert all(b - a == 1 for a, b in zip(ranks, ranks[1:]))
                assert ranks[0] + ranks[-1] == top_rank
                for p in chain:
                    assert p not in seen
                    seen.add(p)
            assert len(seen) == m**n
            largest = whitney_numbers(n, m).coeffs[top_rank // 2]
            assert len(scd.chains) == largest
    report(4, "SCD validity", started, 5.0)


def test_criterion_5_chain_length_properties():
    started = time.monotonic()
    rng = random.Random(550)
    for n in (2, 3, 5):
        assert h1_length(extremal_chain(n)) == n
        for i in range(10**4):
            p = random_monotone_polyline(rng, n)
            total = h1_length(p)
            if isinstance(total, Fraction):
                assert total <= n
            else:
                assert total <= n + LENGTH_SLACK
            pieces_total = 0.0
            for piece in antidiagonal_decompose(p):
                if piece.piece is None:
                    continue
                assert piece.s_interval_length <= 1
                length = float(h1_length(piece.piece))
                assert length <= float(piece.s_interval_length) + LENGTH_SLACK
                pieces_total += length
            assert abs(pieces_total - float(total)) < 1e-9
    report(5, "chain length and anti-diagonal decomposition", started, 30.0)


def test_criterion_6_chain_certificates():
    started = time.monotonic()
    rng = random.Random(660)
    built = 0
    for i in range(50):
        kind = i % 5
        if kind < 2:
            m, w = rng.randint(2, 20), 100
            a, q, eps = random_dense_cube_chain(rng, 1, m, w, 1)
        elif kind < 4:
            m, w = rng.randint(2, 20), rng.randint(2, 5)
            a, q, eps = random_dense_cube_chain(rng, 2, m, w, 0)
        else:
            m, w = rng.randint(2, 3), 100
            a, q, eps = random_dense_cube_chain(rng, 2, m, w, 1)
        cert = build_chain_through_cubes(q, a, m, eps)
        factor = (1 - (2 * a.n + 2) * eps) * (1 - eps) ** a.n
        assert cert.guarantee == factor * Fraction(len(q.points) - 1, m)
        assert cert.mass >= cert.guarantee
        assert staircase_mass(a, cert.polyline) == cert.mass
        built += 1
    assert built == 50
    report(6, "chain certificates through dense cubes", started, 60.0)


def test_criterion_7_end_to_end_slab_verification():
    started = time.monotonic()
    inner = discretize_slab(2, 100, Fraction(1), "inner")
    rep = end_to_end_verify(inner, Fraction(1), 20, epsilon=Fraction(1, 100))
    assert rep.claim.passed, "covering claim inequality"
    assert rep.dense_count <= rep.whitney_cap, "Whitney bound on dense cover"
    assert rep.measure_a <= Fraction(rep.dense_count, 20**2) + rep.params.delta
    assert rep.chain_mass_sup == 1
    assert rep.feasibility == "feasible"
    assert abs(rep.measure_a - Fraction(3, 4)) <= Fraction(4, 100)

    full = CellSet(2, 100, frozenset(itertools.product(range(100), repeat=2)))
    rep_full = end_to_end_verify(full, Fraction(1), 20, epsilon=Fraction(1, 100))
    assert rep_full.chain_mass_sup == 2
    assert rep_full.feasibility == "infeasible"
    report(7, "end-to-end slab verification", started, 120.0)


def test_criterion_8_feasible_sets_respect_volume_bound():
    started = time.monotonic()
    rng = random.Random(880)
    kappa = Fraction(1)
    n, m, M = 2, 20, 40
    volume = slab_volume_exact(SlabSpec(n, kappa))
    checked = 0
    while checked < 100:
        band_lo = rng.randint(0, 2 * (m - 1) - 10)
        density = rng.uniform(0.2, 1.0)
        cells = set()
        for x, y in itertools.product(range(M), repeat=2):
            if band_lo <= (x // 2) + (y // 2) <= band_lo + 9 and rng.random() < density:
                cells.add((x, y))
        a = CellSet(n, M, frozenset(cells))
        upper = max_cell_chain_mass_upper(a, m)
        assert upper <= kappa, "generator must certify feasibility"
        params = EpsilonParams.auto(n, kappa)
        assert measure(a) <= volume + params.delta + Fraction(n, m)
        checked += 1
    report(8, "feasible sets respect the volume bound", started, 60.0)
