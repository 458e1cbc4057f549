"""Grid poset: chain DP vs path enumeration, SCD validity, brute force."""

import itertools
import random
from fractions import Fraction

import pytest

import maxchain_oracle
from chainlab import (
    ChainOfPoints,
    Config,
    DomainError,
    ResourceLimitError,
    WeightedGrid,
    is_chain,
    ksperner_bound_via_scd,
    ksperner_max_bruteforce,
    max_weight_chain,
    sum_k_largest,
    symmetric_chain_decomposition,
    whitney_numbers,
)
from chainlab import io as chainlab_io
from chainlab.gridposet import _scd_chain_lengths, monotone_path_dp


def enumerate_max_chain_total(grid: WeightedGrid) -> Fraction:
    """Oracle: every chain extends to a saturated bottom-to-top path, and
    weights are nonnegative, so the optimum is the best such path."""
    n, m = grid.n, grid.m
    top = tuple([m - 1] * n)
    best = [Fraction(0)]

    def walk(point, acc):
        acc = acc + grid.weights.get(point, Fraction(0))
        if point == top:
            if acc > best[0]:
                best[0] = acc
            return
        for j in range(n):
            if point[j] < m - 1:
                step = tuple(c + (1 if i == j else 0) for i, c in enumerate(point))
                walk(step, acc)

    walk(tuple([0] * n), Fraction(0))
    return best[0]


class TestIsChain:
    def test_examples(self):
        assert is_chain([(0, 0), (0, 1), (1, 1)])
        assert not is_chain([(0, 1), (1, 0)])
        assert is_chain([])
        assert is_chain([(2, 2)])

    def test_mixed_dimension(self):
        with pytest.raises(DomainError):
            is_chain([(0, 1), (1, 0, 0)])


class TestChainOfPoints:
    def test_rejects_non_monotone(self):
        with pytest.raises(DomainError):
            ChainOfPoints(((0, 1), (1, 0)))
        with pytest.raises(DomainError):
            ChainOfPoints(((1, 1), (1, 1)))

    def test_rejects_mixed_dimension(self):
        with pytest.raises(DomainError):
            ChainOfPoints(((0, 0), (1, 1, 1)))
        with pytest.raises(DomainError):
            ChainOfPoints(((0, 0, 0), (1, 1)))


class TestMonotonePathDP:
    def test_against_path_enumeration(self):
        # oracle: score every monotone path from the origin to the top corner;
        # the origin weighs 99, so reading it would show
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(1, 3)
            extent = [rng.randint(1, 4 if n < 3 else 3) for _ in range(n)]
            points = list(itertools.product(*(range(e) for e in extent)))
            weight = [99] + [rng.randint(0, 5) for _ in points[1:]]
            index = {x: i for i, x in enumerate(points)}
            best = 0
            steps = [j for j in range(n) for _ in range(extent[j] - 1)]
            for perm in set(itertools.permutations(steps)):
                x, total = [0] * n, 0
                for j in perm:
                    x[j] += 1
                    total += weight[index[tuple(x)]]
                best = max(best, total)
            assert monotone_path_dp(extent, weight)[-1] == best


class TestMaxWeightChain:
    def test_frozen_two_by_two(self):
        grid = WeightedGrid(
            2, 2, {(0, 0): 1, (0, 1): 5, (1, 0): 2, (1, 1): 3}
        )
        result = max_weight_chain(grid)
        assert result.total == 9
        assert result.witness == ((0, 0), (0, 1), (1, 1))

    def test_all_ones_gives_longest_chain(self):
        for n, m in ((1, 6), (2, 3), (2, 4), (3, 2), (3, 3)):
            grid = WeightedGrid(
                n, m, {p: 1 for p in itertools.product(range(m), repeat=n)}
            )
            assert max_weight_chain(grid).total == n * (m - 1) + 1

    def test_single_weight(self):
        grid = WeightedGrid(2, 3, {(1, 2): Fraction(7, 3)})
        result = max_weight_chain(grid)
        assert result.total == Fraction(7, 3)
        assert result.witness == ((1, 2),)

    def test_empty_weights(self):
        result = max_weight_chain(WeightedGrid(2, 2, {}))
        assert result.total == 0
        assert result.witness == ()

    def test_against_enumeration(self):
        rng = random.Random(7)
        for _ in range(100):
            n, m = 2, rng.choice([2, 3])
            weights = {
                p: Fraction(rng.randint(0, 20), rng.randint(1, 5))
                for p in itertools.product(range(m), repeat=n)
                if rng.random() < 0.8
            }
            grid = WeightedGrid(n, m, weights)
            assert max_weight_chain(grid).total == enumerate_max_chain_total(grid)

    def test_columns_against_fraction_oracle(self):
        # The DP on integer columns against the Fraction one it replaced, on
        # grids built from mixed values (ints, Fractions and "P/Q" strings,
        # some unreduced, some zero) and from a weights file of "P/Q"
        # strings read as one list.
        rng = random.Random(3501)
        nonzero = 0
        for _ in range(300):
            n, m = rng.choice((1, 2, 3)), rng.randint(2, 7)
            density = rng.random()
            points = [p for p in itertools.product(range(m), repeat=n) if rng.random() < density]
            rng.shuffle(points)
            mixed, texts = {}, {}
            for p in points:
                w = Fraction(rng.choice((0, rng.randint(1, 9))), rng.randint(1, 12))
                k = rng.randint(1, 3)
                texts[p] = f"{w.numerator * k}/{w.denominator * k}"
                mixed[p] = rng.choice((texts[p], w, int(w) if w.denominator == 1 else w))
            want = maxchain_oracle.max_weight_chain(n, m, {p: Fraction(v) for p, v in mixed.items()})
            entries = [{"point": list(p), "w": texts[p]} for p in points]
            for grid in (
                WeightedGrid(n, m, mixed),
                chainlab_io.weighted_grid_from_dict({"n": n, "m": m, "weights": entries}),
            ):
                assert grid.weights == {p: Fraction(v) for p, v in mixed.items()}
                got = max_weight_chain(grid)
                assert got == want and type(got.total) is Fraction
            nonzero += bool(want.witness)
        assert nonzero > 150

    def test_witness_is_chain_and_attains_total(self):
        rng = random.Random(3)
        for _ in range(50):
            n, m = rng.choice([(2, 3), (3, 2)])
            weights = {
                p: Fraction(rng.randint(1, 9))
                for p in itertools.product(range(m), repeat=n)
                if rng.random() < 0.5
            }
            grid = WeightedGrid(n, m, weights)
            result = max_weight_chain(grid)
            witness = result.witness
            assert type(witness) is tuple and is_chain(witness)
            assert all(sum(a) < sum(b) for a, b in zip(witness, witness[1:])), "bottom to top"
            assert sum(
                (grid.weights.get(p, Fraction(0)) for p in result.witness),
                Fraction(0),
            ) == result.total

    def test_witness_against_exhaustive_lexmin(self):
        # oracle: enumerate every chain of positively weighted points,
        # keep the optimal ones, compare the lexicographically smallest
        rng = random.Random(314)
        for _ in range(100):
            n, m = rng.choice([(2, 2), (2, 3), (3, 2)])
            weights = {}
            for p in itertools.product(range(m), repeat=n):
                if rng.random() < 0.45:
                    weights[p] = Fraction(rng.randint(0, 6))
            grid = WeightedGrid(n, m, weights)
            positives = sorted(p for p, w in grid.weights.items() if w > 0)
            best_total, best_seqs = Fraction(0), []
            for r in range(len(positives) + 1):
                for combo in itertools.combinations(positives, r):
                    if not is_chain(combo):
                        continue
                    seq = tuple(sorted(combo, key=lambda p: (sum(p), p)))
                    total = sum((grid.weights[p] for p in seq), Fraction(0))
                    if total > best_total:
                        best_total, best_seqs = total, [seq]
                    elif total == best_total and total > 0:
                        best_seqs.append(seq)
            result = max_weight_chain(grid)
            assert result.total == best_total
            expected = min(best_seqs) if best_seqs else ()
            assert result.witness == expected

    def test_scaling_equivariance(self):
        rng = random.Random(13)
        weights = {
            p: Fraction(rng.randint(0, 9))
            for p in itertools.product(range(3), repeat=2)
        }
        grid = WeightedGrid(2, 3, weights)
        base = max_weight_chain(grid)
        for c in (Fraction(3), Fraction(2, 7), Fraction(1, 10**9 + 7)):
            scaled = WeightedGrid(2, 3, {p: c * w for p, w in weights.items()})
            result = max_weight_chain(scaled)
            assert result.total == c * base.total
            assert result.witness == base.witness

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            WeightedGrid(2, 2, {(0, 0): Fraction(-1)})

    def test_state_cap(self):
        grid = WeightedGrid(2, 11, {})
        with pytest.raises(ResourceLimitError):
            max_weight_chain(grid, Config(max_grid_states=100))


class TestSymmetricChainDecomposition:
    def test_dimension_one(self):
        scd = symmetric_chain_decomposition(1, 7)
        assert len(scd.chains) == 1
        assert scd.chains == (tuple((j,) for j in range(7)),)

    def test_frozen_examples(self):
        lengths = sorted(len(c) for c in symmetric_chain_decomposition(2, 2).chains)
        assert lengths == [1, 3]
        lengths = sorted(len(c) for c in symmetric_chain_decomposition(2, 3).chains)
        assert lengths == [1, 3, 5]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_validity_invariants(self, n, m):
        scd = symmetric_chain_decomposition(n, m)
        seen = set()
        top_rank = n * (m - 1)
        assert type(scd.chains) is tuple
        for chain in scd.chains:
            assert type(chain) is tuple and is_chain(chain)
            ranks = [sum(p) for p in chain]
            assert all(b - a == 1 for a, b in zip(ranks, ranks[1:])), "saturated"
            assert ranks[0] + ranks[-1] == top_rank, "symmetric"
            for p in chain:
                assert p not in seen, "disjoint"
                seen.add(p)
        assert len(seen) == m**n, "partition"
        middle = whitney_numbers(n, m).coeffs[top_rank // 2]
        assert len(scd.chains) == middle

    def test_output_cap(self):
        with pytest.raises(ResourceLimitError):
            symmetric_chain_decomposition(6, 13)
        with pytest.raises(ResourceLimitError):
            _scd_chain_lengths(6, 13)

    def test_chain_lengths_without_points(self):
        for n in range(1, 6):
            for m in range(2, 8):
                scd = symmetric_chain_decomposition(n, m)
                expected = sorted((len(c) for c in scd.chains), reverse=True)
                assert _scd_chain_lengths(n, m) == expected

    def test_chain_lengths_domain(self):
        with pytest.raises(DomainError):
            _scd_chain_lengths(0, 3)
        with pytest.raises(DomainError):
            _scd_chain_lengths(2, 1)


class TestKSperner:
    def test_scd_bound_examples(self):
        assert ksperner_bound_via_scd(3, 2, 1) == 3
        assert ksperner_bound_via_scd(3, 2, 2) == 6
        assert ksperner_bound_via_scd(2, 3, 1) == 3

    def test_bruteforce_examples(self):
        assert ksperner_max_bruteforce(3, 2, 1) == 3
        assert ksperner_max_bruteforce(4, 2, 2) == 10
        assert ksperner_max_bruteforce(2, 3, 5) == 9

    def test_erdos_agreement_small(self):
        # (2, 4) is at the brute-force cap of 16 points.
        for n, m in ((2, 3), (3, 2), (1, 9), (1, 5), (2, 4)):
            for k in range(1, n * (m - 1) + 2):
                brute = ksperner_max_bruteforce(n, m, k)
                bound = ksperner_bound_via_scd(n, m, k)
                top = sum_k_largest(whitney_numbers(n, m), k)
                assert brute == bound == top

    def test_bruteforce_cap(self):
        with pytest.raises(ResourceLimitError):
            ksperner_max_bruteforce(2, 5, 1)

    def test_bruteforce_k_below_one(self):
        with pytest.raises(DomainError, match="^k must be >= 1, got 0$"):
            ksperner_max_bruteforce(2, 2, 0)
