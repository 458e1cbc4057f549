"""Whitney tables: convolution vs direct counting, top-k block selection."""

import itertools
import math
from fractions import Fraction

import pytest

from chainlab import (
    Config,
    DomainError,
    ResourceLimitError,
    convergence_table,
    sum_k_largest,
    whitney_numbers,
    whitney_sum,
)
from chainlab import whitney


def count_by_rank(n: int, m: int) -> list[int]:
    """Oracle: enumerate the grid and tally coordinate sums."""
    counts = [0] * (n * (m - 1) + 1)
    for point in itertools.product(range(m), repeat=n):
        counts[sum(point)] += 1
    return counts


def count_by_inclusion_exclusion(n: int, m: int, r: int) -> int:
    """Oracle: points of rank r, sum_j (-1)^j C(n,j) C(r - jm + n - 1, n - 1)."""
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(r - j * m + n - 1, n - 1)
        for j in range(min(n, r // m) + 1)
    )


class TestWhitneyNumbers:
    def test_frozen_small_tables(self):
        assert whitney_numbers(1, 3).coeffs == (1, 1, 1)
        assert whitney_numbers(2, 2).coeffs == (1, 2, 1)
        assert whitney_numbers(2, 3).coeffs == (1, 2, 3, 2, 1)

    def test_against_enumeration_oracle(self):
        for n in range(1, 5):
            for m in range(2, 7):
                assert list(whitney_numbers(n, m).coeffs) == count_by_rank(n, m)

    @pytest.mark.parametrize("n, m", [(8, 1200), (3, 5000), (16, 50), (1, 9), (2, 2)])
    def test_against_inclusion_exclusion(self, n, m):
        # sizes beyond the reach of the enumeration oracle
        coeffs = whitney_numbers(n, m).coeffs
        assert list(coeffs) == [
            count_by_inclusion_exclusion(n, m, r) for r in range(n * (m - 1) + 1)
        ]

    def test_binomial_specialisation(self):
        for n in range(1, 12):
            table = whitney_numbers(n, 2)
            assert list(table.coeffs) == [math.comb(n, r) for r in range(n + 1)]

    def test_invariant_sweep(self):
        # symmetry, unimodality and total over the full desk-scale range
        for n in range(1, 7):
            for m in range(2, 51):
                table = whitney_numbers(n, m)
                coeffs = table.coeffs
                assert len(coeffs) == n * (m - 1) + 1
                assert coeffs == coeffs[::-1]
                mid = len(coeffs) // 2
                assert all(
                    coeffs[i] <= coeffs[i + 1] for i in range(mid)
                ) and all(
                    coeffs[i] >= coeffs[i + 1] for i in range(mid, len(coeffs) - 1)
                )
                assert sum(coeffs) == m**n

    def test_memory_budget(self):
        with pytest.raises(ResourceLimitError):
            whitney_numbers(8, 10**4, Config(max_table_bytes=1024))

    def test_domain(self):
        with pytest.raises(DomainError):
            whitney_numbers(0, 3)
        with pytest.raises(DomainError):
            whitney_numbers(2, 1)


class TestSumKLargest:
    def test_frozen_examples(self):
        assert sum_k_largest(whitney_numbers(3, 2), 1).value == 3
        assert sum_k_largest(whitney_numbers(2, 3), 2).value == 5
        for n, m in ((2, 3), (3, 2), (1, 5)):
            table = whitney_numbers(n, m)
            assert sum_k_largest(table, len(table.coeffs)).value == m**n
            assert sum_k_largest(table, len(table.coeffs) + 7).value == m**n

    def test_binomial_block_closed_form(self):
        # on the m=2 tables the top-k sum is the classical block of
        # binomials starting right after floor((n-k)/2)
        for n in range(1, 10):
            table = whitney_numbers(n, 2)
            for k in range(1, n + 2):
                expected = sum(
                    math.comb(n, (n - k) // 2 + i) for i in range(1, k + 1)
                )
                assert sum_k_largest(table, k).value == expected

    def test_central_block_equals_sorted_topk(self):
        for n in range(1, 7):
            for m in range(2, 51):
                table = whitney_numbers(n, m)
                ranked = sorted(table.coeffs, reverse=True)
                prefix = [0]
                for c in ranked:
                    prefix.append(prefix[-1] + c)
                for k in range(1, len(table.coeffs) + 1):
                    assert sum_k_largest(table, k).value == prefix[k]

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            sum_k_largest(whitney_numbers(2, 2), 0)


class TestWhitneySum:
    def test_frozen_examples(self):
        assert whitney_sum(1, 10, Fraction(1, 2)).value == 6
        assert whitney_sum(2, 2, Fraction(2)).value == 4
        # k = ceil(3 + 2) = 5 covers the whole (2,3) table: golden value 9
        assert whitney_sum(2, 3, Fraction(1)).value == 9

    def test_exact_ceiling_near_integers(self):
        # kappa*m + n = 6 exactly: ceil must stay 6, not jump to 7
        assert whitney_sum(1, 10, Fraction(1, 2)).k == 6
        # just above an integer boundary
        assert whitney_sum(1, 10, Fraction(51, 100)).k == 7

    def test_domain(self):
        with pytest.raises(DomainError):
            whitney_sum(2, 5, Fraction(3))
        with pytest.raises(DomainError):
            whitney_sum(2, 5, Fraction(0))


class TestConvergence:
    def test_frozen_rows(self):
        (row,) = convergence_table(1, Fraction(1, 2), [10])
        assert row.value == 6
        assert row.ratio == Fraction(3, 5)
        assert row.volume == Fraction(1, 2)
        assert row.gap == Fraction(1, 10)

    def test_dimension_one_tail(self):
        (row,) = convergence_table(1, Fraction(1, 2), [1000])
        assert row.gap <= Fraction(2, 1000)

    def test_whole_cube_has_zero_gap(self):
        for m in (10, 17, 40):
            (row,) = convergence_table(2, Fraction(2), [m])
            assert row.ratio == 1
            assert row.gap == 0

    def test_envelope(self):
        for n, kappa in ((1, Fraction(1, 2)), (2, Fraction(1)), (3, Fraction(1))):
            for row in convergence_table(n, kappa, [10, 20, 50, 100]):
                assert row.gap <= Fraction(n * (n + 1), row.m)

    def test_every_m_checked_before_any_work(self, monkeypatch):
        def no_volume(spec):
            raise AssertionError("slab volume computed before the table checks")

        monkeypatch.setattr(whitney, "slab_volume_exact", no_volume)
        with pytest.raises(ResourceLimitError):
            convergence_table(2, Fraction(1), [10, 10**6], Config(max_table_bytes=10**4))
        with pytest.raises(DomainError):
            convergence_table(2, Fraction(1), [10, 1])
